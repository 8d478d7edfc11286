//! Cooperative compilation budgets.
//!
//! A [`Budget`] bounds one unit of work — a whole batch, one job, or
//! one mapping attempt — by any combination of a wall-clock deadline,
//! an external cancel flag, and a work-unit counter. Budgets are
//! checked *cooperatively*: long-running loops call [`Budget::check`]
//! (or [`Budget::charge`]) at natural attempt boundaries — per
//! placement attempt in the mapper, per variant branch in exploration,
//! per candidate in evaluation — never inside per-node BFS steps, so a
//! configured-but-untriggered budget costs one atomic load per check.
//!
//! The unlimited budget ([`Budget::unlimited`], also `Default`) holds
//! no allocation at all and checks are a branch on `None`; threading a
//! budget through an API therefore costs nothing for callers that do
//! not use it.
//!
//! Cancellation propagates through [`Budget::child`]: a child budget
//! shares its parent's cancel flag (cancelling the batch cancels every
//! job) while tightening the deadline to the minimum of the parent's
//! and its own.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Timeout,
    /// The budget (or an ancestor) was cancelled.
    Cancelled,
    /// The work-unit counter ran out.
    WorkExhausted,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Timeout => write!(f, "compilation deadline exceeded"),
            BudgetExceeded::Cancelled => write!(f, "compilation cancelled"),
            BudgetExceeded::WorkExhausted => write!(f, "compilation work budget exhausted"),
        }
    }
}

impl BudgetExceeded {
    /// The short machine-readable class, matching the vocabulary the
    /// pipeline uses for `error_class` (`timeout`, `cancelled`, ...).
    pub fn class(&self) -> &'static str {
        match self {
            BudgetExceeded::Timeout => "timeout",
            BudgetExceeded::Cancelled => "cancelled",
            BudgetExceeded::WorkExhausted => "work-exhausted",
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
    /// Cancel flags of enclosing scopes ([`Budget::scoped_child`]):
    /// observed by [`Budget::check`], never raised by
    /// [`Budget::cancel`].
    ancestors: Vec<Arc<AtomicBool>>,
    /// `u64::MAX` = no work limit.
    work_limit: u64,
    work_done: AtomicU64,
}

/// A cheap, clonable compilation budget (deadline + cancel flag +
/// optional work-unit counter). Clones share all state: cancelling any
/// clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

impl Budget {
    /// The unlimited budget: never expires, cannot be cancelled, and
    /// checks at zero cost.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A budget with only a cancel flag (no deadline, no work limit).
    pub fn cancellable() -> Budget {
        Budget::build(None, None)
    }

    /// A budget expiring `after` from now.
    pub fn with_deadline(after: Duration) -> Budget {
        Budget::build(Some(Instant::now() + after), None)
    }

    /// A budget expiring at an absolute instant.
    pub fn with_deadline_at(at: Instant) -> Budget {
        Budget::build(Some(at), None)
    }

    /// A budget allowing `limit` work units (see [`Budget::charge`]).
    pub fn with_work_limit(limit: u64) -> Budget {
        Budget::build(None, Some(limit))
    }

    fn build(deadline: Option<Instant>, work_limit: Option<u64>) -> Budget {
        Budget {
            inner: Some(Arc::new(Inner {
                deadline,
                cancelled: Arc::new(AtomicBool::new(false)),
                ancestors: Vec::new(),
                work_limit: work_limit.unwrap_or(u64::MAX),
                work_done: AtomicU64::new(0),
            })),
        }
    }

    /// Derives a child budget that shares this budget's cancel flag and
    /// tightens the deadline to `min(parent deadline, now + timeout)`.
    /// The child gets a fresh work counter. A `None` timeout on an
    /// unlimited parent stays unlimited.
    pub fn child(&self, timeout: Option<Duration>) -> Budget {
        let parent_deadline = self.deadline();
        let own_deadline = timeout.map(|t| Instant::now() + t);
        let deadline = match (parent_deadline, own_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match &self.inner {
            None if deadline.is_none() => Budget::unlimited(),
            None => Budget::build(deadline, None),
            Some(inner) => Budget {
                inner: Some(Arc::new(Inner {
                    deadline,
                    cancelled: Arc::clone(&inner.cancelled),
                    ancestors: inner.ancestors.clone(),
                    work_limit: u64::MAX,
                    work_done: AtomicU64::new(0),
                })),
            },
        }
    }

    /// Derives a child budget with its *own* cancel scope: cancelling
    /// the scoped child does **not** cancel the parent (unlike
    /// [`Budget::child`], whose cancel flag is shared both ways), but
    /// cancelling the parent — or any enclosing scope — still cancels
    /// the child. The deadline tightens to
    /// `min(parent deadline, now + timeout)` exactly as for `child`.
    ///
    /// This is the building block for per-request budgets in a
    /// long-running service: each request gets a scope it can cancel on
    /// client disconnect without tearing down the server-wide budget,
    /// while a server shutdown still propagates into every request.
    pub fn scoped_child(&self, timeout: Option<Duration>) -> Budget {
        let parent_deadline = self.deadline();
        let own_deadline = timeout.map(|t| Instant::now() + t);
        let deadline = match (parent_deadline, own_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let ancestors = match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut a = inner.ancestors.clone();
                a.push(Arc::clone(&inner.cancelled));
                a
            }
        };
        Budget {
            inner: Some(Arc::new(Inner {
                deadline,
                cancelled: Arc::new(AtomicBool::new(false)),
                ancestors,
                work_limit: u64::MAX,
                work_done: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this is the zero-cost unlimited budget.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero when already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Raises the cancel flag (shared with every clone and child). A
    /// no-op on the unlimited budget.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Whether the cancel flag is raised (on this budget or any
    /// enclosing scope).
    pub fn is_cancelled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| {
            i.cancelled.load(Ordering::Acquire)
                || i.ancestors.iter().any(|a| a.load(Ordering::Acquire))
        })
    }

    /// Checks the budget: cancel flag first, then deadline, then the
    /// work counter. `Instant::now()` is only consulted when a deadline
    /// is actually set, keeping deadline-free budgets at one atomic
    /// load per check.
    #[inline]
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Acquire)
            || inner.ancestors.iter().any(|a| a.load(Ordering::Acquire))
        {
            return Err(BudgetExceeded::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Timeout);
            }
        }
        if inner.work_done.load(Ordering::Relaxed) >= inner.work_limit {
            return Err(BudgetExceeded::WorkExhausted);
        }
        Ok(())
    }

    /// Charges `units` of work, then checks the budget.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<(), BudgetExceeded> {
        if let Some(inner) = &self.inner {
            if inner.work_limit != u64::MAX {
                inner.work_done.fetch_add(units, Ordering::Relaxed);
            }
        }
        self.check()
    }
}

/// Cancels a budget when dropped, unless [`CancelOnDrop::disarm`]ed.
///
/// The disconnect-driven cancellation hook for request-scoped budgets:
/// a connection handler creates the guard next to the work it admits
/// and disarms it once the response is on the wire. If the handler
/// unwinds, returns early, or a disconnect watcher drops the guard, the
/// budget — typically a [`Budget::scoped_child`] of the server-wide one
/// — is cancelled and the compile backing the request stops at its next
/// cooperative check instead of pinning a worker.
#[derive(Debug)]
pub struct CancelOnDrop {
    budget: Budget,
    armed: bool,
}

impl CancelOnDrop {
    /// Arms a guard over (a clone of) `budget`.
    pub fn new(budget: &Budget) -> CancelOnDrop {
        CancelOnDrop {
            budget: budget.clone(),
            armed: true,
        }
    }

    /// Defuses the guard: the budget survives the drop.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        if self.armed {
            self.budget.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_ok() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.charge(1 << 40), Ok(()));
        b.cancel(); // no-op
        assert!(!b.is_cancelled());
        assert!(b.remaining().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let b = Budget::cancellable();
        let c = b.clone();
        assert_eq!(c.check(), Ok(()));
        b.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check(), Err(BudgetExceeded::Timeout));
        let far = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(far.check(), Ok(()));
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn work_limit_exhausts() {
        let b = Budget::with_work_limit(3);
        assert_eq!(b.charge(1), Ok(()));
        assert_eq!(b.charge(1), Ok(()));
        assert_eq!(b.charge(1), Err(BudgetExceeded::WorkExhausted));
        assert_eq!(b.check(), Err(BudgetExceeded::WorkExhausted));
    }

    #[test]
    fn child_shares_cancel_and_tightens_deadline() {
        let parent = Budget::with_deadline(Duration::from_secs(3600));
        let child = parent.child(Some(Duration::from_secs(7200)));
        // Child deadline is capped by the parent's.
        assert!(child.deadline().unwrap() <= parent.deadline().unwrap());
        parent.cancel();
        assert_eq!(child.check(), Err(BudgetExceeded::Cancelled));

        let tighter =
            Budget::with_deadline(Duration::from_secs(3600)).child(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(tighter.check(), Err(BudgetExceeded::Timeout));
    }

    #[test]
    fn child_of_unlimited() {
        assert!(Budget::unlimited().child(None).is_unlimited());
        let timed = Budget::unlimited().child(Some(Duration::from_secs(60)));
        assert!(!timed.is_unlimited());
        assert!(timed.deadline().is_some());
    }

    #[test]
    fn exceeded_displays() {
        assert_eq!(
            BudgetExceeded::Timeout.to_string(),
            "compilation deadline exceeded"
        );
        assert_eq!(
            BudgetExceeded::Cancelled.to_string(),
            "compilation cancelled"
        );
        assert_eq!(
            BudgetExceeded::WorkExhausted.to_string(),
            "compilation work budget exhausted"
        );
    }

    #[test]
    fn scoped_child_cancel_does_not_propagate_up() {
        let root = Budget::cancellable();
        let request = root.scoped_child(None);
        request.cancel();
        assert_eq!(request.check(), Err(BudgetExceeded::Cancelled));
        assert_eq!(root.check(), Ok(()), "request cancel must stay scoped");
        assert!(!root.is_cancelled());
    }

    #[test]
    fn scoped_child_observes_ancestor_cancel() {
        let root = Budget::cancellable();
        let request = root.scoped_child(Some(Duration::from_secs(3600)));
        let attempt = request.child(None); // plain child of the scope
        assert_eq!(attempt.check(), Ok(()));
        root.cancel();
        assert!(request.is_cancelled());
        assert_eq!(request.check(), Err(BudgetExceeded::Cancelled));
        assert_eq!(
            attempt.check(),
            Err(BudgetExceeded::Cancelled),
            "ancestor flags survive through plain children of a scope"
        );
    }

    #[test]
    fn scoped_child_tightens_deadline() {
        let parent = Budget::with_deadline(Duration::from_secs(3600));
        let child = parent.scoped_child(Some(Duration::from_secs(7200)));
        assert!(child.deadline().unwrap() <= parent.deadline().unwrap());
        let tight = parent.scoped_child(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(tight.check(), Err(BudgetExceeded::Timeout));
        // Unlimited parent: the scope still gets its own deadline.
        let timed = Budget::unlimited().scoped_child(Some(Duration::from_secs(60)));
        assert!(timed.deadline().is_some());
        assert_eq!(timed.check(), Ok(()));
    }

    #[test]
    fn nested_scopes_cancel_downward_only() {
        let a = Budget::cancellable();
        let b = a.scoped_child(None);
        let c = b.scoped_child(None);
        b.cancel();
        assert_eq!(a.check(), Ok(()));
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
        assert_eq!(c.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn cancel_on_drop_fires_unless_disarmed() {
        let b = Budget::cancellable();
        {
            let _guard = CancelOnDrop::new(&b);
        }
        assert!(b.is_cancelled(), "dropped guard must cancel");

        let ok = Budget::cancellable();
        let guard = CancelOnDrop::new(&ok);
        guard.disarm();
        assert!(!ok.is_cancelled(), "disarmed guard must not cancel");
    }

    #[test]
    fn cancel_beats_timeout_in_reporting() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        b.cancel();
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
    }
}
