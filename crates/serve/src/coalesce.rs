//! In-flight request coalescing.
//!
//! Mapping attempts are expensive enough that duplicate work must be
//! shared: when N requests for the same
//! [`request_key`](ptmap_pipeline::request_key) are in flight at once,
//! exactly one — the *leader* — runs the compile; the other N−1
//! *followers* park on the flight and wake with the leader's outcome.
//! (Sequential duplicates are already covered by the report cache; the
//! flight table covers the window while the first compile is still
//! running.)
//!
//! Every flight owns a [`Budget`] scope. Followers that give up
//! (client disconnect, own deadline) detach from the flight; when the
//! last waiter detaches, the flight's budget is cancelled so an
//! audience-less compile stops at its next cooperative check instead
//! of burning a compile slot.

use crate::lock_unpoisoned;
use ptmap_governor::Budget;
use ptmap_pipeline::JobOutcome;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One in-flight compile, shared by its leader and any followers.
#[derive(Debug)]
pub struct Flight {
    /// The budget the leader's compile runs under. Cancelled when the
    /// last waiter detaches.
    pub budget: Budget,
    /// Waiters still interested in the outcome (leader included).
    waiters: AtomicUsize,
    /// The published outcome (`None` while the compile runs).
    result: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

impl Flight {
    /// Blocks until the outcome is published or `deadline` passes.
    pub fn wait(&self, deadline: Option<Instant>) -> Option<JobOutcome> {
        let mut guard = lock_unpoisoned(&self.result);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => {
                    guard = self
                        .cv
                        .wait(guard)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    guard = self
                        .cv
                        .wait_timeout(guard, d - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Waiters currently attached.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Acquire)
    }
}

/// Joining a flight either makes the caller responsible for the
/// compile (leader) or a passenger on someone else's (follower).
pub enum Join {
    /// This caller created the flight and must run the compile, then
    /// [`Coalescer::complete`] it.
    Leader(Arc<Flight>),
    /// Another request is already compiling this key; wait on the
    /// flight (and [`Coalescer::detach`] on give-up).
    Follower(Arc<Flight>),
}

/// The flight table: request key → in-flight compile.
#[derive(Debug, Default)]
pub struct Coalescer {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    coalesced: AtomicU64,
}

impl Coalescer {
    /// An empty flight table.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// Joins the flight for `key`, creating it (with a budget from
    /// `budget`) if this is the first in-flight request for the key.
    pub fn join(&self, key: &str, budget: impl FnOnce() -> Budget) -> Join {
        let mut flights = lock_unpoisoned(&self.flights);
        if let Some(flight) = flights.get(key) {
            flight.waiters.fetch_add(1, Ordering::AcqRel);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Join::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight {
            budget: budget(),
            waiters: AtomicUsize::new(1),
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        flights.insert(key.to_string(), Arc::clone(&flight));
        Join::Leader(flight)
    }

    /// Publishes the leader's outcome: removes the flight from the
    /// table (later requests start fresh — and will hit the cache) and
    /// wakes every follower.
    pub fn complete(&self, key: &str, flight: &Flight, outcome: JobOutcome) {
        lock_unpoisoned(&self.flights).remove(key);
        *lock_unpoisoned(&flight.result) = Some(outcome);
        flight.cv.notify_all();
    }

    /// A waiter gives up (disconnect or deadline). Cancels the
    /// flight's budget when nobody is left to read the outcome.
    pub fn detach(&self, flight: &Flight) {
        if flight.waiters.fetch_sub(1, Ordering::AcqRel) == 1 {
            flight.budget.cancel();
        }
    }

    /// Cancels every in-flight budget (drain-timeout enforcement).
    pub fn cancel_all(&self) {
        for flight in lock_unpoisoned(&self.flights).values() {
            flight.budget.cancel();
        }
    }

    /// Total requests that attached to an existing flight instead of
    /// compiling (N identical concurrent requests add N−1).
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Flights currently in the table.
    pub fn in_flight(&self) -> usize {
        lock_unpoisoned(&self.flights).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn outcome(name: &str) -> JobOutcome {
        JobOutcome {
            name: name.to_string(),
            cache_hit: false,
            report: None,
            error: Some("test".into()),
            error_class: Some("error".into()),
            degraded: None,
            retries: 0,
            trace_id: None,
        }
    }

    #[test]
    fn second_join_is_follower() {
        let c = Coalescer::new();
        let leader = match c.join("k", Budget::cancellable) {
            Join::Leader(f) => f,
            Join::Follower(_) => panic!("first join must lead"),
        };
        assert_eq!(c.in_flight(), 1);
        let follower = match c.join("k", Budget::cancellable) {
            Join::Follower(f) => f,
            Join::Leader(_) => panic!("second join must follow"),
        };
        assert!(Arc::ptr_eq(&leader, &follower));
        assert_eq!(c.coalesced_total(), 1);
        assert_eq!(leader.waiters(), 2);
        // A different key gets its own flight.
        assert!(matches!(
            c.join("other", Budget::cancellable),
            Join::Leader(_)
        ));
    }

    #[test]
    fn followers_wake_with_leader_outcome() {
        let c = Arc::new(Coalescer::new());
        let leader = match c.join("k", Budget::cancellable) {
            Join::Leader(f) => f,
            _ => unreachable!(),
        };
        let mut waiters = Vec::new();
        for _ in 0..3 {
            let c = Arc::clone(&c);
            waiters.push(std::thread::spawn(move || {
                let flight = match c.join("k", Budget::cancellable) {
                    Join::Follower(f) => f,
                    Join::Leader(_) => panic!("leader already in flight"),
                };
                flight.wait(None).expect("outcome published")
            }));
        }
        // Give the followers a moment to actually park.
        while c.coalesced_total() < 3 {
            std::thread::yield_now();
        }
        c.complete("k", &leader, outcome("shared"));
        for w in waiters {
            assert_eq!(w.join().unwrap().name, "shared");
        }
        assert_eq!(c.in_flight(), 0, "completed flight must leave the table");
    }

    #[test]
    fn wait_deadline_expires_without_result() {
        let c = Coalescer::new();
        let flight = match c.join("k", Budget::cancellable) {
            Join::Leader(f) => f,
            _ => unreachable!(),
        };
        let t0 = Instant::now();
        let got = flight.wait(Some(Instant::now() + Duration::from_millis(30)));
        assert!(got.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn last_detach_cancels_flight_budget() {
        let c = Coalescer::new();
        let leader = match c.join("k", Budget::cancellable) {
            Join::Leader(f) => f,
            _ => unreachable!(),
        };
        let follower = match c.join("k", Budget::cancellable) {
            Join::Follower(f) => f,
            _ => unreachable!(),
        };
        c.detach(&follower);
        assert!(
            !leader.budget.is_cancelled(),
            "leader still waiting: no cancel"
        );
        c.detach(&leader);
        assert!(
            leader.budget.is_cancelled(),
            "audience gone: compile must be cancelled"
        );
    }

    #[test]
    fn completion_after_abandonment_is_harmless() {
        let c = Coalescer::new();
        let leader = match c.join("k", Budget::cancellable) {
            Join::Leader(f) => f,
            _ => unreachable!(),
        };
        c.detach(&leader);
        c.complete("k", &leader, outcome("late"));
        assert_eq!(c.in_flight(), 0);
        // A fresh request for the key starts a new flight.
        assert!(matches!(c.join("k", Budget::cancellable), Join::Leader(_)));
    }
}
