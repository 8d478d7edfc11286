//! Named fail-points for fault injection.
//!
//! Production code plants [`fail_point`] calls at the places the
//! robustness story cares about (the site inventory lives in
//! [`sites`]). A fail-point is inert — one relaxed atomic load — until
//! faults are configured, either:
//!
//! * from the environment: `PTMAP_FAULT=<site>:<mode>[:<arg>][@<scope>]`
//!   (comma-separated list), parsed once at first use; or
//! * programmatically in tests via [`install`], which also serializes
//!   concurrent test threads through a global lock and clears the
//!   configuration when the returned guard drops.
//!
//! Modes:
//!
//! * `panic` — panic at the site (exercises `catch_unwind` isolation);
//! * `error` — return a structured [`FaultError`] from the site;
//! * `delay[:<ms>]` — sleep `<ms>` milliseconds (default 100) and then
//!   succeed, simulating a wedged dependency so deadlines can be
//!   proven to fire;
//! * `refuse` — return a [`FaultError`] with [`FaultError::refused`]
//!   set, *without* any delay: the network-shaped failure of a peer
//!   whose port is closed (connection refused). The gateway maps it to
//!   a connect error, so retry/breaker paths are testable in-process
//!   without killing real daemons.
//!
//! The optional `@<scope>` suffix restricts a fault to call sites whose
//! thread-local scope (set by the batch scheduler to the job name via
//! [`with_scope`]) contains the given substring — this is how one job
//! of a batch is made to hang while its siblings run clean.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError, RwLock};
use std::time::Duration;

/// The inventory of fail-point sites compiled into the workspace.
pub mod sites {
    /// Disk read of a cache entry (`ptmap-pipeline`).
    pub const CACHE_READ: &str = "cache_read";
    /// Disk write of a cache entry (`ptmap-pipeline`).
    pub const CACHE_WRITE: &str = "cache_write";
    /// One placement attempt of the modulo scheduler (`ptmap-mapper`).
    pub const MAPPER_PLACE: &str = "mapper_place";
    /// Loading a GNN predictor checkpoint (`ptmap-pipeline`).
    pub const PREDICTOR_LOAD: &str = "predictor_load";
    /// Spawning a batch worker thread (`ptmap-pipeline`).
    pub const WORKER_SPAWN: &str = "worker_spawn";
    /// One gateway→peer request forward (`ptmap-serve`). Scoped to the
    /// peer address, so `refuse@127.0.0.1:PORT` kills one peer's
    /// forwarding path deterministically.
    pub const GATEWAY_FORWARD: &str = "gateway_forward";
    /// One gateway health probe of a peer (`ptmap-serve`). Scoped to
    /// the peer address, like [`GATEWAY_FORWARD`].
    pub const PEER_HEALTH: &str = "peer_health";
    /// Reading a versioned model snapshot from `--model-dir`
    /// (`ptmap-learn`). Scoped to the snapshot file name, so one
    /// version's load can be failed while the others restore clean.
    pub const MODEL_LOAD: &str = "model_load";
}

/// The structured error an `error`- or `refuse`-mode fault surfaces at
/// its site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that fired.
    pub site: String,
    /// True for `refuse`-mode faults: the failure is network-shaped
    /// (connection refused) rather than an internal error. Callers
    /// forwarding over a network map this onto their connect-error
    /// variant.
    pub refused: bool,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.refused {
            write!(f, "injected connection refusal at {}", self.site)
        } else {
            write!(f, "injected fault at {}", self.site)
        }
    }
}

impl std::error::Error for FaultError {}

/// What a matched fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    Panic,
    Error,
    Delay(Duration),
    Refuse,
}

#[derive(Debug, Clone)]
struct FaultSpec {
    site: String,
    mode: FaultMode,
    /// Substring the thread's scope must contain ("" = any).
    filter: String,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static REGISTRY: RwLock<Vec<FaultSpec>> = RwLock::new(Vec::new());
static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static SCOPE: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn parse_specs(text: &str) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for entry in text.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (body, filter) = match entry.rsplit_once('@') {
            Some((b, f)) => (b, f.to_string()),
            None => (entry, String::new()),
        };
        let mut parts = body.split(':');
        let site = parts.next().unwrap_or("").trim();
        let mode = parts.next().unwrap_or("").trim();
        let arg = parts.next().map(str::trim);
        if site.is_empty() {
            return Err(format!("fault spec {entry:?}: missing site"));
        }
        let mode = match mode {
            "panic" => FaultMode::Panic,
            "error" => FaultMode::Error,
            "delay" => {
                let ms: u64 = match arg {
                    None => 100,
                    Some(a) => a
                        .parse()
                        .map_err(|_| format!("fault spec {entry:?}: bad delay {a:?}"))?,
                };
                FaultMode::Delay(Duration::from_millis(ms))
            }
            "refuse" => FaultMode::Refuse,
            other => {
                return Err(format!(
                    "fault spec {entry:?}: unknown mode {other:?} \
                     (expected panic, error, delay, or refuse)"
                ))
            }
        };
        out.push(FaultSpec {
            site: site.to_string(),
            mode,
            filter,
        });
    }
    Ok(out)
}

fn set_registry(specs: Vec<FaultSpec>) {
    let enabled = !specs.is_empty();
    *REGISTRY.write().unwrap_or_else(PoisonError::into_inner) = specs;
    ENABLED.store(enabled, Ordering::Release);
}

fn init_from_env() {
    if let Ok(text) = std::env::var("PTMAP_FAULT") {
        match parse_specs(&text) {
            Ok(specs) => set_registry(specs),
            Err(e) => eprintln!("warning: ignoring PTMAP_FAULT: {e}"),
        }
    }
}

/// Runs `f` with the thread's fault scope set to `scope` (restored on
/// exit, including on panic). The batch scheduler scopes each job to
/// its name so `@<scope>` filters can target individual jobs.
pub fn with_scope<T>(scope: &str, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SCOPE.with(|s| s.borrow_mut().replace(scope.to_string()));
    let _restore = Restore(prev);
    f()
}

/// The fail-point hook. Inert (one atomic load) unless faults are
/// configured; otherwise the first spec matching `site` and the
/// thread's scope fires its mode.
///
/// # Errors
///
/// Returns [`FaultError`] when an `error`-mode fault matches.
///
/// # Panics
///
/// Panics when a `panic`-mode fault matches (by design).
#[inline]
pub fn fail_point(site: &str) -> Result<(), FaultError> {
    ENV_INIT.call_once(init_from_env);
    if !ENABLED.load(Ordering::Acquire) {
        return Ok(());
    }
    fire(site)
}

/// The armed slow path of [`fail_point`], kept out of line so the
/// disarmed fast path stays a single inlinable atomic load.
#[cold]
fn fire(site: &str) -> Result<(), FaultError> {
    let mode = {
        let registry = REGISTRY.read().unwrap_or_else(PoisonError::into_inner);
        let matched = registry.iter().find(|spec| {
            spec.site == site
                && (spec.filter.is_empty()
                    || SCOPE.with(|s| {
                        s.borrow()
                            .as_deref()
                            .is_some_and(|scope| scope.contains(&spec.filter))
                    }))
        });
        match matched {
            Some(spec) => spec.mode,
            None => return Ok(()),
        }
    };
    match mode {
        FaultMode::Panic => panic!("injected panic at fault point {site}"),
        FaultMode::Error => Err(FaultError {
            site: site.to_string(),
            refused: false,
        }),
        FaultMode::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FaultMode::Refuse => Err(FaultError {
            site: site.to_string(),
            refused: true,
        }),
    }
}

/// Guard for programmatic fault configuration in tests. Holds a global
/// lock (so concurrent tests cannot interleave fault configurations)
/// and clears the configuration when dropped.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        set_registry(Vec::new());
    }
}

/// Installs a fault configuration (same grammar as `PTMAP_FAULT`) for
/// the lifetime of the returned guard.
///
/// # Errors
///
/// Returns a description of the first malformed spec.
pub fn install(spec: &str) -> Result<FaultGuard, String> {
    ENV_INIT.call_once(init_from_env);
    let lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_registry(parse_specs(spec)?);
    Ok(FaultGuard { _lock: lock })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_configuration() {
        let _guard = install("").unwrap();
        assert_eq!(fail_point("anything"), Ok(()));
    }

    #[test]
    fn error_mode_returns_structured_error() {
        let _guard = install("cache_read:error").unwrap();
        let err = fail_point(sites::CACHE_READ).unwrap_err();
        assert_eq!(err.site, "cache_read");
        assert_eq!(err.to_string(), "injected fault at cache_read");
        assert_eq!(fail_point(sites::CACHE_WRITE), Ok(()));
    }

    #[test]
    fn panic_mode_panics() {
        let _guard = install("mapper_place:panic").unwrap();
        let r = std::panic::catch_unwind(|| fail_point(sites::MAPPER_PLACE));
        assert!(r.is_err());
    }

    #[test]
    fn delay_mode_sleeps_then_succeeds() {
        let _guard = install("cache_write:delay:20").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(fail_point(sites::CACHE_WRITE), Ok(()));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn refuse_mode_is_instant_and_marked_refused() {
        let _guard = install("gateway_forward:refuse").unwrap();
        let t0 = std::time::Instant::now();
        let err = fail_point(sites::GATEWAY_FORWARD).unwrap_err();
        assert!(err.refused, "refuse mode must mark the error refused");
        assert!(err.to_string().contains("connection refusal"), "{err}");
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "refuse must not delay"
        );
        // error mode stays un-refused.
        drop(_guard);
        let _guard = install("peer_health:error").unwrap();
        assert!(!fail_point(sites::PEER_HEALTH).unwrap_err().refused);
    }

    #[test]
    fn refuse_scope_targets_one_peer_address() {
        let _guard = install("gateway_forward:refuse@127.0.0.1:7311").unwrap();
        assert!(
            with_scope("127.0.0.1:7311", || fail_point(sites::GATEWAY_FORWARD)).is_err(),
            "the targeted peer is refused"
        );
        assert_eq!(
            with_scope("127.0.0.1:7312", || fail_point(sites::GATEWAY_FORWARD)),
            Ok(()),
            "other peers are untouched"
        );
    }

    #[test]
    fn scope_filter_targets_one_job() {
        let _guard = install("mapper_place:error@jobB").unwrap();
        assert_eq!(
            with_scope("jobA@S4", || fail_point(sites::MAPPER_PLACE)),
            Ok(())
        );
        assert!(with_scope("jobB@S4", || fail_point(sites::MAPPER_PLACE)).is_err());
        // No scope set: filtered faults do not fire.
        assert_eq!(fail_point(sites::MAPPER_PLACE), Ok(()));
    }

    #[test]
    fn scope_restored_after_panic() {
        let _guard = install("").unwrap();
        let caught = std::panic::catch_unwind(|| with_scope("x", || panic!("boom")));
        assert!(caught.is_err());
        SCOPE.with(|s| assert!(s.borrow().is_none()));
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(parse_specs("mapper_place:explode").is_err());
        assert!(parse_specs(":error").is_err());
        assert!(parse_specs("cache_read:delay:abc").is_err());
        let specs = parse_specs("a:error, b:delay:5@job, ,c:panic").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[1].filter, "job");
    }
}
