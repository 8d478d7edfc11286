//! Content-addressed compilation cache.
//!
//! The cache key is the hex SHA-256 of the canonical JSON of everything
//! that determines a compilation's result: the program IR, the
//! architecture description, the predictor identity (for the GNN, a
//! hash of the full parameter checkpoint), the ranking mode, and every
//! [`PtMapConfig`] field, each of which affects the result.
//! Canonicalization sorts
//! every object recursively, so key equality is structural, not
//! insertion-ordered.
//!
//! Entries live in a process-wide in-memory map and, when a cache
//! directory is configured, as one checksummed JSON file per key —
//! a warm directory survives across runs and makes re-running a
//! manifest orders of magnitude faster.
//!
//! # On-disk framing (schema 2)
//!
//! Each entry file is the pretty JSON report in the checksummed-file
//! frame of [`crate::hash`]. Loading verifies the checksum before
//! parsing; a truncated, corrupt, or unparsable entry is *quarantined*
//! (renamed to `<name>.corrupt`), counted, and treated as a miss. Cache
//! corruption therefore degrades to recompilation, never to a panic or
//! a wrong report.

use crate::hash::{self, sha256_hex, verify_frame};
use crate::lock_unpoisoned;
use crate::manifest::Job;
use ptmap_core::{CompileReport, PtMapConfig};
use ptmap_governor::faultpoint::{self, sites};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version tag mixed into every key: bump when the compilation
/// semantics change in a way the serialized inputs cannot express.
/// Version 2: checksummed on-disk framing + degradation-aware keys.
/// Version 3: mapper backends — `MapperConfig` serializes its
/// `backend` (and exact-search step cap), so exact/portfolio results
/// can never alias heuristic-cached entries; the bump invalidates
/// pre-backend entries whose config serialization lacked the fields.
const SCHEMA_VERSION: u64 = 3;

/// Derives the content-addressed key for one job under a base config.
pub fn cache_key(job: &Job, base: &PtMapConfig) -> String {
    cache_key_degraded(job, base, None)
}

/// The key a *request* for this job resolves to on its first
/// (full-fidelity) attempt: [`cache_key_degraded`] with the job's own
/// resolution-time degradation label (e.g. an unreadable GNN checkpoint
/// replaced by the analytical predictor). This is the identity the
/// serving layer coalesces concurrent requests on — it matches exactly
/// the key attempt 0 of the scheduler's retry ladder reads and writes.
pub fn request_key(job: &Job, base: &PtMapConfig) -> String {
    cache_key_degraded(job, base, job.degraded.as_deref())
}

/// [`cache_key`] for a degraded compilation: the degradation label is
/// part of the key payload, so a best-effort report produced by the
/// retry ladder can never be returned for a full-fidelity request (or
/// vice versa).
pub fn cache_key_degraded(job: &Job, base: &PtMapConfig, degraded: Option<&str>) -> String {
    let config = PtMapConfig {
        mode: job.mode,
        ..base.clone()
    };
    let mut fields = vec![
        ("schema".to_string(), Value::UInt(SCHEMA_VERSION)),
        (
            "program".to_string(),
            serde_json::to_value(&job.program).expect("ir serializes"),
        ),
        (
            "arch".to_string(),
            serde_json::to_value(&job.arch).expect("arch serializes"),
        ),
        ("predictor".to_string(), job.predictor.key_value()),
        (
            "config".to_string(),
            serde_json::to_value(&config).expect("config serializes"),
        ),
    ];
    if let Some(d) = degraded {
        fields.push(("degraded".to_string(), Value::Str(d.to_string())));
    }
    let payload = Value::Object(fields).canonicalize();
    sha256_hex(&serde_json::to_string(&payload).expect("canonical payload serializes"))
}

/// Decodes and verifies a disk entry; the error string names the first
/// validation that failed (used in the quarantine warning).
fn decode_entry(bytes: &[u8]) -> Result<CompileReport, &'static str> {
    let json = verify_frame(bytes)?;
    serde_json::from_str::<CompileReport>(json).map_err(|_| "unparsable report")
}

/// Thread-safe report cache: in-memory map plus an optional on-disk
/// store (one checksummed JSON file per key).
#[derive(Debug, Default)]
pub struct ReportCache {
    mem: Mutex<HashMap<String, CompileReport>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantines: AtomicU64,
}

/// The warning printed (and counted) when a disk entry fails checksum
/// or parse validation and is moved aside.
pub fn quarantine_message(key: &str, reason: &str) -> String {
    format!("quarantined corrupt cache entry {key}.json ({reason}); recomputing")
}

impl ReportCache {
    /// An in-memory-only cache.
    pub fn in_memory() -> Self {
        ReportCache::default()
    }

    /// A cache backed by a directory (created if missing).
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ReportCache {
            dir: Some(dir),
            ..ReportCache::default()
        })
    }

    /// [`ReportCache::with_dir`], or a memory-only cache (with a
    /// `cache_dir_fallback` warning) when the directory is unusable.
    pub fn with_dir_or_memory(dir: &Path) -> Self {
        ReportCache::with_dir(dir).unwrap_or_else(|e| {
            ptmap_trace::obs::logger().warn(
                "cache_dir_fallback",
                None,
                &format!("cache dir {}: {e}; falling back to memory", dir.display()),
                &[("dir", dir.display().to_string().into())],
            );
            ReportCache::in_memory()
        })
    }

    /// Looks up a key, falling back from memory to disk. Disk hits are
    /// checksum-verified and promoted into memory; corrupt, truncated,
    /// or unparsable disk entries are quarantined (renamed to
    /// `<name>.corrupt`), counted, and treated as misses — the caller
    /// recomputes and overwrites.
    pub fn get(&self, key: &str) -> Option<CompileReport> {
        if let Some(r) = lock_unpoisoned(&self.mem).get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(r);
        }
        if let Some(dir) = &self.dir {
            // `error` mode models an unreadable disk: the lookup
            // becomes a miss and the job recompiles.
            if faultpoint::fail_point(sites::CACHE_READ).is_err() {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let path = dir.join(format!("{key}.json"));
            match std::fs::read(&path) {
                Err(_) => {} // absent entry: plain miss
                Ok(bytes) => match decode_entry(&bytes) {
                    Ok(report) => {
                        lock_unpoisoned(&self.mem).insert(key.to_string(), report.clone());
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(report);
                    }
                    Err(reason) => {
                        self.quarantine(&path, key, reason);
                    }
                },
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Moves a failed entry aside so it never shadows the recompute.
    fn quarantine(&self, path: &Path, key: &str, reason: &str) {
        hash::quarantine(path);
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        ptmap_trace::obs::logger().warn(
            "cache_quarantine",
            None,
            &quarantine_message(key, reason),
            &[("key", key.into())],
        );
    }

    /// Stores a report under a key (memory and, if configured, disk).
    pub fn put(&self, key: &str, report: &CompileReport) {
        lock_unpoisoned(&self.mem).insert(key.to_string(), report.clone());
        if let Some(dir) = &self.dir {
            // `error` mode models a full/unwritable disk: the entry
            // stays memory-only and a later run recompiles it.
            if faultpoint::fail_point(sites::CACHE_WRITE).is_err() {
                return;
            }
            if let Ok(text) = serde_json::to_string_pretty(report) {
                // A failed write leaves the entry memory-only, like
                // the fault above.
                let _ = hash::write_framed(&dir.join(format!("{key}.json")), &text);
            }
        }
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Disk entries quarantined (checksum/parse failures) since
    /// construction.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// The backing directory, if this cache persists to disk.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    /// Entries currently resident in memory.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.mem).len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{Manifest, PredictorSpec};
    use ptmap_eval::RankMode;

    fn job(kernel: &str, arch: &str) -> Job {
        let m = Manifest::from_json(&format!(
            r#"{{"jobs": [{{"kernel": "{kernel}", "arch": "{arch}"}}]}}"#
        ))
        .unwrap();
        m.resolve().unwrap().remove(0)
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let base = PtMapConfig::default();
        let a = cache_key(&job("gemm:24", "S4"), &base);
        let b = cache_key(&job("gemm:24", "S4"), &base);
        assert_eq!(a, b, "same inputs, same key");
        assert_ne!(
            a,
            cache_key(&job("gemm:32", "S4"), &base),
            "program changes key"
        );
        assert_ne!(
            a,
            cache_key(&job("gemm:24", "R4"), &base),
            "arch changes key"
        );
        let pareto = Job {
            mode: RankMode::Pareto,
            ..job("gemm:24", "S4")
        };
        assert_ne!(a, cache_key(&pareto, &base), "mode changes key");
        let oracle = Job {
            predictor: PredictorSpec::Oracle,
            ..job("gemm:24", "S4")
        };
        assert_ne!(a, cache_key(&oracle, &base), "predictor changes key");
    }

    #[test]
    fn config_changes_key() {
        let j = job("gemm:24", "S4");
        let base = PtMapConfig::default();
        let tweaked = PtMapConfig {
            realize_beam: 9,
            ..PtMapConfig::default()
        };
        assert_ne!(cache_key(&j, &base), cache_key(&j, &tweaked));
    }

    #[test]
    fn backend_changes_key() {
        use ptmap_mapper::BackendKind;
        let j = job("gemm:24", "S4");
        let keys: Vec<String> = [
            BackendKind::Heuristic,
            BackendKind::Exact,
            BackendKind::Portfolio,
        ]
        .into_iter()
        .map(|backend| {
            let mut cfg = PtMapConfig::default();
            cfg.mapper.backend = backend;
            cache_key(&j, &cfg)
        })
        .collect();
        assert_ne!(keys[0], keys[1], "exact must not read heuristic entries");
        assert_ne!(
            keys[0], keys[2],
            "portfolio must not read heuristic entries"
        );
        assert_ne!(keys[1], keys[2], "exact and portfolio entries are distinct");
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("ptmap-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        {
            let cache = ReportCache::with_dir(&dir).unwrap();
            assert!(cache.get("k").is_none());
            cache.put("k", &report);
            assert_eq!(cache.get("k").unwrap(), report);
        }
        // A fresh cache instance must hydrate from disk.
        let cache = ReportCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get("k").unwrap(), report);
        assert_eq!(cache.stats(), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_on_same_key_leave_one_valid_entry() {
        let dir = std::env::temp_dir().join(format!(
            "ptmap-cache-race-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = std::sync::Arc::new(ReportCache::with_dir(&dir).unwrap());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                let report = CompileReport {
                    cycles: i,
                    ..sample_report()
                };
                for _ in 0..50 {
                    cache.put("contended", &report);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one published file, no leftover temp files, and the
        // entry parses as one writer's complete report.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["contended.json".to_string()], "{names:?}");
        let fresh = ReportCache::with_dir(&dir).unwrap();
        let got = fresh.get("contended").expect("entry readable");
        assert!(got.cycles < 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write a valid entry, mangle it on disk, and check the fresh
    /// cache quarantines it (renames to `.corrupt`), counts it, treats
    /// the lookup as a miss, and recovers on the next put/get.
    fn assert_quarantined(tag: &str, mangle: impl FnOnce(&Path)) {
        let dir = std::env::temp_dir().join(format!(
            "ptmap-cache-quarantine-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        ReportCache::with_dir(&dir).unwrap().put("k", &report);
        let path = dir.join("k.json");
        mangle(&path);

        let cache = ReportCache::with_dir(&dir).unwrap();
        assert_eq!(cache.get("k"), None, "corrupt entry must read as a miss");
        assert_eq!(cache.quarantines(), 1);
        assert!(
            dir.join("k.json.corrupt").exists(),
            "entry must be moved aside, not deleted"
        );
        assert!(!path.exists(), "corrupt entry must not shadow recompute");

        // Recompute-and-overwrite path: a fresh put publishes a valid
        // entry again.
        cache.put("k", &report);
        let fresh = ReportCache::with_dir(&dir).unwrap();
        assert_eq!(fresh.get("k").unwrap(), report);
        assert_eq!(fresh.quarantines(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        assert_quarantined("truncated", |path| {
            let bytes = std::fs::read(path).unwrap();
            std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        });
    }

    #[test]
    fn bit_flipped_entry_is_quarantined() {
        assert_quarantined("bitflip", |path| {
            let mut bytes = std::fs::read(path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            std::fs::write(path, bytes).unwrap();
        });
    }

    #[test]
    fn headerless_entry_is_quarantined() {
        assert_quarantined("headerless", |path| {
            std::fs::write(path, "no checksum line here").unwrap();
        });
    }

    #[test]
    fn checksum_valid_but_unparsable_entry_is_quarantined() {
        assert_quarantined("unparsable", |path| {
            let json = "{\"not\": \"a report\"}";
            std::fs::write(path, format!("{}\n{json}", sha256_hex(json))).unwrap();
        });
    }

    #[test]
    fn non_utf8_entry_is_quarantined() {
        assert_quarantined("nonutf8", |path| {
            std::fs::write(path, [0xff, 0xfe, 0x00, 0xc1]).unwrap();
        });
    }

    #[test]
    fn quarantine_message_snapshot() {
        assert_eq!(
            quarantine_message("abc123", "checksum mismatch"),
            "quarantined corrupt cache entry abc123.json (checksum mismatch); recomputing"
        );
    }

    #[test]
    fn decode_entry_names_first_failure() {
        assert_eq!(decode_entry(&[0xff, 0xfe]), Err("not UTF-8"));
        assert_eq!(decode_entry(b"no newline"), Err("missing checksum header"));
        assert_eq!(
            decode_entry(b"zz\n{}"),
            Err("malformed checksum header"),
            "short or non-hex first line"
        );
        let bad = format!("{}\n{{}}", "0".repeat(64));
        assert_eq!(decode_entry(bad.as_bytes()), Err("checksum mismatch"));
        let unparsable = format!("{}\n{{}}", sha256_hex("{}"));
        assert_eq!(
            decode_entry(unparsable.as_bytes()),
            Err("unparsable report")
        );
    }

    #[test]
    fn cache_survives_poisoned_lock() {
        // One panicking job must not permanently poison the shared
        // in-memory map of a long-lived daemon's cache.
        let cache = ReportCache::in_memory();
        let report = sample_report();
        cache.put("before", &report);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.mem.lock().unwrap();
            panic!("poison the cache lock");
        }));
        cache.put("after", &report);
        assert_eq!(cache.get("before").unwrap(), report);
        assert_eq!(cache.get("after").unwrap(), report);
        assert_eq!(cache.len(), 2);
    }

    /// Parallel get/put stress over overlapping keys, exercising both
    /// the memory map and the disk store: every get must return either
    /// a miss or one writer's complete report, the disk must end up
    /// with exactly one valid entry per key (no temp files, no corrupt
    /// leftovers), and nothing may panic or deadlock.
    #[test]
    fn concurrent_stress_overlapping_keys() {
        let dir = std::env::temp_dir().join(format!(
            "ptmap-cache-stress-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = std::sync::Arc::new(ReportCache::with_dir(&dir).unwrap());
        const KEYS: usize = 4;
        const THREADS: usize = 8;
        const ROUNDS: usize = 60;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let key = format!("key-{}", (t + round) % KEYS);
                    if (t + round) % 3 == 0 {
                        let report = CompileReport {
                            cycles: (t % KEYS) as u64,
                            ..sample_report()
                        };
                        cache.put(&key, &report);
                    } else if let Some(r) = cache.get(&key) {
                        assert!(
                            (r.cycles as usize) < KEYS,
                            "got a torn report: cycles={}",
                            r.cycles
                        );
                        assert_eq!(r.program, "gemm");
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no stress thread may panic");
        }
        // Disk state: exactly the published entries, all valid.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert!(
            names.iter().all(|n| n.ends_with(".json")),
            "no temp or corrupt files may survive: {names:?}"
        );
        assert!(names.len() <= KEYS);
        let fresh = ReportCache::with_dir(&dir).unwrap();
        for name in &names {
            let key = name.trim_end_matches(".json");
            assert!(fresh.get(key).is_some(), "disk entry {name} must decode");
        }
        assert_eq!(fresh.quarantines(), 0);
        let (hits, misses) = cache.stats();
        assert!(hits + misses > 0, "counters must have moved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_key_matches_attempt_zero() {
        let base = PtMapConfig::default();
        let j = job("gemm:24", "S4");
        assert_eq!(request_key(&j, &base), cache_key(&j, &base));
        let degraded = Job {
            degraded: Some("predictor=analytical (x)".into()),
            ..job("gemm:24", "S4")
        };
        assert_eq!(
            request_key(&degraded, &base),
            cache_key_degraded(&degraded, &base, degraded.degraded.as_deref()),
        );
        assert_ne!(
            request_key(&degraded, &base),
            request_key(&j, &base),
            "resolution-time degradation must split the request identity"
        );
    }

    #[test]
    fn degraded_label_changes_key() {
        let j = job("gemm:24", "S4");
        let base = PtMapConfig::default();
        let full = cache_key(&j, &base);
        let degraded = cache_key_degraded(&j, &base, Some("explore=quick"));
        assert_ne!(full, degraded, "degraded entries must not alias full ones");
        assert_eq!(
            cache_key_degraded(&j, &base, None),
            full,
            "no label = plain key"
        );
        assert_ne!(
            degraded,
            cache_key_degraded(&j, &base, Some("explore=quick,effort=1,realize_beam=1")),
            "distinct rungs get distinct keys"
        );
    }

    #[test]
    fn cache_read_fault_degrades_to_miss() {
        let dir =
            std::env::temp_dir().join(format!("ptmap-cache-readfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        ReportCache::with_dir(&dir).unwrap().put("k", &report);

        let cache = ReportCache::with_dir(&dir).unwrap();
        {
            // Scope-filtered: the registry is process-global, so an
            // unfiltered spec would fire in concurrently running tests.
            let _guard = faultpoint::install("cache_read:error@readfault-test").unwrap();
            faultpoint::with_scope("readfault-test", || {
                assert_eq!(cache.get("k"), None, "faulted read must miss");
            });
        }
        // Fault cleared: the intact entry is served again and was never
        // quarantined (the file itself is fine).
        assert_eq!(cache.get("k").unwrap(), report);
        assert_eq!(cache.quarantines(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_write_fault_keeps_entry_memory_only() {
        let dir =
            std::env::temp_dir().join(format!("ptmap-cache-writefault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        let cache = ReportCache::with_dir(&dir).unwrap();
        {
            let _guard = faultpoint::install("cache_write:error@writefault-test").unwrap();
            faultpoint::with_scope("writefault-test", || cache.put("k", &report));
        }
        assert_eq!(cache.get("k").unwrap(), report, "memory copy still serves");
        assert!(
            !dir.join("k.json").exists(),
            "faulted write must not publish a disk entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sample_report() -> CompileReport {
        CompileReport {
            program: "gemm".into(),
            arch: "S4".into(),
            mode: RankMode::Performance,
            cycles: 10,
            energy_pj: 1.0,
            edp: 10.0,
            pnls: vec![],
            candidates_explored: 2,
            candidates_pruned: 1,
            context_generation_attempts: 1,
            compile_seconds: 0.25,
        }
    }
}
