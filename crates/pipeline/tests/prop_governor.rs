//! Property test of the batch scheduler under the governor and random
//! fault injection: whatever combination of fault site/mode, worker
//! count, per-job timeout, and up-front cancellation is thrown at it,
//!
//! * the batch always completes (no deadlock, no propagated panic),
//! * every outcome carries a report XOR an error (never both, never
//!   neither), with the error class present exactly on failures,
//! * the on-disk cache contains only checksum-valid entries — corrupt
//!   state can only ever appear quarantined under `*.corrupt`.

use proptest::prelude::*;
use ptmap_pipeline::hash::sha256_hex;
use ptmap_pipeline::{run_batch, BatchConfig, Manifest};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Unique scratch directory per drawn case (no wall clock / RNG in the
/// test body itself, so a plain counter suffices).
fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ptmap-prop-governor-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `*.json` entry in the cache directory must decode as
/// `<64-hex-checksum>\n<json>` with a matching checksum.
fn assert_disk_entries_valid(dir: &Path) -> Result<(), proptest::TestCaseError> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // nothing was ever written
    };
    for entry in entries {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".json") {
            // Quarantined (`*.corrupt`) files are the one sanctioned
            // form of invalid bytes; temp files must not survive.
            prop_assert!(name.ends_with(".corrupt"), "unexpected cache file {name}");
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let text = std::str::from_utf8(&bytes);
        prop_assert!(text.is_ok(), "{name}: not UTF-8");
        let (checksum, json) = text
            .unwrap()
            .split_once('\n')
            .unwrap_or(("missing", "missing"));
        prop_assert!(
            sha256_hex(json) == checksum,
            "{name}: checksum does not cover payload"
        );
    }
    Ok(())
}

const SITES: [&str; 4] = ["cache_read", "cache_write", "mapper_place", "worker_spawn"];
const MODES: [&str; 3] = ["error", "panic", "delay:1"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn batch_survives_random_faults_and_cancellation(
        site_pick in 0u32..5, // 4 = no fault installed
        mode_pick in 0u32..3,
        workers in 1usize..4,
        tight_timeout in any::<bool>(),
        cancelled in any::<bool>(),
    ) {
        let spec = match SITES.get(site_pick as usize) {
            Some(site) => format!("{site}:{}", MODES[mode_pick as usize]),
            None => String::new(),
        };
        let _guard = ptmap_governor::faultpoint::install(&spec).unwrap();

        let jobs = Manifest::from_json(
            r#"{"jobs": [
                {"kernel": "vecsum:64", "arch": "S4"},
                {"kernel": "vecsum:128", "arch": "R4"},
                {"kernel": "gemm:16", "arch": "S4"}
            ]}"#,
        )
        .unwrap()
        .resolve()
        .unwrap();

        let budget = ptmap_governor::Budget::cancellable();
        if cancelled {
            budget.cancel();
        }
        let dir = scratch_dir();
        let config = BatchConfig {
            workers,
            cache_dir: Some(dir.clone()),
            base: ptmap_core::PtMapConfig {
                explore: ptmap_transform::ExploreConfig::quick(),
                ..ptmap_core::PtMapConfig::default()
            },
            job_timeout: tight_timeout.then(|| Duration::from_nanos(1)),
            budget,
            max_retries: 1,
            trace: None,
        };

        // Completing at all is the no-deadlock / no-propagated-panic
        // half of the property.
        let batch = run_batch(&jobs, &config);

        prop_assert_eq!(batch.outcomes.len(), jobs.len());
        for o in &batch.outcomes {
            prop_assert!(
                o.report.is_some() != o.error.is_some(),
                "{}: report XOR error violated (report={}, error={:?})",
                o.name,
                o.report.is_some(),
                o.error
            );
            prop_assert_eq!(
                o.error_class.is_some(),
                o.error.is_some(),
                "error class must accompany exactly the failures"
            );
            if cancelled {
                prop_assert!(o.report.is_none(), "{}: cancelled batch compiled", o.name);
                prop_assert_eq!(o.error_class.as_deref(), Some("cancelled"));
            }
        }
        assert_disk_entries_valid(&dir)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
