//! Versioned model snapshots.
//!
//! Each promoted model persists as `model-v<N>.bin` — a checksum frame
//! (`<sha256-hex>\n<json>`, `ptmap_pipeline::hash`'s format, shared
//! with the report cache) around the model's deterministic byte
//! encoding. On restart the store scans the directory and loads the
//! highest version that checks out; a corrupt or injected-fault
//! snapshot is quarantined (renamed `<name>.corrupt`), counted, and
//! skipped, so one bad file never takes the learner down — it restores
//! from the next-best version or reseeds.

use ptmap_gnn::PtMapGnn;
use ptmap_governor::faultpoint::{self, sites};
use ptmap_pipeline::hash::{self, verify_frame, write_framed};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory of versioned model snapshots (or a no-op when no
/// directory is configured).
#[derive(Debug)]
pub struct ModelStore {
    dir: Option<PathBuf>,
    quarantines: AtomicU64,
}

impl ModelStore {
    /// Opens (creating if needed) a snapshot directory; `None` makes
    /// every operation an in-memory no-op.
    pub fn new(dir: Option<PathBuf>) -> io::Result<Self> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)?;
        }
        Ok(ModelStore {
            dir,
            quarantines: AtomicU64::new(0),
        })
    }

    /// The configured directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Snapshots quarantined (checksum/parse/fault failures) so far.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Path of one version's snapshot file.
    pub fn snapshot_path(&self, version: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(snapshot_name(version)))
    }

    /// Persists a model as `model-v<version>.bin` (write-temp-rename,
    /// so readers never observe a torn file). A no-op without a
    /// directory.
    pub fn persist(&self, version: u64, model: &PtMapGnn) -> io::Result<()> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let json = String::from_utf8(model.to_bytes()).expect("model encodes as UTF-8");
        write_framed(&dir.join(snapshot_name(version)), &json)
    }

    /// Loads the highest-versioned snapshot that validates. Corrupt
    /// snapshots (bad checksum, unparsable model, or a `model_load`
    /// fault scoped to the file name) are quarantined and skipped, so
    /// the store falls back to the next version down. `None` when no
    /// snapshot survives.
    pub fn load_latest(&self) -> Option<(u64, PtMapGnn)> {
        let dir = self.dir.as_ref()?;
        let mut versions: Vec<u64> = std::fs::read_dir(dir)
            .ok()?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_snapshot_name(&e.file_name().to_string_lossy()))
            .collect();
        versions.sort_unstable();
        while let Some(v) = versions.pop() {
            let name = snapshot_name(v);
            let path = dir.join(&name);
            // The fault point is scoped to the snapshot file name so a
            // test (or drill) can fail one version's load while the
            // rest restore clean.
            let read = faultpoint::with_scope(&name, || {
                faultpoint::fail_point(sites::MODEL_LOAD)
                    .map_err(|e| e.to_string())
                    .and_then(|()| std::fs::read(&path).map_err(|e| e.to_string()))
            });
            match read.and_then(|bytes| decode_snapshot(&bytes).map_err(str::to_string)) {
                Ok(model) => return Some((v, model)),
                Err(reason) => self.quarantine(&path, &name, &reason),
            }
        }
        None
    }

    fn quarantine(&self, path: &Path, name: &str, reason: &str) {
        hash::quarantine(path);
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        ptmap_trace::obs::logger().warn(
            "snapshot_quarantine",
            None,
            &format!("quarantined corrupt model snapshot {name} ({reason})"),
            &[("file", name.into())],
        );
    }
}

/// Decodes a checksum-framed snapshot.
fn decode_snapshot(bytes: &[u8]) -> Result<PtMapGnn, &'static str> {
    let json = verify_frame(bytes)?;
    PtMapGnn::from_bytes(json.as_bytes()).map_err(|_| "unparsable model")
}

fn snapshot_name(version: u64) -> String {
    format!("model-v{version}.bin")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("model-v")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_gnn::ModelConfig;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ptmap-learn-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_model(seed: u64) -> PtMapGnn {
        PtMapGnn::new(ModelConfig {
            hidden: 4,
            layers: 1,
            seed,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn persist_and_load_highest() {
        let dir = scratch("roundtrip");
        let store = ModelStore::new(Some(dir.clone())).unwrap();
        store.persist(1, &tiny_model(1)).unwrap();
        store.persist(2, &tiny_model(2)).unwrap();
        let (v, model) = store.load_latest().unwrap();
        assert_eq!(v, 2);
        assert_eq!(model.to_bytes(), tiny_model(2).to_bytes());
        assert_eq!(store.quarantines(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_store_is_a_noop() {
        let store = ModelStore::new(None).unwrap();
        store.persist(1, &tiny_model(1)).unwrap();
        assert_eq!(store.load_latest().map(|(v, _)| v), None);
        assert_eq!(store.snapshot_path(1), None);
    }

    #[test]
    fn corrupt_snapshot_quarantined_and_older_restores() {
        let dir = scratch("corrupt");
        let store = ModelStore::new(Some(dir.clone())).unwrap();
        store.persist(1, &tiny_model(1)).unwrap();
        store.persist(2, &tiny_model(2)).unwrap();
        // Flip bytes in v2's payload: checksum mismatch.
        let p2 = store.snapshot_path(2).unwrap();
        let mut bytes = std::fs::read(&p2).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        std::fs::write(&p2, bytes).unwrap();

        let (v, model) = store.load_latest().unwrap();
        assert_eq!(v, 1, "falls back to the intact older version");
        assert_eq!(model.to_bytes(), tiny_model(1).to_bytes());
        assert_eq!(store.quarantines(), 1);
        assert!(!p2.exists(), "corrupt file moved aside");
        assert!(dir.join("model-v2.bin.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_load_fault_scoped_to_one_version() {
        let dir = scratch("fault");
        let store = ModelStore::new(Some(dir.clone())).unwrap();
        store.persist(3, &tiny_model(3)).unwrap();
        store.persist(4, &tiny_model(4)).unwrap();
        {
            let _guard = faultpoint::install("model_load:error@model-v4.bin").unwrap();
            let (v, _) = store.load_latest().unwrap();
            assert_eq!(v, 3, "the faulted version is skipped");
            assert_eq!(store.quarantines(), 1);
            assert!(dir.join("model-v4.bin.corrupt").exists());
        }
        // Fault cleared: v3 is now the highest surviving snapshot.
        let fresh = ModelStore::new(Some(dir.clone())).unwrap();
        assert_eq!(fresh.load_latest().map(|(v, _)| v), Some(3));
        assert_eq!(fresh.quarantines(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_snapshots_corrupt_returns_none() {
        let dir = scratch("allbad");
        let store = ModelStore::new(Some(dir.clone())).unwrap();
        store.persist(1, &tiny_model(1)).unwrap();
        std::fs::write(store.snapshot_path(1).unwrap(), b"garbage").unwrap();
        assert!(store.load_latest().is_none());
        assert_eq!(store.quarantines(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_names_parse() {
        assert_eq!(parse_snapshot_name("model-v12.bin"), Some(12));
        assert_eq!(parse_snapshot_name("model-v12.bin.corrupt"), None);
        assert_eq!(parse_snapshot_name("manifest.json"), None);
        assert_eq!(parse_snapshot_name("model-vx.bin"), None);
    }
}
