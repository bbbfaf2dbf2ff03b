//! The per-point cache: its two entry kinds, and size-bounded
//! maintenance for the directory holding them.
//!
//! The cache directory is a content-addressed store with two kinds of
//! entry:
//!
//! * a `*.pimc.json` **artifact** — the compiled model, whose file name
//!   encodes the graph, hardware, and options fingerprints and the
//!   artifact format version
//!   ([`crate::ExploreEngine::with_cache_dir`]), so distinct compiles
//!   never collide and identical ones share one file;
//! * beside it, one `*.metrics.json` **metrics sidecar** per point
//!   measured on that artifact — the point's
//!   [`PointMetrics`], named from the artifact's
//!   name plus the point's key (so points that differ only in a knob
//!   the compiler never sees, such as `quantization`, share the
//!   artifact but not the sidecar) and stamped with the sweep format
//!   and measurement versions. A sidecar answers a point without
//!   loading the artifact or running the simulator; one that is
//!   missing, torn, foreign, or whose artifact is gone is simply a
//!   miss.
//!
//! Both kinds are written through a temporary file and a rename, so
//! concurrent worker processes pointed at the same directory never read
//! a half-written entry.
//!
//! Left alone, the store grows without bound (every new model, budget,
//! or hardware point adds files forever). [`enforce_cache_limit`]
//! bounds it with LRU eviction: a small JSON index
//! (`cache_index.json`) records a logical last-used tick per artifact
//! — a monotonic counter bumped once per sweep, deliberately not the
//! filesystem atime, which `noatime`/`relatime` mounts make useless —
//! and when the store exceeds the byte budget, the least-recently-used
//! artifacts are deleted first, each together with its sidecars.
//!
//! Eviction is always safe: an evicted entry costs a recompile on the
//! next run, never a wrong result, and sweep reports are byte-identical
//! with or without it. Concurrent writers may race on the index; the
//! last writer wins, which only perturbs recency metadata.

use crate::engine::MEASURE_VERSION;
use crate::report::{PointMetrics, SWEEP_FORMAT_VERSION};
use crate::ExploreError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The recency index maintained next to the cached artifacts.
pub(crate) const CACHE_INDEX_FILE: &str = "cache_index.json";

/// Index format version; bump on any breaking change to the schema.
/// An index written by an *older* version is discarded and rebuilt
/// (it is recency metadata only), so the constant gates forward drift.
const INDEX_VERSION: u32 = 1;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct IndexEntry {
    file: String,
    last_used: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct IndexFile {
    version: u32,
    clock: u64,
    entries: Vec<IndexEntry>,
}

const ARTIFACT_SUFFIX: &str = ".pimc.json";
const METRICS_SUFFIX: &str = ".metrics.json";

/// `text` with everything but ASCII alphanumerics, `_` and `-` replaced
/// by `_`: model names may be `.onnx` paths and point keys hold `/`.
/// Cache file names are built from the result, so they never contain a
/// `.` beyond the ones this module puts there.
pub(crate) fn sanitized(text: &str) -> impl Iterator<Item = char> + '_ {
    text.chars().map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            c
        } else {
            '_'
        }
    })
}

/// The sidecar holding the metrics of the point `point_key` measured on
/// `artifact`. The name carries the tail of the key — the knob segments;
/// the artifact's fingerprints already cover what the head names — and
/// the sidecar records the whole key, which [`load_metrics`] checks.
pub(crate) fn metrics_path(artifact: &Path, point_key: &str) -> PathBuf {
    let name = artifact.file_name().unwrap_or_default().to_string_lossy();
    let stem = name.strip_suffix(ARTIFACT_SUFFIX).unwrap_or(&name);
    let key: String = sanitized(point_key).collect();
    let tail = &key[key.len().saturating_sub(80)..];
    artifact.with_file_name(format!("{stem}.{tail}{METRICS_SUFFIX}"))
}

/// The artifact file a sidecar file name belongs to.
fn artifact_of(sidecar: &str) -> String {
    let stem = sidecar.split('.').next().unwrap_or_default();
    format!("{stem}{ARTIFACT_SUFFIX}")
}

#[derive(Serialize, Deserialize)]
struct MetricsFile {
    sweep_format_version: u32,
    measure_version: u32,
    point: String,
    metrics: PointMetrics,
}

/// The metrics a sidecar memoises for `point_key`, or `None` — a miss —
/// when it is missing, unreadable, torn, written by another sweep
/// format or measurement version, or belongs to another point.
pub(crate) fn load_metrics(path: &Path, point_key: &str) -> Option<PointMetrics> {
    let text = std::fs::read_to_string(path).ok()?;
    let file: MetricsFile = serde_json::from_str(&text).ok()?;
    let current = file.sweep_format_version == SWEEP_FORMAT_VERSION
        && file.measure_version == MEASURE_VERSION
        && file.point == point_key;
    current.then_some(file.metrics)
}

/// Writes the sidecar for `point_key`. Best-effort, like every cache
/// write: a failure costs a re-measurement next run.
pub(crate) fn store_metrics(path: &Path, point_key: &str, metrics: &PointMetrics) {
    let file = MetricsFile {
        sweep_format_version: SWEEP_FORMAT_VERSION,
        measure_version: MEASURE_VERSION,
        point: point_key.to_string(),
        metrics: metrics.clone(),
    };
    if let Ok(text) = serde_json::to_string(&file) {
        let _ = write_atomic(path, &text);
    }
}

/// Writes `text` to `path` through a temporary file in the same
/// directory and a rename, so a reader — another worker sharing the
/// directory — sees the old entry, no entry, or the whole new one. The
/// temporary name is unique per write: two threads or processes storing
/// the same entry must not share it.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// What one [`enforce_cache_limit`] pass deleted and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionStats {
    /// Artifacts deleted this pass (each with its metrics sidecars).
    pub evicted_files: usize,
    /// Bytes reclaimed by eviction, sidecars included.
    pub evicted_bytes: u64,
    /// Artifacts surviving the pass.
    pub kept_files: usize,
    /// Bytes still held by surviving artifacts and their sidecars.
    pub kept_bytes: u64,
}

/// Bounds the cache under `dir` to `max_bytes`, evicting
/// least-recently-used artifacts first. An artifact's metrics sidecars
/// count toward its size and go with it; a sidecar whose artifact is
/// already gone can never answer a point and is deleted outright.
///
/// `touched` names the artifacts (file names, not paths) this run
/// read, wrote, or answered from a sidecar of; they are stamped with
/// the new logical tick before eviction ranks entries, so the working
/// set of the current sweep is evicted last. Entries on disk that the
/// index has never seen rank oldest. Ties break on file name, so a pass
/// over the same state is deterministic.
///
/// # Errors
///
/// * [`ExploreError::Serialization`] when the index file exists but is
///   not valid JSON for the current schema — the file is surfaced, not
///   silently clobbered, because corruption here may mean the directory
///   is not actually a cache; delete the file to rebuild it,
/// * [`ExploreError::Io`] when the directory cannot be scanned or the
///   index cannot be rewritten.
pub fn enforce_cache_limit(
    dir: &Path,
    max_bytes: u64,
    touched: &[String],
) -> Result<EvictionStats, ExploreError> {
    let index_path = dir.join(CACHE_INDEX_FILE);
    let mut clock = 0u64;
    let mut last_used: BTreeMap<String, u64> = BTreeMap::new();
    match std::fs::read_to_string(&index_path) {
        Ok(text) => {
            let parsed: IndexFile =
                serde_json::from_str(&text).map_err(|e| ExploreError::Serialization {
                    detail: format!(
                        "corrupt cache index {}: {e}; delete the file to rebuild it",
                        index_path.display()
                    ),
                })?;
            // An old-version index is plain recency metadata: discard
            // and rebuild rather than refusing to run.
            if parsed.version == INDEX_VERSION {
                clock = parsed.clock;
                for entry in parsed.entries {
                    last_used.insert(entry.file, entry.last_used);
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(ExploreError::Io {
                detail: format!("reading cache index {}: {e}", index_path.display()),
            })
        }
    }

    clock = clock.saturating_add(1);
    for name in touched {
        last_used.insert(name.clone(), clock);
    }

    // Scan the store: only `*.pimc.json` artifacts and `*.metrics.json`
    // sidecars participate; the index itself and any foreign files are
    // left alone.
    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    let mut sidecars: Vec<(String, u64)> = Vec::new();
    let read_dir = std::fs::read_dir(dir).map_err(|e| ExploreError::Io {
        detail: format!("scanning cache dir {}: {e}", dir.display()),
    })?;
    for entry in read_dir {
        let entry = entry.map_err(|e| ExploreError::Io {
            detail: format!("scanning cache dir {}: {e}", dir.display()),
        })?;
        let name = entry.file_name().to_string_lossy().into_owned();
        // A file deleted by a concurrent worker between the scan and
        // the stat is simply no longer part of the store.
        let Some(meta) = entry.metadata().ok().filter(|m| m.is_file()) else {
            continue;
        };
        if name.ends_with(ARTIFACT_SUFFIX) {
            sizes.insert(name, meta.len());
        } else if name.ends_with(METRICS_SUFFIX) {
            sidecars.push((name, meta.len()));
        }
    }
    // Fold each sidecar into its artifact's entry.
    let mut sidecars_of: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut stats = EvictionStats::default();
    for (name, len) in sidecars {
        let artifact = artifact_of(&name);
        match sizes.get_mut(&artifact) {
            Some(size) => {
                *size += len;
                sidecars_of.entry(artifact).or_default().push(name);
            }
            None => {
                let _ = std::fs::remove_file(dir.join(&name));
                stats.evicted_bytes += len;
            }
        }
    }

    // Forget index rows whose files are gone; files the index has
    // never seen rank oldest (tick 0) unless touched this run.
    last_used.retain(|name, _| sizes.contains_key(name));
    for name in sizes.keys() {
        last_used.entry(name.clone()).or_insert(0);
    }

    let mut total: u64 = sizes.values().sum();
    if total > max_bytes {
        let mut by_age: Vec<(&String, &u64)> = last_used.iter().collect();
        by_age.sort_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)));
        let victims: Vec<String> = by_age.into_iter().map(|(name, _)| name.clone()).collect();
        for name in victims {
            if total <= max_bytes {
                break;
            }
            let size = sizes.remove(&name).unwrap_or(0);
            last_used.remove(&name);
            // A remove that failed (e.g. a concurrent worker already
            // evicted it) still leaves the file out of this pass's
            // accounting; the next pass re-scans. Sidecars go first: a
            // sidecar without its artifact is a miss, the reverse is
            // an ordinary artifact hit.
            for file in sidecars_of.remove(&name).into_iter().flatten() {
                let _ = std::fs::remove_file(dir.join(file));
            }
            let _ = std::fs::remove_file(dir.join(&name));
            total = total.saturating_sub(size);
            stats.evicted_files += 1;
            stats.evicted_bytes += size;
        }
    }
    stats.kept_files = sizes.len();
    stats.kept_bytes = total;

    let index = IndexFile {
        version: INDEX_VERSION,
        clock,
        entries: last_used
            .iter()
            .map(|(file, &tick)| IndexEntry {
                file: file.clone(),
                last_used: tick,
            })
            .collect(),
    };
    let text = serde_json::to_string_pretty(&index).map_err(|e| ExploreError::Serialization {
        detail: format!("encoding cache index: {e}"),
    })?;
    // A crash mid-write can never leave a corrupt index behind (a
    // missing index only resets recency).
    write_atomic(&index_path, &text).map_err(|e| ExploreError::Io {
        detail: format!("writing cache index {}: {e}", index_path.display()),
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pimcomp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(dir: &Path, name: &str, bytes: usize) {
        std::fs::write(dir.join(name), vec![b'x'; bytes]).unwrap();
    }

    #[test]
    fn evicts_oldest_untouched_entries_first() {
        let dir = temp_dir("lru");
        put(&dir, "a.pimc.json", 100);
        put(&dir, "b.pimc.json", 100);
        put(&dir, "c.pimc.json", 100);
        // Tick 1: a + b are live; c is never touched.
        enforce_cache_limit(&dir, 1_000, &["a.pimc.json".into(), "b.pimc.json".into()]).unwrap();
        // Tick 2: only b is live; budget forces one eviction — c (never
        // used) goes first.
        let stats = enforce_cache_limit(&dir, 250, &["b.pimc.json".into()]).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert_eq!(stats.kept_files, 2);
        assert!(!dir.join("c.pimc.json").exists());
        assert!(dir.join("a.pimc.json").exists());
        // Tick 3: a tighter budget now drops a (older tick than b).
        let stats = enforce_cache_limit(&dir, 150, &[]).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert!(!dir.join("a.pimc.json").exists());
        assert!(dir.join("b.pimc.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touched_files_survive_even_over_budget_history() {
        let dir = temp_dir("touch");
        put(&dir, "old.pimc.json", 400);
        put(&dir, "hot.pimc.json", 400);
        enforce_cache_limit(&dir, 10_000, &["old.pimc.json".into()]).unwrap();
        let stats = enforce_cache_limit(&dir, 500, &["hot.pimc.json".into()]).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert!(dir.join("hot.pimc.json").exists());
        assert!(!dir.join("old.pimc.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_index_is_a_structured_error() {
        let dir = temp_dir("corrupt");
        put(&dir, "a.pimc.json", 10);
        std::fs::write(dir.join(CACHE_INDEX_FILE), "{not json").unwrap();
        let err = enforce_cache_limit(&dir, 1_000, &[]).unwrap_err();
        match err {
            ExploreError::Serialization { detail } => {
                assert!(detail.contains("corrupt cache index"), "{detail}");
            }
            other => panic!("expected Serialization, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_never_deleted() {
        let dir = temp_dir("foreign");
        put(&dir, "a.pimc.json", 500);
        std::fs::write(dir.join("notes.txt"), "keep me").unwrap();
        let stats = enforce_cache_limit(&dir, 100, &[]).unwrap();
        assert_eq!(stats.evicted_files, 1);
        assert!(dir.join("notes.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecars_are_counted_and_evicted_with_their_artifact() {
        let dir = temp_dir("sidecars");
        put(&dir, "a.pimc.json", 100);
        put(&dir, "a.q0.metrics.json", 10);
        put(&dir, "a.q8.metrics.json", 10);
        put(&dir, "b.pimc.json", 100);
        put(&dir, "b.x.metrics.json", 10);
        // A sidecar whose artifact is gone, and files that only look
        // like cache entries.
        put(&dir, "c.y.metrics.json", 7);
        put(&dir, "a.metrics.json.bak", 50);
        put(&dir, "notes.txt", 50);

        // Under budget: only the orphan goes, and its bytes are counted.
        let stats = enforce_cache_limit(&dir, 1_000, &["b.pimc.json".into()]).unwrap();
        assert_eq!((stats.evicted_files, stats.evicted_bytes), (0, 7));
        assert_eq!((stats.kept_files, stats.kept_bytes), (2, 230));
        assert!(!dir.join("c.y.metrics.json").exists());

        // Over budget by sidecar bytes alone (two artifacts are 200):
        // `a` goes, with both of its sidecars.
        let stats = enforce_cache_limit(&dir, 220, &["b.pimc.json".into()]).unwrap();
        assert_eq!((stats.evicted_files, stats.evicted_bytes), (1, 120));
        assert_eq!((stats.kept_files, stats.kept_bytes), (1, 110));
        for gone in ["a.pimc.json", "a.q0.metrics.json", "a.q8.metrics.json"] {
            assert!(!dir.join(gone).exists(), "{gone}");
        }
        for kept in [
            "b.pimc.json",
            "b.x.metrics.json",
            "a.metrics.json.bak",
            "notes.txt",
        ] {
            assert!(dir.join(kept).exists(), "{kept}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_names_keep_the_knob_end_of_the_key_and_map_back() {
        let artifact = Path::new("cache/v4-tiny_mlp-01-02-03.pimc.json");
        let long_model = format!("{}.onnx/HT/hw/ag/b2/seed1/q8", "m/".repeat(60));
        for key in ["tiny_mlp/HT/small_test+chips1/ag/b2/seed1/q8", &long_model] {
            let path = metrics_path(artifact, key);
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(name.starts_with("v4-tiny_mlp-01-02-03."), "{name}");
            assert!(name.ends_with("_ag_b2_seed1_q8.metrics.json"), "{name}");
            assert!(name.len() < 160, "{name}");
            assert_eq!(artifact_of(name), "v4-tiny_mlp-01-02-03.pimc.json");
            assert_eq!(path.parent(), artifact.parent());
        }
    }

    #[test]
    fn under_budget_store_is_untouched_and_index_round_trips() {
        let dir = temp_dir("roundtrip");
        put(&dir, "a.pimc.json", 10);
        let s1 = enforce_cache_limit(&dir, 1_000, &["a.pimc.json".into()]).unwrap();
        assert_eq!(s1.evicted_files, 0);
        assert_eq!(s1.kept_bytes, 10);
        assert!(dir.join(CACHE_INDEX_FILE).exists());
        let s2 = enforce_cache_limit(&dir, 1_000, &[]).unwrap();
        assert_eq!(s2.evicted_files, 0);
        assert_eq!(s2.kept_files, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
