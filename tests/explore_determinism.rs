//! Design-space exploration determinism guarantees, end to end:
//!
//! * the same sweep spec produces **byte-identical** report JSON at 1
//!   and 4 worker threads,
//! * a cache-hit rerun replays every point and reproduces the identical
//!   frontier,
//! * the report of a fixed tiny sweep matches a committed golden
//!   fixture (`tests/golden/explore_tiny_sweep.json`; regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test explore_determinism`),
//! * every committed sweep fixture keeps its point keys and cache file
//!   names (`tests/golden/sweep_keys.tsv`),
//! * the three cache states — empty, artifacts only, artifacts plus
//!   metrics sidecars — and every damaged-sidecar fallback give one
//!   report,
//! * points evaluated one at a time through `SweepPlan`, in any order,
//!   reduce to the engine's report,
//! * the `pimcomp explore` CLI exhibits the same guarantees.

use pimcomp::compiler::NullObserver;
use pimcomp::dse::{
    ExploreEngine, ExploreError, SearchStrategy, SweepPlan, SweepReport, SweepSpec,
};
use std::path::PathBuf;

/// The acceptance-grade sweep: 2 models × 2 modes × 3 hardware configs
/// × 1 seed = 12 points.
const SPEC: &str = r#"{
  "master_seed": 11,
  "models": ["tiny_cnn", "tiny_mlp"],
  "modes": ["ht", "ll"],
  "hardware": { "base": "small_test", "parallelism": [2, 4, 8] },
  "ga": { "population": 6, "iterations": 4 }
}"#;

/// The same axes under guided (successive-halving) search.
const HALVING_SPEC: &str = r#"{
  "master_seed": 11,
  "models": ["tiny_cnn", "tiny_mlp"],
  "modes": ["ht", "ll"],
  "hardware": { "base": "small_test", "parallelism": [2, 4, 8] },
  "ga": { "population": 6, "iterations": 4 },
  "search": { "strategy": "halving", "rungs": [1, 4],
              "keep_fraction": 0.6, "prune_margin": 0.25 }
}"#;

fn spec() -> SweepSpec {
    SweepSpec::from_json(SPEC).unwrap()
}

/// A spec exercising every new axis at once: memory policies, HT
/// batches, auto-sized hardware, and an `.onnx` model next to a zoo
/// name. 2 models × 2 auto parallelism × 2 policies × (HT: 2 batches +
/// LL: 1) × 1 seed = 24 points.
fn axes_spec(onnx_path: &str) -> String {
    format!(
        r#"{{
  "master_seed": 13,
  "models": ["tiny_mlp", "{onnx_path}"],
  "modes": ["ht", "ll"],
  "hardware": {{ "auto": true, "base": "small_test", "parallelism": [2, 4] }},
  "memory_policies": ["naive", "ag"],
  "ht_batches": [1, 2],
  "seeds": [1],
  "ga": {{ "population": 4, "iterations": 3 }}
}}"#
    )
}

/// Writes a loadable tiny `.onnx` model under `dir` and returns its
/// path (the importer consumes exactly what the exporter emits, so no
/// binary fixture is needed).
fn write_tiny_onnx(dir: &std::path::Path) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("tiny_mlp.onnx");
    let bytes = pimcomp::onnx::export_graph(&pimcomp::ir::models::tiny_mlp()).encode();
    std::fs::write(&path, bytes).unwrap();
    path.to_str().unwrap().to_string()
}

fn halving_spec() -> SweepSpec {
    SweepSpec::from_json(HALVING_SPEC).unwrap()
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/fixtures")
}

/// The three `(exhaustive, halving)` pairs the gates below run on, each
/// pair the same axes under both strategies: the inline 12-point spec,
/// the committed 4-point smoke fixtures (what CI's `explore` steps run)
/// and the committed 36-point toy-model fixtures.
fn spec_pairs() -> [(SweepSpec, SweepSpec); 3] {
    let fixture = |name: &str| {
        let json = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
        SweepSpec::from_json(&json).unwrap()
    };
    [
        (spec(), halving_spec()),
        (
            fixture("smoke_sweep.json"),
            fixture("smoke_sweep_halving.json"),
        ),
        (fixture("toy_sweep.json"), fixture("toy_sweep_halving.json")),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pimcomp-explore-{tag}-{}", std::process::id()))
}

#[test]
fn report_json_is_byte_identical_across_thread_counts() {
    for (spec, _) in spec_pairs() {
        let one = ExploreEngine::new().with_threads(1).run(&spec).unwrap();
        let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(
            one.report.to_json().unwrap(),
            four.report.to_json().unwrap(),
            "1-thread and 4-thread sweeps must emit identical bytes"
        );
        assert_eq!(one.report.points.len(), spec.len());
        assert_eq!(one.report.failures(), 0);
        assert!(!one.report.frontier.is_empty());
    }
    assert_eq!(spec().len(), 12);
}

#[test]
fn cache_hit_rerun_reproduces_the_identical_frontier() {
    for (i, (spec, _)) in spec_pairs().into_iter().enumerate() {
        let dir = temp_dir(&format!("cache-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ExploreEngine::new().with_threads(2).with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, spec.len());
        let warm = engine.run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(warm.cache_misses, 0, "rerun must reuse cached artifacts");
        assert_eq!(warm.cache_hits, spec.len());
        assert_eq!(warm.report.frontier, cold.report.frontier);
        assert_eq!(
            warm.report.to_json().unwrap(),
            cold.report.to_json().unwrap(),
            "cache replay must not change a single report byte"
        );
    }
}

#[test]
fn guided_report_is_byte_identical_across_thread_counts() {
    for (exhaustive, spec) in spec_pairs() {
        let one = ExploreEngine::new().with_threads(1).run(&spec).unwrap();
        let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(
            one.report.to_json().unwrap(),
            four.report.to_json().unwrap(),
            "1-thread and 4-thread guided sweeps must emit identical bytes"
        );
        assert_eq!(one.budget, four.budget);
        // Every point keeps a record even when halved or pruned early.
        assert_eq!(one.report.points.len(), exhaustive.len());
        // Strictly fewer full-budget evaluations than the exhaustive
        // sweep runs on the same (compilable) points.
        assert!(one.budget.full_budget_evaluations < one.budget.compilable_points);
        assert!(one.budget.full_budget_evaluations_saved() > 0);
    }
}

#[test]
fn guided_warm_cache_replay_is_identical() {
    for (i, (_, spec)) in spec_pairs().into_iter().enumerate() {
        let dir = temp_dir(&format!("guided-cache-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ExploreEngine::new().with_threads(2).with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = engine.run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(warm.cache_misses, 0, "warm guided rerun must fully replay");
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(
            warm.report.to_json().unwrap(),
            cold.report.to_json().unwrap(),
            "cache replay must not change a single report byte"
        );
        assert_eq!(warm.budget, cold.budget);
        assert!(warm.budget.full_budget_evaluations < warm.budget.compilable_points);
    }
}

#[test]
fn guided_final_rung_frontier_is_a_subset_of_the_exhaustive_frontier() {
    for (exhaustive, halving) in spec_pairs() {
        assert!(matches!(halving.search, SearchStrategy::Halving(_)));
        let guided = ExploreEngine::new().with_threads(2).run(&halving).unwrap();
        let exhaustive = ExploreEngine::new()
            .with_threads(2)
            .run(&exhaustive)
            .unwrap();
        let exhaustive_keys: Vec<String> = exhaustive
            .report
            .frontier_records()
            .map(|p| p.key())
            .collect();
        assert!(!guided.report.frontier.is_empty());
        for p in guided.report.frontier_records() {
            assert!(
                exhaustive_keys.contains(&p.key()),
                "guided frontier point {} is not on the exhaustive frontier {exhaustive_keys:?}",
                p.key()
            );
        }
    }
    // This is the acceptance-grade *quality bound* on these committed
    // specs, not a structural invariant: halving guarantees survivors
    // carry exhaustive-identical full-budget metrics (seed streams are
    // prefixes), but a halved point could in principle have dominated a
    // survivor at full budget. Determinism makes the bound stable — if
    // the GA or a spec changes and the bound breaks, that is a real
    // frontier-quality regression to investigate (retune the fixture's
    // halving parameters), not flakiness.
}

#[test]
fn new_axes_sweep_is_thread_invariant_and_replays_from_cache() {
    let dir = temp_dir("axes");
    let _ = std::fs::remove_dir_all(&dir);
    let onnx = write_tiny_onnx(&dir);
    let spec = SweepSpec::from_json(&axes_spec(&onnx)).unwrap();
    assert_eq!(spec.len(), 24);

    let cache = dir.join("cache");
    let cold = ExploreEngine::new()
        .with_threads(1)
        .with_cache_dir(&cache)
        .run(&spec)
        .unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        cold.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "new-axes sweep must emit identical bytes at 1 and 4 threads"
    );
    // v7 report: the compiler-knob, weight-reload, seq_len,
    // quantization and mapping axes are in every record.
    assert_eq!(cold.report.format_version, 7);
    assert_eq!(cold.report.points.len(), 24);
    assert_eq!(cold.report.failures(), 0);
    assert!(cold
        .report
        .points
        .iter()
        .all(|p| (p.policy == "naive" || p.policy == "ag") && p.batch >= 1));
    // LL points always run batch 1; the onnx model got its own
    // auto-sized hardware labels.
    for p in &cold.report.points {
        if p.mode == "LL" {
            assert_eq!(p.batch, 1, "{}", p.key());
        }
        assert!(
            p.hardware.starts_with("auto-small_test+chips"),
            "{}",
            p.hardware
        );
    }
    // Warm rerun replays every (point, budget) evaluation byte-for-byte.
    let warm = ExploreEngine::new()
        .with_threads(4)
        .with_cache_dir(&cache)
        .run(&spec)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.cache_misses, 0, "warm rerun must fully replay");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(
        cold.report.to_json().unwrap(),
        warm.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
}

/// The cache files under `dir` whose names end in `suffix`, sorted.
fn cache_files(dir: &std::path::Path, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().unwrap().ends_with(suffix))
        .collect();
    files.sort();
    files
}

const ARTIFACTS: &str = ".pimc.json";
const SIDECARS: &str = ".metrics.json";

/// Three `quantization` settings of each of two points.
const QUANT_SPEC: &str = r#"{
  "master_seed": 29,
  "models": ["tiny_mlp", "tiny_cnn"],
  "modes": ["ht"],
  "hardware": { "base": "small_test", "chips": [1] },
  "seeds": [1],
  "ga": { "population": 4, "iterations": 3 },
  "quantization": [0, 6, 32]
}"#;

/// The committed GA-vs-PUMA fixture: one configuration per mode, each
/// mapped by both compilers.
fn mapping_spec() -> String {
    std::fs::read_to_string(fixtures_dir().join("smoke_sweep_mapping.json")).unwrap()
}

#[test]
fn empty_artifact_only_and_full_caches_give_one_report() {
    let dir = temp_dir("states");
    let _ = std::fs::remove_dir_all(&dir);
    let onnx = write_tiny_onnx(&dir);
    let specs = [
        ("halving", HALVING_SPEC.to_string()),
        ("reload", RELOAD_SPEC.to_string()),
        ("auto-hardware", axes_spec(&onnx)),
        ("quantization", QUANT_SPEC.to_string()),
        ("mapping", mapping_spec()),
    ];
    for (name, json) in specs {
        let spec = SweepSpec::from_json(&json).unwrap();
        let cache = dir.join(name);
        let engine = ExploreEngine::new().with_threads(1).with_cache_dir(&cache);

        // Empty: nothing answers from a sidecar. (One thread, so the
        // quantization settings of a point find the artifact the first
        // of them compiled.)
        let empty = engine.run(&spec).unwrap();
        let evaluations = empty.cache_hits + empty.cache_misses;
        assert_eq!(empty.metrics_hits, 0, "{name}");
        assert!(empty.cache_misses > 0, "{name}");
        let json = empty.report.to_json().unwrap();
        let sidecars = cache_files(&cache, SIDECARS);
        assert_eq!(empty.report.failures(), 0, "{name}");
        assert_eq!(sidecars.len(), evaluations, "{name}: one per measurement");

        // Full: every evaluation is answered from its sidecar.
        let full = engine.run(&spec).unwrap();
        assert_eq!((full.cache_hits, full.cache_misses), (evaluations, 0));
        assert_eq!(full.metrics_hits, evaluations, "{name}");
        assert_eq!(json, full.report.to_json().unwrap(), "{name}: full cache");
        assert_eq!(empty.budget, full.budget, "{name}");

        // Artifacts only: every evaluation reloads and re-measures, and
        // puts its sidecar back.
        for sidecar in &sidecars {
            std::fs::remove_file(sidecar).unwrap();
        }
        let reloaded = engine.with_threads(3).run(&spec).unwrap();
        assert_eq!(
            (reloaded.cache_hits, reloaded.cache_misses),
            (evaluations, 0)
        );
        assert_eq!(reloaded.metrics_hits, 0, "{name}");
        assert_eq!(
            json,
            reloaded.report.to_json().unwrap(),
            "{name}: artifacts"
        );
        assert_eq!(sidecars, cache_files(&cache, SIDECARS), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantization_settings_share_an_artifact_but_not_a_sidecar() {
    let dir = temp_dir("quant-memo");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::from_json(
        r#"{"models":["tiny_mlp"],"modes":["ht"],"hardware":{"base":"small_test"},
            "seeds":[1],"ga":{"population":4,"iterations":3},"quantization":[0,6,32]}"#,
    )
    .unwrap();
    let engine = ExploreEngine::new().with_cache_dir(&dir);
    let cold = engine.run(&spec).unwrap();
    assert_eq!(cache_files(&dir, ARTIFACTS).len(), 1);
    assert_eq!(cache_files(&dir, SIDECARS).len(), 3);
    let warm = engine.run(&spec).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.metrics_hits, 3);

    // The accuracy metrics come back from the sidecars bit for bit,
    // and each setting got its own.
    let accuracy = |outcome: &pimcomp::dse::ExploreOutcome| -> Vec<(u64, bool)> {
        let metrics = outcome.report.points.iter().map(|p| p.metrics.as_ref());
        metrics
            .map(|m| {
                let m = m.expect("every setting verifies");
                (m.output_rmse.unwrap().to_bits(), m.top1_match.unwrap())
            })
            .collect()
    };
    assert_eq!(accuracy(&cold), accuracy(&warm));
    assert_ne!(accuracy(&warm)[0].0, accuracy(&warm)[1].0, "q0 vs q6");
}

#[test]
fn damaged_or_foreign_sidecars_and_missing_artifacts_fall_back() {
    let dir = temp_dir("fallback");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = spec();
    let engine = ExploreEngine::new().with_threads(2).with_cache_dir(&dir);
    let json = engine.run(&spec).unwrap().report.to_json().unwrap();
    let sidecars = cache_files(&dir, SIDECARS);
    let artifacts = cache_files(&dir, ARTIFACTS);
    assert_eq!((sidecars.len(), artifacts.len()), (12, 12));
    let intact = std::fs::read_to_string(&sidecars[0]).unwrap();
    assert!(intact.contains("\"measure_version\":3,"), "{intact}");

    // (hits, answered from metrics, misses) of a rerun, which must
    // reproduce the report and heal whatever was damaged.
    let rerun = |what: &str| {
        let outcome = engine.run(&spec).unwrap();
        assert_eq!(json, outcome.report.to_json().unwrap(), "{what}");
        assert_eq!(intact, std::fs::read_to_string(&sidecars[0]).unwrap());
        (
            outcome.cache_hits,
            outcome.metrics_hits,
            outcome.cache_misses,
        )
    };

    // Torn: re-measured from the artifact.
    std::fs::write(&sidecars[0], &intact[..intact.len() / 2]).unwrap();
    assert_eq!(rerun("truncated sidecar"), (12, 11, 0));

    // Measured by another simulator/executor version: likewise.
    let foreign = intact.replace("\"measure_version\":3,", "\"measure_version\":999,");
    std::fs::write(&sidecars[0], foreign).unwrap();
    assert_eq!(rerun("foreign MEASURE_VERSION"), (12, 11, 0));

    // Another point's metrics under this point's name: likewise.
    std::fs::copy(&sidecars[1], &sidecars[0]).unwrap();
    assert_eq!(rerun("another point's sidecar"), (12, 11, 0));

    // Artifact gone: its sidecar no longer answers; recompiled.
    let stem = artifacts[0].to_str().unwrap().trim_end_matches(ARTIFACTS);
    assert!(sidecars[0].to_str().unwrap().starts_with(stem));
    std::fs::remove_file(&artifacts[0]).unwrap();
    assert_eq!(rerun("deleted artifact"), (11, 11, 1));
    assert_eq!(rerun("healed"), (12, 12, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_measurement_is_attempted_again_not_memoised() {
    let dir = temp_dir("failed-measure");
    let _ = std::fs::remove_dir_all(&dir);
    // Two points that compile and cache alike: the second's NoC is too
    // slow for any simulated clock, so its measurement fails every time.
    let spec = SweepSpec::from_json(
        r#"{"models":["tiny_cnn"],"modes":["ll"],
            "hardware":{"base":"small_test","noc_link_bw":[8, 1e-300]},
            "seeds":[1],"ga":{"population":4,"iterations":3},"quantization":[0]}"#,
    )
    .unwrap();
    let engine = ExploreEngine::new().with_cache_dir(&dir);
    let cold = engine.run(&spec).unwrap();
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
    assert_eq!(cache_files(&dir, ARTIFACTS).len(), 2);
    assert_eq!(cache_files(&dir, SIDECARS).len(), 1);
    let json = cold.report.to_json().unwrap();
    assert!(cold.report.points[0].error.is_none());
    let error = cold.report.points[1].error.as_deref().unwrap();
    assert!(error.starts_with("simulate: "), "{error}");

    // Each rerun loads both artifacts. The good point answers from its
    // sidecar; the failed one has none, so it is measured again, fails
    // again, and still writes none.
    for attempt in ["first", "second"] {
        let rerun = engine.run(&spec).unwrap();
        assert_eq!(
            (rerun.cache_hits, rerun.metrics_hits, rerun.cache_misses),
            (2, 1, 0),
            "{attempt}"
        );
        assert_eq!(json, rerun.report.to_json().unwrap(), "{attempt}");
        assert_eq!(cache_files(&dir, SIDECARS).len(), 1, "{attempt}");
    }

    // With its sidecar gone the good point is measured again from the
    // artifact, and the success is memoised afterwards.
    std::fs::remove_file(&cache_files(&dir, SIDECARS)[0]).unwrap();
    let remeasured = engine.run(&spec).unwrap();
    assert_eq!((remeasured.cache_hits, remeasured.metrics_hits), (2, 0));
    assert_eq!(json, remeasured.report.to_json().unwrap());
    assert_eq!(cache_files(&dir, SIDECARS).len(), 1);
    assert_eq!(engine.run(&spec).unwrap().metrics_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A NoC bandwidth near zero validates, but no simulated clock holds its
/// transfers: the point fails with the overflow, where it used to be
/// reported `ok` at a wrapped cycle count and placed on the frontier.
#[test]
fn a_point_whose_clock_overflows_is_reported_failed() {
    let spec = SweepSpec::from_json(
        r#"{"models":["tiny_cnn"],"modes":["ht","ll"],
            "hardware":{"base":"small_test","noc_link_bw":[1e-300]},
            "seeds":[1],"ga":{"population":4,"iterations":3}}"#,
    )
    .unwrap();
    let run = ExploreEngine::new().run(&spec).unwrap();
    assert_eq!(run.report.points.len(), 2);
    assert_eq!(run.report.failures(), 2);
    assert!(run.report.frontier.is_empty());
    for point in &run.report.points {
        let error = point.error.as_deref().unwrap();
        assert!(
            error.starts_with(
                "simulate: simulation diverged: the simulated clock overflows u64 at a NoC transfer: "
            ),
            "{}: {error}",
            point.mode
        );
        assert!(point.metrics.is_none() && !point.pareto);
    }
}

/// A weight-reload sweep over two crossbar budgets plus the
/// unconstrained baseline of the same point.
const RELOAD_SPEC: &str = r#"{
  "master_seed": 17,
  "models": ["tiny_cnn"],
  "modes": ["ht"],
  "hardware": { "base": "small_test" },
  "seeds": [1],
  "ga": { "population": 6, "iterations": 4 },
  "weight_reload": { "budgets": [32, 64], "include_off": true }
}"#;

#[test]
fn reload_sweep_is_thread_invariant_and_replays_from_cache() {
    let dir = temp_dir("reload");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::from_json(RELOAD_SPEC).unwrap();
    let cold = ExploreEngine::new()
        .with_threads(1)
        .with_cache_dir(&dir)
        .run(&spec)
        .unwrap();
    let four = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
    assert_eq!(
        cold.report.to_json().unwrap(),
        four.report.to_json().unwrap(),
        "reload sweep must emit identical bytes at 1 and 4 threads"
    );
    assert_eq!(cold.report.points.len(), 3);
    assert_eq!(cold.report.failures(), 0);
    // The axis is live: constrained budgets stall on weight rewrites,
    // the unconstrained baseline never does.
    for p in &cold.report.points {
        let m = p.metrics.as_ref().unwrap();
        if p.weight_reload == "off" {
            assert_eq!(m.reload_stall_cycles, 0, "{}", p.key());
        } else {
            assert!(m.reload_stall_cycles > 0, "{}", p.key());
            assert!(p.key().contains("/reload-"), "{}", p.key());
        }
    }
    // Warm rerun replays every budget's entry byte-for-byte.
    let warm = ExploreEngine::new()
        .with_threads(4)
        .with_cache_dir(&dir)
        .run(&spec)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(warm.cache_misses, 0, "warm reload rerun must fully replay");
    assert_eq!(warm.cache_hits, cold.cache_misses);
    assert_eq!(
        cold.report.to_json().unwrap(),
        warm.report.to_json().unwrap(),
        "cache replay must not change a single report byte"
    );
}

#[test]
fn onnx_and_zoo_spellings_of_the_same_model_agree() {
    // tiny_mlp by zoo name and the exported tiny_mlp.onnx are the same
    // network, so identical points must produce identical metrics.
    let dir = temp_dir("onnx-agree");
    let _ = std::fs::remove_dir_all(&dir);
    let onnx = write_tiny_onnx(&dir);
    let spec = SweepSpec::from_json(&format!(
        r#"{{"models":["tiny_mlp","{onnx}"],
             "hardware":{{"base":"small_test","parallelism":[4]}},
             "seeds":[1],"ga":{{"population":4,"iterations":2}}}}"#
    ))
    .unwrap();
    let outcome = ExploreEngine::new().with_threads(2).run(&spec).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(outcome.report.points.len(), 2);
    assert_eq!(outcome.report.failures(), 0);
    assert_eq!(
        outcome.report.points[0].metrics, outcome.report.points[1].metrics,
        "zoo and ONNX spellings of tiny_mlp diverged"
    );
}

#[test]
fn missing_and_malformed_onnx_models_are_structured_errors() {
    use pimcomp::dse::ExploreError;
    // Parse succeeds (the file is only read when the sweep runs) …
    let spec = SweepSpec::from_json(
        r#"{"models":["/definitely/not/here.onnx"],
            "hardware":{"base":"small_test"}}"#,
    )
    .unwrap();
    // … and the run surfaces a structured I/O error naming the path.
    let err = ExploreEngine::new().run(&spec).unwrap_err();
    match &err {
        ExploreError::Io { detail } => {
            assert!(detail.contains("/definitely/not/here.onnx"), "{detail}")
        }
        other => panic!("expected Io, got {other:?}"),
    }
    // A file that exists but is not ONNX yields the importer's error.
    let dir = temp_dir("bad-onnx");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("garbage.onnx");
    std::fs::write(&bad, b"this is not an onnx model").unwrap();
    let spec = SweepSpec::from_json(&format!(
        r#"{{"models":["{}"],"hardware":{{"base":"small_test"}}}}"#,
        bad.to_str().unwrap()
    ))
    .unwrap();
    let err = ExploreEngine::new().run(&spec).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    match &err {
        ExploreError::Onnx { path, .. } => assert!(path.ends_with("garbage.onnx"), "{path}"),
        other => panic!("expected Onnx, got {other:?}"),
    }
}

#[test]
fn tiny_sweep_matches_golden_fixture() {
    let outcome = ExploreEngine::new().with_threads(2).run(&spec()).unwrap();
    let actual = outcome.report.to_json().unwrap() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("explore_tiny_sweep.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test \
             --test explore_determinism` to create it",
            path.display()
        )
    });
    // Structural check first so version/shape drift fails loudly, then
    // exact bytes.
    let expected_report = SweepReport::from_json(expected.trim()).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} no longer parses ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(expected_report, outcome.report);
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "sweep report drifted from the golden fixture; regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test explore_determinism` if intentional"
    );
}

#[test]
fn fixture_sweeps_keep_their_keys_and_cache_file_names() {
    // Pins what reports and cache directories written by earlier
    // builds rely on: every committed sweep fixture expands to
    // the same ordered point keys and addresses the same cache files.
    // `UPDATE_GOLDEN=1` regenerates — only for a deliberate format
    // change, which also needs a version bump.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fixtures = fixtures_dir();
    let mut names: Vec<String> = std::fs::read_dir(&fixtures)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains("sweep") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 8, "fixtures went missing: {names:?}");

    let cache = temp_dir("key-golden");
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).unwrap();
    let mut actual = String::new();
    for name in &names {
        let json = std::fs::read_to_string(fixtures.join(name)).unwrap();
        let plan = SweepPlan::new(&SweepSpec::from_json(&json).unwrap()).unwrap();
        for (i, point) in plan.points().iter().enumerate() {
            let outcome = plan
                .evaluate_final_observed(i, Some(&cache), &mut NullObserver)
                .unwrap();
            let file = outcome.cache_file.expect("caching is on");
            actual.push_str(&format!("{name}\t{}\t{file}\n", point.key()));
        }
    }
    std::fs::remove_dir_all(&cache).ok();

    let path = root.join("tests").join("golden").join("sweep_keys.tsv");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("tests/golden/sweep_keys.tsv");
    assert_eq!(
        expected, actual,
        "point keys or cache file names drifted from tests/golden/sweep_keys.tsv"
    );
}

#[test]
fn points_evaluated_backwards_reduce_to_the_engine_report() {
    // A point's record depends only on the spec and its index, so
    // records gathered in any order reduce to the engine's bytes; what
    // `reduce` must refuse is a record list that is short or out of
    // order.
    for name in ["smoke_sweep.json", "smoke_sweep_axes.json"] {
        let json = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
        let spec = SweepSpec::from_json(&json).unwrap();
        let plan = SweepPlan::new(&spec).unwrap();
        let mut records: Vec<_> = (0..plan.len())
            .rev()
            .map(|i| {
                let outcome = plan.evaluate_final_observed(i, None, &mut NullObserver);
                outcome.unwrap().record
            })
            .collect();
        records.reverse();

        let reduced = plan.reduce(records.clone()).unwrap();
        let engine = ExploreEngine::new().run(&spec).unwrap();
        assert_eq!(
            reduced.to_json().unwrap(),
            engine.report.to_json().unwrap(),
            "{name}"
        );

        let mut dropped = records.clone();
        dropped.remove(plan.len() / 2);
        let mut swapped = records;
        swapped.swap(0, 1);
        for bad in [dropped, swapped] {
            let err = plan.reduce(bad).unwrap_err();
            assert!(
                matches!(err, ExploreError::InvalidSpec { .. }),
                "{name}: {err}"
            );
        }
    }
}

#[test]
fn cli_explore_is_thread_invariant_and_cache_aware() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("sweep.json");
    std::fs::write(&spec_path, SPEC).unwrap();
    let cache = dir.join("cache");

    let run = |threads: &str, out: &str| {
        let out_path = dir.join(out);
        let status = std::process::Command::new(bin)
            .args([
                "explore",
                spec_path.to_str().unwrap(),
                "--threads",
                threads,
                "--cache",
                cache.to_str().unwrap(),
                "--out",
                out_path.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::piped())
            .output()
            .expect("spawn pimcomp explore");
        assert!(
            status.status.success(),
            "pimcomp explore failed:\n{}",
            String::from_utf8_lossy(&status.stderr)
        );
        (
            std::fs::read_to_string(&out_path).unwrap(),
            String::from_utf8_lossy(&status.stdout).to_string(),
        )
    };

    let (report1, stdout1) = run("1", "report1.json");
    let (report4, stdout4) = run("4", "report4.json");
    assert_eq!(
        report1, report4,
        "CLI reports must be byte-identical across --threads 1 and --threads 4"
    );
    assert!(stdout1.contains("0 cache hits"), "cold run: {stdout1}");
    assert!(stdout4.contains("12 cache hits"), "warm run: {stdout4}");

    // The written report loads and diffs clean against itself.
    let report = SweepReport::from_json(report1.trim()).unwrap();
    assert!(report.diff(&report).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_budget_summary_reports_guided_savings() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("budget");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("halving.json");
    std::fs::write(&spec_path, HALVING_SPEC).unwrap();

    let out = std::process::Command::new(bin)
        .args([
            "explore",
            spec_path.to_str().unwrap(),
            "--threads",
            "2",
            "--cache",
            "off",
            "--budget-summary",
        ])
        .output()
        .expect("spawn pimcomp explore");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "pimcomp explore failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("halving search"), "{stdout}");
    assert!(stdout.contains("search strategy: halving"), "{stdout}");
    assert!(stdout.contains("full-budget evaluations:"), "{stdout}");
    assert!(stdout.contains("saved vs exhaustive"), "{stdout}");
}

#[test]
fn invalid_specs_and_unknown_models_are_structured_cli_errors() {
    let bin = env!("CARGO_BIN_EXE_pimcomp");
    let dir = temp_dir("badspec");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cases = [
        ("not json at all", "not valid JSON"),
        (
            r#"{"models":["resnet999"],"hardware":{}}"#,
            "available models",
        ),
        // One text for an unknown preset, whichever shape names it.
        (
            r#"{"models":["tiny_mlp"],"hardware":{"base":"tpu"}}"#,
            "error: invalid sweep spec: hardware.base: unknown hardware preset `tpu` \
             (available: puma, small_test)\n",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"base":"tpu"}}"#,
            "error: invalid sweep spec: hardware.base: unknown hardware preset `tpu` \
             (available: puma, small_test)\n",
        ),
        // Hardware values the grid used to mis-size: an empty axis, a
        // kB count whose bytes overflow, a chip count whose cores do.
        (
            r#"{"models":["tiny_mlp"],"hardware":{"chips":[]}}"#,
            "`hardware.chips` must be a number or a non-empty array of numbers",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"local_memory_kb":18014398509481985}}"#,
            "hardware.local_memory_kb: 18014398509481985 kB overflows the byte count",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"chips":4611686018427387904}}"#,
            "hardware grid: invalid hardware parameter `total_cores`: \
             4611686018427387904 chips x 36 cores per chip overflows the core count",
        ),
        // One case per new axis: zero batch, batch > 1 without an HT
        // mode, unknown policy (listing the alternatives), missing
        // ONNX file, and a malformed auto-hardware block.
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[0]}"#,
            "`ht_batches` entries must be at least 1",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],"ht_batches":[2]}"#,
            "only applies to high-throughput mode",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":["lru"]}"#,
            "unknown memory policy `lru` (naive | add | ag)",
        ),
        (
            r#"{"models":["/no/such/model.onnx"],"hardware":{}}"#,
            "/no/such/model.onnx",
        ),
        (
            r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"headroom":0}}"#,
            "`hardware.headroom` must be a finite number >= 1",
        ),
    ];
    for (i, (spec, needle)) in cases.iter().enumerate() {
        let path = dir.join(format!("bad{i}.json"));
        std::fs::write(&path, spec).unwrap();
        let out = std::process::Command::new(bin)
            .args(["explore", path.to_str().unwrap(), "--cache", "off"])
            .output()
            .expect("spawn pimcomp explore");
        assert_eq!(
            out.status.code(),
            Some(1),
            "bad spec {i} should fail, not panic"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "bad spec {i}: stderr `{stderr}` should contain `{needle}`"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
