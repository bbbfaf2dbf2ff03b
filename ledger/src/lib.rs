//! The layered performance ledger: the benchmark `BENCHMARK.json`
//! names, and the one every later performance or simplicity claim is
//! measured with.
//!
//! Four closed-loop, single-thread workloads ([`WORKLOADS`]) each time
//! back-to-back passes over the public entry points of `ir`, `onnx`,
//! `core`, `sim`, `exec` and `dse`, check their outputs, and report the
//! end-to-end metrics of [`END_TO_END`]. A traced run alternates
//! untraced and traced passes and reports the per-layer metrics of
//! [`PER_LAYER`] from span self times. `README.md` beside this crate
//! has the tables, the reasons, and where the time goes today.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod run;
pub mod trace;
pub mod workloads;

use std::time::Instant;

/// The committed sweep the `sweep_zoo` workload runs: squeezenet,
/// resnet18 and googlenet × HT/LL × auto-sized PUMA targets at
/// parallelism 1, 20 and 200 (18 points), GA 40×50. The harness
/// replaces `master_seed` and the seed axis with its `--seed`.
pub const BENCH_SWEEP_SPEC: &str = include_str!("../fixtures/bench_sweep.json");

/// The `--smoke` stand-in for [`BENCH_SWEEP_SPEC`]: the tiny test
/// models on the small test target (12 points), GA 4×3.
pub const BENCH_SWEEP_SMOKE_SPEC: &str = include_str!("../fixtures/bench_sweep_smoke.json");

/// The workloads, by their stable names.
pub const WORKLOADS: [&str; 4] = [
    "compile_paper",
    "simulate_paper",
    "sweep_zoo",
    "verify_resnet18",
];

/// One named metric of the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The metric's name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the baseline's median by which it
    /// may get worse before `--compare` reports `worse`.
    pub bound: Option<f64>,
    /// Whether the value is a pure function of the seed (a count, a
    /// simulated statistic, an error figure), so two runs of the same
    /// code must agree exactly.
    pub exact: bool,
}

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact: false,
    }
}

/// A host-time measurement of one layer, in seconds.
const fn seconds(name: &'static str) -> MetricDef {
    measured(name, "s", false)
}

/// Any other measured (run-to-run noisy) per-layer value.
const fn measured(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
        exact: false,
    }
}

/// A per-layer value that repeats exactly for a given seed.
const fn exact(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
        exact: true,
    }
}

/// The end-to-end metrics; every workload reports every one (untraced
/// runs only). `leg1_s`/`leg2_s` split a pass into the two halves a
/// change may trade against each other: HT/LL compiles, HT/LL
/// simulations, cold/warm sweep, unquantized/8-bit verification.
pub const END_TO_END: [MetricDef; 5] = [
    end_to_end("setup_s", "s", 0.25),
    end_to_end("wall_s", "s", 0.25),
    end_to_end("leg1_s", "s", 0.25),
    end_to_end("leg2_s", "s", 0.25),
    end_to_end("peak_rss_mb", "MB", 0.15),
];

/// The per-layer metrics; every workload's traced run reports every
/// one, reading 0 where the workload leaves that layer idle.
pub const PER_LAYER: [MetricDef; 71] = [
    seconds("ir.build_normalize_s"),
    exact("ir.nodes", "count", false),
    seconds("onnx.export_s"),
    seconds("onnx.import_s"),
    exact("onnx.bytes", "bytes", false),
    seconds("core.size_hardware_s"),
    seconds("core.session_new_s"),
    seconds("core.partition_s"),
    seconds("core.ga_ht_s"),
    seconds("core.ga_ll_s"),
    seconds("core.ga_ht.init_s"),
    seconds("core.ga_ll.init_s"),
    seconds("core.ga.slowest_model_s"),
    exact("core.ga_ht.evals", "count", false),
    exact("core.ga_ht.full_evals", "count", false),
    exact("core.ga_ht.incremental_evals", "count", false),
    exact("core.ga_ht.memo_hits", "count", true),
    exact("core.ga_ll.evals", "count", false),
    exact("core.ga_ll.full_evals", "count", false),
    exact("core.ga_ll.incremental_evals", "count", false),
    exact("core.ga_ll.memo_hits", "count", true),
    measured("core.ga_ht.evals_per_s", "1/s", true),
    measured("core.ga_ll.evals_per_s", "1/s", true),
    measured("core.ga_t2_speedup", "x", true),
    seconds("core.schedule_ht_s"),
    seconds("core.schedule_ll_s"),
    seconds("core.pack_reload_s"),
    seconds("core.replan_memory_s"),
    seconds("core.baseline_s"),
    seconds("core.artifact.to_json_s"),
    seconds("core.artifact.from_json_s"),
    // Artifacts embed their compile's wall-clock stage timings, so
    // their size moves by a few digits from run to run.
    measured("core.artifact.bytes", "bytes", false),
    exact("core.sim_cycles_geomean", "cycles", false),
    exact("core.ht_speedup_vs_puma", "x", true),
    exact("core.ll_speedup_vs_puma", "x", true),
    exact("core.worst_speedup_vs_puma", "x", true),
    seconds("sim.ht_s"),
    seconds("sim.ll_s"),
    seconds("sim.reload_s"),
    seconds("sim.ht.slowest_model_s"),
    exact("sim.ht.mvm_ops", "count", false),
    exact("sim.ll.mvm_ops", "count", false),
    measured("sim.ht.mvm_ops_per_s", "1/s", true),
    measured("sim.ll.mvm_ops_per_s", "1/s", true),
    exact("sim.ht.cycles", "cycles", false),
    exact("sim.ll.cycles", "cycles", false),
    seconds("exec.reference_s"),
    seconds("exec.mapped_build_s"),
    seconds("exec.mapped_f32_s"),
    seconds("exec.mapped_q8_s"),
    measured("exec.reference.gmacs_per_s", "1/s", true),
    exact("exec.rmse_f32", "rmse", false),
    exact("exec.rmse_q8", "rmse", false),
    seconds("dse.spec_parse_s"),
    seconds("dse.plan_s"),
    seconds("dse.points_cold_s"),
    seconds("dse.points_warm_s"),
    seconds("dse.point_cold_max_s"),
    seconds("dse.reduce_s"),
    measured("dse.warm_cold_ratio", "x", false),
    measured("dse.t2_speedup", "x", true),
    exact("dse.cache.hits", "count", true),
    exact("dse.cache.misses", "count", false),
    measured("dse.cache.bytes", "bytes", false),
    exact("dse.report.bytes", "bytes", false),
    exact("dse.sim_cycles_geomean", "cycles", false),
    seconds("bench.pass_wall_s"),
    measured("bench.span_coverage", "x", true),
    measured("bench.layer_share", "x", true),
    measured("bench.trace_overhead_share", "x", false),
    measured("bench.calibration_mops", "Mop/s", true),
];

/// A JSON object from `(key, value)` pairs, in order.
pub(crate) fn object<'a>(
    fields: impl IntoIterator<Item = (&'a str, serde::Value)>,
) -> serde::Value {
    serde::Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Millions of SplitMix64 steps per second on one core — a pure-ALU
/// loop that tracks the same machine characteristics as the GA hot
/// loop. Best of three, so a scheduling hiccup underestimates less.
/// Recorded with every result, never used to rescale one.
pub fn calibrate() -> f64 {
    fn mix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    const STEPS: u64 = 20_000_000;
    let mut best = 0.0f64;
    for round in 0..3u64 {
        let t0 = Instant::now();
        let mut acc = round;
        for i in 0..STEPS {
            acc = mix64(acc ^ i);
        }
        std::hint::black_box(acc);
        best = best.max(STEPS as f64 / 1e6 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value the ledger reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes samples as median, quartiles (linear interpolation
/// between closest ranks), minimum and maximum. No pass count in this
/// ledger leaves ten samples beyond any percentile, so no tail
/// percentile is claimed. Returns `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    Some(Summary {
        n: s.len(),
        min: s[0],
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        max: s[s.len() - 1],
    })
}

/// The median of `samples`, or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Geometric mean of positive values, or 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 2.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 2.5));
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric `{}`", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// The 18-point expansion later issues cite is pinned here (the
    /// issue asked for this in `pimcomp-bench`'s
    /// `committed_sweep_fixtures_parse`, which lies outside the
    /// benchmark's directory).
    #[test]
    fn committed_sweep_fixtures_parse() {
        let spec = pimcomp_dse::SweepSpec::from_json(BENCH_SWEEP_SPEC).unwrap();
        assert!(spec.hardware.is_auto());
        assert_eq!((spec.ga_population, spec.ga_iterations), (40, 50));
        assert_eq!(spec.points().unwrap().len(), 3 * 2 * 3);
        let smoke = pimcomp_dse::SweepSpec::from_json(BENCH_SWEEP_SMOKE_SPEC).unwrap();
        assert_eq!(smoke.points().unwrap().len(), 3 * 2 * 2);
    }
}
