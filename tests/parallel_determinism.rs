//! The parallel GA's determinism contract, asserted bit-for-bit:
//! serial and 2-/4-/8-thread runs must produce identical best
//! chromosomes and identical [`GaStats`] for every seed and pipeline
//! mode (see `GaParams::parallelism` for the seed-stream-splitting
//! design that makes this hold by construction).

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{optimize, Chromosome, DepInfo, GaContext, GaParams, GaStats, Partitioning};
use pimcomp_ir::transform::normalize;
use std::num::NonZeroUsize;

fn run(mode: PipelineMode, seed: u64, threads: Option<usize>) -> (Chromosome, GaStats) {
    let graph = normalize(&pimcomp_ir::models::tiny_cnn()).unwrap();
    let hw = HardwareConfig::small_test();
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let ctx = GaContext {
        hw: &hw,
        graph: &graph,
        partitioning: &partitioning,
        dep: &dep,
        mode,
        core_limit: None,
    };
    let params = GaParams {
        population: 12,
        iterations: 10,
        seed,
        parallelism: threads.and_then(NonZeroUsize::new),
        ..GaParams::default()
    };
    optimize(&ctx, &params, &mut |_| {}).unwrap()
}

#[test]
fn thread_count_never_changes_the_result() {
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        for seed in [1u64, 7, 42] {
            let (serial_best, serial_stats) = run(mode, seed, None);
            for threads in [2usize, 4, 8] {
                let (best, stats) = run(mode, seed, Some(threads));
                assert_eq!(
                    serial_best, best,
                    "{mode}/seed {seed}: {threads}-thread chromosome diverged from serial"
                );
                assert_eq!(
                    serial_stats, stats,
                    "{mode}/seed {seed}: {threads}-thread GaStats diverged from serial"
                );
            }
        }
    }
}

#[test]
fn fitness_history_is_bitwise_stable_across_threads() {
    // `history` carries raw f64s; compare their bit patterns explicitly
    // so a masked `-0.0`/NaN-style divergence cannot hide behind `==`.
    let (_, serial) = run(PipelineMode::HighThroughput, 7, None);
    let (_, parallel) = run(PipelineMode::HighThroughput, 7, Some(4));
    let serial_bits: Vec<u64> = serial.history.iter().map(|f| f.to_bits()).collect();
    let parallel_bits: Vec<u64> = parallel.history.iter().map(|f| f.to_bits()).collect();
    assert_eq!(serial_bits, parallel_bits);
    assert_eq!(
        serial.final_fitness.to_bits(),
        parallel.final_fitness.to_bits()
    );
}

#[test]
fn explicit_parallelism_one_equals_default_serial() {
    let (a_best, a_stats) = run(PipelineMode::LowLatency, 42, None);
    let (b_best, b_stats) = run(PipelineMode::LowLatency, 42, Some(1));
    assert_eq!(a_best, b_best);
    assert_eq!(a_stats, b_stats);
}

#[test]
fn full_compilation_is_thread_count_invariant() {
    // End to end through the session API: the whole artifact (mapping,
    // schedule, memory plan, reload plan, report) must serialize to the
    // same bytes run after run, at any GA thread count — in both modes
    // and on the multi-epoch reload path.
    use pimcomp_core::{CompileOptions, CompileSession, CompiledArtifact};
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let cases = [
        ("HT", CompileOptions::new(PipelineMode::HighThroughput)),
        ("LL", CompileOptions::new(PipelineMode::LowLatency)),
        (
            "HT reload",
            CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(Some(32)),
        ),
    ];
    for (label, base) in cases {
        let compile = |threads: Option<usize>| {
            let opts = base
                .clone()
                .with_fast_ga(7)
                .with_parallelism(threads.and_then(NonZeroUsize::new));
            let model = CompileSession::new(hw.clone(), &graph, opts)
                .unwrap()
                .run()
                .unwrap();
            CompiledArtifact::new(model)
        };
        let serial = compile(None);
        if let Some(plan) = &serial.model().reload {
            assert!(plan.epoch_count() >= 2, "{label}: budget must force epochs");
        }
        let bytes = serial.to_json().unwrap();
        // `assert!`, not `assert_eq!`: a failure must not print two
        // whole artifacts.
        for (run, threads) in [
            ("second serial", None),
            ("1-thread", Some(1)),
            ("4-thread", Some(4)),
        ] {
            assert!(
                compile(threads).to_json().unwrap() == bytes,
                "{label}: {run} artifact JSON differs from the first serial compile"
            );
        }
    }
}

#[test]
fn weight_reload_compilation_is_thread_count_invariant() {
    // Both reload paths must be invariant: a budget the model fits
    // (GA under a core limit, resident single-epoch plan) and a tight
    // budget (deterministic epoch packer, no GA).
    use pimcomp_core::{CompileOptions, CompileSession};
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let compile = |threads: Option<usize>, budget: usize| {
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(7)
            .with_parallelism(threads.and_then(NonZeroUsize::new))
            .with_weight_reload(Some(budget));
        CompileSession::new(hw.clone(), &graph, opts)
            .unwrap()
            .run()
            .unwrap()
    };
    for budget in [hw.total_crossbars(), 32] {
        let serial = compile(None, budget);
        let parallel = compile(Some(4), budget);
        assert_eq!(serial.mapping, parallel.mapping, "budget {budget}");
        assert_eq!(serial.schedule, parallel.schedule, "budget {budget}");
        assert_eq!(serial.reload, parallel.reload, "budget {budget}");
        assert_eq!(
            serial.report.estimated_fitness.to_bits(),
            parallel.report.estimated_fitness.to_bits(),
            "budget {budget}"
        );
    }
    // The full-capacity budget stays resident; the tight budget must
    // actually exercise multi-epoch reloads.
    let resident = compile(None, hw.total_crossbars()).reload.unwrap();
    assert!(resident.is_single_epoch());
    assert_eq!(resident.total_write_cycles, 0);
    let tight = compile(None, 32).reload.unwrap();
    assert!(tight.epoch_count() > 1);
    assert!(tight.total_write_cycles > 0);
}
