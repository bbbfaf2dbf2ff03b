//! Integration tests for the staged compilation session API, the
//! observer hooks, and the versioned `CompiledArtifact` persistence
//! flow (compile once, serve many).

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::ReusePolicy;
use std::time::Duration;

fn hw() -> HardwareConfig {
    HardwareConfig::small_test()
}

fn opts(mode: PipelineMode, seed: u64) -> CompileOptions {
    CompileOptions::new(mode).with_fast_ga(seed)
}

#[test]
fn staged_session_matches_legacy_compile_for_the_same_seed() {
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let graph = pimcomp::ir::models::tiny_cnn();
        let staged = CompileSession::new(hw(), &graph, opts(mode, 77))
            .unwrap()
            .partition()
            .unwrap()
            .optimize()
            .unwrap()
            .schedule()
            .unwrap()
            .finish();
        let legacy = PimCompiler::new(hw())
            .compile(&graph, &opts(mode, 77))
            .unwrap();

        assert_eq!(staged.graph, legacy.graph, "{mode}");
        assert_eq!(staged.partitioning, legacy.partitioning, "{mode}");
        assert_eq!(staged.mapping, legacy.mapping, "{mode}");
        assert_eq!(staged.schedule, legacy.schedule, "{mode}");
        assert_eq!(staged.memory, legacy.memory, "{mode}");
        assert_eq!(
            staged.report.replication, legacy.report.replication,
            "{mode}"
        );
        assert_eq!(
            staged.report.estimated_fitness, legacy.report.estimated_fitness,
            "{mode}"
        );

        // And the simulator cannot tell them apart.
        let sim = Simulator::new(hw());
        assert_eq!(
            sim.run(&staged).unwrap(),
            sim.run(&legacy).unwrap(),
            "{mode}"
        );
    }
}

#[test]
fn artifact_disk_round_trip_preserves_simulation_bit_for_bit() {
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let graph = pimcomp::ir::models::tiny_cnn();
        let compiled = CompileSession::new(hw(), &graph, opts(mode, 5))
            .unwrap()
            .run()
            .unwrap();
        let in_memory_report = Simulator::new(hw()).run(&compiled).unwrap();

        let dir = std::env::temp_dir().join("pimcomp-session-api-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("artifact-{mode}.pimc.json"));
        CompiledArtifact::new(compiled).save(&path).unwrap();

        let artifact = CompiledArtifact::load(&path).unwrap();
        let reloaded_report = Simulator::new(hw()).run_artifact(&artifact).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(
            reloaded_report.total_cycles, in_memory_report.total_cycles,
            "{mode}"
        );
        // Beyond the headline number: every field (including floats)
        // must survive the JSON round trip bit-for-bit.
        assert_eq!(reloaded_report, in_memory_report, "{mode}");
    }
}

#[test]
fn artifact_json_round_trip_is_lossless_twice() {
    // Serialize -> deserialize -> serialize must be a fixed point.
    let graph = pimcomp::ir::models::two_branch();
    let compiled = CompileSession::new(hw(), &graph, opts(PipelineMode::LowLatency, 13))
        .unwrap()
        .run()
        .unwrap();
    let a = CompiledArtifact::new(compiled);
    let json1 = a.to_json().unwrap();
    let b = CompiledArtifact::from_json(&json1).unwrap();
    let json2 = b.to_json().unwrap();
    assert_eq!(json1, json2);
}

#[test]
fn mismatched_hardware_fingerprint_fails_cleanly() {
    let graph = pimcomp::ir::models::tiny_mlp();
    let compiled = CompileSession::new(hw(), &graph, opts(PipelineMode::HighThroughput, 1))
        .unwrap()
        .run()
        .unwrap();
    let artifact = CompiledArtifact::new(compiled);

    let other_hw = hw().with_parallelism(64);
    assert!(matches!(
        artifact.verify_hardware(&other_hw),
        Err(ArtifactError::HardwareMismatch { .. })
    ));
    // The simulator refuses to execute it against the wrong target ...
    let err = Simulator::new(other_hw)
        .run_artifact(&artifact)
        .unwrap_err();
    assert!(err.to_string().contains("hardware"), "{err}");
    // ... but the matching target works.
    assert!(Simulator::new(hw()).run_artifact(&artifact).is_ok());
}

#[test]
fn invalid_options_are_rejected_at_session_creation() {
    let graph = pimcomp::ir::models::tiny_mlp();

    let mut zero_batch = opts(PipelineMode::HighThroughput, 1);
    zero_batch.batch = 0;
    let mut zero_pop = opts(PipelineMode::HighThroughput, 1);
    zero_pop.ga.population = 0;
    let mut zero_iters = opts(PipelineMode::HighThroughput, 1);
    zero_iters.ga.iterations = 0;
    let mut zero_mutations = opts(PipelineMode::HighThroughput, 1);
    zero_mutations.ga.max_mutations_per_child = 0;
    let mut ll_batched = opts(PipelineMode::LowLatency, 1);
    ll_batched.batch = 4;

    for (label, bad) in [
        ("zero batch", zero_batch),
        ("zero population", zero_pop),
        ("zero iterations", zero_iters),
        ("zero mutations per child", zero_mutations),
        ("LL with HT batch", ll_batched),
    ] {
        let err = CompileSession::new(hw(), &graph, bad).unwrap_err();
        assert!(
            matches!(err, CompileError::InvalidOptions { .. }),
            "{label}: {err}"
        );
    }

    // The legacy wrapper rejects them too (it routes through the session).
    let mut bad = opts(PipelineMode::HighThroughput, 1);
    bad.ga.population = 0;
    assert!(matches!(
        PimCompiler::new(hw()).compile(&graph, &bad),
        Err(CompileError::InvalidOptions { .. })
    ));
}

#[test]
fn observer_streams_stages_and_ga_progress_end_to_end() {
    #[derive(Default)]
    struct Events {
        stages: Vec<(CompileStage, bool)>,
        generations: Vec<usize>,
    }
    impl CompileObserver for Events {
        fn on_stage_start(&mut self, stage: CompileStage) {
            self.stages.push((stage, false));
        }
        fn on_stage_finish(&mut self, stage: CompileStage, _elapsed: Duration) {
            self.stages.push((stage, true));
        }
        fn on_ga_generation(&mut self, p: GaGeneration) {
            self.generations.push(p.generation);
        }
    }

    let graph = pimcomp::ir::models::tiny_cnn();
    let mut events = Events::default();
    let compiled = CompileSession::new(hw(), &graph, opts(PipelineMode::HighThroughput, 3))
        .and_then(|session| session.run_observed(&mut events))
        .unwrap();
    assert!(compiled.report.estimated_fitness > 0.0);

    // Start/finish pairs in pipeline order.
    assert_eq!(
        events.stages,
        vec![
            (CompileStage::NodePartitioning, false),
            (CompileStage::NodePartitioning, true),
            (CompileStage::ReplicatingMapping, false),
            (CompileStage::ReplicatingMapping, true),
            (CompileStage::DataflowScheduling, false),
            (CompileStage::DataflowScheduling, true),
        ]
    );
    // One callback per GA generation, in order.
    let expect: Vec<usize> = (0..GaParams::fast(3).iterations).collect();
    assert_eq!(events.generations, expect);
}

#[test]
fn session_reentry_swaps_policy_and_ga_without_recompiling_upstream() {
    let graph = pimcomp::ir::models::tiny_cnn();
    let scheduled = CompileSession::new(hw(), &graph, opts(PipelineMode::HighThroughput, 21))
        .unwrap()
        .partition()
        .unwrap()
        .optimize()
        .unwrap()
        .schedule()
        .unwrap();

    // Memory-policy re-entry keeps the schedule identical.
    let before = scheduled.schedule().clone();
    let replanned = scheduled.replan_memory(ReusePolicy::Naive);
    assert_eq!(replanned.schedule(), &before);
    assert!(replanned.memory().avg_bytes > 0.0);

    // GA re-entry (new seed) reuses partitioning and stays feasible.
    let optimized = replanned.into_optimized();
    let partitioning_before = optimized.partitioned().partitioning().clone();
    let re = optimized.reoptimize(GaParams::fast(22)).unwrap();
    assert_eq!(re.partitioned().partitioning(), &partitioning_before);
    re.mapping()
        .validate(re.partitioned().partitioning())
        .unwrap();

    // Re-entering with the same seed reproduces the same mapping as a
    // fresh end-to-end compilation with that seed.
    let re_same = re.reoptimize(GaParams::fast(21)).unwrap();
    let fresh = PimCompiler::new(hw())
        .compile(&graph, &opts(PipelineMode::HighThroughput, 21))
        .unwrap();
    assert_eq!(re_same.mapping(), &fresh.mapping);
}
