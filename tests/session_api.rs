//! Integration tests for the staged compilation session API, the
//! observer hooks, and the versioned `CompiledArtifact` persistence
//! flow (compile once, serve many).

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::{PumaCompiler, ReusePolicy};
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
        let legacy = CompileSession::new(hw(), &graph, opts(mode, 77))
            .and_then(CompileSession::run)
            .unwrap();

        assert_eq!(staged.graph, legacy.graph, "{mode}");
        assert_eq!(staged.partitioning, legacy.partitioning, "{mode}");
        assert_eq!(staged.mapping, legacy.mapping, "{mode}");
        assert_eq!(staged.schedule, legacy.schedule, "{mode}");
        assert_eq!(staged.memory, legacy.memory, "{mode}");
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

/// `from_json(to_json(model))` rebuilds `model` field for field, and
/// serializing the rebuilt model writes the same bytes again.
fn assert_round_trip(model: CompiledModel, what: &str) {
    let json = CompiledArtifact::new(model.clone()).to_json().unwrap();
    let back = CompiledArtifact::from_json(&json).unwrap();
    assert_eq!(back.to_json().unwrap(), json, "{what}: bytes");
    let back = back.into_model(&model.hw).unwrap();
    assert_eq!(back.graph, model.graph, "{what}: graph");
    assert_eq!(back.mode, model.mode, "{what}: mode");
    assert_eq!(
        back.partitioning, model.partitioning,
        "{what}: partitioning"
    );
    assert_eq!(back.mapping, model.mapping, "{what}: mapping");
    assert_eq!(back.dep, model.dep, "{what}: dep");
    assert_eq!(back.schedule, model.schedule, "{what}: schedule");
    assert_eq!(back.memory, model.memory, "{what}: memory");
    assert_eq!(back.reload, model.reload, "{what}: reload");
    assert_eq!(
        back.report.compiler, model.report.compiler,
        "{what}: compiler"
    );
    assert_eq!(back.report.ga, model.report.ga, "{what}: GA trace");
    assert_eq!(
        back.report.estimated_fitness.to_bits(),
        model.report.estimated_fitness.to_bits(),
        "{what}: estimated fitness"
    );
}

#[test]
fn artifact_json_round_trip_is_lossless_twice() {
    // An artifact stores the decisions and rebuilds the rest: for every
    // way a model is made, the rebuilt model is the compiled one.
    let compile = |graph: &Graph, hw: HardwareConfig, opts: CompileOptions| {
        CompileSession::new(hw, graph, opts)
            .and_then(CompileSession::run)
            .unwrap()
    };
    let (tiny_cnn, two_branch) = (
        pimcomp::ir::models::tiny_cnn(),
        pimcomp::ir::models::two_branch(),
    );
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        assert_round_trip(
            compile(&two_branch, hw(), opts(mode, 13)),
            &format!("{mode}"),
        );
        let puma = PumaCompiler::new(hw()).compile(&tiny_cnn, &opts(mode, 13));
        assert_round_trip(puma.unwrap(), &format!("PUMA-like {mode}"));
    }
    let ht = opts(PipelineMode::HighThroughput, 13);
    let resident = compile(&tiny_cnn, hw(), ht.clone().with_weight_reload(None));
    assert!(resident.reload.as_ref().unwrap().is_single_epoch());
    assert_round_trip(resident, "weight_reload, resident");
    let epochs = compile(&tiny_cnn, hw(), ht.clone().with_weight_reload(Some(32)));
    assert!(epochs.reload.as_ref().unwrap().epoch_count() > 1);
    assert_round_trip(epochs, "weight_reload, multi-epoch");
    let bert = pimcomp::ir::models::tiny_bert();
    let chip = HardwareConfig::puma_with_chips(1);
    assert_round_trip(
        compile(&bert, chip, ht.with_seq_len(64)),
        "tiny_bert, 64 tokens",
    );
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
    let mut ll_batched = opts(PipelineMode::LowLatency, 1);
    ll_batched.batch = 4;

    for (label, bad) in [
        ("zero batch", zero_batch),
        ("zero population", zero_pop),
        ("zero iterations", zero_iters),
        ("LL with HT batch", ll_batched),
    ] {
        let err = CompileSession::new(hw(), &graph, bad).unwrap_err();
        assert!(
            matches!(err, CompileError::InvalidOptions { .. }),
            "{label}: {err}"
        );
    }
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
    // Start/finish pairs in pipeline order, whichever path builds the
    // mapping.
    let pipeline = vec![
        (CompileStage::NodePartitioning, false),
        (CompileStage::NodePartitioning, true),
        (CompileStage::ReplicatingMapping, false),
        (CompileStage::ReplicatingMapping, true),
        (CompileStage::DataflowScheduling, false),
        (CompileStage::DataflowScheduling, true),
    ];

    let mut events = Events::default();
    let compiled = CompileSession::new(hw(), &graph, opts(PipelineMode::HighThroughput, 3))
        .and_then(|session| session.run_observed(&mut events))
        .unwrap();
    assert!(compiled.report.estimated_fitness > 0.0);
    assert_eq!(events.stages, pipeline);
    // One callback per GA generation, in order.
    let expect: Vec<usize> = (0..GaParams::fast(3).iterations).collect();
    assert_eq!(events.generations, expect);

    // Over its crossbar budget, `weight_reload` maps by the epoch packer:
    // the same six events, and no GA generation.
    let mut events = Events::default();
    let reload = opts(PipelineMode::HighThroughput, 3).with_weight_reload(Some(32));
    let compiled = CompileSession::new(hw(), &graph, reload)
        .and_then(|session| session.run_observed(&mut events))
        .unwrap();
    assert!(compiled.reload.unwrap().epoch_count() >= 2);
    assert_eq!(events.stages, pipeline);
    assert!(events.generations.is_empty());
}

/// A budget short of a whole core sends a model that fits it to the
/// epoch packer (the GA only places on whole cores), and one epoch
/// holds it: the simulator's event engine runs it, and nothing stalls.
#[test]
fn a_budget_of_part_cores_packs_one_epoch_for_the_event_engine() {
    let graph = pimcomp::ir::models::tiny_cnn();
    let capacity = hw().crossbar_capacity_per_core();
    let min = CompileSession::new(hw(), &graph, opts(PipelineMode::HighThroughput, 3))
        .and_then(CompileSession::partition)
        .unwrap()
        .partitioning()
        .min_crossbars();
    let budget = min.next_multiple_of(capacity) - 1;
    assert!(!budget.is_multiple_of(capacity) && budget / capacity * capacity < min);
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let packed = opts(mode, 3).with_weight_reload(Some(budget));
        let compiled = CompileSession::new(hw(), &graph, packed)
            .and_then(CompileSession::run)
            .unwrap();
        assert!(compiled.report.ga.is_none(), "{mode}: the packer maps it");
        let plan = compiled.reload.clone().unwrap();
        assert!(plan.is_single_epoch(), "{mode}");
        assert_eq!(plan.total_write_cycles, 0, "{mode}");
        assert!(plan.total_compute_cycles > 0, "{mode}");
        let report = Simulator::new(hw()).run(&compiled).unwrap();
        assert!(
            !report.per_core_busy.is_empty(),
            "{mode}: the event engine ran"
        );
        assert_eq!(report.reload_stall_cycles, 0, "{mode}");
        assert_eq!(report.reload_epochs, 1, "{mode}");
    }
}

#[test]
fn session_reentry_replans_memory_without_rescheduling() {
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
    assert_eq!(replanned.memory().policy, ReusePolicy::Naive);
}
