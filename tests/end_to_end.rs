//! Cross-crate integration tests: the full compile→simulate pipeline on
//! small models, checking the invariants that tie the stages together.

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::{CompileOptions, CoreMapping, PumaCompiler};
use pimcomp_ir::models;

fn modes() -> [PipelineMode; 2] {
    [PipelineMode::HighThroughput, PipelineMode::LowLatency]
}

#[test]
fn every_small_model_compiles_and_simulates_in_both_modes() {
    let hw = HardwareConfig::small_test();
    for graph in [
        models::tiny_cnn(),
        models::tiny_mlp(),
        models::two_branch(),
        models::linear_chain(5),
    ] {
        for mode in modes() {
            let opts = CompileOptions::new(mode).with_fast_ga(3);
            let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
                .and_then(CompileSession::run)
                .unwrap_or_else(|e| panic!("{} {mode}: {e}", graph.name()));
            let report = Simulator::new(hw.clone())
                .run(&compiled)
                .unwrap_or_else(|e| panic!("{} {mode}: {e}", graph.name()));
            assert!(report.total_cycles > 0, "{} {mode}", graph.name());
            assert!(report.mvm_ops > 0, "{} {mode}", graph.name());
        }
    }
}

#[test]
fn tiny_bert_compiles_and_simulates_in_every_mode() {
    // HT, LL and over-constrained weight-reload on one chip, all at a
    // bound sequence length of 64 tokens.
    let hw = HardwareConfig::puma_with_chips(1);
    let graph = models::tiny_bert();
    let mut opt_sets = vec![
        CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(3),
        CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(3),
        CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(3)
            .with_weight_reload(Some(64)),
    ];
    for opts in opt_sets.drain(..) {
        let opts = opts.with_seq_len(64);
        let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
            .and_then(CompileSession::run)
            .unwrap_or_else(|e| panic!("tiny_bert {}: {e}", opts.mode));
        assert!(!compiled.graph.has_symbolic_dims());
        let report = Simulator::new(hw.clone())
            .run(&compiled)
            .unwrap_or_else(|e| panic!("tiny_bert {}: {e}", opts.mode));
        assert!(report.total_cycles > 0, "tiny_bert {}", opts.mode);
        assert!(report.mvm_ops > 0, "tiny_bert {}", opts.mode);
    }
}

#[test]
fn unbound_sequence_length_is_a_structured_error() {
    let hw = HardwareConfig::puma_with_chips(1);
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(3);
    let err = CompileSession::new(hw, &models::tiny_bert(), opts.clone())
        .and_then(CompileSession::run)
        .unwrap_err();
    assert!(
        matches!(&err, pimcomp_core::CompileError::UnboundSeqLen { model } if model == "tiny_bert"),
        "expected UnboundSeqLen, got: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("--seq-len") && msg.contains("with_seq_len"),
        "{msg}"
    );
}

#[test]
fn baseline_compiles_and_simulates_everything_too() {
    let hw = HardwareConfig::small_test();
    for graph in [models::tiny_cnn(), models::two_branch()] {
        for mode in modes() {
            let opts = CompileOptions::new(mode).with_fast_ga(3);
            let compiled = PumaCompiler::new(hw.clone())
                .compile(&graph, &opts)
                .unwrap_or_else(|e| panic!("{} {mode}: {e}", graph.name()));
            let report = Simulator::new(hw.clone()).run(&compiled).unwrap();
            assert!(report.total_cycles > 0);
        }
    }
}

#[test]
fn crossbar_capacity_is_respected_end_to_end() {
    let hw = HardwareConfig::small_test();
    let graph = models::tiny_cnn();
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(11);
    let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    let mut used = vec![0usize; hw.total_cores()];
    for inst in &compiled.mapping.instances {
        used[inst.core] += compiled.partitioning.entry(inst.mvm).crossbars_per_ag;
    }
    for (core, &u) in used.iter().enumerate() {
        assert!(
            u <= hw.crossbar_capacity_per_core(),
            "core {core} holds {u} crossbars > {}",
            hw.crossbar_capacity_per_core()
        );
    }
}

#[test]
fn ag_instances_are_conserved() {
    // Every node must have replication × AGs-per-replica instances,
    // each slice appearing exactly once per replica.
    let hw = HardwareConfig::small_test();
    let graph = models::two_branch();
    let opts = CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(13);
    let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    let instances = compiled.mapping.instances.clone();
    let rebuilt = CoreMapping::from_instances(instances, &compiled.partitioning, hw.total_cores());
    assert_eq!(rebuilt.as_ref(), Ok(&compiled.mapping));
    for (mvm, entry) in compiled.partitioning.entries().iter().enumerate() {
        let r = compiled.mapping.replication.count(mvm);
        for replica in 0..r {
            let mut slices: Vec<usize> = compiled
                .mapping
                .instances
                .iter()
                .filter(|i| i.mvm == mvm && i.replica == replica)
                .map(|i| i.slice)
                .collect();
            slices.sort_unstable();
            let expect: Vec<usize> = (0..entry.ags_per_replica).collect();
            assert_eq!(slices, expect, "node {mvm} replica {replica}");
        }
    }
}

#[test]
fn compilation_is_reproducible_across_runs() {
    let hw = HardwareConfig::small_test();
    let graph = models::tiny_cnn();
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(99);
    let a = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    let b = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    assert_eq!(a.mapping, b.mapping);
    let sim = Simulator::new(hw);
    assert_eq!(
        sim.run(&a).unwrap().total_cycles,
        sim.run(&b).unwrap().total_cycles
    );
}

#[test]
fn simulated_mvm_work_is_independent_of_mapping() {
    // Total crossbar MVM activations depend only on the partitioning
    // and replication-window split, not on which cores run them.
    let hw = HardwareConfig::small_test();
    let graph = models::tiny_cnn();
    let opts = CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(7);
    let ours = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    let base = PumaCompiler::new(hw.clone())
        .compile(&graph, &opts)
        .unwrap();
    let sim = Simulator::new(hw);
    let r_ours = sim.run(&ours).unwrap();
    let r_base = sim.run(&base).unwrap();
    // Same node set; mvm op totals match exactly (windows conserved).
    let expect: u64 = ours
        .partitioning
        .entries()
        .iter()
        .map(|e| (e.windows * e.ags_per_replica) as u64)
        .sum();
    assert_eq!(r_ours.mvm_ops, expect);
    assert_eq!(r_base.mvm_ops, expect);
}

#[test]
fn memory_policies_are_monotone_end_to_end() {
    use pimcomp_core::ReusePolicy;
    let hw = HardwareConfig::small_test();
    let graph = models::tiny_cnn();
    for mode in modes() {
        let opts = CompileOptions::new(mode).with_fast_ga(5);
        let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
            .and_then(CompileSession::run)
            .unwrap();
        let naive = compiled.replan_memory(ReusePolicy::Naive);
        let add = compiled.replan_memory(ReusePolicy::AddReuse);
        let ag = compiled.replan_memory(ReusePolicy::AgReuse);
        assert!(naive.avg_bytes >= add.avg_bytes, "{mode}");
        assert!(add.avg_bytes >= ag.avg_bytes, "{mode}");
        assert!(naive.global_traffic >= ag.global_traffic, "{mode}");
    }
}

#[test]
fn squeezenet_compiles_on_the_paper_target() {
    // One full-size benchmark exercised end-to-end on the PUMA target
    // (minimal GA keeps this fast enough for a debug test run).
    let graph = pimcomp_ir::transform::normalize(&models::squeezenet()).unwrap();
    let hw = HardwareConfig::puma();
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(pimcomp_core::GaParams {
        population: 6,
        iterations: 4,
        ..pimcomp_core::GaParams::fast(1)
    });
    let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    assert!(compiled.crossbars_used() <= hw.total_crossbars());
    let report = Simulator::new(hw).run(&compiled).unwrap();
    assert!(report.total_cycles > 0);
    assert!(report.active_cores <= 36);
}
