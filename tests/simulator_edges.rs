//! Simulator edge cases: interconnect variants, extreme configurations
//! and energy-model corners that the main-line tests do not reach.

use pimcomp::prelude::*;
use pimcomp_arch::{CoreConnection, PipelineMode};
use pimcomp_core::{CompileOptions, HtSchedule, LlSchedule, LlUnit, LlUnitKind, Schedule};
use pimcomp_ir::models;
use pimcomp_sim::SimError;

fn compile_tiny_cnn(hw: &HardwareConfig, mode: PipelineMode) -> CompiledModel {
    PimCompiler::new(hw.clone())
        .compile(
            &models::tiny_cnn(),
            &CompileOptions::new(mode).with_fast_ga(5),
        )
        .expect("compiles")
}

fn compile_and_run(hw: HardwareConfig, mode: PipelineMode) -> SimReport {
    let compiled = compile_tiny_cnn(&hw, mode);
    Simulator::new(hw).run(&compiled).expect("simulates")
}

#[test]
fn every_interconnect_variant_simulates() {
    for conn in [
        CoreConnection::Mesh,
        CoreConnection::Bus,
        CoreConnection::GlobalMemoryOnly,
    ] {
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let mut hw = HardwareConfig::small_test();
            hw.connection = conn;
            let r = compile_and_run(hw, mode);
            assert!(r.total_cycles > 0, "{conn:?} {mode}");
        }
    }
}

#[test]
fn multi_chip_targets_simulate_with_cross_chip_traffic() {
    let mut hw = HardwareConfig::small_test();
    hw.chips = 2;
    hw.cores_per_chip = 8;
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let r = compile_and_run(hw.clone(), mode);
        assert!(r.total_cycles > 0, "{mode}");
    }
}

#[test]
fn batch_choice_preserves_total_work() {
    let graph = models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let mut mvm_ops = Vec::new();
    for batch in [1usize, 2, 4] {
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(9)
            .with_batch(batch);
        let compiled = PimCompiler::new(hw.clone()).compile(&graph, &opts).unwrap();
        let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
        mvm_ops.push(r.mvm_ops);
    }
    // Bigger batches may round the last partial batch up, never down.
    assert!(mvm_ops[1] >= mvm_ops[0]);
    assert!(mvm_ops[2] >= mvm_ops[0]);
    // Within one ceil-batch of slack.
    assert!(mvm_ops[2] - mvm_ops[0] <= mvm_ops[0] / 2);
}

#[test]
fn zero_leakage_fraction_zeroes_static_energy() {
    let mut hw = HardwareConfig::small_test();
    hw.leakage_fraction = 0.0;
    let r = compile_and_run(hw, PipelineMode::HighThroughput);
    assert_eq!(r.energy.leakage_pj, 0.0);
    assert!(r.energy.dynamic_pj() > 0.0);
}

#[test]
fn all_leakage_fraction_zeroes_dynamic_mvm_energy() {
    let mut hw = HardwareConfig::small_test();
    hw.leakage_fraction = 1.0;
    let r = compile_and_run(hw, PipelineMode::HighThroughput);
    assert_eq!(r.energy.mvm_pj, 0.0);
    assert!(r.energy.leakage_pj > 0.0);
}

#[test]
fn single_node_model_on_single_core_island() {
    // The smallest possible pipeline: one FC node; plenty of cores idle.
    let graph = models::tiny_mlp();
    let hw = HardwareConfig::small_test();
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let compiled = PimCompiler::new(hw.clone())
            .compile(&graph, &CompileOptions::new(mode).with_fast_ga(1))
            .unwrap();
        let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
        assert!(r.active_cores >= 1);
        assert!(r.active_cores <= hw.total_cores());
    }
}

#[test]
fn deep_chain_streams_in_ll_mode() {
    // A 12-deep equal-work conv chain: LL streaming should finish far
    // sooner than running the layers back to back.
    let graph = models::linear_chain(12);
    let hw = HardwareConfig::small_test();
    let compiled = PimCompiler::new(hw.clone())
        .compile(
            &graph,
            &CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(3),
        )
        .unwrap();
    let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
    // Upper bound: fully serial layer-by-layer execution at one window
    // per T_MVM per layer.
    let serial_bound: u64 = 12 * 256 * hw.mvm_latency;
    assert!(
        r.total_cycles < serial_bound,
        "streaming {} should beat serial bound {serial_bound}",
        r.total_cycles
    );
}

#[test]
fn throughput_and_latency_are_consistent() {
    let r = compile_and_run(HardwareConfig::small_test(), PipelineMode::HighThroughput);
    let expect = 1e9 / r.total_cycles as f64; // 1 GHz clock
    assert!((r.throughput_inf_per_s - expect).abs() < 1.0);
}

#[test]
fn sim_report_serializes() {
    let r = compile_and_run(HardwareConfig::small_test(), PipelineMode::LowLatency);
    let json = serde_json::to_string(&r).unwrap();
    assert!(json.contains("\"total_cycles\""));
}

/// `Simulator::run` takes timing from the model's hardware and energy
/// from its own: two descriptions must be an error in every build, not
/// a debug panic and a silently mixed release report.
#[test]
fn a_model_compiled_for_other_hardware_is_a_structured_error() {
    let hw = HardwareConfig::small_test();
    let other = hw.clone().with_parallelism(hw.parallelism + 1);
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let compiled = compile_tiny_cnn(&hw, mode);
        let err = Simulator::new(other.clone()).run(&compiled).unwrap_err();
        assert!(matches!(err, SimError::HardwareMismatch { .. }), "{err}");
        assert!(Simulator::new(hw.clone()).run(&compiled).is_ok());
    }
}

fn ht_schedule_mut(compiled: &mut CompiledModel) -> &mut HtSchedule {
    match &mut compiled.schedule {
        Schedule::HighThroughput(ht) => ht,
        Schedule::LowLatency(_) => panic!("compiled in HT mode"),
    }
}

fn ll_schedule_mut(compiled: &mut CompiledModel) -> &mut LlSchedule {
    match &mut compiled.schedule {
        Schedule::LowLatency(ll) => ll,
        Schedule::HighThroughput(_) => panic!("compiled in LL mode"),
    }
}

/// The first MVM unit of an LL schedule (tiny_cnn's first conv).
fn first_mvm_unit(compiled: &mut CompiledModel) -> &mut LlUnit {
    let units = &mut ll_schedule_mut(compiled).units;
    let mvm = units.iter_mut().find(|u| u.ags_per_replica > 0);
    mvm.expect("tiny_cnn has a conv")
}

#[test]
fn hostile_schedules_are_rejected_not_indexed() {
    // Artifacts deserialize unvalidated, so every index an engine
    // follows can be out of range; each must come back as a structured
    // error, never a panic. One table for the three engines: the
    // compile each tamper applies to is its second column.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Engine {
        Ht,
        Ll,
        /// The analytic path: HT, `weight_reload` over a budget that
        /// forces several epochs.
        Reload,
    }
    use Engine::{Ht, Ll, Reload};
    type Tamper = fn(&mut CompiledModel);
    let tampers: [(&str, Engine, Tamper); 15] = [
        ("truncated per_core", Ht, |m| {
            ht_schedule_mut(m).per_core.pop();
        }),
        ("truncated spill table", Ht, |m| {
            m.memory.spill_bytes_per_round.pop();
        }),
        ("out-of-range AG instance", Ht, |m| {
            let instances = m.mapping.instances.len();
            ht_schedule_mut(m).programs[0].ag_instances[0] = instances;
        }),
        ("send to a core past the last", Ht, |m| {
            let cores = m.hw.total_cores();
            let p = ht_schedule_mut(m)
                .programs
                .iter_mut()
                .find(|p| !p.sends_per_round.is_empty())
                .expect("tiny_cnn splits a node across cores");
            p.sends_per_round[0].to_core = cores;
        }),
        ("program id past the last", Ht, |m| {
            let ht = ht_schedule_mut(m);
            let foreign = ht.programs.len();
            ht.per_core[0].push(foreign);
        }),
        ("another core's program id", Ht, |m| {
            let ht = ht_schedule_mut(m);
            let foreign = ht.programs.iter().position(|p| p.core != 0).unwrap();
            ht.per_core[0].push(foreign);
        }),
        ("node outside the partitioning", Ht, |m| {
            let nodes = m.partitioning.entries().len();
            ht_schedule_mut(m).programs[0].mvm = nodes;
        }),
        ("owner past the last core", Ll, |m| {
            let cores = m.hw.total_cores();
            first_mvm_unit(m).replicas[0].owner = cores;
        }),
        ("AGs on a core past the last", Ll, |m| {
            let cores = m.hw.total_cores();
            first_mvm_unit(m).replicas[0].ags_per_core[0].0 = cores;
        }),
        ("a core issuing zero AGs", Ll, |m| {
            first_mvm_unit(m).replicas[0].ags_per_core[0].1 = 0;
        }),
        ("provider node past the last", Ll, |m| {
            let foreign = pimcomp_ir::NodeId(m.graph.node_count());
            let units = &mut ll_schedule_mut(m).units;
            let consumer = units.iter_mut().find(|u| !u.providers.is_empty());
            consumer.expect("tiny_cnn chains layers").providers[0].node = foreign;
        }),
        ("unit id past the last", Ll, |m| {
            let ll = ll_schedule_mut(m);
            let (node, foreign) = (ll.units[0].node.index(), ll.units.len());
            ll.units_of_node.get_mut(&node).unwrap().push(foreign);
        }),
        ("MVM index outside the partitioning", Ll, |m| {
            let nodes = m.partitioning.entries().len();
            first_mvm_unit(m).kind = LlUnitKind::Mvm { mvm: nodes };
        }),
        (
            "a replica with more windows than the unit has left",
            Ll,
            |m| {
                first_mvm_unit(m).replicas[0].windows += 1;
            },
        ),
        (
            "AG instance of a node outside the partitioning",
            Reload,
            |m| {
                let nodes = m.partitioning.entries().len();
                m.mapping.instances[0].mvm = nodes;
            },
        ),
    ];
    let hw = HardwareConfig::small_test();
    let compile = |engine| {
        let opts = match engine {
            Ht => CompileOptions::new(PipelineMode::HighThroughput),
            Ll => CompileOptions::new(PipelineMode::LowLatency),
            Reload => {
                CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(Some(32))
            }
        };
        PimCompiler::new(hw.clone())
            .compile(&models::tiny_cnn(), &opts.with_fast_ga(5))
            .expect("compiles")
    };
    let compiled = [compile(Ht), compile(Ll), compile(Reload)];
    let reload = compiled[Reload as usize].reload.as_ref();
    let multi_epoch = reload.is_some_and(|p| !p.is_single_epoch());
    assert!(multi_epoch, "budget 32 must split tiny_cnn into epochs");
    for (what, engine, tamper) in tampers {
        let mut hostile = compiled[engine as usize].clone();
        tamper(&mut hostile);
        let result = Simulator::new(hw.clone()).run(&hostile);
        assert!(
            matches!(result, Err(SimError::InvalidSchedule { .. })),
            "{engine:?}, {what}: {result:?}"
        );
    }
}

#[test]
fn stuck_owner_is_reported_as_a_deadlock_quickly() {
    // An owner expecting one partial more than its senders push can
    // never finish a round: the queue drains and the engine names it.
    let hw = HardwareConfig::small_test();
    let mut compiled = compile_tiny_cnn(&hw, PipelineMode::HighThroughput);
    let ht = ht_schedule_mut(&mut compiled);
    let owner = ht
        .programs
        .iter()
        .position(|p| p.recvs_per_round > 0)
        .expect("tiny_cnn splits a node across cores");
    ht.programs[owner].recvs_per_round += 1;
    let t0 = std::time::Instant::now();
    let result = Simulator::new(hw).run(&compiled);
    let elapsed = t0.elapsed();
    match result {
        Err(SimError::Deadlock { detail }) => assert!(
            detail.starts_with(&format!("program {owner} ")),
            "deadlock should name program {owner}: {detail}"
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
}

#[test]
fn starved_ll_consumer_is_reported_as_a_deadlock_quickly() {
    // A provider whose first replica is told it has no windows never
    // completes window 0, so its prefix stays empty and no consumer
    // threshold is ever met: the queue drains and the engine names the
    // first consumer left waiting.
    let hw = HardwareConfig::small_test();
    let mut compiled = compile_tiny_cnn(&hw, PipelineMode::LowLatency);
    let Schedule::LowLatency(ll) = &mut compiled.schedule else {
        panic!("compiled in LL mode");
    };
    let provider = ll.units[0].node;
    ll.units[0].replicas[0].windows = 0;
    let consumer = ll
        .units
        .iter()
        .position(|u| u.providers.iter().any(|p| p.node == provider))
        .expect("tiny_cnn's first layer feeds another");
    let t0 = std::time::Instant::now();
    let result = Simulator::new(hw).run(&compiled);
    let elapsed = t0.elapsed();
    match result {
        Err(SimError::Deadlock { detail }) => assert!(
            detail.starts_with(&format!("unit {consumer} ")),
            "deadlock should name unit {consumer}: {detail}"
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
}
