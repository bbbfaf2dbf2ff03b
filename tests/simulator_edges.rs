//! Simulator edge cases: interconnect variants, extreme configurations
//! and energy-model corners that the main-line tests do not reach.

use pimcomp::prelude::*;
use pimcomp_arch::{CoreConnection, PipelineMode};
use pimcomp_core::{CompileOptions, HtSchedule, Schedule};
use pimcomp_ir::models;
use pimcomp_sim::SimError;
use serde::Value;

fn compile_tiny_cnn(hw: &HardwareConfig, mode: PipelineMode) -> CompiledModel {
    CompileSession::new(
        hw.clone(),
        &models::tiny_cnn(),
        CompileOptions::new(mode).with_fast_ga(5),
    )
    .and_then(CompileSession::run)
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
        let compiled = CompileSession::new(hw.clone(), &graph, opts.clone())
            .and_then(CompileSession::run)
            .unwrap();
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
        let compiled = CompileSession::new(
            hw.clone(),
            &graph,
            CompileOptions::new(mode).with_fast_ga(1),
        )
        .and_then(CompileSession::run)
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
    let compiled = CompileSession::new(
        hw.clone(),
        &graph,
        CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(3),
    )
    .and_then(CompileSession::run)
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

/// The value of `key` in a JSON object.
fn field<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(fields) = value else {
        panic!("expected a JSON object");
    };
    let found = fields.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no field `{key}`")).1
}

/// Element `index` of a JSON array.
fn item(value: &mut Value, index: usize) -> &mut Value {
    let Value::Seq(items) = value else {
        panic!("expected a JSON array");
    };
    &mut items[index]
}

/// The artifact's placement: one JSON array of cores per MVM node.
fn placement(artifact: &mut Value) -> &mut Vec<Value> {
    let Value::Seq(lists) = field(artifact, "placement") else {
        panic!("the placement is an array");
    };
    lists
}

/// The core list of the artifact's MVM node `node`.
fn node_cores(artifact: &mut Value, node: usize) -> &mut Vec<Value> {
    let Value::Seq(cores) = &mut placement(artifact)[node] else {
        panic!("a node's placement is an array");
    };
    cores
}

#[test]
fn hostile_schedules_are_rejected_not_indexed() {
    // An artifact stores decisions and derives its schedule again on
    // load, so no hostile schedule reaches an engine: each edit of the
    // artifact JSON below must fail `from_json` with a structured
    // `ArtifactError::Invalid` carrying the detail in its third column,
    // never a panic. The compile each edit applies to is its second
    // column. tiny_cnn's four MVM nodes hold 1, 3, 32 and 2 AGs per
    // replica on `small_test`.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Compile {
        Ht,
        Ll,
        /// HT, `weight_reload` over a budget that forces several epochs.
        Reload,
    }
    use Compile::{Ht, Ll, Reload};
    type Tamper = fn(&mut Value);
    let tampers: [(&str, Compile, &str, Tamper); 13] = [
        (
            "one node list too many",
            Ht,
            "the placement lists 5 nodes; the partitioning has 4",
            |v| placement(v).push(Value::Seq(vec![Value::Int(0)])),
        ),
        (
            "one node list too few",
            Ht,
            "the placement lists 3 nodes; the partitioning has 4",
            |v| {
                placement(v).pop();
            },
        ),
        (
            "an empty node list",
            Ht,
            "node 0 places 0 AGs, not one or more whole replicas of 1",
            |v| node_cores(v, 0).clear(),
        ),
        ("a core past the last", Ll, "on core 16 of 16", |v| {
            node_cores(v, 0)[0] = Value::Int(16)
        }),
        (
            "a node list one core short",
            Ll,
            "not one or more whole replicas of 3",
            |v| {
                node_cores(v, 1).pop();
            },
        ),
        (
            "a dangling graph predecessor",
            Ht,
            "unknown node id 999",
            |v| {
                let node = item(field(field(v, "graph"), "nodes"), 1);
                *field(node, "inputs") = Value::Seq(vec![Value::Int(999)]);
            },
        ),
        (
            "invalid hardware",
            Ht,
            "`parallelism`: must be positive",
            |v| {
                *field(field(v, "hw"), "parallelism") = Value::Int(0);
            },
        ),
        ("batch 0", Ht, "`batch` must be at least 1", |v| {
            *field(v, "batch") = Value::Int(0)
        }),
        // A trillion MVMs per array group and round: the HT engine ran
        // for hours.
        (
            "a batch past the bound",
            Ht,
            "`batch` must be at most 65536",
            |v| *field(v, "batch") = Value::Int(1_000_000_000_000),
        ),
        // 3.6e8 cores: per-core tables of gigabytes aborted the process.
        (
            "a chip count past the bound",
            Ht,
            "at most 65536 are supported",
            |v| {
                *field(field(v, "hw"), "chips") = Value::Int(10_000_000);
            },
        ),
        (
            "LL with batch 2",
            Ll,
            "`batch` only applies to high-throughput mode",
            |v| *field(v, "batch") = Value::Int(2),
        ),
        (
            "reload budget 0",
            Reload,
            "`reload_budget` must be at least 1 crossbar",
            |v| {
                *field(v, "reload_budget") = Value::Int(0);
            },
        ),
        (
            "a first core the epoch packer did not place",
            Reload,
            "are not the epoch packer's",
            |v| {
                let core = &mut node_cores(v, 0)[0];
                let moved = if *core == Value::Int(0) { 1 } else { 0 };
                *core = Value::Int(moved);
            },
        ),
    ];
    let hw = HardwareConfig::small_test();
    let compile = |kind| {
        let opts = match kind {
            Ht => CompileOptions::new(PipelineMode::HighThroughput),
            Ll => CompileOptions::new(PipelineMode::LowLatency),
            Reload => {
                CompileOptions::new(PipelineMode::HighThroughput).with_weight_reload(Some(32))
            }
        };
        let session = CompileSession::new(hw.clone(), &models::tiny_cnn(), opts.with_fast_ga(5));
        let compiled = session.and_then(CompileSession::run).expect("compiles");
        CompiledArtifact::new(compiled).to_json().unwrap()
    };
    let artifacts = [compile(Ht), compile(Ll), compile(Reload)];
    let reload = CompiledArtifact::from_json(&artifacts[Reload as usize]).unwrap();
    let multi_epoch = reload
        .model()
        .reload
        .as_ref()
        .is_some_and(|p| !p.is_single_epoch());
    assert!(multi_epoch, "budget 32 must split tiny_cnn into epochs");
    for (what, kind, detail, tamper) in tampers {
        let mut value = serde_json::parse_value(&artifacts[kind as usize]).unwrap();
        tamper(&mut value);
        let result = CompiledArtifact::from_json(&serde_json::to_string(&value).unwrap());
        assert!(
            matches!(&result, Err(ArtifactError::Invalid(d)) if d.contains(detail)),
            "{kind:?}, {what}: {result:?}"
        );
    }
}

/// Any positive rate validates, so a rate near zero makes a duration
/// the clock cannot hold. Each engine must say so — release builds used
/// to wrap the time and print a plausible report, debug builds panicked.
#[test]
fn near_zero_rates_overflow_into_an_error_not_a_wrapped_clock() {
    let hw = HardwareConfig::small_test();
    let rates: [(&str, PipelineMode, &str); 5] = [
        (
            "global_memory_bw",
            PipelineMode::HighThroughput,
            "a global-memory transfer",
        ),
        (
            "noc_link_bw",
            PipelineMode::HighThroughput,
            "a NoC transfer",
        ),
        (
            "vfu_lane_throughput",
            PipelineMode::HighThroughput,
            "a VFU pass",
        ),
        ("noc_link_bw", PipelineMode::LowLatency, "a NoC transfer"),
        (
            "vfu_lane_throughput",
            PipelineMode::LowLatency,
            "a VFU pass",
        ),
    ];
    for (rate, mode, what) in rates {
        let json = CompiledArtifact::new(compile_tiny_cnn(&hw, mode))
            .to_json()
            .unwrap();
        let mut value = serde_json::parse_value(&json).unwrap();
        *field(field(&mut value, "hw"), rate) = Value::Float(1e-300);
        let artifact = CompiledArtifact::from_json(&serde_json::to_string(&value).unwrap())
            .unwrap_or_else(|e| panic!("{mode} {rate}: a positive rate validates: {e}"));
        let result = Simulator::new(artifact.model().hw.clone()).run_artifact(&artifact);
        match result {
            Err(SimError::Diverged { detail }) => assert!(
                detail.starts_with(&format!("the simulated clock overflows u64 at {what}: ")),
                "{mode} {rate}: {detail}"
            ),
            other => panic!("{mode} {rate}: expected an overflow, got {other:?}"),
        }
    }
}

/// Any positive latency validates, so one near `u64::MAX` makes an
/// operation cycle (or a reload write) the clock cannot hold. Loading
/// re-derives the estimate and the reload plan, which must saturate —
/// debug builds used to panic on the multiply and release builds
/// wrapped it into a small number — and simulating must say the clock
/// overflows.
#[test]
fn a_huge_latency_saturates_the_estimate_and_diverges_the_clock() {
    let hw = HardwareConfig::small_test();
    let reload = CompileSession::new(
        hw.clone(),
        &models::tiny_cnn(),
        CompileOptions::new(PipelineMode::HighThroughput)
            .with_weight_reload(Some(32))
            .with_fast_ga(5),
    )
    .and_then(CompileSession::run)
    .expect("compiles");
    let artifacts = [
        ("HT", compile_tiny_cnn(&hw, PipelineMode::HighThroughput)),
        ("LL", compile_tiny_cnn(&hw, PipelineMode::LowLatency)),
        ("reload", reload),
    ]
    .map(|(kind, model)| (kind, CompiledArtifact::new(model).to_json().unwrap()));
    for (kind, json) in &artifacts {
        for knob in ["mvm_latency", "xbar_write_row_cycles"] {
            for latency in [1u64 << 62, u64::MAX] {
                let at = format!("{kind} {knob} {latency}");
                let mut value = serde_json::parse_value(json).unwrap();
                *field(field(&mut value, "hw"), knob) = Value::Int(latency.into());
                let artifact = CompiledArtifact::from_json(&serde_json::to_string(&value).unwrap())
                    .unwrap_or_else(|e| panic!("{at}: a positive latency validates: {e}"));
                let estimate = artifact.model().report.estimated_fitness;
                if *kind != "LL" && knob == "mvm_latency" {
                    assert!(estimate >= u64::MAX as f64, "{at}: {estimate}");
                }
                let result = Simulator::new(artifact.model().hw.clone()).run_artifact(&artifact);
                match result {
                    Err(SimError::Diverged { detail }) => assert!(
                        detail.starts_with("the simulated clock overflows u64 at "),
                        "{at}: {detail}"
                    ),
                    // Only a multi-epoch plan rewrites weights.
                    Ok(_) if knob == "xbar_write_row_cycles" && *kind != "reload" => {}
                    other => panic!("{at}: expected an overflow, got {other:?}"),
                }
            }
        }
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
