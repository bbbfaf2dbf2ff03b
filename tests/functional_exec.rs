//! Differential functional tests: every compiled layout must compute
//! the same tensors as the reference interpreter.
//!
//! For each zoo model × pipeline mode × seed, the graph is compiled
//! and executed twice — once with plain f32 kernels
//! ([`pimcomp_exec::ReferenceBackend`]) and once through the compiled
//! per-crossbar layout ([`pimcomp_exec::MappedBackend`]) — and the
//! outputs are compared. The layout only changes *summation order*
//! (row slices per Array Group, windows per replica), so agreement is
//! within f32 roundoff; a wrong row range, column offset, window split
//! or reload epoch shows up as a large error immediately.
//!
//! Heavy models are `#[ignore]`d in debug builds and run in the
//! release test job (`cargo test --release -- --include-ignored`).

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, CompileSession, CompiledModel, GaParams, Partitioning};
use pimcomp_exec::{mapped_outputs, reference_outputs, rmse, verify_model, ExecError, Tensor};
use pimcomp_ir::Graph;

/// Summation-order tolerance: the mapped layout reassociates f32 sums.
const TOL: f64 = 1e-4;

fn compile(
    graph: &Graph,
    hw: HardwareConfig,
    mode: PipelineMode,
    seed: u64,
    reload_budget: Option<Option<usize>>,
    seq: Option<usize>,
) -> CompiledModel {
    let mut opts = CompileOptions::new(mode).with_ga(GaParams::fast(seed));
    if let Some(budget) = reload_budget {
        opts = opts.with_weight_reload(budget);
    }
    if let Some(s) = seq {
        opts = opts.with_seq_len(s);
    }
    CompileSession::new(hw, graph, opts)
        .expect("session opens")
        .run()
        .expect("model compiles")
}

/// Sizes a PUMA-style target with 2x headroom, like the CLI default.
fn sized_puma(graph: &Graph) -> HardwareConfig {
    let base = HardwareConfig::puma();
    let normalized = pimcomp_ir::transform::normalize(graph).unwrap();
    let p = Partitioning::new(&normalized, &base).unwrap();
    let per_chip = base.cores_per_chip * base.crossbars_per_core;
    let chips = (2 * p.min_crossbars()).div_ceil(per_chip).max(1);
    HardwareConfig::puma_with_chips(chips)
}

fn flat(outputs: &[(String, Tensor)]) -> Vec<f32> {
    outputs.iter().flat_map(|(_, t)| t.data.clone()).collect()
}

/// Compares a compiled model's mapped execution against a
/// pre-computed reference, so one reference run serves all modes of a
/// (model, seed) pair.
fn check_against(model: &CompiledModel, seed: u64, reference: &[(String, Tensor)], what: &str) {
    let mapped = mapped_outputs(model, seed, None)
        .unwrap_or_else(|e| panic!("{what}: mapped execution failed: {e}"));
    assert_eq!(
        mapped.len(),
        reference.len(),
        "{what}: output count mismatch"
    );
    for ((rn, rt), (mn, mt)) in reference.iter().zip(&mapped) {
        assert_eq!(rn, mn, "{what}: output order mismatch");
        assert_eq!(rt.dims, mt.dims, "{what}: output dims mismatch for `{rn}`");
    }
    let err = rmse(&flat(&mapped), &flat(reference));
    assert!(
        err <= TOL,
        "{what}: mapped output diverges from reference (rmse {err:.3e} > {TOL:.0e})"
    );
}

/// The full differential matrix for one model: {HT, LL, weight-reload}
/// × seeds {1, 7}, with one reference run per seed shared across all
/// three modes. `reload_hw`/`reload_budget` pick a target where the
/// reload path is actually exercised.
fn differential_matrix(
    graph: &Graph,
    hw: &HardwareConfig,
    reload_hw: &HardwareConfig,
    reload_budget: Option<usize>,
    seq: Option<usize>,
) {
    for seed in [1u64, 7] {
        // One reference inference per (model, seed), shared across all
        // modes: compilation normalizes the graph identically
        // regardless of mode or target, so the HT compile's graph is
        // the reference graph (check_against re-verifies names/dims).
        let mut reference: Option<Vec<(String, Tensor)>> = None;
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let model = compile(graph, hw.clone(), mode, seed, None, seq);
            let reference = reference.get_or_insert_with(|| {
                reference_outputs(&model.graph, seed).expect("reference runs")
            });
            check_against(
                &model,
                seed,
                reference,
                &format!("{} {mode:?} seed {seed}", graph.name()),
            );
        }
        let reference = reference.expect("reference computed in mode loop");
        let model = compile(
            graph,
            reload_hw.clone(),
            PipelineMode::HighThroughput,
            seed,
            Some(reload_budget),
            seq,
        );
        assert!(
            model.reload.is_some(),
            "{}: reload compile did not record a plan",
            graph.name()
        );
        check_against(
            &model,
            seed,
            &reference,
            &format!("{} reload seed {seed}", graph.name()),
        );
    }
}

/// The tightest feasible reload budget — the widest single Array
/// Group, so the epoch packer splits the model as finely as possible.
fn min_ag_budget(graph: &Graph, hw: &HardwareConfig) -> usize {
    let normalized = pimcomp_ir::transform::normalize(graph).unwrap();
    let p = Partitioning::new(&normalized, hw).unwrap();
    p.entries()
        .iter()
        .map(|e| e.crossbars_per_ag)
        .max()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Small models: always run (fast even in debug).
// ---------------------------------------------------------------------------

#[test]
fn tiny_cnn_differential_all_modes() {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    // Squeeze the reload budget to the widest single AG so the epoch
    // packer genuinely splits the model into multiple epochs.
    let budget = min_ag_budget(&graph, &hw);
    differential_matrix(&graph, &hw, &hw, Some(budget), None);
}

#[test]
fn tiny_mlp_differential_all_modes() {
    let graph = pimcomp_ir::models::tiny_mlp();
    let hw = HardwareConfig::small_test();
    let budget = min_ag_budget(&graph, &hw);
    differential_matrix(&graph, &hw, &hw, Some(budget), None);
}

#[test]
fn two_branch_differential_all_modes() {
    let graph = pimcomp_ir::models::two_branch();
    let hw = HardwareConfig::small_test();
    let budget = min_ag_budget(&graph, &hw);
    differential_matrix(&graph, &hw, &hw, Some(budget), None);
}

#[test]
fn tiny_bert_differential_all_modes() {
    let graph = pimcomp_ir::models::tiny_bert();
    let hw = HardwareConfig::puma_with_chips(1);
    differential_matrix(&graph, &hw, &hw, None, Some(32));
}

/// Unquantized verification where the layout preserves summation order
/// exactly: every weight matrix here fits one Array Group on
/// small_test hardware (single row slice, single column group,
/// ascending-index dot), so mapped == reference bit for bit.
#[test]
fn single_slice_layout_is_bitwise_exact() {
    let mut b = pimcomp_ir::GraphBuilder::new("slim_mlp");
    let x = b.input_flat("input", 48);
    let fc1 = b.linear("fc1", x, 16).unwrap();
    let r = b.relu("relu1", fc1).unwrap();
    let _fc2 = b.linear("fc2", r, 8).unwrap();
    let graph = b.finish().unwrap();
    let hw = HardwareConfig::small_test();
    let normalized = pimcomp_ir::transform::normalize(&graph).unwrap();
    let p = Partitioning::new(&normalized, &hw).unwrap();
    assert!(
        p.entries()
            .iter()
            .all(|e| e.ags_per_replica == 1 && e.col_groups == 1),
        "precondition: slim_mlp must fit single-AG, single-col-group"
    );
    let model = compile(&graph, hw, PipelineMode::HighThroughput, 7, None, None);
    let reference = reference_outputs(&model.graph, 7).unwrap();
    let mapped = mapped_outputs(&model, 7, None).unwrap();
    for ((_, rt), (_, mt)) in reference.iter().zip(&mapped) {
        let rb: Vec<u32> = rt.data.iter().map(|v| v.to_bits()).collect();
        let mb: Vec<u32> = mt.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(rb, mb, "single-slice layout must be bitwise exact");
    }
}

/// Mapped outputs are a function of the compiled artifact, which is
/// thread-count invariant — so executing a 4-thread compile gives
/// bit-identical tensors to the serial compile.
#[test]
fn mapped_outputs_are_thread_count_invariant() {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let serial = compile(
        &graph,
        hw.clone(),
        PipelineMode::HighThroughput,
        7,
        None,
        None,
    );
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(GaParams::fast(7))
        .with_parallelism(std::num::NonZeroUsize::new(4));
    let parallel = CompileSession::new(hw, &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    let a = mapped_outputs(&serial, 7, None).unwrap();
    let b = mapped_outputs(&parallel, 7, None).unwrap();
    let ab: Vec<u32> = flat(&a).iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = flat(&b).iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "thread count leaked into executed numerics");
}

#[test]
fn quantized_verification_reports_finite_metrics() {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let model = compile(
        &graph,
        hw.clone(),
        PipelineMode::HighThroughput,
        1,
        None,
        None,
    );
    let exact = verify_model(&model, 1, None).unwrap();
    assert!(exact.output_rmse <= TOL);
    assert!(exact.top1_match);
    let q = pimcomp_arch::QuantConfig::for_hardware(&hw, 10).unwrap();
    let quant = verify_model(&model, 1, Some(q)).unwrap();
    assert!(quant.output_rmse.is_finite());
    assert_eq!(quant.output_len, exact.output_len);
    // Deterministic: the same quantized run reproduces bit-identically.
    let again = verify_model(&model, 1, Some(q)).unwrap();
    assert_eq!(quant.output_rmse.to_bits(), again.output_rmse.to_bits());
    assert_eq!(quant.top1_match, again.top1_match);
}

// ---------------------------------------------------------------------------
// Hostile artifacts: tampered or truncated compiled models must fail
// with structured errors, never panic.
// ---------------------------------------------------------------------------

#[test]
fn truncated_mapping_instances_yield_structured_error() {
    let graph = pimcomp_ir::models::tiny_mlp();
    let mut model = compile(
        &graph,
        HardwareConfig::small_test(),
        PipelineMode::HighThroughput,
        1,
        None,
        None,
    );
    model.mapping.instances.pop();
    match mapped_outputs(&model, 1, None) {
        Err(ExecError::MappingIncomplete { .. }) => {}
        other => panic!("expected MappingIncomplete, got {other:?}"),
    }
}

#[test]
fn out_of_range_core_yields_structured_error() {
    let graph = pimcomp_ir::models::tiny_mlp();
    let mut model = compile(
        &graph,
        HardwareConfig::small_test(),
        PipelineMode::HighThroughput,
        1,
        None,
        None,
    );
    model.mapping.instances[0].core = 1_000_000;
    match mapped_outputs(&model, 1, None) {
        Err(ExecError::CoreOutOfRange {
            core: 1_000_000, ..
        }) => {}
        other => panic!("expected CoreOutOfRange, got {other:?}"),
    }
}

#[test]
fn duplicate_ag_instance_yields_structured_error() {
    let graph = pimcomp_ir::models::tiny_mlp();
    let mut model = compile(
        &graph,
        HardwareConfig::small_test(),
        PipelineMode::HighThroughput,
        1,
        None,
        None,
    );
    let dup = model.mapping.instances[0];
    model.mapping.instances.push(dup);
    match mapped_outputs(&model, 1, None) {
        Err(ExecError::MappingIncomplete { .. }) => {}
        other => panic!("expected MappingIncomplete, got {other:?}"),
    }
}

#[test]
fn truncated_owner_table_yields_structured_error() {
    let graph = pimcomp_ir::models::tiny_mlp();
    let mut model = compile(
        &graph,
        HardwareConfig::small_test(),
        PipelineMode::HighThroughput,
        1,
        None,
        None,
    );
    model.mapping.owners.pop();
    match mapped_outputs(&model, 1, None) {
        Err(ExecError::MappingIncomplete { .. }) => {}
        other => panic!("expected MappingIncomplete, got {other:?}"),
    }
}

#[test]
fn tampered_reload_budget_yields_structured_error() {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let budget = min_ag_budget(&graph, &hw);
    let mut model = compile(
        &graph,
        hw,
        PipelineMode::HighThroughput,
        1,
        Some(Some(budget)),
        None,
    );
    let reload = model.reload.as_mut().expect("reload plan present");
    assert!(reload.epoch_count() > 1, "precondition: multi-epoch plan");
    // A different budget reconstructs a different epoch plan.
    reload.budget = reload.budget.saturating_mul(4096);
    match mapped_outputs(&model, 1, None) {
        Err(ExecError::ReloadPlanMismatch { .. }) => {}
        other => panic!("expected ReloadPlanMismatch, got {other:?}"),
    }
}

#[test]
fn foreign_node_id_in_loaded_graph_yields_structured_error() {
    // Graph deserialization rebuilds derived indices without
    // re-validating input references, so an artifact-loaded graph can
    // carry a foreign node id — the executor must refuse it.
    let graph = pimcomp_ir::models::tiny_mlp();
    let json = serde_json::to_string(&graph).unwrap();
    let tampered = json.replacen("\"inputs\":[0]", "\"inputs\":[999]", 1);
    assert_ne!(json, tampered, "fixture assumption: node with inputs [0]");
    let hostile: Graph = serde_json::from_str(&tampered).unwrap();
    match reference_outputs(&hostile, 1) {
        Err(ExecError::NodeOutOfRange { id: 999, .. }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
}

#[test]
fn overflowing_element_counts_in_loaded_graph_yield_structured_error() {
    // Extents are artifact-controlled: a tensor or im2col element count
    // that multiplies past usize::MAX must be refused, never wrapped
    // into a small allocation (release) or a panic (debug).
    let input = |dims: &str| {
        format!(
            r#"{{"id":0,"name":"input","op":{{"Input":{{"shape":{dims}}}}},"inputs":[],"output_shape":{dims}}}"#
        )
    };
    // 2^32 cubed: the input tensor itself overflows.
    let huge_input = format!(
        r#"{{"name":"hostile","nodes":[{}]}}"#,
        input("[4294967296,4294967296,4294967296]")
    );
    // Every tensor is tiny, but padding admits a 2^32 × 2^32 kernel, so
    // the contraction length (and with it the im2col) overflows.
    let huge_kernel = format!(
        r#"{{"name":"hostile","nodes":[{},{{"id":1,"name":"conv","op":{{"Conv2d":{{"in_channels":1,"out_channels":1,"kernel":[4294967296,4294967296],"stride":[1,1],"padding":[2147483648,2147483648],"groups":1,"bias":false}}}},"inputs":[0],"output_shape":[1,2,2]}}]}}"#,
        input("[1,1,1]")
    );
    for (json, node) in [(huge_input, "input"), (huge_kernel, "conv")] {
        let hostile: Graph = serde_json::from_str(&json).expect("hostile graph parses");
        match reference_outputs(&hostile, 1) {
            Err(ExecError::ShapeMismatch { node: n, detail }) => {
                assert_eq!(n, node);
                assert!(detail.contains("overflows"), "{detail}");
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }
}

#[test]
fn symbolic_graph_yields_structured_error() {
    let graph = pimcomp_ir::models::tiny_bert();
    match reference_outputs(&graph, 1) {
        Err(ExecError::SymbolicShape { .. }) => {}
        other => panic!("expected SymbolicShape, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Heavy zoo models: release-only (each runs a full f32 inference per
// seed plus three compiles).
// ---------------------------------------------------------------------------

fn heavy_zoo_matrix(graph: Graph) {
    let hw = sized_puma(&graph);
    let reload_hw = HardwareConfig::puma_with_chips(1);
    differential_matrix(&graph, &hw, &reload_hw, None, None);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: run in release")]
fn vgg16_differential_all_modes() {
    heavy_zoo_matrix(pimcomp_ir::models::vgg16());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: run in release")]
fn resnet18_differential_all_modes() {
    heavy_zoo_matrix(pimcomp_ir::models::resnet18());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: run in release")]
fn googlenet_differential_all_modes() {
    heavy_zoo_matrix(pimcomp_ir::models::googlenet());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: run in release")]
fn inception_v3_differential_all_modes() {
    heavy_zoo_matrix(pimcomp_ir::models::inception_v3());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavy: run in release")]
fn squeezenet_differential_all_modes() {
    heavy_zoo_matrix(pimcomp_ir::models::squeezenet());
}
