//! Integration: the ONNX path produces compilations identical to the
//! native-IR path.

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::CompileOptions;
use pimcomp_ir::models;
use pimcomp_onnx::{export_graph, import_bytes};

#[test]
fn onnx_round_trip_compiles_identically() {
    let hw = HardwareConfig::small_test();
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(21);

    let native = models::tiny_cnn();
    let imported = import_bytes(&export_graph(&native).encode()).unwrap();

    let a = CompileSession::new(hw.clone(), &native, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();
    let b = CompileSession::new(hw.clone(), &imported, opts.clone())
        .and_then(CompileSession::run)
        .unwrap();

    // Same partitioning structure...
    assert_eq!(a.partitioning.len(), b.partitioning.len());
    for (x, y) in a
        .partitioning
        .entries()
        .iter()
        .zip(b.partitioning.entries())
    {
        assert_eq!(x.weight_height, y.weight_height);
        assert_eq!(x.weight_width, y.weight_width);
        assert_eq!(x.windows, y.windows);
    }
    // ...same GA decisions (the seed drives everything downstream)...
    assert_eq!(a.mapping.replication, b.mapping.replication);
    // ...and identical simulated performance.
    let sim = Simulator::new(hw);
    assert_eq!(
        sim.run(&a).unwrap().total_cycles,
        sim.run(&b).unwrap().total_cycles
    );
}

#[test]
fn all_zoo_models_survive_the_onnx_round_trip() {
    for graph in [
        models::tiny_cnn(),
        models::tiny_mlp(),
        models::two_branch(),
        models::vgg16(),
        models::resnet18(),
        models::googlenet(),
        models::squeezenet(),
        models::inception_v3(),
    ] {
        let bytes = export_graph(&graph).encode();
        let back = import_bytes(&bytes).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        assert_eq!(back.node_count(), graph.node_count(), "{}", graph.name());
        let a = pimcomp_ir::GraphStats::of(&graph);
        let b = pimcomp_ir::GraphStats::of(&back);
        assert_eq!(a.params, b.params, "{}", graph.name());
        assert_eq!(a.macs, b.macs, "{}", graph.name());
    }
}

#[test]
fn onnx_files_are_reasonably_small_without_weights() {
    // Structural export carries dims, not payloads: even inception_v3
    // stays far below a megabyte.
    let bytes = export_graph(&models::inception_v3()).encode();
    assert!(
        bytes.len() < 256 * 1024,
        "structural ONNX should be compact, got {} bytes",
        bytes.len()
    );
}
