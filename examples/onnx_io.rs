//! ONNX interchange: export a zoo model to `.onnx` bytes, read it back
//! with the from-scratch protobuf codec, and compile the imported graph
//! — the paper's "load DNN model in ONNX format" front-end path.
//!
//! ```sh
//! cargo run --release --example onnx_io
//! ```

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_onnx::{export_graph, import_bytes};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Export: the model's structure (shapes + topology) serializes to
    // standard ONNX; weight initializers carry dims with empty payloads
    // because compilation never reads weight values.
    let original = pimcomp::ir::models::tiny_cnn();
    let model = export_graph(&original);
    let bytes = model.encode();
    println!(
        "exported {}: {} bytes of ONNX ({} nodes, opset {})",
        original.name(),
        bytes.len(),
        model.graph.as_ref().map_or(0, |g| g.node.len()),
        pimcomp_onnx::EXPORT_OPSET
    );

    let path = std::env::temp_dir().join("pimcomp_quickstart.onnx");
    std::fs::write(&path, &bytes)?;
    println!("wrote {}", path.display());

    // Import: decode the wire format and rebuild the IR.
    let loaded = import_bytes(&std::fs::read(&path)?)?;
    println!(
        "imported back: {} nodes, {} MVM nodes",
        loaded.node_count(),
        loaded.mvm_nodes().len()
    );
    assert_eq!(loaded.node_count(), original.node_count());

    // The imported graph compiles exactly like the original. Persist
    // the result as a versioned artifact and serve it from disk — the
    // compile-once/serve-many flow.
    let hw = HardwareConfig::small_test();
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_fast_ga(5);
    let compiled = CompileSession::new(hw.clone(), &loaded, opts)?.run()?;

    let artifact_path = std::env::temp_dir().join("pimcomp_quickstart.pimc.json");
    CompiledArtifact::new(compiled).save(&artifact_path)?;
    println!("saved compiled artifact {}", artifact_path.display());

    let artifact = CompiledArtifact::load(&artifact_path)?;
    let report = Simulator::new(hw).run_artifact(&artifact)?;
    println!(
        "reloaded + simulated the artifact: {} cycles/inference",
        report.total_cycles
    );
    Ok(())
}
