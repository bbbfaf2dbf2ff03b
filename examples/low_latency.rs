//! Low-latency scenario: compare PIMCOMP's GA-optimized compilation
//! against the PUMA-like baseline for single-inference latency on a
//! residual network — the workload class where the paper reports its
//! largest gains (Fig. 8, LL mode).
//!
//! ```sh
//! cargo run --release --example low_latency
//! ```

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;
use pimcomp_core::PumaCompiler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = pimcomp::ir::models::two_branch();
    let hw = HardwareConfig::small_test();
    let opts = CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(7);

    // Stage the PIMCOMP compilation so the GA trace is inspectable.
    let optimized = CompileSession::new(hw.clone(), &graph, opts.clone())?
        .partition()?
        .optimize()?;
    let ga = optimized.ga_stats().expect("GA path");
    println!(
        "GA converged over {} generations ({} fitness evaluations)",
        ga.history.len(),
        ga.evaluations
    );
    let ours = optimized.schedule()?.finish();
    let base = PumaCompiler::new(hw.clone()).compile(&graph, &opts)?;

    let sim = Simulator::new(hw);
    let r_ours = sim.run(&ours)?;
    let r_base = sim.run(&base)?;

    println!("model: {} (residual two-branch join)", graph.name());
    println!(
        "\n{:<12} {:>14} {:>12} {:>14}",
        "compiler", "latency (cyc)", "replicas", "active cores"
    );
    for (label, r, c) in [("PUMA-like", &r_base, &base), ("PIMCOMP", &r_ours, &ours)] {
        println!(
            "{:<12} {:>14} {:>12} {:>14}",
            label,
            r.total_cycles,
            format!("{:?}", c.mapping.replication.counts()),
            r.active_cores
        );
    }
    let speedup = r_base.total_cycles as f64 / r_ours.total_cycles as f64;
    println!("\nPIMCOMP speedup over the PUMA-like baseline: {speedup:.2}x");

    // The LL scheduler's receptive-window triggers are the key: show
    // the waiting percentage of each conv layer's edges.
    println!("\nwaiting percentages (LL trigger analysis, paper SIV-D.2):");
    for node in ours.graph.nodes() {
        for &p in ours.graph.predecessors(node.id) {
            if let Some(edge) = ours.dep.edge(node.id, p) {
                if edge.waiting > 0.0 {
                    println!(
                        "  {} <- {}: W = {:.3}",
                        node.name,
                        ours.graph.node(p).name,
                        edge.waiting
                    );
                }
            }
        }
    }
    Ok(())
}
