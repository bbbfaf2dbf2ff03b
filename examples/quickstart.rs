//! Quickstart: compile a small CNN for a crossbar-PIM accelerator and
//! simulate it in both pipeline modes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pimcomp::prelude::*;
use pimcomp_arch::PipelineMode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A model. Real flows load ONNX (see the `onnx_io` example);
    //    the zoo ships the paper's five benchmarks plus small test nets.
    let graph = pimcomp::ir::models::tiny_cnn();
    println!("model: {} ({} nodes)", graph.name(), graph.node_count());
    let stats = pimcomp::ir::GraphStats::of(&graph);
    println!(
        "  {} MVM nodes, {:.1}M MACs, {:.1}k parameters",
        stats.mvm_nodes,
        stats.macs as f64 / 1e6,
        stats.params as f64 / 1e3
    );

    // 2. A hardware target: the scaled-down test accelerator (16 cores
    //    of sixteen 64x64 crossbars). `HardwareConfig::puma()` is the
    //    paper's full-size target.
    let hw = HardwareConfig::small_test();
    println!(
        "target: {} cores x {} crossbars ({}x{} cells)",
        hw.total_cores(),
        hw.crossbars_per_core,
        hw.crossbar_rows,
        hw.crossbar_cols
    );

    // 3. Compile and simulate in both modes, stage by stage: a
    //    CompileSession walks the paper's pipeline through typed
    //    artifacts (Partitioned -> Optimized -> Scheduled), each one
    //    inspectable before committing to the next stage.
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let opts = CompileOptions::new(mode).with_fast_ga(42);
        let partitioned = CompileSession::new(hw.clone(), &graph, opts)?.partition()?;
        println!(
            "\n== {mode} mode ==\n  partitioned into {} MVM nodes ({} crossbars minimum)",
            partitioned.partitioning().len(),
            partitioned.partitioning().min_crossbars()
        );
        let optimized = partitioned.optimize()?;
        let ga = optimized.ga_stats().expect("GA path");
        println!(
            "  GA: {:.0} -> {:.0} estimated cycles",
            ga.initial_fitness, ga.final_fitness
        );
        let compiled = optimized.schedule()?.finish();
        let report = Simulator::new(hw.clone()).run(&compiled)?;

        println!(
            "  replication plan: {:?}",
            compiled.mapping.replication.counts()
        );
        println!(
            "  {} active cores, {} crossbars holding weights",
            compiled.mapping.active_cores(),
            compiled.crossbars_used()
        );
        match mode {
            PipelineMode::HighThroughput => println!(
                "  pipeline interval {} cycles -> {:.0} inferences/s",
                report.total_cycles, report.throughput_inf_per_s
            ),
            PipelineMode::LowLatency => println!(
                "  single-inference latency {} cycles ({:.1} us)",
                report.total_cycles, report.latency_us
            ),
        }
        println!(
            "  energy: {:.2} uJ dynamic + {:.2} uJ leakage",
            report.energy.dynamic_pj() / 1e6,
            report.energy.leakage_pj / 1e6
        );
        println!(
            "  local memory: avg {:.1} kB, peak {:.1} kB",
            report.memory.avg_local_bytes / 1024.0,
            report.memory.peak_local_bytes as f64 / 1024.0
        );
    }
    Ok(())
}
