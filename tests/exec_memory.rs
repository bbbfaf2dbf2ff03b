//! The executor's memory follows one tile pair of a node, not the
//! node's whole matrices: an MVM node holds one column tile of its
//! weights, one window tile of its im2col panels, its output and, at 8
//! bits, its per-slice partials, converted in place into the output.
//!
//! This binary holds exactly one test, so the process's peak resident
//! set (`VmHWM`) is that test's alone. It is `#[ignore]`d because an
//! unoptimised build takes minutes; CI's `test-release` job runs it
//! with `--include-ignored`:
//!
//! ```text
//! cargo test --release --test exec_memory -- --include-ignored --nocapture
//! ```

/// Peak resident set (`VmHWM`) of this process in MB.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("/proc/self/status has a VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

/// resnet18 as the `verify_resnet18` benchmark runs it: GA 20 × 30 on
/// its auto-sized target, verified unquantized, then under an 8-bit
/// ADC. With whole-node matrices (the whole im2col matrix, the whole
/// weight matrix and a second output beside the 8-bit partials) this
/// peaked at about 20.6 MB, set by `conv1` at 8 bits; tile by tile, at
/// about 13.5 MB, which the bound holds to within 15%.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "a paper-scale verification: run optimised with --include-ignored"]
fn resnet18_verification_memory_stays_with_one_tile_pair() {
    use pimcomp_arch::{PipelineMode, QuantConfig};
    use pimcomp_core::{CompileOptions, CompileSession, GaParams};
    use std::num::NonZeroUsize;

    let graph = pimcomp_ir::models::resnet18();
    let hw = pimcomp_bench::hardware_for(&graph, 20).unwrap();
    let ga = GaParams {
        population: 20,
        iterations: 30,
        seed: 1,
        parallelism: NonZeroUsize::new(1),
        ..GaParams::default()
    };
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(ga);
    let model = CompileSession::new(hw.clone(), &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    let quant = QuantConfig::for_hardware(&hw, 8).unwrap();
    for quant in [None, Some(quant)] {
        let outcome = pimcomp_exec::verify_model(&model, 1, quant).unwrap();
        assert!(outcome.top1_match, "{quant:?}: {outcome:?}");
    }
    let peak = peak_rss_mb();
    println!("resnet18 verified unquantized and at 8 bits: VmHWM {peak:.1} MB");
    assert!(peak < 15.5, "VmHWM {peak:.1} MB is not below 15.5 MB");
}
