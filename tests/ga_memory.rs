//! The GA's memory follows its population, not its evaluation count:
//! its fitness memo keeps every fitness of a run but only a weak
//! pointer to each per-core evaluation basis, so a paper-scale search
//! three times the paper's length stays small. And an offspring shares
//! with its parent every 64-core block of slots and per-core terms it
//! does not write, so a generation of offspring costs a few blocks
//! each, not a copy of the grid each.
//!
//! This binary holds exactly one test, so the process's peak resident
//! set (`VmHWM`) is that test's alone. It is `#[ignore]`d because an
//! unoptimised build takes minutes; CI's `test-release` job runs it
//! with `--include-ignored`, once more with debug assertions on:
//!
//! ```text
//! cargo test --release --test ga_memory -- --include-ignored --nocapture
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

/// vgg16 in HT mode is the paper's widest grid (2124 cores on the size
/// `pimcomp compile` picks). Holding every evaluated basis, GA 100 × 600
/// peaked at about 314 MB; holding the population's, at about 15 MB;
/// sharing the blocks an offspring does not write, at about 12 MB, which
/// the bound holds to within 17%.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "a paper-scale search: run optimised with --include-ignored"]
fn vgg16_ht_search_memory_stays_with_the_population() {
    use pimcomp_arch::{HardwareConfig, PipelineMode};
    use pimcomp_core::{CompileOptions, CompileSession, GaParams};
    use std::num::NonZeroUsize;

    let graph = pimcomp_ir::models::vgg16();
    let normalized = pimcomp_ir::transform::normalize(&graph).unwrap();
    // The CLI's sizing: 2x headroom over the single-replica demand.
    let chips = pimcomp_core::sized_chips(
        &normalized,
        &HardwareConfig::puma(),
        pimcomp_core::DEFAULT_HEADROOM,
    )
    .unwrap();
    let ga = GaParams {
        population: 100,
        iterations: 600,
        seed: 1,
        parallelism: NonZeroUsize::new(1),
        ..GaParams::default()
    };
    let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(ga);
    let model = CompileSession::new(HardwareConfig::puma_with_chips(chips), &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    let stats = model.report.ga.as_ref().expect("the GA ran");
    let peak = peak_rss_mb();
    println!(
        "vgg16 HT, GA 100x600 on {chips} chips: {} evaluations, {} memo hits, VmHWM {peak:.1} MB",
        stats.evaluations, stats.cache_hits
    );
    assert!(peak < 14.0, "VmHWM {peak:.1} MB is not below 14 MB");
}
