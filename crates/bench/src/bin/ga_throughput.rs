//! GA throughput: serial vs multi-threaded evaluation engine.
//!
//! Runs the identical search (same seed, same parameters) across a
//! thread sweep and reports wall time, the part of it spent building
//! and evaluating the initial population (`init ms`: wall time until
//! the first generation callback), fitness evaluations per second,
//! speedup over the serial run, and the memoization counters — so the
//! parallel engine's gain is measured, not claimed. The harness also
//! *verifies* the determinism contract while measuring: every thread
//! count must reproduce the serial run's best fitness and evaluation
//! counts bit-for-bit, and the binary exits non-zero otherwise.
//!
//! ```text
//! cargo run --release -p pimcomp-bench --bin ga_throughput -- [--fast]
//!     [--only NAME] [--threads 1,2,4,8] [--min-speedup 2.0] [--json PATH]
//! ```
//!
//! A serial (1-thread) run is always measured first and serves as the
//! speedup/determinism baseline, whatever sweep order is requested.
//! With `--min-speedup X` the binary also exits non-zero unless every
//! network/mode configuration reaches `X`× over serial at some thread
//! count (only meaningful on multi-core hosts).

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_bench::HarnessOptions;
use pimcomp_core::{optimize_observed, DepInfo, GaContext, GaParams, Partitioning};
use pimcomp_ir::transform::normalize;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
struct Row {
    network: String,
    mode: String,
    threads: usize,
    wall_ms: f64,
    /// Wall time until the first generation callback: population
    /// construction plus its from-scratch evaluations.
    init_ms: f64,
    evaluations: usize,
    evals_per_sec: f64,
    speedup: f64,
    cache_hits: usize,
    incremental_evals: usize,
    full_evals: usize,
    best_fitness: f64,
}

/// Partitions `graph` for `hw`, exiting with a clear message (status 2)
/// when the model does not fit — a harness must report, not panic.
fn partition_or_exit(name: &str, graph: &pimcomp_ir::Graph, hw: &HardwareConfig) -> Partitioning {
    Partitioning::new(graph, hw).unwrap_or_else(|e| {
        eprintln!("error: cannot partition `{name}` for the target hardware: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let opts = HarnessOptions::from_args();
    let mut sweep = opts.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    // The serial run is the speedup/determinism baseline, so it always
    // goes first regardless of the requested sweep order.
    sweep.retain(|&n| n != 1);
    sweep.insert(0, 1);
    let networks = if opts.only.is_some() {
        opts.networks()
    } else {
        vec!["resnet18"]
    };
    let ga_base = if opts.fast {
        GaParams {
            population: 16,
            iterations: 12,
            ..GaParams::fast(1)
        }
    } else {
        GaParams {
            population: 50,
            iterations: 60,
            ..GaParams::fast(1)
        }
    };

    println!(
        "GA throughput (population {}, {} generations, seed {}; host has {} cores)",
        ga_base.population,
        ga_base.iterations,
        ga_base.seed,
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    );
    println!(
        "{:<10} {:<4} {:>7} {:>10} {:>9} {:>7} {:>11} {:>8} {:>7} {:>7} {:>6}",
        "network",
        "mode",
        "threads",
        "wall ms",
        "init ms",
        "evals",
        "evals/s",
        "speedup",
        "incr",
        "hits",
        "fit"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut determinism_ok = true;
    let mut speedup_ok = true;
    for name in networks {
        let Some(graph) = pimcomp_ir::models::by_name(name) else {
            // A typo in --only must not silently yield an empty (and
            // therefore "passing") measurement.
            eprintln!(
                "error: unknown network `{name}`; available networks: {}",
                pimcomp_bench::available_networks().join(", ")
            );
            std::process::exit(2);
        };
        let graph = match normalize(&graph) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: network `{name}` failed normalization: {e}");
                std::process::exit(2);
            }
        };
        let base = HardwareConfig::puma();
        let partitioning = partition_or_exit(name, &graph, &base);
        let per_chip = base.cores_per_chip * base.crossbars_per_core;
        let chips = (2 * partitioning.min_crossbars()).div_ceil(per_chip).max(1);
        let hw = HardwareConfig::puma_with_chips(chips);
        let partitioning = partition_or_exit(name, &graph, &hw);
        let dep = DepInfo::analyze(&graph);

        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let ctx = GaContext {
                hw: &hw,
                graph: &graph,
                partitioning: &partitioning,
                dep: &dep,
                mode,
                core_limit: None,
            };
            let mut serial: Option<Row> = None;
            for &threads in &sweep {
                let params = GaParams {
                    parallelism: NonZeroUsize::new(threads),
                    ..ga_base.clone()
                };
                let t0 = Instant::now();
                let mut init = None;
                let run = optimize_observed(&ctx, &params, &mut |_| {
                    init.get_or_insert_with(|| t0.elapsed());
                });
                let (_, stats) = match run {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!(
                            "error: GA run failed for {name}/{mode} at {threads} threads: {e}"
                        );
                        std::process::exit(2);
                    }
                };
                let wall = t0.elapsed();
                let wall_ms = wall.as_secs_f64() * 1e3;
                let evals_per_sec = stats.evaluations as f64 / wall.as_secs_f64().max(1e-9);
                let speedup = serial
                    .as_ref()
                    .map_or(1.0, |s: &Row| s.wall_ms / wall_ms.max(1e-9));
                let row = Row {
                    network: name.to_string(),
                    mode: mode.to_string(),
                    threads,
                    wall_ms,
                    init_ms: init.unwrap_or(wall).as_secs_f64() * 1e3,
                    evaluations: stats.evaluations,
                    evals_per_sec,
                    speedup,
                    cache_hits: stats.cache_hits,
                    incremental_evals: stats.incremental_evals,
                    full_evals: stats.full_evals,
                    best_fitness: stats.final_fitness,
                };
                if let Some(s) = &serial {
                    if s.best_fitness.to_bits() != row.best_fitness.to_bits()
                        || s.evaluations != row.evaluations
                        || s.cache_hits != row.cache_hits
                    {
                        eprintln!(
                            "DETERMINISM VIOLATION: {name}/{mode} with {threads} threads \
                             diverged from the serial run"
                        );
                        determinism_ok = false;
                    }
                }
                println!(
                    "{:<10} {:<4} {:>7} {:>10.1} {:>9.1} {:>7} {:>11.0} {:>7.2}x {:>7} {:>7} {:>6.0}",
                    row.network,
                    row.mode,
                    row.threads,
                    row.wall_ms,
                    row.init_ms,
                    row.evaluations,
                    row.evals_per_sec,
                    row.speedup,
                    row.incremental_evals,
                    row.cache_hits,
                    row.best_fitness
                );
                if serial.is_none() {
                    serial = Some(row.clone());
                }
                rows.push(row);
            }
            if let Some(min) = opts.min_speedup {
                let parallel: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.network == name && r.mode == mode.to_string() && r.threads > 1)
                    .map(|r| r.speedup)
                    .collect();
                match parallel.iter().copied().fold(None, |best: Option<f64>, s| {
                    Some(best.map_or(s, |b| b.max(s)))
                }) {
                    None => {
                        eprintln!(
                            "SPEEDUP UNMEASURABLE: {name}/{mode} sweep has no thread count \
                             above 1; --min-speedup needs a parallel configuration"
                        );
                        speedup_ok = false;
                    }
                    Some(best) if best < min => {
                        eprintln!(
                            "SPEEDUP BELOW THRESHOLD: {name}/{mode} peaked at {best:.2}x \
                             (required {min:.2}x)"
                        );
                        speedup_ok = false;
                    }
                    Some(_) => {}
                }
            }
        }
    }
    opts.write_json(&rows);
    if !determinism_ok || !speedup_ok {
        std::process::exit(1);
    }
}
