//! `ledger`: the repository's benchmark.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1
//!        [--smoke] [--trace-out PATH]       one workload, in this process
//! ledger [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!        [--trace-dir DIR] [--out PATH]     every workload, one document
//! ledger --compare A.json B.json            one row per (metric, workload)
//! ```
//!
//! One workload prints, as its last line, the result object
//! `BENCHMARK.json`'s driver reads (`correct`, `attempted`, `failed`,
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`), and on the line before it the sample
//! statistics behind each median. The all-workloads form runs each in a
//! child process and exits 1 if any output check failed.

use pimcomp_ledger::run::{run_all, run_workload, AllOptions, RunOptions};
use pimcomp_ledger::WORKLOADS;
use std::path::PathBuf;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--trace-out PATH] [--trace-dir DIR] [--out PATH]\n       \
                     ledger --compare A.json B.json";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut traced = None;
    let mut smoke = false;
    let (mut trace_out, mut trace_dir, mut out) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a whole number"));
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds must be a number, 0 or more"));
            }
            "--trace" => {
                traced = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                });
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value())),
            "--out" => out = Some(value()),
            "--compare" => {
                let (a, b) = (value(), value());
                compare(&a, &b);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(workload) = workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            usage(&format!(
                "unknown workload `{workload}` (one of: {})",
                WORKLOADS.join(", ")
            ));
        }
        let output = run_workload(&RunOptions {
            workload,
            seed,
            seconds,
            traced: traced.unwrap_or(false),
            smoke,
            trace_out,
        })
        .unwrap_or_else(|e| fail(&e));
        for line in [output.summaries_json(), output.result_json()] {
            println!(
                "{}",
                serde_json::to_string(&line).unwrap_or_else(|e| fail(&e.to_string()))
            );
        }
        return;
    }

    let doc = run_all(&AllOptions {
        seed,
        seconds,
        smoke,
        traced,
        trace_dir,
    })
    .unwrap_or_else(|e| fail(&e));
    let json = serde_json::to_string_pretty(&doc).unwrap_or_else(|e| fail(&e.to_string()));
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{json}\n"))
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }
    let correct = |w: &serde::Value| w.get("correct") == Some(&serde::Value::Bool(true));
    match doc.get("workloads") {
        Some(serde::Value::Map(ws)) if ws.iter().all(|(_, w)| correct(w)) => {}
        _ => std::process::exit(1),
    }
}

fn compare(a: &str, b: &str) -> ! {
    let read =
        |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("reading {p}: {e}")));
    match pimcomp_ledger::compare::compare(&read(a), &read(b)) {
        Ok((table, any_worse)) => {
            print!("{table}");
            std::process::exit(i32::from(any_worse));
        }
        Err(e) => fail(&e),
    }
}
