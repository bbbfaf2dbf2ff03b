//! Running workloads: one in this process (what `BENCHMARK.json`'s
//! command does), or every one in a child process each, collected into
//! one JSON document.

use crate::trace::Tracer;
use crate::workloads::{self, Checks, Config, Extras, PassTimes};
use crate::{median, object, summarize, MetricDef, Summary, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// What to run in this process.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// How long to keep starting timed passes.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run in place of the
    /// end-to-end metrics.
    pub traced: bool,
    /// Tiny models, one pass.
    pub smoke: bool,
    /// Where to write the spans as Chrome trace-event JSON.
    pub trace_out: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// How many failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Order statistics for the metrics that are medians of samples.
    pub summaries: Vec<(&'static str, Summary)>,
}

impl RunOutput {
    /// The driver's result line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|(m, v)| {
            let entry = [
                ("value", Value::Float(*v)),
                ("unit", Value::Str(m.unit.to_string())),
            ];
            (m.name, object(entry))
        });
        object([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(i128::from(self.attempted))),
            ("failed", Value::Int(i128::from(self.failed))),
            ("metrics", object(metrics)),
        ])
    }

    /// The line before it: sample statistics by metric name.
    pub fn summaries_json(&self) -> Value {
        let stats = self.summaries.iter().map(|(name, s)| {
            let entry = [
                ("n", Value::Int(s.n as i128)),
                ("min", Value::Float(s.min)),
                ("q1", Value::Float(s.q1)),
                ("q3", Value::Float(s.q3)),
                ("max", Value::Float(s.max)),
            ];
            (*name, object(entry))
        });
        object([("samples", object(stats))])
    }
}

/// A directory of the harness's own next to the executable, so that it
/// lies inside the build directory of whichever checkout is measured.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe.parent().unwrap_or(Path::new("."));
    Ok(dir.join(format!("ledger-scratch-{}", std::process::id())))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload in this process: set-up several times, one
/// untimed warm-up pass, then back-to-back timed passes for
/// `opts.seconds` (at least three; a traced run alternates untraced
/// and traced passes, at least one of each).
///
/// # Errors
///
/// Set-up failed, or the trace file could not be written.
pub fn run_workload(opts: &RunOptions) -> Result<RunOutput, String> {
    let cfg = Config {
        seed: opts.seed,
        smoke: opts.smoke,
        scratch: scratch_dir()?,
    };
    let out = run_in(&cfg, opts);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    out
}

fn run_in(cfg: &Config, opts: &RunOptions) -> Result<RunOutput, String> {
    let (min_setups, min_passes) = if opts.smoke { (1, 1) } else { (3, 3) };
    let mut t = Tracer::default();
    let mut c = Checks::default();

    // Set-up, repeated so that `setup_s` is a median: a cheap set-up
    // (a millisecond of graph building) repeats until 0.3 s have gone.
    let mut setup_s = Vec::new();
    let setup_started = Instant::now();
    let mut w = loop {
        t.enabled = opts.traced;
        t.next_unit();
        let t0 = Instant::now();
        t.begin("bench.setup", &opts.workload);
        let w = workloads::setup(&opts.workload, cfg, &mut t)?;
        t.end();
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough_time = setup_started.elapsed() >= Duration::from_millis(300);
        if setup_s.len() >= min_setups && (enough_time || setup_s.len() >= 200) {
            break w;
        }
    };

    // Warm-up: the first pass grows the heap and faults it in (the
    // first vgg16 compile measured 18% slower than the next two).
    t.enabled = false;
    w.pass(&mut t, &mut c);

    // Pass 1 repeats the warm-up's inputs (round 0), so at least one
    // round is checked for repeating exactly; every later untraced pass
    // opens a new round, which a traced pass then repeats.
    let (mut untraced, mut traced) = (PassTimes::default(), PassTimes::default());
    let started = Instant::now();
    loop {
        let tracing = opts.traced && untraced.wall.len() > traced.wall.len();
        if !tracing {
            c.op(w.prepare(untraced.wall.len()), "prepare the round's inputs");
        }
        t.enabled = tracing;
        t.next_unit();
        let t0 = Instant::now();
        t.begin("bench.pass", &opts.workload);
        let (leg1, leg2) = w.pass(&mut t, &mut c);
        t.end();
        let times = if tracing { &mut traced } else { &mut untraced };
        times.wall.push(t0.elapsed().as_secs_f64());
        times.leg1.push(leg1);
        times.leg2.push(leg2);
        let enough = if opts.traced {
            !traced.wall.is_empty()
        } else {
            untraced.wall.len() >= min_passes
        };
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    w.finish(&mut c);
    let mut extras = Extras::new();
    if opts.traced {
        w.extras(&t, &untraced, &mut c, &mut extras);
        extras.insert("bench.calibration_mops", crate::calibrate());
    }

    let mut out = RunOutput {
        attempted: c.attempted,
        failed: c.failed,
        metrics: Vec::new(),
        summaries: Vec::new(),
    };
    if !opts.traced {
        let samples: [(&str, &[f64]); 4] = [
            ("setup_s", &setup_s),
            ("wall_s", &untraced.wall),
            ("leg1_s", &untraced.leg1),
            ("leg2_s", &untraced.leg2),
        ];
        for def in END_TO_END {
            let value = match samples.iter().find(|(name, _)| *name == def.name) {
                Some((name, s)) => {
                    let summary = summarize(s).expect("at least one sample");
                    out.summaries.push((name, summary));
                    summary.median
                }
                None => peak_rss_mb(),
            };
            out.metrics.push((def, value));
        }
        return Ok(out);
    }

    let values = per_layer_values(&t, &opts.workload, &untraced, &traced, extras);
    for def in PER_LAYER {
        let samples = values.get(def.name).map_or(&[][..], Vec::as_slice);
        if let Some(summary) = summarize(samples).filter(|s| s.n > 1) {
            out.summaries.push((def.name, summary));
        }
        // An exact value is read from the first unit that has it: round
        // 0, whose inputs come from `--seed` alone, however many rounds
        // the clock then allowed.
        let value = if def.exact {
            samples.first().copied().unwrap_or(0.0)
        } else {
            median(samples)
        };
        out.metrics.push((def, value));
    }
    if let Some(path) = &opts.trace_out {
        let json = serde_json::to_string(&t.chrome_json(&opts.workload))
            .map_err(|e| format!("encoding the trace: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// `(rate, count, seconds)`: work done per second of the layer's time.
const RATES: [(&str, &str, &str); 5] = [
    ("core.ga_ht.evals_per_s", "core.ga_ht.evals", "core.ga_ht"),
    ("core.ga_ll.evals_per_s", "core.ga_ll.evals", "core.ga_ll"),
    ("sim.ht.mvm_ops_per_s", "sim.ht.mvm_ops", "sim.ht"),
    ("sim.ll.mvm_ops_per_s", "sim.ll.mvm_ops", "sim.ll"),
    (
        "exec.reference.gmacs_per_s",
        "exec.reference.gmacs",
        "exec.reference",
    ),
];

/// `(metric, span names)`: the longest single span of a unit — the
/// slow case that sets the pace when the rest is sped up.
const LONGEST: [(&str, &[&str]); 3] = [
    ("core.ga.slowest_model_s", &["core.ga_ht", "core.ga_ll"]),
    ("sim.ht.slowest_model_s", &["sim.ht"]),
    ("dse.point_cold_max_s", &["dse.points_cold"]),
];

/// The layer each workload is built to be bound by, as span-name
/// prefixes: `bench.layer_share` is their share of a traced pass.
fn bound_layer(workload: &str) -> &'static [&'static str] {
    match workload {
        "compile_paper" => &["core.ga_"],
        "simulate_paper" => &["sim."],
        "sweep_zoo" => &["dse.points_", "core."],
        "verify_resnet18" => &["exec."],
        _ => &[],
    }
}

/// Reduces the trace to per-unit samples of every per-layer metric.
fn per_layer_values(
    t: &Tracer,
    workload: &str,
    untraced: &PassTimes,
    traced: &PassTimes,
    extras: Extras,
) -> BTreeMap<&'static str, Vec<f64>> {
    let own = t.self_seconds();
    let counts = t.counts();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    // `<span>_s` is the sum of the self times of the spans of that name.
    let span_of = |metric: &'static str| metric.strip_suffix("_s");
    for def in &PER_LAYER {
        if let Some(v) = span_of(def.name).and_then(|s| own.get(s)) {
            values.insert(def.name, v.clone());
        } else if let Some(v) = counts.get(def.name) {
            values.insert(def.name, v.clone());
        }
    }
    for (rate, count, span) in RATES {
        if let (Some(n), Some(s)) = (counts.get(count), own.get(span)) {
            values.insert(rate, n.iter().zip(s).map(|(n, s)| n / s).collect());
        }
    }
    for (metric, names) in LONGEST {
        let mut longest: BTreeMap<u32, f64> = BTreeMap::new();
        for s in t.spans().iter().filter(|s| names.contains(&s.name)) {
            let slot = longest.entry(s.unit).or_insert(0.0);
            *slot = slot.max(s.seconds());
        }
        if !longest.is_empty() {
            values.insert(metric, longest.into_values().collect());
        }
    }

    // Shares of the traced passes: time under a reported span, and time
    // under the layer this workload is built to be bound by.
    let reported = |name: &str| PER_LAYER.iter().any(|d| span_of(d.name) == Some(name));
    let layer = bound_layer(workload);
    let mut covered: BTreeMap<u32, (f64, f64, f64)> = BTreeMap::new();
    for (s, own_s) in t.spans().iter().zip(t.self_seconds_per_span()) {
        let slot = covered.entry(s.unit).or_insert((0.0, 0.0, 0.0));
        if s.name == "bench.pass" {
            slot.0 = s.seconds();
        }
        if reported(s.name) {
            slot.1 += own_s;
        }
        if layer.iter().any(|prefix| s.name.starts_with(prefix)) {
            slot.2 += own_s;
        }
    }
    let passes: Vec<_> = covered.values().filter(|(wall, ..)| *wall > 0.0).collect();
    values.insert(
        "bench.span_coverage",
        passes.iter().map(|(w, c, _)| c / w).collect(),
    );
    values.insert(
        "bench.layer_share",
        passes.iter().map(|(w, _, l)| l / w).collect(),
    );
    values.insert("bench.pass_wall_s", traced.wall.clone());
    values.insert(
        "bench.trace_overhead_share",
        vec![median(&traced.wall) / median(&untraced.wall) - 1.0],
    );
    for (name, v) in extras {
        values.insert(name, vec![v]);
    }
    values
}

/// What the all-workloads command runs.
#[derive(Debug, Clone)]
pub struct AllOptions {
    /// The workload seed.
    pub seed: u64,
    /// Seconds of timed passes per run.
    pub seconds: f64,
    /// Tiny models, one pass.
    pub smoke: bool,
    /// `Some(false)`: untraced runs only; `Some(true)`: traced only.
    pub traced: Option<bool>,
    /// Write `<dir>/<workload>.trace.json` from each traced run.
    pub trace_dir: Option<PathBuf>,
}

/// Runs every workload, untraced then traced, each run in a child
/// process of its own (so `peak_rss_mb` is per workload), and collects
/// every metric by name with its unit into one document.
///
/// # Errors
///
/// A child could not be started or printed no result.
pub fn run_all(opts: &AllOptions) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut sections = Vec::new();
        let mut totals = [0i128; 2];
        for traced in [false, true] {
            if opts.traced.is_some_and(|only| only != traced) {
                continue;
            }
            eprintln!("ledger: {workload}, trace {}", u8::from(traced));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            if let (true, Some(dir)) = (traced, &opts.trace_dir) {
                cmd.arg("--trace-out")
                    .arg(dir.join(format!("{workload}.trace.json")));
            }
            // `output` waits for the child and collects its stdout;
            // its stderr (failed checks) passes through.
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let parse = |line: Option<&str>| {
                line.and_then(|l| serde_json::parse_value(l).ok())
                    .ok_or_else(|| format!("{workload} printed no result"))
            };
            let result = parse(lines.next())?;
            let samples = parse(lines.next())?;
            for (total, key) in totals.iter_mut().zip(["attempted", "failed"]) {
                if let Some(Value::Int(n)) = result.get(key) {
                    *total += n;
                }
            }
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                return Err(format!("{workload} printed no metrics"));
            };
            // Fold each metric's sample statistics in beside its value.
            let merged = metrics
                .iter()
                .map(|(name, entry)| {
                    let mut fields = match entry {
                        Value::Map(fields) => fields.clone(),
                        _ => Vec::new(),
                    };
                    if let Some(Value::Map(stats)) =
                        samples.get("samples").and_then(|s| s.get(name))
                    {
                        fields.extend(stats.iter().cloned());
                    }
                    (name.clone(), Value::Map(fields))
                })
                .collect();
            let section = if traced { "per_layer" } else { "end_to_end" };
            sections.push((section, Value::Map(merged)));
        }
        let head = [
            ("correct", Value::Bool(totals[1] == 0)),
            ("attempted", Value::Int(totals[0])),
            ("failed", Value::Int(totals[1])),
        ];
        workloads.push((workload, object(head.into_iter().chain(sections))));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machine = object([
        ("os", Value::Str(std::env::consts::OS.into())),
        ("arch", Value::Str(std::env::consts::ARCH.into())),
        ("nproc", Value::Int(cores as i128)),
        ("calibration_mops", Value::Float(crate::calibrate())),
    ]);
    Ok(object([
        ("ledger_version", Value::Int(1)),
        ("seed", Value::Int(i128::from(opts.seed))),
        ("seconds", Value::Float(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("machine", machine),
        ("workloads", object(workloads)),
    ]))
}
