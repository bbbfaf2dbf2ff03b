//! `pimcomp` — command-line driver for the compilation framework.
//!
//! ```text
//! pimcomp compile  --model resnet18 [--mode ht|ll] [--chips N] [--parallelism P]
//!                  [--policy naive|add|ag] [--ga POPxITERS] [--seed S]
//!                  [--weight-reload [--reload-budget N]] [--seq-len N]
//!                  [--threads N|auto] [--artifact out.pimc.json] [--progress]
//!                  [--simulate] [--report out.json]
//! pimcomp simulate --artifact model.pimc.json [--chips N] [--parallelism P]
//!                  [--report out.json]
//! pimcomp verify   --artifact model.pimc.json [--seed S] [--tolerance T]
//!                  [--quantized [--adc-bits B]]
//! pimcomp inspect  --model model.onnx           # graph + workload stats
//! pimcomp inspect  --artifact model.pimc.json   # compiled-stage summary
//! pimcomp export   --model vgg16 --out vgg16.onnx
//! pimcomp models                                # list the zoo
//! pimcomp explore  sweep.json [--threads N|auto] [--out report.json] [--csv FILE]
//!                  [--cache DIR|off] [--cache-max-mb N] [--budget-summary] [--progress]
//! pimcomp explore  --diff old.json --against new.json
//! pimcomp serve    --spec sweep.json [--out report.json] [--journal FILE] ...
//! pimcomp work     --connect host:port [--cache DIR] ...
//! pimcomp help                                  # every command and flag
//! ```
//!
//! Every command, its flags and their help lines live in one table,
//! [`COMMANDS`]: `pimcomp help` renders it and the one parser
//! ([`parse_args`]) accepts exactly what it declares — a flag the
//! command's row does not list is an error naming the row's flags.
//!
//! `--model` accepts either a zoo name (`vgg16`, `resnet18`,
//! `googlenet`, `inception_v3`, `squeezenet`, `tiny_cnn`, …) or a path
//! to an `.onnx` file.
//!
//! The compile-once/serve-many flow: `compile --artifact` persists a
//! versioned [`CompiledArtifact`]; `simulate --artifact` (typically on
//! another machine) executes it without recompiling. Pass
//! `--chips`/`--parallelism` to `simulate` to pin the serving target —
//! the artifact's hardware fingerprint is then checked against it.

use pimcomp::dse::SweepReport;
use pimcomp::prelude::*;
use pimcomp_core::{GaParams, ReloadPlan, ReusePolicy};
use pimcomp_ir::transform::normalize;
use pimcomp_ir::{Graph, GraphStats};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Every library error (and a plain message) behind one `?`.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// A flag is its own help line: `--name VALUE`, two spaces, the help
/// text; a switch has no `VALUE`. The parser reads the first half, the
/// usage text prints both.
type Flag = &'static str;

/// `(--name, value placeholder — empty for a switch, help)` of a row.
fn parts(flag: Flag) -> (&'static str, &'static str, &'static str) {
    let (head, help) = flag.split_once("  ").unwrap_or((flag, ""));
    let (name, value) = head.split_once(' ').unwrap_or((head, ""));
    (name, value, help)
}

/// One subcommand: everything the parser, the help text and the
/// dispatcher know about it.
struct Command {
    name: &'static str,
    /// Placeholder of the one optional positional argument, if any.
    positional: Option<&'static str>,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> CliResult,
}

// Flags more than one command takes, defined once.
const MODEL: Flag = "--model NAME|FILE.onnx  zoo model name or ONNX file";
const ARTIFACT: Flag = "--artifact FILE  versioned artifact: `compile` writes it, the rest read it";
const CHIPS: Flag = "--chips N  chip count (compile default: sized to fit with 2x headroom)";
const PARALLELISM: Flag = "--parallelism P  parallelism degree (compile default: 20)";
const SEED: Flag = "--seed S  GA seed (compile) or synthetic-data seed (verify); default: 1";
const THREADS: Flag = "--threads N|auto  worker threads; results never depend on the count";
const REPORT: Flag = "--report FILE.json  write a JSON report";
const SPEC: Flag = "--spec SPEC.json  the sweep spec (docs/SWEEP_SPEC.md)";
const OUT: Flag = "--out FILE  write the ONNX file (export) or the JSON sweep report";
const CSV: Flag = "--csv FILE.csv  write the sweep report as CSV";
const CACHE: Flag = "--cache DIR  artifact + metrics cache (explore: `off` disables)";
const CACHE_MAX_MB: Flag = "--cache-max-mb N  bound the cache; LRU artifacts are evicted";
const PROGRESS: Flag = "--progress  stream progress to stderr; stdout is unchanged";

const COMMANDS: &[Command] = &[
    Command {
        name: "compile",
        positional: None,
        about: "compile a model (GA threads default to $PIMCOMP_GA_THREADS, else 1)",
        flags: &[
            MODEL,
            "--mode ht|ll  pipeline mode (default: ht)",
            CHIPS,
            PARALLELISM,
            "--policy naive|add|ag  memory-reuse policy (default: ag)",
            "--ga POPxITERS  GA size (default: 100x200)",
            SEED,
            "--weight-reload  time-multiplex the crossbars: oversized models compile into epochs",
            "--seq-len N  bind symbolic sequence dimensions to N tokens (tiny_bert)",
            "--reload-budget N  cap the resident crossbars (requires --weight-reload)",
            THREADS,
            ARTIFACT,
            PROGRESS,
            "--simulate  run the cycle-accurate simulator on the result",
            REPORT,
        ],
        run: cmd_compile,
    },
    Command {
        name: "simulate",
        positional: None,
        about: "simulate a saved artifact (--chips/--parallelism pin the target it must match)",
        flags: &[ARTIFACT, CHIPS, PARALLELISM, REPORT],
        run: cmd_simulate,
    },
    Command {
        name: "verify",
        positional: None,
        about: "functionally execute a saved artifact and check its numerics",
        flags: &[
            ARTIFACT,
            SEED,
            "--tolerance T  max unquantized output RMSE (default: 1e-4)",
            "--quantized  also run bit-sliced weights + ADC clipping; fails if top-1 flips",
            "--adc-bits B  ADC resolution for --quantized (default: 8; 32 is ideal)",
        ],
        run: cmd_verify,
    },
    Command {
        name: "inspect",
        positional: None,
        about: "print a model's graph statistics or a saved artifact's stages",
        flags: &[MODEL, ARTIFACT],
        run: cmd_inspect,
    },
    Command {
        name: "export",
        positional: None,
        about: "export a zoo model as ONNX",
        flags: &[MODEL, OUT],
        run: cmd_export,
    },
    Command {
        name: "models",
        positional: None,
        about: "list zoo models",
        flags: &[],
        run: cmd_models,
    },
    Command {
        name: "explore",
        positional: Some("SPEC.json"),
        about: "run a design-space sweep (default: all cores, cache .pimcomp-cache)",
        flags: &[
            SPEC,
            THREADS,
            OUT,
            CSV,
            CACHE,
            CACHE_MAX_MB,
            "--budget-summary  print per-rung evaluations and the savings vs exhaustive",
            PROGRESS,
            "--diff OLD.json  compare two sweep reports instead of running",
            "--against NEW.json  the report `--diff OLD.json` is compared with",
        ],
        run: cmd_explore,
    },
    Command {
        name: "serve",
        positional: None,
        about: "coordinate a distributed sweep (exhaustive specs only)",
        flags: &[
            SPEC,
            "--listen HOST:PORT  listen address (default: 127.0.0.1:0, any free port)",
            "--port-file FILE  write the bound host:port to FILE once listening",
            "--journal FILE  crash-resume journal; the same spec + journal resumes",
            "--lease-size N  points per worker lease (default: 4)",
            "--lease-timeout-secs S  reclaim leases older than this (default: 60)",
            OUT,
            CSV,
            PROGRESS,
        ],
        run: cmd_serve,
    },
    Command {
        name: "work",
        positional: None,
        about: "join a sweep as a worker",
        flags: &[
            "--connect HOST:PORT  the coordinator's address (required)",
            "--name NAME  display name in the coordinator's progress view",
            CACHE,
            CACHE_MAX_MB,
            "--max-points N  stop after N points (CI kill/restart drills)",
            "--throttle-ms MS  sleep after each point (test interleaving)",
        ],
        run: cmd_work,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|c| c.name == cmd) {
        Some(command) => parse_args(command, rest).and_then(|args| (command.run)(&args)),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            println!("{}", usage());
            Ok(())
        }
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            Err(format!(
                "unknown command `{cmd}`; commands: {}, help",
                names.join(", ")
            )
            .into())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The help text, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut text = String::from(
        "pimcomp — compilation framework for crossbar-based PIM DNN accelerators\n\nUSAGE:\n",
    );
    for c in COMMANDS {
        let operands = c.positional.map_or(String::new(), |p| format!("[{p}] "))
            + if c.flags.is_empty() { "" } else { "[flags]" };
        text += &format!("  pimcomp {:<8} {operands:<19} {}\n", c.name, c.about);
    }
    text += "  pimcomp help                         print this text\n";
    for c in COMMANDS.iter().filter(|c| !c.flags.is_empty()) {
        text += &format!("\nFLAGS ({}):\n", c.name);
        for (name, value, help) in c.flags.iter().copied().map(parts) {
            text += &format!("  {:<24} {help}\n", format!("{name} {value}"));
        }
    }
    text.trim_end().to_string()
}

/// A command line checked against its command's table row; values are
/// keyed by the flag as typed (`--chips`).
struct Args {
    command: &'static Command,
    positional: Option<String>,
    values: HashMap<&'static str, String>,
}

/// The one place the argument list becomes flags: every `--name` must
/// be declared by `command`, a valued flag consumes the next argument,
/// and a bare word is the command's positional (at most one).
fn parse_args(command: &'static Command, args: &[String]) -> CliResult<Args> {
    let mut parsed = Args {
        command,
        positional: None,
        values: HashMap::new(),
    };
    let declared = command.flags.iter().copied().map(parts);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if command.positional.is_none() || parsed.positional.is_some() {
                return Err(format!("unexpected argument `{a}`").into());
            }
            parsed.positional = Some(a.clone());
            continue;
        }
        let Some((name, placeholder, _)) = declared.clone().find(|(name, ..)| name == a) else {
            let names: Vec<&str> = declared.map(|(name, ..)| name).collect();
            let names = if names.is_empty() {
                "(none)".to_string()
            } else {
                names.join(", ")
            };
            return Err(
                format!("`{a}` is not a flag of `{}`; flags: {names}", command.name).into(),
            );
        };
        let value = match placeholder {
            "" => "true",
            _ => it
                .next()
                .ok_or_else(|| format!("{a} needs a value ({placeholder})"))?,
        };
        parsed.values.insert(name, value.to_string());
    }
    Ok(parsed)
}

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        // A handler asking for a flag its row lacks is the handler-side
        // twin of the typo the parser rejects.
        debug_assert!(
            self.command.flags.iter().any(|f| parts(f).0 == flag),
            "`{}` does not declare {flag}",
            self.command.name
        );
        self.values.get(flag).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn require(&self, flag: &str) -> CliResult<&str> {
        Ok(self
            .get(flag)
            .ok_or_else(|| format!("`{flag}` is required"))?)
    }

    /// `flag` parsed as a `T` the check accepts.
    fn parsed<T: FromStr>(
        &self,
        flag: &str,
        expects: &str,
        accept: impl Fn(&T) -> bool,
    ) -> CliResult<Option<T>> {
        let Some(raw) = self.get(flag) else {
            return Ok(None);
        };
        let value = raw.parse().ok().filter(accept);
        Ok(Some(value.ok_or_else(|| {
            format!("{flag} expects {expects}, got `{raw}`")
        })?))
    }

    fn number<T: FromStr>(&self, flag: &str) -> CliResult<Option<T>> {
        self.parsed(flag, "a number", |_| true)
    }

    fn positive<T: FromStr + PartialOrd + From<u8>>(&self, flag: &str) -> CliResult<Option<T>> {
        self.parsed(flag, "a positive integer", |n: &T| *n >= T::from(1))
    }

    /// `--threads N|auto`; `None` when absent (each command has its own
    /// default) or when `auto` cannot read the core count.
    fn threads(&self) -> CliResult<Option<NonZeroUsize>> {
        match self.get("--threads") {
            Some("auto") => Ok(std::thread::available_parallelism().ok()),
            _ => self.parsed("--threads", "a positive integer or `auto`", |_| true),
        }
    }

    /// `--ga POPxITERS`.
    fn ga(&self) -> CliResult<Option<(usize, usize)>> {
        let Some(spec) = self.get("--ga") else {
            return Ok(None);
        };
        let sizes = spec
            .split_once('x')
            .and_then(|(pop, iters)| Some((pop.parse().ok()?, iters.parse().ok()?)));
        Ok(Some(sizes.ok_or_else(|| {
            format!("--ga expects POPxITERS (100x200), got `{spec}`")
        })?))
    }

    /// The PUMA target `--chips`/`--parallelism` describe, each falling
    /// back to the given default when absent.
    fn puma(
        &self,
        chips: impl FnOnce() -> CliResult<usize>,
        parallelism: usize,
    ) -> CliResult<HardwareConfig> {
        let chips = self.number("--chips")?.map_or_else(chips, Ok)?;
        let parallelism = self.number("--parallelism")?.unwrap_or(parallelism);
        Ok(HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism))
    }
}

fn load_model(args: &Args) -> CliResult<Graph> {
    Ok(pimcomp::dse::resolve_model(args.require("--model")?)?)
}

/// `--artifact`, loaded, with the `loaded …` line `simulate` and
/// `verify` open with.
fn open_artifact(args: &Args) -> CliResult<CompiledArtifact> {
    let path = args.require("--artifact")?;
    let artifact = CompiledArtifact::load(path)?;
    let model = artifact.model();
    println!(
        "loaded {path}: {} ({} mode, {})",
        model.report.model,
        model.mode,
        stamp(&artifact)
    );
    Ok(artifact)
}

/// The version + fingerprint every artifact line ends with.
fn stamp(artifact: &CompiledArtifact) -> String {
    format!(
        "format v{}, hw fingerprint {:#018x}",
        artifact.format_version(),
        artifact.hw_fingerprint()
    )
}

fn reload_summary(plan: &ReloadPlan) -> String {
    if plan.is_single_epoch() {
        return format!(
            "weight reload: fits the {}-crossbar budget in one epoch (no reload cost)",
            plan.budget
        );
    }
    format!(
        "weight reload: {} epochs over a {}-crossbar budget, {} AGs rewritten, \
         {} write-stall cycles, {:.1} uJ write energy",
        plan.epoch_count(),
        plan.budget,
        plan.total_ags_written,
        plan.total_write_cycles,
        plan.total_write_pj / 1e6
    )
}

fn print_simulation(mode: PipelineMode, report: &SimReport) {
    match mode {
        PipelineMode::HighThroughput => println!(
            "  simulated: {} cycles/inference -> {:.0} inf/s",
            report.total_cycles, report.throughput_inf_per_s
        ),
        PipelineMode::LowLatency => println!(
            "  simulated: {} cycles latency ({:.1} us)",
            report.total_cycles, report.latency_us
        ),
    }
    println!(
        "  energy {:.1} uJ (dyn {:.1} + leak {:.1}), avg local mem {:.1} kB",
        report.energy.total_pj() / 1e6,
        report.energy.dynamic_pj() / 1e6,
        report.energy.leakage_pj / 1e6,
        report.memory.avg_local_bytes / 1024.0
    );
    if report.reload_stall_cycles > 0 {
        println!(
            "  reload: {} epochs, {} AGs rewritten, {} stall cycles, {:.1} uJ write energy",
            report.reload_epochs,
            report.reload_ags_rewritten,
            report.reload_stall_cycles,
            report.energy.reload_pj / 1e6
        );
    }
}

fn write_file(path: &str, bytes: impl AsRef<[u8]>) -> CliResult {
    Ok(std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))?)
}

/// `--report FILE.json` of `compile` and `simulate`.
fn write_json_report(args: &Args, payload: &impl serde::Serialize) -> CliResult {
    if let Some(path) = args.get("--report") {
        let json = serde_json::to_string_pretty(payload)?;
        write_file(path, json)?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// `--out` / `--csv` of `explore` and `serve`: the same bytes from
/// both (the determinism gate `cmp`s the two files).
fn write_sweep_report(args: &Args, report: &SweepReport, indent: &str) -> CliResult {
    if let Some(path) = args.get("--out") {
        write_file(path, report.to_json()? + "\n")?;
        println!(
            "{indent}wrote {path} (report format v{})",
            report.format_version
        );
    }
    if let Some(path) = args.get("--csv") {
        write_file(path, report.to_csv())?;
        println!("{indent}wrote {path}");
    }
    Ok(())
}

fn cmd_compile(args: &Args) -> CliResult {
    let graph =
        normalize(&load_model(args)?).map_err(|e| format!("model failed normalization: {e}"))?;
    let seq_len = args.positive::<usize>("--seq-len")?;
    // Hardware sizing needs fixed shapes; the session re-binds (a
    // no-op on the already-bound graph) through the same options path
    // API users take.
    let sizing_graph = match seq_len {
        Some(n) => pimcomp::ir::transform::bind_seq_len(&graph, n)?,
        None => graph.clone(),
    };
    // The shared headroom heuristic (also behind `hardware: "auto"` in
    // sweep specs and the bench harness's sizing).
    let puma = HardwareConfig::puma();
    let sized = || Ok(pimcomp_core::sized_chips(&sizing_graph, &puma, 2.0)?);
    let hw = args.puma(sized, 20)?;
    hw.validate()?;
    let mode = match args.get("--mode").unwrap_or("ht") {
        "ht" | "HT" => PipelineMode::HighThroughput,
        "ll" | "LL" => PipelineMode::LowLatency,
        other => return Err(format!("unknown mode `{other}` (ht|ll)").into()),
    };
    // The policy names are the sweep spec's (one spelling everywhere).
    let name = args.get("--policy").unwrap_or("ag");
    let policy = ReusePolicy::ALL
        .into_iter()
        .find(|&p| pimcomp::dse::policy_spec_name(p) == name)
        .ok_or_else(|| {
            format!(
                "unknown policy `{name}` ({})",
                pimcomp::dse::policy_names().join("|")
            )
        })?;
    let mut ga = GaParams {
        seed: args.number("--seed")?.unwrap_or(1),
        parallelism: args.threads()?,
        ..GaParams::default()
    };
    if let Some((population, iterations)) = args.ga()? {
        (ga.population, ga.iterations) = (population, iterations);
    }

    println!(
        "compiling {} for {} chips x {} cores (parallelism {}, {mode} mode)...",
        graph.name(),
        hw.chips,
        hw.cores_per_chip,
        hw.parallelism
    );
    let reload_budget = args.number::<usize>("--reload-budget")?;
    let mut compile_opts = CompileOptions::new(mode).with_ga(ga).with_policy(policy);
    if let Some(n) = seq_len {
        compile_opts = compile_opts.with_seq_len(n);
    }
    if args.has("--weight-reload") {
        compile_opts = compile_opts.with_weight_reload(reload_budget);
    } else if reload_budget.is_some() {
        return Err("--reload-budget requires --weight-reload".into());
    }
    let session = CompileSession::new(hw.clone(), &graph, compile_opts)?;
    let compiled = if args.has("--progress") {
        session.run_observed(&mut ProgressPrinter::default())
    } else {
        session.run()
    }?;

    let r = &compiled.report;
    println!(
        "  stages: partition {:?}, replicate+map {:?}, schedule {:?}",
        r.timings.node_partitioning, r.timings.replicating_mapping, r.timings.dataflow_scheduling
    );
    println!("  replication: {:?}", r.replication);
    println!(
        "  {} active cores, {} / {} crossbars, estimated {} = {:.0} cycles",
        r.active_cores,
        r.crossbars_used,
        hw.total_crossbars(),
        if mode == PipelineMode::HighThroughput {
            "F_HT"
        } else {
            "F_LL"
        },
        r.estimated_fitness
    );
    if let Some(plan) = &compiled.reload {
        println!("  {}", reload_summary(plan));
    }

    let sim_report = if args.has("--simulate") {
        let report = Simulator::new(hw).run(&compiled)?;
        print_simulation(mode, &report);
        Some(report)
    } else {
        None
    };

    #[derive(serde::Serialize)]
    struct FullReport<'a> {
        compile: &'a pimcomp_core::CompileReport,
        simulation: Option<&'a SimReport>,
    }
    write_json_report(
        args,
        &FullReport {
            compile: r,
            simulation: sim_report.as_ref(),
        },
    )?;

    // Last, so the model can be moved into the artifact without a
    // deep copy (compiled models for large networks are megabytes).
    if let Some(path) = args.get("--artifact") {
        let artifact = CompiledArtifact::new(compiled);
        artifact.save(path)?;
        println!("  wrote artifact {path} ({})", stamp(&artifact));
    }
    Ok(())
}

/// Observer streaming stage + GA progress to stderr (`--progress`).
#[derive(Default)]
struct ProgressPrinter {
    last_reported: usize,
}

impl CompileObserver for ProgressPrinter {
    fn on_stage_start(&mut self, stage: CompileStage) {
        eprintln!("[stage] {} ...", stage.label());
    }

    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        eprintln!("[stage] {} done in {elapsed:?}", stage.label());
    }

    fn on_ga_generation(&mut self, p: GaGeneration) {
        // Report ~20 times per run to keep stderr readable.
        let step = (p.total_generations / 20).max(1);
        if p.generation >= self.last_reported + step || p.generation + 1 == p.total_generations {
            self.last_reported = p.generation;
            eprintln!(
                "[ga] generation {}/{}: best fitness {:.0} ({} evaluations, {} cache hits)",
                p.generation + 1,
                p.total_generations,
                p.best_fitness,
                p.evaluations,
                p.cache_hits
            );
            eprintln!(
                "[ga]   grow mutations so far: {} placed, {} failed (wedged \
                 against capacity when failures dominate)",
                p.grow_successes, p.grow_failures
            );
        }
    }
}

fn cmd_simulate(args: &Args) -> CliResult {
    let artifact = open_artifact(args)?;
    let model = artifact.model();
    // With --chips/--parallelism the caller pins the serving target and
    // the fingerprint check is meaningful; otherwise the artifact's own
    // embedded hardware is the target (trivially matching).
    let target = if args.has("--chips") || args.has("--parallelism") {
        args.puma(|| Ok(model.hw.chips), model.hw.parallelism)?
    } else {
        model.hw.clone()
    };
    let report = Simulator::new(target).run_artifact(&artifact)?;
    print_simulation(model.mode, &report);
    write_json_report(args, &report)
}

fn cmd_verify(args: &Args) -> CliResult {
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let tolerance: f64 = args.number("--tolerance")?.unwrap_or(1e-4);
    let adc_bits: u32 = args.number("--adc-bits")?.unwrap_or(8);
    let artifact = open_artifact(args)?;
    let model = artifact.model();
    let reference = pimcomp::exec::reference_outputs(&model.graph, seed)?;
    let verify = |quant| pimcomp::exec::verify_against(&reference, model, seed, quant);
    let top1 = |matched| if matched { "match" } else { "MISMATCH" };
    let exact = verify(None)?;
    println!(
        "  unquantized: RMSE {:.3e} over {} output values, top-1 {} (seed {seed})",
        exact.output_rmse,
        exact.output_len,
        top1(exact.top1_match)
    );
    if exact.output_rmse > tolerance {
        return Err(format!(
            "mapped execution diverges from the reference: RMSE {:.3e} exceeds tolerance {tolerance:.1e}",
            exact.output_rmse
        )
        .into());
    }
    if args.has("--quantized") {
        let quant = pimcomp_arch::QuantConfig::for_hardware(&model.hw, adc_bits)?;
        let q = verify(Some(quant))?;
        println!(
            "  quantized ({}b cells, {}b weights, {}b ADC): RMSE {:.3e}, top-1 {}",
            model.hw.cell_bits,
            model.hw.weight_bits,
            adc_bits,
            q.output_rmse,
            top1(q.top1_match)
        );
        if !q.top1_match {
            return Err(format!(
                "quantization at {adc_bits} ADC bits flips the top-1 prediction \
                 (RMSE {:.3e}); raise --adc-bits or the cell precision",
                q.output_rmse
            )
            .into());
        }
    }
    println!("  verification passed");
    Ok(())
}

fn inspect_artifact(path: &str) -> CliResult {
    let artifact = CompiledArtifact::load(path)?;
    let m = artifact.model();
    let r = &m.report;
    println!("artifact {path} ({})", stamp(&artifact));
    println!(
        "model: {} compiled by {} in {} mode",
        r.model, r.compiler, r.mode
    );
    println!(
        "hardware: {} chips x {} cores, parallelism {}",
        m.hw.chips, m.hw.cores_per_chip, m.hw.parallelism
    );
    println!("stages:");
    println!(
        "  partitioning : {:?} ({} MVM nodes)",
        r.timings.node_partitioning,
        m.partitioning.len()
    );
    print!(
        "  replicate+map: {:?} ({} active cores, {} crossbars",
        r.timings.replicating_mapping, r.active_cores, r.crossbars_used
    );
    match &r.ga {
        Some(ga) => println!(
            "; GA {:.0} -> {:.0} over {} generations, {} evals ({} incremental), {} cache hits)",
            ga.initial_fitness,
            ga.final_fitness,
            ga.history.len(),
            ga.evaluations,
            ga.incremental_evals,
            ga.cache_hits
        ),
        None => println!(")"),
    }
    println!(
        "  scheduling   : {:?} ({} schedule, {} policy, peak local {:.1} kB)",
        r.timings.dataflow_scheduling,
        m.mode,
        m.memory.policy.label(),
        m.memory.peak_bytes as f64 / 1024.0
    );
    println!("replication: {:?}", r.replication);
    if let Some(plan) = &m.reload {
        println!("{}", reload_summary(plan));
    }
    println!("estimated fitness: {:.0} cycles", r.estimated_fitness);
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    if let Some(path) = args.get("--artifact") {
        return inspect_artifact(path);
    }
    let graph = load_model(args)?;
    let stats = GraphStats::of(&graph);
    println!("model: {} ({} nodes)", stats.model, stats.nodes);
    println!(
        "totals: {} conv/fc nodes, {:.2}M params, {:.2}G MACs",
        stats.mvm_nodes,
        stats.params as f64 / 1e6,
        stats.macs as f64 / 1e9
    );
    // Padded to the column widths of the rows below.
    println!("\nnode                         op               params           MACs    windows");
    for n in &stats.per_node {
        if n.macs == 0 && n.params == 0 {
            continue;
        }
        println!(
            "{:<28} {:<10} {:>12} {:>14} {:>10}",
            n.name, n.op, n.params, n.macs, n.windows
        );
    }
    Ok(())
}

fn cmd_export(args: &Args) -> CliResult {
    let graph = load_model(args)?;
    let out = args.require("--out")?;
    let bytes = pimcomp_onnx::export_graph(&graph).encode();
    write_file(out, &bytes)?;
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn cmd_explore(args: &Args) -> CliResult {
    use pimcomp::dse::{ExploreEngine, SweepSpec};

    // Diff mode: compare two saved reports instead of running.
    if let Some(old) = args.get("--diff") {
        let new = args.require("--against")?;
        let old_report = SweepReport::load(old)?;
        let new_report = SweepReport::load(new)?;
        print!("{}", old_report.diff(&new_report));
        return Ok(());
    }

    let spec_path = match &args.positional {
        Some(path) => path.as_str(),
        None => args.require("--spec")?,
    };
    let json =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = SweepSpec::from_json(&json)?;

    let threads = args
        .threads()?
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get);
    let mut engine = ExploreEngine::new().with_threads(threads);
    match args.get("--cache") {
        Some("off") => {}
        Some(dir) => engine = engine.with_cache_dir(dir),
        None => engine = engine.with_cache_dir(".pimcomp-cache"),
    }
    if let Some(max_mb) = args.positive("--cache-max-mb")? {
        engine = engine.with_cache_limit_mb(max_mb);
    }
    if args.has("--progress") {
        // Per-point completions go to stderr; stdout (the summary and
        // frontier table) is byte-for-byte what a silent run prints.
        engine = engine.with_progress(std::sync::Arc::new(|e: &pimcomp::dse::PointEvent| {
            eprintln!(
                "[explore] {}/{} {} rung {} ({}{})",
                e.index + 1,
                e.total,
                e.key,
                e.rung,
                if e.cache_hit { "cache hit" } else { "compiled" },
                if e.ok { "" } else { ", failed" }
            );
        }));
    }

    println!("{}", spec.banner(threads));
    let outcome = engine.run(&spec)?;
    let report = &outcome.report;
    println!(
        "  evaluated {} points: {} ok, {} failed, {} cache hits / {} compiled \
         (hits: {} from metrics, {} from artifacts)",
        report.points.len(),
        report.points.len() - report.failures(),
        report.failures(),
        outcome.cache_hits,
        outcome.cache_misses,
        outcome.metrics_hits,
        outcome.cache_hits - outcome.metrics_hits
    );
    if let Some(ev) = outcome.eviction.iter().find(|ev| ev.evicted_files > 0) {
        println!(
            "  cache bound: evicted {} artifact(s) ({:.1} MB), kept {} ({:.1} MB)",
            ev.evicted_files,
            ev.evicted_bytes as f64 / (1024.0 * 1024.0),
            ev.kept_files,
            ev.kept_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    if args.has("--budget-summary") {
        println!();
        print!("{}", outcome.budget);
    }

    println!(
        "\nPareto frontier ({} of {} points, per model x mode):",
        report.frontier.len(),
        report.points.len()
    );
    // Padded to the column widths of the rows below.
    println!("  model      mode hardware                     policy batch                 seed       cycles   energy(uJ)       inf/s  xbar%");
    for p in report.frontier_records() {
        let m = p.metrics.as_ref().expect("frontier points succeeded");
        println!(
            "  {:<10} {:<4} {:<28} {:<6} {:>5} {:>20} {:>12} {:>12.2} {:>11.0} {:>5.1}%",
            p.model,
            p.mode,
            p.hardware,
            p.policy,
            p.batch,
            p.seed,
            m.cycles,
            m.energy_uj,
            m.throughput_inf_per_s,
            m.crossbar_utilization * 100.0
        );
    }
    for p in report.points.iter().filter(|p| !p.ok) {
        eprintln!(
            "  failed: {} ({})",
            p.key(),
            p.error.as_deref().unwrap_or("unknown")
        );
    }

    if args.has("--out") {
        println!();
    }
    write_sweep_report(args, report, "")
}

fn cmd_serve(args: &Args) -> CliResult {
    use pimcomp::serve::{Coordinator, CoordinatorConfig};

    let spec_path = args.require("--spec")?;
    let json =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;

    let mut cfg = CoordinatorConfig::default();
    if let Some(listen) = args.get("--listen") {
        cfg.listen = listen.to_string();
    }
    if let Some(n) = args.positive("--lease-size")? {
        cfg.lease_size = n;
    }
    if let Some(secs) = args.positive("--lease-timeout-secs")? {
        cfg.lease_timeout = Duration::from_secs(secs);
    }
    cfg.journal = args.get("--journal").map(std::path::PathBuf::from);
    cfg.progress = args.has("--progress");
    // Label the job by the spec's file stem so journal headers and
    // progress lines say which sweep this is.
    if let Some(stem) = std::path::Path::new(spec_path)
        .file_stem()
        .and_then(|s| s.to_str())
    {
        cfg.job = stem.to_string();
    }

    let coordinator = Coordinator::bind(&json, cfg)?;
    let addr = coordinator.local_addr()?;
    println!("coordinating sweep {spec_path} on {addr}");
    if let Some(path) = args.get("--port-file") {
        write_file(path, format!("{addr}\n"))?;
        println!("  wrote {path}");
    }

    let outcome = coordinator.run()?;
    let report = &outcome.report;
    println!(
        "  evaluated {} points ({} resumed from the journal): {} ok, {} failed",
        outcome.evaluated_points,
        outcome.resumed_points,
        report.points.len() - report.failures(),
        report.failures()
    );
    println!(
        "  {} worker connection(s), {} lease(s) issued, {} reclaimed",
        outcome.workers_seen, outcome.leases_issued, outcome.leases_reclaimed
    );
    write_sweep_report(args, report, "  ")
}

fn cmd_work(args: &Args) -> CliResult {
    use pimcomp::serve::{run_worker, WorkerConfig};

    let mut cfg = WorkerConfig::connect_to(args.require("--connect")?);
    if let Some(name) = args.get("--name") {
        cfg.name = name.to_string();
    }
    cfg.cache_dir = args.get("--cache").map(std::path::PathBuf::from);
    cfg.cache_max_mb = args.positive("--cache-max-mb")?;
    cfg.max_points = args.positive("--max-points")?;
    cfg.throttle = args.number("--throttle-ms")?.map(Duration::from_millis);

    let summary = run_worker(&cfg)?;
    println!(
        "worker {} done: {} point(s) evaluated ({} cache hits: {} from metrics, \
         {} from artifacts) over {} lease(s){}",
        summary.worker,
        summary.points_evaluated,
        summary.cache_hits,
        summary.metrics_hits,
        summary.cache_hits - summary.metrics_hits,
        summary.leases,
        if summary.stopped_early {
            ", stopped early at --max-points"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_models(_: &Args) -> CliResult {
    use pimcomp::ir::models::{by_name, PAPER_BENCHMARKS, TEST_MODELS, ZOO};

    let row = |m: &&str| {
        let g = by_name(m).expect("zoo model");
        let s = GraphStats::of(&g);
        print!(
            "  {:<14} {:>3} nodes {:>7.2}M params ",
            m,
            s.nodes,
            s.params as f64 / 1e6
        );
        if g.has_symbolic_dims() {
            println!("  symbolic seq (bind with --seq-len)");
        } else {
            println!("{:>6.2}G MACs", s.macs as f64 / 1e9);
        }
    };
    println!("paper benchmarks:");
    PAPER_BENCHMARKS.iter().for_each(row);
    println!("other zoo models:");
    let others = ZOO.iter().filter(|m| !PAPER_BENCHMARKS.contains(m));
    others.for_each(row);
    println!("test models: {}", TEST_MODELS.join(", "));
    Ok(())
}
