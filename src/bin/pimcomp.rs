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
//! pimcomp inspect  --model model.onnx [--seq-len N]  # graph + workload stats
//! pimcomp inspect  --artifact model.pimc.json   # compiled-stage summary
//! pimcomp export   --model vgg16 --out vgg16.onnx
//! pimcomp models                                # list the zoo
//! pimcomp explore  sweep.json [--threads N|auto] [--out report.json] [--csv FILE]
//!                  [--cache DIR|off] [--cache-max-mb N] [--budget-summary] [--progress]
//! pimcomp explore  --diff old.json --against new.json
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

use pimcomp::dse::{PointRecord, SweepReport};
use pimcomp::prelude::*;
use pimcomp_core::{GaParams, GaStats, ReloadPlan, ReusePolicy, StageTimings, DEFAULT_HEADROOM};
use pimcomp_ir::transform::normalize;
use pimcomp_ir::{Graph, GraphStats};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Every library error (and a plain message) behind one `?`.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// A write of command output that failed. [`main`] ends a command whose
/// reader closed the pipe (`pimcomp explore … | head -4`) quietly with
/// exit 0: the reader took what it wanted.
#[derive(Debug)]
struct Output(std::io::Error);

impl std::fmt::Display for Output {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "writing output: {}", self.0)
    }
}

impl std::error::Error for Output {}

/// Command output, written to stdout: the one writer every command
/// prints through. A failed write returns [`Output`] from the command.
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*)).map_err(Output)?
    };
}

/// [`out!`] with a newline.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

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
const OUT: Flag = "--out FILE  write the ONNX file (export) or the JSON sweep report";
const SEQ_LEN: Flag = "--seq-len N  bind symbolic sequence dimensions to N tokens (tiny_bert)";
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
            SEQ_LEN,
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
            "--tolerance T  max unquantized output RMSE, finite and >= 0 (default: 1e-4)",
            "--quantized  also run bit-sliced weights + ADC clipping; fails if top-1 flips",
            "--adc-bits B  ADC resolution for --quantized (default: 8; 32 is ideal)",
        ],
        run: cmd_verify,
    },
    Command {
        name: "inspect",
        positional: None,
        about: "print a model's normalized graph statistics or a saved artifact's stages",
        flags: &[MODEL, SEQ_LEN, ARTIFACT],
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
            "--spec SPEC.json  the sweep spec (docs/SWEEP_SPEC.md), if not given as SPEC.json",
            THREADS,
            OUT,
            "--csv FILE.csv  write the sweep report as CSV",
            "--cache DIR|off  artifact + metrics cache; `off` disables it",
            "--cache-max-mb N  bound the cache; LRU artifacts are evicted",
            "--budget-summary  print per-rung evaluations and the savings vs exhaustive",
            PROGRESS,
            "--diff OLD.json  compare two sweep reports instead of running",
            "--against NEW.json  the report `--diff OLD.json` is compared with",
        ],
        run: cmd_explore,
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
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => print_usage(),
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
        Err(e)
            if e.downcast_ref::<Output>()
                .is_some_and(|Output(e)| e.kind() == std::io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() -> CliResult {
    outln!("{}", usage());
    Ok(())
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

/// `--model`, bound to `--seq-len` if given, then normalized: the graph
/// a compile of it sees.
fn load_normalized(args: &Args) -> CliResult<Graph> {
    let mut graph = load_model(args)?;
    if let Some(n) = args.positive::<usize>("--seq-len")? {
        graph = pimcomp::ir::transform::bind_seq_len(&graph, n)?;
    }
    Ok(normalize(&graph).map_err(|e| format!("model failed normalization: {e}"))?)
}

/// `--artifact`, loaded, with the `loaded …` line `simulate` and
/// `verify` open with; each prints it once it has something to report.
fn open_artifact(args: &Args) -> CliResult<(CompiledArtifact, String)> {
    let path = args.require("--artifact")?;
    let artifact = CompiledArtifact::load(path)?;
    let model = artifact.model();
    let loaded = format!(
        "loaded {path}: {} ({} mode, {})",
        model.graph.name(),
        model.mode,
        stamp(&artifact)
    );
    Ok((artifact, loaded))
}

/// The version + fingerprint every artifact line ends with.
fn stamp(artifact: &CompiledArtifact) -> String {
    format!(
        "format v{}, hw fingerprint {:#018x}",
        CompiledArtifact::FORMAT_VERSION,
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

fn print_simulation(mode: PipelineMode, report: &SimReport) -> CliResult {
    match mode {
        PipelineMode::HighThroughput => outln!(
            "  simulated: {} cycles/inference -> {:.0} inf/s",
            report.total_cycles,
            report.throughput_inf_per_s
        ),
        PipelineMode::LowLatency => outln!(
            "  simulated: {} cycles latency ({:.1} us)",
            report.total_cycles,
            report.latency_us
        ),
    }
    outln!(
        "  energy {:.1} uJ (dyn {:.1} + leak {:.1}), avg local mem {:.1} kB",
        report.energy.total_pj() / 1e6,
        report.energy.dynamic_pj() / 1e6,
        report.energy.leakage_pj / 1e6,
        report.memory.avg_local_bytes / 1024.0
    );
    if report.reload_stall_cycles > 0 {
        outln!(
            "  reload: {} epochs, {} AGs rewritten, {} stall cycles, {:.1} uJ write energy",
            report.reload_epochs,
            report.reload_ags_rewritten,
            report.reload_stall_cycles,
            report.energy.reload_pj / 1e6
        );
    }
    Ok(())
}

fn write_file(path: &str, bytes: impl AsRef<[u8]>) -> CliResult {
    Ok(std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))?)
}

/// `--report FILE.json` of `compile` and `simulate`.
fn write_json_report(args: &Args, payload: &impl serde::Serialize) -> CliResult {
    if let Some(path) = args.get("--report") {
        let json = serde_json::to_string_pretty(payload)?;
        write_file(path, json)?;
        outln!("  wrote {path}");
    }
    Ok(())
}

/// `--out` / `--csv` of `explore`.
fn write_sweep_report(args: &Args, report: &SweepReport) -> CliResult {
    if let Some(path) = args.get("--out") {
        write_file(path, report.to_json()? + "\n")?;
        outln!("wrote {path} (report format v{})", report.format_version);
    }
    if let Some(path) = args.get("--csv") {
        write_file(path, report.to_csv())?;
        outln!("wrote {path}");
    }
    Ok(())
}

fn cmd_compile(args: &Args) -> CliResult {
    // Hardware sizing needs fixed shapes, so the graph is bound; the
    // session re-binds (a no-op on the bound graph) through the same
    // options path API users take.
    let graph = load_normalized(args)?;
    let seq_len = args.positive::<usize>("--seq-len")?;
    // The shared headroom heuristic (also behind `hardware: "auto"` in
    // sweep specs and the bench harness's sizing).
    let puma = HardwareConfig::puma();
    let sized = || Ok(pimcomp_core::sized_chips(&graph, &puma, DEFAULT_HEADROOM)?);
    let hw = args.puma(sized, puma.parallelism)?;
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
    // Every option is checked before anything is printed.
    let session = CompileSession::new(hw.clone(), &graph, compile_opts)?;
    outln!(
        "compiling {} for {} chips x {} cores (parallelism {}, {mode} mode)...",
        graph.name(),
        hw.chips,
        hw.cores_per_chip,
        hw.parallelism
    );
    let mut timings = StageTimings::default();
    let compiled = if args.has("--progress") {
        session.run_observed(&mut ProgressPrinter(&mut timings))
    } else {
        session.run_observed(&mut timings)
    }?;

    outln!(
        "  stages: partition {:?}, replicate+map {:?}, schedule {:?}",
        timings.node_partitioning,
        timings.replicating_mapping,
        timings.dataflow_scheduling
    );
    let summary = CompileSummary::of(&compiled);
    outln!("  replication: {:?}", summary.replication);
    outln!(
        "  {} active cores, {} / {} crossbars, estimated {} = {:.0} cycles",
        summary.active_cores,
        summary.crossbars_used,
        hw.total_crossbars(),
        if mode == PipelineMode::HighThroughput {
            "F_HT"
        } else {
            "F_LL"
        },
        summary.estimated_fitness
    );
    if let Some(plan) = &compiled.reload {
        outln!("  {}", reload_summary(plan));
    }

    let sim_report = if args.has("--simulate") {
        let report = Simulator::new(hw).run(&compiled)?;
        print_simulation(mode, &report)?;
        Some(report)
    } else {
        None
    };

    #[derive(serde::Serialize)]
    struct FullReport<'a> {
        compile: CompileSummary<'a>,
        simulation: Option<&'a SimReport>,
    }
    write_json_report(
        args,
        &FullReport {
            compile: summary,
            simulation: sim_report.as_ref(),
        },
    )?;

    // Last, so the model can be moved into the artifact without a
    // deep copy (compiled models for large networks are megabytes).
    if let Some(path) = args.get("--artifact") {
        let artifact = CompiledArtifact::new(compiled);
        artifact.save(path)?;
        outln!("  wrote artifact {path} ({})", stamp(&artifact));
    }
    Ok(())
}

/// `compile --report`'s `compile` object: the model's
/// [`CompileReport`](pimcomp_core::CompileReport) beside what the model
/// records about its mapping.
#[derive(serde::Serialize)]
struct CompileSummary<'a> {
    model: &'a str,
    compiler: &'a str,
    mode: PipelineMode,
    ga: &'a Option<GaStats>,
    replication: &'a [usize],
    active_cores: usize,
    crossbars_used: usize,
    estimated_fitness: f64,
}

impl<'a> CompileSummary<'a> {
    fn of(m: &'a CompiledModel) -> Self {
        CompileSummary {
            model: m.graph.name(),
            compiler: &m.report.compiler,
            mode: m.mode,
            ga: &m.report.ga,
            replication: m.mapping.replication.counts(),
            active_cores: m.mapping.active_cores(),
            crossbars_used: m.crossbars_used(),
            estimated_fitness: m.report.estimated_fitness,
        }
    }
}

/// Observer streaming stage + GA progress to stderr (`--progress`),
/// recording the stage times into the [`StageTimings`] it wraps.
struct ProgressPrinter<'a>(&'a mut StageTimings);

impl CompileObserver for ProgressPrinter<'_> {
    fn on_stage_start(&mut self, stage: CompileStage) {
        eprintln!("[stage] {} ...", stage.label());
    }

    fn on_stage_finish(&mut self, stage: CompileStage, elapsed: Duration) {
        self.0.on_stage_finish(stage, elapsed);
        eprintln!("[stage] {} done in {elapsed:?}", stage.label());
    }

    fn on_ga_generation(&mut self, p: GaGeneration) {
        // Report every `step`-th generation (~20 times per run, to keep
        // stderr readable) and the last one.
        let step = (p.total_generations / 20).max(1);
        let last = p.generation + 1 == p.total_generations;
        if (p.generation > 0 && p.generation.is_multiple_of(step)) || last {
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
    let (artifact, loaded) = open_artifact(args)?;
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
    outln!("{loaded}");
    print_simulation(model.mode, &report)?;
    write_json_report(args, &report)
}

fn cmd_verify(args: &Args) -> CliResult {
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let tolerance: f64 = args
        .parsed("--tolerance", "a finite non-negative number", |t: &f64| {
            t.is_finite() && *t >= 0.0
        })?
        .unwrap_or(1e-4);
    let adc_bits: u32 = args.number("--adc-bits")?.unwrap_or(8);
    if args.has("--adc-bits") && !args.has("--quantized") {
        return Err("--adc-bits requires --quantized".into());
    }
    let (artifact, loaded) = open_artifact(args)?;
    let model = artifact.model();
    // Every option is checked before anything is printed or run.
    let quant = args
        .has("--quantized")
        .then(|| pimcomp_arch::QuantConfig::for_hardware(&model.hw, adc_bits))
        .transpose()?;
    outln!("{loaded}");
    let reference = pimcomp::exec::reference_outputs(&model.graph, seed)?;
    let verify = |quant| pimcomp::exec::verify_against(&reference, model, seed, quant);
    let top1 = |matched| if matched { "match" } else { "MISMATCH" };
    let exact = verify(None)?;
    outln!(
        "  unquantized: RMSE {:.3e} over {} output values, top-1 {} (seed {seed})",
        exact.output_rmse,
        exact.output_len,
        top1(exact.top1_match)
    );
    // Written so that a NaN RMSE fails.
    let within_tolerance = exact.output_rmse <= tolerance;
    if !within_tolerance {
        return Err(format!(
            "mapped execution diverges from the reference: RMSE {:.3e} exceeds tolerance {tolerance:.1e}",
            exact.output_rmse
        )
        .into());
    }
    if !exact.top1_match {
        return Err(format!(
            "mapped execution flips the reference's top-1 prediction (RMSE {:.3e})",
            exact.output_rmse
        )
        .into());
    }
    if let Some(quant) = quant {
        let q = verify(Some(quant))?;
        outln!(
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
    outln!("  verification passed");
    Ok(())
}

fn inspect_artifact(path: &str) -> CliResult {
    let artifact = CompiledArtifact::load(path)?;
    let m = artifact.model();
    let s = CompileSummary::of(m);
    outln!("artifact {path} ({})", stamp(&artifact));
    outln!(
        "model: {} compiled by {} in {} mode",
        s.model,
        s.compiler,
        s.mode
    );
    outln!(
        "hardware: {} chips x {} cores, parallelism {}",
        m.hw.chips,
        m.hw.cores_per_chip,
        m.hw.parallelism
    );
    outln!("stages:");
    outln!("  partitioning : {} MVM nodes", m.partitioning.len());
    out!(
        "  replicate+map: {} AG instances ({} active cores, {} crossbars",
        m.mapping.instances.len(),
        s.active_cores,
        s.crossbars_used
    );
    match s.ga {
        Some(ga) => outln!(
            "; GA {:.0} -> {:.0} over {} generations, {} evals ({} incremental), {} cache hits)",
            ga.initial_fitness,
            ga.final_fitness,
            ga.history.len(),
            ga.evaluations,
            ga.incremental_evals,
            ga.cache_hits
        ),
        None => outln!(")"),
    }
    outln!(
        "  scheduling   : {} schedule, {} policy, peak local {:.1} kB",
        m.mode,
        m.memory.policy.label(),
        m.memory.peak_bytes as f64 / 1024.0
    );
    outln!("replication: {:?}", s.replication);
    if let Some(plan) = &m.reload {
        outln!("{}", reload_summary(plan));
    }
    outln!("estimated fitness: {:.0} cycles", s.estimated_fitness);
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    if let Some(path) = args.get("--artifact") {
        if args.has("--model") {
            return Err("inspect reads `--model` or `--artifact`, not both".into());
        }
        if args.has("--seq-len") {
            return Err("`--seq-len` binds a `--model`; an artifact's graph is bound".into());
        }
        return inspect_artifact(path);
    }
    let graph = load_normalized(args)?;
    let stats = GraphStats::of(&graph);
    outln!("model: {} ({} nodes)", stats.model, stats.nodes);
    outln!(
        "totals: {} MVM nodes, {:.2}M params, {:.2}G MACs",
        stats.mvm_nodes,
        stats.params as f64 / 1e6,
        stats.macs as f64 / 1e9
    );
    // Padded to the column widths of the rows below.
    outln!("\nnode                         op               params           MACs    windows");
    for n in &stats.per_node {
        if n.macs == 0 && n.params == 0 {
            continue;
        }
        outln!(
            "{:<28} {:<10} {:>12} {:>14} {:>10}",
            n.name,
            n.op,
            n.params,
            n.macs,
            n.windows
        );
    }
    Ok(())
}

fn cmd_export(args: &Args) -> CliResult {
    let graph = load_model(args)?;
    let out = args.require("--out")?;
    let bytes = pimcomp_onnx::export_graph(&graph).encode();
    write_file(out, &bytes)?;
    outln!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn cmd_explore(args: &Args) -> CliResult {
    use pimcomp::dse::{ExploreEngine, SweepSpec};

    // Inputs that contradict each other are refused before anything is
    // read or compiled, instead of one of them going unread.
    let spec_path = match (args.positional.as_deref(), args.get("--spec")) {
        (Some(a), Some(b)) => {
            return Err(format!("two sweep specs, `{a}` and `--spec {b}`; give one").into())
        }
        (a, b) => a.or(b),
    };

    // Diff mode: compare two saved reports instead of running.
    if let Some(old) = args.get("--diff") {
        let mut flags = args.command.flags.iter().map(|f| parts(f).0);
        let sweep_flag = flags.find(|&f| f != "--diff" && f != "--against" && args.has(f));
        if let Some(input) = sweep_flag.or(spec_path) {
            let why = "`--diff` compares two saved reports and runs no sweep";
            return Err(format!("{why}; drop `{input}`").into());
        }
        let new = args.require("--against")?;
        let old_report = SweepReport::load(old)?;
        let new_report = SweepReport::load(new)?;
        out!("{}", old_report.diff(&new_report));
        return Ok(());
    }
    if args.has("--against") {
        return Err("`--against` is only read together with `--diff OLD.json`".into());
    }
    if args.get("--cache") == Some("off") && args.has("--cache-max-mb") {
        return Err("`--cache-max-mb` bounds the cache, but `--cache off` disables it".into());
    }

    let spec_path = spec_path.ok_or("`--spec` is required")?;
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

    outln!("{}", spec.banner(threads));
    let outcome = engine.run(&spec)?;
    let report = &outcome.report;
    outln!(
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
        outln!(
            "  cache bound: evicted {} artifact(s) ({:.1} MB), kept {} ({:.1} MB)",
            ev.evicted_files,
            ev.evicted_bytes as f64 / (1024.0 * 1024.0),
            ev.kept_files,
            ev.kept_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    if args.has("--budget-summary") {
        outln!();
        out!("{}", outcome.budget);
    }

    outln!(
        "\nPareto frontier ({} of {} points, per model x mode):",
        report.frontier.len(),
        report.points.len()
    );
    // `mapping` always; the other knobs a record carries only when some
    // point moved them off their default, which a spec that does not
    // sweep them never does.
    let points = &report.points;
    let reload = points.iter().any(|p| p.weight_reload != "off");
    let seq_len = points.iter().any(|p| p.seq_len.is_some());
    let quantization = points.iter().any(|p| p.quantization.is_some());
    let optional = |p: Option<&PointRecord>| {
        let cell = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let mut cells = String::new();
        if reload {
            cells += &format!(" {:<8}", p.map_or("reload", |p| &p.weight_reload));
        }
        if seq_len {
            cells += &format!(" {:>7}", p.map_or("seq_len".into(), |p| cell(p.seq_len)));
        }
        if quantization {
            cells += &format!(" {:>5}", p.map_or("quant".into(), |p| cell(p.quantization)));
        }
        cells
    };
    // Padded to the column widths of the rows below.
    outln!(
        "  model      mode hardware                     policy mapping batch                 seed{}       cycles   energy(uJ)       inf/s  xbar%",
        optional(None)
    );
    for p in report.frontier_records() {
        let m = p.metrics.as_ref().expect("frontier points succeeded");
        outln!(
            "  {:<10} {:<4} {:<28} {:<6} {:<7} {:>5} {:>20}{} {:>12} {:>12.2} {:>11.0} {:>5.1}%",
            p.model,
            p.mode,
            p.hardware,
            p.policy,
            p.mapping,
            p.batch,
            p.seed,
            optional(Some(p)),
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
        outln!();
    }
    write_sweep_report(args, report)
}

fn cmd_models(_: &Args) -> CliResult {
    use pimcomp::ir::models::{by_name, PAPER_BENCHMARKS, TEST_MODELS, ZOO};

    let row = |m: &&str| -> CliResult {
        let g = by_name(m).expect("zoo model");
        let s = GraphStats::of(&g);
        out!(
            "  {:<14} {:>3} nodes {:>7.2}M params ",
            m,
            s.nodes,
            s.params as f64 / 1e6
        );
        if g.has_symbolic_dims() {
            outln!("  symbolic seq (bind with --seq-len)");
        } else {
            outln!("{:>6.2}G MACs", s.macs as f64 / 1e9);
        }
        Ok(())
    };
    outln!("paper benchmarks:");
    PAPER_BENCHMARKS.iter().try_for_each(row)?;
    outln!("other zoo models:");
    ZOO.iter()
        .filter(|m| !PAPER_BENCHMARKS.contains(m))
        .try_for_each(row)?;
    outln!("test models: {}", TEST_MODELS.join(", "));
    Ok(())
}
