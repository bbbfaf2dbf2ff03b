//! The four workloads. Each is a set-up routine and a pass over public
//! entry points of the program under test; the same pass function
//! serves the untraced run (one-shot calls, as a user makes them) and
//! the traced run (the same calls in their observed or staged form,
//! with a span around each).
//!
//! Why these four: each is bound by a different layer, so a change to
//! one layer has a workload that exercises it and three that bypass it
//! and must read "no change".
//!
//! * `compile_paper` — GA-bound (`core`); `sim`, `exec`, `dse` idle.
//! * `simulate_paper` — simulator-bound (`sim`); no compile in a pass.
//! * `sweep_zoo` — the mixed DSE path: compile, simulate, artifact
//!   write (cold) beside artifact read (warm).
//! * `verify_resnet18` — executor-bound (`exec`); `core`/`sim`/`dse`
//!   idle.

use crate::trace::{StageSpans, Tracer};
use crate::{geomean, median};
use pimcomp_arch::{HardwareConfig, PipelineMode, QuantConfig};
use pimcomp_core::{
    CompileOptions, CompileSession, CompiledArtifact, CompiledModel, CoreMapping, GaParams,
    PumaCompiler, ReusePolicy,
};
use pimcomp_dse::{ExploreEngine, SweepPlan, SweepReport, SweepSpec};
use pimcomp_exec::{MappedBackend, Tensor};
use pimcomp_ir::{Graph, GraphStats};
use pimcomp_sim::{SimReport, Simulator};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a workload is generated from.
#[derive(Debug, Clone)]
pub struct Config {
    /// Drives every GA seed, the sweep's master seed and seed axis, and
    /// the executor's tensor synthesis.
    pub seed: u64,
    /// Tiny models and GA budgets, for the smoke test.
    pub smoke: bool,
    /// A directory of the harness's own, inside the build directory.
    pub scratch: PathBuf,
}

impl Config {
    /// The paper's five benchmarks (smoke: the tiny test models).
    fn models(&self) -> &'static [&'static str] {
        if self.smoke {
            &["tiny_cnn", "tiny_mlp", "two_branch"]
        } else {
            &pimcomp_ir::models::PAPER_BENCHMARKS
        }
    }

    /// One worker thread, whatever `PIMCOMP_GA_THREADS` says.
    fn ga(&self, population: usize, iterations: usize) -> GaParams {
        let (population, iterations) = if self.smoke {
            (4, 3)
        } else {
            (population, iterations)
        };
        GaParams {
            population,
            iterations,
            seed: self.seed,
            parallelism: NonZeroUsize::new(1),
            ..GaParams::default()
        }
    }

    /// The GA seed of input round `round`. Round 0 is `--seed` itself.
    ///
    /// The event simulator's host time swings ±7% with the mapping at
    /// an unchanged operation count (inception_v3-HT alone 0.95–1.4 s
    /// over eight GA seeds), so the two workloads that simulate draw a
    /// fresh set of mappings each round and report the median round: a
    /// run then reads much the same for any `--seed`.
    fn round_seed(&self, round: usize) -> u64 {
        match round {
            0 => self.seed,
            _ => pimcomp_core::split_stream_seed(self.seed, 0x1ED6E2, round as u64),
        }
    }
}

/// Operations attempted and failed: compiles, simulations, sweep
/// points, verifications, and every output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
}

impl Checks {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED check: {}", what());
        }
    }

    /// Records one operation of the program under test.
    pub fn op<T, E: Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Per-pass timings of the untraced passes of a run.
#[derive(Debug, Default, Clone)]
pub struct PassTimes {
    /// Whole-pass wall times.
    pub wall: Vec<f64>,
    /// First-leg times.
    pub leg1: Vec<f64>,
    /// Second-leg times.
    pub leg2: Vec<f64>,
}

/// Values a workload computes itself for its traced run, by metric name.
pub type Extras = BTreeMap<&'static str, f64>;

/// A set-up workload.
pub trait Workload {
    /// Untimed, before the first pass of input round `round` (0 is what
    /// set-up left ready): generates that round's inputs. Workloads
    /// whose work does not depend on the GA seed keep one set.
    ///
    /// # Errors
    ///
    /// A description of what failed; the passes then reuse the
    /// previous round's inputs.
    fn prepare(&mut self, _round: usize) -> Result<(), String> {
        Ok(())
    }

    /// One pass, back to back with the previous one. Returns the time
    /// spent in the pass's two legs.
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> (f64, f64);

    /// After the last pass, untimed: the output checks that need not
    /// repeat per pass.
    fn finish(&mut self, _c: &mut Checks) {}

    /// Traced runs only, untimed: per-layer values that are not span
    /// sums — guards taken outside the pass, ratios against the
    /// untraced passes' times, simulated quality.
    fn extras(&mut self, _: &Tracer, _: &PassTimes, _: &mut Checks, _: &mut Extras) {}
}

/// Sets up the workload `name`.
///
/// # Errors
///
/// A description of what failed; workloads are chosen so nothing does.
pub fn setup(name: &str, cfg: &Config, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compile_paper" => Box::new(CompilePaper::setup(cfg, t)?),
        "simulate_paper" => Box::new(SimulatePaper::setup(cfg, t)?),
        "sweep_zoo" => Box::new(SweepZoo::setup(cfg, t)?),
        "verify_resnet18" => Box::new(VerifyResnet18::setup(cfg, t)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

const MODES: [(PipelineMode, &str); 2] = [
    (PipelineMode::HighThroughput, "HT"),
    (PipelineMode::LowLatency, "LL"),
];

fn text(e: impl Display) -> String {
    e.to_string()
}

/// Builds a model by name and normalizes it: `(as built, normalized)`.
fn load(name: &str, t: &mut Tracer) -> Result<(Graph, Graph), String> {
    let graphs = t.span("ir.build_normalize", name, |_| {
        let raw = pimcomp_dse::resolve_model(name).map_err(text)?;
        let normalized = pimcomp_ir::transform::normalize(&raw).map_err(text)?;
        Ok::<_, String>((raw, normalized))
    })?;
    t.count("ir.nodes", graphs.1.nodes().len() as f64);
    Ok(graphs)
}

/// The paper's target for `graph`: a PUMA chip count with 2× headroom
/// over the single-replica demand, parallelism 20.
fn paper_target(graph: &Graph, t: &mut Tracer) -> Result<HardwareConfig, String> {
    t.span("core.size_hardware", graph.name(), |_| {
        pimcomp_bench::hardware_for(graph, 20).map_err(text)
    })
}

/// One chip, weight reload on: a model that does not fit takes the
/// deterministic epoch packer, never the GA.
fn reload_compile(graph: &Graph, ga: &GaParams) -> Result<CompiledModel, String> {
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(ga.clone())
        .with_weight_reload(None);
    CompileSession::new(HardwareConfig::puma_with_chips(1), graph, opts)
        .and_then(CompileSession::run)
        .map_err(text)
}

// --------------------------------------------------------------------
// compile_paper
// --------------------------------------------------------------------

struct CompileModel {
    name: String,
    graph: Graph,
    onnx: Vec<u8>,
    hw: HardwareConfig,
}

/// `compile_paper`: ONNX bytes → `import_bytes` → `CompileSession` →
/// artifact JSON for the paper's five benchmarks × {HT, LL} at the
/// paper's GA (population 100 × 200 generations) on their paper-sized
/// targets, then the same models squeezed onto one chip in
/// weight-reload mode (the GA-bypass guard). Legs: HT compiles, LL
/// compiles — the same GA used differently (HT ≈ 98% incremental
/// evaluations, LL ≈ 87% full ones), so a gain on one that costs the
/// other shows.
pub struct CompilePaper {
    models: Vec<CompileModel>,
    ga: GaParams,
    /// Per (model, mode): pass 1's final fitness and mapping.
    first: Vec<Option<(f64, CoreMapping)>>,
    /// Per (model, mode): the latest pass's artifact JSON.
    last: Vec<Option<String>>,
}

impl CompilePaper {
    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let mut models = Vec::new();
        for name in cfg.models() {
            let (raw, graph) = load(name, t)?;
            let hw = paper_target(&graph, t)?;
            let onnx = t.span("onnx.export", name, |_| {
                pimcomp_onnx::export_graph(&raw).encode()
            });
            t.count("onnx.bytes", onnx.len() as f64);
            models.push(CompileModel {
                name: name.to_string(),
                graph,
                onnx,
                hw,
            });
        }
        let slots = models.len() * MODES.len();
        Ok(CompilePaper {
            models,
            ga: cfg.ga(100, 200),
            first: vec![None; slots],
            last: vec![None; slots],
        })
    }

    fn compile(
        t: &mut Tracer,
        m: &CompileModel,
        mode: PipelineMode,
        ga: &GaParams,
        label: &str,
    ) -> Result<(CompiledArtifact, String), String> {
        let graph = t
            .span("onnx.import", label, |_| {
                pimcomp_onnx::import_bytes(&m.onnx)
            })
            .map_err(text)?;
        let opts = CompileOptions::new(mode).with_ga(ga.clone());
        let session = t
            .span("core.session_new", label, |_| {
                CompileSession::new(m.hw.clone(), &graph, opts)
            })
            .map_err(text)?;
        let compiled = if t.enabled {
            session.run_observed(&mut StageSpans::new(t, mode, label))
        } else {
            session.run()
        }
        .map_err(text)?;
        if let Some(ga) = &compiled.report.ga {
            let ht = mode == PipelineMode::HighThroughput;
            let (full, incremental) = if ht {
                ("core.ga_ht.full_evals", "core.ga_ht.incremental_evals")
            } else {
                ("core.ga_ll.full_evals", "core.ga_ll.incremental_evals")
            };
            t.count(full, ga.full_evals as f64);
            t.count(incremental, ga.incremental_evals as f64);
        }
        let artifact = CompiledArtifact::new(compiled);
        let json = t
            .span("core.artifact.to_json", label, |_| artifact.to_json())
            .map_err(text)?;
        t.count("core.artifact.bytes", json.len() as f64);
        Ok((artifact, json))
    }
}

impl Workload for CompilePaper {
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> (f64, f64) {
        let mut legs = [0.0; 2];
        let mut slot = 0;
        for m in &self.models {
            for (k, (mode, tag)) in MODES.iter().enumerate() {
                let label = format!("{}/{tag}", m.name);
                let t0 = Instant::now();
                let out = t.span("core.compile", &label, |t| {
                    Self::compile(t, m, *mode, &self.ga, &label)
                });
                legs[k] += t0.elapsed().as_secs_f64();
                if let Some((artifact, json)) = c.op(out, &label) {
                    let model = artifact.model();
                    let fitness = model
                        .report
                        .ga
                        .as_ref()
                        .map_or(f64::NAN, |g| g.final_fitness);
                    match &self.first[slot] {
                        None => self.first[slot] = Some((fitness, model.mapping.clone())),
                        Some((f, mapping)) => c.check(
                            f.to_bits() == fitness.to_bits() && *mapping == model.mapping,
                            || format!("{label}: fitness or mapping differs from pass 1"),
                        ),
                    }
                    self.last[slot] = Some(json);
                }
                slot += 1;
            }
        }
        for m in &self.models {
            let out = t.span("core.pack_reload", &m.name, |_| {
                reload_compile(&m.graph, &self.ga)
            });
            c.op(out, "reload compile");
        }
        (legs[0], legs[1])
    }

    fn finish(&mut self, c: &mut Checks) {
        // Each artifact survives JSON byte for byte, for its target.
        let hws = self.models.iter().flat_map(|m| [&m.hw, &m.hw]);
        for (json, hw) in self.last.iter().zip(hws) {
            let Some(json) = json else { continue };
            let reloaded = CompiledArtifact::from_json(json)
                .and_then(|a| a.verify_hardware(hw).map(|()| a))
                .and_then(|a| a.to_json());
            c.check(reloaded.as_ref() == Ok(json), || {
                "artifact JSON changed across a round trip".to_string()
            });
        }
    }

    fn extras(&mut self, t: &Tracer, _untraced: &PassTimes, c: &mut Checks, out: &mut Extras) {
        // PIMCOMP against its PUMA-like twin, model by model. The
        // simulator has no hardware reference in this repository, so
        // these are ratios of two simulated figures and carry no error
        // figure.
        let mut ratios = [Vec::new(), Vec::new()];
        let mut cycles = Vec::new();
        let (mut baseline_s, mut replan_s) = (0.0, 0.0);
        let mut slot = 0;
        for m in &self.models {
            let sim = Simulator::new(m.hw.clone());
            for (k, (mode, _)) in MODES.iter().enumerate() {
                let json = self.last[slot].as_deref();
                slot += 1;
                let Some(ours) = json.and_then(|j| CompiledArtifact::from_json(j).ok()) else {
                    continue;
                };
                let opts = CompileOptions::new(*mode).with_ga(self.ga.clone());
                let t0 = Instant::now();
                let twin = PumaCompiler::new(m.hw.clone()).compile(&m.graph, &opts);
                baseline_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                for policy in ReusePolicy::ALL {
                    std::hint::black_box(ours.model().replan_memory(policy));
                }
                replan_s += t0.elapsed().as_secs_f64();
                let Some(twin) = c.op(twin, "PUMA-like compile") else {
                    continue;
                };
                let pair = sim
                    .run_artifact(&ours)
                    .and_then(|a| sim.run(&twin).map(|b| (a, b)));
                if let Some((a, b)) = c.op(pair, "simulate PIMCOMP and its PUMA-like twin") {
                    cycles.push(a.total_cycles as f64);
                    ratios[k].push(b.total_cycles as f64 / a.total_cycles as f64);
                }
            }
        }
        out.insert("core.sim_cycles_geomean", geomean(&cycles));
        out.insert("core.baseline_s", baseline_s);
        out.insert("core.replan_memory_s", replan_s);
        out.insert("core.ht_speedup_vs_puma", geomean(&ratios[0]));
        out.insert("core.ll_speedup_vs_puma", geomean(&ratios[1]));
        let worst = ratios
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        out.insert(
            "core.worst_speedup_vs_puma",
            if worst.is_finite() { worst } else { 0.0 },
        );

        // The parallel GA path, which no single-thread metric sees: the
        // first (largest) model's HT GA at two threads against its span
        // in the traced passes.
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let m = &self.models[0];
        let label = format!("{}/HT", m.name);
        let one_thread: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.name == "core.ga_ht" && s.label == label)
            .map(|s| s.seconds())
            .collect();
        if cores >= 2 && !one_thread.is_empty() {
            let ga = GaParams {
                parallelism: NonZeroUsize::new(2),
                ..self.ga.clone()
            };
            let opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(ga);
            let staged = CompileSession::new(m.hw.clone(), &m.graph, opts)
                .and_then(CompileSession::partition);
            if let Some(partitioned) = c.op(staged, "partition for the two-thread GA") {
                let t0 = Instant::now();
                let optimized = partitioned.optimize();
                let two_threads = t0.elapsed().as_secs_f64();
                if c.op(optimized, "two-thread GA").is_some() {
                    out.insert("core.ga_t2_speedup", median(&one_thread) / two_threads);
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// simulate_paper
// --------------------------------------------------------------------

/// Which simulator engine a case exercises.
#[derive(Clone, Copy)]
enum Engine {
    Ht,
    Ll,
    Reload,
}

struct SimCase {
    label: String,
    engine: Engine,
    hw: HardwareConfig,
    json: String,
}

struct SimModel {
    name: &'static str,
    graph: Graph,
    hw: HardwareConfig,
}

/// `simulate_paper`: artifact JSON → `CompiledArtifact::from_json` →
/// `Simulator::run_artifact` on ten paper mappings (five models ×
/// {HT, LL}, compiled untimed with a small GA, a fresh set each round),
/// plus the analytic multi-epoch path on the one-chip reload mappings.
/// Legs: the HT event engine, the LL event engine — different code, so
/// they are reported apart.
pub struct SimulatePaper {
    cfg: Config,
    models: Vec<SimModel>,
    round: usize,
    cases: Vec<SimCase>,
    /// Per case: the report of this round's first pass.
    first: Vec<Option<SimReport>>,
}

impl SimulatePaper {
    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let mut models = Vec::new();
        for name in cfg.models() {
            let (_, graph) = load(name, t)?;
            let hw = paper_target(&graph, t)?;
            models.push(SimModel { name, graph, hw });
        }
        let cases = Self::compile_set(cfg, &models, 0, t)?;
        Ok(SimulatePaper {
            cfg: cfg.clone(),
            models,
            round: 0,
            first: vec![None; cases.len()],
            cases,
        })
    }

    /// Compiles one round's mappings. The GA is small (20×30), so
    /// set-up stays under a second; simulator host time does not shrink
    /// with a larger one.
    fn compile_set(
        cfg: &Config,
        models: &[SimModel],
        round: usize,
        t: &mut Tracer,
    ) -> Result<Vec<SimCase>, String> {
        let ga = GaParams {
            seed: cfg.round_seed(round),
            ..cfg.ga(20, 30)
        };
        let mut cases = Vec::new();
        for SimModel { name, graph, hw } in models {
            for (mode, tag) in MODES {
                let label = format!("{name}/{tag}");
                let json = t.span("bench.setup_compile", &label, |_| {
                    let opts = CompileOptions::new(mode).with_ga(ga.clone());
                    let compiled = CompileSession::new(hw.clone(), graph, opts)
                        .and_then(CompileSession::run)
                        .map_err(text)?;
                    CompiledArtifact::new(compiled).to_json().map_err(text)
                })?;
                let engine = if mode == PipelineMode::HighThroughput {
                    Engine::Ht
                } else {
                    Engine::Ll
                };
                cases.push(SimCase {
                    label,
                    engine,
                    hw: hw.clone(),
                    json,
                });
            }
            let label = format!("{name}/reload");
            let reload = t.span("bench.setup_compile", &label, |_| {
                reload_compile(graph, &ga)
            })?;
            // A model that fits one chip takes the event engine, which
            // the cases above already cover.
            if reload.reload.as_ref().is_some_and(|p| !p.is_single_epoch()) {
                cases.push(SimCase {
                    label,
                    engine: Engine::Reload,
                    hw: reload.hw.clone(),
                    json: CompiledArtifact::new(reload).to_json().map_err(text)?,
                });
            }
        }
        Ok(cases)
    }
}

impl Workload for SimulatePaper {
    fn prepare(&mut self, round: usize) -> Result<(), String> {
        if round != self.round {
            let mut untraced = Tracer::default();
            self.cases = Self::compile_set(&self.cfg, &self.models, round, &mut untraced)?;
            self.first = vec![None; self.cases.len()];
            self.round = round;
        }
        Ok(())
    }

    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> (f64, f64) {
        let mut legs = [0.0; 3];
        for (case, first) in self.cases.iter().zip(&mut self.first) {
            let (leg, span, counts) = match case.engine {
                Engine::Ht => (0, "sim.ht", Some(("sim.ht.mvm_ops", "sim.ht.cycles"))),
                Engine::Ll => (1, "sim.ll", Some(("sim.ll.mvm_ops", "sim.ll.cycles"))),
                Engine::Reload => (2, "sim.reload", None),
            };
            let t0 = Instant::now();
            let report = t
                .span("core.artifact.from_json", &case.label, |_| {
                    CompiledArtifact::from_json(&case.json)
                })
                .map_err(text)
                .and_then(|artifact| {
                    t.span(span, &case.label, |_| {
                        Simulator::new(case.hw.clone()).run_artifact(&artifact)
                    })
                    .map_err(text)
                });
            legs[leg] += t0.elapsed().as_secs_f64();
            let Some(report) = c.op(report, &case.label) else {
                continue;
            };
            if let Some((ops, cycles)) = counts {
                t.count(ops, report.mvm_ops as f64);
                t.count(cycles, report.total_cycles as f64);
            }
            c.check(report.total_cycles > 0, || {
                format!("{}: zero simulated cycles", case.label)
            });
            match first {
                None => *first = Some(report),
                Some(f) => c.check(*f == report, || {
                    format!("{}: report differs from the round's first", case.label)
                }),
            }
        }
        (legs[0], legs[1])
    }
}

// --------------------------------------------------------------------
// sweep_zoo
// --------------------------------------------------------------------

/// `sweep_zoo`: `ExploreEngine::run` on the committed 18-point sweep,
/// **cold** into an emptied cache directory (compile, simulate, write
/// artifacts) then **warm** on the same directory (load, verify
/// fingerprint, simulate). Legs: cold, warm — the write-beside-read
/// pair, so a cache or serde change that helps one and hurts the other
/// shows.
pub struct SweepZoo {
    cfg: Config,
    round: usize,
    spec: SweepSpec,
    /// The spec resolved ahead of the passes: what the traced ones
    /// evaluate point by point (the engine resolves its own per run).
    plan: SweepPlan,
    dir: PathBuf,
    /// Report JSON of this round's first cold run; every later run of
    /// the round must match it.
    first: Option<String>,
    /// Geometric mean of round 0's simulated cycles per point.
    cycles_geomean: f64,
}

struct SweepRun {
    report: SweepReport,
    json: String,
    hits: usize,
    misses: usize,
}

impl SweepZoo {
    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let source = if cfg.smoke {
            crate::BENCH_SWEEP_SMOKE_SPEC
        } else {
            crate::BENCH_SWEEP_SPEC
        };
        let mut spec = t
            .span("dse.spec_parse", "", |_| SweepSpec::from_json(source))
            .map_err(text)?;
        spec.master_seed = cfg.seed;
        spec.seeds = vec![cfg.seed];
        let plan = t
            .span("dse.plan", "", |_| SweepPlan::new(&spec))
            .map_err(text)?;
        Ok(SweepZoo {
            cfg: cfg.clone(),
            round: 0,
            spec,
            plan,
            // Emptied, and created, at the start of every pass.
            dir: cfg.scratch.join("sweep-cache"),
            first: None,
            cycles_geomean: 0.0,
        })
    }

    /// One sweep over the cache directory: the engine untraced, the
    /// per-point plan API (what a `serve` worker calls) traced.
    fn sweep(&self, t: &mut Tracer, point_span: &'static str) -> Result<SweepRun, String> {
        if !t.enabled {
            let engine = ExploreEngine::new()
                .with_threads(1)
                .with_cache_dir(&self.dir);
            let outcome = engine.run(&self.spec).map_err(text)?;
            return Ok(SweepRun {
                json: outcome.report.to_json().map_err(text)?,
                report: outcome.report,
                hits: outcome.cache_hits,
                misses: outcome.cache_misses,
            });
        }
        let plan = &self.plan;
        let (mut hits, mut misses) = (0, 0);
        let mut records = Vec::with_capacity(plan.len());
        for (i, point) in plan.points().iter().enumerate() {
            let key = point.key();
            let outcome = t
                .span(point_span, &key, |t| {
                    let mut stages = StageSpans::new(t, point.mode, &key);
                    plan.evaluate_final_observed(i, Some(&self.dir), &mut stages)
                })
                .map_err(text)?;
            if outcome.cache_hit {
                hits += 1;
            } else {
                misses += 1;
            }
            records.push(outcome.record);
        }
        let (report, json) = t
            .span("dse.reduce", "", |_| {
                let report = plan.reduce(records)?;
                let json = report.to_json()?;
                Ok::<_, pimcomp_dse::ExploreError>((report, json))
            })
            .map_err(text)?;
        Ok(SweepRun {
            report,
            json,
            hits,
            misses,
        })
    }

    fn cache_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

/// Empties `dir`, creating it if need be: `SweepPlan::evaluate*`
/// silently skips caching when the directory is missing.
fn wipe(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("emptying {}: {e}", dir.display()))
        }
        _ => {}
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

impl Workload for SweepZoo {
    fn prepare(&mut self, round: usize) -> Result<(), String> {
        if round != self.round {
            self.spec.seeds = vec![self.cfg.round_seed(round)];
            self.plan = SweepPlan::new(&self.spec).map_err(text)?;
            self.first = None;
            self.round = round;
        }
        Ok(())
    }

    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> (f64, f64) {
        let wiped = t.span("bench.cache_wipe", "", |_| wipe(&self.dir));
        if c.op(wiped, "empty the cache directory").is_none() {
            return (0.0, 0.0);
        }
        let points = self.plan.len();
        let mut legs = [0.0; 2];
        for (k, point_span) in ["dse.points_cold", "dse.points_warm"]
            .into_iter()
            .enumerate()
        {
            let cold = k == 0;
            let t0 = Instant::now();
            let run = self.sweep(t, point_span);
            legs[k] = t0.elapsed().as_secs_f64();
            let Some(run) = c.op(run, point_span) else {
                continue;
            };
            c.attempted += points as u64;
            c.failed += run.report.failures() as u64;
            let (hits, misses) = if cold { (0, points) } else { (points, 0) };
            c.check(run.hits == hits && run.misses == misses, || {
                format!(
                    "{point_span}: {} hits, {} misses, expected {hits} and {misses}",
                    run.hits, run.misses
                )
            });
            t.count("dse.cache.hits", run.hits as f64);
            t.count("dse.cache.misses", run.misses as f64);
            // Cold, warm, traced and untraced reports are all the same
            // bytes: cache state and the driving API change time only.
            match &self.first {
                None => {
                    if self.round == 0 {
                        let metrics = run.report.points.iter().filter_map(|p| p.metrics.as_ref());
                        let cycles: Vec<f64> = metrics.map(|m| m.cycles as f64).collect();
                        self.cycles_geomean = geomean(&cycles);
                    }
                    self.first = Some(run.json);
                }
                Some(first) => c.check(*first == run.json, || {
                    format!("{point_span}: report differs from the round's first cold run")
                }),
            }
        }
        if t.enabled {
            t.count("dse.cache.bytes", self.cache_bytes() as f64);
            t.count(
                "dse.report.bytes",
                self.first.as_ref().map_or(0, String::len) as f64,
            );
        }
        (legs[0], legs[1])
    }

    fn extras(&mut self, _: &Tracer, untraced: &PassTimes, c: &mut Checks, out: &mut Extras) {
        out.insert("dse.sim_cycles_geomean", self.cycles_geomean);
        // The number a "cache the SimReport too" change would collapse.
        let ratios: Vec<f64> = untraced
            .leg2
            .iter()
            .zip(&untraced.leg1)
            .map(|(warm, cold)| warm / cold)
            .collect();
        out.insert("dse.warm_cold_ratio", median(&ratios));
        // The latest round's cold leg: the same points as the run below.
        let cold = untraced.leg1.last().copied().unwrap_or(0.0);

        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        if cores >= 2 && c.op(wipe(&self.dir), "empty the cache directory").is_some() {
            let engine = ExploreEngine::new()
                .with_threads(2)
                .with_cache_dir(&self.dir);
            let t0 = Instant::now();
            let outcome = engine.run(&self.spec);
            let two_threads = t0.elapsed().as_secs_f64();
            if let Some(outcome) = c.op(outcome, "two-thread cold sweep") {
                c.check(outcome.report.to_json().ok() == self.first, || {
                    "two-thread report differs from the one-thread report".to_string()
                });
                out.insert("dse.t2_speedup", cold / two_threads);
            }
        }
    }
}

// --------------------------------------------------------------------
// verify_resnet18
// --------------------------------------------------------------------

struct VerifyCase {
    name: String,
    model: CompiledModel,
    quant: QuantConfig,
    gmacs: f64,
    /// Pass 1's 8-bit RMSE, as bits.
    first_q8: Option<u64>,
}

/// `verify_resnet18`: `pimcomp_exec::verify_model` on resnet18 (and on
/// tiny_bert at 64 tokens, for the attention and LayerNorm kernels),
/// unquantized then under an 8-bit ADC. Legs: unquantized, 8-bit. The
/// reference interpreter is the independent oracle: unquantized RMSE
/// must stay within 1e-4 with the top-1 index matching.
pub struct VerifyResnet18 {
    cases: Vec<VerifyCase>,
    seed: u64,
}

impl VerifyResnet18 {
    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let big = if cfg.smoke { "tiny_cnn" } else { "resnet18" };
        let mut cases = Vec::new();
        for (name, seq_len) in [(big, None), ("tiny_bert", Some(64))] {
            let (_, graph) = load(name, t)?;
            // A small GA: the executor's time hardly depends on the
            // mapping, and a paper-sized GA would set `peak_rss_mb`.
            let mut opts =
                CompileOptions::new(PipelineMode::HighThroughput).with_ga(cfg.ga(20, 30));
            let hw = match seq_len {
                None => paper_target(&graph, t)?,
                Some(len) => {
                    opts = opts.with_seq_len(len);
                    HardwareConfig::puma_with_chips(1)
                }
            };
            let model = t.span("bench.setup_compile", name, |_| {
                CompileSession::new(hw.clone(), &graph, opts)
                    .and_then(CompileSession::run)
                    .map_err(text)
            })?;
            cases.push(VerifyCase {
                name: name.to_string(),
                quant: QuantConfig::for_hardware(&hw, 8).map_err(text)?,
                gmacs: GraphStats::of(&model.graph).macs as f64 / 1e9,
                model,
                first_q8: None,
            });
        }
        Ok(VerifyResnet18 {
            cases,
            seed: cfg.seed,
        })
    }

    /// `verify_model`, or when traced the same three steps apart:
    /// `(rmse, top-1 agrees)`.
    fn verify(
        t: &mut Tracer,
        case: &VerifyCase,
        seed: u64,
        quant: Option<QuantConfig>,
    ) -> Result<(f64, bool), String> {
        let model = &case.model;
        if !t.enabled {
            return pimcomp_exec::verify_model(model, seed, quant)
                .map(|v| (v.output_rmse, v.top1_match))
                .map_err(text);
        }
        let mapped_span = if quant.is_some() {
            "exec.mapped_q8"
        } else {
            "exec.mapped_f32"
        };
        let reference = t
            .span("exec.reference", &case.name, |_| {
                pimcomp_exec::reference_outputs(&model.graph, seed)
            })
            .map_err(text)?;
        t.count("exec.reference.gmacs", case.gmacs);
        let mut backend = t
            .span("exec.mapped_build", &case.name, |_| {
                MappedBackend::new(model, quant)
            })
            .map_err(text)?;
        let mapped = t
            .span(mapped_span, &case.name, |_| {
                pimcomp_exec::run_graph(&model.graph, seed, &mut backend)
            })
            .map_err(text)?;
        Ok(t.span("bench.compare", &case.name, |_| {
            let flat = |outputs: &[(String, Tensor)]| -> Vec<f32> {
                outputs
                    .iter()
                    .flat_map(|(_, tensor)| tensor.data.iter().copied())
                    .collect()
            };
            let (r, m) = (flat(&reference), flat(&mapped));
            (
                pimcomp_exec::rmse(&m, &r),
                pimcomp_exec::top1(&m) == pimcomp_exec::top1(&r),
            )
        }))
    }
}

impl Workload for VerifyResnet18 {
    fn pass(&mut self, t: &mut Tracer, c: &mut Checks) -> (f64, f64) {
        let mut legs = [0.0; 2];
        for (i, case) in self.cases.iter_mut().enumerate() {
            let t0 = Instant::now();
            let plain = Self::verify(t, case, self.seed, None);
            legs[0] += t0.elapsed().as_secs_f64();
            if let Some((rmse, top1)) = c.op(plain, &case.name) {
                c.check(rmse <= 1e-4 && top1, || {
                    format!("{}: unquantized RMSE {rmse:e}, top-1 {top1}", case.name)
                });
                if i == 0 {
                    t.count("exec.rmse_f32", rmse);
                }
            }
            let t0 = Instant::now();
            let q8 = Self::verify(t, case, self.seed, Some(case.quant));
            legs[1] += t0.elapsed().as_secs_f64();
            if let Some((rmse, _)) = c.op(q8, &case.name) {
                let bits = *case.first_q8.get_or_insert(rmse.to_bits());
                c.check(bits == rmse.to_bits() && rmse.is_finite(), || {
                    format!("{}: 8-bit RMSE {rmse:e} differs from pass 1", case.name)
                });
                if i == 0 {
                    t.count("exec.rmse_q8", rmse);
                }
            }
        }
        (legs[0], legs[1])
    }
}
