//! Golden-trace regression tests: compact JSON summaries of compiled
//! artifacts (fitness, replication, core-assignment counts, schedule
//! lengths) for fixed models/seeds/modes, committed under
//! `tests/golden/`. Any drift in compilation output fails with a
//! line-level diff against the fixture.
//!
//! To bless intentional changes (new GA behavior, schedule changes),
//! regenerate the fixtures with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and commit the rewritten files alongside the change that caused
//! them.

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    CompileOptions, CompileSession, CompiledModel, GaParams, PumaCompiler, ReusePolicy, Schedule,
};
use pimcomp_ir::models;
use pimcomp_sim::Simulator;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The drift-sensitive facts of one compilation, kept deliberately
/// small and human-readable so a fixture diff tells you *what* moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Trace {
    model: String,
    mode: String,
    seed: u64,
    ga_population: usize,
    ga_iterations: usize,
    /// The mode's analytic fitness of the final mapping (cycles).
    estimated_fitness: f64,
    /// GA trace endpoints and engine counters. `None` for over-budget
    /// `weight_reload` compilations, whose deterministic epoch packer
    /// replaces the GA entirely.
    ga_initial_fitness: Option<f64>,
    ga_final_fitness: Option<f64>,
    ga_evaluations: Option<usize>,
    ga_incremental_evals: Option<usize>,
    ga_cache_hits: Option<usize>,
    /// Final replica count per partitioned node.
    replication: Vec<usize>,
    /// Cores hosting at least one AG.
    active_cores: usize,
    /// Crossbars occupied by weights.
    crossbars_used: usize,
    /// AG instances assigned to each core (index = core id).
    per_core_ag_counts: Vec<usize>,
    /// Schedule length summary, mode-dependent.
    schedule: ScheduleTrace,
    /// Local-memory plan peak, in bytes.
    memory_peak_bytes: usize,
    /// Weight-reloading schedule summary. `None` unless the model was
    /// compiled with `weight_reload`.
    reload: Option<ReloadTrace>,
}

/// The drift-sensitive facts of a [`pimcomp_core::ReloadPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ReloadTrace {
    budget: usize,
    ring_cores: usize,
    epochs: usize,
    total_ags_written: usize,
    total_cells_written: u64,
    total_write_cycles: u64,
    total_compute_cycles: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ScheduleTrace {
    /// HT: per-node-per-core programs, vector tasks, total rounds.
    Ht {
        programs: usize,
        vec_tasks: usize,
        total_rounds: usize,
    },
    /// LL: pipeline units and total replica streams.
    Ll { units: usize, total_replicas: usize },
}

fn trace_of(model: &CompiledModel, seed: u64, ga: &GaParams) -> Trace {
    let stats = model.report.ga.as_ref();
    let schedule = match &model.schedule {
        Schedule::HighThroughput(ht) => ScheduleTrace::Ht {
            programs: ht.programs.len(),
            vec_tasks: ht.vec_tasks.len(),
            total_rounds: ht.programs.iter().map(|p| p.rounds).sum(),
        },
        Schedule::LowLatency(ll) => ScheduleTrace::Ll {
            units: ll.units.len(),
            total_replicas: ll.units.iter().map(|u| u.replicas.len()).sum(),
        },
    };
    Trace {
        model: model.graph.name().to_string(),
        mode: model.mode.to_string(),
        seed,
        ga_population: ga.population,
        ga_iterations: ga.iterations,
        estimated_fitness: model.report.estimated_fitness,
        ga_initial_fitness: stats.map(|s| s.initial_fitness),
        ga_final_fitness: stats.map(|s| s.final_fitness),
        ga_evaluations: stats.map(|s| s.evaluations),
        ga_incremental_evals: stats.map(|s| s.incremental_evals),
        ga_cache_hits: stats.map(|s| s.cache_hits),
        replication: model.mapping.replication.counts().to_vec(),
        active_cores: model.mapping.active_cores(),
        crossbars_used: model.crossbars_used(),
        per_core_ag_counts: model.mapping.per_core.iter().map(Vec::len).collect(),
        schedule,
        memory_peak_bytes: model.memory.peak_bytes,
        reload: model.reload.as_ref().map(|r| ReloadTrace {
            budget: r.budget,
            ring_cores: r.ring_cores,
            epochs: r.epoch_count(),
            total_ags_written: r.total_ags_written,
            total_cells_written: r.total_cells_written,
            total_write_cycles: r.total_write_cycles,
            total_compute_cycles: r.total_compute_cycles,
        }),
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Renders a readable line diff of fixture vs actual.
fn diff(expected: &str, actual: &str) -> String {
    let mut out = String::new();
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(el), Some(al)) if el == al => {}
            (el, al) => {
                out.push_str(&format!(
                    "  line {:>3}: fixture `{}` vs actual `{}`\n",
                    i + 1,
                    el.copied().unwrap_or("<missing>"),
                    al.copied().unwrap_or("<missing>")
                ));
            }
        }
    }
    out
}

fn check(name: &str, model: &CompiledModel, seed: u64, ga: &GaParams) {
    let trace = trace_of(model, seed, ga);
    let actual = serde_json::to_string_pretty(&trace).expect("trace serializes");
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual + "\n").expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden_traces` to create it",
            path.display()
        )
    });
    // Round-trip both sides through the Trace type so the comparison is
    // structural first (field renames fail loudly), textual second.
    let expected_trace: Trace = serde_json::from_str(expected.trim()).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} no longer parses ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected_trace == trace && expected.trim() == actual.trim(),
        "compilation output drifted from golden fixture {}:\n{}\
         if the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test golden_traces` and commit the fixture",
        path.display(),
        diff(expected.trim(), actual.trim())
    );
}

fn compile_small(mode: PipelineMode, seed: u64) -> (CompiledModel, GaParams) {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let ga = GaParams::fast(seed);
    let opts = CompileOptions::new(mode).with_ga(ga.clone());
    let model = CompileSession::new(hw, &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    (model, ga)
}

/// Sizes a PUMA target like the CLI default: 2x headroom over the
/// single-replica demand.
fn sized_puma(graph: &pimcomp_ir::Graph) -> HardwareConfig {
    let normalized = pimcomp_ir::transform::normalize(graph).unwrap();
    let chips = pimcomp_core::sized_chips(
        &normalized,
        &HardwareConfig::puma(),
        pimcomp_core::DEFAULT_HEADROOM,
    )
    .unwrap();
    HardwareConfig::puma_with_chips(chips)
}

fn compile_resnet(mode: PipelineMode, seed: u64) -> (CompiledModel, GaParams) {
    let graph = pimcomp_ir::models::resnet18();
    let hw = sized_puma(&graph);
    let ga = GaParams {
        population: 8,
        iterations: 6,
        ..GaParams::fast(seed)
    };
    let opts = CompileOptions::new(mode).with_ga(ga.clone());
    let model = CompileSession::new(hw, &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    (model, ga)
}

fn compile_resnet_reload_chip1(seed: u64) -> (CompiledModel, GaParams) {
    // A single chip cannot hold resnet18's weights, so `weight_reload`
    // has to split the mapping into epochs: the deterministic packer
    // runs instead of the GA, and the trace pins the whole reload
    // schedule (epoch count, rewrites, stall cycles).
    let graph = pimcomp_ir::models::resnet18();
    let hw = HardwareConfig::puma_with_chips(1);
    let ga = GaParams::fast(seed);
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(ga.clone())
        .with_weight_reload(None);
    let model = CompileSession::new(hw, &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    (model, ga)
}

fn compile_tiny_bert(mode: PipelineMode, seed: u64, seq: usize) -> (CompiledModel, GaParams) {
    let graph = pimcomp_ir::models::tiny_bert();
    let hw = HardwareConfig::puma_with_chips(1);
    let ga = GaParams::fast(seed);
    let opts = CompileOptions::new(mode)
        .with_ga(ga.clone())
        .with_seq_len(seq);
    let model = CompileSession::new(hw, &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    (model, ga)
}

#[test]
fn tiny_bert_ht_trace_matches_golden() {
    let (model, ga) = compile_tiny_bert(PipelineMode::HighThroughput, 7, 64);
    check("tiny_bert_ht_seed7", &model, 7, &ga);
}

#[test]
fn tiny_bert_traces_are_thread_count_invariant() {
    let (serial, ga) = compile_tiny_bert(PipelineMode::HighThroughput, 7, 64);
    let graph = pimcomp_ir::models::tiny_bert();
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(ga.clone())
        .with_seq_len(64)
        .with_parallelism(std::num::NonZeroUsize::new(4));
    let parallel = CompileSession::new(HardwareConfig::puma_with_chips(1), &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(trace_of(&serial, 7, &ga), trace_of(&parallel, 7, &ga));
}

#[test]
fn tiny_bert_seq_binding_changes_latency_deterministically() {
    // Two different sequence lengths give different schedules (more
    // windows, more vector work), while recompiling at the same length
    // reproduces the identical trace.
    let (s64, ga) = compile_tiny_bert(PipelineMode::HighThroughput, 7, 64);
    let (s64b, _) = compile_tiny_bert(PipelineMode::HighThroughput, 7, 64);
    let (s128, _) = compile_tiny_bert(PipelineMode::HighThroughput, 7, 128);
    assert_eq!(trace_of(&s64, 7, &ga), trace_of(&s64b, 7, &ga));
    assert_ne!(
        s64.report.estimated_fitness, s128.report.estimated_fitness,
        "sequence length must be priced into the fitness"
    );
}

#[test]
fn small_ht_trace_matches_golden() {
    let (model, ga) = compile_small(PipelineMode::HighThroughput, 7);
    check("small_ht_seed7", &model, 7, &ga);
}

#[test]
fn small_ll_trace_matches_golden() {
    let (model, ga) = compile_small(PipelineMode::LowLatency, 7);
    check("small_ll_seed7", &model, 7, &ga);
}

#[test]
fn resnet_ht_trace_matches_golden() {
    let (model, ga) = compile_resnet(PipelineMode::HighThroughput, 42);
    check("resnet_ht_seed42", &model, 42, &ga);
}

#[test]
fn resnet_ll_trace_matches_golden() {
    let (model, ga) = compile_resnet(PipelineMode::LowLatency, 42);
    check("resnet_ll_seed42", &model, 42, &ga);
}

#[test]
fn resnet_reload_chip1_trace_matches_golden() {
    let (model, ga) = compile_resnet_reload_chip1(7);
    let reload = model.reload.as_ref().expect("reload-mode artifact");
    assert!(
        reload.epoch_count() > 1 && reload.total_write_cycles > 0,
        "chips:1 resnet18 should be over budget and pay reload stalls"
    );
    assert!(model.report.ga.is_none(), "epoch packer bypasses the GA");
    check("resnet_reload_chip1_ht_seed7", &model, 7, &ga);
}

#[test]
fn traces_are_thread_count_invariant() {
    // The golden fixtures are equally valid under the parallel engine:
    // recompiling with 4 workers reproduces the identical trace.
    let (serial, ga) = compile_small(PipelineMode::HighThroughput, 7);
    let graph = pimcomp_ir::models::tiny_cnn();
    let opts = CompileOptions::new(PipelineMode::HighThroughput)
        .with_ga(ga.clone())
        .with_parallelism(std::num::NonZeroUsize::new(4));
    let parallel = CompileSession::new(HardwareConfig::small_test(), &graph, opts)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(trace_of(&serial, 7, &ga), trace_of(&parallel, 7, &ga));
}

/// One simulation per line of `{ht,ll}_sim_reports.json`:
/// `"<model>/<mapping>": <SimReport as compact JSON>`.
fn report_line(key: &str, hw: &HardwareConfig, model: &CompiledModel) -> String {
    let report = Simulator::new(hw.clone())
        .run(model)
        .unwrap_or_else(|e| panic!("{key}: simulation failed: {e}"));
    let counted = (report.mvm_ops, report.vfu_elems, report.noc_bytes);
    assert_eq!(
        counted,
        schedule_counters(key, model),
        "{key}: (mvm_ops, vfu_elems, noc_bytes) differ from the schedule's"
    );
    let json = serde_json::to_string(&report).expect("report serializes");
    format!("\"{key}\": {json}")
}

/// The MVM issues, VFU element-operations and NoC bytes a simulation of
/// `model` must count, in closed form from its schedule alone (not from
/// the cost tables the engines read).
fn schedule_counters(key: &str, model: &CompiledModel) -> (u64, u64, u64) {
    let (mvm, vfu, noc): (usize, usize, usize) = match &model.schedule {
        Schedule::HighThroughput(s) => {
            let programs = || s.programs.iter();
            // Every round issues a full `batch` of MVMs per AG, the last
            // one too: a node whose windows are not a multiple of the
            // batch runs MVMs for windows it does not have in its padded
            // last round, so the count bounds the work from above.
            let mvm = programs()
                .map(|p| p.rounds * s.batch * p.ag_instances.len())
                .sum();
            let work: usize = programs().map(|p| p.windows * p.ag_instances.len()).sum();
            assert!(mvm >= work, "{key}: {mvm} MVMs issued for {work} of work");
            let vfu = programs()
                .map(|p| p.rounds * p.vec_elems_per_round)
                .chain(s.vec_tasks.iter().map(|t| t.elems))
                .sum();
            let sends =
                programs().flat_map(|p| p.sends_per_round.iter().map(|m| p.rounds * m.bytes));
            (mvm, vfu, sends.sum())
        }
        Schedule::LowLatency(s) => {
            let eb = model.hw.input_bytes_per_element();
            let units = || s.units.iter();
            // Each window, every core of a replica but its owner sends
            // the owner one partial row.
            let partials = units().flat_map(|u| {
                u.replicas.iter().map(|r| {
                    let senders = r.ags_per_core.iter().filter(|&&(c, _)| c != r.owner);
                    r.windows * senders.count() * u.elems_per_window * eb
                })
            });
            (
                units().map(|u| u.windows * u.ags_per_replica).sum(),
                units().map(|u| u.windows * u.vfu_elems_per_window).sum(),
                partials.sum(),
            )
        }
    };
    (mvm as u64, vfu as u64, noc as u64)
}

/// Every report of one model in `mode`: GA seeds {1, 7, 42} x `batches`
/// x the three memory policies, plus the PUMA-like baseline mapping.
/// An empty `batches` keeps the scheduled batch and leaves it out of the
/// key (LL streams one inference).
fn report_lines(
    name: &str,
    graph: &pimcomp_ir::Graph,
    hw: &HardwareConfig,
    mode: PipelineMode,
    batches: &[usize],
) -> Vec<String> {
    let mut lines = Vec::new();
    for seed in [1u64, 7, 42] {
        let opts = CompileOptions::new(mode).with_ga(GaParams::fast(seed));
        let scheduled = CompileSession::new(hw.clone(), graph, opts)
            .and_then(CompileSession::partition)
            .and_then(|p| p.optimize())
            .and_then(|o| o.schedule())
            .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        let rebatched: Vec<_> = if batches.is_empty() {
            vec![(String::new(), scheduled)]
        } else {
            batches
                .iter()
                .map(|&b| {
                    let s = scheduled.clone().rebatch(b).expect("valid batch");
                    (format!("/batch{b}"), s)
                })
                .collect()
        };
        for (batch, rebatched) in &rebatched {
            for policy in ReusePolicy::ALL {
                let model = rebatched.clone().replan_memory(policy).finish();
                let key = format!("{name}/seed{seed}{batch}/{policy:?}");
                lines.push(report_line(&key, hw, &model));
            }
        }
    }
    let baseline = PumaCompiler::new(hw.clone())
        .compile(graph, &CompileOptions::new(mode))
        .unwrap_or_else(|e| panic!("{name} baseline: {e}"));
    lines.push(report_line(&format!("{name}/puma"), hw, &baseline));
    lines
}

/// Checks (or, under `UPDATE_GOLDEN=1` from a release build, rewrites)
/// `tests/golden/<file>`: the full serialized `SimReport` (cycles,
/// counters, energy, per-core busy times) of every zoo mapping of
/// [`report_lines`] must stay byte-identical across engine rewrites.
/// With `full` off only the small models are checked (debug builds;
/// the release test job checks the zoo).
///
/// The zoo runs at the default parallelism, then the `spread` models
/// again at parallelism 1 and 200: at 1 an MVM issue takes the whole
/// `T_MVM`, so event times run more than 2^14 cycles ahead of the clock
/// (the event queue's high buckets); at 200 many events share one time
/// (its current-time ordering).
fn check_sim_reports(
    file: &str,
    mode: PipelineMode,
    batches: &[usize],
    spread: &[&str],
    full: bool,
) {
    let small = HardwareConfig::small_test();
    let mut cases: Vec<(String, pimcomp_ir::Graph, HardwareConfig)> = vec![
        ("tiny_cnn".into(), models::tiny_cnn(), small.clone()),
        ("tiny_mlp".into(), models::tiny_mlp(), small.clone()),
        ("two_branch".into(), models::two_branch(), small),
    ];
    if full {
        let bert = pimcomp_ir::transform::bind_seq_len(&models::tiny_bert(), 64).unwrap();
        cases.push(("tiny_bert".into(), bert, HardwareConfig::puma_with_chips(1)));
        for name in models::PAPER_BENCHMARKS {
            let graph = models::by_name(name).expect("paper benchmark resolves");
            let hw = sized_puma(&graph);
            cases.push((name.into(), graph, hw));
        }
        for &name in spread {
            for parallelism in [1, 200] {
                let graph = models::by_name(name).expect("zoo model resolves");
                let hw = sized_puma(&graph).with_parallelism(parallelism);
                cases.push((format!("{name}/parallelism{parallelism}"), graph, hw));
            }
        }
    }
    let actual: Vec<String> = cases
        .iter()
        .flat_map(|(name, graph, hw)| report_lines(name, graph, hw, mode, batches))
        .collect();

    let path = golden_dir().join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        assert!(full, "regenerate {file} from a release build");
        std::fs::write(&path, format!("{{\n{}\n}}\n", actual.join(",\n"))).expect("write fixture");
        return;
    }
    // Fixture lines are in case order, small models first, so a debug
    // run checks a prefix of them.
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let expected: Vec<&str> = fixture
        .lines()
        .filter(|l| l.starts_with('"'))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert!(
        expected.len() >= actual.len() && (!full || expected.len() == actual.len()),
        "fixture holds {} cases, this run produced {}",
        expected.len(),
        actual.len()
    );
    for (want, line) in expected.iter().zip(&actual) {
        assert!(
            want == line,
            "{mode} SimReport drifted from golden fixture {}:\n  fixture {want}\n  actual  {line}",
            path.display()
        );
    }
}

#[test]
fn ht_sim_reports_match_golden() {
    // Pins the HT event engine (PR 12's fixture, generated on the
    // engine it replaced).
    check_ht_sim_reports(!cfg!(debug_assertions));
}

/// The `sweep_zoo` models, then the two whose HT runs hold the most
/// tokens parked on blocked cores.
fn check_ht_sim_reports(full: bool) {
    check_sim_reports(
        "ht_sim_reports.json",
        PipelineMode::HighThroughput,
        &[1, 2],
        &[
            "squeezenet",
            "resnet18",
            "googlenet",
            "vgg16",
            "inception_v3",
        ],
        full,
    );
}

#[test]
fn ll_sim_reports_match_golden() {
    // Pins the LL event engine: generated on the engine that rescanned
    // every replica after every window, before the per-unit prefix.
    check_ll_sim_reports(!cfg!(debug_assertions));
}

/// The `sweep_zoo` models, then the two whose LL runs pop the most
/// windows.
fn check_ll_sim_reports(full: bool) {
    check_sim_reports(
        "ll_sim_reports.json",
        PipelineMode::LowLatency,
        &[],
        &[
            "squeezenet",
            "resnet18",
            "googlenet",
            "vgg16",
            "inception_v3",
        ],
        full,
    );
}

/// Every zoo mapping whatever the build: CI's `test-release` job asks
/// for this one with `-C debug-assertions=on`, so the engines' checks —
/// the event queue's monotone pushes, the LL prefix oracle, the HT round
/// bound — see the paper's mappings, which release builds strip them
/// from and debug builds are too slow to reach.
#[test]
#[ignore = "minutes unoptimized: run in release with debug assertions on"]
fn sim_reports_match_golden_under_debug_assertions() {
    if cfg!(debug_assertions) {
        check_ht_sim_reports(true);
        check_ll_sim_reports(true);
    }
}

/// The columns of `ga_results.tsv`.
const GA_RESULTS_HEADER: &str = "# model\tmode\ttarget\tseed\tfingerprint\tinitial_fitness_bits\t\
     final_fitness_bits\tevaluations\tfull_evals\tincremental_evals\tcache_hits\t\
     grow_successes\tgrow_failures";

/// One GA run (`population` x `iterations` generations) as a
/// `ga_results.tsv` row: the best chromosome's fingerprint, the fitness
/// endpoints as `f64::to_bits` hex, and the six `GaStats` counters.
fn ga_result_line(
    name: &str,
    target: &str,
    ctx: &pimcomp_core::GaContext<'_>,
    (population, iterations): (usize, usize),
    seed: u64,
) -> String {
    let params = GaParams {
        population,
        iterations,
        seed,
        ..GaParams::default()
    };
    let (best, s) = pimcomp_core::optimize(ctx, &params, &mut |_| {})
        .unwrap_or_else(|e| panic!("{name}/{}/{target}/seed {seed}: {e}", ctx.mode));
    format!(
        "{name}\t{}\t{target}\t{seed}\t{:032x}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}",
        ctx.mode,
        best.fingerprint(),
        s.initial_fitness.to_bits(),
        s.final_fitness.to_bits(),
        s.evaluations,
        s.full_evals,
        s.incremental_evals,
        s.cache_hits,
        s.grow_successes,
        s.grow_failures
    )
}

/// Every GA row of one model on its auto-sized PUMA target. At the
/// small budget (population 20 x 30 generations): {HT, LL} x GA seeds
/// {1, 7, 42} over every core, plus one HT row restricted to a
/// `core_limit` prefix holding 1.5x the single-replica demand — the
/// context a `weight_reload` compilation whose budget fits hands the
/// GA. (On one chip a model over budget takes the epoch packer, which
/// runs no GA, and a model that fits is limited to the whole chip, so a
/// one-chip row would pin no prefix.) With `paper_scale`, instead the
/// two rows {HT, LL} at the paper's 100 x 200 and seed 1 — the search
/// the ledger's `compile_paper` times.
fn ga_result_lines(name: &str, graph: &pimcomp_ir::Graph, paper_scale: bool) -> Vec<String> {
    use pimcomp_core::{DepInfo, GaContext, Partitioning};
    let graph = pimcomp_ir::transform::normalize(graph).unwrap();
    let hw = sized_puma(&graph);
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let mut ctx = GaContext {
        hw: &hw,
        graph: &graph,
        partitioning: &partitioning,
        dep: &dep,
        mode: PipelineMode::HighThroughput,
        core_limit: None,
    };
    let (target, budget, seeds): (_, _, &[u64]) = if paper_scale {
        ("auto@100x200", (100, 200), &[1])
    } else {
        ("auto", (20, 30), &[1, 7, 42])
    };
    let mut lines = Vec::new();
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        ctx.mode = mode;
        for &seed in seeds {
            lines.push(ga_result_line(name, target, &ctx, budget, seed));
        }
    }
    if paper_scale {
        return lines;
    }
    ctx.mode = PipelineMode::HighThroughput;
    let prefix = (partitioning.min_crossbars() * 3 / 2)
        .div_ceil(hw.crossbar_capacity_per_core())
        .min(hw.total_cores());
    ctx.core_limit = Some(prefix);
    lines.push(ga_result_line(
        name,
        &format!("prefix{prefix}"),
        &ctx,
        (20, 30),
        7,
    ));
    lines
}

#[test]
fn ga_results_match_golden() {
    check_ga_results(!cfg!(debug_assertions));
}

/// Every row whatever the build: CI's `test-release` job asks for this
/// one with `-C debug-assertions=on`, so the GA's `debug_assert!`s (the
/// draft's slot invariant, "a rescan finds the reported room") see the
/// paper's grids, which release builds strip them from and debug builds
/// are too slow to reach.
#[test]
#[ignore = "minutes unoptimized: run in release with debug assertions on"]
fn ga_results_match_golden_under_debug_assertions() {
    if cfg!(debug_assertions) {
        check_ga_results(true);
    }
}

fn check_ga_results(full: bool) {
    // Pins the GA itself — which chromosome wins, at which fitness,
    // after how many evaluations of which kind — on the wide paper
    // targets in both modes, so a rewrite of the placement, mutation or
    // evaluation kernels that draws a different RNG sequence or counts
    // an evaluation differently fails here, row by row. Debug builds
    // check the two small models; the release test job checks (and
    // `UPDATE_GOLDEN=1` regenerates) every row, ending with the two
    // widest paper targets at the paper's own budget (generated on the
    // commit before PR 21 narrowed the gene grid).
    let bert = pimcomp_ir::transform::bind_seq_len(&models::tiny_bert(), 64).unwrap();
    let mut cases: Vec<(&str, pimcomp_ir::Graph)> =
        vec![("tiny_bert", bert), ("squeezenet", models::squeezenet())];
    if full {
        for name in models::PAPER_BENCHMARKS {
            if name != "squeezenet" {
                cases.push((
                    name,
                    models::by_name(name).expect("paper benchmark resolves"),
                ));
            }
        }
    }
    let mut actual: Vec<String> = cases
        .iter()
        .flat_map(|(name, graph)| ga_result_lines(name, graph, false))
        .collect();
    if full {
        for name in ["vgg16", "inception_v3"] {
            let graph = models::by_name(name).expect("paper benchmark resolves");
            actual.extend(ga_result_lines(name, &graph, true));
        }
    }

    let path = golden_dir().join("ga_results.tsv");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        assert!(full, "regenerate ga_results.tsv from a release build");
        let body = format!("{GA_RESULTS_HEADER}\n{}\n", actual.join("\n"));
        std::fs::write(&path, body).expect("write fixture");
        return;
    }
    // Rows are in case order, small models first, so a debug run
    // checks a prefix of them.
    let fixture = std::fs::read_to_string(&path).expect("tests/golden/ga_results.tsv");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        expected.len() >= actual.len() && (!full || expected.len() == actual.len()),
        "fixture holds {} rows, this run produced {}",
        expected.len(),
        actual.len()
    );
    for (want, line) in expected.iter().zip(&actual) {
        assert!(
            want == line,
            "GA result drifted from golden fixture {}:\n  {GA_RESULTS_HEADER}\n  fixture {want}\n  actual  {line}",
            path.display()
        );
    }
}

/// A graph whose node ids are not a topological order (`x` is node 6,
/// `d1` node 0): a `BatchNorm` and a `Dropout` inside the chain, a
/// trailing `Dropout` after `fc`, a side branch nothing reads (`side`,
/// an output, kept) and an input read only by a dropout (`aux`, which
/// the splice orphans and pruning drops).
const SHUFFLED_GRAPH: &str = r#"{"name":"shuffled","nodes":[
{"id":0,"name":"d1","op":"Dropout","inputs":[9],"output_shape":[8,8,8]},
{"id":1,"name":"aux","op":{"Input":{"shape":[1,1,1]}},"inputs":[],"output_shape":[1,1,1]},
{"id":2,"name":"bn1","op":"BatchNorm","inputs":[11],"output_shape":[8,8,8]},
{"id":3,"name":"flat","op":"Flatten","inputs":[4],"output_shape":[512]},
{"id":4,"name":"c2","op":{"Conv2d":{"in_channels":8,"out_channels":8,"kernel":[1,1],"stride":[1,1],"padding":[0,0],"groups":1,"bias":true}},"inputs":[0],"output_shape":[8,8,8]},
{"id":5,"name":"d2","op":"Dropout","inputs":[8],"output_shape":[10]},
{"id":6,"name":"x","op":{"Input":{"shape":[4,8,8]}},"inputs":[],"output_shape":[4,8,8]},
{"id":7,"name":"aux_drop","op":"Dropout","inputs":[1],"output_shape":[1,1,1]},
{"id":8,"name":"fc","op":{"Linear":{"in_features":512,"out_features":10,"bias":true}},"inputs":[3],"output_shape":[10]},
{"id":9,"name":"r1","op":{"Activation":"Relu"},"inputs":[2],"output_shape":[8,8,8]},
{"id":10,"name":"side","op":{"Conv2d":{"in_channels":4,"out_channels":2,"kernel":[1,1],"stride":[1,1],"padding":[0,0],"groups":1,"bias":true}},"inputs":[6],"output_shape":[2,8,8]},
{"id":11,"name":"c1","op":{"Conv2d":{"in_channels":4,"out_channels":8,"kernel":[3,3],"stride":[1,1],"padding":[1,1],"groups":1,"bias":true}},"inputs":[6],"output_shape":[8,8,8]}
]}"#;

/// An attention block with a `Dropout` between the `Softmax` and the
/// context `Bmm`; splicing the dropout out first lets the block fuse.
fn dropout_attention() -> pimcomp_ir::Graph {
    let mut b = pimcomp_ir::GraphBuilder::new("dropout_attention");
    let x = b.input_seq("x", 64);
    let q = b.matmul("q", x, 64).unwrap();
    let k = b.matmul("k", x, 64).unwrap();
    let v = b.matmul("v", x, 64).unwrap();
    let s = b.bmm("scores", q, k, true, true).unwrap();
    let sm = b.softmax("probs", s).unwrap();
    let d = b.dropout("probs_drop", sm).unwrap();
    let ctx = b.bmm("ctx", d, v, false, false).unwrap();
    let _out = b.matmul("out", ctx, 64).unwrap();
    b.finish().unwrap()
}

/// `graph` deserialized with its node ids reversed: every edge runs
/// from a higher id to a lower one.
fn with_reversed_ids(graph: &pimcomp_ir::Graph) -> pimcomp_ir::Graph {
    use pimcomp_ir::{Node, NodeId};
    #[derive(Serialize)]
    struct Parts {
        name: String,
        nodes: Vec<Node>,
    }
    let last = graph.node_count() - 1;
    let flip = |id: NodeId| NodeId(last - id.0);
    let nodes = graph
        .nodes()
        .iter()
        .rev()
        .map(|n| Node {
            id: flip(n.id),
            inputs: n.inputs.iter().map(|&i| flip(i)).collect(),
            ..n.clone()
        })
        .collect();
    let parts = Parts {
        name: graph.name().to_string(),
        nodes,
    };
    serde_json::from_str(&serde_json::to_string(&parts).unwrap()).unwrap()
}

/// Every graph `NORMALIZED` pins, by row name: the zoo and the test
/// models, tiny_bert also bound at 16, seven of them with reversed ids,
/// and the two hand-built graphs above.
fn normalize_cases() -> Vec<(String, pimcomp_ir::Graph)> {
    let mut cases: Vec<(String, pimcomp_ir::Graph)> = models::ZOO
        .iter()
        .map(|&m| (m.to_string(), models::by_name(m).unwrap()))
        .chain(
            models::TEST_MODELS
                .iter()
                .map(|&m| (m.to_string(), models::test_model(m).unwrap())),
        )
        .collect();
    let bert16 = pimcomp_ir::transform::bind_seq_len(&models::tiny_bert(), 16).unwrap();
    cases.push(("tiny_bert@16".into(), bert16));
    for name in [
        "vgg16",
        "resnet18",
        "googlenet",
        "inception_v3",
        "squeezenet",
        "two_branch",
        "tiny_bert@16",
    ] {
        let graph = &cases.iter().find(|(n, _)| n == name).unwrap().1;
        let reversed = with_reversed_ids(graph);
        cases.push((format!("reversed/{name}"), reversed));
    }
    cases.push((
        "shuffled".into(),
        serde_json::from_str(SHUFFLED_GRAPH).unwrap(),
    ));
    cases.push(("dropout_attention".into(), dropout_attention()));
    cases
}

/// `transform::normalize`'s output on every `normalize_cases` graph:
/// (row, node count, `graph_fingerprint`). A rewrite of the passes must
/// leave every row as it is.
const NORMALIZED: [(&str, usize, u64); 22] = [
    ("vgg16", 39, 0xc2d0ece1a8cf1e33),
    ("resnet18", 50, 0xa8c99d19f491c419),
    ("resnet34", 90, 0xda0109c95b41d9ae),
    ("resnet50", 123, 0xfeb78de019228c9f),
    ("googlenet", 142, 0xec67ae067613c57a),
    ("inception_v3", 220, 0x3b9f7dd691caa89e),
    ("squeezenet", 66, 0x63ed971dcd57472c),
    ("tiny_bert", 25, 0x67e24a217cf78d77),
    ("tiny_cnn", 11, 0xe4d349d6b18fda75),
    ("tiny_mlp", 4, 0x57235229823473be),
    ("two_branch", 10, 0xccca60334708c8af),
    ("linear_chain", 5, 0x92308dbf0afb86b0),
    ("tiny_bert@16", 25, 0x9735c6b150022479),
    ("reversed/vgg16", 39, 0xc2d0ece1a8cf1e33),
    ("reversed/resnet18", 50, 0xaf22151559366da1),
    ("reversed/googlenet", 142, 0xab852bec8ce0cdfe),
    ("reversed/inception_v3", 220, 0x0ba1c65e1e0ac5e2),
    ("reversed/squeezenet", 66, 0xa11a90a71586fafc),
    ("reversed/two_branch", 10, 0xf5c4173e51a5267f),
    ("reversed/tiny_bert@16", 25, 0xd114fd2359c46f05),
    ("shuffled", 7, 0xe9ffdee9fed7e913),
    ("dropout_attention", 6, 0x2f191720aa0e6a8b),
];

#[test]
fn normalized_graphs_match_golden() {
    let actual: Vec<(String, usize, u64)> = normalize_cases()
        .into_iter()
        .map(|(name, graph)| {
            let n =
                pimcomp_ir::transform::normalize(&graph).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, n.node_count(), pimcomp_core::graph_fingerprint(&n))
        })
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|(name, n, fp)| format!("    (\"{name}\", {n}, 0x{fp:016x}),"))
        .collect();
    let want: Vec<(String, usize, u64)> = NORMALIZED
        .iter()
        .map(|&(name, n, fp)| (name.to_string(), n, fp))
        .collect();
    assert!(
        actual == want,
        "normalize drifted; rows now:\n{}",
        rows.join("\n")
    );
}
