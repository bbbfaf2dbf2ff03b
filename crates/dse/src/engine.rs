//! The exploration engine: deterministic fan-out of sweep points over
//! the core worker pool, with per-point artifact caching and an
//! optional guided (successive-halving) search mode.

use crate::axis::{Mapping, AXES};
use crate::cache::{self, EvictionStats};
use crate::report::{PointMetrics, PointRecord, SweepReport};
use crate::spec::{invalid, HalvingSpec, SearchStrategy, SweepPoint, SweepSpec};
use crate::{resolve_model, ExploreError};
use pimcomp_arch::PipelineMode;
use pimcomp_core::{
    graph_fingerprint, hardware_fingerprint, options_fingerprint, run_indexed, CompileObserver,
    CompileOptions, CompileSession, CompiledArtifact, CompiledModel, GaParams, NullObserver,
    PumaCompiler,
};
use pimcomp_ir::Graph;
use pimcomp_sim::Simulator;
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The result of one sweep: the deterministic report plus the run's
/// cache statistics and budget accounting.
///
/// Cache statistics live *outside* [`SweepReport`] on purpose: whether
/// a point was compiled or replayed from a cached artifact changes
/// wall-clock time only, never the report bytes, so two runs of the
/// same spec — cold or warm, 1 thread or 16 — emit identical reports.
/// The [`BudgetSummary`] is deterministic (it counts evaluations, not
/// wall-clock) but stays outside the report as well so the report shape
/// depends only on per-point outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// The versioned sweep report.
    pub report: SweepReport,
    /// Points the cache answered, from either entry kind.
    pub cache_hits: usize,
    /// Of [`ExploreOutcome::cache_hits`], the points a metrics sidecar
    /// answered — no artifact loaded, no simulation run; the rest
    /// loaded their artifact and were measured again.
    pub metrics_hits: usize,
    /// Points compiled from scratch this run.
    pub cache_misses: usize,
    /// Evaluation accounting: what the search strategy spent versus
    /// what an exhaustive sweep would have.
    pub budget: BudgetSummary,
    /// Cache-eviction accounting when a size limit is configured
    /// ([`ExploreEngine::with_cache_limit_mb`]); `None` otherwise.
    /// Like the hit/miss counters this never affects the report bytes.
    pub eviction: Option<EvictionStats>,
}

/// What one search rung evaluated and dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct RungSummary {
    /// GA generation budget of this rung.
    pub budget: usize,
    /// Points evaluated at this rung.
    pub evaluated: usize,
    /// Points that failed to compile or simulate at this rung (they do
    /// not advance).
    pub failed: usize,
    /// Points dropped by dominance pruning after this rung.
    pub pruned: usize,
    /// Points dropped by the keep-fraction cut after this rung.
    pub halved: usize,
}

/// Deterministic evaluation accounting for a sweep: how many GA
/// generations the strategy spent and how many full-budget evaluations
/// it performed, against the exhaustive baseline on the same spec.
/// Printed by `pimcomp explore --budget-summary`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSummary {
    /// The strategy that produced this sweep (`exhaustive` /
    /// `halving`).
    pub strategy: String,
    /// Points in the expanded sweep.
    pub points: usize,
    /// Per-rung accounting, in rung order.
    pub rungs: Vec<RungSummary>,
    /// Points that compiled at the first rung. Compile failures depend
    /// only on (model, hardware) — never on the GA budget — so this is
    /// exactly the number of full-budget GA runs an exhaustive sweep of
    /// the same spec performs, and the baseline
    /// [`BudgetSummary::full_budget_evaluations_saved`] measures
    /// against.
    pub compilable_points: usize,
    /// Points whose GA actually ran at the full budget (the final
    /// rung); compile failures never run their GA and are not counted,
    /// keeping this consistent with [`BudgetSummary::generations_spent`].
    /// Exhaustive sweeps run every compilable point at full budget;
    /// halving runs strictly fewer whenever anything was halved or
    /// pruned.
    pub full_budget_evaluations: usize,
    /// GA generations spent across every (point, rung) evaluation.
    pub generations_spent: u64,
    /// GA generations an exhaustive sweep of the same spec spends
    /// (`compilable_points × ga.iterations` — compile failures skip
    /// their GA under every strategy).
    pub exhaustive_generations: u64,
}

impl BudgetSummary {
    /// Full-budget evaluations avoided versus the exhaustive sweep:
    /// [`BudgetSummary::compilable_points`] (what exhaustive would run
    /// at full budget) minus what this run actually ran. Zero for
    /// exhaustive sweeps by construction — compile failures are not
    /// savings.
    pub fn full_budget_evaluations_saved(&self) -> usize {
        self.compilable_points
            .saturating_sub(self.full_budget_evaluations)
    }

    /// Net GA generations saved versus the exhaustive sweep. Negative
    /// when the cheap rungs cost more than the halving recovered
    /// (e.g. `keep_fraction` 1.0 with no pruning).
    pub(crate) fn generations_saved(&self) -> i64 {
        self.exhaustive_generations as i64 - self.generations_spent as i64
    }
}

impl fmt::Display for BudgetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "search strategy: {}", self.strategy)?;
        for (i, r) in self.rungs.iter().enumerate() {
            writeln!(
                f,
                "  rung {i}: {} evaluated at budget {} ({} failed, {} pruned, {} halved)",
                r.evaluated, r.budget, r.failed, r.pruned, r.halved
            )?;
        }
        writeln!(
            f,
            "full-budget evaluations: {} of {} compilable points ({} saved vs exhaustive)",
            self.full_budget_evaluations,
            self.compilable_points,
            self.full_budget_evaluations_saved()
        )?;
        let pct = if self.exhaustive_generations > 0 {
            self.generations_saved() as f64 / self.exhaustive_generations as f64 * 100.0
        } else {
            0.0
        };
        writeln!(
            f,
            "GA generations: {} spent vs {} exhaustive ({pct:+.1}% saved)",
            self.generations_spent, self.exhaustive_generations
        )
    }
}

/// One point's per-evaluation completion event, streamed through
/// [`ExploreEngine::with_progress`] as soon as the evaluation finishes.
///
/// Events fire from pool threads in completion order, so their
/// *sequence* is scheduling-dependent — only the report reduction is
/// ordered. Consumers must treat them as advisory progress, never as
/// data.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEvent {
    /// The point's index in the expanded grid.
    pub index: usize,
    /// Points in the expanded grid.
    pub total: usize,
    /// The point's stable key ([`PointRecord::key`] shape).
    pub key: String,
    /// The rung this evaluation ran at (0 for exhaustive sweeps).
    pub rung: u32,
    /// The GA generation budget of this evaluation.
    pub iterations: usize,
    /// Whether the point compiled and simulated successfully.
    pub ok: bool,
    /// Whether the artifact cache answered.
    pub cache_hit: bool,
}

/// A per-point progress callback; invoked from pool threads, so it
/// must be `Send + Sync`.
pub type ProgressSink = Arc<dyn Fn(&PointEvent) + Send + Sync>;

/// The result of evaluating a single sweep point: the record plus the
/// cache/bookkeeping facts the engine's counters are built from.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The point's report record.
    pub record: PointRecord,
    /// Whether the cache answered (no compile ran).
    pub cache_hit: bool,
    /// Whether the answer came from the point's metrics sidecar, so
    /// that neither the artifact was loaded nor the simulator run.
    /// Implies `cache_hit`.
    pub metrics_hit: bool,
    /// Whether a compiled model was obtained at all (compile failures
    /// never ran their GA, so their budget must not be charged). True
    /// for every cache hit: only successful compiles are stored.
    pub compiled: bool,
    /// The artifact's file name (within the cache dir): the entry this
    /// evaluation read, wrote, or answered from a sidecar of; `None`
    /// when caching is off.
    pub cache_file: Option<String>,
}

/// A resolved sweep: the spec plus every model graph, fingerprint, and
/// expanded point.
///
/// [`ExploreEngine::run`] builds one of these internally; building it
/// directly exposes the engine's per-point execution so a caller (a
/// profiler, a notebook) can evaluate points one at a time, in any
/// order, and still reduce to the byte-identical report via
/// [`SweepPlan::reduce`]. Determinism carries over: a point's record
/// depends only on the spec and the point's index, never on when it
/// was evaluated.
pub struct SweepPlan {
    spec: SweepSpec,
    graphs: Vec<Graph>,
    graph_fps: Vec<u64>,
    points: Vec<SweepPoint>,
}

impl SweepPlan {
    /// Resolves a spec into an executable plan: models are loaded,
    /// auto hardware is sized, and the point grid is expanded — all
    /// exactly once, in spec order.
    ///
    /// # Errors
    ///
    /// Same as [`ExploreEngine::run`]'s resolution phase:
    /// [`ExploreError::InvalidSpec`], [`ExploreError::UnknownModel`],
    /// [`ExploreError::Io`] / [`ExploreError::Onnx`].
    pub fn new(spec: &SweepSpec) -> Result<Self, ExploreError> {
        // Resolve every model once, up front: an unknown name or an
        // unreadable .onnx file is a spec bug and should abort before
        // any compilation starts. The resolved graphs also feed auto
        // hardware sizing and the per-model cache fingerprint, so an
        // .onnx file is read exactly once per sweep — its content
        // cannot drift between sizing and evaluation.
        let graphs: Vec<Graph> = spec
            .models
            .iter()
            .map(|name| resolve_model(name))
            .collect::<Result<_, _>>()?;
        let graph_fps: Vec<u64> = graphs.iter().map(graph_fingerprint).collect();

        let points = spec.points_for(&graphs)?;
        Ok(SweepPlan {
            spec: spec.clone(),
            graphs,
            graph_fps,
            points,
        })
    }

    /// The expanded point grid, in canonical spec-expansion order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Points in the plan.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points (specs reject empty expansions,
    /// so this is false for any plan built by [`SweepPlan::new`]).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Evaluates one point exactly as a single-process **exhaustive**
    /// sweep would: full GA budget, provenance stamped (`rung` 0,
    /// `budget` charged only when the point compiled), optionally
    /// replaying from / writing to the artifact cache — so the records
    /// of every point reduce to the report an exhaustive
    /// [`ExploreEngine::run`] writes, byte for byte. Per-point
    /// compile/simulate failures are recorded in the record, not
    /// raised; compile-stage progress reaches `observer` (cache hits
    /// replay without compiling, so a hit observes nothing; nor does a
    /// PUMA-like point, which runs no GA).
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] when `index` is out of range.
    pub fn evaluate_final_observed(
        &self,
        index: usize,
        cache_dir: Option<&Path>,
        observer: &mut dyn CompileObserver,
    ) -> Result<PointOutcome, ExploreError> {
        if index >= self.points.len() {
            return Err(invalid(format!(
                "point index {index} out of range for a {}-point sweep",
                self.points.len()
            )));
        }
        let iterations = self.spec.ga_iterations;
        let mut outcome = self.evaluate_point(index, iterations, cache_dir, observer);
        if outcome.compiled {
            outcome.record.budget = iterations as u64;
        }
        Ok(outcome)
    }

    /// Reduces per-point records, given in canonical point order, to
    /// the sweep report. Given the records an exhaustive
    /// [`ExploreEngine::run`] would produce, the report is
    /// byte-identical to the engine's, whatever order the points were
    /// evaluated in.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] when the record count does not
    /// match the plan or a record's key does not match its point — the
    /// records belong to another sweep or are out of order.
    pub fn reduce(&self, records: Vec<PointRecord>) -> Result<SweepReport, ExploreError> {
        if records.len() != self.points.len() {
            return Err(invalid(format!(
                "cannot reduce {} records over a {}-point plan",
                records.len(),
                self.points.len()
            )));
        }
        for (record, point) in records.iter().zip(&self.points) {
            if record.key() != point.key() {
                return Err(invalid(format!(
                    "record key `{}` does not match plan point `{}` — \
                     the records are out of order or from another sweep",
                    record.key(),
                    point.key()
                )));
            }
        }
        Ok(SweepReport::assemble(self.spec.master_seed, records))
    }
}

/// Runs sweep specs: compile + simulate every point under the spec's
/// search strategy, reduce to a Pareto frontier.
///
/// See the [crate docs](crate) for the determinism contract and an
/// end-to-end example.
#[derive(Clone, Default)]
pub struct ExploreEngine {
    threads: usize,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    progress: Option<ProgressSink>,
}

impl fmt::Debug for ExploreEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExploreEngine")
            .field("threads", &self.threads)
            .field("cache_dir", &self.cache_dir)
            .field("cache_max_bytes", &self.cache_max_bytes)
            .field("progress", &self.progress.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

impl ExploreEngine {
    /// An engine with one worker thread and no cache.
    pub fn new() -> Self {
        ExploreEngine {
            threads: 1,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (clamped to at least 1). Any value
    /// produces a bit-identical report.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables per-point caching under `dir` (created on demand).
    /// Re-running the same or a widened sweep replays cached points
    /// instead of recompiling them; under successive halving, every
    /// (point, rung budget) pair gets its own entry, so a guided rerun
    /// — or the final full-budget rung of a sweep whose exhaustive twin
    /// already ran — replays from cache too.
    ///
    /// The store holds two kinds of entry: the
    /// compiled artifact, and beside it the metrics each point measured
    /// on it. A point is probed sidecar first (answered without loading
    /// or simulating anything), then artifact (loaded, re-measured, the
    /// sidecar rewritten), then compiled.
    ///
    /// Artifacts are keyed by graph + hardware + options fingerprints
    /// and the artifact format version, which guards against spec
    /// changes, edited `.onnx` model files, and serialization drift. A
    /// replayed artifact derives its schedule and memory plan with this
    /// build, so what a compiler change can leave stale is only its
    /// stored placement — the GA's or the epoch packer's. Sidecars add the point's key, the sweep format version
    /// and the engine's measurement version, which is bumped whenever a
    /// simulator or executor golden is re-blessed — but a simulator or
    /// executor change that forgets the bump is just as invisible.
    /// After changing the GA, the packer, the simulator or the
    /// executor, clear the directory so warm reruns cannot mix old and
    /// new results.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bounds the cache directory to `max_mb` megabytes: after each
    /// run the least-recently-used entries beyond the budget are
    /// evicted ([`ExploreOutcome::eviction`] says how many). No effect
    /// without [`ExploreEngine::with_cache_dir`]. Eviction changes
    /// wall-clock time on later runs only, never report bytes.
    #[must_use]
    pub fn with_cache_limit_mb(mut self, max_mb: u64) -> Self {
        self.cache_max_bytes = Some(max_mb.saturating_mul(1024 * 1024));
        self
    }

    /// Streams one [`PointEvent`] per (point, rung) evaluation to
    /// `sink`, from worker threads, as evaluations complete. Progress
    /// is advisory: the sink sees completion order, the report keeps
    /// canonical order.
    #[must_use]
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// Runs a sweep: expands the spec, evaluates points under the
    /// spec's search strategy (compile → simulate, cache-aware), and
    /// assembles the report.
    ///
    /// Exhaustive sweeps evaluate every point once at the full GA
    /// budget. Successive halving evaluates every point at the first
    /// rung's cheap budget, drops dominated and low-ranked points per
    /// (model, mode) group between rungs, and re-evaluates survivors at
    /// each next budget; only final-rung survivors carry full-budget
    /// metrics and compete for the Pareto frontier. Either way the
    /// report is byte-identical for any thread count and cache state.
    ///
    /// Per-point compile/simulation failures are recorded in the
    /// report, not raised — a 500-point sweep survives one bad point.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::InvalidSpec`] when the spec expands to no or
    ///   too many points, or auto hardware sizing fails,
    /// * [`ExploreError::UnknownModel`] naming the available models,
    /// * [`ExploreError::Io`] / [`ExploreError::Onnx`] when an `.onnx`
    ///   sweep model cannot be read or imported,
    /// * [`ExploreError::Io`] when the cache directory cannot be
    ///   created.
    pub fn run(&self, spec: &SweepSpec) -> Result<ExploreOutcome, ExploreError> {
        let plan = SweepPlan::new(spec)?;

        if let Some(dir) = &self.cache_dir {
            std::fs::create_dir_all(dir).map_err(|e| ExploreError::Io {
                detail: format!("creating cache dir {}: {e}", dir.display()),
            })?;
        }

        let default_halving = HalvingSpec {
            rungs: vec![spec.ga_iterations],
            keep_fraction: 1.0,
            prune_margin: 0.0,
        };
        let halving = match &spec.search {
            SearchStrategy::Exhaustive => &default_halving,
            SearchStrategy::Halving(h) => h,
        };
        let mut touched = Vec::new();
        let mut outcome = self.run_rungs(&plan, halving, &mut touched)?;

        // Size-bounded store maintenance runs after the sweep, with
        // this run's working set stamped most-recent, so the files a
        // warm rerun needs are the last to go.
        if let (Some(dir), Some(max_bytes)) = (&self.cache_dir, self.cache_max_bytes) {
            touched.sort_unstable();
            touched.dedup();
            outcome.eviction = Some(cache::enforce_cache_limit(dir, max_bytes, &touched)?);
        }
        Ok(outcome)
    }

    /// The multi-round core: evaluates `points` over the rung ladder,
    /// halving between rungs. An exhaustive sweep is the degenerate
    /// one-rung ladder at full budget with `keep_fraction` 1.0.
    fn run_rungs(
        &self,
        plan: &SweepPlan,
        halving: &HalvingSpec,
        touched: &mut Vec<String>,
    ) -> Result<ExploreOutcome, ExploreError> {
        let spec = &plan.spec;
        let points = &plan.points;
        let n = points.len();
        // Every point is evaluated at rung 0 (the active set starts
        // full), which replaces these unevaluated records.
        let mut latest: Vec<PointRecord> = points.iter().map(SweepPoint::record).collect();
        let mut active: Vec<usize> = (0..n).collect();

        let mut cache_hits = 0;
        let mut metrics_hits = 0;
        let mut cache_misses = 0;
        let mut rungs = Vec::with_capacity(halving.rungs.len());
        let mut generations_spent = 0u64;
        let mut compilable_points = 0;
        let mut full_budget_evaluations = 0;

        for (r, &iters) in halving.rungs.iter().enumerate() {
            if active.is_empty() {
                break;
            }
            let evaluated = run_indexed(self.threads.min(active.len()), active.len(), |i| {
                let idx = active[i];
                let cache_dir = self.cache_dir.as_deref();
                let outcome = plan.evaluate_point(idx, iters, cache_dir, &mut NullObserver);
                if let Some(sink) = &self.progress {
                    sink(&PointEvent {
                        index: idx,
                        total: n,
                        key: points[idx].key(),
                        rung: r as u32,
                        iterations: iters,
                        ok: outcome.record.ok,
                        cache_hit: outcome.cache_hit,
                    });
                }
                outcome
            });

            // Index-ordered reduction: store results and tally in the
            // active list's (ascending) order, independent of threads.
            let mut failed = 0;
            let mut ga_runs = 0;
            for (i, outcome) in evaluated.into_iter().enumerate() {
                let idx = active[i];
                touched.extend(outcome.cache_file);
                cache_hits += usize::from(outcome.cache_hit);
                metrics_hits += usize::from(outcome.metrics_hit);
                cache_misses += usize::from(!outcome.cache_hit);
                failed += usize::from(!outcome.record.ok);
                // Provenance accumulates across the rungs a point runs.
                let spent = latest[idx].budget;
                latest[idx] = outcome.record;
                latest[idx].rung = r as u32;
                latest[idx].budget = spent;
                // GA generations are only charged when a model was
                // obtained: a point that fails to compile never ran its
                // GA, so neither its provenance row nor the summary may
                // claim the rung's budget. (Cache replays still charge —
                // the ledger is deterministic across cache states.)
                if outcome.compiled {
                    latest[idx].budget += iters as u64;
                    generations_spent += iters as u64;
                    ga_runs += 1;
                    // Rung 0 sees every point, and compilability does
                    // not depend on the GA budget, so this is also the
                    // exhaustive baseline's full-budget run count.
                    if r == 0 {
                        compilable_points += 1;
                    }
                }
            }

            if r + 1 == halving.rungs.len() {
                full_budget_evaluations = ga_runs;
                rungs.push(RungSummary {
                    budget: iters,
                    evaluated: active.len(),
                    failed,
                    pruned: 0,
                    halved: 0,
                });
                break;
            }

            let before = active.len();
            let (survivors, pruned) = select_survivors(&latest, &active, halving);
            for &idx in &pruned {
                latest[idx].pruned_at = Some(r as u32);
            }
            let pruned = pruned.len();
            rungs.push(RungSummary {
                budget: iters,
                evaluated: before,
                failed,
                pruned,
                halved: before - failed - pruned - survivors.len(),
            });
            active = survivors;
        }

        Ok(ExploreOutcome {
            report: SweepReport::assemble(spec.master_seed, latest),
            cache_hits,
            metrics_hits,
            cache_misses,
            budget: BudgetSummary {
                strategy: spec.search.name().to_string(),
                points: n,
                rungs,
                compilable_points,
                full_budget_evaluations,
                generations_spent,
                exhaustive_generations: compilable_points as u64 * spec.ga_iterations as u64,
            },
            eviction: None,
        })
    }
}

/// Applies the between-rung filters to the active set: per
/// (model, mode) group, failed points are dropped, margin-dominated
/// points are pruned, and the best `keep_fraction` of the rest —
/// ranked by Pareto rank, then crowding distance, then index —
/// survives to the next rung. Returns the ascending survivor list and
/// the pruned points (for `pruned_at`). Fully deterministic:
/// everything runs over the index-ordered reduction state.
///
/// Any rung failure drops the point, including simulation failures —
/// which, unlike compile failures, depend on the rung's chromosome and
/// could in principle clear up at a larger budget. Treating a
/// cheap-budget failure as refutation is the standard
/// successive-halving trade (a configuration that breaks at any budget
/// is a poor bet for more budget); like a halved point, such a point
/// keeps its failure record with rung provenance, and the possibility
/// of losing it from the frontier is part of the guided-search
/// trade-off the frontier-subset quality gates bound on the committed
/// fixtures.
fn select_survivors(
    latest: &[PointRecord],
    active: &[usize],
    halving: &HalvingSpec,
) -> (Vec<usize>, Vec<usize>) {
    let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for &idx in active {
        let record = &latest[idx];
        if record.ok && record.metrics.is_some() {
            groups
                .entry((record.model.as_str(), record.mode.as_str()))
                .or_default()
                .push(idx);
        }
    }

    let mut survivors = Vec::new();
    let mut pruned = Vec::new();
    for members in groups.values() {
        // One objective vector per member, computed once — the pairwise
        // pruning scan below must not rebuild them per probe.
        let member_objectives: Vec<[f64; 4]> = members
            .iter()
            .map(|&i| {
                let metrics = latest[i].metrics.as_ref();
                metrics.map_or([f64::INFINITY; 4], PointMetrics::objectives)
            })
            .collect();
        // Dominance pruning: drop points decisively dominated inside
        // their group at this rung's (cheap) budget.
        let mut candidates = Vec::with_capacity(members.len());
        let mut candidate_objectives = Vec::with_capacity(members.len());
        for (k, &i) in members.iter().enumerate() {
            let dominated = (0..members.len()).any(|j| {
                j != k
                    && crate::report::margin_dominates(
                        &member_objectives[j],
                        &member_objectives[k],
                        halving.prune_margin,
                    )
            });
            if dominated {
                pruned.push(i);
            } else {
                candidates.push(i);
                candidate_objectives.push(member_objectives[k]);
            }
        }
        if candidates.is_empty() {
            continue;
        }
        // Successive halving: keep the top fraction by Pareto rank +
        // crowding, at least one point per group.
        let keep = ((candidates.len() as f64 * halving.keep_fraction).ceil() as usize)
            .clamp(1, candidates.len());
        let order = rank_and_crowding_order(&candidate_objectives);
        survivors.extend(order.into_iter().take(keep).map(|pos| candidates[pos]));
    }
    survivors.sort_unstable();
    (survivors, pruned)
}

/// NSGA-II-style ordering of objective vectors: positions sorted by
/// non-dominated rank (ascending), then crowding distance (descending),
/// then position — so a keep-fraction cut retains frontier coverage
/// instead of clustering on one objective. Deterministic: all ties
/// break on position.
fn rank_and_crowding_order(objectives: &[[f64; 4]]) -> Vec<usize> {
    let n = objectives.len();
    // Plain Pareto dominance is margin dominance at zero slack; one
    // predicate, one objective-encoding convention.
    let dominates = |a: &[f64; 4], b: &[f64; 4]| crate::report::margin_dominates(a, b, 0.0);

    // Fast non-dominated sort: one O(g²) pass records who dominates
    // whom, then peeling runs on domination counts — a near-totally-
    // ordered 10k-point group must not degenerate into an O(g³) scan
    // (that is the blow-up class the grouped `pareto_frontier` fix
    // removed from the report side).
    let mut dominator_count = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if dominates(&objectives[i], &objectives[j]) {
                dominated[i].push(j);
                dominator_count[j] += 1;
            } else if dominates(&objectives[j], &objectives[i]) {
                dominated[j].push(i);
                dominator_count[i] += 1;
            }
        }
    }
    let mut rank = vec![usize::MAX; n];
    let mut current = 0;
    let mut front: Vec<usize> = (0..n).filter(|&i| dominator_count[i] == 0).collect();
    while !front.is_empty() {
        let mut next = Vec::new();
        for &i in &front {
            rank[i] = current;
        }
        for &i in &front {
            for &j in &dominated[i] {
                dominator_count[j] -= 1;
                if dominator_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        front = next;
        current += 1;
    }

    // Crowding distance within each rank.
    let mut crowding = vec![0.0f64; n];
    for level in 0..current {
        let members: Vec<usize> = (0..n).filter(|&i| rank[i] == level).collect();
        if members.len() <= 2 {
            for &i in &members {
                crowding[i] = f64::INFINITY;
            }
            continue;
        }
        // `dim` addresses one objective across *several* vectors, so an
        // iterator over `objectives` cannot replace the index here.
        #[allow(clippy::needless_range_loop)]
        for dim in 0..4 {
            let mut by_dim = members.clone();
            by_dim.sort_by(|&a, &b| {
                objectives[a][dim]
                    .total_cmp(&objectives[b][dim])
                    .then(a.cmp(&b))
            });
            let lo = objectives[by_dim[0]][dim];
            let hi = objectives[by_dim[by_dim.len() - 1]][dim];
            crowding[by_dim[0]] = f64::INFINITY;
            crowding[by_dim[by_dim.len() - 1]] = f64::INFINITY;
            if hi > lo && hi.is_finite() && lo.is_finite() {
                for w in 1..by_dim.len() - 1 {
                    crowding[by_dim[w]] += (objectives[by_dim[w + 1]][dim]
                        - objectives[by_dim[w - 1]][dim])
                        / (hi - lo);
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        rank[a]
            .cmp(&rank[b])
            .then(crowding[b].total_cmp(&crowding[a]))
            .then(a.cmp(&b))
    });
    order
}

/// Compile options for one point at the given GA generation budget (GA
/// runs serially inside a point; the sweep parallelizes across points
/// instead). Budgeted runs keep the point's seed-stream discipline —
/// see [`CompileOptions::with_ga_budget`].
fn point_options(point: &SweepPoint, spec: &SweepSpec, iterations: usize) -> CompileOptions {
    let ga = GaParams {
        population: spec.ga_population,
        iterations: spec.ga_iterations,
        parallelism: Some(NonZeroUsize::MIN),
        ..GaParams::default()
    };
    // Point expansion collapses HT-only knobs on LL points (batch 1),
    // so the options always pass `CompileOptions::validate`.
    debug_assert!(point.mode == PipelineMode::HighThroughput || point.knobs.batch == 1);
    let opts = CompileOptions::new(point.mode)
        .with_ga(ga)
        // The rung budget overrides the spec's full budget through the
        // same public API any budgeted driver would use.
        .with_ga_budget(iterations);
    AXES.iter()
        .fold(opts, |opts, axis| (axis.apply)(&point.knobs, opts))
}

/// The artifact file for a point: keyed by graph fingerprint, hardware
/// fingerprint, options fingerprint (GA seed, iteration budget, memory
/// policy, and HT batch included; thread count excluded), a sanitized
/// model tag, and the artifact format version. Distinct rung budgets,
/// policies, and batches therefore key distinct entries; knobs the
/// compiler never sees (`quantization`) do not, and tell the point's
/// metrics sidecars apart instead ([`cache::metrics_path`]). The
/// mapping picks the compiler, not an option, so a PUMA-like point's
/// name ends in a `-puma` tag after the fingerprints, where a GA
/// point's ends in hex: the two never share a file. The version
/// component rejects entries whose *serialized shape* predates this
/// build; it cannot detect a changed GA or epoch packer, whose stored
/// placement a replay reuses — clear the cache directory after changing
/// either (see [`ExploreEngine::with_cache_dir`]).
fn cache_path(dir: &Path, point: &SweepPoint, opts: &CompileOptions, graph_fp: u64) -> PathBuf {
    // Model names may be .onnx paths; keep a short human-readable tag
    // in the filename (the fingerprints disambiguate collisions).
    let tag: String = cache::sanitized(&point.model).take(48).collect();
    let key = format!(
        "v{}-{}-{:016x}-{:016x}-{:016x}",
        CompiledArtifact::FORMAT_VERSION,
        tag,
        graph_fp,
        hardware_fingerprint(&point.hw),
        options_fingerprint(opts),
    );
    let mapper = match point.knobs.mapping {
        Mapping::Ga => "",
        Mapping::Puma => "-puma",
    };
    dir.join(format!("{key}{mapper}.pimc.json"))
}

impl SweepPlan {
    /// Evaluates point `index` (in range — callers check) at one rung
    /// budget. Returns the record plus the cache/compile bookkeeping
    /// ([`PointOutcome`]); compile failures never ran the GA, so their
    /// rung budget must not be charged. Stage callbacks reach `observer`
    /// only when the point's GA runs — cache hits replay silently, and
    /// the PUMA-like baseline reports no stages.
    fn evaluate_point(
        &self,
        index: usize,
        iterations: usize,
        cache_dir: Option<&Path>,
        observer: &mut dyn CompileObserver,
    ) -> PointOutcome {
        let point = &self.points[index];
        let model = self.spec.models.iter().position(|m| *m == point.model);
        let model = model.expect("a plan's points name the plan's own models");
        let (graph, graph_fp) = (&self.graphs[model], self.graph_fps[model]);
        let opts = point_options(point, &self.spec, iterations);

        let key = point.key();
        let path = cache_dir.map(|dir| cache_path(dir, point, &opts, graph_fp));
        let sidecar = path.as_ref().map(|p| cache::metrics_path(p, &key));
        let cache_file = path
            .as_ref()
            .and_then(|p| p.file_name())
            .map(|name| name.to_string_lossy().into_owned());
        let record = |result: Result<PointMetrics, String>| {
            let mut record = point.record();
            match result {
                Ok(metrics) => {
                    record.ok = true;
                    record.metrics = Some(metrics);
                }
                Err(error) => record.error = Some(error),
            }
            record
        };

        // First probe: the metrics this very point measured on its
        // artifact before — a pure function of the two names and the
        // versions the sidecar is stamped with. The artifact must still
        // be there, so that an evicted entry costs a recompile whichever
        // of its files eviction reached first.
        let memoised = sidecar
            .as_ref()
            .and_then(|s| cache::load_metrics(s, &key))
            .filter(|_| path.as_ref().is_some_and(|p| p.is_file()));
        if let Some(metrics) = memoised {
            return PointOutcome {
                record: record(Ok(metrics)),
                cache_hit: true,
                metrics_hit: true,
                compiled: true,
                cache_file,
            };
        }

        // Second probe: a valid artifact for this exact (hardware,
        // options, model) key replays instead of recompiling. Any load
        // or fingerprint problem — including a corrupt or truncated cache
        // file, which `CompiledArtifact::load` reports as a structured
        // error, never a panic — silently falls back to compilation.
        let cached: Option<CompiledModel> = path.as_ref().and_then(|p| {
            let artifact = CompiledArtifact::load(p).ok()?;
            artifact.verify_hardware(&point.hw).ok()?;
            Some(artifact.into_model_unchecked())
        });
        let cache_hit = cached.is_some();
        let model = match cached {
            Some(model) => model,
            None => {
                let compiled = match point.knobs.mapping {
                    Mapping::Ga => CompileSession::new(point.hw.clone(), graph, opts)
                        .and_then(|session| session.run_observed(observer)),
                    Mapping::Puma => PumaCompiler::new(point.hw.clone()).compile(graph, &opts),
                };
                match (compiled, &path) {
                    (Ok(model), Some(p)) => {
                        // Best-effort: a failed cache write costs a
                        // recompile next run, never a wrong result.
                        let artifact = CompiledArtifact::new(model);
                        if let Ok(json) = artifact.to_json() {
                            let _ = cache::write_atomic(p, &json);
                        }
                        artifact.into_model_unchecked()
                    }
                    (Ok(model), None) => model,
                    (Err(e), _) => {
                        return PointOutcome {
                            record: record(Err(format!("compile: {e}"))),
                            cache_hit: false,
                            metrics_hit: false,
                            compiled: false,
                            cache_file,
                        }
                    }
                }
            }
        };

        // Only a measurement that succeeded is memoised: a failure is
        // attempted again next run.
        let result = measure(point, &model);
        if let (Ok(metrics), Some(s)) = (&result, &sidecar) {
            cache::store_metrics(s, &key, metrics);
        }
        PointOutcome {
            record: record(result),
            cache_hit,
            metrics_hit: false,
            compiled: true,
            cache_file,
        }
    }
}

/// Version of what [`measure`] computes from a compiled model. Bump it
/// whenever a simulator or executor golden is re-blessed (any change
/// that makes the same artifact measure differently), so the metrics
/// sidecars the old behaviour wrote stop answering.
pub(crate) const MEASURE_VERSION: u32 = 2;

/// Simulates a compiled point and, when the quantization axis asks for
/// it, runs the mapping through the functional executor for accuracy
/// metrics (`0` is the unquantized check, anything else the ADC
/// bit-width). Simulator and executor errors fail the point like
/// compile errors do.
fn measure(point: &SweepPoint, model: &CompiledModel) -> Result<PointMetrics, String> {
    let r = Simulator::new(point.hw.clone())
        .run(model)
        .map_err(|e| format!("simulate: {e}"))?;
    let verified = match point.knobs.quant {
        None => None,
        Some(bits) => {
            let quant = match bits {
                0 => None,
                _ => Some(
                    pimcomp_arch::QuantConfig::for_hardware(&point.hw, bits)
                        .map_err(|e| format!("verify: {e}"))?,
                ),
            };
            let verdict = pimcomp_exec::verify_model(model, point.knobs.seed, quant);
            Some(verdict.map_err(|e| format!("verify: {e}"))?)
        }
    };
    Ok(PointMetrics {
        cycles: r.total_cycles,
        throughput_inf_per_s: r.throughput_inf_per_s,
        latency_us: r.latency_us,
        energy_uj: r.energy.total_pj() / 1e6,
        dynamic_uj: r.energy.dynamic_pj() / 1e6,
        leakage_uj: r.energy.leakage_pj / 1e6,
        crossbar_utilization: model.crossbars_used() as f64 / point.hw.total_crossbars() as f64,
        core_utilization: r.active_cores as f64 / point.hw.total_cores() as f64,
        avg_local_kb: r.memory.avg_local_bytes / 1024.0,
        global_traffic_kb: r.memory.global_traffic_bytes as f64 / 1024.0,
        active_cores: r.active_cores,
        crossbars_used: model.crossbars_used(),
        reload_stall_cycles: r.reload_stall_cycles,
        output_rmse: verified.as_ref().map(|v| v.output_rmse),
        top1_match: verified.as_ref().map(|v| v.top1_match),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(json_hw: &str) -> SweepSpec {
        SweepSpec::from_json(&format!(
            r#"{{"models":["tiny_mlp","tiny_cnn"],"modes":["ht","ll"],
                 "hardware":{json_hw},
                 "ga":{{"population":4,"iterations":2}},"master_seed":5}}"#
        ))
        .unwrap()
    }

    fn halving_spec(keep: f64, margin: f64) -> SweepSpec {
        SweepSpec::from_json(&format!(
            r#"{{"models":["tiny_mlp","tiny_cnn"],"modes":["ht"],
                 "hardware":{{"base":"small_test","parallelism":[2,4,8]}},
                 "ga":{{"population":4,"iterations":4}},"master_seed":5,
                 "search":{{"strategy":"halving","rungs":[1,4],
                            "keep_fraction":{keep},"prune_margin":{margin}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let spec = tiny_spec(r#"{"base":"small_test","parallelism":[4,8]}"#);
        let serial = ExploreEngine::new().run(&spec).unwrap();
        let parallel = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(serial.report, parallel.report);
        assert_eq!(
            serial.report.to_json().unwrap(),
            parallel.report.to_json().unwrap()
        );
        assert_eq!(serial.report.points.len(), 8);
        assert_eq!(serial.report.failures(), 0);
        assert!(!serial.report.frontier.is_empty());
        // Exhaustive budget accounting: everything at full budget.
        assert_eq!(serial.budget.strategy, "exhaustive");
        assert_eq!(serial.budget.full_budget_evaluations, 8);
        assert_eq!(serial.budget.full_budget_evaluations_saved(), 0);
        assert_eq!(serial.budget.generations_spent, 8 * 2);
        assert_eq!(serial.budget.generations_saved(), 0);
        assert!(serial
            .report
            .points
            .iter()
            .all(|p| p.rung == 0 && p.budget == 2 && p.pruned_at.is_none()));
    }

    #[test]
    fn quantization_axis_carries_accuracy_metrics_thread_invariantly() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"modes":["ht"],
                 "hardware":{"base":"small_test"},
                 "ga":{"population":4,"iterations":2},"master_seed":5,
                 "quantization":[0,6,32]}"#,
        )
        .unwrap();
        let serial = ExploreEngine::new().run(&spec).unwrap();
        let parallel = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(
            serial.report.to_json().unwrap(),
            parallel.report.to_json().unwrap()
        );
        assert_eq!(serial.report.points.len(), 3);
        assert_eq!(serial.report.failures(), 0);
        let metric = |i: usize| serial.report.points[i].metrics.as_ref().unwrap();
        // q0: unquantized functional check — layout agrees tightly.
        assert_eq!(serial.report.points[0].quantization, Some(0));
        assert!(metric(0).output_rmse.unwrap() <= 1e-4);
        assert_eq!(metric(0).top1_match, Some(true));
        // q6: full ADC model — an error is reported, never NaN.
        assert_eq!(serial.report.points[1].quantization, Some(6));
        assert!(metric(1).output_rmse.unwrap().is_finite());
        // q32: ideal converter — only weight quantization remains, so
        // the error is no larger than the 6-bit point's.
        assert_eq!(serial.report.points[2].quantization, Some(32));
        assert!(metric(2).output_rmse.unwrap() <= metric(1).output_rmse.unwrap());
        // The axis tags keys and the CSV carries the new columns.
        assert!(serial.report.points[1].key().ends_with("/q6"));
        let csv = serial.report.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("output_rmse,top1_match"));
    }

    #[test]
    fn halving_saves_full_budget_evaluations_and_is_thread_invariant() {
        let spec = halving_spec(0.5, 0.0);
        let serial = ExploreEngine::new().run(&spec).unwrap();
        let parallel = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(
            serial.report.to_json().unwrap(),
            parallel.report.to_json().unwrap()
        );
        assert_eq!(serial.budget, parallel.budget);
        // 6 points in 2 (model, mode) groups of 3: rung 0 evaluates all
        // 6 cheaply, the final rung strictly fewer.
        assert_eq!(serial.budget.strategy, "halving");
        assert_eq!(serial.budget.points, 6);
        assert_eq!(serial.budget.rungs.len(), 2);
        assert_eq!(serial.budget.rungs[0].evaluated, 6);
        assert!(serial.budget.full_budget_evaluations < 6);
        assert!(serial.budget.full_budget_evaluations >= 2);
        assert!(serial.budget.full_budget_evaluations_saved() > 0);
        // Provenance: survivors reached rung 1 with budget 1 + 4;
        // dropped points stopped at rung 0 with budget 1.
        for p in &serial.report.points {
            if p.rung == 1 {
                assert_eq!(p.budget, 5);
                assert_eq!(p.pruned_at, None);
            } else {
                assert_eq!(p.budget, 1);
            }
        }
        // Frontier members are always final-rung survivors.
        for p in serial.report.frontier_records() {
            assert_eq!(p.rung, 1);
        }
    }

    #[test]
    fn aggressive_pruning_records_pruned_at() {
        // Margin 0.0 prunes every dominated point at the cheap rung;
        // with keep_fraction 1.0 the only drops are prunes, so any
        // saved evaluation must carry a pruned_at marker.
        let spec = halving_spec(1.0, 0.0);
        let outcome = ExploreEngine::new().with_threads(2).run(&spec).unwrap();
        let pruned: Vec<_> = outcome
            .report
            .points
            .iter()
            .filter(|p| p.pruned_at.is_some())
            .collect();
        let halved: usize = outcome.budget.rungs.iter().map(|r| r.halved).sum();
        assert_eq!(halved, 0, "keep_fraction 1.0 must not halve anything");
        assert_eq!(
            pruned.len(),
            outcome.budget.compilable_points - outcome.budget.full_budget_evaluations
        );
        for p in pruned {
            assert_eq!(p.pruned_at, Some(0));
            assert_eq!(p.rung, 0);
            assert!(!p.pareto);
        }
    }

    #[test]
    fn halving_replays_from_cache_byte_identically() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-halving-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = halving_spec(0.5, 0.25);
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = engine.with_threads(3).run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Every (point, rung) evaluation replays on the warm run.
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );
        assert_eq!(cold.budget, warm.budget);
    }

    #[test]
    fn halving_final_rung_frontier_is_a_subset_of_exhaustive() {
        // keep 0.5 on groups of 3 keeps 2: the cut is real, so the
        // subset property is actually exercised.
        let guided = halving_spec(0.5, 0.25);
        let mut exhaustive = guided.clone();
        exhaustive.search = SearchStrategy::Exhaustive;
        let g = ExploreEngine::new().with_threads(2).run(&guided).unwrap();
        let e = ExploreEngine::new()
            .with_threads(2)
            .run(&exhaustive)
            .unwrap();
        let exhaustive_frontier: Vec<String> =
            e.report.frontier_records().map(|p| p.key()).collect();
        for p in g.report.frontier_records() {
            assert!(
                exhaustive_frontier.contains(&p.key()),
                "halving frontier point {} is not on the exhaustive frontier {:?}",
                p.key(),
                exhaustive_frontier
            );
        }
    }

    #[test]
    fn rank_and_crowding_prefers_low_rank_then_spread() {
        // Two fronts: {0, 1, 2} (incomparable) and {3} (dominated).
        let objectives = vec![
            [1.0, 9.0, 0.0, 0.0],
            [5.0, 5.0, 0.0, 0.0],
            [9.0, 1.0, 0.0, 0.0],
            [10.0, 10.0, 0.0, 0.0],
        ];
        let order = rank_and_crowding_order(&objectives);
        // Boundary points of the first front outrank the crowded
        // middle; the dominated point comes last.
        assert_eq!(order[3], 3);
        assert!(order[..2].contains(&0));
        assert!(order[..2].contains(&2));
        assert_eq!(order[2], 1);
    }

    #[test]
    fn infeasible_points_fail_without_aborting_the_sweep() {
        // One crossbar per core on one core: tiny_cnn cannot fit, but
        // the feasible half of the sweep still completes.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"modes":["ht"],
                "hardware":{"base":"small_test",
                             "cores_per_chip":[1,16],"crossbars_per_core":[1,16]},
                "ga":{"population":4,"iterations":2}}"#,
        )
        .unwrap();
        let outcome = ExploreEngine::new().with_threads(2).run(&spec).unwrap();
        assert_eq!(outcome.report.points.len(), 4);
        let failures = outcome.report.failures();
        assert!(failures > 0, "expected at least one infeasible point");
        assert!(failures < 4, "expected at least one feasible point");
        for p in &outcome.report.points {
            if !p.ok {
                assert!(p.error.as_deref().unwrap().starts_with("compile:"));
                assert_eq!(p.budget, 0, "compile failures never ran the GA");
            } else {
                assert_eq!(p.budget, 2);
            }
        }
        // Compile failures are not "savings": an exhaustive sweep with
        // failing points still reports zero saved.
        assert_eq!(outcome.budget.compilable_points, 4 - failures);
        assert_eq!(outcome.budget.full_budget_evaluations, 4 - failures);
        assert_eq!(outcome.budget.full_budget_evaluations_saved(), 0);
        assert_eq!(
            outcome.budget.generations_spent,
            outcome.budget.exhaustive_generations
        );
    }

    #[test]
    fn cache_replays_points_with_an_identical_report() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(r#"{"base":"small_test","parallelism":[4,8]}"#);
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 8);
        let warm = engine.with_threads(3).run(&spec).unwrap();
        assert_eq!(warm.cache_hits, 8);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn puma_points_measure_the_baseline_and_cache_apart_from_ga_points() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-mapping-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_cnn"],"modes":["ht","ll"],
                "hardware":{"base":"small_test"},"seeds":[1],
                "ga":{"population":4,"iterations":2},"mappings":["ga","puma"]}"#,
        )
        .unwrap();
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        let mut artifacts: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".pimc.json"))
            .collect();
        artifacts.sort();
        let warm = engine.with_threads(3).run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // A configuration's GA and PUMA points write one artifact each,
        // and both replay.
        assert_eq!(artifacts.len(), 4, "{artifacts:?}");
        let puma = artifacts.iter().filter(|a| a.ends_with("-puma.pimc.json"));
        assert_eq!(puma.count(), 2, "{artifacts:?}");
        assert_eq!((warm.cache_hits, warm.cache_misses), (4, 0));
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );

        // A PUMA point reads what the baseline compiler and the
        // simulator give, bit for bit, and is charged its GA budget.
        let graph = resolve_model("tiny_cnn").unwrap();
        let plan = SweepPlan::new(&spec).unwrap();
        let mappings = plan.points().iter().map(|p| p.knobs.mapping);
        let expected = [Mapping::Ga, Mapping::Puma, Mapping::Ga, Mapping::Puma];
        assert!(mappings.eq(expected));
        for (point, record) in plan.points().iter().zip(&cold.report.points) {
            assert_eq!(record.budget, 2);
            if point.knobs.mapping == Mapping::Ga {
                assert!(!record.key().ends_with("/puma"), "{}", record.key());
                continue;
            }
            assert!(record.key().ends_with("/puma"), "{}", record.key());
            let opts = CompileOptions::new(point.mode);
            let model = PumaCompiler::new(point.hw.clone())
                .compile(&graph, &opts)
                .unwrap();
            let sim = Simulator::new(point.hw.clone()).run(&model).unwrap();
            let m = record.metrics.as_ref().unwrap();
            assert_eq!(m.cycles, sim.total_cycles);
            let bits = |uj: f64| uj.to_bits();
            assert_eq!(bits(m.dynamic_uj), bits(sim.energy.dynamic_pj() / 1e6));
            assert_eq!(bits(m.leakage_uj), bits(sim.energy.leakage_pj / 1e6));
            assert_eq!(m.crossbars_used, model.crossbars_used());
        }
    }

    #[test]
    fn progress_sink_sees_every_point_in_canonical_order_metadata() {
        let spec = tiny_spec(r#"{"base":"small_test","parallelism":[4,8]}"#);
        let events: Arc<std::sync::Mutex<Vec<PointEvent>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let outcome = ExploreEngine::new()
            .with_threads(2)
            .with_progress(Arc::new(move |e: &PointEvent| {
                sink.lock().unwrap().push(e.clone());
            }))
            .run(&spec)
            .unwrap();
        let mut events = events.lock().unwrap().clone();
        events.sort_by_key(|e| e.index);
        assert_eq!(events.len(), 8);
        let plan = SweepPlan::new(&spec).unwrap();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.index, i);
            assert_eq!(e.total, 8);
            assert_eq!(e.key, plan.points()[i].key());
            assert_eq!(e.rung, 0);
            assert!(e.ok);
            assert!(!e.cache_hit);
        }
        // The sink is observation only: the report matches a silent run.
        let silent = ExploreEngine::new().with_threads(2).run(&spec).unwrap();
        assert_eq!(
            outcome.report.to_json().unwrap(),
            silent.report.to_json().unwrap()
        );
    }

    #[test]
    fn cache_limit_evicts_but_never_changes_bytes() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-limit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec(r#"{"base":"small_test","parallelism":[4,8]}"#);
        let unbounded = ExploreEngine::new().with_cache_dir(&dir);
        let cold = unbounded.run(&spec).unwrap();
        assert_eq!(cold.eviction, None, "no limit, no eviction pass");

        // Eight tiny artifacts fit in a megabyte, so drive the bound
        // down to the byte level (the builder's MB granularity is for
        // real stores) — the post-run sweep must now evict.
        let mut bounded = unbounded.clone().with_cache_limit_mb(1);
        bounded.cache_max_bytes = Some(1024);
        let warm = bounded.run(&spec).unwrap();
        let stats = warm.eviction.expect("bounded run reports eviction");
        assert!(stats.evicted_files > 0, "{stats:?}");
        assert!(stats.kept_bytes <= 1024, "{stats:?}");
        // Sidecars count toward the bound and leave with their
        // artifact: what is left on disk is what the pass says it kept.
        let left: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name() != cache::CACHE_INDEX_FILE)
            .map(|e| e.metadata().unwrap().len())
            .collect();
        assert_eq!(left.iter().sum::<u64>(), stats.kept_bytes, "{stats:?}");
        assert_eq!(left.len(), 2 * stats.kept_files, "{stats:?}");
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );

        // Evicted artifacts just recompile: bytes still identical.
        let after = bounded.run(&spec).unwrap();
        assert!(after.cache_misses > 0, "eviction forces recompiles");
        assert_eq!(
            cold.report.to_json().unwrap(),
            after.report.to_json().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_index_is_a_structured_error_not_a_panic() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-corrupt-idx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(cache::CACHE_INDEX_FILE), "{not json").unwrap();
        let spec = tiny_spec(r#"{"base":"small_test","parallelism":[4]}"#);
        let err = ExploreEngine::new()
            .with_cache_dir(&dir)
            .with_cache_limit_mb(1)
            .run(&spec)
            .unwrap_err();
        match err {
            ExploreError::Serialization { detail } => {
                assert!(detail.contains("cache index"), "{detail}");
            }
            other => panic!("expected Serialization, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn widened_sweep_compiles_only_new_points() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-widen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let narrow = tiny_spec(r#"{"base":"small_test","parallelism":[4]}"#);
        let wide = tiny_spec(r#"{"base":"small_test","parallelism":[4,8]}"#);
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        engine.run(&narrow).unwrap();
        let widened = engine.run(&wide).unwrap();
        assert_eq!(widened.cache_hits, 4);
        assert_eq!(widened.cache_misses, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_model_lists_alternatives() {
        // Zoo typos are now rejected at parse time; the engine keeps
        // the same structured error for hand-built specs that bypass
        // `from_json`.
        let mut spec =
            SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"}}"#)
                .unwrap();
        spec.models = vec!["alexnet".to_string()];
        let err = ExploreEngine::new().run(&spec).unwrap_err();
        match err {
            ExploreError::UnknownModel { name, available } => {
                assert_eq!(name, "alexnet");
                assert!(available.iter().any(|m| m == "vgg16"));
                assert!(available.iter().any(|m| m == "tiny_cnn"));
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }

    #[test]
    fn policy_and_batch_axes_are_thread_invariant_and_distinct() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"modes":["ht","ll"],
                "hardware":{"base":"small_test"},
                "memory_policies":["naive","ag"],"ht_batches":[1,2],
                "ga":{"population":4,"iterations":2},"master_seed":5}"#,
        )
        .unwrap();
        let serial = ExploreEngine::new().run(&spec).unwrap();
        let parallel = ExploreEngine::new().with_threads(4).run(&spec).unwrap();
        assert_eq!(
            serial.report.to_json().unwrap(),
            parallel.report.to_json().unwrap()
        );
        // HT: 2 policies x 2 batches; LL collapses the batch axis.
        assert_eq!(serial.report.points.len(), 4 + 2);
        assert_eq!(serial.report.failures(), 0);
        // The knobs land in the records and the key.
        let p = &serial.report.points[0];
        assert_eq!((p.policy.as_str(), p.batch), ("naive", 1));
        assert!(p.key().contains("/naive/b1/"), "{}", p.key());
        // The naive and AG policies must actually produce different
        // memory behavior somewhere in the sweep (the axis is live).
        let traffic: Vec<f64> = serial
            .report
            .points
            .iter()
            .filter_map(|p| p.metrics.as_ref().map(|m| m.avg_local_kb))
            .collect();
        assert!(
            traffic.iter().any(|&t| (t - traffic[0]).abs() > 1e-9),
            "policy/batch axes produced identical memory metrics: {traffic:?}"
        );
    }

    #[test]
    fn weight_reload_sweeps_are_thread_and_cache_invariant() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-reload-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two constrained budgets plus the unconstrained baseline of
        // the same point: the reload axis must be live (stall cycles
        // appear under the budgets) and byte-identical across thread
        // counts and cache states.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_cnn"],"modes":["ht"],
                "hardware":{"base":"small_test"},"seeds":[1],
                "ga":{"population":4,"iterations":2},
                "weight_reload":{"budgets":[32,64],"include_off":true}}"#,
        )
        .unwrap();
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = engine.with_threads(4).run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(warm.cache_misses, 0, "budgets must key distinct entries");
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );
        let serial = ExploreEngine::new().run(&spec).unwrap();
        assert_eq!(
            cold.report.to_json().unwrap(),
            serial.report.to_json().unwrap()
        );

        assert_eq!(cold.report.points.len(), 3);
        assert_eq!(cold.report.failures(), 0);
        let by_reload = |label: &str| {
            cold.report
                .points
                .iter()
                .find(|p| p.weight_reload == label)
                .unwrap_or_else(|| panic!("no point with weight_reload `{label}`"))
        };
        let off = by_reload("off");
        assert!(!off.key().contains("reload"), "{}", off.key());
        assert_eq!(off.metrics.as_ref().unwrap().reload_stall_cycles, 0);
        for label in ["32", "64"] {
            let p = by_reload(label);
            assert!(
                p.key().ends_with(&format!("/reload-{label}")),
                "{}",
                p.key()
            );
            let m = p.metrics.as_ref().unwrap();
            assert!(
                m.reload_stall_cycles > 0,
                "budget {label} should force reload stalls"
            );
            assert!(
                m.cycles > off.metrics.as_ref().unwrap().cycles,
                "constrained budget {label} must cost cycles over unconstrained"
            );
        }
        // Tighter budgets rewrite at least as much.
        assert!(
            by_reload("32")
                .metrics
                .as_ref()
                .unwrap()
                .reload_stall_cycles
                >= by_reload("64")
                    .metrics
                    .as_ref()
                    .unwrap()
                    .reload_stall_cycles
        );
    }

    #[test]
    fn auto_hardware_sweeps_compile_and_replay_from_cache() {
        let dir =
            std::env::temp_dir().join(format!("pimcomp-dse-auto-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp","tiny_cnn"],
                "hardware":{"auto":true,"base":"small_test","parallelism":[2,4]},
                "ga":{"population":4,"iterations":2}}"#,
        )
        .unwrap();
        let engine = ExploreEngine::new().with_cache_dir(&dir);
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.cache_misses, 4);
        assert_eq!(cold.report.failures(), 0);
        for p in &cold.report.points {
            assert!(
                p.hardware.starts_with("auto-small_test+chips"),
                "{}",
                p.hardware
            );
        }
        let warm = engine.with_threads(3).run(&spec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(
            cold.report.to_json().unwrap(),
            warm.report.to_json().unwrap()
        );
    }
}
