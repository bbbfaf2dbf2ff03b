//! Declarative sweep specifications: the JSON the `pimcomp explore`
//! subcommand consumes, parsed with structured errors (never panics on
//! malformed input) and expanded into a deterministic point list.
//!
//! The complete field-by-field schema reference (every default,
//! validation rule, and the exact error each malformed shape produces)
//! lives in `docs/SWEEP_SPEC.md` at the repository root.

use crate::axis::{hardware_grid, knob_grid, Axis, Knobs, ReloadSetting, AXES, HW_AXES};
use crate::ExploreError;
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{split_stream_seed, ReusePolicy};
use pimcomp_ir::Graph;
use serde::Value;

/// Hard cap on the number of points one sweep may expand to, so a typo
/// in a grid axis fails fast instead of queueing years of compilation.
pub(crate) const MAX_SWEEP_POINTS: usize = 10_000;

/// Seed-split stage tag for the seed axis (`split_stream_seed(master,
/// SEED_STAGE, i)`); distinct from every GA-internal stage by
/// construction because the GA mixes its own master seed, not ours.
const SEED_STAGE: u64 = 0;

const HT: PipelineMode = PipelineMode::HighThroughput;

/// How the engine walks the expanded point grid.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchStrategy {
    /// Evaluate every point once at the full GA budget (the PR 3
    /// behavior, and the default when the spec has no `search` section).
    Exhaustive,
    /// Successive halving: evaluate everything at a cheap GA budget,
    /// keep only the most promising fraction of each (model, mode)
    /// group, and re-evaluate survivors at the next budget until the
    /// final rung runs at the full budget. See [`HalvingSpec`].
    Halving(HalvingSpec),
}

impl SearchStrategy {
    /// The strategy's spec-file name (`exhaustive` / `halving`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Halving(_) => "halving",
        }
    }
}

/// Parameters of the successive-halving strategy (PIMSYN/COMPASS-style
/// budgeted search over the sweep grid).
///
/// Between rungs two filters run per (model, mode) group:
///
/// 1. **Dominance pruning** drops every point whose metrics are
///    Pareto-dominated by another point in its group with at least
///    [`HalvingSpec::prune_margin`] relative slack on every objective —
///    cheap-rung metrics are noisy proxies, so only clearly dominated
///    points are discarded.
/// 2. **Halving** keeps the best `keep_fraction` of what remains
///    (at least one point), ranked by Pareto rank then crowding
///    distance (NSGA-II style), so survivors cover the frontier rather
///    than cluster on one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct HalvingSpec {
    /// Per-rung GA generation budgets, strictly increasing; the last
    /// rung must equal the spec's `ga.iterations` (the full budget).
    pub rungs: Vec<usize>,
    /// Fraction of each (model, mode) group kept per non-final rung,
    /// in `(0, 1]`.
    pub keep_fraction: f64,
    /// Relative dominance margin for pruning, `>= 0`. `0.0` prunes
    /// every dominated point; larger values prune only points that are
    /// decisively dominated on all objectives.
    pub prune_margin: f64,
}

impl HalvingSpec {
    /// Default keep fraction (top half of each group survives a rung).
    pub(crate) const DEFAULT_KEEP_FRACTION: f64 = 0.5;
    /// Default prune margin (points must be dominated with 25% slack on
    /// every objective before the cheap rung is trusted to drop them).
    pub(crate) const DEFAULT_PRUNE_MARGIN: f64 = 0.25;

    /// The default rung ladder for a full budget of `iterations`
    /// generations: divide by 3 until the budget bottoms out at 1, e.g.
    /// 24 → `[2, 8, 24]`, 6 → `[2, 6]`, 1 → `[1]`.
    pub(crate) fn default_rungs(iterations: usize) -> Vec<usize> {
        let mut rungs = vec![iterations.max(1)];
        let mut budget = iterations / 3;
        while budget >= 1 {
            rungs.push(budget);
            budget /= 3;
        }
        rungs.reverse();
        rungs.dedup();
        rungs
    }
}

/// Automatic per-model hardware sizing: the bench harness's headroom
/// heuristic ([`pimcomp_core::sized_chips`]) applied to each sweep
/// model, crossed with a sweepable parallelism list.
///
/// Spelled `"hardware": "auto"` (all defaults) or
/// `"hardware": { "auto": true, "base": "puma", "parallelism": [4, 8],
/// "headroom": 2.0 }` in a spec. Each model gets its own labelled
/// configurations (`auto-puma+chips3+par4`), so the chip count in the
/// label documents what the heuristic chose.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoHardware {
    /// Base preset the sizing starts from (`puma` / `small_test`).
    pub base: String,
    /// Parallelism degrees to sweep at the sized chip count.
    pub parallelism: Vec<usize>,
    /// Capacity headroom over the single-replica crossbar demand
    /// (`>= 1`; default [`pimcomp_core::DEFAULT_HEADROOM`]).
    pub headroom: f64,
}

impl AutoHardware {
    /// Default parallelism list (the paper's default degree).
    pub(crate) const DEFAULT_PARALLELISM: usize = 20;
}

impl Default for AutoHardware {
    fn default() -> Self {
        AutoHardware {
            base: "puma".to_string(),
            parallelism: vec![Self::DEFAULT_PARALLELISM],
            headroom: pimcomp_core::DEFAULT_HEADROOM,
        }
    }
}

/// The hardware axis of a sweep: either explicit labelled
/// configurations (the cross-products of one or more grid objects) or
/// per-model automatic sizing ([`AutoHardware`]).
#[derive(Debug, Clone, PartialEq)]
pub enum HardwareAxis {
    /// Labelled configurations shared by every model.
    Explicit(Vec<(String, HardwareConfig)>),
    /// Per-model sized configurations (`"hardware": "auto"`).
    Auto(AutoHardware),
}

impl HardwareAxis {
    /// Number of hardware configurations each model is swept over.
    pub(crate) fn len(&self) -> usize {
        match self {
            HardwareAxis::Explicit(list) => list.len(),
            HardwareAxis::Auto(auto) => auto.parallelism.len(),
        }
    }

    /// `true` for the per-model automatic sizing variant.
    pub fn is_auto(&self) -> bool {
        matches!(self, HardwareAxis::Auto(_))
    }
}

/// A validated, fully resolved sweep specification.
///
/// Build one with [`SweepSpec::from_json`] (the CLI path) or construct
/// the fields directly (the programmatic path); [`SweepSpec::points`]
/// expands the cross-product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Master seed; per-point GA seeds derive from it when `seeds` is
    /// not given explicitly.
    pub master_seed: u64,
    /// Model names (zoo names, test models, or `.onnx` file paths),
    /// one sweep axis.
    pub models: Vec<String>,
    /// Pipeline modes, one sweep axis.
    pub modes: Vec<PipelineMode>,
    /// The hardware axis: explicit labelled configurations or
    /// per-model automatic sizing.
    pub hardware: HardwareAxis,
    /// GA seeds, one sweep axis.
    pub seeds: Vec<u64>,
    /// GA population per point.
    pub ga_population: usize,
    /// GA generation count per point.
    pub ga_iterations: usize,
    /// Memory-reuse policies, one sweep axis (the paper's AG-reuse
    /// ablation).
    pub policies: Vec<ReusePolicy>,
    /// HT transfer batches, one sweep axis (the paper's Fig. 10
    /// protocol knob). Low-latency points always run batch 1 — the axis
    /// collapses for LL modes per
    /// [`CompileOptions::validate`](pimcomp_core::CompileOptions::validate).
    pub batches: Vec<usize>,
    /// Weight-reload settings, one sweep axis (default `[Off]` — every
    /// point compiles normally). Reload-on values compile in
    /// `weight_reload` mode under a crossbar budget, splitting
    /// over-budget models into serialized mapping epochs.
    pub weight_reload: Vec<ReloadSetting>,
    /// Sequence-length bindings, one sweep axis (default `[None]` — no
    /// binding). Each `Some(n)` compiles the point with symbolic `seq`
    /// dimensions bound to `n` tokens; fixed-shape models ignore the
    /// binding, symbolic models *require* one
    /// ([`CompileError::UnboundSeqLen`](pimcomp_core::CompileError::UnboundSeqLen)).
    pub seq_lens: Vec<Option<usize>>,
    /// Quantization settings, one sweep axis (default `[None]` — no
    /// functional verification). Each `Some(b)` runs the point's
    /// compiled mapping through the functional executor
    /// (`pimcomp-exec`) after simulation and records accuracy metrics:
    /// `b = 0` verifies unquantized f32 numerics, `b > 0` models the
    /// analog datapath with a `b`-bit ADC (`b = 32` is the ideal
    /// converter — weight quantization only).
    pub quantization: Vec<Option<u32>>,
    /// How the engine walks the grid (default: exhaustive).
    pub search: SearchStrategy,
}

/// One point of the expanded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Model name (zoo name or `.onnx` path).
    pub model: String,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Label of the hardware configuration (from the grid expansion or
    /// the auto sizing).
    pub hw_label: String,
    /// The hardware configuration itself.
    pub hw: HardwareConfig,
    /// The point's value of every per-point knob.
    pub knobs: Knobs,
}

impl SweepPoint {
    /// Stable identity of the point inside a report — the
    /// [`PointRecord::key`](crate::PointRecord::key) of its record,
    /// which is the one place the key format is written down.
    pub fn key(&self) -> String {
        self.record().key()
    }
}

impl SweepSpec {
    /// Parses and validates a spec from JSON text. Unknown fields are
    /// rejected so typos fail loudly; `docs/SWEEP_SPEC.md` is the
    /// field-by-field reference (defaults, validation rules, and the
    /// exact error each malformed shape produces).
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] describing the offending field,
    /// or [`ExploreError::UnknownModel`] listing the valid model names.
    pub fn from_json(json: &str) -> Result<Self, ExploreError> {
        let value = serde_json::parse_value(json).map_err(|e| ExploreError::InvalidSpec {
            detail: format!("not valid JSON: {e}"),
        })?;
        Self::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Self, ExploreError> {
        let entries = as_object(value, "sweep spec")?;
        // `seeds` keeps its historical place beside `num_seeds`; the
        // other knobs follow in table order.
        let head = [
            "master_seed",
            "models",
            "modes",
            "hardware",
            "seeds",
            "num_seeds",
            "ga",
        ];
        let knobs = AXES.iter().map(|a| a.field).filter(|&f| f != "seeds");
        let known: Vec<&str> = head.into_iter().chain(knobs).chain(["search"]).collect();
        reject_unknown(entries, &known, |key, known| {
            format!("unknown field `{key}` (known fields: {known})")
        })?;

        let master_seed = field_or(value, "master_seed", "master_seed", as_u64, 1)?;

        let models = list(
            "models",
            value.get("models").unwrap_or(&Value::Null),
            "model names or .onnx paths",
            |e, ctx| as_string(e, ctx).map(Some),
            String::clone,
        )?;
        // Zoo names are validated at parse time so a typo fails with
        // the full list of alternatives; `.onnx` paths are only read
        // when the sweep runs, resolved against the process working
        // directory (not the spec file's location — see
        // docs/SWEEP_SPEC.md).
        for model in &models {
            if !model.ends_with(".onnx") && !crate::available_models().iter().any(|m| m == model) {
                return Err(ExploreError::UnknownModel {
                    name: model.clone(),
                    available: crate::available_models(),
                });
            }
        }

        let modes = match value.get("modes") {
            None => vec![HT],
            Some(v) => list(
                "modes",
                v,
                "\"ht\"/\"ll\"",
                |e, ctx| parse_mode(&as_string(e, ctx)?).map(Some),
                PipelineMode::to_string,
            )?,
        };

        let hardware = match value.get("hardware") {
            Some(Value::Str(s)) if s == "auto" => HardwareAxis::Auto(AutoHardware::default()),
            Some(Value::Str(other)) => {
                return Err(invalid(format!(
                    "`hardware` as a string must be \"auto\" (found `{other}`); \
                     use a grid object for explicit configurations"
                )))
            }
            Some(v @ Value::Map(_)) if v.get("auto").is_some() => {
                HardwareAxis::Auto(parse_auto(v)?)
            }
            Some(Value::Seq(grids)) if !grids.is_empty() => {
                let grids = grids
                    .iter()
                    .map(parse_grid)
                    .collect::<Result<Vec<_>, _>>()?;
                HardwareAxis::Explicit(grids.concat())
            }
            Some(v @ Value::Map(_)) => HardwareAxis::Explicit(parse_grid(v)?),
            Some(_) | None => {
                return Err(invalid(
                    "`hardware` must be a grid object, a non-empty array of grid \
                     objects, or \"auto\"",
                ))
            }
        };
        if let HardwareAxis::Explicit(list) = &hardware {
            let hw_labels: Vec<String> = list.iter().map(|(l, _)| l.clone()).collect();
            reject_duplicates(&hw_labels, "hardware grid points")?;
        }

        // The seed axis has no fixed default: unless `seeds` lists
        // them, `num_seeds` seeds are split from the master seed.
        if value.get("seeds").is_some() && value.get("num_seeds").is_some() {
            return Err(invalid("give either `seeds` or `num_seeds`, not both"));
        }
        let num_seeds = field_or(value, "num_seeds", "num_seeds", as_u64, 1)?;
        if num_seeds == 0 {
            return Err(invalid("`num_seeds` must be at least 1"));
        }
        let seeds = (0..num_seeds)
            .map(|i| split_stream_seed(master_seed, SEED_STAGE, i))
            .collect();

        let no_ga = Value::Map(Vec::new());
        let ga = value.get("ga").unwrap_or(&no_ga);
        reject_unknown(
            as_object(ga, "`ga`")?,
            &["population", "iterations"],
            |key, known| format!("unknown `ga` field `{key}` (known: {known})"),
        )?;
        let ga_population = field_or(ga, "population", "ga.population", as_usize, 16)?;
        let ga_iterations = field_or(ga, "iterations", "ga.iterations", as_usize, 24)?;
        if ga_population == 0 || ga_iterations == 0 {
            return Err(invalid(
                "`ga.population` and `ga.iterations` must be positive",
            ));
        }

        let mut spec = SweepSpec {
            master_seed,
            models,
            modes,
            hardware,
            seeds,
            ga_population,
            ga_iterations,
            policies: vec![Knobs::DEFAULT.policy],
            batches: vec![Knobs::DEFAULT.batch],
            weight_reload: vec![Knobs::DEFAULT.reload],
            seq_lens: vec![Knobs::DEFAULT.seq],
            quantization: vec![Knobs::DEFAULT.quant],
            search: SearchStrategy::Exhaustive,
        };
        for axis in &AXES {
            let Some(v) = value.get(axis.field) else {
                continue;
            };
            (axis.parse)(axis.field, v, &mut spec)?;
            // An HT-only knob the spec names must have an HT mode to
            // apply to, unless it stays at the value LL points run
            // anyway. (The default is never held to this: an LL-only
            // sweep simply collapses it.)
            let idle = axis.ht_only && !spec.modes.contains(&HT);
            if idle && !axis.leaves(&spec, Knobs::LOW_LATENCY) {
                return Err(invalid(format!(
                    "`{}` only applies to high-throughput mode, but \
                     `modes` contains no \"ht\" (low-latency points always run batch 1)",
                    axis.field
                )));
            }
        }
        if let Some(v) = value.get("search") {
            spec.search = parse_search(v, ga_iterations)?;
        }
        // Cheap structural checks at parse time: oversized or empty
        // sweeps are rejected before any model is loaded or sized
        // (`len` never touches the filesystem, unlike `points` for
        // `.onnx` models or auto hardware).
        spec.check_size()?;
        Ok(spec)
    }

    /// Rejects empty and oversized expansions.
    fn check_size(&self) -> Result<(), ExploreError> {
        match self.len() {
            0 => Err(invalid("sweep has no points (an axis is empty)")),
            n if n > MAX_SWEEP_POINTS => Err(invalid(format!(
                "sweep expands to {n} points, more than the {MAX_SWEEP_POINTS} cap"
            ))),
            _ => Ok(()),
        }
    }

    /// Number of points the sweep expands to. Low-latency modes skip
    /// HT-only knobs (the batch axis) — LL always runs batch 1, so the
    /// axis collapses rather than duplicating identical points.
    pub fn len(&self) -> usize {
        let knob_points = |&mode: &PipelineMode| -> usize {
            let swept = AXES.iter().filter(|a| a.applies(mode));
            swept.map(|a| a.len(self)).product()
        };
        self.models.len() * self.hardware.len() * self.modes.iter().map(knob_points).sum::<usize>()
    }

    /// `true` when any axis is empty (the sweep has no points).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cross-product into points, in the fixed axis order
    /// models → modes → hardware → the per-point knobs in table order
    /// (policies → batches → seeds → weight_reload → seq_lens →
    /// quantization). The order is part of the determinism contract:
    /// point index, and hence any master-seed derived quantity,
    /// depends only on the spec.
    ///
    /// With `hardware: "auto"` this resolves every model (loading
    /// `.onnx` paths from disk) to size its configurations; the engine
    /// expands from its already-resolved graphs instead, so each model
    /// is read exactly once per sweep.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] when an axis is empty, the
    /// expansion exceeds 10 000 points, or auto sizing fails;
    /// [`ExploreError::UnknownModel`] / [`ExploreError::Onnx`] /
    /// [`ExploreError::Io`] from model resolution under auto hardware.
    pub fn points(&self) -> Result<Vec<SweepPoint>, ExploreError> {
        let graphs: Vec<Graph> = match self.hardware {
            HardwareAxis::Explicit(_) => Vec::new(),
            HardwareAxis::Auto(_) => {
                let graphs = self.models.iter().map(|name| crate::resolve_model(name));
                graphs.collect::<Result<_, _>>()?
            }
        };
        self.points_for(&graphs)
    }

    /// [`SweepSpec::points`] over already-resolved model graphs
    /// (`graphs[i]` corresponds to `models[i]`). Only auto hardware
    /// consults the graphs — explicit sweeps may pass an empty slice.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidSpec`] as for [`SweepSpec::points`].
    pub(crate) fn points_for(&self, graphs: &[Graph]) -> Result<Vec<SweepPoint>, ExploreError> {
        self.check_size()?;
        if self.hardware.is_auto() && graphs.len() != self.models.len() {
            return Err(invalid(format!(
                "auto hardware sizing needs one resolved graph per model \
                 ({} models, {} graphs)",
                self.models.len(),
                graphs.len()
            )));
        }
        let grids: Vec<Vec<Knobs>> = self.modes.iter().map(|&m| knob_grid(self, m)).collect();
        let mut out = Vec::with_capacity(self.len());
        for (mi, model) in self.models.iter().enumerate() {
            // Explicit configurations are shared by every model —
            // borrow them; only auto sizing builds a per-model list.
            let sized;
            let hw_list: &[(String, HardwareConfig)] = match &self.hardware {
                HardwareAxis::Explicit(list) => list,
                HardwareAxis::Auto(auto) => {
                    let max_seq = self.seq_lens.iter().flatten().max().copied();
                    sized = sized_hardware(auto, model, &graphs[mi], max_seq)?;
                    &sized
                }
            };
            for (&mode, grid) in self.modes.iter().zip(&grids) {
                for (label, hw) in hw_list {
                    out.extend(grid.iter().map(|&knobs| SweepPoint {
                        model: model.clone(),
                        mode,
                        hw_label: label.clone(),
                        hw: hw.clone(),
                        knobs,
                    }));
                }
            }
        }
        Ok(out)
    }

    /// The lines `pimcomp explore` prints before a sweep starts. The
    /// factors inside the parentheses multiply to [`SweepSpec::len`]:
    /// HT-only knobs count inside the mode factor (LL modes collapse
    /// them), and a knob left at its default prints no factor unless
    /// the banner has always carried it.
    pub fn banner(&self, threads: usize) -> String {
        let factors = |ht_only: bool| -> String {
            let shown = |a: &&Axis| a.always_shown || !a.leaves(self, Knobs::DEFAULT);
            let axes = AXES.iter().filter(|a| a.ht_only == ht_only).filter(shown);
            axes.map(|a| format!(" x {} {}", a.len(self), a.noun))
                .collect()
        };
        let (ht_only, rest) = (factors(true), factors(false));
        let ht = self.modes.iter().filter(|&&m| m == HT).count();
        let ll = self.modes.len() - ht;
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        let modes = match (ht, ll) {
            (_, 0) => format!("{ht} modes{ht_only}"),
            (0, _) => format!("{ll} modes"),
            _ => format!(
                "({ht} HT mode{}{ht_only} + {ll} LL mode{})",
                plural(ht),
                plural(ll)
            ),
        };
        let mut banner = format!(
            "exploring {} points ({} models x {modes} x {} hardware configs{rest}, \
             {} search, {threads} threads)...",
            self.len(),
            self.models.len(),
            self.hardware.len(),
            self.search.name()
        );
        if self.hardware.is_auto() {
            banner.push_str(
                "\n  hardware: auto — chip counts sized per model by the headroom heuristic \
                 (labels carry the chosen count)",
            );
        }
        for axis in AXES.iter().filter(|a| a.ht_only) {
            if ll > 0 && !axis.leaves(self, Knobs::LOW_LATENCY) {
                banner.push_str(&format!(
                    "\n  note: `{}` applies to high-throughput points only; \
                     low-latency points always run batch 1",
                    axis.field
                ));
            }
        }
        banner
    }
}

/// Expands an [`AutoHardware`] axis for one model: sizes the chip
/// count with the shared headroom heuristic, then expands the sized
/// count and the parallelism list through the grid fold, so labels
/// (`auto-puma+chips3+par4`) and validation match explicit grids.
///
/// A model with a symbolic sequence dimension is sized at `max_seq`
/// (the largest entry of the sweep's `seq_lens` axis), so the chosen
/// chip count fits the worst-case point of the sweep. Without a
/// `seq_lens` axis such a model cannot be sized and the spec is
/// rejected with a structured error.
fn sized_hardware(
    auto: &AutoHardware,
    model: &str,
    graph: &Graph,
    max_seq: Option<usize>,
) -> Result<Vec<(String, HardwareConfig)>, ExploreError> {
    let base = known_preset(&auto.base)?;
    let failed = |why: &dyn std::fmt::Display| {
        invalid(format!(
            "hardware auto-sizing failed for model `{model}`: {why}"
        ))
    };
    let bound;
    let graph = if graph.has_symbolic_dims() {
        let Some(len) = max_seq else {
            return Err(failed(
                &"the model has a symbolic sequence dimension; add a `seq_lens` axis to \
                  the sweep so it can be sized at the largest sequence length",
            ));
        };
        bound = pimcomp_ir::transform::bind_seq_len(graph, len).map_err(|e| failed(&e))?;
        &bound
    } else {
        graph
    };
    let chips = pimcomp_core::sized_chips(graph, &base, auto.headroom).map_err(|e| failed(&e))?;
    let int = |n: usize| Value::Int(n as i128);
    let grid = Value::Map(vec![
        ("chips".to_string(), int(chips)),
        (
            "parallelism".to_string(),
            Value::Seq(auto.parallelism.iter().map(|&p| int(p)).collect()),
        ),
    ]);
    hardware_grid(&format!("auto-{}", auto.base), base, &grid)
}

/// The named base configuration a `hardware.base` picks: `puma` (the
/// paper's Table I target) or `small_test` / `small`.
fn known_preset(name: &str) -> Result<HardwareConfig, ExploreError> {
    match name {
        "puma" => Ok(HardwareConfig::puma()),
        "small_test" | "small" => Ok(HardwareConfig::small_test()),
        _ => Err(invalid(format!(
            "hardware.base: unknown hardware preset `{name}` (available: puma, small_test)"
        ))),
    }
}

pub(crate) fn invalid(detail: impl Into<String>) -> ExploreError {
    ExploreError::InvalidSpec {
        detail: detail.into(),
    }
}

fn as_object<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], ExploreError> {
    match v {
        Value::Map(entries) => Ok(entries),
        other => Err(invalid(format!(
            "{ctx} must be an object, found {}",
            other.kind()
        ))),
    }
}

pub(crate) fn as_string(v: &Value, ctx: &str) -> Result<String, ExploreError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(invalid(format!(
            "{ctx} must be a string, found {}",
            other.kind()
        ))),
    }
}

pub(crate) fn as_u64(v: &Value, ctx: &str) -> Result<u64, ExploreError> {
    match v {
        Value::Int(i) => u64::try_from(*i)
            .map_err(|_| invalid(format!("{ctx} must be a non-negative 64-bit integer"))),
        other => Err(invalid(format!(
            "{ctx} must be an integer, found {}",
            other.kind()
        ))),
    }
}

pub(crate) fn as_f64(v: &Value, ctx: &str) -> Result<f64, ExploreError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(invalid(format!(
            "{ctx} must be a number, found {}",
            other.kind()
        ))),
    }
}

/// `object[key]` through `parse` (`ctx` names the field in errors), or
/// `default` when the object has no such key.
fn field_or<T>(
    object: &Value,
    key: &str,
    ctx: &str,
    parse: fn(&Value, &str) -> Result<T, ExploreError>,
    default: T,
) -> Result<T, ExploreError> {
    object.get(key).map_or(Ok(default), |v| parse(v, ctx))
}

pub(crate) fn as_usize(v: &Value, ctx: &str) -> Result<usize, ExploreError> {
    as_u64(v, ctx).map(|n| n as usize)
}

/// Accepts a scalar or an array for a grid axis.
fn scalar_or_seq<T>(
    v: &Value,
    ctx: &str,
    item: fn(&Value, &str) -> Result<T, ExploreError>,
) -> Result<Vec<T>, ExploreError> {
    match v {
        Value::Seq(items) => items.iter().map(|i| item(i, ctx)).collect(),
        scalar => Ok(vec![item(scalar, ctx)?]),
    }
}

fn parse_mode(s: &str) -> Result<PipelineMode, ExploreError> {
    match s.to_ascii_lowercase().as_str() {
        "ht" | "high_throughput" => Ok(PipelineMode::HighThroughput),
        "ll" | "low_latency" => Ok(PipelineMode::LowLatency),
        other => Err(invalid(format!(
            "unknown pipeline mode `{other}` (ht | ll)"
        ))),
    }
}

fn parse_auto(v: &Value) -> Result<AutoHardware, ExploreError> {
    reject_unknown(
        as_object(v, "hardware")?,
        &["auto", "base", "parallelism", "headroom"],
        |key, known| format!("unknown auto-hardware field `{key}` (known fields: {known})"),
    )?;
    if v.get("auto") != Some(&Value::Bool(true)) {
        return Err(invalid(
            "`hardware.auto` must be `true` (remove the key for an explicit grid)",
        ));
    }
    let base = field_or(v, "base", "hardware.base", as_string, "puma".to_string())?;
    known_preset(&base)?;
    let parallelism = match v.get("parallelism") {
        Some(axis) => {
            let p = scalar_or_seq(axis, "hardware.parallelism", as_usize)?;
            if p.is_empty() || p.contains(&0) {
                return Err(invalid(
                    "`hardware.parallelism` must be a non-empty list of positive degrees",
                ));
            }
            let names: Vec<String> = p.iter().map(usize::to_string).collect();
            reject_duplicates(&names, "hardware.parallelism")?;
            p
        }
        None => vec![AutoHardware::DEFAULT_PARALLELISM],
    };
    let default = pimcomp_core::DEFAULT_HEADROOM;
    let headroom = field_or(v, "headroom", "hardware.headroom", as_f64, default)?;
    if !headroom.is_finite() || headroom < 1.0 {
        return Err(invalid("`hardware.headroom` must be a finite number >= 1"));
    }
    Ok(AutoHardware {
        base,
        parallelism,
        headroom,
    })
}

fn parse_grid(v: &Value) -> Result<Vec<(String, HardwareConfig)>, ExploreError> {
    let known: Vec<&str> = ["base"]
        .into_iter()
        .chain(HW_AXES.iter().map(|a| a.field))
        .collect();
    reject_unknown(as_object(v, "hardware grid")?, &known, |key, known| {
        format!("unknown hardware field `{key}` (known fields: {known})")
    })?;
    let base = field_or(v, "base", "hardware.base", as_string, "puma".to_string())?;
    hardware_grid(&base, known_preset(&base)?, v)
}

fn parse_search(v: &Value, ga_iterations: usize) -> Result<SearchStrategy, ExploreError> {
    reject_unknown(
        as_object(v, "`search`")?,
        &["strategy", "rungs", "keep_fraction", "prune_margin"],
        |key, known| format!("unknown `search` field `{key}` (known fields: {known})"),
    )?;
    let strategy = match v.get("strategy") {
        Some(s) => as_string(s, "search.strategy")?,
        None => {
            return Err(invalid(
                "`search` needs a `strategy` (exhaustive | halving)",
            ))
        }
    };
    match strategy.as_str() {
        "exhaustive" => {
            for key in ["rungs", "keep_fraction", "prune_margin"] {
                if v.get(key).is_some() {
                    return Err(invalid(format!(
                        "`search.{key}` only applies to the halving strategy"
                    )));
                }
            }
            Ok(SearchStrategy::Exhaustive)
        }
        "halving" => {
            let rungs = match v.get("rungs") {
                None => HalvingSpec::default_rungs(ga_iterations),
                Some(axis) => {
                    let rungs = scalar_or_seq(axis, "search.rungs", as_usize)?;
                    if rungs.is_empty() || rungs[0] == 0 {
                        return Err(invalid(
                            "`search.rungs` must be a non-empty array of positive \
                             GA generation budgets",
                        ));
                    }
                    if !rungs.windows(2).all(|w| w[0] < w[1]) {
                        return Err(invalid("`search.rungs` must be strictly increasing"));
                    }
                    if rungs.last() != Some(&ga_iterations) {
                        return Err(invalid(format!(
                            "the final `search.rungs` entry must equal `ga.iterations` \
                             ({ga_iterations}) so survivors get the full budget"
                        )));
                    }
                    rungs
                }
            };
            let default = HalvingSpec::DEFAULT_KEEP_FRACTION;
            let keep_fraction =
                field_or(v, "keep_fraction", "search.keep_fraction", as_f64, default)?;
            if !keep_fraction.is_finite() || keep_fraction <= 0.0 || keep_fraction > 1.0 {
                return Err(invalid("`search.keep_fraction` must be within (0, 1]"));
            }
            let default = HalvingSpec::DEFAULT_PRUNE_MARGIN;
            let prune_margin = field_or(v, "prune_margin", "search.prune_margin", as_f64, default)?;
            if !prune_margin.is_finite() || prune_margin < 0.0 {
                return Err(invalid(
                    "`search.prune_margin` must be a non-negative number",
                ));
            }
            Ok(SearchStrategy::Halving(HalvingSpec {
                rungs,
                keep_fraction,
                prune_margin,
            }))
        }
        other => Err(invalid(format!(
            "unknown search strategy `{other}` (exhaustive | halving)"
        ))),
    }
}

/// Parses a field that must be a non-empty array without repeats:
/// every entry through `entry` (which gets the `FIELD entry` error
/// context, and returns `None` for a value outside the field's range).
pub(crate) fn list<T>(
    field: &str,
    v: &Value,
    expected: &str,
    entry: impl Fn(&Value, &str) -> Result<Option<T>, ExploreError>,
    label: impl Fn(&T) -> String,
) -> Result<Vec<T>, ExploreError> {
    let shape = || invalid(format!("`{field}` must be a non-empty array of {expected}"));
    let items = match v {
        Value::Seq(items) if !items.is_empty() => items,
        _ => return Err(shape()),
    };
    let ctx = format!("{field} entry");
    let values = items
        .iter()
        .map(|e| entry(e, &ctx)?.ok_or_else(shape))
        .collect::<Result<Vec<T>, _>>()?;
    reject_duplicates(&values.iter().map(label).collect::<Vec<_>>(), field)?;
    Ok(values)
}

/// [`list`] over integers `keep` accepts; any other entry is the
/// field's shape error.
pub(crate) fn int_list(
    field: &str,
    v: &Value,
    expected: &str,
    keep: fn(u64) -> bool,
) -> Result<Vec<u64>, ExploreError> {
    let entry = |e: &Value, ctx: &str| as_u64(e, ctx).map(|n| keep(n).then_some(n));
    list(field, v, expected, entry, u64::to_string)
}

/// [`list`] over integers in `1..=max`, a zero entry and one above
/// `max` each getting an error of its own.
pub(crate) fn positive_list(
    field: &str,
    v: &Value,
    expected: &str,
    max: usize,
) -> Result<Vec<usize>, ExploreError> {
    let entry = |e: &Value, ctx: &str| match as_u64(e, ctx)? {
        0 => Err(invalid(format!("`{field}` entries must be at least 1"))),
        n if n > max as u64 => Err(invalid(format!(
            "`{field}` entries must be at most {max}, not {n}"
        ))),
        n => Ok(Some(n as usize)),
    };
    list(field, v, expected, entry, usize::to_string)
}

/// Rejects the first object key outside `known`, with the message
/// `message(key, known joined by ", ")` builds.
pub(crate) fn reject_unknown(
    entries: &[(String, Value)],
    known: &[&str],
    message: impl Fn(&str, &str) -> String,
) -> Result<(), ExploreError> {
    match entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((key, _)) => Err(invalid(message(key, &known.join(", ")))),
        None => Ok(()),
    }
}

fn reject_duplicates(items: &[String], what: &str) -> Result<(), ExploreError> {
    let mut seen = std::collections::HashSet::new();
    for item in items {
        if !seen.insert(item.as_str()) {
            return Err(invalid(format!("duplicate entry `{item}` in {what}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 models × 2 modes × (2 chips × 2 parallelism = 4 hardware
    /// configurations) × 1 policy × 1 HT batch × 1 seed = 16 points.
    const EXAMPLE_SPEC: &str = r#"{
      "master_seed": 42,
      "models": ["tiny_cnn", "tiny_mlp"],
      "modes": ["ht", "ll"],
      "hardware": { "base": "small_test", "chips": [1, 2], "parallelism": [4, 8] },
      "memory_policies": ["ag"],
      "ht_batches": [2],
      "seeds": [1],
      "ga": { "population": 8, "iterations": 6 }
    }"#;

    #[test]
    fn example_spec_parses_to_sixteen_points() {
        let spec = SweepSpec::from_json(EXAMPLE_SPEC).unwrap();
        assert_eq!(spec.models.len(), 2);
        assert_eq!(spec.modes.len(), 2);
        assert_eq!(spec.hardware.len(), 4);
        assert_eq!(spec.policies, vec![ReusePolicy::AgReuse]);
        assert_eq!(spec.batches, vec![2]);
        assert_eq!(spec.seeds, vec![1]);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 16);
        assert_eq!(
            points[0].key(),
            "tiny_cnn/HT/small_test+chips1+par4/ag/b2/seed1"
        );
    }

    #[test]
    fn derived_seeds_split_from_master() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "master_seed":9,"num_seeds":3}"#,
        )
        .unwrap();
        assert_eq!(spec.seeds.len(), 3);
        let rederived: Vec<u64> = (0..3).map(|i| split_stream_seed(9, 0, i)).collect();
        assert_eq!(spec.seeds, rederived);
        // Seeds depend on the master, so two sweeps never collide.
        let other = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "master_seed":10,"num_seeds":3}"#,
        )
        .unwrap();
        assert_ne!(spec.seeds, other.seeds);
    }

    #[test]
    fn malformed_specs_are_structured_errors() {
        for (json, needle) in [
            ("[]", "must be an object"),
            ("{", "not valid JSON"),
            (r#"{"models":[],"hardware":{}}"#, "non-empty array"),
            (r#"{"models":["tiny_mlp"]}"#, "`hardware`"),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"base":"tpu"}}"#,
                "unknown hardware preset",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"chips":[0]}}"#,
                "hardware grid",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"modes":["fast"]}"#,
                "unknown pipeline mode",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"typo_field":1}"#,
                "unknown field `typo_field`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seeds":[1],"num_seeds":2}"#,
                "not both",
            ),
            (
                r#"{"models":["tiny_mlp","tiny_mlp"],"hardware":{}}"#,
                "duplicate entry",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ga":{"population":0}}"#,
                "must be positive",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"num_seeds":0}"#,
                "`num_seeds` must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"chips":-1}}"#,
                "non-negative",
            ),
        ] {
            let err = SweepSpec::from_json(json).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "spec {json} gave `{msg}`, expected to contain `{needle}`"
            );
        }
    }

    #[test]
    fn malformed_axis_fields_are_structured_errors() {
        for (json, needle) in [
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":[]}"#,
                "`memory_policies` must be a non-empty array",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"memory_policies":["lru"]}"#,
                "unknown memory policy `lru` (naive | add | ag)",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "memory_policies":["ag","ag"]}"#,
                "duplicate entry `ag` in memory_policies",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[]}"#,
                "`ht_batches` must be a non-empty array",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[0]}"#,
                "`ht_batches` entries must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[2,2]}"#,
                "duplicate entry `2` in ht_batches",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[2,70000]}"#,
                "`ht_batches` entries must be at most 65536, not 70000",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],
                    "ht_batches":[1,2]}"#,
                "`ht_batches` only applies to high-throughput mode",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":"automatic"}"#,
                "must be \"auto\"",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":false}}"#,
                "`hardware.auto` must be `true`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"chips":[1]}}"#,
                "unknown auto-hardware field `chips`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{"auto":true,"base":"tpu"}}"#,
                "unknown hardware preset `tpu`",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"parallelism":[0]}}"#,
                "`hardware.parallelism` must be a non-empty list of positive",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"parallelism":[4,4]}}"#,
                "duplicate entry `4` in hardware.parallelism",
            ),
            (
                r#"{"models":["tiny_mlp"],
                    "hardware":{"auto":true,"headroom":0.5}}"#,
                "`hardware.headroom` must be a finite number >= 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"weight_reload":"yes"}"#,
                "`weight_reload` must be `true`, `false`, or an object",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"weight_reload":{}}"#,
                "`weight_reload.budgets` must be a non-empty array of positive crossbar budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[]}}"#,
                "`weight_reload.budgets` must be a non-empty array of positive crossbar budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[0]}}"#,
                "`weight_reload.budgets` entries must be at least 1",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[256,256]}}"#,
                "duplicate entry `256` in weight_reload.budgets",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"budgets":[256],"include_off":1}}"#,
                "`weight_reload.include_off` must be a boolean",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},
                    "weight_reload":{"caps":[256]}}"#,
                "unknown `weight_reload` field `caps`",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[]}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":64}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[0]}"#,
                "`seq_lens` must be a non-empty array of positive integers",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"seq_lens":[64,64]}"#,
                "duplicate entry `64` in seq_lens",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[]}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":8}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[33]}"#,
                "`quantization` must be a non-empty array of integer ADC bit-widths in 0..=32",
            ),
            (
                r#"{"models":["tiny_mlp"],"hardware":{},"quantization":[8,8]}"#,
                "duplicate entry `8` in quantization",
            ),
        ] {
            let err = SweepSpec::from_json(json).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "spec {json} gave `{msg}`, expected to contain `{needle}`"
            );
        }
        // The bound itself is a batch `CompileOptions::validate` accepts.
        let json = r#"{"models":["tiny_mlp"],"hardware":{},"ht_batches":[65536]}"#;
        assert_eq!(SweepSpec::from_json(json).unwrap().batches, [65536]);
    }

    #[test]
    fn unknown_model_names_fail_at_parse_listing_alternatives() {
        let err =
            SweepSpec::from_json(r#"{"models":["alexnet"],"hardware":{"base":"small_test"}}"#)
                .unwrap_err();
        match &err {
            ExploreError::UnknownModel { name, available } => {
                assert_eq!(name, "alexnet");
                assert!(available.iter().any(|m| m == "vgg16"));
                assert!(available.iter().any(|m| m == "tiny_cnn"));
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("available models"), "{msg}");
        assert!(msg.contains(".onnx"), "{msg}");
        // `.onnx` paths are not resolved against the zoo at parse time.
        SweepSpec::from_json(r#"{"models":["anything.onnx"],"hardware":{"base":"small_test"}}"#)
            .unwrap();
    }

    #[test]
    fn seq_lens_axis_expands_innermost_and_tags_keys() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_bert"],"hardware":{"base":"small_test"},
                "seeds":[1],"seq_lens":[64,128]}"#,
        )
        .unwrap();
        assert_eq!(spec.seq_lens, vec![Some(64), Some(128)]);
        assert_eq!(spec.len(), 2);
        let points = spec.points().unwrap();
        assert_eq!(points[0].knobs.seq, Some(64));
        assert_eq!(points[1].knobs.seq, Some(128));
        assert!(points[0].key().ends_with("/seq64"), "{}", points[0].key());
        assert!(points[1].key().ends_with("/seq128"), "{}", points[1].key());

        // Without the axis, points stay unbound and keys keep the
        // historical form.
        let plain = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},"seeds":[1]}"#,
        )
        .unwrap();
        let points = plain.points().unwrap();
        assert_eq!(points[0].knobs.seq, None);
        assert!(!points[0].key().contains("/seq"), "{}", points[0].key());
    }

    #[test]
    fn quantization_axis_expands_innermost_and_tags_keys() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],"quantization":[0,8]}"#,
        )
        .unwrap();
        assert_eq!(spec.quantization, vec![Some(0), Some(8)]);
        assert_eq!(spec.len(), 2);
        let points = spec.points().unwrap();
        assert_eq!(points[0].knobs.quant, Some(0));
        assert_eq!(points[1].knobs.quant, Some(8));
        assert!(points[0].key().ends_with("/q0"), "{}", points[0].key());
        assert!(points[1].key().ends_with("/q8"), "{}", points[1].key());

        // Without the axis, points skip verification and keys keep the
        // historical form.
        let plain = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},"seeds":[1]}"#,
        )
        .unwrap();
        let points = plain.points().unwrap();
        assert_eq!(points[0].knobs.quant, None);
        assert!(!points[0].key().contains("/q"), "{}", points[0].key());
    }

    #[test]
    fn policy_and_batch_axes_cross_product_with_ll_collapsing() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"modes":["ht","ll"],
                "hardware":{"base":"small_test"},"seeds":[1],
                "memory_policies":["naive","ag"],"ht_batches":[1,4]}"#,
        )
        .unwrap();
        // HT: 2 policies x 2 batches; LL: 2 policies x 1 (collapsed).
        assert_eq!(spec.len(), 4 + 2);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 6);
        let keys: Vec<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            [
                "tiny_mlp/HT/small_test/naive/b1/seed1",
                "tiny_mlp/HT/small_test/naive/b4/seed1",
                "tiny_mlp/HT/small_test/ag/b1/seed1",
                "tiny_mlp/HT/small_test/ag/b4/seed1",
                "tiny_mlp/LL/small_test/naive/b1/seed1",
                "tiny_mlp/LL/small_test/ag/b1/seed1",
            ]
        );
        assert!(points
            .iter()
            .filter(|p| p.mode == PipelineMode::LowLatency)
            .all(|p| p.knobs.batch == 1));
        // An explicit batch of 1 is harmless without an HT mode; only
        // values above 1 require one.
        let ll_only = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{},"modes":["ll"],"ht_batches":[1]}"#,
        )
        .unwrap();
        assert_eq!(ll_only.batches, vec![1]);
    }

    #[test]
    fn legacy_scalar_spellings_are_unknown_fields() {
        // `policy` / `batch` were one-element spellings of the two
        // axes; they now fail like any other typo, and the error names
        // the fields to use instead.
        for field in [r#""policy":"ag""#, r#""batch":2"#] {
            let json = format!(r#"{{"models":["tiny_mlp"],"hardware":{{}},{field}}}"#);
            let name = field.split('"').nth(1).unwrap();
            assert_eq!(
                SweepSpec::from_json(&json).unwrap_err().to_string(),
                format!(
                    "invalid sweep spec: unknown field `{name}` (known fields: master_seed, \
                     models, modes, hardware, seeds, num_seeds, ga, memory_policies, \
                     ht_batches, weight_reload, seq_lens, quantization, search)"
                )
            );
        }
    }

    #[test]
    fn auto_hardware_sizes_per_model_with_labelled_parallelism() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp","tiny_cnn"],
                "hardware":{"auto":true,"base":"small_test",
                             "parallelism":[2,4]}}"#,
        )
        .unwrap();
        assert!(spec.hardware.is_auto());
        assert_eq!(spec.hardware.len(), 2);
        assert_eq!(spec.len(), 2 * 2);
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.hw_label.starts_with("auto-small_test+chips"),
                "{}",
                p.hw_label
            );
            assert!(p.hw.chips >= 1);
            p.hw.validate().unwrap();
        }
        assert_eq!(points[0].hw.parallelism, 2);
        assert_eq!(points[1].hw.parallelism, 4);
        // The bare string form uses every default.
        let bare = SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":"auto"}"#).unwrap();
        match &bare.hardware {
            HardwareAxis::Auto(a) => {
                assert_eq!(a.base, "puma");
                assert_eq!(a.parallelism, vec![AutoHardware::DEFAULT_PARALLELISM]);
                assert_eq!(a.headroom, pimcomp_core::DEFAULT_HEADROOM);
            }
            other => panic!("expected auto hardware, got {other:?}"),
        }
    }

    #[test]
    fn auto_hardware_sizes_symbolic_models_at_the_largest_seq_len() {
        // tiny_bert has a symbolic sequence dimension: auto sizing
        // binds the largest `seq_lens` entry so the chip count fits
        // the worst-case point of the sweep.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_bert"],
                "hardware":{"auto":true,"base":"puma"},
                "seq_lens":[64, 128]}"#,
        )
        .unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.hw_label.starts_with("auto-puma+chips"), "{}", p.hw_label);
            p.hw.validate().unwrap();
        }

        // Without the axis the model cannot be sized; the spec is
        // rejected with a structured error naming the fix.
        let bare = SweepSpec::from_json(r#"{"models":["tiny_bert"],"hardware":"auto"}"#).unwrap();
        let err = bare.points().unwrap_err();
        assert!(
            err.to_string().contains("add a `seq_lens` axis"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn weight_reload_axis_expands_and_keys_reload_points() {
        // Default: off for every point, no key suffix.
        let spec =
            SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"}}"#)
                .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::Off]);
        assert!(!spec.points().unwrap()[0].key().contains("reload"));

        // `true`: every point compiles in reload mode at full capacity.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],"weight_reload":true}"#,
        )
        .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::On(None)]);
        assert_eq!(
            spec.points().unwrap()[0].key(),
            "tiny_mlp/HT/small_test/ag/b2/seed1/reload-full"
        );

        // Budget list with include_off: off first, then one point per
        // budget, innermost in the expansion order.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "seeds":[1],
                "weight_reload":{"budgets":[256,128],"include_off":true}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.weight_reload,
            vec![
                ReloadSetting::Off,
                ReloadSetting::On(Some(256)),
                ReloadSetting::On(Some(128)),
            ]
        );
        assert_eq!(spec.len(), 3);
        let keys: Vec<String> = spec.points().unwrap().iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            [
                "tiny_mlp/HT/small_test/ag/b2/seed1",
                "tiny_mlp/HT/small_test/ag/b2/seed1/reload-256",
                "tiny_mlp/HT/small_test/ag/b2/seed1/reload-128",
            ]
        );

        // `false` is accepted and identical to omitting the field.
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "weight_reload":false}"#,
        )
        .unwrap();
        assert_eq!(spec.weight_reload, vec![ReloadSetting::Off]);
    }

    #[test]
    fn oversized_sweeps_are_capped() {
        let json = format!(
            r#"{{"models":["tiny_mlp"],"hardware":{{"base":"small_test"}},"num_seeds":{}}}"#,
            MAX_SWEEP_POINTS + 1
        );
        assert!(matches!(
            SweepSpec::from_json(&json),
            Err(ExploreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn search_section_parses_with_defaults_and_overrides() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "ga":{"population":4,"iterations":24},
                "search":{"strategy":"halving"}}"#,
        )
        .unwrap();
        match &spec.search {
            SearchStrategy::Halving(h) => {
                assert_eq!(h.rungs, vec![2, 8, 24]);
                assert_eq!(h.keep_fraction, HalvingSpec::DEFAULT_KEEP_FRACTION);
                assert_eq!(h.prune_margin, HalvingSpec::DEFAULT_PRUNE_MARGIN);
            }
            other => panic!("expected halving, got {other:?}"),
        }
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "ga":{"population":4,"iterations":6},
                "search":{"strategy":"halving","rungs":[1,6],
                          "keep_fraction":0.4,"prune_margin":0.0}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.search,
            SearchStrategy::Halving(HalvingSpec {
                rungs: vec![1, 6],
                keep_fraction: 0.4,
                prune_margin: 0.0,
            })
        );
        // Default and explicit exhaustive are the same strategy.
        let default =
            SweepSpec::from_json(r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"}}"#)
                .unwrap();
        let explicit = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],"hardware":{"base":"small_test"},
                "search":{"strategy":"exhaustive"}}"#,
        )
        .unwrap();
        assert_eq!(default.search, SearchStrategy::Exhaustive);
        assert_eq!(explicit.search, SearchStrategy::Exhaustive);
    }

    #[test]
    fn default_rung_ladders_end_at_the_full_budget() {
        assert_eq!(HalvingSpec::default_rungs(24), vec![2, 8, 24]);
        assert_eq!(HalvingSpec::default_rungs(200), vec![2, 7, 22, 66, 200]);
        assert_eq!(HalvingSpec::default_rungs(6), vec![2, 6]);
        assert_eq!(HalvingSpec::default_rungs(2), vec![2]);
        assert_eq!(HalvingSpec::default_rungs(1), vec![1]);
        assert_eq!(HalvingSpec::default_rungs(0), vec![1]);
        for i in 1..=64 {
            let rungs = HalvingSpec::default_rungs(i);
            assert!(rungs.windows(2).all(|w| w[0] < w[1]), "ladder for {i}");
            assert_eq!(rungs.last(), Some(&i));
        }
    }

    #[test]
    fn malformed_search_sections_are_structured_errors() {
        let base = |search: &str| {
            format!(
                r#"{{"models":["tiny_mlp"],"hardware":{{"base":"small_test"}},
                    "ga":{{"population":4,"iterations":6}},"search":{search}}}"#
            )
        };
        for (search, needle) in [
            (r#"{}"#, "needs a `strategy`"),
            (r#"{"strategy":"random"}"#, "unknown search strategy"),
            (
                r#"{"strategy":"halving","typo":1}"#,
                "unknown `search` field",
            ),
            (
                r#"{"strategy":"exhaustive","rungs":[1,6]}"#,
                "only applies to the halving strategy",
            ),
            (
                r#"{"strategy":"halving","rungs":[]}"#,
                "non-empty array of positive",
            ),
            (
                r#"{"strategy":"halving","rungs":[0,6]}"#,
                "non-empty array of positive",
            ),
            (
                r#"{"strategy":"halving","rungs":[4,2,6]}"#,
                "strictly increasing",
            ),
            (
                r#"{"strategy":"halving","rungs":[1,2]}"#,
                "must equal `ga.iterations` (6)",
            ),
            (
                r#"{"strategy":"halving","keep_fraction":0}"#,
                "within (0, 1]",
            ),
            (
                r#"{"strategy":"halving","keep_fraction":1.5}"#,
                "within (0, 1]",
            ),
            (
                r#"{"strategy":"halving","prune_margin":-0.5}"#,
                "non-negative",
            ),
        ] {
            let err = SweepSpec::from_json(&base(search)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "search {search} gave `{msg}`, expected to contain `{needle}`"
            );
        }
    }

    #[test]
    fn hardware_accepts_scalar_axes_and_grid_arrays() {
        let spec = SweepSpec::from_json(
            r#"{"models":["tiny_mlp"],
                "hardware":[{"base":"small_test","chips":1},
                            {"base":"small_test","chips":2,"parallelism":[4,8]}]}"#,
        )
        .unwrap();
        let HardwareAxis::Explicit(hardware) = &spec.hardware else {
            panic!("expected explicit hardware");
        };
        assert_eq!(hardware.len(), 3);
        assert_eq!(hardware[0].0, "small_test+chips1");
        assert_eq!(hardware[2].1.parallelism, 8);
    }

    fn explicit_hardware(grid: &str) -> Vec<(String, HardwareConfig)> {
        let json = format!(r#"{{"models":["tiny_mlp"],"hardware":{grid}}}"#);
        match SweepSpec::from_json(&json).unwrap().hardware {
            HardwareAxis::Explicit(list) => list,
            other => panic!("expected explicit hardware, got {other:?}"),
        }
    }

    #[test]
    fn hardware_grid_crosses_its_rows_in_table_order_over_a_preset() {
        // No swept row: the preset itself, under the name it was given.
        let puma = explicit_hardware(r#"{"base":"puma"}"#);
        assert_eq!(puma, [("puma".to_string(), HardwareConfig::puma())]);
        assert_eq!(explicit_hardware("{}"), puma);
        let small = explicit_hardware(r#"{"base":"small"}"#);
        assert_eq!(small, [("small".to_string(), HardwareConfig::small_test())]);
        // Rows nest in table order, whatever order the object lists them.
        let grid = explicit_hardware(r#"{"parallelism":[4,8],"base":"small_test","chips":[1,2]}"#);
        let labels: Vec<&str> = grid.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "small_test+chips1+par4",
                "small_test+chips1+par8",
                "small_test+chips2+par4",
                "small_test+chips2+par8",
            ]
        );
        assert_eq!((grid[3].1.chips, grid[3].1.parallelism), (2, 8));
    }
}
