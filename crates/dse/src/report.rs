//! Versioned sweep reports: per-point records, the Pareto frontier,
//! JSON/CSV emission, and report-to-report diffs.

use crate::axis::AXES;
use crate::ExploreError;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The report format this build writes (and the only one it reads).
/// Bump on any breaking change to [`SweepReport`]'s serialized shape.
///
/// v2: [`PointRecord`] gained the guided-search provenance fields
/// (`rung`, `budget`, `pruned_at`).
///
/// v3: [`PointRecord`] gained the compiler-knob axes (`policy`,
/// `batch`), which also entered the point key and the CSV columns.
///
/// v4: [`PointRecord`] gained the `weight_reload` axis (entering the
/// point key for reload-on points and the CSV columns) and
/// [`PointMetrics`] gained `reload_stall_cycles`.
///
/// v5: [`PointRecord`] gained the `seq_len` axis (entering the point
/// key for sequence-bound points and the CSV columns).
///
/// v6: [`PointRecord`] gained the `quantization` axis (entering the
/// point key for quantized points and the CSV columns) and
/// [`PointMetrics`] gained the functional-verification accuracy
/// metrics `output_rmse` / `top1_match`.
pub const SWEEP_FORMAT_VERSION: u32 = 6;

/// Deterministic metrics of one successfully compiled and simulated
/// sweep point. Everything here is a pure function of (model, mode,
/// hardware, seed) — no wall-clock quantities — which is what makes
/// reports byte-identical across thread counts and cache states.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointMetrics {
    /// HT: steady-state pipeline interval; LL: single-inference
    /// latency. In cycles.
    pub cycles: u64,
    /// Steady-state throughput in inferences/second.
    pub throughput_inf_per_s: f64,
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Total energy per inference in µJ.
    pub energy_uj: f64,
    /// Dynamic energy in µJ.
    pub dynamic_uj: f64,
    /// Leakage energy in µJ.
    pub leakage_uj: f64,
    /// Fraction of the accelerator's crossbars holding weights.
    pub crossbar_utilization: f64,
    /// Fraction of cores doing any work.
    pub core_utilization: f64,
    /// Mean local-memory working set in kB.
    pub avg_local_kb: f64,
    /// Global-memory traffic per inference in kB.
    pub global_traffic_kb: f64,
    /// Cores that did any work.
    pub active_cores: usize,
    /// Crossbars occupied by weights.
    pub crossbars_used: usize,
    /// Cycles the pipeline stalled rewriting crossbar weights between
    /// mapping epochs. Zero for every point that fit its budget (or
    /// compiled without `weight_reload`). Folded into `cycles`, so the
    /// objective vector needs no fifth axis.
    pub reload_stall_cycles: u64,
    /// Root-mean-square error of the mapped execution against the
    /// reference interpreter, from the functional verification a
    /// `quantization` axis requests. `None` for unverified points.
    /// Deterministic: a pure function of (graph, seed, quantization
    /// setting), like every other metric here.
    pub output_rmse: Option<f64>,
    /// Whether the mapped execution's top-1 output index matches the
    /// reference interpreter's (1-sample accuracy proxy). `None` for
    /// unverified points.
    pub top1_match: Option<bool>,
}

impl PointMetrics {
    /// The minimization objective vector of the Pareto reduction:
    /// latency (cycles), energy, negated throughput, negated crossbar
    /// utilization. Non-finite components are pushed to `+inf` so a
    /// degenerate point can never dominate a healthy one.
    pub(crate) fn objectives(&self) -> [f64; 4] {
        let clean = |v: f64| if v.is_finite() { v } else { f64::INFINITY };
        [
            clean(self.cycles as f64),
            clean(self.energy_uj),
            clean(-self.throughput_inf_per_s),
            clean(-self.crossbar_utilization),
        ]
    }

    /// `true` when `self` Pareto-dominates `other`: no objective worse,
    /// at least one strictly better.
    pub(crate) fn dominates(&self, other: &PointMetrics) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        a.iter().zip(&b).all(|(x, y)| x <= y) && a.iter().zip(&b).any(|(x, y)| x < y)
    }
}

/// `true` when objective vector `a` dominates `b` *decisively*: on
/// every objective, `a` is better by at least `margin` relative to `b`'s
/// magnitude (and plain dominance holds).
///
/// The guided-search engine prunes with this rather than plain
/// dominance because cheap-rung metrics are noisy proxies for the
/// full-budget result — a borderline-dominated point may still win at
/// the full budget, but one dominated with slack rarely does.
/// `margin = 0.0` degenerates to [`PointMetrics::dominates`]. Takes
/// pre-computed vectors because the per-rung pruning scan computes each
/// point's objectives once instead of per pairwise probe.
pub(crate) fn margin_dominates(a: &[f64; 4], b: &[f64; 4], margin: f64) -> bool {
    if !margin.is_finite() || margin < 0.0 {
        return false;
    }
    let dominates = a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y);
    dominates && a.iter().zip(b).all(|(x, y)| x + margin * y.abs() <= *y)
}

/// One evaluated sweep point: identity, outcome, metrics, and whether
/// it sits on its (model, mode) group's Pareto frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// Model name.
    pub model: String,
    /// Pipeline mode (`HT` / `LL`).
    pub mode: String,
    /// Hardware configuration label (from the grid expansion or the
    /// auto sizing).
    pub hardware: String,
    /// Memory-reuse policy, by spec name (`naive` / `add` / `ag`).
    pub policy: String,
    /// HT transfer batch (always 1 for LL points).
    pub batch: u64,
    /// GA seed of this point.
    pub seed: u64,
    /// Weight-reload setting of this point: `off`, `full` (reload mode
    /// at the target's full crossbar capacity), or the explicit
    /// crossbar budget.
    pub weight_reload: String,
    /// Sequence-length binding of this point (`None` = unbound, the
    /// only possibility for specs without a `seq_lens` axis).
    pub seq_len: Option<u64>,
    /// Quantization setting of this point (`None` = no functional
    /// verification, the only possibility for specs without a
    /// `quantization` axis; `0` = unquantized check; otherwise the ADC
    /// bit-width).
    pub quantization: Option<u64>,
    /// Highest search rung this point was evaluated at (0-based).
    /// Exhaustive sweeps have a single rung, so this is always 0 there;
    /// under successive halving a value below the final rung means the
    /// point was halved or pruned early and `metrics` holds its
    /// cheap-budget result.
    pub rung: u32,
    /// Total GA generations spent on this point across all rungs it was
    /// evaluated at. Points that fail before the GA runs (compile
    /// errors) are not charged their rung's budget.
    pub budget: u64,
    /// The rung after which dominance pruning dropped this point
    /// (its cheap-rung metrics were Pareto-dominated by the configured
    /// margin); `None` for points that were halved or survived.
    pub pruned_at: Option<u32>,
    /// `true` when the point compiled and simulated.
    pub ok: bool,
    /// The structured failure, when `ok` is false. A failed point never
    /// aborts the sweep.
    pub error: Option<String>,
    /// Metrics, when `ok`.
    pub metrics: Option<PointMetrics>,
    /// `true` when the point is on the Pareto frontier of its
    /// (model, mode) group.
    pub pareto: bool,
}

impl PointRecord {
    /// Stable identity (`model/mode/hardware/policy/bBATCH/seedSEED`),
    /// the key diffs join on — and, through
    /// [`SweepPoint::key`](crate::SweepPoint::key), the one place the
    /// format is written down. Reload-on points append a
    /// `/reload-BUDGET` segment (`full` for the full-capacity budget),
    /// sequence-bound points a `/seqN` segment, and quantized points a
    /// final `/qB` segment; points that leave those knobs at their
    /// defaults keep the historical six-segment form, so keys from
    /// older reports still line up in diffs.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}/{}/{}/b{}/seed{}",
            self.model, self.mode, self.hardware, self.policy, self.batch, self.seed
        );
        if self.weight_reload != "off" {
            key.push_str("/reload-");
            key.push_str(&self.weight_reload);
        }
        if let Some(seq) = self.seq_len {
            key.push_str(&format!("/seq{seq}"));
        }
        if let Some(q) = self.quantization {
            key.push_str(&format!("/q{q}"));
        }
        key
    }
}

/// The CSV columns after the identity and knob columns: search
/// provenance, outcome, every [`PointMetrics`] field, and the error.
const CSV_TAIL: &str = "rung,budget,pruned_at,ok,pareto,cycles,throughput_inf_per_s,latency_us,\
    energy_uj,dynamic_uj,leakage_uj,crossbar_utilization,core_utilization,avg_local_kb,\
    global_traffic_kb,active_cores,crossbars_used,reload_stall_cycles,output_rmse,top1_match,error";

/// A complete sweep result: every point in spec order plus the Pareto
/// frontier, versioned for persistence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report format version ([`SWEEP_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Every point, in spec expansion order.
    pub points: Vec<PointRecord>,
    /// Indices into `points` of frontier members, ascending.
    pub frontier: Vec<usize>,
}

impl SweepReport {
    /// Assembles a report from evaluated points: computes each
    /// (model, mode) group's Pareto frontier and flags the members.
    pub(crate) fn assemble(master_seed: u64, mut points: Vec<PointRecord>) -> Self {
        let frontier = pareto_frontier(&points);
        for &i in &frontier {
            points[i].pareto = true;
        }
        SweepReport {
            format_version: SWEEP_FORMAT_VERSION,
            master_seed,
            points,
            frontier,
        }
    }

    /// The frontier's records, in index order.
    pub fn frontier_records(&self) -> impl Iterator<Item = &PointRecord> {
        self.frontier.iter().map(|&i| &self.points[i])
    }

    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| !p.ok).count()
    }

    /// Serializes as pretty JSON (deterministic: field order is
    /// declaration order, floats use shortest-round-trip formatting).
    ///
    /// # Errors
    ///
    /// [`ExploreError::Serialization`] when encoding fails.
    pub fn to_json(&self) -> Result<String, ExploreError> {
        serde_json::to_string_pretty(self).map_err(|e| ExploreError::Serialization {
            detail: e.to_string(),
        })
    }

    /// Deserializes a report, checking the format version before
    /// decoding the full shape.
    ///
    /// # Errors
    ///
    /// [`ExploreError::UnsupportedVersion`] /
    /// [`ExploreError::Serialization`].
    pub fn from_json(json: &str) -> Result<Self, ExploreError> {
        let value = serde_json::parse_value(json).map_err(|e| ExploreError::Serialization {
            detail: e.to_string(),
        })?;
        let found = value
            .get("format_version")
            .and_then(|v| match v {
                Value::Int(i) => u32::try_from(*i).ok(),
                _ => None,
            })
            .ok_or_else(|| ExploreError::Serialization {
                detail: "report is missing `format_version`".to_string(),
            })?;
        if found != SWEEP_FORMAT_VERSION {
            return Err(ExploreError::UnsupportedVersion {
                found,
                supported: SWEEP_FORMAT_VERSION,
            });
        }
        Deserialize::from_value(&value).map_err(|e| ExploreError::Serialization {
            detail: e.to_string(),
        })
    }

    /// Reads a report from a JSON file.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Io`] plus the [`SweepReport::from_json`] errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ExploreError> {
        let json = std::fs::read_to_string(path.as_ref()).map_err(|e| ExploreError::Io {
            detail: format!("reading {}: {e}", path.as_ref().display()),
        })?;
        Self::from_json(&json)
    }

    /// Renders the report as CSV, one row per point in spec order.
    /// Deterministic like [`SweepReport::to_json`].
    pub fn to_csv(&self) -> String {
        let knobs: Vec<&str> = AXES.iter().map(|a| a.column).collect();
        let header = format!("model,mode,hardware,{},{CSV_TAIL}", knobs.join(","));
        let mut out = header.clone() + "\n";
        for p in &self.points {
            // Every column names a field of the record or of its
            // metrics, so the serialized record holds the whole row.
            let record = p.to_value();
            let cell = |column: &str| {
                let metric = || record.get("metrics")?.get(column);
                match record.get(column).or_else(metric) {
                    Some(Value::Str(s)) => csv_field(s),
                    Some(Value::Bool(b)) => b.to_string(),
                    Some(Value::Int(i)) => i.to_string(),
                    Some(Value::Float(f)) => f.to_string(),
                    // `null`: an unset option, or a failed point's metrics.
                    _ => String::new(),
                }
            };
            let row: Vec<String> = header.split(',').map(cell).collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Structural diff against a newer report: which points appeared,
    /// vanished, changed metrics, changed outcome, or moved on/off the
    /// Pareto frontier. Points are joined on [`PointRecord::key`].
    pub fn diff(&self, newer: &SweepReport) -> SweepDiff {
        fn by_key(report: &SweepReport) -> BTreeMap<String, &PointRecord> {
            report.points.iter().map(|p| (p.key(), p)).collect()
        }
        let (old_points, new_points) = (by_key(self), by_key(newer));

        let mut diff = SweepDiff::default();
        for (key, new) in &new_points {
            let Some(old) = old_points.get(key) else {
                diff.added.push(key.clone());
                continue;
            };
            match (old.ok, new.ok) {
                (true, false) => diff.now_failing.push(key.clone()),
                (false, true) => diff.now_passing.push(key.clone()),
                _ => {}
            }
            // Reports come from disk: an `ok` point whose metrics are
            // missing is malformed input, not a reason to panic.
            if old.ok && new.ok && old.metrics != new.metrics {
                if let (Some(before), Some(after)) = (&old.metrics, &new.metrics) {
                    diff.changed.push(PointChange {
                        key: key.clone(),
                        before: before.clone(),
                        after: after.clone(),
                    });
                }
            }
            match (old.pareto, new.pareto) {
                (false, true) => diff.entered_frontier.push(key.clone()),
                (true, false) => diff.left_frontier.push(key.clone()),
                _ => {}
            }
        }
        let gone = old_points
            .keys()
            .filter(|key| !new_points.contains_key(*key));
        diff.removed = gone.cloned().collect();
        diff
    }
}

/// What changed between two evaluations of the same point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointChange {
    /// The point's key (`model/mode/hardware/seed`).
    pub key: String,
    /// Metrics in the older report.
    pub before: PointMetrics,
    /// Metrics in the newer report.
    pub after: PointMetrics,
}

/// The result of [`SweepReport::diff`]. All lists are sorted by point
/// key (the maps driving the diff are ordered), so diffs themselves are
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepDiff {
    /// Points only in the newer report.
    pub added: Vec<String>,
    /// Points only in the older report.
    pub removed: Vec<String>,
    /// Points whose metrics changed (both runs succeeded).
    pub changed: Vec<PointChange>,
    /// Points that failed before and succeed now.
    pub now_passing: Vec<String>,
    /// Points that succeeded before and fail now.
    pub now_failing: Vec<String>,
    /// Points that joined the Pareto frontier.
    pub entered_frontier: Vec<String>,
    /// Points that dropped off the Pareto frontier.
    pub left_frontier: Vec<String>,
}

impl SweepDiff {
    /// `true` when the two reports are equivalent point for point.
    pub fn is_empty(&self) -> bool {
        *self == SweepDiff::default()
    }
}

impl fmt::Display for SweepDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "reports are identical");
        }
        let list = |f: &mut fmt::Formatter<'_>, title: &str, keys: &[String]| -> fmt::Result {
            if !keys.is_empty() {
                writeln!(f, "{title} ({}):", keys.len())?;
                for k in keys {
                    writeln!(f, "  {k}")?;
                }
            }
            Ok(())
        };
        list(f, "added", &self.added)?;
        list(f, "removed", &self.removed)?;
        list(f, "now passing", &self.now_passing)?;
        list(f, "now failing", &self.now_failing)?;
        if !self.changed.is_empty() {
            writeln!(f, "changed metrics ({}):", self.changed.len())?;
            for c in &self.changed {
                let pct = |before: f64, after: f64| {
                    if before == 0.0 {
                        0.0
                    } else {
                        (after - before) / before * 100.0
                    }
                };
                writeln!(
                    f,
                    "  {}: cycles {} -> {} ({:+.1}%), energy {:.2} -> {:.2} uJ ({:+.1}%)",
                    c.key,
                    c.before.cycles,
                    c.after.cycles,
                    pct(c.before.cycles as f64, c.after.cycles as f64),
                    c.before.energy_uj,
                    c.after.energy_uj,
                    pct(c.before.energy_uj, c.after.energy_uj),
                )?;
            }
        }
        list(f, "entered Pareto frontier", &self.entered_frontier)?;
        list(f, "left Pareto frontier", &self.left_frontier)?;
        Ok(())
    }
}

/// Indices of the points on their (model, mode) group's Pareto
/// frontier, ascending. Failed points never make the frontier; points
/// are only compared within their group (comparing latency across
/// different workloads or objectives across modes is meaningless), and
/// only points evaluated at the final search rung compete — under
/// successive halving, a point halted at a cheap rung carries
/// cheap-budget metrics that must not be ranked against full-budget
/// survivors. (Exhaustive sweeps have a single rung, so every point is
/// eligible there.)
///
/// Points are grouped *before* the pairwise dominance scan, so the cost
/// is quadratic in the largest group, not in the whole report — a
/// 10k-point sweep over a handful of (model, mode) groups stays in the
/// millions of comparisons instead of ~10⁸.
pub(crate) fn pareto_frontier(points: &[PointRecord]) -> Vec<usize> {
    let final_rung = points.iter().map(|p| p.rung).max().unwrap_or(0);
    let mut groups: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        if p.metrics.is_some() && p.rung == final_rung {
            groups
                .entry((p.model.as_str(), p.mode.as_str()))
                .or_default()
                .push(i);
        }
    }
    let mut frontier = Vec::new();
    for members in groups.values() {
        for &i in members {
            let Some(m) = &points[i].metrics else {
                continue;
            };
            let dominated = members
                .iter()
                .any(|&j| i != j && points[j].metrics.as_ref().is_some_and(|n| n.dominates(m)));
            if !dominated {
                frontier.push(i);
            }
        }
    }
    frontier.sort_unstable();
    frontier
}

/// Quotes a CSV field when it contains a separator, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: u64, energy: f64, util: f64) -> PointMetrics {
        PointMetrics {
            cycles,
            throughput_inf_per_s: 1e9 / cycles as f64,
            latency_us: cycles as f64 / 1e3,
            energy_uj: energy,
            dynamic_uj: energy * 0.6,
            leakage_uj: energy * 0.4,
            crossbar_utilization: util,
            core_utilization: util,
            avg_local_kb: 4.0,
            global_traffic_kb: 16.0,
            active_cores: 4,
            crossbars_used: 32,
            reload_stall_cycles: 0,
            output_rmse: None,
            top1_match: None,
        }
    }

    fn record(model: &str, mode: &str, hw: &str, m: Option<PointMetrics>) -> PointRecord {
        PointRecord {
            model: model.into(),
            mode: mode.into(),
            hardware: hw.into(),
            policy: "ag".into(),
            batch: 2,
            seed: 1,
            weight_reload: "off".into(),
            seq_len: None,
            quantization: None,
            rung: 0,
            budget: 4,
            pruned_at: None,
            ok: m.is_some(),
            error: if m.is_some() {
                None
            } else {
                Some("boom".into())
            },
            metrics: m,
            pareto: false,
        }
    }

    #[test]
    fn dominance_is_strict_and_nan_safe() {
        let a = metrics(100, 1.0, 0.5);
        let b = metrics(200, 2.0, 0.25);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
        let mut nan = metrics(50, 0.5, 0.9);
        nan.energy_uj = f64::NAN;
        assert!(!nan.dominates(&b));
    }

    #[test]
    fn frontier_is_per_model_mode_group_and_skips_failures() {
        let points = vec![
            record("m1", "HT", "a", Some(metrics(100, 1.0, 0.5))),
            record("m1", "HT", "b", Some(metrics(200, 2.0, 0.25))), // dominated
            record("m1", "LL", "a", Some(metrics(900, 9.0, 0.1))),  // own group
            record("m2", "HT", "a", Some(metrics(300, 3.0, 0.2))),  // own group
            record("m1", "HT", "c", None),                          // failed
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 2, 3]);
    }

    #[test]
    fn margin_dominance_needs_slack_on_every_objective() {
        let (a, b) = (metrics(100, 1.0, 0.5), metrics(200, 2.0, 0.25));
        let (a, b) = (a.objectives(), b.objectives());
        assert!(margin_dominates(&a, &b, 0.0));
        // cycles 100 vs 200 is 50% slack, but utilization 0.5 vs 0.25
        // (objective -0.5 vs -0.25) is exactly 100% — margin 0.4 passes
        // on every axis, margin 2.0 fails the cycles axis.
        assert!(margin_dominates(&a, &b, 0.4));
        assert!(!margin_dominates(&a, &b, 2.0));
        // Margin-dominance implies dominance.
        assert!(!margin_dominates(&b, &a, 0.0));
        // Degenerate margins never prune.
        assert!(!margin_dominates(&a, &b, -1.0));
        assert!(!margin_dominates(&a, &b, f64::NAN));
    }

    #[test]
    fn grouped_frontier_matches_the_naive_quadratic_scan() {
        // Regression for the O(n²)-over-all-points frontier: the
        // grouped implementation must select exactly the indices the
        // original one-pass quadratic reference selects.
        fn naive_frontier(points: &[PointRecord]) -> Vec<usize> {
            let mut frontier = Vec::new();
            for (i, p) in points.iter().enumerate() {
                let Some(m) = &p.metrics else { continue };
                let dominated = points.iter().enumerate().any(|(j, q)| {
                    i != j
                        && q.model == p.model
                        && q.mode == p.mode
                        && q.metrics.as_ref().is_some_and(|n| n.dominates(m))
                });
                if !dominated {
                    frontier.push(i);
                }
            }
            frontier
        }
        // A deterministic pseudo-random population over 3 models × 2
        // modes, with some failures sprinkled in.
        let mut points = Vec::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for model in ["m1", "m2", "m3"] {
            for mode in ["HT", "LL"] {
                for k in 0..40 {
                    let m = (next() % 7 != 0).then(|| {
                        metrics(
                            100 + next() % 400,
                            (next() % 50) as f64 / 10.0,
                            0.1 + (next() % 80) as f64 / 100.0,
                        )
                    });
                    points.push(record(model, mode, &format!("hw{k}"), m));
                }
            }
        }
        assert_eq!(pareto_frontier(&points), naive_frontier(&points));
    }

    #[test]
    fn frontier_only_ranks_final_rung_points() {
        // A halved point with spectacular cheap-budget metrics must not
        // outrank full-budget survivors.
        let mut cheap = record("m", "HT", "halved", Some(metrics(10, 0.1, 0.9)));
        cheap.rung = 0;
        let mut survivor = record("m", "HT", "kept", Some(metrics(200, 2.0, 0.3)));
        survivor.rung = 1;
        let points = vec![cheap, survivor];
        assert_eq!(pareto_frontier(&points), vec![1]);
    }

    #[test]
    fn incomparable_points_share_the_frontier() {
        let points = vec![
            record("m", "HT", "fast_hot", Some(metrics(100, 5.0, 0.5))),
            record("m", "HT", "slow_cool", Some(metrics(500, 1.0, 0.5))),
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 1]);
    }

    #[test]
    fn report_json_round_trips_and_gates_on_version() {
        let report = SweepReport::assemble(
            7,
            vec![
                record("m", "HT", "a", Some(metrics(100, 1.0, 0.5))),
                record("m", "HT", "b", None),
            ],
        );
        assert_eq!(report.frontier, vec![0]);
        assert!(report.points[0].pareto);
        assert_eq!(report.failures(), 1);
        let json = report.to_json().unwrap();
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        let bad = json.replacen(
            &format!("\"format_version\": {SWEEP_FORMAT_VERSION}"),
            "\"format_version\": 999",
            1,
        );
        assert!(matches!(
            SweepReport::from_json(&bad),
            Err(ExploreError::UnsupportedVersion { found: 999, .. })
        ));
    }

    #[test]
    fn csv_has_one_row_per_point_and_quotes_errors() {
        let mut failed = record("m", "HT", "b", None);
        failed.error = Some("bad, \"quoted\"".into());
        let report = SweepReport::assemble(
            1,
            vec![record("m", "HT", "a", Some(metrics(100, 1.0, 0.5))), failed],
        );
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(
            "model,mode,hardware,policy,batch,seed,weight_reload,seq_len,quantization,rung,\
             budget,pruned_at,ok,pareto"
        ));
        // policy ag, batch 2, seed 1, reload off, empty seq_len, empty
        // quantization, rung 0, budget 4, empty pruned_at, ok, pareto,
        // cycles.
        assert!(lines[1].contains("ag,2,1,off,,,0,4,,true,true,100"));
        assert!(lines[2].contains("\"bad, \"\"quoted\"\"\""));
    }

    #[test]
    fn diff_survives_ok_points_without_metrics() {
        // `explore --diff A --against B` loads both reports from disk,
        // so `"ok": true, "metrics": null` is reachable user input: it
        // must not panic, whichever side carries it.
        let whole =
            SweepReport::assemble(1, vec![record("m", "HT", "a", Some(metrics(9, 1.0, 0.5)))]);
        let mut hollow = whole.clone();
        hollow.points[0].metrics = None;
        let hollow = SweepReport::from_json(&hollow.to_json().unwrap()).unwrap();
        assert!(hollow.points[0].ok && hollow.points[0].metrics.is_none());
        for (old, new) in [(&whole, &hollow), (&hollow, &whole), (&hollow, &hollow)] {
            assert!(old.diff(new).changed.is_empty());
        }
    }

    #[test]
    fn diff_reports_all_transition_kinds() {
        let old = SweepReport::assemble(
            1,
            vec![
                record("m", "HT", "a", Some(metrics(100, 1.0, 0.5))),
                record("m", "HT", "b", Some(metrics(50, 0.5, 0.9))),
                record("m", "HT", "gone", Some(metrics(400, 4.0, 0.1))),
                record("m", "HT", "flaky", None),
            ],
        );
        let new = SweepReport::assemble(
            1,
            vec![
                record("m", "HT", "a", Some(metrics(90, 0.9, 0.5))),
                record("m", "HT", "b", None),
                record("m", "HT", "fresh", Some(metrics(10, 0.1, 0.9))),
                record("m", "HT", "flaky", Some(metrics(70, 0.7, 0.3))),
            ],
        );
        let diff = old.diff(&new);
        assert_eq!(diff.added, vec!["m/HT/fresh/ag/b2/seed1"]);
        assert_eq!(diff.removed, vec!["m/HT/gone/ag/b2/seed1"]);
        assert_eq!(diff.now_failing, vec!["m/HT/b/ag/b2/seed1"]);
        assert_eq!(diff.now_passing, vec!["m/HT/flaky/ag/b2/seed1"]);
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].key, "m/HT/a/ag/b2/seed1");
        assert!(!diff.is_empty());
        let rendered = diff.to_string();
        assert!(rendered.contains("m/HT/fresh/ag/b2/seed1"));
        assert!(rendered.contains("changed metrics"));
        assert!(old.diff(&old).is_empty());
    }
}
