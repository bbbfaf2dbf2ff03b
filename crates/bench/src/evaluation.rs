//! The paper's sweep as one value ([`evaluate`]) and its views: Fig. 8,
//! Fig. 9, Fig. 10, Table II and the paper-vs-ours [`Claim`]s.

use crate::{hardware_for, load_network, HarnessError, HarnessOptions};
use pimcomp_arch::PipelineMode;
use pimcomp_core::{CompileOptions, MemoryPlan, ReusePolicy, StageTimings};
use pimcomp_sim::SimReport;
use serde::{Deserialize, Serialize};

/// Both compilation modes, in the paper's order.
const MODES: [PipelineMode; 2] = [PipelineMode::HighThroughput, PipelineMode::LowLatency];

/// The parallelism degree Fig. 9, Fig. 10 and Table II are taken at.
const DETAIL_PARALLELISM: usize = 20;

/// What the simulator reported for one compiled mapping.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Simulated cycles (HT: pipeline interval; LL: latency).
    pub cycles: u64,
    /// Dynamic energy in µJ.
    pub dynamic_uj: f64,
    /// Leakage energy in µJ.
    pub leakage_uj: f64,
}

impl RunResult {
    fn from_sim(r: &SimReport) -> Self {
        RunResult {
            cycles: r.total_cycles,
            dynamic_uj: r.energy.dynamic_pj() / 1e6,
            leakage_uj: r.energy.leakage_pj / 1e6,
        }
    }

    fn total_uj(&self) -> f64 {
        self.dynamic_uj + self.leakage_uj
    }
}

/// The memory plan of PIMCOMP's mapping under one reuse policy (the
/// schedule is policy-independent, so one compile serves all three).
#[derive(Debug, Clone, Serialize)]
pub struct PlanSummary {
    /// The policy planned for.
    pub policy: ReusePolicy,
    /// Mean local working set across active cores, bytes.
    pub avg_bytes: f64,
    /// Largest per-core working set, bytes.
    pub peak_bytes: usize,
    /// Global-memory traffic per inference, bytes.
    pub global_traffic: usize,
    /// Global-memory transactions per inference.
    pub global_accesses: usize,
}

impl PlanSummary {
    fn of(plan: &MemoryPlan) -> Self {
        PlanSummary {
            policy: plan.policy,
            avg_bytes: plan.avg_bytes,
            peak_bytes: plan.peak_bytes,
            global_traffic: plan.global_traffic,
            global_accesses: plan.global_accesses,
        }
    }
}

/// What only the parallelism-20 points carry: Fig. 10's three memory
/// plans and Table II's stage times.
#[derive(Debug, Clone, Serialize)]
pub struct Detail {
    /// Fresh block per result.
    pub naive: PlanSummary,
    /// Accumulator reuse.
    pub add_reuse: PlanSummary,
    /// PIMCOMP's policy: accumulator reuse plus AG buffer recycling.
    pub ag_reuse: PlanSummary,
    /// Wall-clock stage times of the PIMCOMP compile. Printed by Table
    /// II, never serialized or claimed: the ledger times code.
    #[serde(skip)]
    pub timings: StageTimings,
}

/// One (network, mode, parallelism) point: PIMCOMP and the PUMA-like
/// baseline compiled with the same options for the same hardware.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Network name.
    pub network: String,
    /// Pipeline mode.
    pub mode: PipelineMode,
    /// Parallelism degree.
    pub parallelism: usize,
    /// PIMCOMP's mapping, simulated.
    pub ours: RunResult,
    /// The PUMA-like mapping, simulated.
    pub base: RunResult,
    /// Present at parallelism 20.
    pub detail: Option<Detail>,
}

impl Point {
    /// PIMCOMP over baseline. Throughput and speed are both 1/cycles,
    /// so in either mode the gain is the cycle ratio baseline/ours.
    fn gain(&self) -> f64 {
        self.base.cycles as f64 / self.ours.cycles as f64
    }

    fn energy_norm(&self) -> f64 {
        self.ours.total_uj() / self.base.total_uj()
    }

    fn at(&self) -> String {
        format!("[{},{},{}]", self.network, self.mode, self.parallelism)
    }
}

/// Which direction of a [`Claim`]'s value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

/// One number the reproduction stands behind, next to the paper's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Stable name. A summary claim is a dotted path
    /// (`fig8.mean_gain.HT`); a per-point one ends in
    /// `[network,mode,parallelism]`.
    pub id: String,
    /// The paper's figure, where it states one.
    pub paper: Option<f64>,
    /// What this repository measures.
    pub ours: f64,
    /// Which way is better.
    pub better: Better,
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let paper = self.paper.map_or("-".to_string(), |p| format!("{p:.3}"));
        let Claim {
            id, ours, better, ..
        } = self;
        write!(f, "{id:<50} {paper:>8} {ours:>10.3}  {better:?} is better")
    }
}

/// The paper's sweep, compiled and simulated once: every view below is
/// a function of this value.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// GA seed of every compile.
    pub seed: u64,
    /// GA population.
    pub ga_population: usize,
    /// GA generations.
    pub ga_iterations: usize,
    /// Per-core local memory of the sized targets (PUMA chips differing
    /// only in count), bytes: Fig. 10's budget.
    pub local_memory_bytes: usize,
    /// Network-major, then mode, then parallelism.
    pub points: Vec<Point>,
}

/// Runs the sweep `opts` selects with GA seed `seed`: hardware sized
/// once per network; per (network, mode, parallelism) one PIMCOMP and
/// one PUMA-like compile, each simulated; at parallelism 20 also the
/// three memory plans of PIMCOMP's mapping. The HT compiles follow the
/// paper's protocol (results move to global memory after each AG
/// performs 2 MVMs: the default batch).
///
/// # Errors
///
/// [`HarnessError`] naming the step that failed.
pub fn evaluate(opts: &HarnessOptions, seed: u64) -> Result<Evaluation, HarnessError> {
    use pimcomp_core::{PimCompiler, PumaCompiler};
    use pimcomp_sim::Simulator;
    let ga = opts.ga(seed);
    let mut local_memory_bytes = 0;
    let mut points = Vec::new();
    for network in opts.networks() {
        let graph = load_network(network)?;
        let sized = hardware_for(&graph, DETAIL_PARALLELISM)?;
        local_memory_bytes = sized.local_memory_bytes;
        for mode in MODES {
            let compile = CompileOptions::new(mode).with_ga(ga.clone());
            for &parallelism in opts.parallelisms() {
                let hw = sized.clone().with_parallelism(parallelism);
                let ours = PimCompiler::new(hw.clone()).compile(&graph, &compile)?;
                let base = PumaCompiler::new(hw.clone()).compile(&graph, &compile)?;
                let sim = Simulator::new(hw);
                let plan = |policy| PlanSummary::of(&ours.replan_memory(policy));
                points.push(Point {
                    network: network.to_string(),
                    mode,
                    parallelism,
                    ours: RunResult::from_sim(&sim.run(&ours)?),
                    base: RunResult::from_sim(&sim.run(&base)?),
                    detail: (parallelism == DETAIL_PARALLELISM).then(|| Detail {
                        naive: plan(ReusePolicy::Naive),
                        add_reuse: plan(ReusePolicy::AddReuse),
                        ag_reuse: plan(ReusePolicy::AgReuse),
                        timings: ours.report.timings,
                    }),
                });
            }
        }
    }
    Ok(Evaluation {
        seed,
        ga_population: ga.population,
        ga_iterations: ga.iterations,
        local_memory_bytes,
        points,
    })
}

const FIG8_HEADER: &str = "network           par      PUMA-like        PIMCOMP     gain";
const FIG9_HEADER: &str =
    "network            base dyn    base leak     ours dyn    ours leak       norm";
const FIG10_HEADER: &str = "network        policy        avg local   peak local  global accesses";
const TABLE2_HEADER: &str =
    "network        mode  partitioning  replicating+mapping  dataflow scheduling      total";

/// A size of a memory plan that Fig. 10 holds against the budget.
type Size = (&'static str, fn(&PlanSummary) -> f64);
const SIZES: [Size; 2] = [
    ("average", |p| p.avg_bytes),
    ("peak", |p| p.peak_bytes as f64),
];

/// Mean in iteration order. Never of nothing: [`evaluate`] runs at
/// least one network, in both modes, at parallelism 20.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    values.iter().sum::<f64>() / values.len() as f64
}

fn kb(bytes: f64) -> f64 {
    bytes / 1024.0
}

impl Evaluation {
    fn points_in(&self, mode: PipelineMode) -> impl Iterator<Item = &Point> {
        self.points.iter().filter(move |p| p.mode == mode)
    }

    /// The parallelism-20 points with their detail.
    fn detailed(&self) -> impl Iterator<Item = (&Point, &Detail)> {
        self.points
            .iter()
            .filter_map(|p| Some((p, p.detail.as_ref()?)))
    }

    fn detailed_in(&self, mode: PipelineMode) -> impl Iterator<Item = (&Point, &Detail)> {
        self.detailed().filter(move |(p, _)| p.mode == mode)
    }

    fn mean_gain(&self, mode: PipelineMode) -> f64 {
        mean(self.points_in(mode).map(Point::gain))
    }

    fn static_energy_reduction(&self, mode: PipelineMode) -> f64 {
        let reduction = |(p, _): (&Point, _)| 1.0 - p.ours.leakage_uj / p.base.leakage_uj;
        mean(self.detailed_in(mode).map(reduction))
    }

    /// Mean HT reduction in global accesses from naive to AG-reuse
    /// (never from zero: every network's input arrives through global
    /// memory).
    fn global_access_reduction(&self) -> f64 {
        let reduction = |(_, d): (_, &Detail)| {
            1.0 - d.ag_reuse.global_accesses as f64 / d.naive.global_accesses as f64
        };
        mean(
            self.detailed_in(PipelineMode::HighThroughput)
                .map(reduction),
        )
    }

    /// How many of `mode`'s networks keep `size` of their AG-reuse plan
    /// within the local-memory budget, and out of how many.
    fn within_budget(&self, mode: PipelineMode, size: fn(&PlanSummary) -> f64) -> (usize, usize) {
        let fits = |(_, d): &(&Point, &Detail)| size(&d.ag_reuse) <= self.local_memory_bytes as f64;
        (
            self.detailed_in(mode).filter(fits).count(),
            self.detailed_in(mode).count(),
        )
    }

    /// Fig. 8: normalized throughput (HT) and speed (LL) of PIMCOMP
    /// over the PUMA-like baseline across the parallelism sweep.
    pub fn fig8(&self) -> String {
        let mut lines = Vec::new();
        for (mode, metric) in MODES.into_iter().zip(["Throughput", "Speed"]) {
            lines.push(format!("FIG 8 — Normalized {metric} ({mode} mode)"));
            lines.push(FIG8_HEADER.into());
            for p in self.points_in(mode) {
                let (par, base, ours) = (p.parallelism, p.base.cycles, p.ours.cycles);
                let gain = format!("{:.1}x", p.gain());
                let network = &p.network;
                lines.push(format!(
                    "{network:<14} {par:>6} {base:>14} {ours:>14} {gain:>8}"
                ));
            }
            let mean = self.mean_gain(mode);
            lines.push(format!("mean {mode} improvement: {mean:.2}x\n"));
        }
        lines.join("\n") + "\n"
    }

    /// Fig. 9: energy breakdown (leakage + dynamic) at parallelism 20,
    /// normalized to the baseline.
    pub fn fig9(&self) -> String {
        let mut lines = Vec::new();
        for mode in MODES {
            lines.push(format!(
                "FIG 9 — Energy breakdown, parallelism {DETAIL_PARALLELISM}, {mode} mode"
            ));
            lines.push(FIG9_HEADER.into());
            for (p, _) in self.detailed_in(mode) {
                let (base, ours, norm) = (&p.base, &p.ours, p.energy_norm());
                lines.push(format!(
                    "{:<14} {:>10.1}uJ {:>10.1}uJ {:>10.1}uJ {:>10.1}uJ {norm:>9.2}x",
                    p.network, base.dynamic_uj, base.leakage_uj, ours.dynamic_uj, ours.leakage_uj
                ));
            }
            let percent = self.static_energy_reduction(mode) * 100.0;
            lines.push(format!(
                "mean static-energy reduction ({mode}): {percent:.1}%\n"
            ));
        }
        lines.join("\n") + "\n"
    }

    /// Fig. 10: local-memory usage and global accesses of PIMCOMP's
    /// mapping under the three reuse policies, against the budget.
    pub fn fig10(&self) -> String {
        let budget_kb = kb(self.local_memory_bytes as f64);
        let mut lines = Vec::new();
        for mode in MODES {
            lines.push(format!(
                "FIG 10 — Local memory usage, {mode} mode ({budget_kb} kB budget)"
            ));
            lines.push(FIG10_HEADER.into());
            for (p, d) in self.detailed_in(mode) {
                for plan in [&d.naive, &d.add_reuse, &d.ag_reuse] {
                    let accesses = plan.global_accesses;
                    let of_naive = accesses as f64 / d.naive.global_accesses as f64;
                    lines.push(format!(
                        "{:<14} {:<10} {:>10.1}kB {:>10.1}kB {:>16}",
                        p.network,
                        plan.policy.label(),
                        kb(plan.avg_bytes),
                        kb(plan.peak_bytes as f64),
                        format!("{accesses:>9} ({of_naive:.2}x)")
                    ));
                }
            }
            lines.push(String::new());
        }
        let percent = self.global_access_reduction() * 100.0;
        lines.push(format!(
            "mean HT global-access reduction with AG-reuse: {percent:.1}% (paper: 47.8%)"
        ));
        for (name, size) in SIZES {
            let (within, total) = self.within_budget(PipelineMode::LowLatency, size);
            lines.push(format!(
                "LL networks with AG-reuse {name} within {budget_kb} kB: {within}/{total}"
            ));
        }
        lines.join("\n") + "\n"
    }

    /// Table II: wall-clock compiling time per stage of the
    /// parallelism-20 PIMCOMP compiles. Printed, not asserted: the
    /// ledger's `core.partition_s`, `core.ga_*_s` and
    /// `core.schedule_*_s` are the measured stage times.
    pub fn table2(&self) -> String {
        let (population, iterations) = (self.ga_population, self.ga_iterations);
        let mut lines = vec![
            format!("TABLE II — COMPILING TIME (seconds), GA {population}x{iterations}"),
            TABLE2_HEADER.into(),
        ];
        for (p, Detail { timings: t, .. }) in self.detailed() {
            let [partition, map, schedule, total] = [
                t.node_partitioning,
                t.replicating_mapping,
                t.dataflow_scheduling,
                t.total(),
            ]
            .map(|stage| stage.as_secs_f64());
            lines.push(format!(
                "{:<14} {:<5} {partition:>12.3} {map:>20.3} {schedule:>20.3} {total:>10.3}",
                p.network,
                p.mode.to_string()
            ));
        }
        lines.join("\n") + "\n"
    }

    /// Every number the reproduction stands behind: per figure the
    /// summary claims, then one claim per point. Cycle, energy and byte
    /// counts only, so equal inputs give equal claims on any machine.
    pub fn claims(&self) -> Vec<Claim> {
        use Better::{Higher, Lower};
        let mut claims = Vec::new();
        let mut claim = |id: String, paper, ours, better| {
            claims.push(Claim {
                id,
                paper,
                ours,
                better,
            })
        };

        for (mode, paper) in MODES.into_iter().zip([1.6, 2.4]) {
            let id = format!("fig8.mean_gain.{mode}");
            claim(id, Some(paper), self.mean_gain(mode), Higher);
        }
        let gains = || self.points.iter().map(Point::gain);
        let worst = gains().fold(f64::INFINITY, f64::min);
        let losses = gains().filter(|g| *g < 1.0).count() as f64;
        claim("fig8.worst_gain".into(), None, worst, Higher);
        claim("fig8.points_below_1".into(), None, losses, Lower);
        for p in &self.points {
            claim(format!("fig8.gain{}", p.at()), None, p.gain(), Higher);
        }

        for mode in MODES {
            let id = format!("fig9.static_energy_reduction.{mode}");
            claim(id, None, self.static_energy_reduction(mode), Higher);
        }
        for (p, _) in self.detailed() {
            let id = format!("fig9.energy_norm{}", p.at());
            claim(id, None, p.energy_norm(), Lower);
        }

        let id = "fig10.ht_global_access_reduction".into();
        claim(id, Some(0.478), self.global_access_reduction(), Higher);
        for mode in MODES {
            for (name, size) in SIZES {
                let id = format!("fig10.networks_{name}_within_budget.{mode}");
                claim(id, None, self.within_budget(mode, size).0 as f64, Higher);
            }
        }
        let budget = self.local_memory_bytes as f64;
        for (p, d) in self.detailed() {
            for (name, size) in SIZES {
                let id = format!("fig10.{name}_local_over_budget{}", p.at());
                claim(id, None, size(&d.ag_reuse) / budget, Lower);
            }
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_evaluation_feeds_every_view() {
        let opts = HarnessOptions {
            fast: true,
            json_path: None,
            only: Some("squeezenet".to_string()),
        };
        let eval = evaluate(&opts, 3).unwrap();
        // 2 modes x parallelism {1, 20, 2000}; detail on the two par-20 rows.
        assert_eq!(eval.points.len(), 6);
        assert_eq!(eval.points.iter().filter(|p| p.detail.is_some()).count(), 2);
        assert!(eval
            .points
            .iter()
            .all(|p| p.ours.cycles > 0 && p.base.cycles > 0));

        assert_eq!(eval.fig8().matches("squeezenet").count(), 6);
        assert_eq!(eval.fig9().matches("squeezenet").count(), 2);
        assert_eq!(eval.fig10().matches("squeezenet").count(), 6);
        assert!(eval.fig10().contains("(64 kB budget)"));
        assert!(eval.fig10().contains("peak within 64 kB: "));
        assert_eq!(eval.table2().matches("squeezenet").count(), 2);

        let claims = eval.claims();
        let mut ids: Vec<&str> = claims.iter().map(|c| c.id.as_str()).collect();
        let ours = |id: &str| claims.iter().find(|c| c.id == id).unwrap().ours;
        assert_eq!(
            ours("fig8.worst_gain"),
            eval.points
                .iter()
                .map(Point::gain)
                .fold(f64::INFINITY, f64::min)
        );
        assert!(ours("fig10.peak_local_over_budget[squeezenet,LL,20]") > 0.0);
        assert!(claims.iter().all(|c| c.ours.is_finite()));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), claims.len(), "claim ids are unique");

        // The serialized evaluation carries no wall-clock field, so a
        // second run writes the same bytes.
        let json = serde_json::to_string(&eval).unwrap();
        assert!(!json.contains("timings") && !json.contains("secs"));
        assert_eq!(
            json,
            serde_json::to_string(&evaluate(&opts, 3).unwrap()).unwrap()
        );
    }
}
