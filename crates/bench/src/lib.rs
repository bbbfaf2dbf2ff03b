//! Reproduces the paper's evaluation: one sweep, four views.
//!
//! [`evaluate`] compiles and simulates every (network, mode,
//! parallelism) point of the paper's sweep once — PIMCOMP and the
//! PUMA-like baseline on the same sized hardware — and Fig. 8, Fig. 9,
//! Fig. 10, Table II and the paper-vs-ours [`Claim`]s are functions of
//! the resulting [`Evaluation`] (`docs/BENCHMARKS.md`, "The paper
//! scoreboard", maps each to the paper's experiment). The one binary,
//! `paper`, prints Table I, the four sections in paper order and the
//! claims. `--json PATH` writes the evaluation and its claims, `--fast`
//! shrinks the GA and the benchmark set for smoke runs, `--only NAME`
//! runs one network.
//!
//! Nothing here times code: the layered ledger (`BENCHMARK.json`,
//! `ledger/`) measures and `scripts/perf_ab.sh` compares two commits.
//! What the claims read is asserted by `tests/paper_claims.rs` against
//! the committed `tests/golden/paper_claims.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluation;

pub use evaluation::{evaluate, Better, Claim, Detail, Evaluation, PlanSummary, Point, RunResult};

use pimcomp_arch::HardwareConfig;
use pimcomp_core::{CompileError, GaParams};
use pimcomp_ir::transform::normalize;
use pimcomp_ir::Graph;
use pimcomp_sim::SimError;
use serde::Serialize;

/// Headroom factor applied when sizing chip counts: capacity ≈
/// `headroom ×` the single-replica demand, leaving room for weight
/// replication.
pub const CHIP_HEADROOM: f64 = 2.0;

/// Harness-wide options parsed from the binary's command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Shrink GA and benchmark set for a smoke run.
    pub fast: bool,
    /// Write machine-readable results here.
    pub json_path: Option<String>,
    /// Restrict to one benchmark network.
    pub only: Option<String>,
}

impl HarnessOptions {
    /// Parses `--fast`, `--json PATH` and `--only NAME` from the process
    /// arguments; anything else — a typo would otherwise run the full
    /// paper sweep — prints the three valid arguments and exits with
    /// status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|problem| {
            eprintln!("error: {problem}; arguments: --fast, --json PATH, --only NAME");
            std::process::exit(2);
        })
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = HarnessOptions {
            fast: false,
            json_path: None,
            only: None,
        };
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or(format!("`{a}` needs a value"));
            match a.as_str() {
                "--fast" => opts.fast = true,
                "--json" => opts.json_path = Some(value()?),
                "--only" => opts.only = Some(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        match &opts.only {
            Some(only) if opts.networks().is_empty() => {
                Err(HarnessError::UnknownNetwork(only.clone()).to_string())
            }
            _ => Ok(opts),
        }
    }

    /// The benchmark set under these options. Default: the five paper
    /// benchmarks (fast mode keeps the two cheapest). `--only` selects
    /// any zoo model the harness can compile — wider than the paper
    /// set — and is validated against that list at parse time, so a
    /// parsed value never selects an empty set.
    pub fn networks(&self) -> Vec<&'static str> {
        if let Some(only) = &self.only {
            return available_networks()
                .filter(|n| n.eq_ignore_ascii_case(only))
                .collect();
        }
        if self.fast {
            vec!["resnet18", "squeezenet"]
        } else {
            pimcomp_ir::models::PAPER_BENCHMARKS.to_vec()
        }
    }

    /// GA parameters under these options (the paper's population 100 ×
    /// 200 generations, or 20 × 30 for smoke runs) with the given seed.
    fn ga(&self, seed: u64) -> GaParams {
        let (population, iterations) = if self.fast { (20, 30) } else { (100, 200) };
        GaParams {
            population,
            iterations,
            seed,
            ..GaParams::default()
        }
    }

    /// The parallelism degrees of the Fig. 8 sweep (fast mode: the
    /// endpoints and the paper's default).
    fn parallelisms(&self) -> &'static [usize] {
        if self.fast {
            &[1, 20, 2000]
        } else {
            &[1, 20, 40, 200, 2000]
        }
    }

    /// Writes `value` as pretty JSON when `--json` was given.
    ///
    /// # Errors
    ///
    /// The I/O error, prefixed with the path, when the file cannot be
    /// written; `InvalidData` when `value` holds a non-finite float.
    pub fn write_json<T: Serialize>(&self, value: &T) -> std::io::Result<()> {
        let Some(path) = &self.json_path else {
            return Ok(());
        };
        let text = serde_json::to_string_pretty(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, text)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{path}: {e}")))?;
        eprintln!("wrote {path}");
        Ok(())
    }
}

/// The zoo model `name` if the harness can compile it as it stands: a
/// model with a symbolic dimension (`tiny_bert`'s sequence length) needs
/// a binding the harness has no argument for.
fn compilable(name: &str) -> Option<Graph> {
    pimcomp_ir::models::by_name(name).filter(|g| !g.has_symbolic_dims())
}

/// The names [`load_network`] accepts.
fn available_networks() -> impl Iterator<Item = &'static str> {
    let zoo = pimcomp_ir::models::ZOO.into_iter();
    zoo.filter(|name| compilable(name).is_some())
}

/// Loads and normalizes one of [`available_networks`] by name.
///
/// # Errors
///
/// [`HarnessError::UnknownNetwork`] (listing every valid name) instead
/// of a panic; [`CompileError::InvalidGraph`], like the compiler's own
/// normalization step, if the model is malformed (impossible for the
/// committed zoo).
fn load_network(name: &str) -> Result<Graph, HarnessError> {
    let graph = compilable(name).ok_or_else(|| HarnessError::UnknownNetwork(name.to_string()))?;
    normalize(&graph).map_err(|e| {
        HarnessError::Compile(CompileError::InvalidGraph {
            detail: e.to_string(),
        })
    })
}

/// Why [`evaluate`] stopped. The five committed paper benchmarks always
/// succeed, but `--only` reaches the rest of the zoo, so per the
/// standing panic-free policy the library surfaces errors and lets the
/// binary decide how to die.
#[derive(Debug)]
pub enum HarnessError {
    /// The name is not one of the networks the harness can compile.
    UnknownNetwork(String),
    /// Compilation (or hardware sizing, which partitions the graph)
    /// failed.
    Compile(CompileError),
    /// Simulation of a compiled model failed.
    Simulate(SimError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::UnknownNetwork(name) => write!(
                f,
                "unknown benchmark `{name}`; available networks: {}",
                available_networks().collect::<Vec<_>>().join(", ")
            ),
            HarnessError::Compile(e) => write!(f, "compile: {e}"),
            HarnessError::Simulate(e) => write!(f, "simulate: {e}"),
        }
    }
}

// No `source()`: `Display` already prints the wrapped error.
impl std::error::Error for HarnessError {}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> Self {
        HarnessError::Compile(e)
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Simulate(e)
    }
}

/// Sizes a PUMA-like target for `graph`: enough chips for
/// [`CHIP_HEADROOM`]× the single-replica crossbar demand. The
/// heuristic itself lives in core ([`pimcomp_core::sized_chips`]) so
/// the sweep engine's `hardware: "auto"` option and this harness size
/// targets identically.
///
/// # Errors
///
/// Propagates partitioning failures ([`CompileError`]) instead of
/// panicking — a user graph (e.g. an imported ONNX model) that does not
/// partition must not bring a sweep down.
pub fn hardware_for(graph: &Graph, parallelism: usize) -> Result<HardwareConfig, CompileError> {
    let base = HardwareConfig::puma();
    let chips = pimcomp_core::sized_chips(graph, &base, CHIP_HEADROOM)?;
    Ok(HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_core::Partitioning;

    // The committed sweep fixtures (`crates/bench/fixtures/`) the CLI
    // smoke jobs and `tests/explore_determinism.rs` run from disk.
    const SMOKE_SWEEP_SPEC: &str = include_str!("../fixtures/smoke_sweep.json");
    const PAPER_SWEEP_SPEC: &str = include_str!("../fixtures/paper_sweep.json");
    const SMOKE_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/smoke_sweep_halving.json");
    const PAPER_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/paper_sweep_halving.json");
    const SMOKE_SWEEP_AXES_SPEC: &str = include_str!("../fixtures/smoke_sweep_axes.json");
    const SMOKE_SWEEP_RELOAD_SPEC: &str = include_str!("../fixtures/smoke_sweep_reload.json");

    fn only(name: &str) -> HarnessOptions {
        HarnessOptions {
            fast: true,
            json_path: None,
            only: Some(name.to_string()),
        }
    }

    #[test]
    fn only_selects_any_loadable_network() {
        // Every name that passes `--only` validation must also select a
        // non-empty benchmark set, load, and size a target, so a
        // validated run can never do nothing or die on its first step.
        let available: Vec<_> = available_networks().collect();
        assert!(available.contains(&"resnet50") && !available.contains(&"tiny_bert"));
        for name in available {
            assert_eq!(only(name).networks(), vec![name]);
            hardware_for(&load_network(name).unwrap(), 20).unwrap();
        }
    }

    #[test]
    fn unknown_network_error_lists_available_names() {
        for name in ["alexnet", "tiny_bert"] {
            let err = load_network(name).unwrap_err();
            assert!(matches!(&err, HarnessError::UnknownNetwork(n) if n == name));
            let msg = err.to_string();
            for name in available_networks() {
                assert!(msg.contains(name), "`{msg}` should list `{name}`");
            }
            assert!(!msg.contains("seq-len"), "{msg}");
        }
    }

    #[test]
    fn hardware_sizing_gives_headroom() {
        let g = load_network("squeezenet").unwrap();
        let hw = hardware_for(&g, 20).unwrap();
        let p = Partitioning::new(&g, &hw).unwrap();
        assert!(hw.total_crossbars() >= 2 * p.min_crossbars() - hw.crossbars_per_core);
    }

    #[test]
    fn hardware_sizing_surfaces_partition_failures() {
        // An input-only graph has nothing to map onto crossbars; the
        // sizing heuristic must report that, not panic.
        let mut b = pimcomp_ir::GraphBuilder::new("degenerate");
        let _ = b.input_flat("x", 8);
        let g = b.finish().unwrap();
        assert!(matches!(
            hardware_for(&g, 20),
            Err(CompileError::NoMvmNodes)
        ));
    }

    #[test]
    fn mistyped_arguments_are_errors_not_a_full_sweep() {
        let parse = |args: &[&str]| HarnessOptions::parse(args.iter().map(|a| a.to_string()));
        let opts = parse(&["--fast", "--json", "out.json", "--only", "VGG16"]).unwrap();
        assert!(opts.fast);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert_eq!(opts.networks(), vec!["vgg16"]);
        assert!(parse(&["--fsat"]).unwrap_err().contains("`--fsat`"));
        assert!(parse(&["--json"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--fast", "--only"])
            .unwrap_err()
            .contains("needs a value"));
        for uncompilable in ["alexnet", "tiny_bert"] {
            let problem = parse(&["--only", uncompilable]).unwrap_err();
            assert!(problem.contains("available networks"), "{problem}");
        }
    }

    #[test]
    fn an_unwritable_json_path_is_an_error_naming_the_path() {
        let mut opts = only("squeezenet");
        assert!(opts.write_json(&1).is_ok(), "no --json: nothing to write");
        opts.json_path = Some("/nonexistent/dir/x.json".to_string());
        let problem = opts.write_json(&1).unwrap_err().to_string();
        assert!(problem.contains("/nonexistent/dir/x.json"), "{problem}");
        assert!(opts.write_json(&f64::NAN).is_err());
    }

    #[test]
    fn committed_sweep_fixtures_parse() {
        let smoke = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_SPEC).unwrap();
        assert_eq!(smoke.points().unwrap().len(), 4);
        let paper = pimcomp_dse::SweepSpec::from_json(PAPER_SWEEP_SPEC).unwrap();
        assert_eq!(paper.points().unwrap().len(), 3 * 2 * 6);
        // The new-axes spec parses and counts without touching the
        // filesystem (its .onnx path is relative to the repo root, not
        // this crate, so only `len` is checked here — CI runs it end
        // to end).
        let axes = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_AXES_SPEC).unwrap();
        assert!(axes.hardware.is_auto());
        assert_eq!(axes.policies.len(), 2);
        assert_eq!(axes.batches, vec![1, 2]);
        // 2 models x 2 auto parallelism x 2 policies x (HT: 2 batches
        // + LL: 1) x 1 seed.
        assert_eq!(axes.len(), 2 * 2 * 2 * 3);
        // The reload spec sweeps off + two budgets over a single point.
        let reload = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_RELOAD_SPEC).unwrap();
        assert_eq!(
            reload.weight_reload,
            vec![
                pimcomp_dse::ReloadSetting::Off,
                pimcomp_dse::ReloadSetting::On(Some(32)),
                pimcomp_dse::ReloadSetting::On(Some(64)),
            ]
        );
        assert_eq!(reload.points().unwrap().len(), 3);
    }

    #[test]
    fn halving_fixtures_mirror_their_exhaustive_twins() {
        // The guided fixtures must share axes (hence point keys) with
        // their exhaustive twins so `explore --diff` joins every point,
        // differing only in the search section.
        for (exhaustive, halving) in [
            (SMOKE_SWEEP_SPEC, SMOKE_SWEEP_HALVING_SPEC),
            (PAPER_SWEEP_SPEC, PAPER_SWEEP_HALVING_SPEC),
        ] {
            let e = pimcomp_dse::SweepSpec::from_json(exhaustive).unwrap();
            let h = pimcomp_dse::SweepSpec::from_json(halving).unwrap();
            assert!(matches!(h.search, pimcomp_dse::SearchStrategy::Halving(_)));
            assert_eq!(e.models, h.models);
            assert_eq!(e.modes, h.modes);
            assert_eq!(e.hardware, h.hardware);
            assert_eq!(e.seeds, h.seeds);
            assert_eq!(
                (e.ga_population, e.ga_iterations),
                (h.ga_population, h.ga_iterations)
            );
        }
    }
}
