//! Reproduces the paper's evaluation: one sweep, four views.
//!
//! The paper's protocol (§V-A/§V-B) is a committed sweep spec,
//! `fixtures/paper.json`: the five benchmark networks × both modes ×
//! parallelism {1, 20, 40, 200, 2000}, each target auto-sized, each
//! point mapped by PIMCOMP's GA and by the PUMA-like baseline.
//! [`evaluate`] runs that spec through `pimcomp-dse`'s sweep plan, and
//! Fig. 8, Fig. 9, Fig. 10, Table II and the paper-vs-ours [`Claim`]s
//! are functions of the resulting [`Evaluation`] (`docs/BENCHMARKS.md`,
//! "The paper scoreboard", maps each to the paper's experiment). The
//! one binary, `paper`, prints Table I, the four sections in paper
//! order and the claims. `--json PATH` writes the evaluation and its
//! claims, `--fast` shrinks the GA, the benchmark set and the
//! parallelism list for smoke runs, `--only NAME` runs one network.
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
use pimcomp_core::CompileError;
use pimcomp_ir::Graph;
use serde::Serialize;

/// Harness-wide options parsed from the binary's command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Shrink GA, benchmark set and parallelism list for a smoke run.
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

    /// `--only` selects any zoo model the harness can compile — wider
    /// than the paper set — and is checked against that list here, so a
    /// parsed value always names one, in its canonical spelling.
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
                "--only" => {
                    let name = value()?;
                    let found = available_networks().find(|n| n.eq_ignore_ascii_case(&name));
                    let found = found.ok_or_else(|| {
                        let known: Vec<_> = available_networks().collect();
                        format!(
                            "unknown benchmark `{name}`; available networks: {}",
                            known.join(", ")
                        )
                    })?;
                    opts.only = Some(found.to_string());
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
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

/// The zoo models the harness can compile as they stand: a model with a
/// symbolic dimension (`tiny_bert`'s sequence length) needs a binding
/// the harness has no argument for.
fn available_networks() -> impl Iterator<Item = &'static str> {
    let zoo = pimcomp_ir::models::ZOO.into_iter();
    zoo.filter(|name| pimcomp_ir::models::by_name(name).is_some_and(|g| !g.has_symbolic_dims()))
}

/// Sizes a PUMA-like target for `graph`: enough chips for
/// [`DEFAULT_HEADROOM`](pimcomp_core::DEFAULT_HEADROOM)× the
/// single-replica crossbar demand. The heuristic itself lives in core
/// ([`pimcomp_core::sized_chips`]); the sweep engine's `hardware:
/// "auto"`, which sizes the scoreboard's targets, calls the same one.
///
/// # Errors
///
/// Propagates partitioning failures ([`CompileError`]) instead of
/// panicking — a user graph (e.g. an imported ONNX model) that does not
/// partition must not bring a sweep down.
pub fn hardware_for(graph: &Graph, parallelism: usize) -> Result<HardwareConfig, CompileError> {
    let base = HardwareConfig::puma();
    let chips = pimcomp_core::sized_chips(graph, &base, pimcomp_core::DEFAULT_HEADROOM)?;
    Ok(HardwareConfig::puma_with_chips(chips).with_parallelism(parallelism))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_core::Partitioning;

    // The committed sweep fixtures (`crates/bench/fixtures/`) the CLI
    // smoke jobs and `tests/explore_determinism.rs` run from disk.
    const SMOKE_SWEEP_SPEC: &str = include_str!("../fixtures/smoke_sweep.json");
    const TOY_SWEEP_SPEC: &str = include_str!("../fixtures/toy_sweep.json");
    const SMOKE_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/smoke_sweep_halving.json");
    const TOY_SWEEP_HALVING_SPEC: &str = include_str!("../fixtures/toy_sweep_halving.json");
    const SMOKE_SWEEP_AXES_SPEC: &str = include_str!("../fixtures/smoke_sweep_axes.json");
    const SMOKE_SWEEP_RELOAD_SPEC: &str = include_str!("../fixtures/smoke_sweep_reload.json");
    const SMOKE_SWEEP_MAPPING_SPEC: &str = include_str!("../fixtures/smoke_sweep_mapping.json");

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        HarnessOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn only_selects_any_compilable_network() {
        // Every name that passes `--only` validation must select itself
        // and plan (load, size a target), so a validated run can never
        // do nothing or die on its first step.
        let available: Vec<_> = available_networks().collect();
        assert!(available.contains(&"resnet50") && !available.contains(&"tiny_bert"));
        for name in available {
            let opts = parse(&["--fast", "--only", name]).unwrap();
            assert_eq!(opts.only.as_deref(), Some(name));
            let spec = evaluation::paper_spec(&opts, 1).unwrap();
            assert_eq!(spec.models, [name]);
            pimcomp_dse::SweepPlan::new(&spec).unwrap();
        }
    }

    #[test]
    fn unknown_or_symbolic_networks_are_refused_listing_the_compilable_ones() {
        for name in ["alexnet", "tiny_bert"] {
            let problem = parse(&["--only", name]).unwrap_err();
            assert!(
                problem.starts_with(&format!("unknown benchmark `{name}`; available networks: ")),
                "{problem}"
            );
            let (_, listed) = problem.split_once("available networks: ").unwrap();
            let listed: Vec<&str> = listed.split(", ").collect();
            assert_eq!(listed, available_networks().collect::<Vec<_>>());
            assert!(!listed.contains(&"tiny_bert"), "{problem}");
        }
    }

    #[test]
    fn hardware_sizing_gives_headroom() {
        let g = pimcomp_ir::models::by_name("squeezenet").unwrap();
        let g = pimcomp_ir::transform::normalize(&g).unwrap();
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
        let opts = parse(&["--fast", "--json", "out.json", "--only", "VGG16"]).unwrap();
        assert!(opts.fast);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert_eq!(opts.only.as_deref(), Some("vgg16"));
        assert!(parse(&["--fsat"]).unwrap_err().contains("`--fsat`"));
        assert!(parse(&["--json"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--fast", "--only"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn an_unwritable_json_path_is_an_error_naming_the_path() {
        let mut opts = parse(&["--only", "squeezenet"]).unwrap();
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
        let toy = pimcomp_dse::SweepSpec::from_json(TOY_SWEEP_SPEC).unwrap();
        assert_eq!(toy.points().unwrap().len(), 3 * 2 * 6);
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
        // The mapping spec: both modes, each mapped by both compilers.
        let mapping = pimcomp_dse::SweepSpec::from_json(SMOKE_SWEEP_MAPPING_SPEC).unwrap();
        use pimcomp_dse::Mapping::{Ga, Puma};
        assert_eq!(mapping.mappings, [Ga, Puma]);
        assert_eq!(mapping.points().unwrap().len(), 2 * 2);
    }

    #[test]
    fn halving_fixtures_mirror_their_exhaustive_twins() {
        // The guided fixtures must share axes (hence point keys) with
        // their exhaustive twins so `explore --diff` joins every point,
        // differing only in the search section.
        for (exhaustive, halving) in [
            (SMOKE_SWEEP_SPEC, SMOKE_SWEEP_HALVING_SPEC),
            (TOY_SWEEP_SPEC, TOY_SWEEP_HALVING_SPEC),
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
