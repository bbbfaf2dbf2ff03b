//! The sweep knobs, declared once.
//!
//! [`AXES`] is the closed table every consumer of a per-point knob reads
//! instead of re-spelling it: spec parsing and the known-fields list,
//! `len` and point expansion, `CompileOptions` construction, the CSV
//! columns, and the `explore` banner. [`HW_AXES`] is its twin for the
//! knobs of a `hardware` grid object: the grid's known fields, its
//! cross-product, and its labels. Each table's order is the nesting
//! order of its expansion (first row outermost) and so part of the
//! determinism contract. `docs/ARCHITECTURE.md` ("Adding a sweep axis")
//! lists what a new row needs beside it.

use crate::report::PointRecord;
use crate::spec::{
    as_f64, as_string, as_u64, as_usize, int_list, invalid, list, positive_list, reject_unknown,
};
use crate::{ExploreError, SweepPoint, SweepSpec};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, ReusePolicy};
use serde::Value;

/// The spec-file name of a memory-reuse policy (`naive` / `add` /
/// `ag`): the spelling `memory_policies` accepts and the one point
/// keys, reports, and CSVs carry.
pub fn policy_spec_name(policy: ReusePolicy) -> &'static str {
    match policy {
        ReusePolicy::Naive => "naive",
        ReusePolicy::AddReuse => "add",
        ReusePolicy::AgReuse => "ag",
    }
}

/// The policy names a sweep spec accepts, in [`ReusePolicy::ALL`] order.
pub fn policy_names() -> Vec<&'static str> {
    ReusePolicy::ALL
        .iter()
        .map(|&p| policy_spec_name(p))
        .collect()
}

/// One value of the `weight_reload` sweep axis: whether a point
/// compiles in reload mode, and under which crossbar budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadSetting {
    /// Ordinary compilation (the default axis value).
    Off,
    /// `weight_reload` mode: `None` uses the target's full crossbar
    /// count as the budget, `Some(b)` caps it at `b` crossbars.
    On(Option<usize>),
}

impl ReloadSetting {
    /// The value's report/CSV spelling: `off`, `full`, or the budget.
    pub(crate) fn label(&self) -> String {
        match self {
            ReloadSetting::Off => "off".to_string(),
            ReloadSetting::On(None) => "full".to_string(),
            ReloadSetting::On(Some(b)) => b.to_string(),
        }
    }
}

/// One point's value of every per-point sweep knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Memory-reuse policy.
    pub policy: ReusePolicy,
    /// HT transfer batch (always 1 in LL mode).
    pub batch: usize,
    /// GA seed.
    pub seed: u64,
    /// Weight-reload setting.
    pub reload: ReloadSetting,
    /// Sequence length binding (`None` = unbound).
    pub seq: Option<usize>,
    /// Quantization setting (`None` = no functional verification,
    /// `Some(0)` = unquantized check, `Some(b)` = `b`-bit ADC model).
    pub quant: Option<u32>,
}

impl Knobs {
    /// What a spec that names no knob sweeps (the seed axis has no
    /// fixed default — it derives from `master_seed`).
    pub(crate) const DEFAULT: Knobs = Knobs {
        policy: ReusePolicy::AgReuse,
        batch: 2,
        seed: 0,
        reload: ReloadSetting::Off,
        seq: None,
        quant: None,
    };

    /// The value HT-only knobs collapse to on low-latency points (LL
    /// always runs batch 1, so the grid never holds two identical LL
    /// points and the options always pass `CompileOptions::validate`).
    pub(crate) const LOW_LATENCY: Knobs = Knobs {
        batch: 1,
        ..Knobs::DEFAULT
    };
}

/// One row of [`AXES`]: everything the sweep stack knows about a knob.
pub(crate) struct Axis {
    /// The spec field that sweeps the knob.
    pub field: &'static str,
    /// The [`PointRecord`] field, and CSV column, holding a point's value.
    pub column: &'static str,
    /// The knob's factor in the banner (`x 2 policies`).
    pub noun: &'static str,
    /// Whether the banner prints the factor for every spec; the other
    /// knobs appear only once a spec moves them off [`Knobs::DEFAULT`].
    pub always_shown: bool,
    /// Whether the knob applies to high-throughput points only, so the
    /// axis collapses to [`Knobs::LOW_LATENCY`] on LL points.
    pub ht_only: bool,
    /// Parses the spec field (named by the first argument) into the
    /// spec's value list, over the default already there.
    pub parse: fn(&str, &Value, &mut SweepSpec) -> Result<(), ExploreError>,
    /// One copy of the given knobs per value the spec sweeps, each
    /// with this knob set to that value.
    values: fn(&SweepSpec, Knobs) -> Vec<Knobs>,
    /// Applies a point's value to its compile options.
    pub apply: fn(&Knobs, CompileOptions) -> CompileOptions,
}

/// The knobs, in nesting order.
pub(crate) static AXES: [Axis; 6] = [
    Axis {
        field: "memory_policies",
        column: "policy",
        noun: "policies",
        always_shown: true,
        ht_only: false,
        parse: |f, v, spec| {
            let expected = format!("policy names ({})", policy_names().join(" | "));
            let entry = |e: &Value, ctx: &str| parse_policy(&as_string(e, ctx)?).map(Some);
            let label = |p: &ReusePolicy| policy_spec_name(*p).to_string();
            list(f, v, &expected, entry, label).map(|l| spec.policies = l)
        },
        values: |spec, k| each(&spec.policies, |policy| Knobs { policy, ..k }),
        apply: |k, opts| opts.with_policy(k.policy),
    },
    Axis {
        field: "ht_batches",
        column: "batch",
        noun: "batches",
        always_shown: true,
        ht_only: true,
        parse: |f, v, spec| positive_list(f, v, "positive integers").map(|l| spec.batches = l),
        values: |spec, k| each(&spec.batches, |batch| Knobs { batch, ..k }),
        apply: |k, opts| opts.with_batch(k.batch),
    },
    Axis {
        field: "seeds",
        column: "seed",
        noun: "seeds",
        always_shown: true,
        ht_only: false,
        parse: |f, v, spec| int_list(f, v, "integers", |_| true).map(|l| spec.seeds = l),
        values: |spec, k| each(&spec.seeds, |seed| Knobs { seed, ..k }),
        apply: |k, mut opts| {
            opts.ga.seed = k.seed;
            opts
        },
    },
    Axis {
        field: "weight_reload",
        column: "weight_reload",
        noun: "reload settings",
        always_shown: false,
        ht_only: false,
        parse: |f, v, spec| parse_reload(f, v).map(|l| spec.weight_reload = l),
        values: |spec, k| each(&spec.weight_reload, |reload| Knobs { reload, ..k }),
        apply: |k, opts| match k.reload {
            ReloadSetting::On(budget) => opts.with_weight_reload(budget),
            ReloadSetting::Off => opts,
        },
    },
    Axis {
        field: "seq_lens",
        column: "seq_len",
        noun: "sequence lengths",
        always_shown: false,
        ht_only: false,
        parse: |f, v, spec| {
            let lens = int_list(f, v, "positive integers", |n| n > 0)?;
            spec.seq_lens = lens.iter().map(|&n| Some(n as usize)).collect();
            Ok(())
        },
        values: |spec, k| each(&spec.seq_lens, |seq| Knobs { seq, ..k }),
        apply: |k, opts| match k.seq {
            Some(len) => opts.with_seq_len(len),
            None => opts,
        },
    },
    // Quantization never reaches the compiler: the engine verifies the
    // compiled mapping under it after simulation.
    Axis {
        field: "quantization",
        column: "quantization",
        noun: "quantization settings",
        always_shown: false,
        ht_only: false,
        parse: |f, v, spec| {
            let bits = int_list(f, v, "integer ADC bit-widths in 0..=32", |n| n <= 32)?;
            spec.quantization = bits.iter().map(|&b| Some(b as u32)).collect();
            Ok(())
        },
        values: |spec, k| each(&spec.quantization, |quant| Knobs { quant, ..k }),
        apply: |_, opts| opts,
    },
];

/// `set(value)` for every value of one of the spec's knob lists.
fn each<T: Copy>(list: &[T], set: impl Fn(T) -> Knobs) -> Vec<Knobs> {
    list.iter().map(|&value| set(value)).collect()
}

impl Axis {
    /// Whether points of `mode` sweep the knob at all.
    pub(crate) fn applies(&self, mode: PipelineMode) -> bool {
        !(self.ht_only && mode == PipelineMode::LowLatency)
    }

    /// How many values the spec sweeps.
    pub(crate) fn len(&self, spec: &SweepSpec) -> usize {
        (self.values)(spec, Knobs::DEFAULT).len()
    }

    /// Whether every value the spec sweeps is the one `base` already
    /// has — the knob, seen from `base`, is left alone.
    pub(crate) fn leaves(&self, spec: &SweepSpec, base: Knobs) -> bool {
        (self.values)(spec, base).iter().all(|k| *k == base)
    }
}

/// Every knob combination a `mode` point of `spec` takes, in nesting
/// order ([`AXES`]' first row outermost).
pub(crate) fn knob_grid(spec: &SweepSpec, mode: PipelineMode) -> Vec<Knobs> {
    let swept = AXES.iter().filter(|a| a.applies(mode));
    swept.fold(vec![Knobs::LOW_LATENCY], |grid, axis| {
        grid.iter().flat_map(|&k| (axis.values)(spec, k)).collect()
    })
}

/// One row of [`HW_AXES`]: a [`HardwareConfig`] knob a `hardware` grid
/// object sweeps.
pub(crate) struct HwAxis {
    /// The grid field that sweeps the knob.
    pub field: &'static str,
    /// The label tag: a swept value adds `+{tag}{value}` to the label.
    tag: &'static str,
    /// Parses one value of the field (the second argument names it in
    /// errors), applies it to the configuration with checked
    /// arithmetic, and returns the value as the label shows it.
    set: fn(&Value, &str, &mut HardwareConfig) -> Result<String, ExploreError>,
}

/// The hardware knobs, in nesting order.
pub(crate) static HW_AXES: [HwAxis; 8] = [
    HwAxis {
        field: "chips",
        tag: "chips",
        set: |v, ctx, hw| shown(as_usize(v, ctx)?, &mut hw.chips),
    },
    HwAxis {
        field: "cores_per_chip",
        tag: "cores",
        set: |v, ctx, hw| shown(as_usize(v, ctx)?, &mut hw.cores_per_chip),
    },
    HwAxis {
        field: "crossbars_per_core",
        tag: "xbars",
        set: |v, ctx, hw| shown(as_usize(v, ctx)?, &mut hw.crossbars_per_core),
    },
    // Square crossbars: one value sets rows and columns together.
    HwAxis {
        field: "crossbar_size",
        tag: "xbar",
        set: |v, ctx, hw| {
            hw.crossbar_cols = as_usize(v, ctx)?;
            shown(hw.crossbar_cols, &mut hw.crossbar_rows)
        },
    },
    HwAxis {
        field: "parallelism",
        tag: "par",
        set: |v, ctx, hw| shown(as_usize(v, ctx)?, &mut hw.parallelism),
    },
    HwAxis {
        field: "local_memory_kb",
        tag: "mem",
        set: |v, ctx, hw| {
            let kb = as_usize(v, ctx)?;
            hw.local_memory_bytes = kb
                .checked_mul(1024)
                .ok_or_else(|| invalid(format!("{ctx}: {kb} kB overflows the byte count")))?;
            Ok(format!("{kb}k"))
        },
    },
    HwAxis {
        field: "mvm_latency",
        tag: "mvm",
        set: |v, ctx, hw| shown(as_u64(v, ctx)?, &mut hw.mvm_latency),
    },
    HwAxis {
        field: "noc_link_bw",
        tag: "noc",
        set: |v, ctx, hw| shown(as_f64(v, ctx)?, &mut hw.noc_link_bw),
    },
];

/// Stores `value` in `slot` and returns it as a label shows it.
fn shown<T: Copy + ToString>(value: T, slot: &mut T) -> Result<String, ExploreError> {
    *slot = value;
    Ok(value.to_string())
}

/// The labelled configurations a hardware grid object sweeps: `base`
/// crossed with each row the grid names (one value or a non-empty
/// array), in nesting order ([`HW_AXES`]' first row outermost). A label
/// is `name` plus one `+{tag}{value}` per named row; every
/// configuration is validated before any is returned.
pub(crate) fn hardware_grid(
    name: &str,
    base: HardwareConfig,
    grid: &Value,
) -> Result<Vec<(String, HardwareConfig)>, ExploreError> {
    let unswept = vec![(name.to_string(), base)];
    let points = HW_AXES.iter().try_fold(unswept, |points, axis| {
        let Some(v) = grid.get(axis.field) else {
            return Ok(points);
        };
        let ctx = &format!("hardware.{}", axis.field);
        let values = match v {
            Value::Seq(values) if values.is_empty() => {
                return Err(invalid(format!(
                    "`{ctx}` must be a number or a non-empty array of numbers"
                )))
            }
            Value::Seq(values) => values.as_slice(),
            scalar => std::slice::from_ref(scalar),
        };
        let point = |(label, hw): &(String, HardwareConfig), v| {
            let mut hw = hw.clone();
            let shown = (axis.set)(v, ctx, &mut hw)?;
            Ok((format!("{label}+{}{shown}", axis.tag), hw))
        };
        let crossed = points
            .iter()
            .flat_map(|p| values.iter().map(move |v| point(p, v)));
        crossed.collect()
    })?;
    for (_, hw) in &points {
        hw.validate()
            .map_err(|e| invalid(format!("hardware grid: {e}")))?;
    }
    Ok(points)
}

impl SweepPoint {
    /// The point's report record before evaluation: identity filled
    /// in, no outcome yet. The one place knob values become record
    /// fields.
    pub(crate) fn record(&self) -> PointRecord {
        PointRecord {
            model: self.model.clone(),
            mode: self.mode.to_string(),
            hardware: self.hw_label.clone(),
            policy: policy_spec_name(self.knobs.policy).to_string(),
            batch: self.knobs.batch as u64,
            seed: self.knobs.seed,
            weight_reload: self.knobs.reload.label(),
            seq_len: self.knobs.seq.map(|s| s as u64),
            quantization: self.knobs.quant.map(u64::from),
            rung: 0,
            budget: 0,
            pruned_at: None,
            ok: false,
            error: None,
            metrics: None,
            pareto: false,
        }
    }
}

fn parse_policy(s: &str) -> Result<ReusePolicy, ExploreError> {
    ReusePolicy::ALL
        .into_iter()
        .find(|&p| policy_spec_name(p) == s)
        .ok_or_else(|| {
            invalid(format!(
                "unknown memory policy `{s}` ({})",
                policy_names().join(" | ")
            ))
        })
}

fn parse_reload(field: &str, v: &Value) -> Result<Vec<ReloadSetting>, ExploreError> {
    match v {
        Value::Bool(false) => Ok(vec![ReloadSetting::Off]),
        Value::Bool(true) => Ok(vec![ReloadSetting::On(None)]),
        Value::Map(entries) => {
            reject_unknown(entries, &["budgets", "include_off"], |key, known| {
                format!("unknown `{field}` field `{key}` (known fields: {known})")
            })?;
            let budgets = positive_list(
                &format!("{field}.budgets"),
                v.get("budgets").unwrap_or(&Value::Null),
                "positive crossbar budgets",
            )?;
            let include_off = match v.get("include_off") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(other) => {
                    return Err(invalid(format!(
                        "`{field}.include_off` must be a boolean, found {}",
                        other.kind()
                    )))
                }
            };
            let off = include_off.then_some(ReloadSetting::Off);
            let on = budgets.into_iter().map(|b| ReloadSetting::On(Some(b)));
            Ok(off.into_iter().chain(on).collect())
        }
        other => Err(invalid(format!(
            "`{field}` must be `true`, `false`, or an object \
             {{\"budgets\": [...], \"include_off\": bool}}, found {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepReport;

    /// A two-value JSON sample per knob, by spec field: a new row in
    /// [`AXES`] fails the test below until it gets one.
    const TWO_VALUES: [(&str, &str); 6] = [
        ("memory_policies", r#"["naive","ag"]"#),
        ("ht_batches", "[1,4]"),
        ("seeds", "[1,2]"),
        ("weight_reload", r#"{"budgets":[32,64]}"#),
        ("seq_lens", "[64,128]"),
        ("quantization", "[0,8]"),
    ];

    fn spec_with(extra: &str) -> SweepSpec {
        SweepSpec::from_json(&format!(
            r#"{{"models":["tiny_mlp"],"hardware":{{"base":"small_test"}}{extra}}}"#
        ))
        .unwrap()
    }

    /// The banner's factors: every integer between the parentheses.
    fn banner_product(spec: &SweepSpec) -> usize {
        let banner = spec.banner(1);
        let factors = &banner[banner.find('(').unwrap()..banner.find(", ").unwrap()];
        factors
            .split(|c: char| !c.is_ascii_digit())
            .filter(|n| !n.is_empty())
            .map(|n| n.parse::<usize>().unwrap())
            .product()
    }

    #[test]
    fn every_knob_threads_through_len_keys_csv_and_banner() {
        let plain = spec_with("");
        assert_eq!(plain.len(), 1);
        assert_eq!(banner_product(&plain), 1);
        for axis in &AXES {
            let sample = TWO_VALUES.iter().find(|(field, _)| *field == axis.field);
            let (field, values) = sample.unwrap_or_else(|| panic!("no sample for {}", axis.field));
            let spec = spec_with(&format!(r#","{field}":{values}"#));
            assert_eq!(axis.len(&spec), 2, "{field}");
            assert_eq!(spec.len(), 2, "{field}");

            // The two points differ in this knob alone, and their keys
            // in exactly one segment.
            let points = spec.points().unwrap();
            assert_eq!(points.len(), 2, "{field}");
            for other in AXES.iter().filter(|a| a.field != axis.field) {
                let moved = !other.leaves(&spec, points[0].knobs);
                assert!(!moved, "{field} moved {}", other.field);
            }
            let keys: Vec<String> = points.iter().map(SweepPoint::key).collect();
            let (a, b): (Vec<&str>, Vec<&str>) =
                (keys[0].split('/').collect(), keys[1].split('/').collect());
            assert_eq!(a.len(), b.len(), "{keys:?}");
            let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(differing, 1, "{keys:?}");

            // The record carries the value under the knob's CSV column.
            let records = points.iter().map(SweepPoint::record).collect();
            let csv = SweepReport::assemble(1, records).to_csv();
            let mut lines = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
            let header = lines.next().unwrap();
            let column = header.iter().position(|c| *c == axis.column);
            let column = column.unwrap_or_else(|| panic!("no CSV column {}", axis.column));
            let cells: Vec<&str> = lines.map(|row| row[column]).collect();
            assert_eq!(cells.len(), 2);
            assert_ne!(cells[0], cells[1], "{field}");

            // The banner's factors multiply to the point count.
            assert_eq!(banner_product(&spec), 2, "{}", spec.banner(1));
            assert!(spec.banner(1).contains(&format!(" x 2 {}", axis.noun)));
        }
    }

    #[test]
    fn banner_keeps_its_wording_and_counts_collapsed_batches_once() {
        // Knobs at their defaults print no factor beyond the three the
        // banner has always carried.
        assert_eq!(
            spec_with("").banner(2),
            "exploring 1 points (1 models x 1 modes x 1 batches x 1 hardware configs \
             x 1 policies x 1 seeds, exhaustive search, 2 threads)..."
        );
        // Mixed modes: LL points skip the batch axis, and the banner
        // says so.
        let mixed = spec_with(
            r#","modes":["ht","ll"],"ht_batches":[1,2],"seeds":[1],
               "weight_reload":true,"seq_lens":[64]"#,
        );
        assert_eq!(mixed.len(), 3);
        assert_eq!(
            mixed.banner(4),
            "exploring 3 points (1 models x (1 HT mode x 2 batches + 1 LL mode) \
             x 1 hardware configs x 1 policies x 1 seeds x 1 reload settings \
             x 1 sequence lengths, exhaustive search, 4 threads)...\n  \
             note: `ht_batches` applies to high-throughput points only; \
             low-latency points always run batch 1"
        );
        let ll_only = spec_with(r#","modes":["ll"]"#);
        assert!(ll_only
            .banner(1)
            .contains("(1 models x 1 modes x 1 hardware"));
        assert_eq!(banner_product(&ll_only), ll_only.len());
    }

    /// A two-value JSON sample per hardware knob, by grid field, with
    /// the `HardwareConfig` fields it moves: a new row in [`HW_AXES`]
    /// fails the test below until it gets one.
    const HW_TWO_VALUES: [(&str, &str, &[&str]); 8] = [
        ("chips", "[2,3]", &["chips"]),
        ("cores_per_chip", "[8,12]", &["cores_per_chip"]),
        ("crossbars_per_core", "[8,12]", &["crossbars_per_core"]),
        (
            "crossbar_size",
            "[32,128]",
            &["crossbar_rows", "crossbar_cols"],
        ),
        ("parallelism", "[2,4]", &["parallelism"]),
        ("local_memory_kb", "[32,64]", &["local_memory_bytes"]),
        ("mvm_latency", "[20,32]", &["mvm_latency"]),
        ("noc_link_bw", "[2.5,16]", &["noc_link_bw"]),
    ];

    /// The serialized fields in which two configurations differ.
    fn moved_fields(a: &HardwareConfig, b: &HardwareConfig) -> Vec<String> {
        let fields = |hw| match serde_json::parse_value(&serde_json::to_string(hw).unwrap()) {
            Ok(Value::Map(entries)) => entries,
            other => panic!("a config serializes to an object, got {other:?}"),
        };
        let (a, b) = (fields(a), fields(b));
        a.iter()
            .zip(&b)
            .filter(|(x, y)| x != y)
            .map(|((field, _), _)| field.clone())
            .collect()
    }

    #[test]
    fn every_hardware_knob_moves_its_own_fields_alone() {
        let base = HardwareConfig::small_test();
        for axis in &HW_AXES {
            let sample = HW_TWO_VALUES.iter().find(|(f, ..)| *f == axis.field);
            let (field, values, moves) =
                sample.unwrap_or_else(|| panic!("no sample for {}", axis.field));
            let grid = serde_json::parse_value(&format!(r#"{{"{field}":{values}}}"#)).unwrap();
            let points = hardware_grid("small_test", base.clone(), &grid).unwrap();
            assert_eq!(points.len(), 2, "{field}");
            for (label, hw) in &points {
                assert!(label.starts_with(&format!("small_test+{}", axis.tag)));
                assert_eq!(moved_fields(&base, hw), *moves, "{label}");
            }
            assert_eq!(moved_fields(&points[0].1, &points[1].1), *moves, "{field}");
        }
    }

    #[test]
    fn options_carry_every_knob() {
        let spec = spec_with(
            r#","memory_policies":["naive"],"ht_batches":[4],"seeds":[9],
               "weight_reload":{"budgets":[32]},"seq_lens":[64],"quantization":[8]"#,
        );
        let point = &spec.points().unwrap()[0];
        let opts = AXES
            .iter()
            .fold(CompileOptions::new(point.mode), |opts, axis| {
                (axis.apply)(&point.knobs, opts)
            });
        assert_eq!(opts.memory_policy, ReusePolicy::Naive);
        assert_eq!((opts.batch, opts.ga.seed), (4, 9));
        assert_eq!((opts.weight_reload, opts.reload_budget), (true, Some(32)));
        assert_eq!(opts.seq_len, Some(64));
        assert_eq!(
            point.key(),
            "tiny_mlp/HT/small_test/naive/b4/seed9/reload-32/seq64/q8"
        );
    }
}
