//! `ledger --compare A.json B.json`: one row per (metric, workload).

use crate::{MetricDef, END_TO_END, PER_LAYER};
use serde::Value;
use std::fmt::Write;

/// One side's reading of a metric: the reported value and the range of
/// the samples behind it (the value itself where there were none).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reading {
    value: f64,
    min: f64,
    max: f64,
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn reading(entry: &Value) -> Option<Reading> {
    let value = number(entry.get("value"))?;
    Some(Reading {
        value,
        min: number(entry.get("min")).unwrap_or(value),
        max: number(entry.get("max")).unwrap_or(value),
    })
}

/// How B's reading of a metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the metric's bound (or better).
    Ok,
    /// Worse than A's median by more than the bound.
    Worse,
    /// A side's own min–max spread is wider than the bound and the two
    /// ranges overlap: the runs cannot tell.
    Unresolved,
    /// An exact metric read the same.
    Same,
    /// An exact metric read differently.
    Differs,
    /// A per-layer measurement: no bound, shown for attribution.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Info => "-",
        }
    }
}

fn verdict(def: &MetricDef, a: Reading, b: Reading) -> Verdict {
    let Some(bound) = def.bound else {
        return match (def.exact, a.value == b.value) {
            (true, true) => Verdict::Same,
            (true, false) => Verdict::Differs,
            (false, _) => Verdict::Info,
        };
    };
    let spread = |r: Reading| (r.max - r.min) / r.value.abs().max(f64::MIN_POSITIVE);
    let overlap = a.min <= b.max && b.min <= a.max;
    if (spread(a) > bound || spread(b) > bound) && overlap && a.value != b.value {
        return Verdict::Unresolved;
    }
    let worse_by = if def.higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    if worse_by > bound * a.value.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two documents of the all-workloads command, A the baseline.
/// Returns the table and whether any row is `worse`.
///
/// # Errors
///
/// A document is not a ledger document, or is a `--smoke` one (smoke
/// numbers measure nothing).
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse = |text: &str, side: &str| {
        let doc = serde_json::parse_value(text).map_err(|e| format!("{side}: {e}"))?;
        match doc.get("smoke") {
            Some(Value::Bool(false)) => Ok(doc),
            Some(Value::Bool(true)) => Err(format!("{side} is a --smoke document")),
            _ => Err(format!("{side} is not a ledger document")),
        }
    };
    let (a, b) = (parse(a, "A")?, parse(b, "B")?);
    let Some(Value::Map(workloads)) = a.get("workloads") else {
        return Err("A has no workloads".to_string());
    };
    let mut table = format!(
        "{:<16} {:<30} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let mut any_worse = false;
    for (workload, entry_a) in workloads {
        let entry_b = b.get("workloads").and_then(|w| w.get(workload));
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for def in defs {
                let side =
                    |entry: Option<&Value>| entry?.get(section)?.get(def.name).and_then(reading);
                let (Some(ra), Some(rb)) = (side(Some(entry_a)), side(entry_b)) else {
                    continue;
                };
                let v = verdict(def, ra, rb);
                any_worse |= v == Verdict::Worse;
                let delta = if ra.value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:+.1}%", (rb.value / ra.value - 1.0) * 100.0)
                };
                let bound = def
                    .bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
                let _ = writeln!(
                    table,
                    "{workload:<16} {:<30} {:>14.6} {:>14.6} {delta:>8} {bound:>6}  {}",
                    def.name,
                    ra.value,
                    rb.value,
                    v.label()
                );
            }
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMING: MetricDef = END_TO_END[1];

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn bounded_metrics_compare_by_median_unless_the_runs_cannot_tell() {
        assert_eq!(TIMING.bound, Some(0.25));
        assert_eq!(
            verdict(&TIMING, r(1.0, 0.99, 1.01), r(1.05, 1.04, 1.06)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&TIMING, r(1.0, 0.99, 1.01), r(0.5, 0.5, 0.5)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&TIMING, r(1.0, 0.99, 1.01), r(1.3, 1.29, 1.31)),
            Verdict::Worse
        );
        // Wide and overlapping: neither "ok" nor "worse" is shown.
        assert_eq!(
            verdict(&TIMING, r(1.0, 0.9, 1.4), r(1.3, 1.1, 1.35)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B is slower than every run of A.
        assert_eq!(
            verdict(&TIMING, r(1.0, 0.9, 1.1), r(1.5, 1.2, 1.6)),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let count = PER_LAYER.iter().find(|d| d.name == "ir.nodes").unwrap();
        assert_eq!(
            verdict(count, r(5.0, 5.0, 5.0), r(5.0, 5.0, 5.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(count, r(5.0, 5.0, 5.0), r(6.0, 6.0, 6.0)),
            Verdict::Differs
        );
        let timing = PER_LAYER.iter().find(|d| d.name == "sim.ht_s").unwrap();
        assert_eq!(
            verdict(timing, r(1.0, 1.0, 1.0), r(2.0, 2.0, 2.0)),
            Verdict::Info
        );
    }

    #[test]
    fn smoke_documents_are_refused() {
        let smoke = r#"{"smoke":true,"workloads":{}}"#;
        let full = r#"{"smoke":false,"workloads":{}}"#;
        assert!(compare(smoke, full).unwrap_err().contains("--smoke"));
        assert!(compare(full, "{}").unwrap_err().contains("not a ledger"));
        let (table, worse) = compare(full, full).unwrap();
        assert!(table.starts_with("workload") && !worse);
    }
}
