//! Runs `ledger --smoke` end to end and checks it against
//! `BENCHMARK.json`: every workload and metric named there is printed,
//! with its unit; what is deterministic repeats exactly; the trace
//! nests.

use pimcomp_ledger::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn ledger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary starts")
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Map(entries)) => entries,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn smoke_run(trace_dir: &Path) -> Value {
    std::fs::create_dir_all(trace_dir).unwrap();
    let out = ledger(&[
        "--smoke",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace-dir",
        trace_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "ledger --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::parse_value(&String::from_utf8(out.stdout).unwrap()).unwrap()
}

#[test]
fn benchmark_json_names_exactly_what_the_ledger_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Seq(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(w.get("name"))).collect();
    assert_eq!(names, WORKLOADS);

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Some(Value::Seq(listed)) = bench.get(key) else {
            panic!("BENCHMARK.json has no {key}");
        };
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(text(entry.get("name")), def.name);
            assert_eq!(text(entry.get("unit")), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(entry.get("better")), better, "{}", def.name);
            let bound = match entry.get("bound") {
                Some(Value::Float(f)) => Some(*f),
                Some(Value::Int(i)) => Some(*i as f64),
                _ => None,
            };
            assert_eq!(bound, def.bound, "{}", def.name);
        }
    }
}

#[test]
fn smoke_prints_every_metric_repeats_exactly_and_nests_its_spans() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (dir_a, dir_b) = (tmp.join("smoke-a"), tmp.join("smoke-b"));
    let (a, b) = (smoke_run(&dir_a), smoke_run(&dir_b));
    assert_eq!(a.get("smoke"), Some(&Value::Bool(true)));

    for workload in WORKLOADS {
        let side = |doc: &'_ Value| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (wa, wb) = (side(&a).unwrap(), side(&b).unwrap());
        assert_eq!(wa.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(wa.get("failed"), Some(&Value::Int(0)), "{workload}");
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let printed = entries(wa.get(section));
            let names: Vec<&str> = printed.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{workload} {section}");
            for def in defs {
                assert!(def
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                let entry = wa.get(section).and_then(|s| s.get(def.name));
                assert_eq!(text(entry.and_then(|e| e.get("unit"))), def.unit);
                let value = |w: &Value| {
                    w.get(section)
                        .and_then(|s| s.get(def.name))
                        .and_then(|e| e.get("value"))
                        .cloned()
                };
                assert!(matches!(value(&wa), Some(Value::Float(_) | Value::Int(_))));
                if def.exact {
                    assert_eq!(value(&wa), value(&wb), "{workload} {}", def.name);
                }
            }
        }
        let trace = std::fs::read_to_string(dir_a.join(format!("{workload}.trace.json"))).unwrap();
        let trace = serde_json::parse_value(&trace).unwrap();
        let Some(Value::Seq(events)) = trace.get("traceEvents") else {
            panic!("{workload}: no traceEvents");
        };
        assert!(!events.is_empty(), "{workload}: empty trace");
        let interval = |e: &Value| match (e.get("ts"), e.get("dur")) {
            (Some(Value::Float(ts)), Some(Value::Float(dur))) => (*ts, ts + dur),
            (Some(Value::Int(ts)), Some(Value::Float(dur))) => (*ts as f64, *ts as f64 + dur),
            (Some(Value::Float(ts)), Some(Value::Int(dur))) => (*ts, ts + *dur as f64),
            (Some(Value::Int(ts)), Some(Value::Int(dur))) => (*ts as f64, (ts + dur) as f64),
            other => panic!("span without ts/dur: {other:?}"),
        };
        let mut nested = 0;
        for event in events {
            let args = event.get("args").unwrap();
            assert_eq!(text(args.get("workload")), workload);
            if let Some(Value::Int(parent)) = args.get("parent") {
                let (start, end) = interval(event);
                let (p_start, p_end) = interval(&events[*parent as usize]);
                // Microseconds printed from whole nanoseconds.
                assert!(p_start <= start + 1e-3 && end <= p_end + 1e-3);
                nested += 1;
            }
        }
        assert!(nested > 0, "{workload}: no nested span");
    }

    // Smoke numbers measure nothing, so `--compare` will not read them.
    let doc = dir_a.join("smoke.json");
    std::fs::write(&doc, serde_json::to_string(&a).unwrap()).unwrap();
    let out = ledger(&["--compare", doc.to_str().unwrap(), doc.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--smoke"));
}
