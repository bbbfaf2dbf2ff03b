//! The `pimcomp` front door: every command accepts exactly the flags
//! its table row declares, `help` renders that table, and the artifact
//! workflow prints the numbers it always printed.

use std::collections::BTreeMap;
use std::process::{Command, Output};

fn pimcomp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pimcomp"))
        .args(args)
        .output()
        .expect("spawn pimcomp")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The flags CI, the README and `docs/` rely on, per command: the
/// contract the table must keep.
const CONTRACT: [(&str, &[&str]); 7] = [
    (
        "compile",
        &[
            "--model",
            "--mode",
            "--chips",
            "--parallelism",
            "--policy",
            "--ga",
            "--seed",
            "--weight-reload",
            "--seq-len",
            "--reload-budget",
            "--threads",
            "--artifact",
            "--progress",
            "--simulate",
            "--report",
        ],
    ),
    (
        "simulate",
        &["--artifact", "--chips", "--parallelism", "--report"],
    ),
    (
        "verify",
        &[
            "--artifact",
            "--seed",
            "--tolerance",
            "--quantized",
            "--adc-bits",
        ],
    ),
    ("inspect", &["--model", "--seq-len", "--artifact"]),
    ("export", &["--model", "--out"]),
    ("models", &[]),
    (
        "explore",
        &[
            "--spec",
            "--threads",
            "--out",
            "--csv",
            "--cache",
            "--cache-max-mb",
            "--budget-summary",
            "--progress",
            "--diff",
            "--against",
        ],
    ),
];

/// `pimcomp help`, parsed back into command → flags.
fn help_table() -> BTreeMap<String, Vec<String>> {
    let out = pimcomp(&["help"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let mut table = BTreeMap::new();
    let mut section: Option<String> = None;
    for line in stdout(&out).lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["pimcomp", command, ..] if line.starts_with("  ") && *command != "help" => {
                table.entry(command.to_string()).or_insert_with(Vec::new);
            }
            ["FLAGS", command] => {
                section = Some(command.trim_matches(|c| "():".contains(c)).to_string());
            }
            [flag, ..] if flag.starts_with("--") => {
                let command = section.as_ref().expect("flag line inside a FLAGS section");
                table
                    .get_mut(command)
                    .expect("FLAGS section of a listed command")
                    .push(flag.to_string());
            }
            _ => {}
        }
    }
    table
}

#[test]
fn help_lists_every_command_and_every_contracted_flag() {
    let table = help_table();
    let listed: Vec<&str> = table.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = CONTRACT.iter().map(|(command, _)| *command).collect();
    expected.sort_unstable();
    assert_eq!(listed, expected);
    for (command, flags) in CONTRACT {
        assert_eq!(table[command], flags, "flags of `{command}`");
    }
}

/// Asserts that `args` is rejected as an undeclared `flag` of `command`
/// with every flag the command does take in the message.
fn assert_undeclared(command: &str, flag: &str, args: &[&str], table: &[String]) {
    let out = pimcomp(args);
    let err = stderr(&out);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(
        err.contains(&format!("`{flag}` is not a flag of `{command}`")),
        "{args:?}: {err}"
    );
    for declared in table {
        assert!(err.contains(declared.as_str()), "{args:?}: {err}");
    }
}

#[test]
fn every_command_rejects_flags_its_row_does_not_declare() {
    let table = help_table();
    for (command, flags) in &table {
        assert_undeclared(command, "--bogus", &[command, "--bogus", "1"], flags);
        // A flag that exists, but on another command.
        let foreign = table
            .values()
            .flatten()
            .find(|f| !flags.contains(f))
            .expect("some other command's flag");
        assert_undeclared(command, foreign, &[command, foreign, "1"], flags);
    }
    assert_undeclared(
        "simulate",
        "--ga",
        &["simulate", "--ga", "1x1"],
        &table["simulate"],
    );
    assert_undeclared(
        "models",
        "--bogus",
        &["models", "--bogus", "1"],
        &table["models"],
    );
    // The typo that used to compile HT at parallelism 20 and exit 0.
    let typo = [
        "compile",
        "--model",
        "tiny_cnn",
        "--chips",
        "1",
        "--ga",
        "4x4",
        "--modle",
        "ll",
        "--paralelism",
        "99",
    ];
    let out = pimcomp(&typo);
    assert_undeclared("compile", "--modle", &typo, &table["compile"]);
    assert_eq!(stdout(&out), "", "nothing may compile before the rejection");
}

#[test]
fn malformed_command_lines_stay_rejected() {
    // A spec that runs if a conflict goes unnoticed; `--cache off`
    // keeps such a run from leaving a cache behind.
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/fixtures/smoke_sweep.json"
    );
    let diff = ["explore", "--diff", "old.json", "--against", "new.json"];
    for (args, expect) in [
        (&["compile", "--model"][..], "--model needs a value"),
        (&["simulate", "stray"][..], "unexpected argument `stray`"),
        (
            &["explore", "a.json", "b.json"][..],
            "unexpected argument `b.json`",
        ),
        (&[][..], "USAGE:"),
        // `explore` inputs that contradict each other: refused, where
        // one of them used to go unread.
        (
            &[
                "explore",
                spec,
                "--spec",
                "/nonexistent.json",
                "--cache",
                "off",
            ][..],
            "two sweep specs",
        ),
        (
            &["explore", spec, "--against", "x.json", "--cache", "off"][..],
            "`--against` is only read together with `--diff",
        ),
        (
            &["explore", spec, "--cache", "off", "--cache-max-mb", "5"][..],
            "`--cache off` disables it",
        ),
        (
            &[&diff[..], &["--spec", spec]].concat()[..],
            "drop `--spec`",
        ),
        (&[&diff[..], &[spec]].concat()[..], "runs no sweep; drop `"),
        // `compile` checks its options before it prints its banner.
        (
            &["compile", "--model", "tiny_mlp", "--reload-budget", "5"][..],
            "--reload-budget requires --weight-reload",
        ),
        (
            &["compile", "--model", "tiny_mlp", "--ga", "0x10"][..],
            "GA population must be at least 1",
        ),
        (
            &[
                "compile",
                "--model",
                "tiny_mlp",
                "--weight-reload",
                "--reload-budget",
                "0",
            ][..],
            "`reload_budget` must be at least 1 crossbar",
        ),
        // A tolerance no RMSE can fail (NaN, ∞) or none can pass (< 0)
        // is refused before the artifact loads.
        (
            &["verify", "--artifact", "a.json", "--tolerance", "nan"][..],
            "--tolerance expects a finite non-negative number, got `nan`",
        ),
        (
            &["verify", "--artifact", "a.json", "--tolerance", "inf"][..],
            "--tolerance expects a finite non-negative number, got `inf`",
        ),
        (
            &["verify", "--artifact", "a.json", "--tolerance", "-1"][..],
            "--tolerance expects a finite non-negative number, got `-1`",
        ),
        // An ADC resolution with no quantized run to read it used to be
        // ignored, and an `inspect` model beside an artifact dropped.
        (
            &["verify", "--artifact", "a.json", "--adc-bits", "0"][..],
            "--adc-bits requires --quantized",
        ),
        (
            &["inspect", "--model", "tiny_cnn", "--artifact", "a.json"][..],
            "inspect reads `--model` or `--artifact`, not both",
        ),
        (
            &["inspect", "--artifact", "a.json", "--seq-len", "16"][..],
            "`--seq-len` binds a `--model`; an artifact's graph is bound",
        ),
    ] {
        let out = pimcomp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(expect), "{args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{args:?} ran before the rejection");
    }
    // An unknown command, the retired `serve` and `work` among them,
    // names the ones that exist.
    let commands: Vec<&str> = CONTRACT.iter().map(|(command, _)| *command).collect();
    for args in [
        &["frobnicate"][..],
        &["serve", "--spec", "s.json"],
        &["work", "--connect", "127.0.0.1:1"],
    ] {
        let out = pimcomp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            stderr(&out),
            format!(
                "error: unknown command `{}`; commands: {}, help\n",
                args[0],
                commands.join(", ")
            )
        );
    }
}

#[test]
fn overflowing_chip_count_is_an_error_not_a_panic() {
    // 2^62 chips x 36 cores per chip used to wrap to 0 cores and die
    // indexing the schedule (exit 101).
    let out = pimcomp(&[
        "compile",
        "--model",
        "tiny_mlp",
        "--chips",
        "4611686018427387904",
        "--ga",
        "2x1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        "error: invalid hardware parameter `total_cores`: 4611686018427387904 chips x 36 \
         cores per chip overflows the core count\n"
    );
    // A count that fits a `usize` but no machine's memory: refused by
    // the same check, in place of an abort allocating per-core tables.
    let out = pimcomp(&[
        "compile", "--model", "tiny_mlp", "--chips", "10000000", "--ga", "2x1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    assert_eq!(
        stderr(&out),
        "error: invalid hardware parameter `total_cores`: 10000000 chips x 36 cores per chip \
         is 360000000 cores; at most 65536 are supported\n"
    );
}

/// `inspect --model` reports the graph a compile sees: normalized, so
/// resnet18's batch norms are folded (70 nodes as built) and
/// tiny_bert's attention is fused and its dropouts gone (29 as built).
#[test]
fn inspect_reports_the_normalized_graph() {
    for (model, header) in [
        ("resnet18", "model: resnet18 (50 nodes)"),
        ("tiny_bert", "model: tiny_bert (25 nodes)"),
    ] {
        let out = pimcomp(&["inspect", "--model", model]);
        assert!(out.status.success(), "{model}: {}", stderr(&out));
        let text = stdout(&out);
        assert_eq!(text.lines().next(), Some(header), "{text}");
    }
    // A bound transformer's matmuls carry their MACs and windows.
    let out = pimcomp(&["inspect", "--model", "tiny_bert", "--seq-len", "16"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let row = "b0_ff1                       matmul            32768         524288         16";
    assert!(text.lines().any(|l| l == row), "{text}");
}

/// The values below were recorded from the binary of the commit before
/// the command table existed; the energy line was re-recorded when a
/// sole activation stopped being a vec task of its own.
#[test]
fn artifact_workflow_prints_the_recorded_numbers() {
    let dir = std::env::temp_dir().join(format!("pimcomp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("tiny.pimc.json");
    let artifact = artifact.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = pimcomp(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        stdout(&out)
    };
    let has_line = |text: &str, line: &str| {
        assert!(
            text.lines().any(|l| l == line),
            "missing `{line}` in:\n{text}"
        );
    };

    let compile = run(&[
        "compile",
        "--model",
        "tiny_cnn",
        "--chips",
        "1",
        "--ga",
        "4x4",
        "--seed",
        "4",
        "--simulate",
        "--artifact",
        artifact,
    ]);
    has_line(
        &compile,
        "compiling tiny_cnn for 1 chips x 36 cores (parallelism 20, HT mode)...",
    );
    has_line(&compile, "  replication: [1024, 256, 1, 1]");
    has_line(
        &compile,
        "  36 active cores, 2177 / 2304 crossbars, estimated F_HT = 6400 cycles",
    );
    has_line(
        &compile,
        "  simulated: 19590 cycles/inference -> 51046 inf/s",
    );

    let inspect = run(&["inspect", "--artifact", artifact]);
    has_line(&inspect, "model: tiny_cnn compiled by PIMCOMP in HT mode");
    has_line(&inspect, "replication: [1024, 256, 1, 1]");
    has_line(&inspect, "estimated fitness: 6400 cycles");
    assert!(
        inspect.contains("(36 active cores, 2177 crossbars; GA 6405 -> 6404 over 4 generations"),
        "{inspect}"
    );

    let simulate = run(&["simulate", "--artifact", artifact]);
    has_line(
        &simulate,
        "  simulated: 19590 cycles/inference -> 51046 inf/s",
    );
    has_line(
        &simulate,
        "  energy 356.7 uJ (dyn 103.9 + leak 252.7), avg local mem 11.5 kB",
    );

    let verify = run(&["verify", "--artifact", artifact, "--quantized"]);
    has_line(
        &verify,
        "  unquantized: RMSE 5.483e-8 over 10 output values, top-1 match (seed 1)",
    );
    has_line(
        &verify,
        "  quantized (2b cells, 16b weights, 8b ADC): RMSE 8.719e-4, top-1 match",
    );
    has_line(&verify, "  verification passed");
    // An ADC resolution out of range is refused before the reference
    // runs, where it used to fail after two lines of output.
    let out = pimcomp(&[
        "verify",
        "--artifact",
        artifact,
        "--quantized",
        "--adc-bits",
        "99",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    assert_eq!(
        stderr(&out),
        "error: invalid hardware parameter `adc_bits`: must be in 1..=32, got 99\n"
    );

    // Pinning a different serving target is a fingerprint error, not a
    // simulation with mixed hardware.
    let pinned = pimcomp(&["simulate", "--artifact", artifact, "--parallelism", "8"]);
    assert!(!pinned.status.success());
    assert!(
        stderr(&pinned).contains("hardware mismatch"),
        "{}",
        stderr(&pinned)
    );

    // Any positive rate validates, but one near zero makes a duration
    // the simulated clock cannot hold: one line, exit 1, where the clock
    // used to wrap into a report and exit 0 (or panic, exit 101).
    let saved = serde_json::parse_value(&std::fs::read_to_string(artifact).unwrap()).unwrap();
    for rate in ["global_memory_bw", "noc_link_bw", "vfu_lane_throughput"] {
        let mut value = saved.clone();
        let serde::Value::Map(fields) = &mut value else {
            panic!("an artifact is a JSON object");
        };
        let hw = &mut fields.iter_mut().find(|(k, _)| k == "hw").unwrap().1;
        let serde::Value::Map(knobs) = hw else {
            panic!("`hw` is a JSON object");
        };
        knobs.iter_mut().find(|(k, _)| k == rate).unwrap().1 = serde::Value::Float(1e-300);
        let tampered = dir.join(format!("{rate}.pimc.json"));
        std::fs::write(&tampered, serde_json::to_string(&value).unwrap()).unwrap();
        let out = pimcomp(&["simulate", "--artifact", tampered.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{rate}: {err}");
        assert_eq!(stdout(&out), "", "{rate}");
        assert_eq!(err.lines().count(), 1, "{rate}: {err}");
        assert!(
            err.starts_with("error: simulation diverged: the simulated clock overflows u64 at "),
            "{rate}: {err}"
        );
    }
    // Likewise a huge latency: `inspect` prints the estimate, saturated
    // where it exceeds a `u64`, and `simulate` refuses, where a debug
    // build used to panic (exit 101) and a release build printed a
    // wrapped estimate.
    for (latency, estimate) in [
        // The bottleneck core's issue-bound cycle: 64 AGs at
        // ceil(2^62 / 20) cycles each, which still fits a `u64`.
        (1u64 << 62, "14757395258967642112"),
        (u64::MAX, "18446744073709551616"),
    ] {
        let mut value = saved.clone();
        let serde::Value::Map(fields) = &mut value else {
            panic!("an artifact is a JSON object");
        };
        let hw = &mut fields.iter_mut().find(|(k, _)| k == "hw").unwrap().1;
        let serde::Value::Map(knobs) = hw else {
            panic!("`hw` is a JSON object");
        };
        knobs
            .iter_mut()
            .find(|(k, _)| k == "mvm_latency")
            .unwrap()
            .1 = serde::Value::Int(latency.into());
        let tampered = dir.join(format!("mvm_latency-{latency}.pimc.json"));
        std::fs::write(&tampered, serde_json::to_string(&value).unwrap()).unwrap();
        let tampered = tampered.to_str().unwrap();
        let inspect = pimcomp(&["inspect", "--artifact", tampered]);
        assert_eq!(
            inspect.status.code(),
            Some(0),
            "{latency}: {}",
            stderr(&inspect)
        );
        has_line(
            &stdout(&inspect),
            &format!("estimated fitness: {estimate} cycles"),
        );
        let out = pimcomp(&["simulate", "--artifact", tampered]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{latency}: {err}");
        assert_eq!(stdout(&out), "", "{latency}");
        assert_eq!(err.lines().count(), 1, "{latency}: {err}");
        assert!(
            err.starts_with("error: simulation diverged: the simulated clock overflows u64 at "),
            "{latency}: {err}"
        );
    }
    // A batch past the bound kept the HT engine issuing a trillion MVMs
    // per array group (no exit within minutes), and 10^7 chips aborted
    // the process allocating per-core tables (exit 134): loading the
    // artifact now refuses both, in one line.
    for (field, value, refusal) in [
        (
            "batch",
            1_000_000_000_000u64,
            "error: invalid artifact: invalid compile options: `batch` must be at most 65536, \
             not 1000000000000",
        ),
        (
            "chips",
            10_000_000,
            "error: invalid artifact: invalid hardware configuration: invalid hardware \
             parameter `total_cores`: 10000000 chips x 36 cores per chip is 360000000 cores; \
             at most 65536 are supported",
        ),
    ] {
        let mut value_of = saved.clone();
        let serde::Value::Map(fields) = &mut value_of else {
            panic!("an artifact is a JSON object");
        };
        let knobs = if field == "batch" {
            fields
        } else {
            let hw = &mut fields.iter_mut().find(|(k, _)| k == "hw").unwrap().1;
            let serde::Value::Map(knobs) = hw else {
                panic!("`hw` is a JSON object");
            };
            knobs
        };
        knobs.iter_mut().find(|(k, _)| k == field).unwrap().1 = serde::Value::Int(value.into());
        let tampered = dir.join(format!("{field}-{value}.pimc.json"));
        std::fs::write(&tampered, serde_json::to_string(&value_of).unwrap()).unwrap();
        let out = pimcomp(&["simulate", "--artifact", tampered.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{field}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{field}");
        assert_eq!(stderr(&out), format!("{refusal}\n"), "{field}");
    }
    // The first conv's 3x3 kernel made 2^32 + 1 square, padded so the
    // recorded output shape still agrees with inference: `kh × kw`
    // overflows, which a debug build hit as a panic (exit 101) while
    // partitioning the loaded graph.
    let json = std::fs::read_to_string(artifact).unwrap();
    let conv = r#""kernel":[3,3],"stride":[1,1],"padding":[1,1]"#;
    let hostile =
        r#""kernel":[4294967297,4294967297],"stride":[1,1],"padding":[2147483648,2147483648]"#;
    assert!(json.contains(conv), "fixture assumption: a 3x3 conv");
    let tampered = dir.join("kernel.pimc.json");
    std::fs::write(&tampered, json.replacen(conv, hostile, 1)).unwrap();
    for command in ["inspect", "simulate", "verify"] {
        let out = pimcomp(&[command, "--artifact", tampered.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{command}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{command}");
        assert_eq!(
            stderr(&out),
            "error: invalid artifact: invalid graph: invalid attribute at node `conv1`: \
             kernel 4294967297x4294967297 over 3 channels overflows usize\n",
            "{command}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closed the pipe took what it wanted
/// (`pimcomp explore … | head -4`): the command ends quietly with exit
/// 0, never a `failed printing to stdout` panic (exit 101).
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let spec = "crates/bench/fixtures/smoke_sweep_mapping.json";
    for args in [
        &["models"][..],
        &["help"][..],
        &["explore", spec, "--cache", "off"][..],
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pimcomp"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn pimcomp");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err, "", "{args:?}");
    }
}

/// The frontier table names each point's mapping, and each knob a
/// point moved off its default: no two rows read alike.
#[test]
fn frontier_rows_name_the_knobs_they_differ_in() {
    let frontier = |spec: &str| {
        let out = pimcomp(&["explore", spec, "--cache", "off", "--threads", "2"]);
        assert!(out.status.success(), "{spec}: {}", stderr(&out));
        let text = stdout(&out);
        let table: Vec<String> = text
            .lines()
            .skip_while(|l| !l.starts_with("Pareto frontier"))
            .skip(1)
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        let mut rows = table[1..].to_vec();
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), table.len() - 1, "{spec}: rows alike in\n{text}");
        table
    };
    // Both LL points of tiny_cnn on small_test are on the frontier; only
    // their mapping tells them apart.
    let mapping = frontier("crates/bench/fixtures/smoke_sweep_mapping.json");
    assert_eq!(
        mapping[0],
        "model mode hardware policy mapping batch seed cycles energy(uJ) inf/s xbar%"
    );
    let ll: Vec<&str> = mapping[1..]
        .iter()
        .filter(|r| r.starts_with("tiny_cnn LL small_test ag "))
        .map(|r| r.split(' ').nth(4).unwrap())
        .collect();
    assert_eq!(ll, ["ga", "puma"]);
    let reload = frontier("crates/bench/fixtures/smoke_sweep_reload.json");
    assert_eq!(
        reload[0],
        "model mode hardware policy mapping batch seed reload cycles energy(uJ) inf/s xbar%"
    );
}
