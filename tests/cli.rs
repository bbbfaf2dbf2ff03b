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

/// The flags CI, `scripts/serve_smoke.sh`, the README and `docs/` rely
/// on, per command: the contract the table must keep.
const CONTRACT: [(&str, &[&str]); 9] = [
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
    ("inspect", &["--model", "--artifact"]),
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
    (
        "serve",
        &[
            "--spec",
            "--listen",
            "--port-file",
            "--journal",
            "--lease-size",
            "--lease-timeout-secs",
            "--out",
            "--csv",
            "--progress",
        ],
    ),
    (
        "work",
        &[
            "--connect",
            "--name",
            "--cache",
            "--cache-max-mb",
            "--max-points",
            "--throttle-ms",
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
    for (args, expect) in [
        (&["compile", "--model"][..], "--model needs a value"),
        (&["simulate", "stray"][..], "unexpected argument `stray`"),
        (
            &["explore", "a.json", "b.json"][..],
            "unexpected argument `b.json`",
        ),
        (&["frobnicate"][..], "unknown command `frobnicate`"),
        (&[][..], "USAGE:"),
    ] {
        let out = pimcomp(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(stderr(&out).contains(expect), "{args:?}: {}", stderr(&out));
    }
    // An unknown command names the ones that exist.
    let err = stderr(&pimcomp(&["frobnicate"]));
    for (command, _) in CONTRACT {
        assert!(err.contains(command), "{err}");
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
}

/// The values below were recorded from the binary of the commit before
/// the command table existed.
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
        "  energy 358.4 uJ (dyn 104.9 + leak 253.6), avg local mem 13.4 kB",
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

    // Pinning a different serving target is a fingerprint error, not a
    // simulation with mixed hardware.
    let pinned = pimcomp(&["simulate", "--artifact", artifact, "--parallelism", "8"]);
    assert!(!pinned.status.success());
    assert!(
        stderr(&pinned).contains("hardware mismatch"),
        "{}",
        stderr(&pinned)
    );
    std::fs::remove_dir_all(&dir).ok();
}
