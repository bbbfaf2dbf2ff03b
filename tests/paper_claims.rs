//! The paper scoreboard, committed: every claim `pimcomp_bench`'s
//! `Evaluation::claims()` makes over GA seeds {1, 7, 42}, at `--fast`
//! scale (checked on every `cargo test`) and at paper scale (GA
//! 100×200, five networks, five parallelisms; `#[ignore]`d, CI's
//! release job runs it), compared exactly against
//! `tests/golden/paper_claims.json`. Cycle, energy and byte counts
//! only, so the file is the same on every machine.
//!
//! The golden records what the reproduction reads, failures included
//! (seed 1: mean gain 1.35× HT / 1.36× LL where the paper says 1.6× /
//! 2.4×). A change that moves a claim regenerates it and says why:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test paper_claims -- --include-ignored
//! ```
//!
//! README.md's paper-vs-ours table is rendered from the same file (a
//! third test prints the block to paste when it is stale).

use pimcomp_bench::{evaluate, Better, Claim, HarnessOptions};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Mutex;

const SEEDS: [u64; 3] = [1, 7, 42];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SeedClaims {
    seed: u64,
    claims: Vec<Claim>,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct Golden {
    fast: Vec<SeedClaims>,
    paper: Vec<SeedClaims>,
}

/// Both scales rewrite one file under `UPDATE_GOLDEN`; tests of one
/// binary run concurrently.
static GOLDEN_FILE: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path() -> PathBuf {
    root().join("tests/golden/paper_claims.json")
}

fn load_golden() -> Golden {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --release \
             --test paper_claims -- --include-ignored` to create it",
            path.display()
        )
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} no longer parses ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    })
}

/// One claim per line, so a fixture diff lists exactly what moved.
fn render(golden: &Golden) -> String {
    let half = |seeds: &[SeedClaims]| {
        let seeds: Vec<String> = seeds
            .iter()
            .map(|s| {
                let claims: Vec<String> = s
                    .claims
                    .iter()
                    .map(|c| serde_json::to_string(c).expect("claims are finite"))
                    .collect();
                format!(
                    "{{\"seed\":{},\"claims\":[\n{}\n]}}",
                    s.seed,
                    claims.join(",\n")
                )
            })
            .collect();
        seeds.join(",\n")
    };
    format!(
        "{{\"fast\":[\n{}\n],\n\"paper\":[\n{}\n]}}\n",
        half(&golden.fast),
        half(&golden.paper)
    )
}

/// Every difference between two claim lists, as `id: was → now (better
/// | worse)`.
fn moved(seed: u64, was: &[Claim], now: &[Claim]) -> Vec<String> {
    let mut lines = Vec::new();
    for n in now {
        match was.iter().find(|w| w.id == n.id) {
            None => lines.push(format!("seed {seed} {}: new, {}", n.id, n.ours)),
            Some(w) if w == n => {}
            Some(w) if w.ours == n.ours => lines.push(format!(
                "seed {seed} {}: paper figure or direction changed",
                n.id
            )),
            Some(w) => {
                let improved = (n.ours > w.ours) == (n.better == Better::Higher);
                let verdict = if improved { "better" } else { "worse" };
                lines.push(format!(
                    "seed {seed} {}: {} → {} ({verdict})",
                    n.id, w.ours, n.ours
                ));
            }
        }
    }
    for w in was.iter().filter(|w| now.iter().all(|n| n.id != w.id)) {
        lines.push(format!("seed {seed} {}: gone, was {}", w.id, w.ours));
    }
    lines
}

fn check(fast: bool) {
    let now: Vec<SeedClaims> = SEEDS
        .iter()
        .map(|&seed| {
            let opts = HarnessOptions {
                fast,
                json_path: None,
                only: None,
            };
            let evaluation = evaluate(&opts, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            SeedClaims {
                seed,
                claims: evaluation.claims(),
            }
        })
        .collect();
    let _guard = GOLDEN_FILE.lock().unwrap();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let mut golden = if golden_path().exists() {
            load_golden()
        } else {
            Golden::default()
        };
        *(if fast {
            &mut golden.fast
        } else {
            &mut golden.paper
        }) = now;
        std::fs::write(golden_path(), render(&golden)).expect("write fixture");
        return;
    }
    let golden = load_golden();
    let was = if fast { &golden.fast } else { &golden.paper };
    assert_eq!(
        was.iter().map(|s| s.seed).collect::<Vec<_>>(),
        SEEDS,
        "golden seeds"
    );
    let lines: Vec<String> = was
        .iter()
        .zip(&now)
        .flat_map(|(w, n)| moved(w.seed, &w.claims, &n.claims))
        .collect();
    assert!(
        lines.is_empty(),
        "{} claim(s) moved from {}:\n{}\nif the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --release --test paper_claims -- --include-ignored`, \
         commit the fixture and say why each claim moved",
        lines.len(),
        golden_path().display(),
        lines.join("\n")
    );
}

#[test]
fn fast_scale_claims_match_golden() {
    check(true);
}

#[test]
#[ignore = "paper scale (GA 100x200, 50 points, three seeds): release builds only"]
fn paper_scale_claims_match_golden() {
    check(false);
}

const README_BEGIN: &str = "<!-- paper-claims:begin -->\n";
const README_END: &str = "<!-- paper-claims:end -->";

/// README's paper-vs-ours block: the summary claims of `claims` as a
/// table, then the Fig. 8 points PIMCOMP loses.
fn readme_block(claims: &[Claim]) -> String {
    let mut out = String::from("| claim | paper | ours | better |\n|---|---|---|---|\n");
    for c in claims.iter().filter(|c| !c.id.ends_with(']')) {
        let paper = c.paper.map_or("—".to_string(), |p| p.to_string());
        let better = match c.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        // Counts print whole, ratios to three places.
        let ours = if c.ours.fract() == 0.0 {
            c.ours.to_string()
        } else {
            format!("{:.3}", c.ours)
        };
        out += &format!("| `{}` | {paper} | {ours} | {better} |\n", c.id);
    }
    let lost: Vec<String> = claims
        .iter()
        .filter(|c| c.id.starts_with("fig8.gain[") && c.ours < 1.0)
        .map(|c| format!("`{}` {:.3}", c.id, c.ours))
        .collect();
    let lost = if lost.is_empty() {
        "none".to_string()
    } else {
        lost.join(", ")
    };
    out + &format!("\nFig. 8 points below 1.0×: {lost}.\n")
}

#[test]
fn readme_table_is_rendered_from_the_golden() {
    let golden = {
        let _guard = GOLDEN_FILE.lock().unwrap();
        load_golden()
    };
    let seed1 = golden.paper.iter().find(|s| s.seed == 1).expect("seed 1");
    let expected = readme_block(&seed1.claims);
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README.md");
    let block = readme
        .split_once(README_BEGIN)
        .and_then(|(_, rest)| rest.split_once(README_END))
        .map(|(block, _)| block);
    assert!(
        block == Some(expected.as_str()),
        "README.md's block between `{}` and `{README_END}` is not the rendering of the golden's \
         seed-1 paper-scale claims; replace it with:\n{expected}",
        README_BEGIN.trim_end()
    );
}

#[test]
fn a_moved_claim_is_reported_with_its_direction() {
    let claim = |id: &str, ours, better| Claim {
        id: id.to_string(),
        paper: None,
        ours,
        better,
    };
    let was = [
        claim("gain", 1.35, Better::Higher),
        claim("energy", 1.0, Better::Lower),
        claim("old", 2.0, Better::Lower),
    ];
    assert!(moved(1, &was, &was).is_empty());
    let now = [
        claim("gain", 1.25, Better::Higher),
        claim("energy", 0.5, Better::Lower),
        claim("fresh", 3.0, Better::Higher),
    ];
    assert_eq!(
        moved(7, &was, &now),
        [
            "seed 7 gain: 1.35 → 1.25 (worse)",
            "seed 7 energy: 1 → 0.5 (better)",
            "seed 7 fresh: new, 3",
            "seed 7 old: gone, was 2",
        ]
    );
}
