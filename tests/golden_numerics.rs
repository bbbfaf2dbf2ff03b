//! Golden numeric fixtures: committed output tensors of seed-driven
//! functional execution, pinning the synthesis scheme, the kernels and
//! the mapped layout bit for bit.
//!
//! Where golden_traces.rs pins *what the compiler decided*, this suite
//! pins *what the compiled machine computes*: any change to the
//! synthesis hash, an f32 kernel, or the layout walk that alters even
//! one output ULP fails with a fixture diff.
//!
//! To bless intentional numeric changes:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_numerics
//! ```

use pimcomp_arch::{HardwareConfig, PipelineMode, QuantConfig};
use pimcomp_core::{CompileOptions, CompileSession, CompiledModel, GaParams};
use pimcomp_exec::{mapped_outputs, Tensor};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One committed execution: full values for small outputs, an
/// FNV-digest plus a prefix for large ones — enough to localize a
/// drift without megabyte fixtures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NumericFixture {
    model: String,
    seed: u64,
    /// Per output: name, dims, element count.
    outputs: Vec<OutputSummary>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OutputSummary {
    name: String,
    dims: Vec<usize>,
    len: usize,
    /// FNV-1a over the little-endian f32 bit patterns.
    digest: String,
    /// The first elements (all of them when the tensor is small),
    /// printed via `f32::to_bits` hex so the fixture is exact.
    prefix_bits: Vec<String>,
}

const PREFIX: usize = 16;

fn digest(data: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn summarize(model: &str, seed: u64, outputs: &[(String, Tensor)]) -> NumericFixture {
    NumericFixture {
        model: model.to_string(),
        seed,
        outputs: outputs
            .iter()
            .map(|(name, t)| OutputSummary {
                name: name.clone(),
                dims: t.dims.clone(),
                len: t.len(),
                digest: digest(&t.data),
                prefix_bits: t
                    .data
                    .iter()
                    .take(PREFIX)
                    .map(|v| format!("{:08x}", v.to_bits()))
                    .collect(),
            })
            .collect(),
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn check(name: &str, fixture: &NumericFixture) {
    let actual = serde_json::to_string_pretty(fixture).expect("fixture serializes");
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual + "\n").expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden_numerics` to create it",
            path.display()
        )
    });
    assert_eq!(
        expected.trim(),
        actual.trim(),
        "executed numerics drifted from golden fixture {}; if intentional, regenerate \
         with `UPDATE_GOLDEN=1 cargo test --test golden_numerics` and commit the fixture",
        path.display()
    );
}

fn run(
    graph: &pimcomp_ir::Graph,
    hw: HardwareConfig,
    seed: u64,
    seq: Option<usize>,
) -> CompiledModel {
    let mut opts = CompileOptions::new(PipelineMode::HighThroughput).with_ga(GaParams::fast(seed));
    if let Some(s) = seq {
        opts = opts.with_seq_len(s);
    }
    CompileSession::new(hw, graph, opts)
        .expect("session opens")
        .run()
        .expect("model compiles")
}

/// The 8-bit ADC path of the same compiled model. These fixtures were
/// generated by the two-pass executor (a calibration replay of the
/// whole layout, then a second replay through the ADC), so they pin the
/// single-pass stored-partials path to it bit for bit.
fn check_q8(fixture: &str, name: &str, model: &CompiledModel) {
    let quant = QuantConfig::for_hardware(&model.hw, 8).expect("8-bit ADC config");
    let outputs = mapped_outputs(model, 7, Some(quant)).expect("quantized mapped execution");
    check(fixture, &summarize(name, 7, &outputs));
}

#[test]
fn small_numerics_match_golden() {
    let graph = pimcomp_ir::models::tiny_cnn();
    let model = run(&graph, HardwareConfig::small_test(), 7, None);
    let outputs = mapped_outputs(&model, 7, None).expect("mapped execution");
    // tiny_cnn ends in a 10-logit classifier: the fixture pins every
    // element (PREFIX covers the whole tensor).
    assert_eq!(outputs.iter().map(|(_, t)| t.len()).sum::<usize>(), 10);
    check("small_numerics_seed7", &summarize("tiny_cnn", 7, &outputs));
    check_q8("small_numerics_q8_seed7", "tiny_cnn", &model);
}

#[test]
fn tiny_bert_numerics_match_golden() {
    let graph = pimcomp_ir::models::tiny_bert();
    let model = run(&graph, HardwareConfig::puma_with_chips(1), 7, Some(64));
    let outputs = mapped_outputs(&model, 7, None).expect("mapped execution");
    check(
        "tiny_bert_numerics_seed7",
        &summarize("tiny_bert", 7, &outputs),
    );
    check_q8("tiny_bert_numerics_q8_seed7", "tiny_bert", &model);
}
