//! The benchmark networks of the paper's evaluation (Section V-A.2):
//! the computationally intensive `vgg16` and the topologically complex
//! `resnet18`, `squeezenet`, `googlenet` and `inception_v3`, plus small
//! synthetic networks used throughout the test suites.
//!
//! All builders produce ImageNet-classification variants (1000 classes)
//! with the canonical published topologies. Networks that ship with
//! batch-norm layers (`resnet18`, `inception_v3`) include explicit
//! [`Op::BatchNorm`](crate::Op::BatchNorm) nodes; run
//! [`transform::normalize`](crate::transform::normalize) before
//! compilation, exactly as the ONNX front end of the paper folds them.

mod googlenet;
mod inception;
mod resnet;
mod small;
mod squeezenet;
mod tiny_bert;
mod vgg;

pub use googlenet::googlenet;
pub use inception::inception_v3;
pub use resnet::resnet18;
pub(crate) use resnet::{resnet34, resnet50};
pub use small::{linear_chain, tiny_cnn, tiny_mlp, two_branch};
pub use squeezenet::squeezenet;
pub use tiny_bert::tiny_bert;
pub use vgg::vgg16;

use crate::Graph;

/// Names of the five paper benchmarks, in the order of the paper's plots.
pub const PAPER_BENCHMARKS: [&str; 5] = [
    "vgg16",
    "resnet18",
    "googlenet",
    "inception_v3",
    "squeezenet",
];

/// Every canonical name [`by_name`] resolves: the paper benchmarks plus
/// the extra ResNet depths. Drivers that accept model names (the CLI,
/// the sweep engine, the benchmark harness) list this on bad input so
/// users never have to guess the spelling.
pub const ZOO: [&str; 8] = [
    "vgg16",
    "resnet18",
    "resnet34",
    "resnet50",
    "googlenet",
    "inception_v3",
    "squeezenet",
    "tiny_bert",
];

/// The small synthetic test networks, resolvable by [`test_model`].
pub const TEST_MODELS: [&str; 4] = ["tiny_cnn", "tiny_mlp", "two_branch", "linear_chain"];

/// Builds a synthetic test network by name (see [`TEST_MODELS`]).
/// Returns `None` for unknown names.
pub fn test_model(name: &str) -> Option<Graph> {
    match name {
        "tiny_cnn" => Some(tiny_cnn()),
        "tiny_mlp" => Some(tiny_mlp()),
        "two_branch" => Some(two_branch()),
        "linear_chain" => Some(linear_chain(4)),
        _ => None,
    }
}

/// Builds a paper benchmark by name.
///
/// Accepted names are the entries of [`PAPER_BENCHMARKS`] (aliases with
/// `-` instead of `_` also work). Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Graph> {
    match name.replace('-', "_").as_str() {
        "vgg16" => Some(vgg16()),
        "resnet18" => Some(resnet18()),
        "resnet34" => Some(resnet34()),
        "resnet50" => Some(resnet50()),
        "googlenet" => Some(googlenet()),
        "inception_v3" | "inceptionv3" => Some(inception_v3()),
        "squeezenet" => Some(squeezenet()),
        "tiny_bert" => Some(tiny_bert()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::normalize;
    use crate::GraphStats;

    fn paper_benchmarks() -> Vec<Graph> {
        let build = |n: &&str| by_name(n).expect("all benchmark names resolve");
        PAPER_BENCHMARKS.iter().map(build).collect()
    }

    #[test]
    fn all_benchmarks_build_and_validate() {
        for g in paper_benchmarks() {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn by_name_accepts_aliases() {
        assert!(by_name("inception-v3").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_listed_name_resolves() {
        for name in ZOO {
            assert!(by_name(name).is_some(), "zoo name `{name}` must resolve");
        }
        for name in TEST_MODELS {
            let g = test_model(name).unwrap_or_else(|| panic!("test model `{name}`"));
            g.validate().unwrap();
        }
        assert!(test_model("vgg16").is_none());
    }

    #[test]
    fn normalized_benchmarks_have_no_bn_or_dropout() {
        for g in paper_benchmarks() {
            let n = normalize(&g).unwrap();
            for node in n.nodes() {
                assert!(
                    !matches!(node.op, crate::Op::BatchNorm | crate::Op::Dropout),
                    "{}: {} survived normalize",
                    n.name(),
                    node.name
                );
            }
        }
    }

    #[test]
    fn benchmark_parameter_counts_are_canonical() {
        // Published parameter counts (conv + fc weights, no bias):
        // checked against the canonical torchvision models to within the
        // bias contribution we intentionally exclude from weight_count.
        let expect = [
            ("vgg16", 138_000_000usize, 139_000_000usize),
            ("resnet18", 11_000_000, 12_000_000),
            ("googlenet", 5_900_000, 7_000_000),
            ("inception_v3", 21_000_000, 24_000_000),
            ("squeezenet", 1_200_000, 1_300_000),
        ];
        for (name, lo, hi) in expect {
            let g = by_name(name).unwrap();
            let s = GraphStats::of(&g);
            assert!(
                s.params >= lo && s.params <= hi,
                "{name}: {} params outside [{lo}, {hi}]",
                s.params
            );
        }
    }

    #[test]
    fn benchmark_mac_counts_are_canonical() {
        // Published MAC counts per 224/299 inference (±15% tolerance —
        // different sources count slightly differently).
        let expect = [
            ("vgg16", 15.5e9),
            ("resnet18", 1.8e9),
            ("googlenet", 1.5e9),
            ("inception_v3", 5.7e9),
            ("squeezenet", 0.83e9),
        ];
        for (name, macs) in expect {
            let g = by_name(name).unwrap();
            let s = GraphStats::of(&g);
            let ratio = s.macs as f64 / macs;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{name}: {} MACs vs expected {macs} (ratio {ratio:.3})",
                s.macs
            );
        }
    }
}
