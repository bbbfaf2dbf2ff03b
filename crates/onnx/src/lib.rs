//! Minimal from-scratch ONNX interchange for the PIMCOMP framework.
//!
//! The paper's front end "loads DNN model in ONNX format" (Section
//! IV-A). This crate implements the required slice of ONNX without any
//! protobuf dependency: a hand-rolled wire-format codec (the private
//! `wire` module), the message subset inference graphs use ([`proto`]),
//! and converters to/from the PIMCOMP IR ([`import_bytes`],
//! [`export_graph`]).
//!
//! Weight *values* are never materialized — the compiler consumes only
//! shapes and topology — so exported models carry initializer dims with
//! empty payloads, and imported models may come from any exporter.
//!
//! # Example
//!
//! ```
//! use pimcomp_onnx::{export_graph, import_bytes};
//!
//! # fn main() -> Result<(), pimcomp_onnx::OnnxError> {
//! let graph = pimcomp_ir::models::tiny_mlp();
//! let bytes = export_graph(&graph).encode();
//! let back = import_bytes(&bytes)?;
//! assert_eq!(back.node_count(), graph.node_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod import;
pub mod proto;
mod wire;

pub use export::{export_graph, EXPORT_OPSET};
pub use import::import_bytes;

use std::fmt;

/// Every ONNX `op_type` the importer accepts, sorted alphabetically.
///
/// [`OnnxError::UnsupportedOp`] lists these so users of foreign models
/// can see at a glance what the supported inference subset is.
pub(crate) const SUPPORTED_OPS: [&str; 24] = [
    "Add",
    "Attention",
    "AveragePool",
    "BatchNormalization",
    "Concat",
    "Conv",
    "Dropout",
    "Flatten",
    "Gelu",
    "Gemm",
    "GlobalAveragePool",
    "Identity",
    "LRN",
    "LayerNormalization",
    "MatMul",
    "MaxPool",
    "Mul",
    "Pad",
    "Relu",
    "Reshape",
    "Sigmoid",
    "Softmax",
    "Sum",
    "Tanh",
];

/// ONNX interchange errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OnnxError {
    /// The wire format is invalid (truncated buffer, bad tag, …).
    Malformed {
        /// What went wrong.
        detail: String,
    },
    /// The model has no graph.
    MissingGraph,
    /// The graph uses an operator outside the supported inference
    /// subset. The display form lists every supported `op_type`, so
    /// the valid alternatives are never a guess.
    UnsupportedOp {
        /// The offending `op_type`.
        op_type: String,
        /// Name of the graph node using it.
        node: String,
    },
    /// The graph could not be converted to the IR.
    Import {
        /// What went wrong.
        detail: String,
    },
    /// Every node converted, but the assembled graph failed structural
    /// validation (cycle, missing input, dangling reference, …).
    /// Returned — never panicked — so batch importers survive one bad
    /// model.
    InvalidGraph {
        /// The underlying validation failure.
        detail: String,
    },
}

impl fmt::Display for OnnxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnnxError::Malformed { detail } => write!(f, "malformed onnx payload: {detail}"),
            OnnxError::MissingGraph => write!(f, "model contains no graph"),
            OnnxError::UnsupportedOp { op_type, node } => write!(
                f,
                "unsupported operator `{op_type}` at node `{node}`; supported operators: {}",
                SUPPORTED_OPS.join(", ")
            ),
            OnnxError::Import { detail } => write!(f, "import failed: {detail}"),
            OnnxError::InvalidGraph { detail } => {
                write!(f, "imported graph failed validation: {detail}")
            }
        }
    }
}

impl std::error::Error for OnnxError {}
