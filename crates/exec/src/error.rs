//! Structured functional-execution errors.
//!
//! The executor runs graphs that may come from disk or the network, but
//! every [`Graph`](pimcomp_ir::Graph) is validated where it is built or
//! deserialized: structure, recorded shapes and extents. What a valid
//! graph can still hold that the executor cannot run — a symbolic
//! dimension, tiles it cannot allocate — surfaces as an [`ExecError`].
//! A compiled model's partitioning and mapping are derived from its own
//! graph (a loaded artifact re-derives them), so they are trusted.

use std::fmt;

/// Errors produced by the functional executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The graph still carries a symbolic `seq` dimension; bind a
    /// sequence length before executing.
    SymbolicShape {
        /// Name of the graph.
        model: String,
    },
    /// A node's recorded output shape (or an input's shape) disagrees
    /// with what its operator computes — the tensor cannot be produced.
    ShapeMismatch {
        /// Node name.
        node: String,
        /// Description of the disagreement.
        detail: String,
    },
    /// The executor met an operator it has no kernel for.
    UnsupportedOp {
        /// Node name.
        node: String,
        /// Operator mnemonic.
        op: String,
    },
    /// An MVM node of the executed graph has no partition entry in the
    /// compiled model (the graph is not the model's own).
    MissingPartition {
        /// Node name.
        node: String,
    },
    /// The quantization configuration is invalid.
    InvalidQuant {
        /// Underlying description.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::SymbolicShape { model } => write!(
                f,
                "model `{model}` has a symbolic sequence dimension; bind it before executing"
            ),
            ExecError::ShapeMismatch { node, detail } => {
                write!(f, "shape mismatch at node `{node}`: {detail}")
            }
            ExecError::UnsupportedOp { node, op } => {
                write!(
                    f,
                    "no functional kernel for operator `{op}` (node `{node}`)"
                )
            }
            ExecError::MissingPartition { node } => {
                write!(f, "MVM node `{node}` has no partition entry")
            }
            ExecError::InvalidQuant { detail } => {
                write!(f, "invalid quantization configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecError {}
