//! DNN graph intermediate representation for the PIMCOMP compilation
//! framework.
//!
//! This crate provides the *model description* the paper's front end
//! produces after parsing an ONNX file (Section IV-A): a directed acyclic
//! graph of operators with complete shape information. The PIMCOMP
//! compiler consumes node shapes and the topological relationship between
//! nodes; both are first-class here.
//!
//! # Overview
//!
//! * [`Graph`] — the DAG of [`Node`]s, each holding an [`Op`].
//! * [`GraphBuilder`] — ergonomic construction with on-the-fly shape
//!   inference.
//! * [`models`] — the five benchmark networks of the paper (vgg16,
//!   resnet18, googlenet, inception-v3, squeezenet) plus small synthetic
//!   networks used by tests.
//! * [`transform`] — graph normalization (batch-norm folding, dropout
//!   elimination, attention fusion, dead-node elimination) and
//!   sequence-length binding, run before compilation.
//!
//! # Example
//!
//! ```
//! use pimcomp_ir::{GraphBuilder, Activation};
//!
//! # fn main() -> Result<(), pimcomp_ir::IrError> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input("x", [3, 32, 32]);
//! let c = b.conv2d("conv1", x, 16, (3, 3), (1, 1), (1, 1))?;
//! let r = b.activation("relu1", c, Activation::Relu)?;
//! let p = b.max_pool("pool1", r, (2, 2), (2, 2), (0, 0))?;
//! let f = b.flatten("flat", p)?;
//! let _y = b.linear("fc", f, 10)?;
//! let graph = b.finish()?;
//! assert_eq!(graph.node_count(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod op;
mod shape_infer;
mod stats;
mod tensor;

pub mod models;
pub mod synth;
pub mod transform;

pub use builder::GraphBuilder;
pub use error::IrError;
pub use graph::{Graph, Node, NodeId};
pub use op::{
    Activation, Attention, Bmm, Conv2d, EltwiseKind, Linear, Lrn, MatMul, Op, Pad2d, Pool, PoolKind,
};
pub use stats::{GraphStats, NodeStats};
pub use tensor::{Dim, Shape};
