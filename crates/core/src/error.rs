use std::fmt;

/// Errors produced by the PIMCOMP compiler.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The model's minimum crossbar demand (one replica per node)
    /// exceeds the accelerator's crossbar capacity.
    InsufficientCapacity {
        /// Crossbars required for one replica of every node.
        required: usize,
        /// Crossbars available on the target.
        available: usize,
    },
    /// A single Array Group is wider than one core's PIMMU, so it cannot
    /// be kept on a single core (the paper's placement invariant).
    AgTooWide {
        /// Node whose AG does not fit.
        node: String,
        /// Crossbars one AG of this node needs.
        crossbars: usize,
        /// Crossbars per core.
        capacity: usize,
    },
    /// The graph has no convolution or fully connected node, so there is
    /// nothing to map onto the crossbars.
    NoMvmNodes,
    /// A mapping invariant was violated: by the genetic algorithm's
    /// state (an internal bug), or by an AG placement handed to
    /// [`CoreMapping::from_instances`](crate::CoreMapping::from_instances)
    /// — e.g. one loaded from a tampered artifact.
    MappingInvariant {
        /// Description of the violated invariant.
        detail: String,
    },
    /// The hardware configuration failed validation.
    InvalidHardware {
        /// Underlying description.
        detail: String,
    },
    /// The input graph failed validation.
    InvalidGraph {
        /// Underlying description.
        detail: String,
    },
    /// A `weight_reload` crossbar budget is too small to hold even the
    /// widest single Array Group, so no epoch schedule exists (an AG is
    /// the atomic placement unit and cannot be split further).
    ReloadBudgetTooSmall {
        /// The requested crossbar budget.
        budget: usize,
        /// Crossbars the widest single AG needs.
        min_ag: usize,
    },
    /// The graph carries a symbolic sequence (`seq`) dimension but no
    /// sequence length was supplied, so concrete shapes — and with them
    /// windows, crossbar demand and schedules — cannot be computed.
    UnboundSeqLen {
        /// Name of the symbolic graph.
        model: String,
    },
    /// The [`CompileOptions`](crate::CompileOptions) are malformed or
    /// internally inconsistent (zero batch, empty GA population, an
    /// option that does not apply to the selected pipeline mode, ...).
    /// Raised at session creation, before any stage runs.
    InvalidOptions {
        /// Underlying description.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InsufficientCapacity {
                required,
                available,
            } => write!(
                f,
                "model needs at least {required} crossbars but target has {available} \
                 (enable `weight_reload` mode to time-multiplex the crossbars, or use \
                 `hardware: \"auto\"` to size the chip up)"
            ),
            CompileError::AgTooWide {
                node,
                crossbars,
                capacity,
            } => write!(
                f,
                "one array group of node `{node}` needs {crossbars} crossbars \
                 but a core only has {capacity}"
            ),
            CompileError::NoMvmNodes => {
                write!(f, "graph contains no convolution or fully connected node")
            }
            CompileError::MappingInvariant { detail } => {
                write!(f, "mapping invariant violated: {detail}")
            }
            CompileError::InvalidHardware { detail } => {
                write!(f, "invalid hardware configuration: {detail}")
            }
            CompileError::ReloadBudgetTooSmall { budget, min_ag } => write!(
                f,
                "weight_reload budget of {budget} crossbars cannot hold the widest \
                 array group, which needs {min_ag}"
            ),
            CompileError::UnboundSeqLen { model } => write!(
                f,
                "model `{model}` has a symbolic sequence dimension; bind it with \
                 `--seq-len N` (CLI) or `CompileOptions::with_seq_len` (API)"
            ),
            CompileError::InvalidGraph { detail } => write!(f, "invalid graph: {detail}"),
            CompileError::InvalidOptions { detail } => {
                write!(f, "invalid compile options: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {}
