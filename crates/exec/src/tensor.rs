//! A minimal dense f32 tensor.

use serde::{Deserialize, Serialize};

/// A dense row-major f32 tensor. Rank-3 tensors are `[C, H, W]`
/// feature maps, rank-2 are `[rows, features]` token streams, rank-1
/// are flat feature vectors — mirroring the IR's shape conventions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Dimension extents (row-major layout; the last dimension is
    /// contiguous).
    pub dims: Vec<usize>,
    /// The elements, `dims.iter().product()` of them.
    pub data: Vec<f32>,
}

impl Tensor {
    /// A new tensor; panics only on an internal executor bug (the
    /// element count is computed from validated shapes).
    pub(crate) fn new(dims: Vec<usize>, data: Vec<f32>) -> Self {
        debug_assert_eq!(dims.iter().product::<usize>(), data.len());
        Tensor { dims, data }
    }

    /// A zero-filled tensor.
    pub(crate) fn zeros(dims: Vec<usize>) -> Self {
        let len = dims.iter().product();
        Tensor {
            dims,
            data: vec![0.0; len],
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}
