//! The reference MVM strategy: a direct f32 matrix multiply, summing
//! each output element over the full contraction length in ascending
//! index order. This is the numeric gold standard the mapped executor
//! is differentially tested against.

use crate::engine::{MvmBackend, MvmJob};
use crate::error::ExecError;

/// Computes MVM nodes as plain dense matmuls.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceBackend;

impl MvmBackend for ReferenceBackend {
    fn mvm(&mut self, job: &mut MvmJob) -> Result<Vec<f32>, ExecError> {
        let mut out = vec![0.0f32; job.width * job.windows];
        job.gemm(0..job.width, 0..job.height, &mut out, false);
        Ok(out)
    }
}
