//! Weight replication plans (paper Section IV-C).
//!
//! The storage units of a PIM accelerator are also its compute units, so
//! replicating a node's weights multiplies its MVM parallelism. A
//! [`ReplicationPlan`] records the replica count per partitioned node;
//! the genetic algorithm mutates it jointly with the core mapping.

use crate::partition::{MvmIdx, Partitioning};

/// Replica counts per partitioned node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationPlan {
    counts: Vec<usize>,
}

impl ReplicationPlan {
    /// One replica for every node (the minimum feasible plan).
    pub fn ones(partitioning: &Partitioning) -> Self {
        ReplicationPlan {
            counts: vec![1; partitioning.len()],
        }
    }

    /// Builds a plan from explicit counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` length differs from the partitioning size or
    /// any count is zero.
    pub(crate) fn from_counts(partitioning: &Partitioning, counts: Vec<usize>) -> Self {
        assert_eq!(
            counts.len(),
            partitioning.len(),
            "one count per partitioned node"
        );
        assert!(counts.iter().all(|&c| c > 0), "replica counts are >= 1");
        ReplicationPlan { counts }
    }

    /// Replica count of node `idx`.
    pub fn count(&self, idx: MvmIdx) -> usize {
        self.counts[idx]
    }

    /// All counts, indexed by [`MvmIdx`].
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Sets the replica count of node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn set_count(&mut self, idx: MvmIdx, count: usize) {
        assert!(count > 0, "replica counts are >= 1");
        self.counts[idx] = count;
    }

    /// Total crossbars the whole plan occupies.
    pub(crate) fn total_crossbars(&self, partitioning: &Partitioning) -> usize {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &r)| r * partitioning.entry(i).crossbars_per_replica())
            .sum()
    }

    /// Sliding windows each replica of node `idx` processes.
    pub fn windows_per_replica(&self, partitioning: &Partitioning, idx: MvmIdx) -> usize {
        partitioning
            .entry(idx)
            .windows_per_replica(self.counts[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimcomp_arch::HardwareConfig;
    use pimcomp_ir::GraphBuilder;

    fn setup() -> Partitioning {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", [64, 28, 28]);
        let c1 = b.conv2d("c1", x, 64, (3, 3), (1, 1), (1, 1)).unwrap();
        let _c2 = b.conv2d("c2", c1, 128, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.finish().unwrap();
        Partitioning::new(&g, &HardwareConfig::puma()).unwrap()
    }

    #[test]
    fn ones_plan_matches_min_crossbars() {
        let p = setup();
        let plan = ReplicationPlan::ones(&p);
        assert_eq!(plan.total_crossbars(&p), p.min_crossbars());
    }

    #[test]
    fn replication_scales_resources_linearly() {
        let p = setup();
        let mut plan = ReplicationPlan::ones(&p);
        let base = plan.total_crossbars(&p);
        plan.set_count(0, 3);
        let grown = plan.total_crossbars(&p);
        assert_eq!(grown - base, 2 * p.entry(0).crossbars_per_replica());
    }

    #[test]
    fn windows_shrink_with_replication() {
        let p = setup();
        let mut plan = ReplicationPlan::ones(&p);
        let w1 = plan.windows_per_replica(&p, 0);
        plan.set_count(0, 4);
        let w4 = plan.windows_per_replica(&p, 0);
        assert_eq!(w1, 28 * 28);
        assert_eq!(w4, (28 * 28usize).div_ceil(4));
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_count_rejected() {
        let p = setup();
        let mut plan = ReplicationPlan::ones(&p);
        plan.set_count(0, 0);
    }
}
