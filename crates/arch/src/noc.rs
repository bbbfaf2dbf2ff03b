//! 2-D mesh network-on-chip timing/energy model.
//!
//! The paper instantiates core interconnect as a NoC (Section V-A.1).
//! Cores are arranged in a near-square mesh per chip; inter-chip
//! transfers cross the Hyper Transport link. Transfer cost =
//! per-hop router latency × hops + serialization at link bandwidth,
//! the usual wormhole first-flit + body model.

use crate::{CoreConnection, HardwareConfig, RouterModel};
use serde::{Deserialize, Serialize};

/// Mesh geometry and transfer cost model for a given hardware config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocModel {
    cols: usize,
    rows: usize,
    cores_per_chip: usize,
    hop_latency: u64,
    link_bw: f64,
    connection: CoreConnection,
    router: RouterModel,
    /// Extra cycles for crossing the off-chip link once.
    chip_crossing_latency: u64,
}

impl NocModel {
    /// Builds the mesh model for `hw` (per-chip mesh of
    /// `cores_per_chip` nodes, as square as possible).
    pub fn new(hw: &HardwareConfig) -> Self {
        let cols = (hw.cores_per_chip as f64).sqrt().ceil() as usize;
        let rows = hw.cores_per_chip.div_ceil(cols);
        NocModel {
            cols,
            rows,
            cores_per_chip: hw.cores_per_chip,
            hop_latency: hw.noc_hop_latency,
            link_bw: hw.noc_link_bw,
            connection: hw.connection,
            router: RouterModel::calibrated(),
            chip_crossing_latency: 100,
        }
    }

    /// `(chip, x, y)` coordinates of a global core index.
    pub(crate) fn coords(&self, core: usize) -> (usize, usize, usize) {
        let chip = core / self.cores_per_chip;
        let local = core % self.cores_per_chip;
        (chip, local % self.cols, local / self.cols)
    }

    /// Router hops between two cores (Manhattan distance in-mesh; cores
    /// on different chips additionally pay each mesh's path to its edge
    /// port, accounted as the two in-chip distances plus one crossing).
    pub(crate) fn hops(&self, from: usize, to: usize) -> usize {
        if from == to {
            return 0;
        }
        let (cf, xf, yf) = self.coords(from);
        let (ct, xt, yt) = self.coords(to);
        if cf == ct {
            xf.abs_diff(xt) + yf.abs_diff(yt)
        } else {
            // To the edge (x=0) of the source mesh, across, then into
            // the destination mesh from its edge.
            (xf + yf) + 1 + (xt + yt)
        }
    }

    /// `true` when the two cores sit on different chips.
    pub(crate) fn crosses_chips(&self, from: usize, to: usize) -> bool {
        self.coords(from).0 != self.coords(to).0
    }

    /// Cycles for `bytes` to travel from core `from` to core `to`:
    /// head-flit routing latency plus body serialization, saturating at
    /// `u64::MAX` (a bandwidth near zero validates).
    pub fn transfer_cycles(&self, from: usize, to: usize, bytes: usize) -> u64 {
        if from == to {
            return 0;
        }
        // `as` saturates: an infinite quotient is `u64::MAX`.
        let serialization = (bytes as f64 / self.link_bw).ceil() as u64;
        let hop = |hops: u64| hops.saturating_mul(self.hop_latency);
        match self.connection {
            CoreConnection::Mesh => {
                let t = hop(self.hops(from, to) as u64).saturating_add(serialization);
                if self.crosses_chips(from, to) {
                    t.saturating_add(self.chip_crossing_latency)
                } else {
                    t
                }
            }
            CoreConnection::Bus => {
                // Uniform two-hop cost; the simulator serializes bus use.
                hop(2).saturating_add(serialization)
            }
            CoreConnection::GlobalMemoryOnly => {
                // Store + load through global memory: double move.
                serialization.saturating_mul(2).saturating_add(hop(2))
            }
        }
    }

    /// Energy in pJ for the same transfer.
    pub fn transfer_energy_pj(&self, from: usize, to: usize, bytes: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let hops = match self.connection {
            CoreConnection::Mesh => self.hops(from, to),
            CoreConnection::Bus | CoreConnection::GlobalMemoryOnly => 2,
        };
        self.router.transfer_energy_pj(bytes, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> NocModel {
        NocModel::new(&HardwareConfig::puma())
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = mesh();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 1); // (0,0)->(1,0)
        assert_eq!(m.hops(0, 7), 2); // (0,0)->(1,1)
        assert_eq!(m.hops(0, 35), 10); // (0,0)->(5,5)
                                       // Symmetry.
        assert_eq!(m.hops(3, 20), m.hops(20, 3));
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let m = mesh();
        let short = m.transfer_cycles(0, 1, 8);
        let long = m.transfer_cycles(0, 1, 8000);
        assert!(long > short);
        assert_eq!(m.transfer_cycles(5, 5, 1_000_000), 0);
    }

    #[test]
    fn cross_chip_transfers_pay_the_crossing() {
        let hw = HardwareConfig::puma_with_chips(2);
        let m = NocModel::new(&hw);
        assert!(m.crosses_chips(0, 36));
        assert!(!m.crosses_chips(0, 35));
        assert!(m.transfer_cycles(0, 36, 64) > m.transfer_cycles(0, 35, 64));
    }

    #[test]
    fn near_zero_bandwidth_saturates_instead_of_wrapping() {
        for connection in [
            CoreConnection::Mesh,
            CoreConnection::Bus,
            CoreConnection::GlobalMemoryOnly,
        ] {
            let mut hw = HardwareConfig::puma_with_chips(2);
            hw.connection = connection;
            hw.noc_link_bw = 1e-300;
            hw.validate().unwrap();
            let m = NocModel::new(&hw);
            assert_eq!(m.transfer_cycles(0, 36, 64), u64::MAX, "{connection:?}");
            hw.noc_link_bw = 8.0;
            hw.noc_hop_latency = u64::MAX;
            let m = NocModel::new(&hw);
            assert_eq!(m.transfer_cycles(0, 36, 64), u64::MAX, "{connection:?}");
        }
    }

    #[test]
    fn bus_cost_is_distance_independent() {
        let mut hw = HardwareConfig::puma();
        hw.connection = CoreConnection::Bus;
        let m = NocModel::new(&hw);
        assert_eq!(m.transfer_cycles(0, 1, 64), m.transfer_cycles(0, 35, 64));
    }

    #[test]
    fn energy_zero_for_self_transfer() {
        let m = mesh();
        assert_eq!(m.transfer_energy_pj(4, 4, 100), 0.0);
        assert!(m.transfer_energy_pj(0, 35, 100) > m.transfer_energy_pj(0, 1, 100));
    }
}
