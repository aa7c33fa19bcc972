//! Per-cycle resource reservation.
//!
//! Both the CARS baseline (which schedules cycle-by-cycle) and the schedule
//! validator need to account for issue slots and bus slots. The
//! [`ReservationTable`] grows on demand and enforces:
//!
//! * per-cluster, per-class functional-unit capacity,
//! * the optional per-cluster total issue width,
//! * the machine-wide branch cap,
//! * bus capacity, honouring non-pipelined bus occupancy.

use crate::{ClusterId, MachineConfig, OpClass};

/// Where an operation was placed by [`ReservationTable::try_place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Issue cycle.
    pub cycle: u32,
    /// Executing cluster.
    pub cluster: ClusterId,
}

/// Tracks resource usage per cycle for one machine.
///
/// The whole table is one flat byte vector: a header with each cluster's
/// functional-unit counts, then one fixed-stride row per cycle. A row
/// holds, per cluster, the four FU-class counters and the issued-op count,
/// followed by the cycle's branch and bus counters. Rows grow on demand
/// and a cycle past the last row reads as empty, so cloning a table is a
/// single `memcpy`.
///
/// # Example
///
/// ```
/// use vcsched_arch::{ClusterId, MachineConfig, OpClass, ReservationTable};
///
/// let m = MachineConfig::paper_2c_8w();
/// let mut rt = ReservationTable::new(&m);
/// assert!(rt.try_place(0, ClusterId(0), OpClass::Int));
/// // Only one int unit per cluster: the second int op must move.
/// assert!(!rt.try_place(0, ClusterId(0), OpClass::Int));
/// assert!(rt.try_place(0, ClusterId(1), OpClass::Int));
/// ```
#[derive(Debug, Clone)]
pub struct ReservationTable {
    /// `FU_SLOTS` capacities per cluster, then the cycle rows.
    cells: Vec<u8>,
    clusters: usize,
    issue_cap: Option<u8>,
    branch_cap: u8,
    bus_cap: u8,
    bus_occupancy: u32,
}

/// Bytes per cluster in the header (FU capacities) and in a row (FU
/// counters plus the issued-op count at [`ISSUED`]).
const FU_SLOTS: usize = 4;
const CLUSTER_STRIDE: usize = FU_SLOTS + 1;
const ISSUED: usize = FU_SLOTS;

impl ReservationTable {
    /// Creates an empty table for `config`.
    pub fn new(config: &MachineConfig) -> Self {
        let clusters = config.cluster_count();
        let mut cells = Vec::with_capacity(clusters * FU_SLOTS);
        for c in 0..clusters {
            for class in OpClass::FU_CLASSES {
                cells.push(config.cluster_capacity(ClusterId(c as u8), class) as u8);
            }
        }
        ReservationTable {
            cells,
            clusters,
            issue_cap: config.issue_per_cluster().map(|w| w as u8),
            branch_cap: config.branches_per_cycle() as u8,
            bus_cap: config.bus_count() as u8,
            bus_occupancy: config.bus_occupancy(),
        }
    }

    fn header(&self) -> usize {
        self.clusters * FU_SLOTS
    }

    fn stride(&self) -> usize {
        self.clusters * CLUSTER_STRIDE + 2
    }

    /// Byte offset of `cycle`'s row, which may lie past the end (an empty
    /// row).
    fn row_at(&self, cycle: u32) -> usize {
        self.header() + cycle as usize * self.stride()
    }

    /// Counter at `offset` within `cycle`'s row; rows not yet grown read 0.
    fn used(&self, cycle: u32, offset: usize) -> u8 {
        self.cells
            .get(self.row_at(cycle) + offset)
            .copied()
            .unwrap_or(0)
    }

    /// Increments the counter at `offset` within `cycle`'s row, growing the
    /// table to reach it.
    fn bump(&mut self, cycle: u32, offset: usize) {
        let row = self.row_at(cycle);
        let end = row + self.stride();
        if self.cells.len() < end {
            self.cells.resize(end, 0);
        }
        self.cells[row + offset] += 1;
    }

    fn branch_offset(&self) -> usize {
        self.clusters * CLUSTER_STRIDE
    }

    fn bus_offset(&self) -> usize {
        self.clusters * CLUSTER_STRIDE + 1
    }

    /// Returns `true` if an operation of `class` can issue on `cluster` at
    /// `cycle` without violating any capacity.
    ///
    /// # Panics
    ///
    /// Panics if `class` is [`OpClass::Copy`] (use [`Self::can_use_bus`]) or
    /// the cluster index is out of range.
    pub fn can_place(&self, cycle: u32, cluster: ClusterId, class: OpClass) -> bool {
        let fu = class
            .fu_index()
            .expect("copies are placed with try_reserve_bus");
        let cl = cluster.0 as usize;
        assert!(cl < self.clusters, "cluster out of range");
        let base = cl * CLUSTER_STRIDE;
        if self.used(cycle, base + fu) >= self.cells[cl * FU_SLOTS + fu] {
            return false;
        }
        if let Some(w) = self.issue_cap {
            if self.used(cycle, base + ISSUED) >= w {
                return false;
            }
        }
        if class == OpClass::Branch && self.used(cycle, self.branch_offset()) >= self.branch_cap {
            return false;
        }
        true
    }

    /// Attempts to reserve an issue slot; returns `true` on success.
    pub fn try_place(&mut self, cycle: u32, cluster: ClusterId, class: OpClass) -> bool {
        if !self.can_place(cycle, cluster, class) {
            return false;
        }
        let fu = class.fu_index().expect("checked in can_place");
        let base = cluster.0 as usize * CLUSTER_STRIDE;
        self.bump(cycle, base + fu);
        self.bump(cycle, base + ISSUED);
        if class == OpClass::Branch {
            self.bump(cycle, self.branch_offset());
        }
        true
    }

    /// Returns `true` if a bus transfer starting at `cycle` fits: the bus
    /// must be free for [`MachineConfig::bus_occupancy`] consecutive cycles.
    pub fn can_use_bus(&self, cycle: u32) -> bool {
        let bus = self.bus_offset();
        (cycle..cycle + self.bus_occupancy).all(|c| self.used(c, bus) < self.bus_cap)
    }

    /// Attempts to reserve a bus transfer starting at `cycle`.
    pub fn try_reserve_bus(&mut self, cycle: u32) -> bool {
        if !self.can_use_bus(cycle) {
            return false;
        }
        let bus = self.bus_offset();
        for c in cycle..cycle + self.bus_occupancy {
            self.bump(c, bus);
        }
        true
    }

    /// Undoes a successful [`Self::try_reserve_bus`] at `cycle`, so a
    /// list scheduler can trial copies on the live table instead of a
    /// clone.
    ///
    /// # Panics
    ///
    /// Panics if no transfer starting at `cycle` is reserved.
    pub fn release_bus(&mut self, cycle: u32) {
        let bus = self.bus_offset();
        for c in cycle..cycle + self.bus_occupancy {
            let at = self.row_at(c) + bus;
            let used = self
                .cells
                .get_mut(at)
                .filter(|used| **used > 0)
                .expect("release_bus without a matching reservation");
            *used -= 1;
        }
    }

    /// First cycle `>= from` where `class` can issue on `cluster`.
    ///
    /// Always succeeds eventually because future rows are empty.
    pub fn earliest_slot(&self, from: u32, cluster: ClusterId, class: OpClass) -> u32 {
        (from..)
            .find(|&c| self.can_place(c, cluster, class))
            .expect("an empty future cycle always exists")
    }

    /// First cycle `>= from` where a bus transfer can start.
    pub fn earliest_bus_slot(&self, from: u32) -> u32 {
        (from..)
            .find(|&c| self.can_use_bus(c))
            .expect("an empty future cycle always exists")
    }

    /// Number of cycle rows holding a reservation (one past the latest
    /// reserved cycle).
    pub fn horizon(&self) -> usize {
        (self.cells.len() - self.header()) / self.stride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_capacity_enforced() {
        let m = MachineConfig::paper_2c_8w();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_place(3, ClusterId(0), OpClass::Mem));
        assert!(!rt.try_place(3, ClusterId(0), OpClass::Mem));
        assert!(rt.try_place(3, ClusterId(1), OpClass::Mem));
        assert!(rt.try_place(4, ClusterId(0), OpClass::Mem));
    }

    #[test]
    fn branch_cap_is_machine_wide() {
        let m = MachineConfig::paper_4c_16w_lat1();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_place(0, ClusterId(0), OpClass::Branch));
        // Different cluster, but the global cap is 1 branch/cycle.
        assert!(!rt.try_place(0, ClusterId(1), OpClass::Branch));
        assert!(rt.try_place(1, ClusterId(1), OpClass::Branch));
    }

    #[test]
    fn issue_width_cap() {
        // Example machine: cluster issues ≤ 2 ops (1 int-ish + 1 branch).
        let m = MachineConfig::paper_example_1c();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_place(0, ClusterId(0), OpClass::Int));
        assert!(rt.try_place(0, ClusterId(0), OpClass::Int));
        assert!(rt.try_place(0, ClusterId(0), OpClass::Branch));
        // Issue cap of 3 reached.
        assert!(!rt.try_place(0, ClusterId(0), OpClass::Int));
    }

    #[test]
    fn pipelined_bus_allows_back_to_back() {
        let m = MachineConfig::builder()
            .clusters(2)
            .buses(1)
            .bus_latency(2)
            .bus_pipelined(true)
            .build()
            .unwrap();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_reserve_bus(0));
        assert!(rt.try_reserve_bus(1));
    }

    #[test]
    fn unpipelined_bus_blocks_next_cycle() {
        let m = MachineConfig::paper_4c_16w_lat2();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_reserve_bus(0));
        assert!(!rt.try_reserve_bus(1), "bus busy during second cycle");
        assert!(rt.try_reserve_bus(2));
        assert_eq!(rt.earliest_bus_slot(3), 4);
    }

    #[test]
    fn release_bus_undoes_a_reservation() {
        let m = MachineConfig::paper_4c_16w_lat2();
        let mut rt = ReservationTable::new(&m);
        assert!(rt.try_reserve_bus(3));
        assert!(!rt.can_use_bus(4));
        rt.release_bus(3);
        assert!(rt.can_use_bus(3) && rt.can_use_bus(4));
        assert_eq!(rt.earliest_bus_slot(0), 0);
    }

    #[test]
    #[should_panic(expected = "without a matching reservation")]
    fn release_bus_requires_a_reservation() {
        let mut rt = ReservationTable::new(&MachineConfig::paper_2c_8w());
        rt.release_bus(0);
    }

    #[test]
    fn earliest_slot_skips_full_cycles() {
        let m = MachineConfig::paper_2c_8w();
        let mut rt = ReservationTable::new(&m);
        rt.try_place(0, ClusterId(0), OpClass::Int);
        rt.try_place(1, ClusterId(0), OpClass::Int);
        assert_eq!(rt.earliest_slot(0, ClusterId(0), OpClass::Int), 2);
        assert_eq!(rt.earliest_slot(0, ClusterId(1), OpClass::Int), 0);
    }
}
