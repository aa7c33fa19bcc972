//! The flat [`ReservationTable`] against a naive map-based reference
//! model: random sequences of placements, bus reservations and slot
//! queries must agree call for call, and a clone taken midway must evolve
//! independently of its source.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vcsched_arch::{ClusterId, MachineConfig, OpClass, ReservationTable};

/// Usage counters keyed by cycle, straight from the machine's rules.
struct Model {
    machine: MachineConfig,
    fu: BTreeMap<(u32, u8, usize), u32>,
    issued: BTreeMap<(u32, u8), u32>,
    branches: BTreeMap<u32, u32>,
    bus: BTreeMap<u32, u32>,
}

impl Model {
    fn new(machine: &MachineConfig) -> Model {
        Model {
            machine: machine.clone(),
            fu: BTreeMap::new(),
            issued: BTreeMap::new(),
            branches: BTreeMap::new(),
            bus: BTreeMap::new(),
        }
    }

    fn can_place(&self, cycle: u32, cluster: ClusterId, class: OpClass) -> bool {
        let fu = class.fu_index().expect("FU class");
        let fu_used = self.fu.get(&(cycle, cluster.0, fu)).copied().unwrap_or(0);
        if fu_used as usize >= self.machine.cluster_capacity(cluster, class) {
            return false;
        }
        if let Some(w) = self.machine.issue_per_cluster() {
            let issued = self.issued.get(&(cycle, cluster.0)).copied().unwrap_or(0);
            if issued as usize >= w {
                return false;
            }
        }
        let branches = self.branches.get(&cycle).copied().unwrap_or(0);
        class != OpClass::Branch || (branches as usize) < self.machine.branches_per_cycle()
    }

    fn try_place(&mut self, cycle: u32, cluster: ClusterId, class: OpClass) -> bool {
        if !self.can_place(cycle, cluster, class) {
            return false;
        }
        let fu = class.fu_index().expect("FU class");
        *self.fu.entry((cycle, cluster.0, fu)).or_default() += 1;
        *self.issued.entry((cycle, cluster.0)).or_default() += 1;
        if class == OpClass::Branch {
            *self.branches.entry(cycle).or_default() += 1;
        }
        true
    }

    fn can_use_bus(&self, cycle: u32) -> bool {
        (cycle..cycle + self.machine.bus_occupancy()).all(|c| {
            let used = self.bus.get(&c).copied().unwrap_or(0);
            (used as usize) < self.machine.bus_count()
        })
    }

    fn try_reserve_bus(&mut self, cycle: u32) -> bool {
        if !self.can_use_bus(cycle) {
            return false;
        }
        for c in cycle..cycle + self.machine.bus_occupancy() {
            *self.bus.entry(c).or_default() += 1;
        }
        true
    }

    fn earliest_slot(&self, from: u32, cluster: ClusterId, class: OpClass) -> u32 {
        (from..)
            .find(|&c| self.can_place(c, cluster, class))
            .expect("free cycle")
    }

    fn earliest_bus_slot(&self, from: u32) -> u32 {
        (from..).find(|&c| self.can_use_bus(c)).expect("free cycle")
    }
}

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::paper_2c_8w(),
        MachineConfig::paper_4c_16w_lat1(),
        // Issue-width caps: the paper's examples size the cap to the
        // units; the third machine has more units than issue slots, so
        // the cap itself binds.
        MachineConfig::paper_example_1c(),
        MachineConfig::paper_example_2c(),
        MachineConfig::builder()
            .clusters(2)
            .fu_counts(2, 1, 1, 1)
            .issue_per_cluster(2)
            .build()
            .expect("valid machine"),
        MachineConfig::hetero_2c(),
        // Non-pipelined buses: the paper's 2-cycle bus, and two 3-cycle
        // buses so occupancy windows overlap.
        MachineConfig::paper_4c_16w_lat2(),
        MachineConfig::builder()
            .clusters(3)
            .buses(2)
            .bus_latency(3)
            .bus_pipelined(false)
            .build()
            .expect("valid machine"),
    ]
}

/// Runs `ops` against both implementations, comparing every answer. An
/// op is `(kind, cycle, cluster, class)`; clusters wrap to the machine.
fn check(machine: &MachineConfig, ops: &[(u8, u32, u8, usize)]) -> Result<(), String> {
    let k = machine.cluster_count() as u8;
    let mut table = ReservationTable::new(machine);
    let mut model = Model::new(machine);
    let mut snapshot: Option<(ReservationTable, Vec<(u32, u8, usize)>)> = None;
    for (i, &(kind, cycle, cluster, class)) in ops.iter().enumerate() {
        let cluster = ClusterId(cluster % k);
        let class = OpClass::FU_CLASSES[class];
        match kind {
            0 | 1 => prop_assert_eq!(
                table.try_place(cycle, cluster, class),
                model.try_place(cycle, cluster, class),
                "{} op {i}: try_place({cycle}, {cluster:?}, {class:?})",
                machine.name()
            ),
            2 => prop_assert_eq!(
                table.try_reserve_bus(cycle),
                model.try_reserve_bus(cycle),
                "{} op {i}: try_reserve_bus({cycle})",
                machine.name()
            ),
            // A class the cluster lacks never finds a slot; skip the query.
            3 if machine.cluster_capacity(cluster, class) == 0 => {}
            3 => prop_assert_eq!(
                table.earliest_slot(cycle, cluster, class),
                model.earliest_slot(cycle, cluster, class),
                "{} op {i}: earliest_slot({cycle}, {cluster:?}, {class:?})",
                machine.name()
            ),
            4 => prop_assert_eq!(
                table.earliest_bus_slot(cycle),
                model.earliest_bus_slot(cycle),
                "{} op {i}: earliest_bus_slot({cycle})",
                machine.name()
            ),
            _ => {
                if snapshot.is_none() {
                    snapshot = Some((table.clone(), Vec::new()));
                }
            }
        }
        prop_assert_eq!(
            table.can_place(cycle, cluster, class),
            model.can_place(cycle, cluster, class)
        );
        prop_assert_eq!(table.can_use_bus(cycle), model.can_use_bus(cycle));
        if let Some((_, probes)) = snapshot.as_mut() {
            probes.push((cycle, cluster.0, class.fu_index().expect("FU class")));
        }
    }
    // The clone froze the table at the snapshot point: replaying the same
    // mutations on a fresh model up to that point must agree with it, and
    // the source's later mutations must not have leaked into it.
    if let Some((frozen, _)) = snapshot {
        let cut = ops.iter().position(|op| op.0 >= 5).expect("snapshot op");
        let mut replay = Model::new(machine);
        for &(kind, cycle, cluster, class) in &ops[..cut] {
            let cluster = ClusterId(cluster % k);
            match kind {
                0 | 1 => {
                    replay.try_place(cycle, cluster, OpClass::FU_CLASSES[class]);
                }
                2 => {
                    replay.try_reserve_bus(cycle);
                }
                _ => {}
            }
        }
        for cycle in 0..48 {
            prop_assert_eq!(frozen.can_use_bus(cycle), replay.can_use_bus(cycle));
            for c in 0..k {
                for class in OpClass::FU_CLASSES {
                    prop_assert_eq!(
                        frozen.can_place(cycle, ClusterId(c), class),
                        replay.can_place(cycle, ClusterId(c), class),
                        "{} clone diverged at cycle {cycle}",
                        machine.name()
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_table_matches_map_model(
        machine in 0usize..8,
        ops in collection::vec((0u8..6, 0u32..24, 0u8..4, 0usize..4), 1..120),
    ) {
        check(&machines()[machine], &ops)?;
    }
}

#[test]
fn every_machine_is_covered() {
    // The property draws a machine per case; pin that a fixed dense
    // sequence also runs on each one.
    let ops: Vec<(u8, u32, u8, usize)> = (0..200u32)
        .map(|i| ((i % 6) as u8, (i * 7) % 13, (i % 5) as u8, (i % 4) as usize))
        .collect();
    for machine in machines() {
        check(&machine, &ops).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn clone_is_independent_of_source() {
    let m = MachineConfig::paper_2c_8w();
    let mut a = ReservationTable::new(&m);
    assert!(a.try_place(2, ClusterId(0), OpClass::Int));
    let mut b = a.clone();
    assert!(b.try_place(2, ClusterId(1), OpClass::Int));
    assert!(b.try_reserve_bus(5));
    assert!(a.can_place(2, ClusterId(1), OpClass::Int));
    assert!(a.can_use_bus(5));
    assert_eq!(a.horizon(), 3);
    assert_eq!(b.horizon(), 6);
}
