//! CARS: the baseline scheduler the paper compares against.
//!
//! CARS (Kailas, Ebcioglu, Agrawala — "CARS: A New Code Generation
//! Framework for Clustered ILP Processors", HPCA 2001) performs instruction
//! scheduling and cluster assignment in a *single phase*: a cycle-driven
//! list scheduler that, for each ready instruction, picks the cluster where
//! it can issue earliest, inserting inter-cluster copies on the fly.
//!
//! The paper (§6.1) uses CARS both as the baseline of every experiment and
//! as the fallback for superblocks where the virtual-cluster scheduler
//! exceeds its compile-time threshold; this crate plays both roles.
//!
//! # Example
//!
//! ```
//! use vcsched_arch::{MachineConfig, OpClass};
//! use vcsched_cars::CarsScheduler;
//! use vcsched_ir::SuperblockBuilder;
//!
//! # fn main() -> Result<(), vcsched_ir::BuildError> {
//! let mut b = SuperblockBuilder::new("demo");
//! let i = b.inst(OpClass::Int, 1);
//! let x = b.exit(1, 1.0);
//! b.data_dep(i, x);
//! let sb = b.build()?;
//! let out = CarsScheduler::new(MachineConfig::paper_2c_8w()).schedule(&sb);
//! assert_eq!(out.schedule.cycle(x), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use vcsched_arch::{ClusterId, MachineConfig, ReservationTable};
use vcsched_ir::{CopyOp, DepGraph, DepKind, ReadyList, Schedule, Superblock};

/// Result of a CARS run. CARS always produces a schedule: list scheduling
/// cannot fail, it only produces longer schedules.
#[derive(Debug, Clone)]
pub struct CarsOutcome {
    /// The schedule.
    pub schedule: Schedule,
    /// Achieved average weighted completion time.
    pub awct: f64,
}

/// The CARS baseline scheduler.
#[derive(Debug, Clone)]
pub struct CarsScheduler {
    machine: MachineConfig,
}

impl CarsScheduler {
    /// A scheduler for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        CarsScheduler { machine }
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Schedules `sb`, distributing live-ins round-robin over clusters.
    pub fn schedule(&self, sb: &Superblock) -> CarsOutcome {
        let k = self.machine.cluster_count();
        let homes: Vec<ClusterId> = sb
            .live_ins()
            .enumerate()
            .map(|(i, _)| ClusterId((i % k) as u8))
            .collect();
        self.schedule_with_live_ins(sb, &homes)
    }

    /// Schedules `sb` with an explicit live-in placement — the same
    /// assignment handed to the virtual-cluster scheduler for a fair
    /// comparison (§6.1).
    ///
    /// Each step serves the highest-priority ready instruction and tries
    /// every cluster, trialling the copies it would need on the live
    /// reservation table and releasing them afterwards.
    pub fn schedule_with_live_ins(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
    ) -> CarsOutcome {
        let n = sb.len();
        let k = self.machine.cluster_count();
        let bus = self.machine.bus_latency() as i64;
        let dg = DepGraph::new(sb);
        let mut ready = ReadyList::new(sb, &dg);

        let mut rt = ReservationTable::new(&self.machine);
        let mut cycles: Vec<Option<i64>> = vec![None; n];
        let mut clusters: Vec<ClusterId> = vec![ClusterId(0); n];
        // avail[v * k + c]: the cycle from which cluster c can read v.
        let mut avail: Vec<Option<i64>> = vec![None; n * k];
        let mut copies: Vec<CopyOp> = Vec::new();
        let mut trial: Vec<CopyOp> = Vec::new();
        let mut best_copies: Vec<CopyOp> = Vec::new();
        let mut load: Vec<u64> = vec![0; k];

        // Live-ins sit in their home register file from cycle 0.
        for (order, li) in sb.live_ins().enumerate() {
            let home = live_in_homes
                .get(order)
                .copied()
                .unwrap_or(ClusterId((order % k) as u8));
            let i = li.index();
            cycles[i] = Some(0);
            clusters[i] = ClusterId(home.0 % k as u8);
            avail[i * k + clusters[i].0 as usize] = Some(0);
        }

        while let Some(id) = ready.pop() {
            let inst = id.index();
            let class = sb.insts()[inst].class();

            // For each cluster, the earliest issue cycle and the copies the
            // choice would need.
            let mut best: Option<(i64, usize, u64, usize)> = None;
            for c in 0..k {
                // Heterogeneous machines: skip clusters lacking the unit.
                if self.machine.cluster_capacity(ClusterId(c as u8), class) == 0 {
                    continue;
                }
                trial.clear();
                let mut earliest: i64 = 0;
                let mut feasible = true;
                for d in dg.preds(id) {
                    let p = d.from.index();
                    let pc = cycles[p].expect("predecessor scheduled");
                    let lat = d.latency as i64;
                    match d.kind {
                        DepKind::Control => earliest = earliest.max(pc + lat),
                        DepKind::Data => {
                            if clusters[p].0 as usize == c || k == 1 {
                                earliest = earliest.max(pc + lat);
                            } else if let Some(t) = avail[p * k + c] {
                                earliest = earliest.max(t);
                            } else {
                                // Insert a copy from the producer's cluster.
                                let ready_at = pc + sb.insts()[p].latency() as i64;
                                let slot = rt.earliest_bus_slot(ready_at.max(0) as u32);
                                if !rt.try_reserve_bus(slot) {
                                    feasible = false;
                                    break;
                                }
                                trial.push(CopyOp {
                                    value: d.from,
                                    from: clusters[p],
                                    to: ClusterId(c as u8),
                                    cycle: slot as i64,
                                });
                                earliest = earliest.max(slot as i64 + bus);
                            }
                        }
                    }
                }
                let slot = feasible
                    .then(|| rt.earliest_slot(earliest.max(0) as u32, ClusterId(c as u8), class));
                for cp in &trial {
                    rt.release_bus(cp.cycle as u32);
                }
                let Some(slot) = slot else {
                    continue;
                };
                let key = (slot as i64, trial.len(), load[c], c);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    std::mem::swap(&mut best_copies, &mut trial);
                }
            }
            let (slot, _, _, c) = best.expect("some cluster always accepts an instruction");
            // Commit: reserve the bus for the copies and the slot for the op.
            for cp in &best_copies {
                let ok = rt.try_reserve_bus(cp.cycle as u32);
                debug_assert!(ok, "the trial validated this reservation");
                avail[cp.value.index() * k + cp.to.0 as usize] = Some(cp.cycle + bus);
            }
            copies.append(&mut best_copies);
            let ok = rt.try_place(slot as u32, ClusterId(c as u8), class);
            debug_assert!(ok, "earliest_slot returned a free slot");
            cycles[inst] = Some(slot);
            clusters[inst] = ClusterId(c as u8);
            avail[inst * k + c] = Some(slot + sb.insts()[inst].latency() as i64);
            load[c] += 1;
            ready.scheduled(&dg, id);
        }

        let schedule = Schedule {
            cycles: cycles
                .into_iter()
                .map(|c| c.expect("all scheduled"))
                .collect(),
            clusters,
            copies,
        };
        let awct = schedule.awct(sb);
        CarsOutcome { schedule, awct }
    }
}

/// CARS as a portfolio policy. Single-pass list scheduling cannot fail,
/// so this policy ignores the step budget and never takes a fallback —
/// which is exactly why the paper (§6.1) and the engine use CARS *as*
/// the fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct CarsPolicy;

impl CarsPolicy {
    /// The CARS policy.
    pub fn new() -> CarsPolicy {
        CarsPolicy
    }
}

impl vcsched_policy::SchedulePolicy for CarsPolicy {
    fn name(&self) -> &'static str {
        "cars"
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        _budget: &vcsched_policy::PolicyBudget,
    ) -> vcsched_policy::PolicyOutcome {
        let start = std::time::Instant::now();
        let out = CarsScheduler::new(machine.clone()).schedule_with_live_ins(block, homes);
        vcsched_policy::PolicyOutcome::solved(out.schedule, out.awct, 0, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsched_arch::OpClass;
    use vcsched_ir::SuperblockBuilder;

    fn fig1() -> Superblock {
        let mut b = SuperblockBuilder::new("fig1");
        let i0 = b.inst(OpClass::Int, 2);
        let i1 = b.inst(OpClass::Int, 2);
        let i2 = b.inst(OpClass::Int, 2);
        let i3 = b.inst(OpClass::Int, 2);
        let b0 = b.exit(3, 0.3);
        let i4 = b.inst(OpClass::Int, 2);
        let b1 = b.exit(3, 0.7);
        b.data_dep(i0, i1)
            .data_dep(i0, i2)
            .data_dep(i0, i3)
            .data_dep(i3, b0)
            .data_dep(i1, i4)
            .data_dep(i2, i4)
            .data_dep(i4, b1)
            .ctrl_dep(b0, b1);
        b.build().unwrap()
    }

    #[test]
    fn respects_dependences() {
        let sb = fig1();
        let out = CarsScheduler::new(MachineConfig::paper_2c_8w()).schedule(&sb);
        for d in sb.deps() {
            let (f, t) = (d.from, d.to);
            if out.schedule.cluster(f) == out.schedule.cluster(t) || d.kind == DepKind::Control {
                assert!(out.schedule.cycle(t) >= out.schedule.cycle(f) + d.latency as i64);
            } else {
                // Remote consumption pays at least the bus latency on top.
                assert!(
                    out.schedule.cycle(t)
                        >= out.schedule.cycle(f)
                            + sb.inst(f).latency() as i64
                            + MachineConfig::paper_2c_8w().bus_latency() as i64
                );
            }
        }
    }

    #[test]
    fn wide_machine_reaches_critical_path() {
        let sb = fig1();
        let m = MachineConfig::builder()
            .clusters(1)
            .fu_counts(4, 1, 1, 1)
            .build()
            .unwrap();
        let out = CarsScheduler::new(m).schedule(&sb);
        // Dependence lower bound: B0@4 (P .3), B1@6 (P .7) → 8.4.
        assert!((out.awct - 8.4).abs() < 1e-9, "got {}", out.awct);
        assert_eq!(out.schedule.copy_count(), 0);
    }

    #[test]
    fn narrow_example_machine_pays_for_conflicts() {
        let sb = fig1();
        let out = CarsScheduler::new(MachineConfig::paper_example_2c()).schedule(&sb);
        // The virtual-cluster scheduler achieves 9.4 here (§5); CARS must be
        // no better than the lower bound and typically a bit worse.
        assert!(out.awct >= 8.4 - 1e-9);
        // Exits stay ordered.
        let exits: Vec<i64> = sb.exits().map(|(id, _)| out.schedule.cycle(id)).collect();
        assert!(exits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn live_in_placement_respected() {
        let mut b = SuperblockBuilder::new("li");
        let v = b.live_in();
        let i = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(v, i).data_dep(i, x);
        let sb = b.build().unwrap();
        let m = MachineConfig::paper_2c_8w();
        let out = CarsScheduler::new(m).schedule_with_live_ins(&sb, &[ClusterId(1)]);
        assert_eq!(out.schedule.cluster(v), ClusterId(1));
        assert_eq!(out.schedule.cycle(v), 0);
    }

    #[test]
    fn deterministic() {
        let sb = fig1();
        let s = CarsScheduler::new(MachineConfig::paper_4c_16w_lat2());
        let a = s.schedule(&sb);
        let b = s.schedule(&sb);
        assert_eq!(a.schedule, b.schedule);
    }
}
