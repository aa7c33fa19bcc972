//! UAS: unified assign-and-schedule (Özer, Banerjia, Conte — MICRO 1998).
//!
//! UAS is *cycle-driven*: it walks cycles in order and, at each cycle,
//! tries to place every ready instruction into some cluster, consulting the
//! clusters in a heuristic priority order. An instruction that fits nowhere
//! waits for the next cycle. Inter-cluster operands must arrive by the
//! issue cycle through copies scheduled on the bus, inside the same
//! cycle-driven framework.
//!
//! The cluster-priority heuristics follow the original paper's menu:
//! no ordering, magnitude-weighted predecessors (MWP), and
//! completion-weighted predecessors (CWP), plus a load-balance order as a
//! sanity baseline.

use std::cmp::Reverse;

use vcsched_arch::{ClusterId, MachineConfig, ReservationTable};
use vcsched_ir::{CopyOp, Dep, DepGraph, DepKind, ReadyList, Schedule, Superblock};

use crate::BaselineOutcome;

/// Cluster-priority heuristic used by [`UasScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterOrder {
    /// Fixed order `PC0, PC1, …` (Özer et al.'s "none").
    #[default]
    None,
    /// Magnitude-weighted predecessors: clusters holding more of the
    /// instruction's source operands first.
    Mwp,
    /// Completion-weighted predecessors: the cluster of the operand that
    /// completes *latest* first (it is the one too expensive to move).
    Cwp,
    /// Least-loaded cluster first (workload balance).
    LoadBalance,
}

impl std::fmt::Display for ClusterOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ClusterOrder::None => "none",
            ClusterOrder::Mwp => "MWP",
            ClusterOrder::Cwp => "CWP",
            ClusterOrder::LoadBalance => "balance",
        };
        f.write_str(s)
    }
}

/// The UAS baseline scheduler.
#[derive(Debug, Clone)]
pub struct UasScheduler {
    machine: MachineConfig,
    order: ClusterOrder,
}

impl UasScheduler {
    /// A scheduler for `machine` using cluster-priority `order`.
    pub fn new(machine: MachineConfig, order: ClusterOrder) -> Self {
        UasScheduler { machine, order }
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The configured cluster order.
    pub fn order(&self) -> ClusterOrder {
        self.order
    }

    /// Schedules `sb`, distributing live-ins round-robin over clusters.
    pub fn schedule(&self, sb: &Superblock) -> BaselineOutcome {
        let k = self.machine.cluster_count();
        let homes: Vec<ClusterId> = sb
            .live_ins()
            .enumerate()
            .map(|(i, _)| ClusterId((i % k) as u8))
            .collect();
        self.schedule_with_live_ins(sb, &homes)
    }

    /// Schedules `sb` with an explicit live-in placement.
    ///
    /// Each cycle serves a snapshot of the ready set in priority order;
    /// an instruction made ready during the cycle waits for the next one.
    /// Copies are trialled on the live reservation table and released
    /// when the cluster is rejected.
    pub fn schedule_with_live_ins(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
    ) -> BaselineOutcome {
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
        let mut load: Vec<u64> = vec![0; k];
        let mut snapshot = Vec::with_capacity(n);
        let mut order = Vec::with_capacity(k);

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

        let mut unscheduled = sb.insts().iter().filter(|i| !i.is_live_in()).count();
        let mut cycle: i64 = 0;
        // Cycle-driven outer loop; the horizon only grows when nothing
        // fits, and something always fits eventually (a far-enough cycle
        // has free resources and satisfied dependences).
        while unscheduled > 0 {
            snapshot.clear();
            while let Some(id) = ready.pop() {
                snapshot.push(id);
            }

            for &id in &snapshot {
                let inst = id.index();
                let class = sb.insts()[inst].class();
                let preds = dg.preds(id);
                // Dependence feasibility at this cycle, ignoring clusters:
                // control edges must already be satisfied.
                if preds.iter().any(|d| {
                    d.kind == DepKind::Control
                        && cycles[d.from.index()].expect("sched") + d.latency as i64 > cycle
                }) {
                    continue;
                }

                self.cluster_order(preds, &clusters, &cycles, sb, &load, &mut order);
                for &(_, c) in &order {
                    // Heterogeneous machines: skip incapable clusters.
                    if self.machine.cluster_capacity(ClusterId(c as u8), class) == 0
                        || !rt.can_place(cycle as u32, ClusterId(c as u8), class)
                    {
                        continue;
                    }
                    // Every data operand must be readable in cluster c at
                    // `cycle`, possibly via a new copy that fits the bus.
                    let trial_start = copies.len();
                    let mut ok = true;
                    for d in preds {
                        if d.kind != DepKind::Data {
                            continue;
                        }
                        let p = d.from.index();
                        let pc = cycles[p].expect("scheduled");
                        if clusters[p].0 as usize == c || k == 1 {
                            if pc + d.latency as i64 > cycle {
                                ok = false;
                                break;
                            }
                        } else if let Some(t) = avail[p * k + c] {
                            if t > cycle {
                                ok = false;
                                break;
                            }
                        } else {
                            // Latest copy slot that still arrives in time.
                            let ready_at = pc + sb.insts()[p].latency() as i64;
                            let deadline = cycle - bus;
                            let mut found = None;
                            let mut slot = ready_at.max(0);
                            while slot <= deadline {
                                if rt.try_reserve_bus(slot as u32) {
                                    found = Some(slot);
                                    break;
                                }
                                slot += 1;
                            }
                            match found {
                                Some(s) => copies.push(CopyOp {
                                    value: d.from,
                                    from: clusters[p],
                                    to: ClusterId(c as u8),
                                    cycle: s,
                                }),
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    if !ok {
                        for cp in copies.drain(trial_start..) {
                            rt.release_bus(cp.cycle as u32);
                        }
                        continue;
                    }
                    // Commit.
                    for cp in &copies[trial_start..] {
                        avail[cp.value.index() * k + cp.to.0 as usize] = Some(cp.cycle + bus);
                    }
                    let placed = rt.try_place(cycle as u32, ClusterId(c as u8), class);
                    debug_assert!(placed, "checked can_place above");
                    cycles[inst] = Some(cycle);
                    clusters[inst] = ClusterId(c as u8);
                    avail[inst * k + c] = Some(cycle + sb.insts()[inst].latency() as i64);
                    load[c] += 1;
                    unscheduled -= 1;
                    ready.scheduled(&dg, id);
                    break;
                }
            }
            for &id in &snapshot {
                if cycles[id.index()].is_none() {
                    ready.push(id);
                }
            }
            cycle += 1;
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
        BaselineOutcome { schedule, awct }
    }

    /// Fills `order` with the cluster visiting order for an instruction
    /// with dependences `preds` under the configured heuristic: one
    /// `(key, cluster)` pair per cluster, highest key first, ties to the
    /// lower cluster.
    fn cluster_order(
        &self,
        preds: &[Dep],
        clusters: &[ClusterId],
        cycles: &[Option<i64>],
        sb: &Superblock,
        load: &[u64],
        order: &mut Vec<(i64, usize)>,
    ) {
        order.clear();
        match self.order {
            // Fixed order `PC0, PC1, …`.
            ClusterOrder::None => order.extend((0..load.len()).map(|c| (0, c))),
            ClusterOrder::Mwp => {
                // Operand count per cluster, descending.
                order.extend((0..load.len()).map(|c| (0, c)));
                for d in preds {
                    if d.kind == DepKind::Data {
                        order[clusters[d.from.index()].0 as usize].0 += 1;
                    }
                }
            }
            ClusterOrder::Cwp => {
                // The cluster of the operand completing last, first.
                order.extend((0..load.len()).map(|c| (i64::MIN, c)));
                for d in preds {
                    if d.kind == DepKind::Data {
                        let p = d.from.index();
                        if let Some(pc) = cycles[p] {
                            let done = pc + sb.insts()[p].latency() as i64;
                            let key = &mut order[clusters[p].0 as usize].0;
                            *key = (*key).max(done);
                        }
                    }
                }
            }
            // Least-loaded cluster first.
            ClusterOrder::LoadBalance => {
                order.extend(load.iter().enumerate().map(|(c, &l)| (-(l as i64), c)));
            }
        }
        // Cluster ids break ties, so an unstable sort gives the one order.
        order.sort_unstable_by_key(|&(key, c)| (Reverse(key), c));
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
    fn all_orders_produce_valid_schedules() {
        let sb = fig1();
        for order in [
            ClusterOrder::None,
            ClusterOrder::Mwp,
            ClusterOrder::Cwp,
            ClusterOrder::LoadBalance,
        ] {
            for m in MachineConfig::paper_eval_configs() {
                let out = UasScheduler::new(m.clone(), order).schedule(&sb);
                vcsched_sim::validate(&sb, &m, &out.schedule).unwrap_or_else(|v| {
                    panic!("UAS/{order} invalid on {}: {v:?}", m.name());
                });
            }
        }
    }

    #[test]
    fn respects_critical_path_lower_bound() {
        let sb = fig1();
        let out = UasScheduler::new(MachineConfig::paper_2c_8w(), ClusterOrder::Cwp).schedule(&sb);
        assert!(out.awct >= 8.4 - 1e-9, "AWCT {} below bound", out.awct);
    }

    #[test]
    fn deterministic() {
        let sb = fig1();
        let s = UasScheduler::new(MachineConfig::paper_4c_16w_lat2(), ClusterOrder::Mwp);
        assert_eq!(s.schedule(&sb).schedule, s.schedule(&sb).schedule);
    }

    #[test]
    fn live_in_homes_respected() {
        let mut b = SuperblockBuilder::new("li");
        let v = b.live_in();
        let i = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(v, i).data_dep(i, x);
        let sb = b.build().unwrap();
        let out = UasScheduler::new(MachineConfig::paper_2c_8w(), ClusterOrder::Cwp)
            .schedule_with_live_ins(&sb, &[ClusterId(1)]);
        assert_eq!(out.schedule.cluster(v), ClusterId(1));
    }

    #[test]
    fn exits_stay_ordered() {
        let sb = fig1();
        for order in [ClusterOrder::None, ClusterOrder::LoadBalance] {
            let out = UasScheduler::new(MachineConfig::paper_example_2c(), order).schedule(&sb);
            let e: Vec<i64> = sb.exits().map(|(id, _)| out.schedule.cycle(id)).collect();
            assert!(e.windows(2).all(|w| w[0] < w[1]), "{order}: {e:?}");
        }
    }

    #[test]
    fn cwp_prefers_late_completing_operand_cluster() {
        // p (slow, PC0) and q (fast, PC1) both feed c. CWP must try PC0
        // first: p completes later.
        let mut b = SuperblockBuilder::new("t");
        let p = b.inst(OpClass::Int, 2);
        let q = b.inst(OpClass::Int, 2);
        let c = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(p, c).data_dep(q, c).data_dep(c, x);
        let sb = b.build().unwrap();
        // Force p and q apart via a 2-cluster machine with 1 int unit each:
        // UAS places p on PC0 (first in order at cycle 0), q must go PC1.
        let m = MachineConfig::builder()
            .clusters(2)
            .fu_counts(1, 0, 0, 1)
            .buses(1)
            .bus_latency(1)
            .build()
            .unwrap();
        let out = UasScheduler::new(m, ClusterOrder::Cwp).schedule(&sb);
        assert_eq!(out.schedule.cluster(p), ClusterId(0));
        assert_eq!(out.schedule.cluster(q), ClusterId(1));
        // c lands with its latest-completing operand... which is a tie
        // here (both complete at 2), broken toward PC0.
        assert_eq!(out.schedule.cluster(c), ClusterId(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ClusterOrder::Mwp.to_string(), "MWP");
        assert_eq!(ClusterOrder::default(), ClusterOrder::None);
    }
}
