//! Two-phase partition-then-schedule, the pre-integrated school of
//! clustered code generation (Ellis' Bulldog \[10\], Capitanio et al. \[3\],
//! Jang et al. \[17\]).
//!
//! **Phase 1** partitions the dependence graph over clusters with a greedy
//! affinity pass in estart order: each instruction goes to the cluster
//! holding the largest share of its data predecessors, penalised by load
//! imbalance; live-ins are pinned to their home clusters.
//!
//! **Phase 2** list-schedules with the partition *fixed*, inserting copies
//! whenever a dependence crosses the precomputed boundary.
//!
//! The point of this baseline is the paper's §7 critique made executable:
//! phase 1 cannot see the scheduling constraints its choices create, so on
//! communication-hostile machines (the 4-cluster, 2-cycle-bus
//! configuration) it pays visibly more than integrated schemes — a shape
//! the ablation benches measure.

use vcsched_arch::{ClusterId, MachineConfig, ReservationTable};
use vcsched_ir::{CopyOp, DepGraph, DepKind, InstId, ReadyList, Schedule, Superblock};

use crate::BaselineOutcome;

/// The two-phase baseline scheduler.
#[derive(Debug, Clone)]
pub struct TwoPhaseScheduler {
    machine: MachineConfig,
    balance_weight: f64,
}

impl TwoPhaseScheduler {
    /// A scheduler for `machine` with the default load-balance weight.
    pub fn new(machine: MachineConfig) -> Self {
        TwoPhaseScheduler {
            machine,
            balance_weight: 0.5,
        }
    }

    /// Adjusts how strongly phase 1 penalises putting work on an already
    /// loaded cluster (0 = pure affinity, larger = stronger balancing).
    pub fn with_balance_weight(mut self, w: f64) -> Self {
        self.balance_weight = w;
        self
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
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
    pub fn schedule_with_live_ins(
        &self,
        sb: &Superblock,
        live_in_homes: &[ClusterId],
    ) -> BaselineOutcome {
        let dg = DepGraph::new(sb);
        let partition = self.partition_with(sb, &dg, live_in_homes);
        self.schedule_fixed(sb, &dg, partition)
    }

    /// Phase 1: the cluster for every instruction.
    pub fn partition(&self, sb: &Superblock, live_in_homes: &[ClusterId]) -> Vec<ClusterId> {
        self.partition_with(sb, &DepGraph::new(sb), live_in_homes)
    }

    fn partition_with(
        &self,
        sb: &Superblock,
        dg: &DepGraph,
        live_in_homes: &[ClusterId],
    ) -> Vec<ClusterId> {
        let n = sb.len();
        let k = self.machine.cluster_count();
        let mut cluster: Vec<Option<ClusterId>> = vec![None; n];
        let mut load = vec![0f64; k];
        let mut affinity = vec![0f64; k];

        for (order, li) in sb.live_ins().enumerate() {
            let home = live_in_homes
                .get(order)
                .copied()
                .unwrap_or(ClusterId((order % k) as u8));
            cluster[li.index()] = Some(ClusterId(home.0 % k as u8));
        }

        // Estart order approximates a topological order (ties: id order
        // keeps exits in program order); every predecessor of `i` is
        // assigned before `i`. Ids make the keys unique, so an unstable
        // sort yields that order exactly.
        let mut order: Vec<usize> = (0..n).filter(|&i| cluster[i].is_none()).collect();
        order.sort_unstable_by_key(|&i| (dg.estart(InstId(i as u32)), i));

        for i in order {
            let id = InstId(i as u32);
            affinity.fill(0.0);
            for d in dg.preds(id) {
                if d.kind == DepKind::Data {
                    if let Some(c) = cluster[d.from.index()] {
                        // Tight edges (no slack to hide a copy) weigh more.
                        let slack = dg.estart(id) - dg.estart(d.from) - d.latency as i64;
                        affinity[c.0 as usize] += 1.0 + 1.0 / (1.0 + slack.max(0) as f64);
                    }
                }
            }
            let mean_load = load.iter().sum::<f64>() / k as f64;
            let class = sb.insts()[i].class();
            let best = (0..k)
                // Heterogeneous machines: only capable clusters qualify.
                .filter(|&c| self.machine.cluster_capacity(ClusterId(c as u8), class) > 0)
                .max_by(|&a, &b| {
                    let score =
                        |c: usize| affinity[c] - self.balance_weight * (load[c] - mean_load);
                    score(a)
                        .partial_cmp(&score(b))
                        .expect("finite scores")
                        .then(b.cmp(&a)) // prefer the lower id on ties
                })
                .expect("config validation guarantees a capable cluster");
            cluster[i] = Some(ClusterId(best as u8));
            load[best] += 1.0;
        }
        cluster.into_iter().map(|c| c.expect("assigned")).collect()
    }

    /// Phase 2: list scheduling with the partition fixed.
    fn schedule_fixed(
        &self,
        sb: &Superblock,
        dg: &DepGraph,
        partition: Vec<ClusterId>,
    ) -> BaselineOutcome {
        let n = sb.len();
        let k = self.machine.cluster_count();
        let bus = self.machine.bus_latency() as i64;
        let mut ready = ReadyList::new(sb, dg);

        let mut rt = ReservationTable::new(&self.machine);
        let mut cycles: Vec<Option<i64>> = vec![None; n];
        // avail[v * k + c]: the cycle from which cluster c can read v.
        let mut avail: Vec<Option<i64>> = vec![None; n * k];
        let mut copies: Vec<CopyOp> = Vec::new();

        for li in sb.live_ins() {
            cycles[li.index()] = Some(0);
            avail[li.index() * k + partition[li.index()].0 as usize] = Some(0);
        }

        while let Some(id) = ready.pop() {
            let inst = id.index();
            let c = partition[inst].0 as usize;
            let class = sb.insts()[inst].class();

            let mut earliest: i64 = 0;
            for d in dg.preds(id) {
                let p = d.from.index();
                let pc = cycles[p].expect("predecessor scheduled");
                match d.kind {
                    DepKind::Control => earliest = earliest.max(pc + d.latency as i64),
                    DepKind::Data => {
                        if partition[p].0 as usize == c || k == 1 {
                            earliest = earliest.max(pc + d.latency as i64);
                        } else if let Some(t) = avail[p * k + c] {
                            earliest = earliest.max(t);
                        } else {
                            let ready_at = pc + sb.insts()[p].latency() as i64;
                            let slot = rt.earliest_bus_slot(ready_at.max(0) as u32);
                            let reserved = rt.try_reserve_bus(slot);
                            debug_assert!(reserved, "earliest_bus_slot returned free");
                            let arrival = slot as i64 + bus;
                            copies.push(CopyOp {
                                value: d.from,
                                from: partition[p],
                                to: ClusterId(c as u8),
                                cycle: slot as i64,
                            });
                            avail[p * k + c] = Some(arrival);
                            earliest = earliest.max(arrival);
                        }
                    }
                }
            }
            let slot = rt.earliest_slot(earliest.max(0) as u32, ClusterId(c as u8), class);
            let placed = rt.try_place(slot, ClusterId(c as u8), class);
            debug_assert!(placed, "earliest_slot returned a free slot");
            cycles[inst] = Some(slot as i64);
            avail[inst * k + c] = Some(slot as i64 + sb.insts()[inst].latency() as i64);
            ready.scheduled(dg, id);
        }

        let schedule = Schedule {
            cycles: cycles
                .into_iter()
                .map(|c| c.expect("all scheduled"))
                .collect(),
            clusters: partition,
            copies,
        };
        let awct = schedule.awct(sb);
        BaselineOutcome { schedule, awct }
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
    fn schedules_validate_on_all_machines() {
        let sb = fig1();
        for m in MachineConfig::paper_eval_configs() {
            let out = TwoPhaseScheduler::new(m.clone()).schedule(&sb);
            vcsched_sim::validate(&sb, &m, &out.schedule)
                .unwrap_or_else(|v| panic!("two-phase invalid on {}: {v:?}", m.name()));
        }
    }

    #[test]
    fn partition_is_total_and_in_range() {
        let sb = fig1();
        let m = MachineConfig::paper_4c_16w_lat1();
        let s = TwoPhaseScheduler::new(m.clone());
        let part = s.partition(&sb, &[]);
        assert_eq!(part.len(), sb.len());
        assert!(part.iter().all(|c| (c.0 as usize) < m.cluster_count()));
    }

    #[test]
    fn pure_affinity_clusters_dependence_chains() {
        // With no balance pressure, a chain stays on one cluster.
        let mut b = SuperblockBuilder::new("chain");
        let i0 = b.inst(OpClass::Int, 1);
        let i1 = b.inst(OpClass::Int, 1);
        let i2 = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(i0, i1).data_dep(i1, i2).data_dep(i2, x);
        let sb = b.build().unwrap();
        let s = TwoPhaseScheduler::new(MachineConfig::paper_2c_8w()).with_balance_weight(0.0);
        let part = s.partition(&sb, &[]);
        assert!(part.iter().all(|&c| c == part[0]), "{part:?}");
    }

    #[test]
    fn strong_balancing_spreads_independent_work() {
        // Independent instructions spread under balance pressure.
        let mut b = SuperblockBuilder::new("par");
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.push(b.inst(OpClass::Int, 1));
        }
        let x = b.exit(1, 1.0);
        for &i in &ids {
            b.data_dep(i, x);
        }
        let sb = b.build().unwrap();
        let s = TwoPhaseScheduler::new(MachineConfig::paper_2c_8w()).with_balance_weight(10.0);
        let part = s.partition(&sb, &[]);
        let on0 = part.iter().filter(|&&c| c == ClusterId(0)).count();
        let on1 = part.iter().filter(|&&c| c == ClusterId(1)).count();
        assert!(on0 >= 2 && on1 >= 2, "split {on0}/{on1}");
    }

    #[test]
    fn fixed_partition_forces_copies() {
        // p on PC0 feeding c pinned (by a live-in chain) toward PC1 must
        // produce at least one copy.
        let mut b = SuperblockBuilder::new("t");
        let v = b.live_in(); // pinned to PC1 below
        let p = b.inst(OpClass::Int, 1);
        let c = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(v, c).data_dep(p, c).data_dep(c, x);
        let sb = b.build().unwrap();
        let m = MachineConfig::builder()
            .clusters(2)
            .fu_counts(1, 0, 0, 1)
            .buses(1)
            .bus_latency(1)
            .build()
            .unwrap();
        let s = TwoPhaseScheduler::new(m.clone()).with_balance_weight(10.0);
        let out = s.schedule_with_live_ins(&sb, &[ClusterId(1)]);
        vcsched_sim::validate(&sb, &m, &out.schedule).expect("valid");
        // `p` and `c` cannot share a cluster under heavy balancing, so the
        // p→c edge (or v→c) crosses and needs a copy.
        assert!(out.schedule.copy_count() >= 1);
    }

    #[test]
    fn deterministic() {
        let sb = fig1();
        let s = TwoPhaseScheduler::new(MachineConfig::paper_4c_16w_lat2());
        assert_eq!(s.schedule(&sb).schedule, s.schedule(&sb).schedule);
    }

    #[test]
    fn awct_never_beats_dependence_bound() {
        let sb = fig1();
        for m in MachineConfig::paper_eval_configs() {
            let out = TwoPhaseScheduler::new(m).schedule(&sb);
            assert!(out.awct >= 8.4 - 1e-9);
        }
    }
}
