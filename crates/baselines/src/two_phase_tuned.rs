//! `two-phase-balance`: the two-phase baseline with its partition
//! balance term turned up.
//!
//! [`TwoPhaseScheduler`]'s partitioner trades communication affinity
//! against cluster load balance; the stock `two-phase` policy runs the
//! affinity-leaning default. This variant weights the balance term
//! [`BALANCE_WEIGHT`]× — on wide machines it spreads long independent
//! chains instead of packing them onto the home cluster, which wins on
//! blocks where the default partition saturates one cluster's issue
//! width. A distinct registry identity (like the UAS order variants)
//! lets portfolios race the two tunings; racing all eight built-in
//! policies instead of the §6.1 four lowers aggregate AWCT on every
//! corpus and machine ROADMAP.md records.

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::Superblock;
use vcsched_policy::{PolicyBudget, PolicyOutcome, SchedulePolicy};

use crate::TwoPhaseScheduler;

/// Balance-term multiplier of the tuned variant. Two keeps affinity in
/// play (weight 10 degenerates to round-robin spreading on the
/// baseline's own unit tests) while reliably splitting independent
/// chains the default packs together.
pub const BALANCE_WEIGHT: f64 = 2.0;

/// Two-phase partition-then-schedule with a balance-weighted partition
/// (registry name `two-phase-balance`). Single-pass and infallible;
/// ignores the step budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhaseBalancePolicy;

impl SchedulePolicy for TwoPhaseBalancePolicy {
    fn name(&self) -> &'static str {
        "two-phase-balance"
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        _budget: &PolicyBudget,
    ) -> PolicyOutcome {
        let start = std::time::Instant::now();
        let out = TwoPhaseScheduler::new(machine.clone())
            .with_balance_weight(BALANCE_WEIGHT)
            .schedule_with_live_ins(block, homes);
        PolicyOutcome::solved(out.schedule, out.awct, 0, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsched_arch::OpClass;
    use vcsched_ir::SuperblockBuilder;

    fn chains_block() -> Superblock {
        // Two independent 4-op chains feeding one exit: a partition
        // with any balance pressure should split them across clusters.
        let mut b = SuperblockBuilder::new("chains");
        let mut last = Vec::new();
        for _ in 0..2 {
            let mut prev = b.inst(OpClass::Int, 1);
            for _ in 0..3 {
                let next = b.inst(OpClass::Int, 1);
                b.data_dep(prev, next);
                prev = next;
            }
            last.push(prev);
        }
        let x = b.exit(1, 1.0);
        for p in last {
            b.data_dep(p, x);
        }
        b.build().unwrap()
    }

    #[test]
    fn names_itself_for_the_registry() {
        assert_eq!(TwoPhaseBalancePolicy.name(), "two-phase-balance");
    }

    #[test]
    fn schedules_and_validates() {
        let sb = chains_block();
        let m = MachineConfig::paper_2c_8w();
        let homes: Vec<ClusterId> = sb.live_ins().map(|_| ClusterId(0)).collect();
        let out = TwoPhaseBalancePolicy.schedule(&sb, &m, &homes, &PolicyBudget::steps(1_000));
        let schedule = out.schedule.expect("infallible baseline");
        vcsched_sim::validate(&sb, &m, &schedule).expect("valid schedule");
        assert!(out.awct >= 1.0);
    }
}
