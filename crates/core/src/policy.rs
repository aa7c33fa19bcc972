//! The virtual-cluster scheduler behind the [`SchedulePolicy`] interface.

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::Superblock;
use vcsched_policy::{PolicyBudget, PolicyFallback, PolicyOutcome, SchedulePolicy};

use crate::scheduler::{VcError, VcOptions, VcScheduler};

/// The paper's virtual-cluster scheduler (§4) as a portfolio policy.
///
/// Per call, the step and trail-byte budgets come from the racer's
/// [`PolicyBudget`] and the cooperative cutoff from its shared best-AWCT
/// bound; everything else (bump limit, tuning) comes from the base
/// options this policy was constructed with.
#[derive(Debug, Clone, Default)]
pub struct VcPolicy {
    /// Base options; `max_dp_steps`, `max_trail_bytes` and `awct_cutoff`
    /// are overridden per call from the [`PolicyBudget`].
    pub base: VcOptions,
}

impl VcPolicy {
    /// A policy with the default tuning.
    pub fn new() -> VcPolicy {
        VcPolicy::default()
    }
}

impl SchedulePolicy for VcPolicy {
    fn name(&self) -> &'static str {
        "vc"
    }

    fn exhaustive(&self) -> bool {
        true
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        budget: &PolicyBudget,
    ) -> PolicyOutcome {
        let best = budget.best.best();
        let vc = VcScheduler::with_options(
            machine.clone(),
            VcOptions {
                max_dp_steps: budget.max_dp_steps,
                max_trail_bytes: budget.max_trail_bytes,
                awct_cutoff: best.is_finite().then_some(best),
                deadline_steps: budget.deadline_steps,
                ..self.base.clone()
            },
        );
        let attempt = vc.try_schedule_preemptible(block, homes, Some(&budget.best));
        let spec = attempt.spec;
        match attempt.result {
            Ok(out) => PolicyOutcome::solved(out.schedule, out.awct, spec.dp_steps, attempt.wall)
                .with_spec(spec),
            Err(e) => {
                // Legacy §6.1 convention: a burnt budget is reported as
                // `max + 1` so drivers can distinguish "exhausted" from
                // "spent exactly max"; an early-cancelled or deadline-
                // preempted attempt reports the steps it actually
                // consumed before abandoning.
                let (fallback, steps) = match e {
                    VcError::BudgetExhausted => (PolicyFallback::Budget, budget.max_dp_steps + 1),
                    VcError::BumpLimitReached => (PolicyFallback::GaveUp, budget.max_dp_steps + 1),
                    VcError::Beaten => (PolicyFallback::Beaten, spec.dp_steps),
                    VcError::Deadline => (PolicyFallback::Deadline, spec.dp_steps),
                };
                PolicyOutcome::abandoned(fallback, steps, attempt.wall).with_spec(spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsched_policy::AwctBound;

    fn tiny_block() -> Superblock {
        use vcsched_arch::OpClass;
        let mut b = vcsched_ir::SuperblockBuilder::new("tiny");
        let i0 = b.inst(OpClass::Int, 1);
        let i1 = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(i0, i1).data_dep(i1, x);
        b.build().expect("valid block")
    }

    #[test]
    fn trait_object_matches_concrete_scheduler() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let policy: Box<dyn SchedulePolicy> = Box::new(VcPolicy::new());
        let via_trait = policy.schedule(&sb, &machine, &[], &PolicyBudget::steps(100_000));
        let direct = VcScheduler::with_options(
            machine.clone(),
            VcOptions {
                max_dp_steps: 100_000,
                ..VcOptions::default()
            },
        )
        .schedule_with_live_ins(&sb, &[])
        .expect("tiny block schedules");
        assert_eq!(via_trait.schedule.as_ref(), Some(&direct.schedule));
        assert_eq!(via_trait.awct, direct.awct);
        assert_eq!(via_trait.fallback, PolicyFallback::None);
    }

    #[test]
    fn zero_budget_reports_budget_fallback() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let out = VcPolicy::new().schedule(&sb, &machine, &[], &PolicyBudget::steps(0));
        assert!(out.schedule.is_none());
        assert_eq!(out.fallback, PolicyFallback::Budget);
        assert_eq!(out.steps, 1, "legacy max+1 convention");
    }

    #[test]
    fn unbeatable_bound_cancels_the_search() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let bound = AwctBound::new();
        // The exit completes at cycle 2 at the earliest; AWCT ≥ 2. A
        // recorded best of 0.5 is provably unbeatable, so the policy must
        // abandon instead of searching.
        bound.record(0.5);
        let budget = PolicyBudget {
            max_dp_steps: 100_000,
            max_trail_bytes: None,
            best: bound,
            deadline_steps: None,
        };
        let out = VcPolicy::new().schedule(&sb, &machine, &[], &budget);
        assert!(out.schedule.is_none());
        assert_eq!(out.fallback, PolicyFallback::Beaten);
        assert!(
            out.steps < 100_000,
            "cancel must not burn the whole budget (spent {})",
            out.steps
        );
    }

    #[test]
    fn tying_bound_keeps_the_search_alive() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let direct = VcScheduler::new(machine.clone())
            .schedule_with_live_ins(&sb, &[])
            .expect("schedules");
        let bound = AwctBound::new();
        bound.record(direct.awct); // an exact tie: set order decides, not cancel
        let budget = PolicyBudget {
            max_dp_steps: 100_000,
            max_trail_bytes: None,
            best: bound,
            deadline_steps: None,
        };
        let out = VcPolicy::new().schedule(&sb, &machine, &[], &budget);
        assert_eq!(out.fallback, PolicyFallback::None);
        assert_eq!(out.awct, direct.awct);
    }

    #[test]
    fn step_deadline_reports_deadline_fallback_with_actual_steps() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let budget = PolicyBudget {
            max_dp_steps: 100_000,
            max_trail_bytes: None,
            best: AwctBound::new(),
            deadline_steps: Some(1),
        };
        let out = VcPolicy::new().schedule(&sb, &machine, &[], &budget);
        assert!(out.schedule.is_none());
        assert_eq!(out.fallback, PolicyFallback::Deadline);
        assert!(
            out.steps <= 2,
            "a 1-step deadline must fire immediately (spent {})",
            out.steps
        );
    }

    #[test]
    fn preempted_bound_aborts_with_deadline_fallback() {
        let sb = tiny_block();
        let machine = MachineConfig::paper_2c_8w();
        let bound = AwctBound::new();
        bound.preempt(); // fires before the search even starts
        let budget = PolicyBudget {
            max_dp_steps: 100_000,
            max_trail_bytes: None,
            best: bound,
            deadline_steps: None,
        };
        let out = VcPolicy::new().schedule(&sb, &machine, &[], &budget);
        assert!(out.schedule.is_none());
        assert_eq!(out.fallback, PolicyFallback::Deadline);
        assert!(
            out.steps < 100_000,
            "preemption must not burn the whole budget (spent {})",
            out.steps
        );
    }
}
