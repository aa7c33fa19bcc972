//! Additional cluster-scheduling baselines from the paper's related work.
//!
//! The paper positions its contribution against two families of prior art
//! (§7):
//!
//! * **integrated single-pass** schedulers, which decide scheduling and
//!   assignment per instruction — CARS (the paper's baseline, in
//!   `vcsched-cars`) and UAS \[24\], reproduced here as [`UasScheduler`];
//! * **two-phase** approaches, which partition the dependence graph first
//!   and then schedule within the fixed partition \[10\]\[3\]\[17\]\[9\]\[6\]\[20\] —
//!   reproduced here as [`TwoPhaseScheduler`].
//!
//! Both produce the workspace-wide [`Schedule`] format and validate under
//! `vcsched-sim`, so every experiment can add them as extra series beside
//! CARS and the virtual-cluster scheduler.
//!
//! # Example
//!
//! ```
//! use vcsched_arch::{MachineConfig, OpClass};
//! use vcsched_baselines::{ClusterOrder, TwoPhaseScheduler, UasScheduler};
//! use vcsched_ir::SuperblockBuilder;
//!
//! # fn main() -> Result<(), vcsched_ir::BuildError> {
//! let mut b = SuperblockBuilder::new("demo");
//! let i = b.inst(OpClass::Int, 1);
//! let x = b.exit(1, 1.0);
//! b.data_dep(i, x);
//! let sb = b.build()?;
//! let m = MachineConfig::paper_2c_8w();
//! let uas = UasScheduler::new(m.clone(), ClusterOrder::Cwp).schedule(&sb);
//! let two = TwoPhaseScheduler::new(m).schedule(&sb);
//! assert!(uas.awct >= 2.0 && two.awct >= 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod two_phase;
mod two_phase_tuned;
mod uas;

pub use two_phase::TwoPhaseScheduler;
pub use two_phase_tuned::{TwoPhaseBalancePolicy, BALANCE_WEIGHT};
pub use uas::{ClusterOrder, UasScheduler};

// `UasPolicy` / `TwoPhasePolicy` (defined below) adapt both baselines to
// the workspace-wide `vcsched_policy::SchedulePolicy` interface.

use vcsched_ir::{Schedule, Superblock};

/// Result of a baseline scheduling run. Like CARS, these list schedulers
/// cannot fail — they only produce longer schedules.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The schedule.
    pub schedule: Schedule,
    /// Achieved average weighted completion time.
    pub awct: f64,
}

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_policy::{PolicyBudget, PolicyOutcome, SchedulePolicy};

/// UAS as a portfolio policy (CWP cluster order unless configured
/// otherwise). Single-pass and infallible; ignores the step budget.
///
/// Each cluster order is a distinct registry identity — `uas` (CWP, the
/// paper's §6.1 pick), `uas-mwp`, `uas-none` and `uas-balance` — so a
/// portfolio can race the orders against each other and the adaptive
/// selector can learn which one wins a given block class.
#[derive(Debug, Clone, Copy, Default)]
pub struct UasPolicy {
    /// Cluster-priority heuristic handed to [`UasScheduler`].
    pub order: ClusterOrder,
}

impl UasPolicy {
    /// The paper's §6.1 configuration: completion-weighted predecessors.
    pub fn cwp() -> UasPolicy {
        UasPolicy {
            order: ClusterOrder::Cwp,
        }
    }

    /// Magnitude-weighted predecessors (registry name `uas-mwp`).
    pub fn mwp() -> UasPolicy {
        UasPolicy {
            order: ClusterOrder::Mwp,
        }
    }

    /// Özer et al.'s "no ordering" (registry name `uas-none`).
    pub fn unordered() -> UasPolicy {
        UasPolicy {
            order: ClusterOrder::None,
        }
    }

    /// Least-loaded-cluster-first (registry name `uas-balance`).
    pub fn balance() -> UasPolicy {
        UasPolicy {
            order: ClusterOrder::LoadBalance,
        }
    }
}

impl SchedulePolicy for UasPolicy {
    fn name(&self) -> &'static str {
        match self.order {
            ClusterOrder::Cwp => "uas",
            ClusterOrder::Mwp => "uas-mwp",
            ClusterOrder::None => "uas-none",
            ClusterOrder::LoadBalance => "uas-balance",
        }
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        _budget: &PolicyBudget,
    ) -> PolicyOutcome {
        let start = std::time::Instant::now();
        let out =
            UasScheduler::new(machine.clone(), self.order).schedule_with_live_ins(block, homes);
        PolicyOutcome::solved(out.schedule, out.awct, 0, start.elapsed())
    }
}

/// Two-phase partition-then-schedule as a portfolio policy. Single-pass
/// and infallible; ignores the step budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhasePolicy;

impl SchedulePolicy for TwoPhasePolicy {
    fn name(&self) -> &'static str {
        "two-phase"
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        _budget: &PolicyBudget,
    ) -> PolicyOutcome {
        let start = std::time::Instant::now();
        let out = TwoPhaseScheduler::new(machine.clone()).schedule_with_live_ins(block, homes);
        PolicyOutcome::solved(out.schedule, out.awct, 0, start.elapsed())
    }
}
