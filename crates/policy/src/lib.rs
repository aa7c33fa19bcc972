//! `vcsched-policy` — the [`SchedulePolicy`] trait: one fixed interface
//! over every scheduler the engine can race.
//!
//! The paper's §6.1 evaluation races the virtual-cluster scheduler against
//! CARS, UAS and two-phase baselines. Each of those lives in its own crate
//! with its own concrete API; this crate defines the *policy* abstraction
//! they all implement, so drivers (the portfolio racer, the batch engine,
//! the service) talk to an interchangeable `dyn SchedulePolicy` instead of
//! one bespoke call path per scheduler — the framing of portfolio /
//! algorithm-selection schedulers in Casanova et al. and Stillwell et al.
//!
//! Three pieces:
//!
//! * [`SchedulePolicy`] — `name()` plus `schedule(block, machine, homes,
//!   budget)`, returning a [`PolicyOutcome`] that carries the schedule
//!   (if one was produced) and per-policy telemetry: deduction steps
//!   used, wall-time, and whether a fallback was taken;
//! * [`PolicyBudget`] — the cooperative budget a racer hands every
//!   policy: the deduction-step cap plus a shared [`AwctBound`];
//! * [`AwctBound`] — an atomic best-AWCT bound. A racer records each
//!   validated candidate into it; an exhaustive policy whose *certified
//!   lower bound* exceeds the recorded best knows it has already lost and
//!   abandons the remaining work ([`PolicyFallback::Beaten`]).
//!
//! Determinism contract: a policy may abandon **only** when it can prove
//! its result would be *strictly* worse than the bound. A policy that
//! could still tie must keep working, because portfolio ties break by set
//! order, not completion order — so early-cancel never changes which
//! schedule wins, only how much work the losers burn.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::{Schedule, Superblock};

/// A shared atomic best-AWCT bound: the cooperative early-cancel channel
/// between racing policies.
///
/// Stores the bits of a non-negative `f64` (IEEE-754 orders non-negative
/// floats like their bit patterns, so `fetch_min` on bits is `fetch_min`
/// on values). Starts at `+∞`; [`AwctBound::record`] lowers it.
///
/// The bound also carries the *preemption flag* for deadline-aware races:
/// an external timer (or the online executor's deadline accounting) calls
/// [`AwctBound::preempt`] and every policy sharing the bound stops at its
/// next budget check, returning whatever best-so-far the racer has sealed.
#[derive(Debug, Clone, Default)]
pub struct AwctBound {
    best: Arc<AtomicU64>,
    preempt: Arc<AtomicBool>,
}

impl AwctBound {
    /// A fresh bound at `+∞` (nothing recorded yet, not preempted).
    pub fn new() -> AwctBound {
        AwctBound {
            best: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
            preempt: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Records a validated candidate AWCT, lowering the bound if it beats
    /// the current best. Negative or NaN values are ignored.
    pub fn record(&self, awct: f64) {
        if awct.is_finite() && awct >= 0.0 {
            self.best.fetch_min(awct.to_bits(), Ordering::Relaxed);
        }
    }

    /// The best AWCT recorded so far (`+∞` if none).
    pub fn best(&self) -> f64 {
        f64::from_bits(self.best.load(Ordering::Relaxed))
    }

    /// Whether a policy whose certified lower bound is `lower_bound` has
    /// already lost: some racer produced a *strictly better* schedule.
    /// Strict comparison keeps ties alive — a tying policy can still win
    /// on set order.
    pub fn beaten(&self, lower_bound: f64) -> bool {
        lower_bound > self.best()
    }

    /// Fires the deadline: every policy sharing this bound abandons at
    /// its next budget check with [`PolicyFallback::Deadline`]. Sticky —
    /// there is no un-preempt; create a fresh bound per race.
    pub fn preempt(&self) {
        self.preempt.store(true, Ordering::Relaxed);
    }

    /// Whether [`AwctBound::preempt`] has fired.
    pub fn preempted(&self) -> bool {
        self.preempt.load(Ordering::Relaxed)
    }
}

/// The cooperative budget a racer hands each policy.
#[derive(Debug, Clone)]
pub struct PolicyBudget {
    /// Deduction-step cap (the paper's compile-time threshold analogue,
    /// §6.1). Single-pass policies ignore it; exhaustive policies abandon
    /// with [`PolicyFallback::Budget`] when it runs out.
    pub max_dp_steps: u64,
    /// Optional trail-work cap in bytes of state touched by deduction
    /// mutations — a cache-footprint-proportional measure of work, unlike
    /// the step count whose per-step cost varies. `None` leaves work
    /// bounded by `max_dp_steps` alone.
    pub max_trail_bytes: Option<u64>,
    /// Shared best-AWCT bound for cooperative early-cancel. Pass a fresh
    /// [`AwctBound::new`] (forever `+∞`) to disable cancellation.
    pub best: AwctBound,
    /// Deterministic deadline in deduction steps: the attempt aborts with
    /// [`PolicyFallback::Deadline`] once it has spent this many steps —
    /// distinct from `max_dp_steps` so a deadline-priced race reports
    /// `deadline` rather than `budget`. `None` means no step deadline;
    /// the bound's preemption flag is still honoured either way.
    pub deadline_steps: Option<u64>,
}

impl PolicyBudget {
    /// A budget with the given step cap, no byte cap, no deadline, and
    /// cancellation disabled.
    pub fn steps(max_dp_steps: u64) -> PolicyBudget {
        PolicyBudget {
            max_dp_steps,
            max_trail_bytes: None,
            best: AwctBound::new(),
            deadline_steps: None,
        }
    }
}

/// Why a policy returned without a schedule (or `None` if it produced
/// one). The "fallback taken" bit of the telemetry: a driver seeing
/// anything but `None` applies its fallback policy (§6.1: CARS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PolicyFallback {
    /// The policy produced a schedule; no fallback needed.
    None,
    /// The deduction-step (or wall-clock) budget ran out.
    Budget,
    /// The shared [`AwctBound`] proved the policy could only lose; it
    /// abandoned the remaining work.
    Beaten,
    /// The policy gave up for an internal reason (e.g. the AWCT bump
    /// limit).
    GaveUp,
    /// A deadline fired mid-attempt — either the deterministic
    /// `deadline_steps` threshold was crossed or the shared bound's
    /// preemption flag was raised. The racer returns its best-so-far
    /// validated schedule (if any) tagged `deadline_fired`.
    Deadline,
}

impl PolicyFallback {
    /// Stable lower-case name (used in JSON telemetry).
    pub fn name(self) -> &'static str {
        match self {
            PolicyFallback::None => "none",
            PolicyFallback::Budget => "budget",
            PolicyFallback::Beaten => "beaten",
            PolicyFallback::GaveUp => "gave-up",
            PolicyFallback::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for PolicyFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one VC scheduling attempt did: its exact deduction steps, the
/// §4.2 minAWCT probes and AWCT bumps, the step cost and dead ends of
/// each §4.4 stage, and what the trail-based delta/rollback study
/// recorded instead of cloning states. All-zero for single-pass
/// policies (no deduction, no speculation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Deduction steps the attempt spent, exactly. Unlike
    /// [`PolicyOutcome::steps`], a burnt budget is not reported as
    /// `max + 1`.
    pub dp_steps: u64,
    /// AWCT increases before the schedule was found (0 when the attempt
    /// failed).
    pub awct_bumps: u64,
    /// Deduction-process builds the enhanced-minAWCT computation (§4.2)
    /// consumed.
    pub minawct_probes: u64,
    /// Deduction steps charged by each of the six stages of Fig. 6
    /// (index 0 is stage 1), summed over every pass of the attempt.
    pub stage_steps: [u64; 6],
    /// Dead ends per stage (index 0 is stage 1) that forced a restart
    /// or a bump.
    pub stage_failures: [u64; 6],
    /// Undo records appended to the trail over the whole attempt.
    pub trail_entries: u64,
    /// Rollbacks performed (candidate studies that were not kept).
    pub rollbacks: u64,
    /// Deepest the undo log grew (entries outstanding at once).
    pub peak_trail_depth: u64,
    /// Estimated bytes a clone-per-study engine would have copied for the
    /// rolled-back studies.
    pub bytes_not_cloned: u64,
    /// Stage winners adopted by re-deducing them after their study. The
    /// name is historical, kept so existing readers of the field work.
    pub redo_replays: u64,
    /// Work bytes those adoptions charged (the same bytes their studies
    /// charged).
    pub redo_bytes_replayed: u64,
}

/// What one policy returns for one block: the schedule (if any) plus
/// per-policy telemetry.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The schedule, or `None` when the policy abandoned the block.
    pub schedule: Option<Schedule>,
    /// The policy's claimed AWCT (`+∞` when no schedule was produced).
    /// Racers re-validate with the simulator; this is telemetry, not the
    /// ranking key.
    pub awct: f64,
    /// Deduction steps consumed (0 for single-pass list schedulers,
    /// which do no deduction).
    pub steps: u64,
    /// Wall-clock the policy spent on this block.
    pub wall: Duration,
    /// Whether (and why) a fallback was taken.
    pub fallback: PolicyFallback,
    /// Speculation-engine counters (zero unless the policy runs the
    /// trail-based study engine).
    pub spec: SpecStats,
}

impl PolicyOutcome {
    /// A successful outcome.
    pub fn solved(schedule: Schedule, awct: f64, steps: u64, wall: Duration) -> PolicyOutcome {
        PolicyOutcome {
            schedule: Some(schedule),
            awct,
            steps,
            wall,
            fallback: PolicyFallback::None,
            spec: SpecStats::default(),
        }
    }

    /// An abandoned outcome (budget, beaten, or gave up).
    pub fn abandoned(fallback: PolicyFallback, steps: u64, wall: Duration) -> PolicyOutcome {
        PolicyOutcome {
            schedule: None,
            awct: f64::INFINITY,
            steps,
            wall,
            fallback,
            spec: SpecStats::default(),
        }
    }

    /// Attaches speculation-engine telemetry.
    pub fn with_spec(mut self, spec: SpecStats) -> PolicyOutcome {
        self.spec = spec;
        self
    }
}

/// One scheduling policy behind a fixed interface.
///
/// Implementations live next to their schedulers (`vcsched-core` for the
/// paper's virtual-cluster scheduler, `vcsched-cars` for CARS,
/// `vcsched-baselines` for UAS and two-phase); the engine's registry maps
/// canonical names to constructors so adding a policy is a one-file
/// change plus a registry entry.
pub trait SchedulePolicy: Send + Sync {
    /// Stable lower-case name — the identity used in CLI flags, wire
    /// requests, cache keys and win tables.
    fn name(&self) -> &'static str;

    /// Version of the *algorithm implementation*, folded into the
    /// engine's schedule-cache key: bump it when a change makes this
    /// policy produce different schedules/telemetry for the same input,
    /// and exactly this policy's cached entries stop matching — no
    /// manual cache flush, no collateral invalidation of other policies.
    fn algorithm_version(&self) -> &'static str {
        "1"
    }

    /// Schedules one block. `homes` pins the block's live-ins to register
    /// files (every racing policy receives the same placement, §6.1);
    /// `budget` carries the step cap and the shared best-AWCT bound.
    ///
    /// Must be deterministic given `(block, machine, homes, budget.
    /// max_dp_steps, budget.best)` — racers rely on it for reproducible
    /// batch output.
    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        budget: &PolicyBudget,
    ) -> PolicyOutcome;

    /// Whether this policy does open-ended (budgeted) search. Racers run
    /// single-pass policies first and seal the [`AwctBound`] before the
    /// exhaustive stage, which keeps early-cancel deterministic.
    fn exhaustive(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_records_minimum_and_orders_correctly() {
        let b = AwctBound::new();
        assert_eq!(b.best(), f64::INFINITY);
        assert!(!b.beaten(1e300), "nothing recorded: nobody is beaten");
        b.record(7.5);
        b.record(9.0); // worse: ignored
        assert_eq!(b.best(), 7.5);
        b.record(3.25);
        assert_eq!(b.best(), 3.25);
        // Strictness: a tie is not beaten (ties break by set order).
        assert!(!b.beaten(3.25));
        assert!(b.beaten(3.2500001));
        assert!(!b.beaten(1.0));
    }

    #[test]
    fn bound_ignores_nan_and_negatives() {
        let b = AwctBound::new();
        b.record(f64::NAN);
        b.record(-1.0);
        b.record(f64::INFINITY);
        assert_eq!(b.best(), f64::INFINITY);
    }

    #[test]
    fn bound_clones_share_state() {
        let a = AwctBound::new();
        let b = a.clone();
        b.record(4.0);
        assert_eq!(a.best(), 4.0);
    }

    #[test]
    fn fallback_names_roundtrip() {
        for f in [
            PolicyFallback::None,
            PolicyFallback::Budget,
            PolicyFallback::Beaten,
            PolicyFallback::GaveUp,
            PolicyFallback::Deadline,
        ] {
            let wire = f.to_value();
            assert_eq!(wire, serde::Value::String(f.name().to_owned()));
            assert_eq!(PolicyFallback::from_value(&wire), Ok(f));
        }
        assert!(PolicyFallback::from_value(&serde::Value::String("bogus".into())).is_err());
    }

    #[test]
    fn preempt_flag_is_shared_and_sticky() {
        let a = AwctBound::new();
        let b = a.clone();
        assert!(!a.preempted());
        b.preempt();
        assert!(a.preempted(), "preemption must be visible through clones");
        // A fresh bound starts clean.
        assert!(!AwctBound::new().preempted());
    }
}
