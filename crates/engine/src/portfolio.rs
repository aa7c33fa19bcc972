//! Per-block scheduling policy: an arbitrary set of registered
//! [`SchedulePolicy`] implementations raced to the best validated AWCT.
//!
//! * The **default set** (`vc,cars`) mirrors the paper exactly: run the
//!   virtual-cluster scheduler under a deduction-step budget with CARS
//!   riding along; when both schedules exist the better (lower validated
//!   AWCT) one is kept (§6.1).
//! * The **full portfolio** (`vc,cars,uas,two-phase`) additionally races
//!   the UAS (CWP order) and two-phase baselines.
//! * Any other subset can be selected per request (`--policies`, the
//!   service protocol's `"policies"` field); members resolve through the
//!   [`PolicyRegistry`](crate::PolicyRegistry) the set carries.
//!
//! The race is deterministic: single-pass policies run one after another
//! in set order on the calling thread, every candidate is validated by
//! `vcsched-sim`, and ties break toward the earlier entry of the set's
//! canonical order. Parallelism comes from the block level instead (the
//! batch scatter and the service's submit pool each solve many blocks at
//! once), so a per-block thread fan-out would only add thread create/join
//! cost and oversubscribe the workers. With
//! [`PolicyOptions::early_cancel`] the validated single-pass results are
//! sealed into a shared [`AwctBound`] *before* the exhaustive stage, so
//! an exhaustive policy (VC) whose certified lower bound is already
//! beaten abandons the search — deterministically, because the bound is
//! fixed when it starts. If every selected policy abandons, CARS is
//! invoked as the §6.1 fallback even when it is not in the set, so a
//! schedule is always produced.

use serde::{Deserialize, Serialize};
use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::{Schedule, Superblock};
use vcsched_policy::{AwctBound, PolicyBudget, PolicyFallback, PolicyOutcome, SchedulePolicy};
use vcsched_sim::validate;

use crate::registry::PolicySet;

/// Per-block policy options.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOptions {
    /// Deduction-step budget for exhaustive policies (the compile-time
    /// threshold of §6.1; see [`crate::STEPS_4M`] and friends).
    pub max_dp_steps: u64,
    /// Optional trail-work budget in bytes of state touched by deduction
    /// mutations (`--budget-bytes`); `None` leaves exhaustive policies
    /// bounded by `max_dp_steps` alone.
    pub max_trail_bytes: Option<u64>,
    /// The policies to race, in canonical tie-break order.
    pub policies: PolicySet,
    /// Seal the validated single-pass results into a shared best-AWCT
    /// bound before the exhaustive stage, letting a provably beaten
    /// search abandon its remaining work. Never changes which schedule
    /// wins (cancellation requires a *strictly* better schedule in
    /// hand); it does change the loser's step/fallback telemetry, so it
    /// is part of the cache key. Off by default to keep the §6.1
    /// telemetry byte-identical.
    pub early_cancel: bool,
    /// Deterministic deadline in deduction steps for exhaustive policies:
    /// the attempt aborts with [`PolicyFallback::Deadline`] once it has
    /// spent this many steps, and the race returns its best-so-far
    /// validated schedule. `None` (the default, and the whole offline
    /// path) leaves behaviour and cache keys untouched.
    pub deadline_steps: Option<u64>,
}

impl Default for PolicyOptions {
    fn default() -> Self {
        PolicyOptions {
            max_dp_steps: crate::STEPS_4M,
            max_trail_bytes: None,
            policies: PolicySet::single(),
            early_cancel: false,
            deadline_steps: None,
        }
    }
}

/// Per-policy telemetry for one block: what each racer member did, won
/// or lost.
///
/// Equality ignores `wall_ms` (wall-clock legitimately varies between
/// identical runs; everything else is deterministic).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyStat {
    /// Policy name (registry identity).
    pub policy: String,
    /// Deduction steps consumed (0 for single-pass policies).
    pub steps: u64,
    /// Validated AWCT of this policy's candidate (`None`: no schedule,
    /// or the schedule failed machine-level validation).
    pub awct: Option<f64>,
    /// Whether (and why) the policy took its fallback.
    pub fallback: PolicyFallback,
    /// Wall-clock the policy spent, in milliseconds.
    pub wall_ms: u64,
}

impl PolicyStat {
    /// Whether this stat records an abandoned attempt — the single
    /// definition of "fallback taken" shared by batch summaries and the
    /// submit pool's lifetime counters.
    pub fn gave_up(&self) -> bool {
        self.fallback != PolicyFallback::None
    }
}

impl PartialEq for PolicyStat {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.steps == other.steps
            && self.awct == other.awct
            && self.fallback == other.fallback
    }
}

/// Outcome of scheduling one block under the policy set.
///
/// Equality ignores `vc_spec`: it describes the work of one race, and a
/// cache hit, which did none, carries zeros.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Name of the policy that won (always a registry name; `"cars"`
    /// even outside the set when the §6.1 fallback fired).
    pub winner: String,
    /// Validated AWCT of the winning schedule.
    pub awct: f64,
    /// Deduction steps VC consumed, when `vc` raced (legacy §6.1
    /// accounting: `max_dp_steps + 1` marks a burnt budget; 0 when `vc`
    /// was not in the set).
    pub vc_steps: u64,
    /// Whether VC gave up (budget or bump limit) and the fallback won
    /// instead. An early-cancelled VC is *not* a timeout — it was beaten,
    /// not exhausted.
    pub vc_timed_out: bool,
    /// The winning schedule.
    pub schedule: Schedule,
    /// Per-policy telemetry, in set order (plus a trailing `cars` entry
    /// if the implicit fallback fired).
    pub policy_stats: Vec<PolicyStat>,
    /// What the `vc` member's attempt did (zeros when `vc` did not race
    /// or the cache answered). Never journaled.
    pub vc_spec: vcsched_policy::SpecStats,
}

impl PartialEq for BlockOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.winner == other.winner
            && self.awct == other.awct
            && self.vc_steps == other.vc_steps
            && self.vc_timed_out == other.vc_timed_out
            && self.schedule == other.schedule
            && self.policy_stats == other.policy_stats
    }
}

impl BlockOutcome {
    /// Whether a deadline fired mid-race (a policy abandoned with
    /// [`PolicyFallback::Deadline`]) and the outcome is therefore the
    /// best-so-far validated schedule rather than a full race's. Derived
    /// from the per-policy telemetry, so offline serialization is
    /// untouched.
    pub fn deadline_fired(&self) -> bool {
        self.policy_stats
            .iter()
            .any(|s| s.fallback == PolicyFallback::Deadline)
    }
}

/// One raced policy's full result: trait outcome plus validation.
struct Raced {
    name: String,
    outcome: PolicyOutcome,
    /// `Some((validated AWCT, schedule))` when the candidate passed
    /// machine-level validation. An invalid candidate is dropped, never
    /// surfaced: the race guarantees every returned schedule validated.
    candidate: Option<(f64, Schedule)>,
}

fn race_one(
    policy: &dyn SchedulePolicy,
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    budget: &PolicyBudget,
) -> Raced {
    let mut outcome = policy.schedule(sb, machine, homes, budget);
    // Move (never clone) the schedule into the candidate slot once it
    // validates; an invalid candidate is dropped entirely.
    let candidate = outcome.schedule.take().and_then(|schedule| {
        validate(sb, machine, &schedule)
            .ok()
            .map(|report| (report.awct, schedule))
    });
    Raced {
        name: policy.name().to_owned(),
        outcome,
        candidate,
    }
}

fn stat_of(raced: &Raced) -> PolicyStat {
    PolicyStat {
        policy: raced.name.clone(),
        steps: raced.outcome.steps,
        awct: raced.candidate.as_ref().map(|&(awct, _)| awct),
        fallback: raced.outcome.fallback,
        wall_ms: raced.outcome.wall.as_millis() as u64,
    }
}

/// Schedules one block under the policy set, constructing its members
/// through the set's registry. `homes` pins the block's live-ins to
/// register files; every racer member receives the same placement
/// (§6.1). This is the one public uncached race; [`crate::solve_one`]
/// is the cached solve around it.
pub fn schedule_block(
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    options: &PolicyOptions,
) -> BlockOutcome {
    schedule_block_bound(sb, machine, homes, options, &AwctBound::new())
}

/// [`schedule_block`] with a caller-supplied [`AwctBound`]: the
/// preemptible race behind the cached solve. A wall-clock deadline timer
/// holding a clone of `bound` can call [`AwctBound::preempt`] mid-race;
/// every policy sharing it aborts with [`PolicyFallback::Deadline`] and
/// the race returns its best-so-far validated schedule (the implicit
/// CARS fallback guarantees one exists).
pub(crate) fn schedule_block_bound(
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    options: &PolicyOptions,
    bound: &AwctBound,
) -> BlockOutcome {
    let policies = options.policies.create_all();

    let bound = bound.clone();
    let budget = PolicyBudget {
        max_dp_steps: options.max_dp_steps,
        max_trail_bytes: options.max_trail_bytes,
        best: bound.clone(),
        deadline_steps: options.deadline_steps,
    };

    // Stage 1: single-pass policies run in set order on this thread.
    // Stage 2: exhaustive policies run with the stage-1 results already
    // validated — and, under `early_cancel`, sealed into the shared
    // bound. Sealing *between* the stages is what keeps cancellation
    // deterministic: the bound an exhaustive policy sees is fixed before
    // it starts.
    let mut raced: Vec<Option<Raced>> = policies
        .iter()
        .map(|p| (!p.exhaustive()).then(|| race_one(p.as_ref(), sb, machine, homes, &budget)))
        .collect();
    if options.early_cancel {
        for r in raced.iter().flatten() {
            if let Some(&(awct, _)) = r.candidate.as_ref() {
                bound.record(awct);
            }
        }
    }
    for (i, p) in policies.iter().enumerate() {
        if p.exhaustive() {
            let r = race_one(p.as_ref(), sb, machine, homes, &budget);
            if options.early_cancel {
                if let Some(&(awct, _)) = r.candidate.as_ref() {
                    bound.record(awct);
                }
            }
            raced[i] = Some(r);
        }
    }
    let mut raced: Vec<Raced> = raced
        .into_iter()
        .map(|r| r.expect("every set member raced"))
        .collect();

    // Best validated AWCT; ties keep the earliest entry of the set's
    // canonical order, so outcomes are deterministic.
    let best = raced
        .iter()
        .filter_map(|r| {
            r.candidate
                .as_ref()
                .map(|&(awct, _)| (r.name.clone(), awct))
        })
        .reduce(|best, next| if next.1 < best.1 { next } else { best });

    // §6.1 fallback: if every selected policy abandoned (e.g. a vc-only
    // set past its budget), CARS — which cannot fail — schedules the
    // block, exactly as the paper does past its thresholds.
    let (winner, awct) = match best {
        Some(x) => x,
        None => {
            let fallback = race_one(
                &vcsched_cars::CarsPolicy,
                sb,
                machine,
                homes,
                &PolicyBudget::steps(options.max_dp_steps),
            );
            let (awct, _) = *fallback
                .candidate
                .as_ref()
                .expect("CARS always yields a valid schedule");
            raced.push(fallback);
            ("cars".to_owned(), awct)
        }
    };
    let policy_stats: Vec<PolicyStat> = raced.iter().map(stat_of).collect();
    let schedule = raced
        .iter_mut()
        .find(|r| r.name == winner && r.candidate.as_ref().is_some_and(|&(a, _)| a == awct))
        .and_then(|r| r.candidate.take().map(|(_, s)| s))
        .expect("winner came from the raced candidates");

    let vc = raced.iter().find(|r| r.name == "vc");
    BlockOutcome {
        winner,
        awct,
        vc_steps: vc.map_or(0, |r| r.outcome.steps),
        vc_timed_out: vc.is_some_and(|r| {
            matches!(
                r.outcome.fallback,
                PolicyFallback::Budget | PolicyFallback::GaveUp
            )
        }),
        schedule,
        policy_stats,
        vc_spec: vc.map(|r| r.outcome.spec).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsched_workload::{benchmark, generate_block, live_in_placement, InputSet};

    fn fixture() -> (Superblock, MachineConfig, Vec<ClusterId>) {
        let spec = benchmark("099.go").expect("known benchmark");
        let sb = generate_block(&spec, 7, 3, InputSet::Ref);
        let machine = MachineConfig::paper_2c_8w();
        let homes = live_in_placement(&sb, machine.cluster_count(), 7);
        (sb, machine, homes)
    }

    fn opts(steps: u64, policies: PolicySet) -> PolicyOptions {
        PolicyOptions {
            max_dp_steps: steps,
            policies,
            ..PolicyOptions::default()
        }
    }

    #[test]
    fn single_mode_mirrors_paper_fallback_policy() {
        let (sb, machine, homes) = fixture();
        let out = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(crate::STEPS_1M, PolicySet::single()),
        );
        assert!(out.winner == "vc" || out.winner == "cars");
        assert!(validate(&sb, &machine, &out.schedule).is_ok());
        if out.vc_timed_out {
            assert_eq!(out.winner, "cars");
        }
        assert_eq!(out.policy_stats.len(), 2);
        assert_eq!(out.policy_stats[0].policy, "vc");
        assert_eq!(out.policy_stats[1].policy, "cars");
    }

    #[test]
    fn zero_budget_forces_cars_fallback() {
        let (sb, machine, homes) = fixture();
        let out = schedule_block(&sb, &machine, &homes, &opts(0, PolicySet::single()));
        assert!(out.vc_timed_out);
        assert_eq!(out.winner, "cars");
        assert_eq!(out.vc_steps, 1);
        assert_eq!(out.policy_stats[0].fallback, PolicyFallback::Budget);
    }

    #[test]
    fn portfolio_never_loses_to_single_mode() {
        let (sb, machine, homes) = fixture();
        let single = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(crate::STEPS_1M, PolicySet::single()),
        );
        let port = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(crate::STEPS_1M, PolicySet::full()),
        );
        assert!(port.awct <= single.awct + 1e-9);
        assert!(validate(&sb, &machine, &port.schedule).is_ok());
        assert_eq!(port.policy_stats.len(), 4);
    }

    #[test]
    fn outcome_is_deterministic() {
        let (sb, machine, homes) = fixture();
        let o = opts(crate::STEPS_1S, PolicySet::full());
        let a = schedule_block(&sb, &machine, &homes, &o);
        let b = schedule_block(&sb, &machine, &homes, &o);
        assert_eq!(a, b);
    }

    #[test]
    fn vc_only_set_falls_back_to_cars_when_exhausted() {
        let (sb, machine, homes) = fixture();
        let out = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(0, PolicySet::parse("vc").expect("vc alone is a valid set")),
        );
        assert_eq!(out.winner, "cars", "implicit §6.1 fallback");
        assert!(validate(&sb, &machine, &out.schedule).is_ok());
        // Telemetry shows both the abandoned vc and the fallback cars.
        assert_eq!(out.policy_stats.len(), 2);
        assert_eq!(out.policy_stats[0].policy, "vc");
        assert_eq!(out.policy_stats[0].fallback, PolicyFallback::Budget);
        assert_eq!(out.policy_stats[1].policy, "cars");
    }

    #[test]
    fn subsets_race_only_their_members() {
        let (sb, machine, homes) = fixture();
        let out = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(
                crate::STEPS_1S,
                PolicySet::parse("uas,two-phase").expect("baseline-only set"),
            ),
        );
        assert!(out.winner == "uas" || out.winner == "two-phase");
        assert_eq!(out.vc_steps, 0, "vc did not race");
        assert!(!out.vc_timed_out);
        let names: Vec<&str> = out.policy_stats.iter().map(|s| s.policy.as_str()).collect();
        assert_eq!(names, vec!["uas", "two-phase"]);
    }

    #[test]
    fn early_cancel_preserves_winner_and_awct() {
        let (sb, machine, homes) = fixture();
        let plain = schedule_block(
            &sb,
            &machine,
            &homes,
            &opts(crate::STEPS_1S, PolicySet::full()),
        );
        let cancel = schedule_block(
            &sb,
            &machine,
            &homes,
            &PolicyOptions {
                early_cancel: true,
                ..opts(crate::STEPS_1S, PolicySet::full())
            },
        );
        // Cancellation may change the losers' telemetry, never the
        // result.
        assert_eq!(plain.winner, cancel.winner);
        assert_eq!(plain.awct, cancel.awct);
        assert_eq!(plain.schedule, cancel.schedule);
        // And it is itself deterministic.
        let again = schedule_block(
            &sb,
            &machine,
            &homes,
            &PolicyOptions {
                early_cancel: true,
                ..opts(crate::STEPS_1S, PolicySet::full())
            },
        );
        assert_eq!(cancel, again);
    }

    /// A wall-clock preemption that fires *before* the race even starts
    /// (the harshest deadline) still yields a validated best-so-far
    /// schedule through the implicit CARS fallback, on every benchmark.
    #[test]
    fn prefired_preemption_still_validates() {
        let machine = MachineConfig::paper_2c_8w();
        let options = opts(5_000, PolicySet::full());
        let specs = vcsched_workload::benchmarks();
        assert_eq!(specs.len(), 14);
        for spec in &specs {
            for block in 0..40 {
                let sb = generate_block(spec, 41, block, InputSet::Ref);
                let homes = live_in_placement(&sb, machine.cluster_count(), block);
                let bound = AwctBound::new();
                bound.preempt();
                let out = schedule_block_bound(&sb, &machine, &homes, &options, &bound);
                assert!(!out.winner.is_empty());
                assert!(out.awct > 0.0);
                assert!(
                    validate(&sb, &machine, &out.schedule).is_ok(),
                    "preempted race leaked an invalid schedule on {}",
                    sb.name()
                );
            }
        }
    }
}
