//! Determinism and safety suite for the online path.
//!
//! Two contracts guard the streaming scenario family:
//!
//! 1. **Replay determinism** — the online executor runs in *virtual*
//!    time, so the same seed and trace must produce byte-identical
//!    per-block outcomes (winner, awct, `deadline_fired`, shed/miss
//!    verdicts) at any worker-pool width. The sweep covers 1 and 4 plus
//!    the CI matrix's `VCSCHED_JOBS`.
//! 2. **No partial schedules** — a race whose deadline fires (priced
//!    step budget or a pre-fired wall-clock preemption bound) must
//!    still return a fully *validated* best-so-far schedule, or shed
//!    the event explicitly. There is no third state: nothing partial
//!    ever escapes the engine. (The pre-fired wall-clock preemption
//!    case races through the engine's crate-private bound-taking race,
//!    so it is checked in `vcsched-engine`'s own unit tests.)

use proptest::prelude::*;
use vcsched::arch::MachineConfig;
use vcsched::engine::{run_trace, schedule_block, OnlineOptions, PolicyOptions, PolicySet};
use vcsched::workload::{
    benchmarks, generate_block, live_in_placement, synthesize_trace, ArrivalProfile, InputSet,
    TraceOptions,
};

/// Worker counts to sweep: 1 and 4 always, plus `VCSCHED_JOBS` when CI
/// overrides it (the workflow matrix runs the suite under 1 and 8).
fn jobs_sweep() -> Vec<usize> {
    let mut jobs = vec![1, 4];
    if let Some(j) = std::env::var("VCSCHED_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !jobs.contains(&j) && j > 0 {
            jobs.push(j);
        }
    }
    jobs
}

fn online_options(jobs: usize) -> OnlineOptions {
    OnlineOptions {
        // A tight ceiling keeps the sweep fast while still letting
        // deadlines fire (the bench lane's tuned exchange rate).
        base_steps: 5_000,
        steps_per_ms: 10,
        jobs,
        ..OnlineOptions::default()
    }
}

/// Same seed + same trace ⇒ byte-identical per-block outcomes at every
/// pool width, for each arrival profile.
#[test]
fn replay_outcomes_are_byte_identical_across_jobs() {
    for profile in ArrivalProfile::all() {
        let trace = synthesize_trace(&TraceOptions {
            profile,
            events: 48,
            ..TraceOptions::default()
        });
        let mut reference: Option<(String, String)> = None;
        for jobs in jobs_sweep() {
            let (summary, results) = run_trace(&trace, &online_options(jobs));
            let result_bytes = serde_json::to_string(&results).expect("results serialize");
            // Wall-clock fields vary run to run; every virtual field
            // must not.
            let virt = format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{:?}",
                summary.events,
                summary.served,
                summary.shed,
                summary.misses,
                summary.deadline_fired,
                summary.virt_p50_ms,
                summary.virt_p99_ms,
                summary.virt_p999_ms,
                summary.per_priority,
            );
            match &reference {
                None => reference = Some((result_bytes, virt)),
                Some((expected_results, expected_virt)) => {
                    assert_eq!(
                        expected_results,
                        &result_bytes,
                        "{}: per-block outcomes differ at jobs={jobs}",
                        profile.name()
                    );
                    assert_eq!(
                        expected_virt,
                        &virt,
                        "{}: summary virtual fields differ at jobs={jobs}",
                        profile.name()
                    );
                }
            }
        }
    }
}

/// Every served event of a replay ends in exactly one of the declared
/// terminal states: shed (no schedule, empty winner) or served with a
/// winning validated schedule — `deadline_fired` never yields a hybrid.
#[test]
fn replay_outcomes_are_total() {
    let trace = synthesize_trace(&TraceOptions {
        profile: ArrivalProfile::AdversarialSpike,
        events: 48,
        // Near-zero slack forces floor budgets: most races deadline-fire.
        mean_slack_ms: 1,
        ..TraceOptions::default()
    });
    let (summary, results) = run_trace(&trace, &online_options(4));
    assert!(
        summary.deadline_fired > 0,
        "tight slack must fire deadlines"
    );
    for r in &results {
        if r.shed {
            assert!(r.winner.is_empty(), "shed event carries a winner");
            assert!(!r.deadline_fired, "shed event was never raced");
        } else {
            assert!(!r.winner.is_empty(), "served event without a winner");
            assert!(r.awct > 0.0, "served event without a validated awct");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fired deadline (priced step budget) still returns a validated
    /// schedule: dependence- and resource-clean on the machine, with a
    /// real AWCT — never a partial result.
    #[test]
    fn fired_deadline_returns_validated_schedule(
        spec_idx in 0usize..14,
        block in 0u64..40,
        deadline_steps in 1u64..2_000,
    ) {
        let spec = &benchmarks()[spec_idx];
        let machine = MachineConfig::paper_2c_8w();
        let sb = generate_block(spec, 41, block, InputSet::Ref);
        let homes = live_in_placement(&sb, machine.cluster_count(), block);
        let out = schedule_block(
            &sb,
            &machine,
            &homes,
            &PolicyOptions {
                max_dp_steps: 5_000,
                policies: PolicySet::full(),
                early_cancel: false,
                max_trail_bytes: None,
                deadline_steps: Some(deadline_steps),
            },
        );
        prop_assert!(!out.winner.is_empty());
        prop_assert!(out.awct > 0.0);
        prop_assert!(
            vcsched::sim::validate(&sb, &machine, &out.schedule).is_ok(),
            "deadline race leaked an invalid schedule on {}",
            sb.name()
        );
    }
}
