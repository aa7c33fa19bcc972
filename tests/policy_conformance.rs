//! Trait-conformance over the golden corpus: every registered policy
//! must produce a **byte-identical** schedule through the
//! `dyn SchedulePolicy` interface and through its concrete scheduler's
//! own API. The trait is plumbing, never a behavior change.
//!
//! Also exercises the custom-policy path: registering a new policy is
//! one impl plus one `register` call, and the racer then treats it like
//! any built-in.

use std::path::PathBuf;

use vcsched::arch::{ClusterId, MachineConfig};
use vcsched::baselines::{ClusterOrder, TwoPhaseScheduler, UasScheduler};
use vcsched::cars::CarsScheduler;
use vcsched::core::{VcOptions, VcScheduler};
use vcsched::engine::{
    schedule_block, PolicyBudget, PolicyOptions, PolicyRegistry, PolicySet, SchedulePolicy,
    STEPS_1S,
};
use vcsched::ir::{Schedule, Superblock};
use vcsched::workload::live_in_placement;

fn golden_blocks() -> Vec<Superblock> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_corpus.jsonl");
    vcsched::engine::corpus::CorpusSource::Jsonl(path)
        .load()
        .expect("golden corpus loads")
}

fn schedule_bytes(s: &Schedule) -> String {
    serde_json::to_string(s).expect("schedules serialize")
}

/// Runs `name` through the trait object and compares against the
/// concrete scheduler's result for the same problem.
fn assert_conforms(
    name: &str,
    direct: impl Fn(&Superblock, &MachineConfig, &[ClusterId]) -> Option<Schedule>,
) {
    let machine = MachineConfig::paper_2c_8w();
    let policy = PolicyRegistry::builtin().create(name).expect("registered");
    for (i, sb) in golden_blocks().iter().enumerate() {
        let homes = live_in_placement(sb, machine.cluster_count(), i as u64);
        let budget = PolicyBudget::steps(STEPS_1S);
        let via_trait = policy.schedule(sb, &machine, &homes, &budget);
        let via_concrete = direct(sb, &machine, &homes);
        match (via_trait.schedule, via_concrete) {
            (Some(a), Some(b)) => assert_eq!(
                schedule_bytes(&a),
                schedule_bytes(&b),
                "{name}: trait and concrete schedules differ on {}",
                sb.name()
            ),
            (None, None) => {} // both gave up (e.g. vc past its budget)
            (a, b) => panic!(
                "{name}: trait produced {:?} but concrete produced {:?} on {}",
                a.map(|_| "a schedule"),
                b.map(|_| "a schedule"),
                sb.name()
            ),
        }
    }
}

#[test]
fn vc_trait_matches_concrete_over_golden_corpus() {
    assert_conforms("vc", |sb, machine, homes| {
        VcScheduler::with_options(
            machine.clone(),
            VcOptions {
                max_dp_steps: STEPS_1S,
                ..VcOptions::default()
            },
        )
        .schedule_with_live_ins(sb, homes)
        .ok()
        .map(|out| out.schedule)
    });
}

#[test]
fn cars_trait_matches_concrete_over_golden_corpus() {
    assert_conforms("cars", |sb, machine, homes| {
        Some(
            CarsScheduler::new(machine.clone())
                .schedule_with_live_ins(sb, homes)
                .schedule,
        )
    });
}

#[test]
fn uas_trait_matches_concrete_over_golden_corpus() {
    assert_conforms("uas", |sb, machine, homes| {
        Some(
            UasScheduler::new(machine.clone(), ClusterOrder::Cwp)
                .schedule_with_live_ins(sb, homes)
                .schedule,
        )
    });
}

#[test]
fn two_phase_trait_matches_concrete_over_golden_corpus() {
    assert_conforms("two-phase", |sb, machine, homes| {
        Some(
            TwoPhaseScheduler::new(machine.clone())
                .schedule_with_live_ins(sb, homes)
                .schedule,
        )
    });
}

/// A custom policy: CARS under another name — what a downstream scheduler
/// plugin looks like. One impl + one `register` call makes it raceable.
#[derive(Debug, Clone, Copy)]
struct EchoCars;

impl SchedulePolicy for EchoCars {
    fn name(&self) -> &'static str {
        "echo-cars"
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        _budget: &PolicyBudget,
    ) -> vcsched::engine::PolicyOutcome {
        let t0 = std::time::Instant::now();
        let out = CarsScheduler::new(machine.clone()).schedule_with_live_ins(block, homes);
        vcsched::engine::PolicyOutcome::solved(out.schedule, out.awct, 0, t0.elapsed())
    }
}

#[test]
fn custom_policies_race_through_the_registry() {
    let mut registry = PolicyRegistry::with_builtins();
    registry
        .register("echo-cars", "test double of CARS", || Box::new(EchoCars))
        .expect("fresh name registers");
    // A set carries the registry it was validated against, for the
    // life of the process.
    let registry: &'static PolicyRegistry = Box::leak(Box::new(registry));

    let machine = MachineConfig::paper_2c_8w();
    let sb = golden_blocks().into_iter().next().expect("a block");
    let homes = live_in_placement(&sb, machine.cluster_count(), 0);
    let options = PolicyOptions {
        max_dp_steps: STEPS_1S,
        policies: PolicySet::parse_with("cars,echo-cars", registry).expect("custom set"),
        early_cancel: false,
        max_trail_bytes: None,
        deadline_steps: None,
    };
    let out = schedule_block(&sb, &machine, &homes, &options);
    // Identical algorithms: cars wins the tie by canonical set order.
    assert_eq!(out.winner, "cars");
    let names: Vec<&str> = out.policy_stats.iter().map(|s| s.policy.as_str()).collect();
    assert_eq!(names, vec!["cars", "echo-cars"]);
    let awcts: Vec<Option<f64>> = out.policy_stats.iter().map(|s| s.awct).collect();
    assert_eq!(awcts[0], awcts[1], "same algorithm, same validated AWCT");
}
