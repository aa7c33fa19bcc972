//! Property tests: schedule-validity invariants for every scheduler the
//! engine can race — vc (with CARS fallback), cars, uas, two-phase, and
//! the full portfolio — over synthesized superblocks.
//!
//! The invariants checked for every produced schedule:
//!
//! * **every op is issued exactly once** — the schedule's cycle and
//!   cluster vectors are dense over the block (one slot per instruction,
//!   no op missing, none duplicated), every cycle is non-negative and
//!   every cluster exists on the machine;
//! * **dependence constraints respected** — `vcsched-sim`'s validator
//!   checks every dependence edge, including cross-cluster data flow
//!   being routed through an in-time copy;
//! * **resource constraints respected** — the same validator checks
//!   per-cycle FU capacity, issue width, branch caps and bus bandwidth.
//!
//! One plain test also runs CARS schedules through the trace-driven
//! executor and checks the measured mean cycles against the static AWCT.

use proptest::prelude::*;
use vcsched::arch::MachineConfig;
use vcsched::baselines::{ClusterOrder, TwoPhaseScheduler, UasScheduler};
use vcsched::cars::CarsScheduler;
use vcsched::engine::{schedule_block, PolicyOptions, PolicySet, STEPS_1S};
use vcsched::ir::{Schedule, Superblock};
use vcsched::sim::{execute, ExecOptions};
use vcsched::workload::{benchmarks, generate_block, live_in_placement, InputSet};

fn machines() -> Vec<MachineConfig> {
    let mut m = MachineConfig::paper_eval_configs();
    m.push(MachineConfig::hetero_2c());
    m
}

/// The "issued exactly once" invariant plus machine-shape sanity; the
/// dependence and resource invariants are delegated to the validator.
fn assert_valid(tag: &str, sb: &Superblock, machine: &MachineConfig, schedule: &Schedule) {
    assert_eq!(
        schedule.cycles.len(),
        sb.len(),
        "{tag}: every op must get exactly one issue cycle on {}",
        sb.name()
    );
    assert_eq!(
        schedule.clusters.len(),
        sb.len(),
        "{tag}: every op must get exactly one cluster on {}",
        sb.name()
    );
    for id in sb.ids() {
        assert!(
            schedule.cycle(id) >= 0,
            "{tag}: op {id:?} of {} issued before cycle 0",
            sb.name()
        );
        assert!(
            (schedule.cluster(id).0 as usize) < machine.cluster_count(),
            "{tag}: op {id:?} of {} placed on a nonexistent cluster",
            sb.name()
        );
    }
    if let Err(violations) = vcsched::sim::validate(sb, machine, schedule) {
        panic!(
            "{tag}: dependence/resource violations on {} / {}: {violations:?}",
            sb.name(),
            machine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn policy_schedules_are_valid(
        spec_idx in 0usize..14,
        block in 0u64..40,
        machine_idx in 0usize..4,
        portfolio in any::<bool>(),
    ) {
        let spec = &benchmarks()[spec_idx];
        let machine = machines()[machine_idx].clone();
        let sb = generate_block(spec, 41, block, InputSet::Ref);
        let homes = live_in_placement(&sb, machine.cluster_count(), block);
        let out = schedule_block(
            &sb,
            &machine,
            &homes,
            &PolicyOptions {
                max_dp_steps: STEPS_1S,
                policies: if portfolio {
                    PolicySet::full()
                } else {
                    PolicySet::single()
                },
                early_cancel: false,
                max_trail_bytes: None,
                deadline_steps: None,
            },
        );
        assert_valid(
            if portfolio { "portfolio" } else { "policy" },
            &sb,
            &machine,
            &out.schedule,
        );
        prop_assert!(out.awct > 0.0);
        if !portfolio {
            prop_assert!(out.winner == "vc" || out.winner == "cars");
        }
        if out.vc_timed_out {
            prop_assert!(out.winner != "vc");
        }
    }

    #[test]
    fn cars_schedules_are_valid(
        spec_idx in 0usize..14,
        block in 0u64..40,
        machine_idx in 0usize..4,
    ) {
        let spec = &benchmarks()[spec_idx];
        let machine = machines()[machine_idx].clone();
        let sb = generate_block(spec, 43, block, InputSet::Ref);
        let homes = live_in_placement(&sb, machine.cluster_count(), block);
        let out = CarsScheduler::new(machine.clone()).schedule_with_live_ins(&sb, &homes);
        assert_valid("cars", &sb, &machine, &out.schedule);
        prop_assert!(out.awct > 0.0);
    }

    #[test]
    fn uas_schedules_are_valid(
        spec_idx in 0usize..14,
        block in 0u64..40,
        machine_idx in 0usize..4,
    ) {
        let spec = &benchmarks()[spec_idx];
        let machine = machines()[machine_idx].clone();
        let sb = generate_block(spec, 47, block, InputSet::Ref);
        let homes = live_in_placement(&sb, machine.cluster_count(), block);
        let out = UasScheduler::new(machine.clone(), ClusterOrder::Cwp)
            .schedule_with_live_ins(&sb, &homes);
        assert_valid("uas", &sb, &machine, &out.schedule);
    }

    #[test]
    fn two_phase_schedules_are_valid(
        spec_idx in 0usize..14,
        block in 0u64..40,
        machine_idx in 0usize..4,
    ) {
        let spec = &benchmarks()[spec_idx];
        let machine = machines()[machine_idx].clone();
        let sb = generate_block(spec, 53, block, InputSet::Ref);
        let homes = live_in_placement(&sb, machine.cluster_count(), block);
        let out = TwoPhaseScheduler::new(machine.clone()).schedule_with_live_ins(&sb, &homes);
        assert_valid("two-phase", &sb, &machine, &out.schedule);
    }
}

#[test]
fn dynamic_executor_agrees_with_static_awct_on_workload_blocks() {
    let machine = MachineConfig::paper_4c_16w_lat2();
    let cars = CarsScheduler::new(machine.clone());
    for spec in benchmarks().iter().take(12) {
        // A single-exit block runs the same path every iteration, so
        // take the first block with a side exit for the executor to sample.
        let sb = (0..)
            .map(|index| generate_block(spec, 59, index, InputSet::Ref))
            .find(|sb| sb.exits().count() >= 2)
            .expect("every application yields multi-exit blocks");
        let out = cars.schedule(&sb);
        let report = execute(
            &sb,
            &machine,
            &out.schedule,
            &ExecOptions {
                iterations: 40_000,
                ..ExecOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", sb.name()));
        let tol = 0.05 * report.static_awct.max(1.0);
        assert!(
            (report.mean_cycles - report.static_awct).abs() <= tol,
            "{}: dynamic {} vs static {}",
            sb.name(),
            report.mean_cycles,
            report.static_awct
        );
    }
}
