//! Ablation study: what each design choice of the deduction process buys.
//!
//! Three switches, evaluated on the machine where the paper's gains are
//! largest (4 clusters, 2-cycle non-pipelined bus):
//!
//! * `no-plc` — disable partially-linked communications (Rules 5–7). The
//!   paper credits its 2-cycle-bus gains to "the rules in the deduction
//!   process that treat resources and PLCs" (§6.2).
//! * `no-tighten` — keep resource contradiction detection but disable bound
//!   *tightening* (the edge-finding-lite foresight).
//! * `greedy-match` — replace stage 3's exact maximum-weight matching by the
//!   greedy 1/2-approximation (§4.4.1.2 uses an exact matcher via LEDA).
//!
//! Reported per variant: mean speed-up over CARS at the 4-minute threshold
//! and the fraction of blocks finishing within it.

use vcsched_arch::MachineConfig;
use vcsched_bench::{blocks_per_app, corpus_seed, jobs, run_block, STEPS_4M};
use vcsched_cars::CarsScheduler;
use vcsched_core::{Tuning, VcOptions, VcScheduler};
use vcsched_engine::scatter;
use vcsched_workload::{benchmarks, generate_block, live_in_placement, InputSet};

fn main() {
    let blocks = (blocks_per_app() / 2).max(10);
    let seed = corpus_seed();
    let machine = MachineConfig::paper_4c_16w_lat2();
    println!(
        "Ablations on {} ({blocks} blocks/app over 4 apps, seed {seed:#x})\n",
        machine.name()
    );
    let variants: Vec<(&str, Tuning)> = vec![
        ("baseline", Tuning::default()),
        (
            "no-plc",
            Tuning {
                disable_plc: true,
                ..Tuning::default()
            },
        ),
        (
            "no-tighten",
            Tuning {
                disable_resource_tightening: true,
                ..Tuning::default()
            },
        ),
        (
            "greedy-match",
            Tuning {
                greedy_matching: true,
                ..Tuning::default()
            },
        ),
    ];
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "variant", "speedup", "within-4m", "mean steps"
    );
    for (name, tuning) in variants {
        // A spread of four applications keeps the ablation affordable; the
        // (app x block) grid fans out over the engine's worker pool.
        let specs: Vec<_> = benchmarks().into_iter().step_by(4).collect();
        let per_block = scatter(specs.len() * blocks, jobs(), |idx| {
            let spec = &specs[idx / blocks];
            let i = idx % blocks;
            let sb = generate_block(spec, seed, i as u64, InputSet::Ref);
            let homes = live_in_placement(&sb, machine.cluster_count(), seed ^ i as u64);
            let cars = CarsScheduler::new(machine.clone()).schedule_with_live_ins(&sb, &homes);
            let vc = VcScheduler::with_options(
                machine.clone(),
                VcOptions {
                    max_dp_steps: STEPS_4M,
                    tuning,
                    ..VcOptions::default()
                },
            );
            let w = sb.weight() as f64;
            match vc.schedule_with_live_ins(&sb, &homes) {
                Ok(out) => (
                    cars.awct * w,
                    out.awct.min(cars.awct) * w,
                    true,
                    out.stats.spec.dp_steps,
                ),
                Err(_) => (cars.awct * w, cars.awct * w, false, 0),
            }
        });
        let mut cars_cycles = 0.0;
        let mut vc_cycles = 0.0;
        let mut within = 0usize;
        let mut total = 0usize;
        let mut steps_sum = 0u64;
        for (cars_w, vc_w, finished, steps) in per_block {
            cars_cycles += cars_w;
            vc_cycles += vc_w;
            if finished {
                within += 1;
                steps_sum += steps;
            }
            total += 1;
        }
        println!(
            "{:<14} {:>12.4} {:>11.1}% {:>12}",
            name,
            cars_cycles / vc_cycles,
            100.0 * within as f64 / total as f64,
            steps_sum / within.max(1) as u64,
        );
    }
    // `run_block` is the canonical driver; ensure the ad-hoc loop above and
    // the driver agree on at least one case.
    let spec = &benchmarks()[0];
    let sb = generate_block(spec, seed, 0, InputSet::Ref);
    let r = run_block(&sb, None, &machine, seed, STEPS_4M);
    println!(
        "\n(driver check: {} cars={:.2} vc={:?})",
        r.name, r.cars_awct, r.vc_awct
    );
}
