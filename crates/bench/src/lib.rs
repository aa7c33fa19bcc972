//! Experiment harness: drivers and aggregation for reproducing every
//! evaluation figure of the paper (Figures 10, 11 and 12), plus ablations.
//!
//! # Threshold model
//!
//! The paper compiles on a 1.2 GHz UltraSparc-IIIi and reports compile-time
//! buckets of 1 second / 1 minute / 4 minutes, falling back to CARS for
//! superblocks whose virtual-cluster compilation exceeds the threshold
//! (§6.1). Wall-clock thresholds are machine- and load-dependent, so this
//! harness uses the scheduler's deterministic *deduction-step* counter with
//! the same 1 : 60 : 240 ratio the paper's buckets have:
//!
//! | paper    | here (DP steps) |
//! |----------|-----------------|
//! | 1 second | 5,000           |
//! | 1 minute | 300,000         |
//! | 4 minutes| 1,200,000       |
//!
//! Each block is scheduled once with the largest budget; smaller thresholds
//! are evaluated post hoc from the recorded step count, which keeps the two
//! threshold series of Fig. 11 consistent by construction.
//!
//! # Fallback policy
//!
//! When the virtual-cluster scheduler exceeds the threshold (or fails), the
//! CARS schedule is used — the paper's policy. When both schedules exist,
//! these drivers also charge VC `min(VC, CARS)`: both costs are known
//! statically at compile time. That `min` departs from §6.1's rule, which
//! charges the VC schedule whenever it finishes; ROADMAP items 1 and 2
//! track the gap.

//! # Parallelism
//!
//! Every corpus driver fans its per-block work out over
//! `vcsched-engine`'s worker pool ([`vcsched_engine::scatter`]), so the
//! figure binaries use all cores. `VCSCHED_JOBS` overrides the worker
//! count (default: available parallelism); results are identical for any
//! value — the pool returns results in corpus order.

#![warn(missing_docs)]

use std::time::Duration;

use vcsched_arch::MachineConfig;
use vcsched_cars::CarsScheduler;
use vcsched_core::{VcError, VcOptions, VcScheduler};
use vcsched_ir::Superblock;
use vcsched_workload::{
    benchmarks, generate_block, live_in_placement, BenchmarkSpec, InputSet, Suite,
};

// The compile-time buckets live in the engine now (its batch policy uses
// them too); re-exported here so the figure binaries keep their imports.
pub use vcsched_engine::{STEPS_1M, STEPS_1S, STEPS_4M};

/// Result of scheduling one superblock with both schedulers.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Block name (`bench#index`).
    pub name: String,
    /// Execution count from the profile used for evaluation.
    pub weight: u64,
    /// CARS AWCT.
    pub cars_awct: f64,
    /// Virtual-cluster AWCT, if the scheduler finished within the largest
    /// budget.
    pub vc_awct: Option<f64>,
    /// Deduction steps the virtual-cluster scheduler consumed.
    pub vc_steps: u64,
    /// Wall time of the CARS run.
    pub cars_wall: Duration,
}

impl BlockResult {
    /// The AWCT charged to the virtual-cluster approach under a step
    /// threshold: the VC schedule if it finished within `threshold` steps
    /// and is no worse than CARS, otherwise the CARS schedule (fallback).
    fn vc_effective_awct(&self, threshold: u64) -> f64 {
        match self.vc_awct {
            Some(v) if self.vc_steps <= threshold => v.min(self.cars_awct),
            _ => self.cars_awct,
        }
    }

    /// Weighted cycles for CARS: `TC = AWCT · T`.
    pub fn cars_cycles(&self) -> f64 {
        self.cars_awct * self.weight as f64
    }

    /// Weighted cycles for the thresholded virtual-cluster approach.
    pub fn vc_cycles(&self, threshold: u64) -> f64 {
        self.vc_effective_awct(threshold) * self.weight as f64
    }
}

/// Schedules one block with both schedulers on `machine`.
///
/// `eval` optionally supplies a *different-input* profile (same block
/// structure, different probabilities/weights) used to *evaluate* the
/// schedules — the Fig. 12 methodology. `None` evaluates on the scheduling
/// profile itself.
pub fn run_block(
    sb: &Superblock,
    eval: Option<&Superblock>,
    machine: &MachineConfig,
    seed: u64,
    max_steps: u64,
) -> BlockResult {
    let homes = live_in_placement(sb, machine.cluster_count(), seed);
    let cars = CarsScheduler::new(machine.clone());
    let t0 = std::time::Instant::now();
    let cars_out = cars.schedule_with_live_ins(sb, &homes);
    let cars_wall = t0.elapsed();

    let vc = VcScheduler::with_options(
        machine.clone(),
        VcOptions {
            max_dp_steps: max_steps,
            ..VcOptions::default()
        },
    );
    let vc_res = vc.schedule_with_live_ins(sb, &homes);

    let scored = eval.unwrap_or(sb);
    let cars_awct = cars_out.schedule.awct(scored);
    let (vc_awct, vc_steps) = match vc_res {
        Ok(out) => (Some(out.schedule.awct(scored)), out.stats.dp_steps),
        // No cutoff or deadline is configured, so `Beaten` and
        // `Deadline` cannot occur; lump them with the give-up arms
        // rather than hiding a future bug behind an unreachable!.
        Err(VcError::BudgetExhausted)
        | Err(VcError::BumpLimitReached)
        | Err(VcError::Beaten)
        | Err(VcError::Deadline) => (None, max_steps + 1),
    };
    BlockResult {
        name: sb.name().to_owned(),
        weight: scored.weight(),
        cars_awct,
        vc_awct,
        vc_steps,
        cars_wall,
    }
}

/// Per-application aggregate over a corpus.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Application name.
    pub app: &'static str,
    /// Suite the application belongs to.
    pub suite: Suite,
    /// Per-block results.
    pub blocks: Vec<BlockResult>,
}

impl AppResult {
    /// Speed-up of the virtual-cluster approach over CARS at `threshold`
    /// steps: `Σ TC_CARS / Σ TC_VC` (total weighted cycles, §2.2/§6.2).
    pub fn speedup(&self, threshold: u64) -> f64 {
        let cars: f64 = self.blocks.iter().map(|b| b.cars_cycles()).sum();
        let vc: f64 = self.blocks.iter().map(|b| b.vc_cycles(threshold)).sum();
        if vc > 0.0 {
            cars / vc
        } else {
            1.0
        }
    }
}

/// Worker threads for corpus drivers: `VCSCHED_JOBS` or all cores.
pub fn jobs() -> usize {
    std::env::var("VCSCHED_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(vcsched_engine::default_jobs)
}

/// Runs one application's corpus on one machine, fanning blocks out over
/// the engine's worker pool (results stay in corpus order, so output is
/// identical for any worker count).
pub fn run_app(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    blocks: usize,
    seed: u64,
    max_steps: u64,
    cross_input: bool,
) -> AppResult {
    let results = vcsched_engine::scatter(blocks, jobs(), |i| {
        let (sched_profile, eval_profile) = if cross_input {
            // Fig. 12: schedule with the Train profile, evaluate on Ref.
            (
                generate_block(spec, seed, i as u64, InputSet::Train),
                Some(generate_block(spec, seed, i as u64, InputSet::Ref)),
            )
        } else {
            (generate_block(spec, seed, i as u64, InputSet::Ref), None)
        };
        run_block(
            &sched_profile,
            eval_profile.as_ref(),
            machine,
            seed ^ i as u64,
            max_steps,
        )
    });
    AppResult {
        app: spec.name,
        suite: spec.suite,
        blocks: results,
    }
}

/// Mean of per-application speed-ups (the paper's "Spec Mean" /
/// "Media Mean" / "Mean" bars).
pub fn mean_speedup(apps: &[AppResult], suite: Option<Suite>, threshold: u64) -> f64 {
    let sel: Vec<f64> = apps
        .iter()
        .filter(|a| suite.is_none_or(|s| a.suite == s))
        .map(|a| a.speedup(threshold))
        .collect();
    if sel.is_empty() {
        1.0
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

/// The standard corpus size per application used by the figure binaries.
/// The paper schedules >60,000 blocks (~4,300 per application); the default
/// here keeps a full three-machine sweep in CI-scale time. Raise via the
/// `VCSCHED_BLOCKS` environment variable for paper-scale runs.
pub fn blocks_per_app() -> usize {
    std::env::var("VCSCHED_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Shared corpus seed (`VCSCHED_SEED` overrides).
pub fn corpus_seed() -> u64 {
    std::env::var("VCSCHED_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC60_2007)
}

/// Runs the full 14-application corpus on one machine.
pub fn run_suite(
    machine: &MachineConfig,
    blocks: usize,
    seed: u64,
    cross_input: bool,
) -> Vec<AppResult> {
    benchmarks()
        .iter()
        .map(|spec| run_app(spec, machine, blocks, seed, STEPS_4M, cross_input))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_keep_paper_ratio() {
        assert_eq!(STEPS_1M / STEPS_1S, 60);
        assert_eq!(STEPS_4M / STEPS_1M, 4);
    }

    #[test]
    fn fallback_uses_cars_when_over_threshold() {
        let r = BlockResult {
            name: "t".into(),
            weight: 10,
            cars_awct: 8.0,
            vc_awct: Some(7.0),
            vc_steps: 100,
            cars_wall: Duration::ZERO,
        };
        assert_eq!(r.vc_effective_awct(1_000), 7.0);
        assert_eq!(r.vc_effective_awct(50), 8.0, "over threshold: CARS");
        let worse = BlockResult {
            vc_awct: Some(9.0),
            ..r.clone()
        };
        assert_eq!(
            worse.vc_effective_awct(1_000),
            8.0,
            "driver keeps the better"
        );
    }

    #[test]
    fn small_run_produces_sane_speedups() {
        let spec = vcsched_workload::benchmark("130.li").unwrap();
        let m = MachineConfig::paper_2c_8w();
        let app = run_app(&spec, &m, 6, 3, STEPS_1M, false);
        let s = app.speedup(STEPS_1M);
        assert!(s >= 1.0 - 1e-9, "driver never loses to CARS, got {s}");
        assert!(s < 2.0, "speed-ups are bounded, got {s}");
    }
}
