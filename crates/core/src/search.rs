//! AWCT enumeration (§4.1–§4.2) and schedule extraction (§4.5).

use std::sync::Arc;

use vcsched_arch::ClusterId;
use vcsched_ir::{CopyOp, ExitTargets, InstId, Schedule, Superblock};

use crate::combination::CombRange;
use crate::dp::{Budget, DpAbort};
use crate::init::{sg_windows, StateArena};
use crate::stages::{run_all_stages_indexed, StageFail};
use crate::state::{CommKind, EdgeState, SchedulingState, StateCtx};

/// Result of a successful search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The extracted schedule.
    pub schedule: Schedule,
    /// Achieved AWCT (≤ the target AWCT that admitted the schedule).
    pub awct: f64,
    /// The enhanced minimum AWCT the enumeration started from (§4.2).
    pub min_awct: f64,
    /// Number of AWCT increases performed.
    pub bumps: u32,
}

/// Why the search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchFail {
    /// Step or wall-clock budget exhausted — the caller applies the paper's
    /// fallback (schedule with the baseline instead, §6.1).
    Budget,
    /// The AWCT bump limit was reached without finding a schedule.
    BumpLimit,
    /// The caller's AWCT cutoff proved the search can only lose: the
    /// certified lower bound strictly exceeds a schedule already in hand.
    /// Fired either up front (enhanced minAWCT, §4.2) or mid-search on an
    /// AWCT bump whose failed target the deduction process *certified*
    /// infeasible (single-exit blocks, where target → AWCT dominance is
    /// exact).
    Beaten,
}

/// Maximum per-exit enhancement iterations in the minAWCT computation.
const MAX_ENHANCE_STEPS: i64 = 48;

/// Computes the enhanced minAWCT exit targets (§4.2): per exit, the smallest
/// target that survives the deduction process with all other exits
/// unconstrained.
fn enhanced_min_targets(
    ctx: &Arc<StateCtx>,
    windows: &[(usize, usize, CombRange)],
    live_in_homes: &[ClusterId],
    budget: &mut Budget,
    arena: &mut StateArena,
) -> Result<Vec<i64>, DpAbort> {
    let mut span = vcsched_obs::span!("vc_minawct");
    let mut probes = 0u64;
    let out = enhanced_min_targets_inner(ctx, windows, live_in_homes, budget, arena, &mut probes);
    budget.probes += probes;
    span.field("probes", probes);
    span.field("ok", out.is_ok());
    out
}

fn enhanced_min_targets_inner(
    ctx: &Arc<StateCtx>,
    windows: &[(usize, usize, CombRange)],
    live_in_homes: &[ClusterId],
    budget: &mut Budget,
    arena: &mut StateArena,
    probes: &mut u64,
) -> Result<Vec<i64>, DpAbort> {
    let exits = ctx.dg.exits().to_vec();
    let n = ctx.n_insts;
    // Resource-aware starting point: one build with every exit
    // unconstrained lets the resource rules tighten exit earliest starts
    // (dependence-only bounds are hopeless for, say, 78 int ops on 4 int
    // units). This is the bulk of the §4.2 enhancement in a single pass.
    let slack_horizon = {
        let dep_cycles = ctx.dg.min_exit_cycles();
        let ops = ctx.n_insts as i64;
        horizon_for(ctx, &dep_cycles) + ops
    };
    let unconstrained: Vec<i64> = vec![slack_horizon; n];
    *probes += 1;
    let mut targets: Vec<i64> = match arena.build(
        ctx,
        windows,
        &unconstrained,
        slack_horizon,
        live_in_homes,
        budget,
    ) {
        Ok(st) => exits
            .iter()
            .map(|&x| st.est[x.index()].max(ctx.dg.estart(x)))
            .collect(),
        Err(DpAbort::Budget) => return Err(DpAbort::Budget),
        Err(DpAbort::Contradiction(_)) => exits.iter().map(|&x| ctx.dg.estart(x)).collect(),
    };
    for k in 0..exits.len() {
        let mut steps = 0;
        loop {
            // Latest starts with only exit k constrained.
            let lstarts: Vec<i64> = (0..n)
                .map(|u| match ctx.dg.dist_to_exit(InstId(u as u32), k) {
                    Some(d) => targets[k] - d,
                    None => slack_horizon,
                })
                .collect();
            *probes += 1;
            match arena.build(ctx, windows, &lstarts, slack_horizon, live_in_homes, budget) {
                Ok(_) => break,
                Err(DpAbort::Budget) => return Err(DpAbort::Budget),
                Err(DpAbort::Contradiction(_)) => {
                    targets[k] += 1;
                    steps += 1;
                    if steps >= MAX_ENHANCE_STEPS {
                        break; // keep the refined lower bound found so far
                    }
                }
            }
        }
    }
    // Exit order consistency: a later exit can never precede what an
    // earlier one forces.
    for k in 0..exits.len() {
        for j in 0..exits.len() {
            if j != k {
                if let Some(d) = ctx.dg.dist_to_exit(exits[k], j) {
                    if targets[k] + d > targets[j] {
                        targets[j] = targets[k] + d;
                    }
                }
            }
        }
    }
    Ok(targets)
}

fn horizon_for(ctx: &StateCtx, targets: &[i64]) -> i64 {
    let max_target = targets.iter().copied().max().unwrap_or(0);
    // Communications never need to start after the last consumer's lstart,
    // which is below the last exit target; a small margin keeps anchors and
    // defensive clamps out of the way.
    max_target + ctx.machine.bus_latency() as i64 + 2
}

/// Bumps the targets per the §4.2 rule: raise the lowest-probability exit
/// whose increase does not force any other exit to move; if every exit
/// forces others, raise the cheapest and cascade. `amount` grows after
/// repeated failures so resource-starved blocks converge in bounded
/// attempts (a compile-time concession; the paper always steps minimally).
fn bump_targets(ctx: &StateCtx, targets: &mut [i64], probs: &[f64], amount: i64) {
    let exits = ctx.dg.exits();
    let free = |k: usize, targets: &[i64]| -> bool {
        (0..exits.len()).all(|j| {
            j == k
                || match ctx.dg.dist_to_exit(exits[k], j) {
                    Some(d) => targets[k] + 1 + d <= targets[j],
                    None => true,
                }
        })
    };
    let candidate = (0..exits.len())
        .filter(|&k| free(k, targets))
        .min_by(|&a, &b| probs[a].partial_cmp(&probs[b]).expect("finite probs"));
    match candidate {
        Some(k) => targets[k] += amount,
        None => {
            let k = (0..exits.len())
                .min_by(|&a, &b| probs[a].partial_cmp(&probs[b]).expect("finite probs"))
                .expect("superblocks have exits");
            targets[k] += amount;
            // Cascade the forced increases.
            for j in 0..exits.len() {
                if j != k {
                    if let Some(d) = ctx.dg.dist_to_exit(exits[k], j) {
                        targets[j] = targets[j].max(targets[k] + d);
                    }
                }
            }
        }
    }
}

/// Extracts the final schedule (§4.5): every instruction pinned and mapped,
/// every combination resolved, every live communication pinned.
fn extract(st: &mut SchedulingState) -> Result<Schedule, StageFail> {
    let n = st.ctx.n_insts;
    for node in 0..n {
        if !st.pinned(node) {
            return Err(StageFail::Restart);
        }
    }
    for e in &st.edges {
        if matches!(e.state, EdgeState::Open(_)) {
            return Err(StageFail::Restart);
        }
    }
    let mut clusters = Vec::with_capacity(n);
    for node in 0..n {
        match st.cluster_of(node) {
            Some(c) => clusters.push(c),
            None => return Err(StageFail::Restart),
        }
    }
    let mut copies = Vec::new();
    for ci in 0..st.comms.len() {
        let node = st.comms[ci].node;
        match st.comms[ci].kind.clone() {
            CommKind::Flc { value, consumers } => {
                if !st.pinned(node) {
                    return Err(StageFail::Restart);
                }
                let from = st.cluster_of(value).ok_or(StageFail::Restart)?;
                let to = st.cluster_of(consumers[0]).ok_or(StageFail::Restart)?;
                if from == to {
                    return Err(StageFail::Restart);
                }
                copies.push(CopyOp {
                    value: InstId(value as u32),
                    from,
                    to,
                    cycle: st.est[node],
                });
            }
            CommKind::Dead => {}
            // Un-promoted PLCs cannot survive stage 4: every VC relation is
            // determined once all VCs sit on anchors.
            CommKind::PPlc { .. } | CommKind::CPlc { .. } => return Err(StageFail::Restart),
        }
    }
    Ok(Schedule {
        cycles: st.est[0..n].to_vec(),
        clusters,
        copies,
    })
}

/// Runs the full search: enhanced minAWCT, then AWCT enumeration with the
/// six-stage process per value (Fig. 6).
///
/// `arena` provides the one scheduling state reused (allocations and all)
/// across the enhancement probes and every AWCT bump; after the search it
/// also carries the speculation-trail telemetry for the whole run.
pub fn search(
    sb: &Superblock,
    ctx: &Arc<StateCtx>,
    live_in_homes: &[ClusterId],
    budget: &mut Budget,
    max_bumps: u32,
    awct_cutoff: Option<f64>,
    arena: &mut StateArena,
) -> Result<SearchResult, SearchFail> {
    let windows = sg_windows(ctx);
    let probs: Vec<f64> = sb.exits().map(|(_, p)| p).collect();
    let mut targets = match enhanced_min_targets(ctx, &windows, live_in_homes, budget, arena) {
        Ok(t) => t,
        Err(DpAbort::Budget) => return Err(SearchFail::Budget),
        Err(DpAbort::Contradiction(_)) => unreachable!("enhancement absorbs contradictions"),
    };
    let min_awct = ExitTargets::new(sb, targets.clone()).awct();
    // Cooperative early-cancel: `min_awct` is a *certified* lower bound on
    // any schedule this search can produce, so strictly exceeding the
    // cutoff proves the search would lose the race. (Strict: a tie can
    // still win on portfolio set order, so keep working.)
    if awct_cutoff.is_some_and(|cutoff| min_awct > cutoff) {
        return Err(SearchFail::Beaten);
    }
    let single_exit = ctx.dg.exits().len() == 1;
    let mut bumps = 0;
    // Failures in the cluster stages (3/4) depend on the pin structure, not
    // on the AWCT value, so repeating them across bumps is a dead end; give
    // up early and let the driver fall back (§6.1).
    let mut cluster_stage_failures = 0u32;
    loop {
        let et = ExitTargets::new(sb, targets.clone());
        let lstarts = ctx.dg.lstarts(&et);
        let horizon = horizon_for(ctx, &targets);
        // `certified` marks a restart whose failed target vector the
        // deduction process *proved* infeasible (the state build itself
        // contradicted) — as opposed to a heuristic stage dead end.
        let mut certified = false;
        let outcome = match arena.build(ctx, &windows, &lstarts, horizon, live_in_homes, budget) {
            Ok(st) => match run_all_stages_indexed(st, budget) {
                Ok(()) => match extract(st) {
                    Ok(schedule) => {
                        let awct = schedule.awct(sb);
                        return Ok(SearchResult {
                            schedule,
                            awct,
                            min_awct,
                            bumps,
                        });
                    }
                    Err(f) => Err((0usize, f)),
                },
                Err(f) => Err(f),
            },
            Err(DpAbort::Budget) => return Err(SearchFail::Budget),
            Err(DpAbort::Contradiction(_)) => {
                certified = true;
                Err((0usize, StageFail::Restart))
            }
        };
        match outcome {
            Err((_, StageFail::Budget)) => return Err(SearchFail::Budget),
            Err((stage, StageFail::Restart)) => {
                if stage == 3 || stage == 4 {
                    cluster_stage_failures += 1;
                    if cluster_stage_failures >= 64 {
                        return Err(SearchFail::BumpLimit);
                    }
                } else {
                    cluster_stage_failures = 0;
                }
                // Stage-2 budget-aware early-cancel (ROADMAP): on every
                // *certified* bump of a single-exit block, re-certify the
                // lower bound against the sealed portfolio bound. With one
                // exit, target → AWCT dominance is exact: infeasibility at
                // target t certifies every schedule needs t+1 or later, so
                // the AWCT of (t+1) is a new certified lower bound. Strict
                // comparison keeps ties alive (set order decides those).
                if certified && single_exit {
                    if let Some(cutoff) = awct_cutoff {
                        let lb = ExitTargets::new(sb, vec![targets[0] + 1]).awct();
                        if lb > cutoff {
                            return Err(SearchFail::Beaten);
                        }
                    }
                }
                bumps += 1;
                if bumps > max_bumps {
                    return Err(SearchFail::BumpLimit);
                }
                // Minimal steps first; escalate on sustained failure.
                let amount = 1i64 << (bumps / 24).min(3);
                bump_targets(ctx, &mut targets, &probs, amount);
            }
            Ok(()) => unreachable!(),
        }
    }
}
