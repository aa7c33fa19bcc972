//! The six stages of the per-AWCT search (§4.4, Fig. 7).
//!
//! Each stage runs the iterative process of Fig. 8: select the most
//! constraining candidates, study each with the deduction process,
//! discard candidates that contradict (a *mandatory* fact applied to the
//! real state), and adopt the heuristically best survivor.
//!
//! Studying is trail-based — apply on the real state, score, roll back —
//! and the winner is adopted by re-deducing it on the restored state
//! ([`replay_decision`], uncharged in steps). This reaches the same
//! state, winner and step count as the paper's literal clone-and-discard
//! study (§4.4.2); `crates/core/tests/speculation.rs` keeps a clone
//! reference and checks the two agree decision by decision.
//!
//! | stage | candidates                              | decision kind |
//! |-------|------------------------------------------|---------------|
//! | 1     | combinations among original instructions | choose/discard |
//! | 2     | cycles of instructions with slack        | pin |
//! | 3     | VC pairs with outedges (max-weight matching) | fuse / incompatible |
//! | 4     | VC → physical cluster (anchor fusion)    | fuse |
//! | 5     | combinations involving communications    | choose/discard |
//! | 6     | cycles of communications with slack      | pin |

use vcsched_graph::matching::{greedy_max_weight_matching, max_weight_matching};

use crate::combination::{CombDomain, CombRange};
use crate::decision::{apply_decision, replay_decision, study_and_keep, study_decision, Decision};
use crate::dp::{self, Budget, Contradiction, DpAbort, Queue};
use crate::state::{CommKind, EdgeState, NodeId, NodeKind, SchedulingState, SgEdge, StateScore};

/// Why a stage could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageFail {
    /// A candidate could be neither chosen nor discarded: no schedule exists
    /// for this AWCT; the search must increase it and restart (§4.4).
    Restart,
    /// The step/wall-clock budget ran out (threshold mechanism, §6.1).
    Budget,
}

fn map_abort(a: DpAbort) -> StageFail {
    match a {
        DpAbort::Contradiction(_) => StageFail::Restart,
        DpAbort::Budget => StageFail::Budget,
    }
}

/// How many candidates each iteration studies in depth.
const STUDY_WIDTH: usize = 2;

/// Studies `d` and adopts it immediately on success (the stage-3 path).
/// `Ok(None)` means adopted; `Ok(Some(c))` reports the contradiction that
/// discarded the candidate (state untouched).
fn study_adopt(
    st: &mut SchedulingState,
    d: &Decision,
    budget: &mut Budget,
) -> Result<Option<Contradiction>, StageFail> {
    match study_and_keep(st, d, budget) {
        Ok(()) => Ok(None),
        Err(DpAbort::Budget) => Err(StageFail::Budget),
        Err(DpAbort::Contradiction(c)) => Ok(Some(c)),
    }
}

/// Slack of a combination `(u, v, d)`: the number of cycles where the
/// overlap could be placed (§4.4.1.1).
fn comb_slack(st: &SchedulingState, u: NodeId, v: NodeId, d: i64) -> i64 {
    // u at t requires v at t − d: intersect [est_u, lst_u] with
    // [est_v + d, lst_v + d].
    let lo = st.est[u].max(st.est[v] + d);
    let hi = st.lst[u].min(st.lst[v] + d);
    hi - lo
}

/// Generic combination stage over the given predicate on edges.
fn combination_stage(
    st: &mut SchedulingState,
    budget: &mut Budget,
    edge_filter: impl Fn(&SchedulingState, &SgEdge) -> bool,
) -> Result<(), StageFail> {
    // The stage's edges that are still open. The state the stage moves
    // only ever resolves edges (studies roll back), so each round keeps
    // the ones still open instead of rescanning every edge.
    let mut open = st.scratch.lists.take();
    open.extend((0..st.edges.len()).filter(|&e| {
        matches!(st.edges[e].state, EdgeState::Open(_)) && edge_filter(st, &st.edges[e])
    }));
    let out = combination_rounds(st, budget, &mut open);
    st.scratch.lists.give(open);
    out
}

/// The rounds of [`combination_stage`] over its `open` edges.
fn combination_rounds(
    st: &mut SchedulingState,
    budget: &mut Budget,
    open: &mut Vec<usize>,
) -> Result<(), StageFail> {
    loop {
        budget.spend(1).map_err(map_abort)?;
        // Candidates: the lowest-slack open combinations. Only the
        // STUDY_WIDTH smallest are ever studied, so keep a sorted
        // best-of array instead of materialising and sorting the full
        // candidate list each round. Tuples are unique per (u, v, d),
        // so lexicographic `<` reproduces the old full-sort order (and
        // the visiting order does not matter).
        let mut cands: [Option<(i64, NodeId, NodeId, i64)>; STUDY_WIDTH] = [None; STUDY_WIDTH];
        open.retain(|&e| matches!(st.edges[e].state, EdgeState::Open(_)));
        for &e in open.iter() {
            let e = &st.edges[e];
            if let EdgeState::Open(dom) = &e.state {
                for d in dom.iter() {
                    let t = (comb_slack(st, e.u, e.v, d), e.u, e.v, d);
                    for slot in 0..STUDY_WIDTH {
                        match cands[slot] {
                            Some(cur) if cur <= t => continue,
                            _ => {
                                for k in (slot + 1..STUDY_WIDTH).rev() {
                                    cands[k] = cands[k - 1];
                                }
                                cands[slot] = Some(t);
                                break;
                            }
                        }
                    }
                }
            }
        }
        if cands[0].is_none() {
            return Ok(());
        }
        let mut survivors: Vec<(Decision, StateScore)> = Vec::new();
        let mut any_mandatory = false;
        for (_, u, v, d) in cands.iter().flatten().copied() {
            // Study both actions on the candidate (§4.4: "choose or
            // discard"): a contradiction on one side makes the other
            // mandatory; two viable futures go to the heuristics.
            let choose = Decision::ChooseComb { u, v, d };
            let discard = Decision::DiscardComb { u, v, d };
            let chosen = match study_decision(st, &choose, budget) {
                Ok(f) => Some(f),
                Err(DpAbort::Budget) => return Err(StageFail::Budget),
                Err(DpAbort::Contradiction(_)) => None,
            };
            let discarded = match study_decision(st, &discard, budget) {
                Ok(f) => Some(f),
                Err(DpAbort::Budget) => return Err(StageFail::Budget),
                Err(DpAbort::Contradiction(_)) => None,
            };
            match (chosen, discarded) {
                (Some(c), Some(dd)) => {
                    survivors.push((choose, c));
                    survivors.push((discard, dd));
                }
                (Some(_), None) => {
                    // Discard impossible ⇒ choosing is mandatory.
                    apply_decision(st, &choose, budget).map_err(map_abort)?;
                    any_mandatory = true;
                }
                (None, Some(_)) => {
                    // Choice impossible ⇒ discarding is mandatory.
                    apply_decision(st, &discard, budget).map_err(map_abort)?;
                    any_mandatory = true;
                }
                (None, None) => return Err(StageFail::Restart),
            }
        }
        if any_mandatory {
            // Re-select candidates on the updated state.
            continue;
        }
        match pick_best(survivors) {
            Some(d) => replay_decision(st, &d),
            None => return Err(StageFail::Restart),
        }
    }
}

/// Best survivor by the §4.4.3 heuristic; ties keep the earliest entry
/// (callers push the *choose* future first).
fn pick_best(mut survivors: Vec<(Decision, StateScore)>) -> Option<Decision> {
    let mut best: Option<(StateScore, usize)> = None;
    for (i, &(_, score)) in survivors.iter().enumerate() {
        if best.is_none_or(|(b, _)| score.better_than(&b)) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| survivors.swap_remove(i).0)
}

/// Stage 1: treat combinations among original (non-communication)
/// instructions.
fn stage1_combinations(st: &mut SchedulingState, budget: &mut Budget) -> Result<(), StageFail> {
    combination_stage(st, budget, |state, e| {
        matches!(state.kind[e.u], NodeKind::Inst(_)) && matches!(state.kind[e.v], NodeKind::Inst(_))
    })
}

/// Applies a mandatory bound move (the pinning stage's contradiction
/// path) and drains it to a fixpoint. With `discard_after` the move runs
/// under a speculation and is rolled back once drained — used when a
/// viable survivor is already in hand. That survivor's future was
/// studied on the *pre-tighten* state, and the paper's clone-and-discard
/// study adopts it wholesale, dropping the tighten's side effects; so
/// the move's deduction work is charged but the pre-tighten state is
/// restored before the winner is replayed.
fn mandatory_tighten(
    st: &mut SchedulingState,
    budget: &mut Budget,
    discard_after: bool,
    apply: impl FnOnce(&mut SchedulingState, &mut Queue) -> Result<(), Contradiction>,
) -> Result<(), StageFail> {
    let mark = discard_after.then(|| st.begin_speculation());
    let drained = dp::with_queue(st, |st, q| {
        apply(st, q)
            .map_err(DpAbort::from)
            .and_then(|()| dp::drain(st, q, budget))
    });
    if let Some(m) = mark {
        st.rollback(m);
    }
    drained.map_err(map_abort)
}

/// Generic pinning stage over a node filter.
fn pinning_stage(
    st: &mut SchedulingState,
    budget: &mut Budget,
    node_filter: impl Fn(&SchedulingState, NodeId) -> bool,
) -> Result<(), StageFail> {
    loop {
        budget.spend(1).map_err(map_abort)?;
        // Lowest-slack unpinned node (§4.4.1.1).
        let cand = (0..st.kind.len())
            .filter(|&n| node_filter(st, n) && !st.pinned(n))
            .min_by_key(|&n| (st.slack(n), n));
        let Some(node) = cand else {
            return Ok(());
        };
        let (est, lst) = (st.est[node], st.lst[node]);
        let mut survivors: Vec<(Decision, StateScore)> = Vec::new();
        let mut tightened = false;
        let pin_est = Decision::Pin { node, cycle: est };
        match study_decision(st, &pin_est, budget) {
            Ok(f) => survivors.push((pin_est, f)),
            Err(DpAbort::Budget) => return Err(StageFail::Budget),
            Err(DpAbort::Contradiction(_)) => {
                // Mandatory: this cycle is impossible; the bound rises.
                // No survivor exists yet, so the move always persists.
                mandatory_tighten(st, budget, false, |st, q| {
                    dp::tighten_est(st, q, node, est + 1)
                })?;
                tightened = true;
            }
        }
        if !tightened && lst != est {
            let pin_lst = Decision::Pin { node, cycle: lst };
            match study_decision(st, &pin_lst, budget) {
                Ok(f) => survivors.push((pin_lst, f)),
                Err(DpAbort::Budget) => return Err(StageFail::Budget),
                Err(DpAbort::Contradiction(_)) => {
                    // A viable est future may already be in hand; its
                    // adoption below supersedes this mandatory move, so
                    // the move is discarded after being charged (see
                    // `mandatory_tighten`).
                    let discard = !survivors.is_empty();
                    mandatory_tighten(st, budget, discard, |st, q| {
                        dp::tighten_lst(st, q, node, lst - 1)
                    })?;
                    tightened = true;
                }
            }
        }
        if let Some(d) = pick_best(survivors) {
            replay_decision(st, &d);
        } else if !tightened {
            return Err(StageFail::Restart);
        }
    }
}

/// Stage 2: fix every remaining non-communication instruction to a cycle.
fn stage2_pin_instructions(st: &mut SchedulingState, budget: &mut Budget) -> Result<(), StageFail> {
    pinning_stage(st, budget, |state, n| {
        matches!(state.kind[n], NodeKind::Inst(_))
    })
}

/// Stage 3: eliminate outedges by fusing or separating VC pairs selected
/// with a maximum-weight matching over the matching graph (§4.4.1.2).
fn stage3_eliminate_outedges(
    st: &mut SchedulingState,
    budget: &mut Budget,
) -> Result<(), StageFail> {
    loop {
        budget.spend(4).map_err(map_abort)?;
        // Build the matching graph over VC roots with outedges.
        let outedges = st.outedges();
        if outedges.is_empty() {
            return Ok(());
        }
        let mut weights: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
        for (p, c) in outedges {
            let (rp, rc) = (st.vc_root(p), st.vc_root(c));
            let key = (rp.min(rc), rp.max(rc));
            *weights.entry(key).or_insert(0) += 1;
        }
        let mut roots: Vec<usize> = weights.keys().flat_map(|&(a, b)| [a, b]).collect();
        roots.sort_unstable();
        roots.dedup();
        let index = |r: usize| roots.binary_search(&r).expect("root present");
        let mg_edges: Vec<(usize, usize, u64)> = weights
            .iter()
            .map(|(&(a, b), &w)| (index(a), index(b), w))
            .collect();
        let matching = if st.ctx.tuning.greedy_matching {
            greedy_max_weight_matching(roots.len(), &mg_edges)
        } else {
            max_weight_matching(roots.len(), &mg_edges)
        };
        let pairs: Vec<(usize, usize)> = matching
            .edges
            .iter()
            .map(|&(a, b, _)| (roots[a], roots[b]))
            .collect();
        debug_assert!(!pairs.is_empty());
        // Candidate: fuse the whole matching simultaneously.
        if study_adopt(st, &Decision::FuseSet(pairs), budget)?.is_none() {
            continue;
        }
        // Fallback (§4.4.2): treat the highest-weight edge individually —
        // try to fuse it, and if that is impossible separating it is
        // mandatory (and vice versa).
        let (&(a, b), _) = weights
            .iter()
            .max_by_key(|(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
            .expect("outedges exist");
        if let Some(cf) = study_adopt(st, &Decision::Fuse(a, b), budget)? {
            // Mandatory: they cannot share a cluster.
            if let Err(e) = apply_decision(st, &Decision::Incompat(a, b), budget) {
                if std::env::var_os("VCSCHED_DEBUG").is_some() {
                    eprintln!("stage3 dead end on VCs ({a},{b}): fuse: {cf:?}; incompat: {e:?}");
                }
                return Err(map_abort(e));
            }
        }
    }
}

/// Stage 4: map every virtual cluster onto a physical cluster by fusing it
/// with a cluster anchor, walking VCs in decreasing VCG degree (§4.4.1.3).
fn stage4_map_clusters(st: &mut SchedulingState, budget: &mut Budget) -> Result<(), StageFail> {
    let k = st.ctx.machine.cluster_count();
    loop {
        budget.spend(4).map_err(map_abort)?;
        let roots = st.vc_roots();
        let mut unmapped: Vec<(usize, usize)> = Vec::new();
        for r in roots {
            if st.cluster_of(r).is_none() {
                unmapped.push((st.vc_adj[r].len(), r));
            }
        }
        if unmapped.is_empty() {
            return Ok(());
        }
        // Highest incompatibility degree first (graph-colouring order).
        unmapped.sort_by_key(|&(deg, r)| (std::cmp::Reverse(deg), r));
        let (_, vc_root) = unmapped[0];
        let mut survivors: Vec<(Decision, StateScore)> = Vec::new();
        for c in 0..k {
            let anchor = st.ctx.anchor(c);
            let fuse = Decision::Fuse(vc_root, anchor);
            match study_decision(st, &fuse, budget) {
                Ok(f) => survivors.push((fuse, f)),
                Err(DpAbort::Budget) => return Err(StageFail::Budget),
                Err(DpAbort::Contradiction(_)) => {}
            }
        }
        match pick_best(survivors) {
            Some(d) => replay_decision(st, &d),
            None => return Err(StageFail::Restart),
        }
    }
}

/// Stage 5: treat combinations involving communications.
///
/// Communication pairs can only overlap on machines with more than one bus;
/// on the single-bus machines of the paper the stage reduces to a no-op and
/// the bus is serialised by the resource rules during stage 6.
fn stage5_comm_combinations(
    st: &mut SchedulingState,
    budget: &mut Budget,
) -> Result<(), StageFail> {
    let buses = st.ctx.machine.bus_count();
    if buses >= 2 {
        // Materialise comm-comm edges lazily, then run the stage-1 loop on them.
        let occ = st.ctx.machine.bus_occupancy();
        let comm_nodes: Vec<NodeId> = st.live_comms().map(|c| c.node).collect();
        let mut q: Queue = Queue::new();
        for (i, &a) in comm_nodes.iter().enumerate() {
            for &b in comm_nodes.iter().skip(i + 1) {
                let (u, v) = (a.min(b), a.max(b));
                if st.edge_of.contains(u, v) {
                    continue;
                }
                let w = CombRange::overlap(occ, occ);
                let e_idx = st.edges.len();
                st.edges.push(SgEdge {
                    u,
                    v,
                    window: w,
                    state: EdgeState::Open(CombDomain::new(w)),
                });
                st.edge_of.insert(u, v, e_idx);
                st.edges_at[u].push(e_idx);
                st.edges_at[v].push(e_idx);
                dp::prune_edge(st, &mut q, e_idx).map_err(|c| map_abort(c.into()))?;
            }
        }
        dp::drain(st, &mut q, budget).map_err(map_abort)?;
        combination_stage(st, budget, |state, e| {
            matches!(state.kind[e.u], NodeKind::Comm(_))
                || matches!(state.kind[e.v], NodeKind::Comm(_))
        })?;
    }
    Ok(())
}

/// Stage 6: fix every remaining live communication to a cycle.
fn stage6_pin_comms(st: &mut SchedulingState, budget: &mut Budget) -> Result<(), StageFail> {
    pinning_stage(st, budget, |state, n| match state.kind[n] {
        NodeKind::Comm(ci) => state.comms[ci].kind != CommKind::Dead,
        _ => false,
    })
}

/// Runs all six stages in the paper's order (combinations, instruction
/// cycles, outedges, mapping, communication combinations, communication
/// cycles) and reports *which* stage failed (1–6), letting the search
/// recognise AWCT-independent dead ends in the cluster stages.
pub fn run_all_stages_indexed(
    st: &mut SchedulingState,
    budget: &mut Budget,
) -> Result<(), (usize, StageFail)> {
    let run = |stage: usize,
               st: &mut SchedulingState,
               budget: &mut Budget,
               f: fn(&mut SchedulingState, &mut Budget) -> Result<(), StageFail>|
     -> Result<(), (usize, StageFail)> {
        let before = budget.spent();
        let out = f(st, budget).map_err(|e| (stage, e));
        crate::telemetry::stage_steps(stage).record(budget.spent() - before);
        if out.is_err() {
            crate::telemetry::stage_failures(stage).inc();
        }
        out
    };
    run(1, st, budget, stage1_combinations)?;
    run(2, st, budget, stage2_pin_instructions)?;
    run(3, st, budget, stage3_eliminate_outedges)?;
    run(4, st, budget, stage4_map_clusters)?;
    run(5, st, budget, stage5_comm_combinations)?;
    run(6, st, budget, stage6_pin_comms)
}
