//! Scheduling-state initialisation for one AWCT attempt (§4.3).
//!
//! [`build_state`] constructs and closes a fresh state; [`StateArena`]
//! does the same while **reusing one state's allocations across
//! attempts** — the search re-initialises a state on every AWCT bump (and
//! the §4.2 enhancement probes dozens of target vectors), so rebuilding
//! from zero made every restart an allocation storm. Resetting rewrites
//! every field deterministically from the context and inputs, so an
//! arena-built state is observationally identical to a fresh one; only
//! the heap churn differs.

use std::sync::Arc;

use vcsched_arch::ClusterId;
use vcsched_graph::GrowSet;

use crate::combination::{CombDomain, CombRange};
use crate::dp::{self, Budget, DpAbort, Queue};
use crate::state::{EdgeIndex, EdgeState, NodeKind, SchedulingState, SgEdge, StateCtx};

/// Precomputes the scheduling-graph windows for `ctx` — one computation
/// reused for every AWCT value (§3.1's `LBx` encoding rationale).
///
/// Returns `(u, v, window)` triples for pairs that may overlap.
pub fn sg_windows(ctx: &StateCtx) -> Vec<(usize, usize, CombRange)> {
    let n = ctx.n_insts;
    let rows = &ctx.paths;
    // On machines without a per-cluster issue-width cap (all three paper
    // configurations), instructions of *different* classes never contend
    // for a same-cycle resource, so their combinations carry no scheduling
    // information — the pinning stage places them directly. Restricting the
    // scheduling graph to same-class pairs keeps every deduction intact
    // while shrinking the combination search space.
    let cross_class = ctx.machine.issue_per_cluster().is_some();
    let mut out = Vec::new();
    for u in 0..n {
        if ctx.live_in[u] {
            continue;
        }
        for v in u + 1..n {
            if ctx.live_in[v] || (!cross_class && ctx.classes[u] != ctx.classes[v]) {
                continue;
            }
            let w = CombRange::with_dependences(
                ctx.latencies[u],
                ctx.latencies[v],
                rows[v][u],
                rows[u][v],
            );
            if !w.is_empty() {
                out.push((u, v, w));
            }
        }
    }
    out
}

/// Rewrites every mutable field of `st` to the initial (pre-deduction)
/// state for the given targets, reusing the existing allocations. The
/// trail's telemetry counters survive (they describe the whole search);
/// its undo log must be inactive and empty.
fn reset_into(
    st: &mut SchedulingState,
    windows: &[(usize, usize, CombRange)],
    lstarts: &[i64],
    horizon: i64,
) {
    debug_assert!(!st.trail.active());
    let ctx = Arc::clone(&st.ctx);
    let n = ctx.n_insts;
    let k = ctx.machine.cluster_count();
    let n_nodes = n + k;
    st.kind.clear();
    st.est.clear();
    st.lst.clear();
    for i in 0..n {
        st.kind.push(NodeKind::Inst(vcsched_ir::InstId(i as u32)));
        if ctx.live_in[i] {
            st.est.push(0);
            st.lst.push(0);
        } else {
            st.est.push(ctx.dg.estart(vcsched_ir::InstId(i as u32)));
            st.lst.push(lstarts[i].min(horizon));
        }
    }
    for c in 0..k {
        st.kind.push(NodeKind::Anchor(ClusterId(c as u8)));
        st.est.push(0);
        st.lst.push(horizon);
    }
    // Hard dependence edges from the superblock live in the context's
    // flat CSR arrays ([`StateCtx::succ_csr`]/[`StateCtx::pred_csr`]) —
    // only the dynamic-extras rows (Rule-1 edges, comm edges) are per
    // state, and a reset just empties them.
    st.succ.truncate(n_nodes);
    st.pred.truncate(n_nodes);
    for v in st.succ.iter_mut().chain(st.pred.iter_mut()) {
        v.clear();
    }
    st.succ.resize_with(n_nodes, Vec::new);
    st.pred.resize_with(n_nodes, Vec::new);
    // Scheduling-graph edges with resource pre-pruning: combination 0 is
    // impossible for a class the whole machine issues once per cycle
    // (the paper's "single branch per cycle" example, §3.1).
    st.edges.clear();
    st.edge_of.reset(n);
    st.edges_at.truncate(n_nodes);
    for v in &mut st.edges_at {
        v.clear();
    }
    st.edges_at.resize_with(n_nodes, Vec::new);
    for &(u, v, w) in windows {
        let mut dom = CombDomain::new(w);
        let same_class = ctx.classes[u] == ctx.classes[v];
        if same_class && ctx.machine.total_capacity(ctx.classes[u]) == 1 {
            dom.discard(0);
        }
        if dom.is_empty() {
            continue;
        }
        let e_idx = st.edges.len();
        st.edges.push(SgEdge {
            u,
            v,
            window: w,
            state: EdgeState::Open(dom),
        });
        st.edge_of.insert(u, v, e_idx);
        st.edges_at[u].push(e_idx);
        st.edges_at[v].push(e_idx);
    }
    st.cc.reset(n_nodes);
    st.vc.reset(n_nodes);
    st.vc_adj.truncate(n_nodes);
    for s in &mut st.vc_adj {
        s.clear();
    }
    st.vc_adj.resize_with(n_nodes, GrowSet::new);
    // Anchors are pairwise incompatible: a VC fused with anchor `i` can
    // never share a physical cluster with one fused with anchor `j`.
    for a in 0..k {
        for b in a + 1..k {
            let (na, nb) = (ctx.anchor(a), ctx.anchor(b));
            st.vc_adj[na].insert(nb);
            st.vc_adj[nb].insert(na);
        }
    }
    st.comms.clear();
    st.flc_by_value.truncate(n);
    for cis in &mut st.flc_by_value {
        cis.clear();
    }
    st.flc_by_value.resize_with(n, Vec::new);
    st.plc_seen.clear();
    st.horizon = horizon;
    st.cc_list.truncate(n_nodes);
    st.vc_list.truncate(n_nodes);
    for l in st.cc_list.iter_mut().chain(st.vc_list.iter_mut()) {
        l.clear();
    }
    st.cc_list.resize_with(n_nodes, Vec::new);
    st.vc_list.resize_with(n_nodes, Vec::new);
    for i in 0..n_nodes {
        st.cc_list[i].push(i);
        st.vc_list[i].push(i);
    }
    st.dirty = true;
}

/// Closes an initial state: live-in placement, full propagation to a
/// fixpoint, colourability check.
fn close_state(
    st: &mut SchedulingState,
    live_in_homes: &[ClusterId],
    budget: &mut Budget,
) -> Result<(), DpAbort> {
    let ctx = Arc::clone(&st.ctx);
    let n = ctx.n_insts;
    let k = ctx.machine.cluster_count();
    let n_nodes = n + k;
    // Infeasible before any deduction?
    for node in 0..n_nodes {
        if st.est[node] > st.lst[node] {
            return Err(DpAbort::Contradiction(dp::Contradiction::BoundsCrossed(
                node,
            )));
        }
    }
    let mut q: Queue = Queue::new();
    // Live-in values are pre-placed: fuse with their home anchor.
    let live_ins: Vec<usize> = (0..n).filter(|&i| ctx.live_in[i]).collect();
    for (li_order, &li) in live_ins.iter().enumerate() {
        let home = live_in_homes
            .get(li_order)
            .copied()
            .unwrap_or(ClusterId((li_order % k) as u8));
        let anchor = ctx.anchor(home.0 as usize % k);
        dp::fuse_vcs(st, &mut q, li, anchor)?;
    }
    // Close the initial state: propagate all bounds, prune all domains,
    // fire Rule 1 and the resource rules.
    for node in 0..n_nodes {
        q.push_back(node);
    }
    dp::drain(st, &mut q, budget)?;
    dp::check_colorable(st)?;
    // Cache the clone-size estimate for this attempt: rollbacks credit
    // it in O(1) instead of re-walking the heap per study.
    st.trail.clone_bytes_hint = st.approx_clone_bytes();
    Ok(())
}

/// An empty shell for `ctx`, ready for [`reset_into`].
fn empty_state(ctx: &Arc<StateCtx>) -> SchedulingState {
    SchedulingState {
        ctx: Arc::clone(ctx),
        kind: Vec::new(),
        est: Vec::new(),
        lst: Vec::new(),
        succ: Vec::new(),
        pred: Vec::new(),
        cc: vcsched_graph::OffsetUnionFind::new(0),
        vc: vcsched_graph::UnionFind::new(0),
        vc_adj: Vec::new(),
        edges: Vec::new(),
        edge_of: EdgeIndex::new(),
        edges_at: Vec::new(),
        comms: Vec::new(),
        flc_by_value: Default::default(),
        plc_seen: Default::default(),
        horizon: 0,
        cc_list: Vec::new(),
        vc_list: Vec::new(),
        dirty: true,
        vcg_dirty: true,
        trail: Default::default(),
        scratch: Default::default(),
    }
}

/// A reusable state slot: one [`SchedulingState`]'s allocations serve
/// every AWCT attempt of a search instead of rebuilding from zero.
///
/// The speculation trail (and its telemetry counters) lives in the state
/// and therefore accumulates across attempts — read it through
/// [`StateArena::state`] when the search finishes.
#[derive(Debug, Default)]
pub struct StateArena {
    state: Option<SchedulingState>,
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> StateArena {
        StateArena::default()
    }

    /// Builds (first call) or re-initialises (subsequent calls, reusing
    /// allocations) the closed initial scheduling state for one AWCT
    /// attempt. See [`build_state`] for the parameters.
    ///
    /// # Errors
    ///
    /// As [`build_state`]. On error the slot stays allocated and is fully
    /// rewritten by the next call.
    pub fn build(
        &mut self,
        ctx: &Arc<StateCtx>,
        windows: &[(usize, usize, CombRange)],
        lstarts: &[i64],
        horizon: i64,
        live_in_homes: &[ClusterId],
        budget: &mut Budget,
    ) -> Result<&mut SchedulingState, DpAbort> {
        match &mut self.state {
            Some(st) if Arc::ptr_eq(&st.ctx, ctx) => {}
            _ => self.state = Some(empty_state(ctx)),
        }
        let st = self.state.as_mut().expect("slot just filled");
        reset_into(st, windows, lstarts, horizon);
        close_state(st, live_in_homes, budget)?;
        Ok(st)
    }

    /// The resident state, if any attempt was built.
    pub fn state(&self) -> Option<&SchedulingState> {
        self.state.as_ref()
    }

    /// Takes the resident state out of the arena.
    pub fn take(&mut self) -> Option<SchedulingState> {
        self.state.take()
    }
}

/// Builds and closes (runs the DP over) a fresh initial scheduling state
/// for one AWCT attempt.
///
/// * `lstarts` — latest start per instruction induced by the exit targets;
/// * `horizon` — global latest cycle considered this attempt;
/// * `live_in_homes` — home cluster per live-in, in live-in declaration
///   order.
///
/// # Errors
///
/// [`DpAbort::Contradiction`] when the targets are infeasible (the caller
/// increases the AWCT), [`DpAbort::Budget`] when the work budget ran out.
pub fn build_state(
    ctx: &Arc<StateCtx>,
    windows: &[(usize, usize, CombRange)],
    lstarts: &[i64],
    horizon: i64,
    live_in_homes: &[ClusterId],
    budget: &mut Budget,
) -> Result<SchedulingState, DpAbort> {
    let mut st = empty_state(ctx);
    reset_into(&mut st, windows, lstarts, horizon);
    close_state(&mut st, live_in_homes, budget)?;
    Ok(st)
}
