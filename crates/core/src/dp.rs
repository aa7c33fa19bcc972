//! The deduction process (§3.3): a rule engine that turns decisions into
//! their mandatory consequences, or a contradiction.
//!
//! The engine keeps a worklist of bound changes. Processing a change fires
//! the *state updating rules* (bound propagation along dependence and
//! communication edges, connected-component synchronisation) and the
//! *deduction rules*:
//!
//! * combination-domain pruning against bounds, with mandatory selection
//!   when a pair is forced to overlap and one value remains;
//! * same-cycle capacity rules — Rule 2 of §3.3.1 (same cycle, one unit per
//!   cluster ⇒ virtual clusters incompatible) and their contradiction forms;
//! * Rule 1 (no slack for a communication ⇒ fuse);
//! * Rules 3/4 arise from ordinary propagation across communication edges;
//! * Rule 5 and its consumer-side dual (partially-linked communications),
//!   plus Rules 6/7 (PLC → FLC promotion);
//! * windowed resource pigeonhole per class — machine-wide, per virtual
//!   cluster, and for the bus (with non-pipelined occupancy) — providing
//!   both contradictions and mandatory bound tightening.
//!
//! All rules are *monotone*: bounds only tighten, domains only shrink, VCs
//! only fuse or grow incompatibilities. Together with the integer horizon
//! this guarantees termination; an explicit [`Budget`] additionally caps
//! work for the paper's compile-time thresholds (§6.1).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use vcsched_arch::{ClusterId, OpClass};

use crate::state::{move_members, Comm, CommKind, EdgeState, NodeId, SchedulingState, StateCtx};
use crate::trail::TrailEntry;

/// A contradiction: the current state admits no valid schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contradiction {
    /// A node's earliest start exceeded its latest start.
    BoundsCrossed(NodeId),
    /// A combination had to be simultaneously chosen and discarded.
    EdgeConflict(NodeId, NodeId),
    /// Two connected components required inconsistent relative offsets.
    OffsetConflict(NodeId, NodeId),
    /// A pair of VCs had to be fused and incompatible at once.
    VcConflict(NodeId, NodeId),
    /// More instructions of a class must issue in a window than units exist.
    ResourceOverflow(OpClass),
    /// The virtual cluster graph cannot be coloured with the physical
    /// clusters (a clique exceeds the cluster count, §3.2).
    Uncolorable,
    /// A mandatory communication has no cycle to live in.
    NoCommSlack(NodeId),
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Contradiction::BoundsCrossed(n) => write!(f, "bounds crossed at node {n}"),
            Contradiction::EdgeConflict(u, v) => write!(f, "combination conflict on ({u},{v})"),
            Contradiction::OffsetConflict(u, v) => write!(f, "offset conflict on ({u},{v})"),
            Contradiction::VcConflict(u, v) => write!(f, "VC fuse/incompatible conflict ({u},{v})"),
            Contradiction::ResourceOverflow(c) => write!(f, "resource overflow on {c} units"),
            Contradiction::Uncolorable => write!(f, "virtual cluster graph not colourable"),
            Contradiction::NoCommSlack(n) => write!(f, "no slack for communication {n}"),
        }
    }
}

/// Why a deduction run stopped without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpAbort {
    /// A contradiction: the triggering decision must be discarded.
    Contradiction(Contradiction),
    /// The step or wall-clock budget ran out (the paper's threshold
    /// mechanism, §6.1): the whole scheduling attempt is abandoned.
    Budget,
}

impl From<Contradiction> for DpAbort {
    fn from(c: Contradiction) -> Self {
        DpAbort::Contradiction(c)
    }
}

/// Work budget shared across every DP invocation for one superblock.
#[derive(Debug, Clone)]
pub struct Budget {
    steps_left: i64,
    spent: u64,
    deadline: Option<Instant>,
    check_counter: u32,
    bytes_cap: Option<u64>,
    deadline_steps: Option<u64>,
    preempt: Option<vcsched_policy::AwctBound>,
    deadline_fired: bool,
}

impl Budget {
    /// A budget of `steps` rule firings and an optional wall-clock deadline.
    pub fn new(steps: u64, deadline: Option<Instant>) -> Budget {
        Budget {
            steps_left: steps as i64,
            spent: 0,
            deadline,
            check_counter: 0,
            bytes_cap: None,
            deadline_steps: None,
            preempt: None,
            deadline_fired: false,
        }
    }

    /// Additionally caps the lifetime trail-work bytes (state bytes touched
    /// by deduction mutations) — the honest cross-block-size budget unit.
    /// `None` leaves behaviour unchanged.
    pub fn with_byte_cap(mut self, cap: Option<u64>) -> Budget {
        self.bytes_cap = cap;
        self
    }

    /// Arms a *deterministic* step deadline: the attempt aborts (with
    /// [`Budget::deadline_fired`] set) once `spent` reaches `steps`.
    /// Unlike the wall-clock deadline this is reproducible at any thread
    /// count — it is how the online executor prices remaining slack.
    pub fn with_deadline_steps(mut self, steps: Option<u64>) -> Budget {
        self.deadline_steps = steps;
        self
    }

    /// Attaches a preemption handle: when `bound.preempt()` fires (e.g.
    /// from a wall-clock deadline timer thread), the attempt aborts at
    /// the next check cadence with [`Budget::deadline_fired`] set.
    pub fn with_preempt(mut self, bound: Option<vcsched_policy::AwctBound>) -> Budget {
        self.preempt = bound;
        self
    }

    /// Whether the abort was a fired deadline (step threshold crossed or
    /// external preemption) rather than an exhausted step/byte budget.
    pub fn deadline_fired(&self) -> bool {
        self.deadline_fired
    }

    /// Checks the lifetime trail-work meter against the byte cap.
    ///
    /// # Errors
    ///
    /// Returns [`DpAbort::Budget`] when `work_bytes` exceeds the cap.
    #[inline]
    pub fn check_bytes(&self, work_bytes: u64) -> Result<(), DpAbort> {
        match self.bytes_cap {
            Some(cap) if work_bytes > cap => Err(DpAbort::Budget),
            _ => Ok(()),
        }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::new(u64::MAX / 2, None)
    }

    /// Consumes `n` steps.
    ///
    /// # Errors
    ///
    /// Returns [`DpAbort::Budget`] when steps or wall clock are exhausted.
    pub fn spend(&mut self, n: u64) -> Result<(), DpAbort> {
        self.steps_left -= n as i64;
        self.spent += n;
        if self.steps_left < 0 {
            return Err(DpAbort::Budget);
        }
        if let Some(limit) = self.deadline_steps {
            if self.spent >= limit {
                self.deadline_fired = true;
                return Err(DpAbort::Budget);
            }
        }
        if let Some(bound) = &self.preempt {
            // A relaxed load per spend: cheap, and prompt enough that a
            // fired timer stops even tiny searches before they finish.
            if bound.preempted() {
                self.deadline_fired = true;
                return Err(DpAbort::Budget);
            }
        }
        self.check_counter = self.check_counter.wrapping_add(1);
        if self.check_counter.is_multiple_of(1024) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(DpAbort::Budget);
                }
            }
        }
        Ok(())
    }

    /// Steps consumed so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

/// Worklist of pending bound changes.
pub type Queue = VecDeque<NodeId>;

/// Runs `f` with the state's reusable worklist (empty on entry), so a
/// decision's drain allocates no queue once the buffer has grown.
pub(crate) fn with_queue<R>(
    st: &mut SchedulingState,
    f: impl FnOnce(&mut SchedulingState, &mut Queue) -> R,
) -> R {
    let mut q = std::mem::take(&mut st.scratch.queue);
    let out = f(st, &mut q);
    q.clear();
    st.scratch.queue = q;
    out
}

/// Runs `f` with `N` empty node lists from the state's scratch pool and
/// returns them afterwards — on the contradiction path too, which is why
/// rule bodies run inside the closure rather than around `?`.
fn with_lists<const N: usize, R>(
    st: &mut SchedulingState,
    f: impl FnOnce(&mut SchedulingState, &mut [Vec<NodeId>; N]) -> R,
) -> R {
    // Every rule's list holds at most one entry per node, so sizing each
    // to the node count up front stops it growing list by list as the
    // pool hands buffers to different rules.
    let nodes = st.kind.len();
    let mut lists: [Vec<NodeId>; N] = std::array::from_fn(|_| {
        let mut list = st.scratch.lists.take();
        list.reserve(nodes);
        list
    });
    let out = f(st, &mut lists);
    // Back in reverse, so the next call gets each buffer in the same role
    // (and so at the capacity that role needed).
    for list in lists.into_iter().rev() {
        st.scratch.lists.give(list);
    }
    out
}

// ---------------------------------------------------------------------------
// Bound tightening primitives
// ---------------------------------------------------------------------------

/// Raises `est[n]` to at least `v`; queues the node when it changed.
pub fn tighten_est(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
    if v > st.est[n] {
        if st.trail.active {
            st.trail.push(TrailEntry::Est { n, old: st.est[n] });
        }
        st.trail.charge_bytes(16);
        st.est[n] = v;
        st.dirty = true;
        if st.est[n] > st.lst[n] {
            return Err(Contradiction::BoundsCrossed(n));
        }
        q.push_back(n);
    }
    Ok(())
}

/// Lowers `lst[n]` to at most `v`; queues the node when it changed.
pub fn tighten_lst(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
    if v < st.lst[n] {
        if st.trail.active {
            st.trail.push(TrailEntry::Lst { n, old: st.lst[n] });
        }
        st.trail.charge_bytes(16);
        st.lst[n] = v;
        st.dirty = true;
        if st.est[n] > st.lst[n] {
            return Err(Contradiction::BoundsCrossed(n));
        }
        q.push_back(n);
    }
    Ok(())
}

/// Adds a hard dependence edge `from → to` with `lat` and propagates once.
pub fn add_dep_edge(
    st: &mut SchedulingState,
    q: &mut Queue,
    from: NodeId,
    to: NodeId,
    lat: i64,
) -> Result<(), Contradiction> {
    if st.trail.active {
        st.trail.push(TrailEntry::DepEdge { from, to });
    }
    st.trail.charge_bytes(32);
    st.succ[from].push((to, lat));
    st.pred[to].push((from, lat));
    tighten_est(st, q, to, st.est[from] + lat)?;
    tighten_lst(st, q, from, st.lst[to] - lat)
}

/// Writes `edges[e].state = new` through the trail: one undo record (the
/// current resolution) and one work-bytes charge. Every edge-state
/// mutation goes through here so neither is ever missed.
#[inline]
fn set_edge_state(st: &mut SchedulingState, e: usize, new: EdgeState) {
    if st.trail.active {
        let old = st.edges[e].state;
        st.trail.push(TrailEntry::Edge { e, old });
    }
    st.trail
        .charge_bytes(std::mem::size_of::<EdgeState>() as u64);
    st.edges[e].state = new;
}

// ---------------------------------------------------------------------------
// Combination / connected-component rules
// ---------------------------------------------------------------------------

fn must_overlap(st: &SchedulingState, e_idx: usize) -> bool {
    let e = &st.edges[e_idx];
    let lo_possible = st.est[e.u] - st.lst[e.v];
    let hi_possible = st.lst[e.u] - st.est[e.v];
    lo_possible >= e.window.lo && hi_possible <= e.window.hi
}

/// Prunes the edge's domain against current bounds; resolves or contradicts
/// when forced.
pub fn prune_edge(
    st: &mut SchedulingState,
    q: &mut Queue,
    e_idx: usize,
) -> Result<(), Contradiction> {
    let (u, v) = (st.edges[e_idx].u, st.edges[e_idx].v);
    let lo = st.est[u] - st.lst[v];
    let hi = st.lst[u] - st.est[v];
    let forced = must_overlap(st, e_idx);
    enum Next {
        Nothing,
        SetNoOverlap,
        Choose(i64),
    }
    // Narrow a local copy (EdgeState is `Copy`), then write back through
    // the trail so speculative pruning is undone exactly.
    let old = st.edges[e_idx].state;
    let mut state = old;
    let next = match &mut state {
        EdgeState::Open(dom) => {
            dom.discard_below(lo);
            dom.discard_above(hi);
            if dom.is_empty() {
                if forced {
                    return Err(Contradiction::EdgeConflict(u, v));
                }
                Next::SetNoOverlap
            } else if forced {
                match dom.singleton() {
                    // Mandatory: the pair must overlap, one relation left.
                    Some(d) => Next::Choose(d),
                    None => Next::Nothing,
                }
            } else {
                Next::Nothing
            }
        }
        EdgeState::Chosen(d) => {
            if *d < lo || *d > hi {
                return Err(Contradiction::EdgeConflict(u, v));
            }
            Next::Nothing
        }
        EdgeState::NoOverlap => {
            if forced {
                return Err(Contradiction::EdgeConflict(u, v));
            }
            Next::Nothing
        }
    };
    if state != old {
        set_edge_state(st, e_idx, state);
    }
    match next {
        Next::Nothing => {
            if matches!(st.edges[e_idx].state, EdgeState::NoOverlap) {
                propagate_no_overlap(st, q, e_idx)?;
            }
            Ok(())
        }
        Next::SetNoOverlap => {
            set_edge_state(st, e_idx, EdgeState::NoOverlap);
            propagate_no_overlap(st, q, e_idx)
        }
        Next::Choose(d) => choose_comb(st, q, e_idx, d),
    }
}

/// Disjunctive propagation for a resolved no-overlap pair: the relative
/// placement `cycle(u) − cycle(v)` must fall outside the overlap window.
/// When the bounds already exclude one side, the other side becomes a hard
/// ordering constraint and tightens bounds (this is what makes the
/// serialisation cost of a *discard* decision visible to the §4.4.3
/// compactness heuristic).
fn propagate_no_overlap(
    st: &mut SchedulingState,
    q: &mut Queue,
    e_idx: usize,
) -> Result<(), Contradiction> {
    let (u, v) = (st.edges[e_idx].u, st.edges[e_idx].v);
    let w = st.edges[e_idx].window;
    let lo_poss = st.est[u] - st.lst[v];
    let hi_poss = st.lst[u] - st.est[v];
    let left_possible = lo_poss < w.lo;
    let right_possible = hi_poss > w.hi;
    match (left_possible, right_possible) {
        (false, false) => Err(Contradiction::EdgeConflict(u, v)),
        (false, true) => {
            // Must sit right of the window: cycle(u) − cycle(v) ≥ hi + 1.
            tighten_est(st, q, u, st.est[v] + w.hi + 1)?;
            tighten_lst(st, q, v, st.lst[u] - (w.hi + 1))
        }
        (true, false) => {
            // Must sit left of the window: cycle(u) − cycle(v) ≤ lo − 1.
            tighten_est(st, q, v, st.est[u] - (w.lo - 1))?;
            tighten_lst(st, q, u, st.lst[v] + (w.lo - 1))
        }
        (true, true) => Ok(()),
    }
}

/// Chooses combination `d` on edge `e_idx`: fixes `cycle(u) − cycle(v) = d`
/// and merges the connected components.
pub fn choose_comb(
    st: &mut SchedulingState,
    q: &mut Queue,
    e_idx: usize,
    d: i64,
) -> Result<(), Contradiction> {
    let (u, v) = (st.edges[e_idx].u, st.edges[e_idx].v);
    match &st.edges[e_idx].state {
        EdgeState::Open(dom) => {
            if !dom.contains(d) {
                return Err(Contradiction::EdgeConflict(u, v));
            }
            set_edge_state(st, e_idx, EdgeState::Chosen(d));
        }
        EdgeState::Chosen(d0) if *d0 == d => {}
        _ => return Err(Contradiction::EdgeConflict(u, v)),
    }
    merge_cc(st, q, u, v, d)
}

/// Discards combination `d` on edge `e_idx`.
pub fn discard_comb(
    st: &mut SchedulingState,
    q: &mut Queue,
    e_idx: usize,
    d: i64,
) -> Result<(), Contradiction> {
    let (u, v) = (st.edges[e_idx].u, st.edges[e_idx].v);
    let forced = must_overlap(st, e_idx);
    enum Next {
        Nothing,
        SetNoOverlap,
        Choose(i64),
    }
    let old = st.edges[e_idx].state;
    let mut state = old;
    let next = match &mut state {
        EdgeState::Open(dom) => {
            dom.discard(d);
            if dom.is_empty() {
                if forced {
                    return Err(Contradiction::EdgeConflict(u, v));
                }
                Next::SetNoOverlap
            } else if forced {
                match dom.singleton() {
                    Some(only) => Next::Choose(only),
                    None => Next::Nothing,
                }
            } else {
                Next::Nothing
            }
        }
        EdgeState::Chosen(d0) => {
            if *d0 == d {
                return Err(Contradiction::EdgeConflict(u, v));
            }
            Next::Nothing
        }
        EdgeState::NoOverlap => Next::Nothing,
    };
    if state != old {
        set_edge_state(st, e_idx, state);
    }
    match next {
        Next::Nothing => Ok(()),
        Next::SetNoOverlap => {
            set_edge_state(st, e_idx, EdgeState::NoOverlap);
            propagate_no_overlap(st, q, e_idx)
        }
        Next::Choose(only) => choose_comb(st, q, e_idx, only),
    }
}

/// Fixes the relative offset `cycle(u) − cycle(v) = delta`, merging the two
/// connected components and resolving every cross pair's edge.
pub fn merge_cc(
    st: &mut SchedulingState,
    q: &mut Queue,
    u: NodeId,
    v: NodeId,
    delta: i64,
) -> Result<(), Contradiction> {
    use vcsched_graph::OffsetUnion;
    if let Some(d0) = st.cc.relative_offset(u, v) {
        return if d0 == delta {
            Ok(())
        } else {
            Err(Contradiction::OffsetConflict(u, v))
        };
    }
    let ru = st.cc.root(u);
    let rv = st.cc.root(v);
    with_lists(st, |st, [a_members, b_members, audited]| {
        a_members.extend_from_slice(&st.cc_list[ru]);
        b_members.extend_from_slice(&st.cc_list[rv]);
        match st.cc.union_with_offset(u, v, delta) {
            OffsetUnion::Conflict => return Err(Contradiction::OffsetConflict(u, v)),
            OffsetUnion::Merged | OffsetUnion::Consistent => {}
        }
        let new_root = st.cc.root(u);
        let minor_root = if new_root == ru { rv } else { ru };
        let moved = move_members(&mut st.cc_list, minor_root, new_root);
        if st.trail.active {
            st.trail.push(TrailEntry::CcListMove {
                root: new_root,
                minor: minor_root,
                moved,
            });
        }
        st.trail.charge_bytes(16 + moved as u64 * 8);
        // Bounds will re-synchronise through the worklist.
        q.push_back(u);
        q.push_back(v);
        // Cross pairs now have fixed offsets: resolve their edges and audit
        // freshly formed same-cycle groups.
        for &x in a_members.iter() {
            for &y in b_members.iter() {
                let dxy = st
                    .cc
                    .relative_offset(x, y)
                    .expect("members of a merged component");
                resolve_fixed_pair(st, q, x, y, dxy)?;
                if dxy == 0 && !audited.contains(&x) {
                    audited.push(x);
                    audit_cycle_group(st, q, x)?;
                }
            }
        }
        Ok(())
    })
}

/// Called when the relative offset of `x` and `y` becomes fixed: resolves
/// their scheduling-graph edge accordingly.
pub fn resolve_fixed_pair(
    st: &mut SchedulingState,
    q: &mut Queue,
    x: NodeId,
    y: NodeId,
    delta_xy: i64,
) -> Result<(), Contradiction> {
    let (u, v, d) = if x < y {
        (x, y, delta_xy)
    } else {
        (y, x, -delta_xy)
    };
    let Some(e_idx) = st.edge_of.get(u, v) else {
        return Ok(());
    };
    let within = st.edges[e_idx].window.contains(d);
    match &st.edges[e_idx].state {
        EdgeState::Open(dom) => {
            if within {
                if !dom.contains(d) {
                    return Err(Contradiction::EdgeConflict(u, v));
                }
                set_edge_state(st, e_idx, EdgeState::Chosen(d));
            } else {
                set_edge_state(st, e_idx, EdgeState::NoOverlap);
            }
        }
        EdgeState::Chosen(d0) => {
            if *d0 != d {
                return Err(Contradiction::EdgeConflict(u, v));
            }
        }
        EdgeState::NoOverlap => {
            if within {
                return Err(Contradiction::EdgeConflict(u, v));
            }
        }
    }
    let _ = q;
    Ok(())
}

// ---------------------------------------------------------------------------
// Same-cycle capacity rules (Rule 2 and contradiction forms)
// ---------------------------------------------------------------------------

/// Audits the group of nodes provably issuing in the same cycle as `n`:
/// machine-wide class capacity, per-VC class capacity, per-VC issue width,
/// bus width; deduces Rule 2 incompatibilities for one-unit classes.
pub fn audit_cycle_group(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
) -> Result<(), Contradiction> {
    // `fixed_delta(m, n) == Some(0)` holds in exactly two shapes: m shares
    // n's connected component with offset 0, or the two sit in different
    // components but are both pinned to the same cycle. Enumerate each
    // shape directly — the component via its member list, the pinned case
    // via a cheap est/lst scan — instead of running two union-find walks
    // for every node in the graph. Sorting restores the ascending order
    // the old full scan produced, so Rule 2 fires in the same sequence.
    let total_nodes = st.kind.len();
    let (root_n, off_n) = st.cc.find_const(n);
    with_lists(st, |st, [group, fu_members]| {
        for i in 0..st.cc_list[root_n].len() {
            let m = st.cc_list[root_n][i];
            if st.uses_resources(m) && st.cc.find_const(m).1 == off_n {
                group.push(m);
            }
        }
        if st.pinned(n) {
            let cycle = st.est[n];
            for m in 0..total_nodes {
                if st.est[m] == cycle
                    && st.lst[m] == cycle
                    && st.uses_resources(m)
                    && st.cc.find_const(m).0 != root_n
                {
                    group.push(m);
                }
            }
        }
        if group.len() < 2 {
            return Ok(());
        }
        group.sort_unstable();
        // Machine-wide per-class totals.
        for class in [
            OpClass::Int,
            OpClass::Fp,
            OpClass::Mem,
            OpClass::Branch,
            OpClass::Copy,
        ] {
            let count = group
                .iter()
                .filter(|&&m| st.class(m) == Some(class))
                .count();
            if count > st.ctx.machine.total_capacity(class) {
                return Err(Contradiction::ResourceOverflow(class));
            }
        }
        // Per-VC class counts and issue widths; Rule 2 for capacity-1 classes.
        fu_members.extend(
            group
                .iter()
                .copied()
                .filter(|&m| st.class(m).is_some_and(|c| c.uses_fu())),
        );
        for i in 0..fu_members.len() {
            for j in i + 1..fu_members.len() {
                let (a, b) = (fu_members[i], fu_members[j]);
                let (ca, cb) = (st.class(a).expect("fu"), st.class(b).expect("fu"));
                if st.same_vc(a, b) {
                    // Count same-VC same-cycle instructions of each class.
                    if ca == cb {
                        let cap = st.ctx.machine.capacity(ca);
                        let cnt = fu_members
                            .iter()
                            .filter(|&&m| st.class(m) == Some(ca) && st.same_vc(m, a))
                            .count();
                        if cnt > cap {
                            return Err(Contradiction::ResourceOverflow(ca));
                        }
                    }
                    if let Some(w) = st.ctx.machine.issue_per_cluster() {
                        let cnt = fu_members.iter().filter(|&&m| st.same_vc(m, a)).count();
                        if cnt > w {
                            return Err(Contradiction::ResourceOverflow(ca));
                        }
                    }
                } else if ca == cb && st.ctx.machine.capacity(ca) == 1 && !st.vcs_incompatible(a, b)
                {
                    // Rule 2: same cycle, one unit per cluster ⇒ different PCs.
                    make_incompat(st, q, a, b)?;
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Virtual-cluster rules: fusion, incompatibility, communications, PLCs
// ---------------------------------------------------------------------------

/// Fuses the VCs of `a` and `b` (§3.2), merging incompatibility adjacency
/// and auditing capacity; fires PLC promotion (Rule 6).
pub fn fuse_vcs(
    st: &mut SchedulingState,
    q: &mut Queue,
    a: NodeId,
    b: NodeId,
) -> Result<(), Contradiction> {
    let (ra, rb) = (st.vc.find(a), st.vc.find(b));
    if ra == rb {
        return Ok(());
    }
    if st.vc_adj[ra].contains(rb) {
        return Err(Contradiction::VcConflict(a, b));
    }
    st.dirty = true;
    st.vcg_dirty = true;
    let ctx = Arc::clone(&st.ctx);
    with_lists(st, |st, [a_members, b_members, scan, audited]| {
        a_members.extend_from_slice(&st.vc_list[ra]);
        b_members.extend_from_slice(&st.vc_list[rb]);
        let root = st.vc.union(ra, rb);
        let minor = if root == ra { rb } else { ra };
        let moved = move_members(&mut st.vc_list, minor, root);
        if st.trail.active {
            st.trail.push(TrailEntry::VcListMove { root, minor, moved });
        }
        st.trail.charge_bytes(16 + moved as u64 * 8);
        // Fused VC inherits all incompatibilities (§3.2).
        scan.extend(st.vc_adj[minor].iter());
        for &nb in scan.iter() {
            // The set operations run first: `&&` only skips the record.
            if st.vc_adj[nb].remove(minor) && st.trail.active {
                st.trail.push(TrailEntry::VcAdjRemove { a: nb, b: minor });
            }
            if st.vc_adj[nb].insert(root) && st.trail.active {
                st.trail.push(TrailEntry::VcAdjInsert { a: nb, b: root });
            }
            if st.vc_adj[root].insert(nb) && st.trail.active {
                st.trail.push(TrailEntry::VcAdjInsert { a: root, b: nb });
            }
            if st.trail.active {
                st.trail.push(TrailEntry::VcAdjRemove { a: minor, b: nb });
            }
            st.trail.charge_bytes(32);
        }
        st.vc_adj[minor].clear();
        if st.vc_adj[root].contains(root) {
            return Err(Contradiction::VcConflict(a, b));
        }
        // Heterogeneous machines (the paper's §2.1 extension): the merged
        // membership must fit on the anchor's cluster when already mapped,
        // or on at least one cluster otherwise — classes with no shared
        // capable cluster can never share a VC.
        if !ctx.machine.is_homogeneous() {
            let anchor_cluster = st.cluster_of(a);
            let mut needed = [false; OpClass::FU_CLASSES.len()];
            for &m in &st.vc_list[root] {
                if let Some(fu) = st.class(m).and_then(OpClass::fu_index) {
                    needed[fu] = true;
                }
            }
            let fits = |c: ClusterId| {
                OpClass::FU_CLASSES
                    .iter()
                    .zip(needed)
                    .all(|(&cl, need)| !need || ctx.machine.cluster_capacity(c, cl) > 0)
            };
            let ok = match anchor_cluster {
                Some(c) => fits(c),
                None => (0..ctx.machine.cluster_count()).any(|c| fits(ClusterId(c as u8))),
            };
            if !ok {
                return Err(Contradiction::VcConflict(a, b));
            }
        }
        // Same-cycle capacity audit across the merged membership.
        for &x in a_members.iter() {
            for &y in b_members.iter() {
                if st.fixed_delta(x, y) == Some(0) && !audited.contains(&x) {
                    audited.push(x);
                    audit_cycle_group(st, q, x)?;
                }
            }
        }
        // Rule 1 may fire for data edges whose slack was already too small.
        for &x in a_members.iter().chain(b_members.iter()) {
            rule1_slack_check(st, &ctx, q, x)?;
        }
        // Fusing inherits incompatibilities, so data edges that now cross an
        // incompatible pair (e.g. after fusing with a cluster anchor) need
        // their communication just as if `make_incompat` had run.
        ensure_comms_for_incompatible_edges(st, &ctx, q)?;
        // Inherited incompatibilities also expose new Rule-5 / dual pairs:
        // members of the merged VC against members of every incompatible
        // neighbour (e.g. live-ins pre-placed on distinct cluster anchors
        // with a common consumer). `plc_seen` makes the sweep idempotent.
        let root_now = st.vc.find(a);
        a_members.clear();
        a_members.extend(
            st.vc_list[root_now]
                .iter()
                .copied()
                .filter(|&m| m < ctx.n_insts),
        );
        scan.clear();
        scan.extend(st.vc_adj[root_now].iter());
        for &nb in scan.iter() {
            b_members.clear();
            b_members.extend(st.vc_list[nb].iter().copied().filter(|&m| m < ctx.n_insts));
            for &x in a_members.iter() {
                for &y in b_members.iter() {
                    create_plcs_for_pair(st, &ctx, q, x, y)?;
                }
            }
        }
        promote_plcs(st, q)
    })
}

/// Repair pass: every data edge whose endpoints sit in incompatible VCs
/// must be served by a communication. `require_comm` is a no-op for edges
/// already served.
fn ensure_comms_for_incompatible_edges(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
) -> Result<(), Contradiction> {
    // VC roots are memoised across the sweep and flushed whenever a
    // `require_comm` fires (it may fuse a consumer and move roots); the
    // adjacency probe always reads live state.
    let mut root = st.scratch.take_memo(st.kind.len());
    let mut sweep = || {
        for &(p, c) in &ctx.data_edges {
            if root[p] == usize::MAX {
                root[p] = st.vc.find(p);
            }
            if root[c] == usize::MAX {
                root[c] = st.vc.find(c);
            }
            let (rp, rc) = (root[p], root[c]);
            if rp != rc && st.vc_adj[rp].contains(rc) {
                require_comm(st, q, p, c)?;
                root.fill(usize::MAX);
            }
        }
        Ok(())
    };
    let swept = sweep();
    st.scratch.put_memo(root);
    swept
}

/// Marks the VCs of `a` and `b` incompatible (§3.2): inserts the VCG edge,
/// creates mandatory communications for crossing data edges, creates PLCs
/// (Rule 5 and dual) and fires promotions (Rule 7).
pub fn make_incompat(
    st: &mut SchedulingState,
    q: &mut Queue,
    a: NodeId,
    b: NodeId,
) -> Result<(), Contradiction> {
    let (ra, rb) = (st.vc.find(a), st.vc.find(b));
    if ra == rb {
        return Err(Contradiction::VcConflict(a, b));
    }
    if st.vc_adj[ra].contains(rb) {
        return Ok(());
    }
    st.dirty = true;
    st.vcg_dirty = true;
    if st.trail.active {
        st.trail.push(TrailEntry::VcAdjInsert { a: ra, b: rb });
        st.trail.push(TrailEntry::VcAdjInsert { a: rb, b: ra });
    }
    st.trail.charge_bytes(16);
    st.vc_adj[ra].insert(rb);
    st.vc_adj[rb].insert(ra);
    let ctx = Arc::clone(&st.ctx);
    with_lists(st, |st, [a_members, b_members]| {
        a_members.extend(st.vc_list[ra].iter().copied().filter(|&m| m < ctx.n_insts));
        b_members.extend(st.vc_list[rb].iter().copied().filter(|&m| m < ctx.n_insts));
        // Crossing data edges need a communication. The two side roots only
        // move when a `require_comm` fires (it may fuse a consumer), so they
        // are cached across iterations and refreshed after each hit instead
        // of re-walked four times per edge.
        let (mut wa, mut wb) = (st.vc.find(ra), st.vc.find(rb));
        for &(p, c) in &ctx.data_edges {
            let (rp, rc) = (st.vc.find(p), st.vc.find(c));
            if (rp == wa && rc == wb) || (rp == wb && rc == wa) {
                require_comm(st, q, p, c)?;
                wa = st.vc.find(ra);
                wb = st.vc.find(rb);
            }
        }
        // Rule 5 (P-PLC) and the consumer dual (C-PLC).
        for &x in a_members.iter() {
            for &y in b_members.iter() {
                create_plcs_for_pair(st, &ctx, q, x, y)?;
            }
        }
        promote_plcs(st, q)
    })
}

/// Rule 1 (§3.3.1): if a data edge at `n` has too little slack for a bus
/// transfer, producer and consumer must share a cluster.
pub fn rule1_slack_check(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    n: NodeId,
) -> Result<(), Contradiction> {
    if n >= ctx.n_insts {
        return Ok(());
    }
    let bus = ctx.machine.bus_latency() as i64;
    // Slack first: the arithmetic test is branch-predictable and usually
    // false, the VC probes cost union-find walks. The conjunction is
    // pure, so the reorder cannot change which pairs fuse. `n`'s own root
    // is walked once and refreshed only when a fuse can move it;
    // `same_vc(a, b) || vcs_incompatible(a, b)` is exactly
    // `ra == rb || vc_adj[ra].contains(rb)` on the two roots.
    let lat_n = st.latency(n);
    let mut rn = st.vc.find(n);
    for &c in &ctx.consumers_of[n] {
        if st.lst[c] - (st.est[n] + lat_n) < bus {
            let rc = st.vc.find(c);
            if rn != rc && !st.vc_adj[rn].contains(rc) {
                fuse_vcs(st, q, n, c)?;
                rn = st.vc.find(n);
            }
        }
    }
    for &p in &ctx.producers_of[n] {
        let lat = st.latency(p);
        if st.lst[n] - (st.est[p] + lat) < bus {
            let rp = st.vc.find(p);
            if rp != rn && !st.vc_adj[rp].contains(rn) {
                fuse_vcs(st, q, p, n)?;
                rn = st.vc.find(n);
            }
        }
    }
    Ok(())
}

/// Ensures a communication carries `p`'s value to `c` (whose VCs are
/// incompatible).
///
/// The paper assumes a single communication per value (§3.3.1) and fuses
/// all remote consumers; it also observes that "more communications may
/// help". With the leaner rule set implemented here, strict single-comm
/// turned decisions into frequent false dead ends (fusing consumers that
/// other rules had already separated), so communications are keyed by
/// *(value, destination virtual cluster)*: consumers in the same VC share
/// one transfer, consumers elsewhere get their own.
pub fn require_comm(
    st: &mut SchedulingState,
    q: &mut Queue,
    p: NodeId,
    c: NodeId,
) -> Result<(), Contradiction> {
    let bus = st.ctx.machine.bus_latency() as i64;
    let shared = with_lists(st, |st, [existing]| {
        existing.extend_from_slice(&st.flc_by_value[p]);
        for &ci in existing.iter() {
            let (node, first_consumer, present) = {
                let comm = &st.comms[ci];
                match &comm.kind {
                    CommKind::Flc { consumers, .. } => {
                        (comm.node, consumers[0], consumers.contains(&c))
                    }
                    _ => unreachable!("flc registry holds only FLCs"),
                }
            };
            if present {
                return Ok(true);
            }
            if st.same_vc(first_consumer, c) {
                // Same destination register file: share the transfer.
                if st.trail.active {
                    st.trail.push(TrailEntry::CommConsumerPush { ci });
                }
                st.trail.charge_bytes(16);
                if let CommKind::Flc { consumers, .. } = &mut st.comms[ci].kind {
                    consumers.push(c);
                }
                add_dep_edge(st, q, node, c, bus)?;
                return Ok(true);
            }
        }
        Ok(false)
    })?;
    if shared {
        return Ok(());
    }
    // New destination: a fresh communication node.
    let lat_p = st.latency(p);
    let node = new_comm_node(st, st.est[p] + lat_p, st.lst[c] - bus);
    if st.est[node] > st.lst[node] {
        return Err(Contradiction::NoCommSlack(node));
    }
    let ci = st.comms.len();
    if st.trail.active {
        st.trail.push(TrailEntry::CommPush);
    }
    st.trail.charge_bytes(48);
    let mut consumers = st.scratch.rows.take();
    consumers.push(c);
    st.comms.push(Comm {
        node,
        kind: CommKind::Flc {
            value: p,
            consumers,
        },
    });
    if st.trail.active {
        st.trail.push(TrailEntry::FlcPush { value: p });
    }
    st.trail.charge_bytes(16);
    st.flc_by_value[p].push(ci);
    add_dep_edge(st, q, p, node, lat_p)?;
    add_dep_edge(st, q, node, c, bus)?;
    q.push_back(node);
    // A realised communication subsumes PLCs predicting it.
    kill_plcs_subsumed_by(st, p, c);
    Ok(())
}

fn new_comm_node(st: &mut SchedulingState, est: i64, lst: i64) -> NodeId {
    if st.trail.active {
        st.trail.push(TrailEntry::NewNode);
    }
    st.trail.charge_bytes(128);
    let node = st.push_comm_node(est.max(0), lst.min(st.horizon));
    st.dirty = true;
    node
}

fn kill_plcs_subsumed_by(st: &mut SchedulingState, p: NodeId, c: NodeId) {
    for ci in 0..st.comms.len() {
        let dead = match &st.comms[ci].kind {
            CommKind::PPlc {
                producers,
                consumer,
            } => *consumer == c && (producers.0 == p || producers.1 == p),
            CommKind::CPlc { value, .. } => *value == p,
            _ => false,
        };
        if dead {
            if st.trail.active {
                let old = st.comms[ci].kind.clone();
                st.trail.push(TrailEntry::CommKind { ci, old });
            }
            st.trail.charge_bytes(16);
            st.comms[ci].kind = CommKind::Dead;
        }
    }
}

/// Creates the partially-linked communications implied by `x ⊥ y` (Rule 5
/// and the consumer-side dual): common successors and common predecessors
/// sitting in third VCs.
fn create_plcs_for_pair(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    x: NodeId,
    y: NodeId,
) -> Result<(), Contradiction> {
    if ctx.tuning.disable_plc || x >= ctx.n_insts || y >= ctx.n_insts {
        return Ok(());
    }
    let bus = ctx.machine.bus_latency() as i64;
    // Rule 5: common data successor s in a third VC ⇒ at least one of the
    // two values will be communicated to s.
    for &s in &ctx.consumers_of[x] {
        if !ctx.consumers_of[y].contains(&s) {
            continue;
        }
        let rs = st.vc.find(s);
        if rs == st.vc.find(x) || rs == st.vc.find(y) {
            continue;
        }
        let key = (0u8, x.min(y), x.max(y), s);
        if st.has_plc(&key) || !st.flc_by_value[x].is_empty() || !st.flc_by_value[y].is_empty() {
            continue;
        }
        if st.trail.active {
            st.trail.push(TrailEntry::PlcSeen { key });
        }
        st.trail.charge_bytes(32);
        st.insert_plc(key);
        let est = (st.est[x] + st.latency(x)).min(st.est[y] + st.latency(y));
        let lst = st.lst[s] - bus;
        let node = new_comm_node(st, est, lst);
        if st.est[node] > st.lst[node] {
            return Err(Contradiction::NoCommSlack(node));
        }
        if st.trail.active {
            st.trail.push(TrailEntry::CommPush);
        }
        st.trail.charge_bytes(48);
        st.comms.push(Comm {
            node,
            kind: CommKind::PPlc {
                producers: (x.min(y), x.max(y)),
                consumer: s,
            },
        });
        // The consumer waits for whichever producer sends (hard edge); the
        // producer side is a min-bound maintained by `refresh_plc_bounds`.
        add_dep_edge(st, q, node, s, bus)?;
        q.push_back(node);
    }
    // Dual: common data predecessor p in a third VC ⇒ p's single
    // communication will serve x or y.
    for &p in &ctx.producers_of[x] {
        if !ctx.producers_of[y].contains(&p) {
            continue;
        }
        let rp = st.vc.find(p);
        if rp == st.vc.find(x) || rp == st.vc.find(y) {
            continue;
        }
        let key = (1u8, x.min(y), x.max(y), p);
        if st.has_plc(&key) || !st.flc_by_value[p].is_empty() {
            continue;
        }
        if st.trail.active {
            st.trail.push(TrailEntry::PlcSeen { key });
        }
        st.trail.charge_bytes(32);
        st.insert_plc(key);
        let est = st.est[p] + st.latency(p);
        let lst = st.lst[x].max(st.lst[y]) - bus;
        let node = new_comm_node(st, est, lst);
        if st.est[node] > st.lst[node] {
            return Err(Contradiction::NoCommSlack(node));
        }
        if st.trail.active {
            st.trail.push(TrailEntry::CommPush);
        }
        st.trail.charge_bytes(48);
        st.comms.push(Comm {
            node,
            kind: CommKind::CPlc {
                value: p,
                consumers: (x.min(y), x.max(y)),
            },
        });
        add_dep_edge(st, q, p, node, st.latency(p))?;
        q.push_back(node);
    }
    Ok(())
}

/// Rules 6/7: promotes partially-linked communications whose alternative
/// became determined (fused ⇒ the other pair communicates; incompatible ⇒
/// that pair communicates).
pub fn promote_plcs(st: &mut SchedulingState, q: &mut Queue) -> Result<(), Contradiction> {
    loop {
        let mut action: Option<(usize, NodeId, NodeId)> = None;
        for (ci, comm) in st.comms.iter().enumerate() {
            match comm.kind {
                CommKind::PPlc {
                    producers: (a, b),
                    consumer: s,
                } => {
                    let pairs = [(a, b), (b, a)];
                    for &(this, other) in &pairs {
                        if st.vc.find_const(this) == st.vc.find_const(s) {
                            // Rule 6: (this, s) fused ⇒ the alternative communicates.
                            action = Some((ci, other, s));
                            break;
                        }
                        let (rt, rs) = (st.vc.find_const(this), st.vc.find_const(s));
                        if rt != rs && st.vc_adj[rt].contains(rs) {
                            // Rule 7: (this, s) incompatible ⇒ it communicates.
                            action = Some((ci, this, s));
                            break;
                        }
                    }
                }
                CommKind::CPlc {
                    value: p,
                    consumers: (a, b),
                } => {
                    let pairs = [(a, b), (b, a)];
                    for &(this, other) in &pairs {
                        if st.vc.find_const(p) == st.vc.find_const(this) {
                            action = Some((ci, p, other));
                            break;
                        }
                        let (rp, rt) = (st.vc.find_const(p), st.vc.find_const(this));
                        if rp != rt && st.vc_adj[rp].contains(rt) {
                            action = Some((ci, p, this));
                            break;
                        }
                    }
                }
                _ => {}
            }
            if action.is_some() {
                break;
            }
        }
        match action {
            None => return Ok(()),
            Some((ci, p, c)) => {
                if st.trail.active {
                    let old = st.comms[ci].kind.clone();
                    st.trail.push(TrailEntry::CommKind { ci, old });
                }
                st.trail.charge_bytes(16);
                st.comms[ci].kind = CommKind::Dead;
                require_comm(st, q, p, c)?;
            }
        }
    }
}

/// Recomputes min/max-style PLC bounds after `n`'s bounds moved.
pub fn refresh_plc_bounds(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
) -> Result<(), Contradiction> {
    let bus = st.ctx.machine.bus_latency() as i64;
    for ci in 0..st.comms.len() {
        match st.comms[ci].kind {
            CommKind::PPlc {
                producers: (a, b), ..
            } if a == n || b == n => {
                let node = st.comms[ci].node;
                let est = (st.est[a] + st.latency(a)).min(st.est[b] + st.latency(b));
                if st.est[node] < est {
                    tighten_est(st, q, node, est).map_err(|_| Contradiction::NoCommSlack(node))?;
                }
            }
            CommKind::CPlc {
                consumers: (a, b), ..
            } if a == n || b == n => {
                let node = st.comms[ci].node;
                let lst = st.lst[a].max(st.lst[b]) - bus;
                if st.lst[node] > lst {
                    tighten_lst(st, q, node, lst).map_err(|_| Contradiction::NoCommSlack(node))?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Resource windows (pigeonhole + edge-finding-lite)
// ---------------------------------------------------------------------------

/// One pass of windowed resource reasoning over every class: detects
/// saturation contradictions and tightens bounds of excluded instructions.
/// Returns `true` if any bound changed.
pub fn resource_pass(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
) -> Result<bool, Contradiction> {
    let before = q.len();
    let mut scratch = std::mem::take(&mut st.scratch.pigeon);
    let passed = with_lists(st, |st, [members, of_class, comms]| {
        resource_rules(st, ctx, q, &mut scratch, members, of_class, comms)
    });
    st.scratch.pigeon = scratch;
    passed.map(|()| q.len() > before)
}

/// The body of [`resource_pass`], over its scratch buffers.
fn resource_rules(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    scratch: &mut PigeonScratch,
    members: &mut Vec<NodeId>,
    of_class: &mut Vec<NodeId>,
    comms: &mut Vec<NodeId>,
) -> Result<(), Contradiction> {
    let tighten = !ctx.tuning.disable_resource_tightening;
    // Machine-wide, per FU class; the contender lists are static (comm
    // nodes are `Copy`-class, live-ins never compete).
    for (ci, &class) in OpClass::FU_CLASSES.iter().enumerate() {
        let cap = ctx.machine.total_capacity(class);
        pigeonhole(st, q, scratch, &ctx.fu_nodes[ci], cap, 1, tighten, class)?;
    }
    // Per-VC, per FU class and per issue width. Roots are scanned in the
    // same ascending order `vc_roots()` returns, and the member/class
    // buffers are reused across roots — pigeonhole only tightens bounds,
    // never VC structure, so membership is stable across the loop.
    for root in 0..st.kind.len() {
        if !st.is_vc_root(root) {
            continue;
        }
        members.clear();
        for i in 0..st.vc_list[root].len() {
            let m = st.vc_list[root][i];
            if st.uses_resources(m) && st.class(m).is_some_and(|c| c.uses_fu()) {
                members.push(m);
            }
        }
        if members.len() < 2 {
            continue;
        }
        for class in OpClass::FU_CLASSES {
            of_class.clear();
            of_class.extend(
                members
                    .iter()
                    .copied()
                    .filter(|&m| st.class(m) == Some(class)),
            );
            if of_class.len() > 1 {
                let cap = ctx.machine.capacity(class);
                pigeonhole(st, q, scratch, of_class, cap, 1, tighten, class)?;
            }
        }
        if let Some(w) = ctx.machine.issue_per_cluster() {
            pigeonhole(st, q, scratch, members, w, 1, tighten, OpClass::Int)?;
        }
    }
    // Precedence rule: a group of same-class predecessors larger than the
    // machine's capacity needs several issue rounds before a node can
    // start (and symmetrically before its successors must end). This is
    // what turns "78 int ops feed this exit" into a real lower bound.
    if tighten {
        precedence_resource_rule(st, ctx, q)?;
    }
    // Bus: live communications, with occupancy.
    comms.extend(st.live_comms().map(|c| c.node));
    let buses = ctx.machine.bus_count();
    let occ = ctx.machine.bus_occupancy() as i64;
    pigeonhole(st, q, scratch, comms, buses, occ, false, OpClass::Copy)?;
    // Pinned copies: exact sliding-window conflict for non-pipelined buses.
    let pinned = &mut scratch.pinned;
    pinned.clear();
    pinned.extend(comms.iter().filter(|&&n| st.pinned(n)).map(|&n| st.est[n]));
    for &t in pinned.iter() {
        let overlapping = pinned.iter().filter(|&&u| u <= t && t < u + occ).count();
        if overlapping > buses {
            return Err(Contradiction::ResourceOverflow(OpClass::Copy));
        }
    }
    Ok(())
}

/// Precedence-based resource bounds (see [`resource_pass`]): folds each
/// precomputed [`vcsched_core::state` `PrecRule`] group's current EST/LST
/// over its static membership. Group discovery (reachability, class,
/// capacity overflow, path slack) happened once at context build.
fn precedence_resource_rule(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
) -> Result<(), Contradiction> {
    for rule in &ctx.prec_rules {
        if rule.succ_side {
            let group_lst = rule
                .members
                .iter()
                .map(|&c| st.lst[c])
                .max()
                .unwrap_or(i64::MIN);
            tighten_lst(st, q, rule.node, group_lst - rule.slack)?;
        } else {
            let group_est = rule
                .members
                .iter()
                .map(|&p| st.est[p])
                .min()
                .unwrap_or(i64::MAX);
            tighten_est(st, q, rule.node, group_est + rule.slack)?;
        }
    }
    Ok(())
}

/// Windowed pigeonhole over `nodes` with `cap` units: for windows `[a, b]`,
/// instructions confined to the window must fit; when a window is saturated,
/// instructions merely *starting* inside it are pushed out (if `tighten`).
///
/// Windows longer than `|confined|/cap` cycles can be neither overfull nor
/// saturated, so for each window start only the first `n/cap` end values
/// matter — that bound keeps the pass near-linear in practice.
/// Reusable buffers for [`pigeonhole`], kept in the state's scratch and
/// shared across the dozens of per-class / per-VC invocations of each
/// [`resource_pass`], so the window scan allocates nothing in steady
/// state.
#[derive(Debug, Default)]
pub(crate) struct PigeonScratch {
    starts: Vec<i64>,
    ends: Vec<i64>,
    by_est: Vec<(i64, i64)>,
    lsts: Vec<i64>,
    saturated: Vec<(i64, i64)>,
    /// Cycles of the pinned copies (the bus sliding-window check).
    pinned: Vec<i64>,
}

#[allow(clippy::too_many_arguments)] // one scratch handle on top of the rule's natural shape
fn pigeonhole(
    st: &mut SchedulingState,
    q: &mut Queue,
    scratch: &mut PigeonScratch,
    nodes: &[NodeId],
    cap: usize,
    occupancy: i64,
    tighten: bool,
    class: OpClass,
) -> Result<(), Contradiction> {
    if nodes.len() <= cap || cap == 0 {
        return Ok(());
    }
    // Nodes that could belong to a window starting at `a` are those with
    // `est >= a`, ordered by their latest start so `must(a, b)` grows
    // incrementally with `b`. One sorted LST list serves every start: as
    // `a` advances, members with `est < a` drop out one at a time —
    // identical contents to a per-start refilter, without the O(n² log n)
    // rebuild (the window scan reads bounds, it never tightens them).
    // Two sorts feed all four views: the deduped window boundaries
    // `starts` / `ends` are linear projections of `by_est` / `lsts`.
    scratch.by_est.clear();
    scratch
        .by_est
        .extend(nodes.iter().map(|&n| (st.est[n], st.lst[n])));
    scratch.by_est.sort_unstable();
    scratch.lsts.clear();
    scratch.lsts.extend(scratch.by_est.iter().map(|&(_, l)| l));
    scratch.lsts.sort_unstable();
    scratch.starts.clear();
    scratch
        .starts
        .extend(scratch.by_est.iter().map(|&(e, _)| e));
    scratch.starts.dedup();
    scratch.ends.clear();
    scratch.ends.extend(scratch.lsts.iter().copied());
    scratch.ends.dedup();
    scratch.saturated.clear();
    let mut dropped = 0usize;
    for &a in &scratch.starts {
        while dropped < scratch.by_est.len() && scratch.by_est[dropped].0 < a {
            let gone = scratch.by_est[dropped].1;
            let pos = scratch
                .lsts
                .binary_search(&gone)
                .expect("member LST present");
            scratch.lsts.remove(pos);
            dropped += 1;
        }
        if (scratch.lsts.len() as i64) * occupancy <= cap as i64 * occupancy {
            continue;
        }
        // Longest window that can still overflow or saturate.
        let max_len = (scratch.lsts.len() as i64 * occupancy) / cap as i64 + occupancy;
        let mut idx = 0;
        for &b in &scratch.ends {
            if b < a {
                continue;
            }
            if b - a + 1 > max_len {
                break;
            }
            while idx < scratch.lsts.len() && scratch.lsts[idx] <= b {
                idx += 1;
            }
            let must = idx as i64;
            let supply = cap as i64 * (b - a + occupancy);
            let demand = must * occupancy;
            if demand > supply {
                return Err(Contradiction::ResourceOverflow(class));
            }
            if tighten && demand == supply && must > 0 {
                scratch.saturated.push((a, b));
            }
        }
    }
    for &(a, b) in &scratch.saturated {
        // Re-check: earlier tightenings may have changed membership.
        let must = nodes
            .iter()
            .filter(|&&n| st.est[n] >= a && st.lst[n] <= b)
            .count() as i64;
        if must * occupancy != cap as i64 * (b - a + occupancy) {
            continue;
        }
        for &n in nodes {
            if st.est[n] >= a && st.lst[n] <= b {
                continue; // in the must set
            }
            if st.est[n] >= a && st.est[n] <= b {
                tighten_est(st, q, n, b + 1)?;
            } else if st.lst[n] >= a && st.lst[n] <= b {
                tighten_lst(st, q, n, a - 1)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Processes one bound change: dependence propagation, CC sync, edge
/// pruning, pinned-pair resolution, Rule 1, PLC refresh, cycle audits.
fn on_bound(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    n: NodeId,
) -> Result<(), Contradiction> {
    // Dependence propagation: the static CSR adjacency first, then the
    // per-search extras (communication dependence edges) — together in
    // exactly the order the old per-node `Vec`s held them. The CSR rows
    // live in the shared context, so no clone is needed to iterate them;
    // the extras use length-snapshot index loops for the same reason
    // (tightening only queues work, it never grows these rows).
    if n < ctx.succ_csr.rows() {
        for &(s, lat) in ctx.succ_csr.row(n) {
            tighten_est(st, q, s, st.est[n] + lat)?;
        }
    }
    for i in 0..st.succ[n].len() {
        let (s, lat) = st.succ[n][i];
        tighten_est(st, q, s, st.est[n] + lat)?;
    }
    if n < ctx.pred_csr.rows() {
        for &(p, lat) in ctx.pred_csr.row(n) {
            tighten_lst(st, q, p, st.lst[n] - lat)?;
        }
    }
    for i in 0..st.pred[n].len() {
        let (p, lat) = st.pred[n][i];
        tighten_lst(st, q, p, st.lst[n] - lat)?;
    }
    // Connected-component synchronisation. Membership is stable across the
    // loop (tightens only queue), so index without cloning the list.
    let (root, off_n) = st.cc.find(n);
    if st.cc_list[root].len() > 1 {
        let members = st.cc_list[root].len();
        for i in 0..members {
            let m = st.cc_list[root][i];
            if m == n {
                continue;
            }
            let (_, off_m) = st.cc.find(m);
            let shift = off_m - off_n;
            tighten_est(st, q, m, st.est[n] + shift)?;
            tighten_lst(st, q, m, st.lst[n] + shift)?;
        }
    }
    // Edge domain pruning. Row `n` never grows mid-loop (only *new* nodes
    // gain rows), but the outer vec can reallocate, so re-index each pass.
    for i in 0..st.edges_at[n].len() {
        let e_idx = st.edges_at[n][i];
        prune_edge(st, q, e_idx)?;
    }
    // Pinned-pair resolution + same-cycle audit.
    if st.pinned(n) {
        for i in 0..st.edges_at[n].len() {
            let e_idx = st.edges_at[n][i];
            let (u, v) = (st.edges[e_idx].u, st.edges[e_idx].v);
            let other = if u == n { v } else { u };
            if st.pinned(other) {
                let delta = st.est[n] - st.est[other];
                resolve_fixed_pair(st, q, n, other, delta)?;
            }
        }
        if st.uses_resources(n) {
            audit_cycle_group(st, q, n)?;
        }
    }
    // Rule 1 on data edges at n.
    rule1_slack_check(st, ctx, q, n)?;
    // PLC bound refresh.
    refresh_plc_bounds(st, q, n)
}

/// Drains the worklist to a fixpoint, alternating with resource passes.
/// The resource rules only re-run when bounds, clusters or communications
/// changed since the last pass (`SchedulingState::dirty`).
pub fn drain(st: &mut SchedulingState, q: &mut Queue, budget: &mut Budget) -> Result<(), DpAbort> {
    // One handle on the shared context for the whole drain: the rules
    // borrow it while they mutate the state.
    let ctx = Arc::clone(&st.ctx);
    loop {
        while let Some(n) = q.pop_front() {
            budget.spend(1)?;
            budget.check_bytes(st.trail.work_bytes())?;
            on_bound(st, &ctx, q, n)?;
        }
        if !st.dirty {
            return Ok(());
        }
        budget.spend(8)?;
        budget.check_bytes(st.trail.work_bytes())?;
        st.dirty = false;
        resource_pass(st, &ctx, q)?;
        if q.is_empty() && !st.dirty {
            return Ok(());
        }
    }
}

/// Checks that the VCG is still mappable onto the physical clusters by
/// colouring (§3.2): detects cliques exceeding the cluster count.
///
/// Colourability is pure in the VCG (the VC partition plus the
/// incompatibility adjacency), so when `vcg_dirty` is clear — no fuse or
/// incompatibility has landed since the last passing check — the graph is
/// bit-identical to one already proven colourable and the check is skipped.
pub fn check_colorable(st: &mut SchedulingState) -> Result<(), Contradiction> {
    if !st.vcg_dirty {
        return Ok(());
    }
    let k = st.ctx.machine.cluster_count();
    if st.vcg_colorable(k) {
        st.vcg_dirty = false;
        Ok(())
    } else {
        Err(Contradiction::Uncolorable)
    }
}
