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
    fn check_bytes(&self, work_bytes: u64) -> Result<(), DpAbort> {
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
#[inline]
pub fn tighten_est(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
    // Most calls move nothing: only the comparison is inlined.
    if v > st.est[n] {
        raise_est(st, q, n, v)
    } else {
        Ok(())
    }
}

fn raise_est(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
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
    Ok(())
}

/// Lowers `lst[n]` to at most `v`; queues the node when it changed.
#[inline]
pub fn tighten_lst(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
    if v < st.lst[n] {
        lower_lst(st, q, n, v)
    } else {
        Ok(())
    }
}

fn lower_lst(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
    v: i64,
) -> Result<(), Contradiction> {
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
    Ok(())
}

/// Adds a hard dependence edge `from → to` with `lat` and propagates once.
fn add_dep_edge(
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

/// The range `[lo, hi]` of `cycle(u) − cycle(v)` the bounds allow on edge
/// `e_idx`, and whether the pair must overlap (the whole range lies inside
/// the combination window).
fn placements(st: &SchedulingState, e_idx: usize) -> (i64, i64, bool) {
    let e = &st.edges[e_idx];
    let lo = st.est[e.u] - st.lst[e.v];
    let hi = st.lst[e.u] - st.est[e.v];
    (lo, hi, lo >= e.window.lo && hi <= e.window.hi)
}

/// Prunes the edge's domain against current bounds; resolves or contradicts
/// when forced.
pub fn prune_edge(
    st: &mut SchedulingState,
    q: &mut Queue,
    e_idx: usize,
) -> Result<(), Contradiction> {
    let (lo, hi, forced) = placements(st, e_idx);
    let e = &st.edges[e_idx];
    let (u, v) = (e.u, e.v);
    let mut dom = match e.state {
        EdgeState::Open(dom) => dom,
        EdgeState::Chosen(d) if d < lo || d > hi => {
            return Err(Contradiction::EdgeConflict(u, v));
        }
        EdgeState::Chosen(_) => return Ok(()),
        EdgeState::NoOverlap if forced => return Err(Contradiction::EdgeConflict(u, v)),
        EdgeState::NoOverlap => return propagate_no_overlap(st, q, e_idx),
    };
    // Narrow a local copy (`CombDomain` is `Copy`), then write back
    // through the trail so speculative pruning is undone exactly.
    let narrowed = dom.discard_below(lo) | dom.discard_above(hi);
    if dom.is_empty() && forced {
        return Err(Contradiction::EdgeConflict(u, v));
    }
    if narrowed {
        set_edge_state(st, e_idx, EdgeState::Open(dom));
    }
    if dom.is_empty() {
        set_edge_state(st, e_idx, EdgeState::NoOverlap);
        return propagate_no_overlap(st, q, e_idx);
    }
    match dom.singleton() {
        // Mandatory: the pair must overlap, one relation left.
        Some(d) if forced => choose_comb(st, q, e_idx, d),
        _ => Ok(()),
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
    let (lo_poss, hi_poss, _) = placements(st, e_idx);
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
    let (_, _, forced) = placements(st, e_idx);
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
fn merge_cc(
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
    with_lists(st, |st, [a_members, b_members]| {
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
        // freshly formed same-cycle groups. Neither step merges components,
        // so each member's offset is read once.
        let mut pos = std::mem::take(&mut st.scratch.cc_pos);
        pos.clear();
        for &y in b_members.iter() {
            pos.push(st.cc.find(y));
        }
        let resolved = (|| {
            for &x in a_members.iter() {
                let off_x = st.cc.find(x).1;
                let mut audited = false;
                for (&y, &(_, off_y)) in b_members.iter().zip(&pos) {
                    let dxy = off_x - off_y;
                    resolve_fixed_pair(st, x, y, dxy)?;
                    if dxy == 0 && !audited {
                        audited = true;
                        audit_cycle_group(st, q, x)?;
                    }
                }
            }
            Ok(())
        })();
        st.scratch.cc_pos = pos;
        resolved
    })
}

/// Called when the relative offset of `x` and `y` becomes fixed: resolves
/// their scheduling-graph edge accordingly.
fn resolve_fixed_pair(
    st: &mut SchedulingState,
    x: NodeId,
    y: NodeId,
    delta_xy: i64,
) -> Result<(), Contradiction> {
    let (u, v, d) = if x < y {
        (x, y, delta_xy)
    } else {
        (y, x, -delta_xy)
    };
    match st.edge_of.get(u, v) {
        Some(e_idx) => resolve_fixed_edge(st, e_idx, d),
        None => Ok(()),
    }
}

/// [`resolve_fixed_pair`] on a known edge, `d` = `cycle(u) − cycle(v)`.
fn resolve_fixed_edge(st: &mut SchedulingState, e_idx: usize, d: i64) -> Result<(), Contradiction> {
    let e = &st.edges[e_idx];
    let within = e.window.contains(d);
    match e.state {
        EdgeState::Open(dom) => {
            if within {
                if !dom.contains(d) {
                    return Err(Contradiction::EdgeConflict(e.u, e.v));
                }
                set_edge_state(st, e_idx, EdgeState::Chosen(d));
            } else {
                set_edge_state(st, e_idx, EdgeState::NoOverlap);
            }
        }
        EdgeState::Chosen(d0) if d0 != d => return Err(Contradiction::EdgeConflict(e.u, e.v)),
        EdgeState::NoOverlap if within => return Err(Contradiction::EdgeConflict(e.u, e.v)),
        EdgeState::Chosen(_) | EdgeState::NoOverlap => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Same-cycle capacity rules (Rule 2 and contradiction forms)
// ---------------------------------------------------------------------------

/// Audits the group of nodes provably issuing in the same cycle as `n`:
/// machine-wide class capacity, per-VC class capacity, per-VC issue width,
/// bus width; deduces Rule 2 incompatibilities for one-unit classes.
fn audit_cycle_group(
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
    with_lists(st, |st, [group, fu_members, roots]| {
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
        // Machine-wide per-class totals, checked in class order.
        let mut per_class = [0; 5];
        for &m in group.iter() {
            if let Some(c) = st.class(m) {
                per_class[c as usize] += 1;
            }
        }
        for class in [
            OpClass::Int,
            OpClass::Fp,
            OpClass::Mem,
            OpClass::Branch,
            OpClass::Copy,
        ] {
            if per_class[class as usize] > st.ctx.machine.total_capacity(class) {
                return Err(Contradiction::ResourceOverflow(class));
            }
        }
        // Per-VC class counts and issue widths; Rule 2 for capacity-1
        // classes. Rule 2 never fuses, so each member's VC root is read
        // once.
        fu_members.extend(
            group
                .iter()
                .copied()
                .filter(|&m| st.class(m).is_some_and(|c| c.uses_fu())),
        );
        for &m in fu_members.iter() {
            roots.push(st.vc.find(m));
        }
        let class_of = |st: &SchedulingState, i: usize| st.class(fu_members[i]).expect("fu");
        for i in 0..fu_members.len() {
            for j in i + 1..fu_members.len() {
                let (ca, cb) = (class_of(st, i), class_of(st, j));
                if roots[i] == roots[j] {
                    // Count same-VC same-cycle instructions of each class.
                    if ca == cb {
                        let cap = st.ctx.machine.capacity(ca);
                        let cnt = (0..fu_members.len())
                            .filter(|&k| roots[k] == roots[i] && class_of(st, k) == ca)
                            .count();
                        if cnt > cap {
                            return Err(Contradiction::ResourceOverflow(ca));
                        }
                    }
                    if let Some(w) = st.ctx.machine.issue_per_cluster() {
                        let cnt = roots.iter().filter(|&&r| r == roots[i]).count();
                        if cnt > w {
                            return Err(Contradiction::ResourceOverflow(ca));
                        }
                    }
                } else if ca == cb
                    && st.ctx.machine.capacity(ca) == 1
                    && !st.vc_adj[roots[i]].contains(roots[j])
                {
                    // Rule 2: same cycle, one unit per cluster ⇒ different PCs.
                    make_incompat(st, q, fu_members[i], fu_members[j])?;
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
    with_lists(st, |st, [a_members, b_members, scan]| {
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
        // Same-cycle capacity audit across the merged membership: audit
        // each `x` of one side that provably shares a cycle with some `y`
        // of the other. Audits never merge components, so each member's
        // (component, offset) is read once; pins can move, so those are
        // read live.
        let mut pos = std::mem::take(&mut st.scratch.cc_pos);
        pos.clear();
        for &y in b_members.iter() {
            pos.push(st.cc.find(y));
        }
        let audited = (|| {
            for &x in a_members.iter() {
                let (root_x, off_x) = st.cc.find(x);
                for (&y, &(root_y, off_y)) in b_members.iter().zip(&pos) {
                    let same_cycle = if root_x == root_y {
                        off_x == off_y
                    } else {
                        st.pinned(x) && st.pinned(y) && st.est[x] == st.est[y]
                    };
                    if same_cycle {
                        audit_cycle_group(st, q, x)?;
                        break;
                    }
                }
            }
            Ok(())
        })();
        st.scratch.cc_pos = pos;
        audited?;
        // Rule 1 may fire for data edges whose slack was already too small.
        for &x in a_members.iter().chain(b_members.iter()) {
            rule1_slack_check(st, &ctx, q, x)?;
        }
        // Fusing inherits incompatibilities, so data edges that now cross an
        // incompatible pair (e.g. after fusing with a cluster anchor) need
        // their communication just as if `make_incompat` had run.
        let merged = st.vc.find(a);
        serve_crossing_edges(st, &ctx, q, merged, |_, _| true)?;
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
            create_plcs_across(st, &ctx, q, a_members, b_members)?;
        }
        promote_plcs(st, q)
    })
}

/// Calls [`require_comm`] on every data edge at an instruction of the VC
/// rooted at `root`, in [`StateCtx::data_edges`] order, whose endpoints'
/// VC roots `(rp, rc)` are incompatible and pass `only`. Communications
/// never move VCs, so the roots are stable across the sweep.
///
/// Visiting only the edges at one VC is exact by the *served-crossing-
/// edge invariant*: outside a fuse in progress, `require_comm` is a no-op
/// on every crossing edge. An edge starts crossing only when its two VCs
/// become incompatible — [`make_incompat`] on that pair, or a fuse of one
/// of them — and both serve it there (`make_incompat` the edges between
/// its pair, a fuse those at the merged VC); nothing but a fuse of `c`'s
/// VC can then make `require_comm(p, c)` act again (it acts only while no
/// earlier communication of `p` holds `c` and one has a first consumer in
/// `c`'s VC). Every fuse nested inside another merges into the same VC,
/// so the edges pending at the outer fuse's sweep are all at its VC.
fn serve_crossing_edges(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    root: usize,
    only: impl Fn(usize, usize) -> bool,
) -> Result<(), Contradiction> {
    // One bit per data edge, set for the edges at the VC's members and
    // cleared as the sweep visits them.
    let mut marks = std::mem::take(&mut st.scratch.edge_marks);
    marks.clear();
    marks.resize(ctx.data_edges.len().div_ceil(64), 0);
    for &m in &st.vc_list[root] {
        if m < ctx.n_insts {
            for &ei in ctx.data_edges_at.row(m) {
                marks[ei / 64] |= 1 << (ei % 64);
            }
        }
    }
    let swept = (|| {
        for w in 0..marks.len() {
            while marks[w] != 0 {
                let ei = w * 64 + marks[w].trailing_zeros() as usize;
                marks[w] &= marks[w] - 1;
                let (p, c) = ctx.data_edges[ei];
                let (rp, rc) = (st.vc.find(p), st.vc.find(c));
                if rp != rc && st.vc_adj[rp].contains(rc) && only(rp, rc) {
                    require_comm(st, q, p, c)?;
                }
            }
        }
        Ok(())
    })();
    st.scratch.edge_marks = marks;
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
        // Crossing data edges need a communication: the edges between the
        // two VCs, found among those at the smaller one.
        let side = if st.vc_list[ra].len() <= st.vc_list[rb].len() {
            ra
        } else {
            rb
        };
        serve_crossing_edges(st, &ctx, q, side, |rp, rc| {
            (rp == ra && rc == rb) || (rp == rb && rc == ra)
        })?;
        // Rule 5 (P-PLC) and the consumer dual (C-PLC).
        create_plcs_across(st, &ctx, q, a_members, b_members)?;
        promote_plcs(st, q)
    })
}

/// Rule 1 (§3.3.1): if a data edge at `n` has too little slack for a bus
/// transfer, producer and consumer must share a cluster.
fn rule1_slack_check(
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
    // is walked on the first probe and refreshed only when a fuse can
    // move it; `same_vc(a, b) || vcs_incompatible(a, b)` is exactly
    // `ra == rb || vc_adj[ra].contains(rb)` on the two roots.
    let lat_n = ctx.latencies[n] as i64;
    let mut rn = None;
    for &c in &ctx.consumers_of[n] {
        if st.lst[c] - (st.est[n] + lat_n) < bus {
            let r = *rn.get_or_insert_with(|| st.vc.find(n));
            let rc = st.vc.find(c);
            if r != rc && !st.vc_adj[r].contains(rc) {
                fuse_vcs(st, q, n, c)?;
                rn = None;
            }
        }
    }
    for &p in &ctx.producers_of[n] {
        if st.lst[n] - (st.est[p] + ctx.latencies[p] as i64) < bus {
            let r = *rn.get_or_insert_with(|| st.vc.find(n));
            let rp = st.vc.find(p);
            if rp != r && !st.vc_adj[rp].contains(r) {
                fuse_vcs(st, q, p, n)?;
                rn = None;
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
fn require_comm(
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

/// [`create_plcs_for_pair`] for every instruction pair of `xs × ys`, `x`
/// outermost, both in slice order. Only pairs with a common data
/// neighbour ([`StateCtx::is_plc_pair`]) have one to act on, so an `x`
/// with no such partner in `ys` costs one mask test.
fn create_plcs_across(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
    xs: &[NodeId],
    ys: &[NodeId],
) -> Result<(), Contradiction> {
    if ctx.tuning.disable_plc {
        return Ok(());
    }
    let words = ctx.pair_words();
    let mut in_ys = std::mem::take(&mut st.scratch.pair_mask);
    in_ys.clear();
    in_ys.resize(words, 0);
    for &y in ys {
        in_ys[y / 64] |= 1 << (y % 64);
    }
    let created = (|| {
        for &x in xs {
            let partners = &ctx.plc_pairs[x * words..(x + 1) * words];
            if partners.iter().zip(&in_ys).all(|(p, y)| p & y == 0) {
                continue;
            }
            for &y in ys {
                if ctx.is_plc_pair(x, y) {
                    create_plcs_for_pair(st, ctx, q, x, y)?;
                }
            }
        }
        Ok(())
    })();
    st.scratch.pair_mask = in_ys;
    created
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
    let bus = ctx.machine.bus_latency() as i64;
    // Rule 5: common data successor s in a third VC ⇒ at least one of the
    // two values will be communicated to s. Not once either value already
    // has a communication (no rule here creates one, so that holds for
    // the whole loop).
    let p_plcs = st.flc_by_value[x].is_empty() && st.flc_by_value[y].is_empty();
    for &s in ctx.consumers_of[x].iter().filter(|_| p_plcs) {
        if !ctx.consumers_of[y].contains(&s) {
            continue;
        }
        let rs = st.vc.find(s);
        if rs == st.vc.find(x) || rs == st.vc.find(y) {
            continue;
        }
        let key = (0u8, x.min(y), x.max(y), s);
        if st.has_plc(&key) {
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
        if !st.flc_by_value[p].is_empty() || !ctx.producers_of[y].contains(&p) {
            continue;
        }
        let rp = st.vc.find(p);
        if rp == st.vc.find(x) || rp == st.vc.find(y) {
            continue;
        }
        let key = (1u8, x.min(y), x.max(y), p);
        if st.has_plc(&key) {
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
fn promote_plcs(st: &mut SchedulingState, q: &mut Queue) -> Result<(), Contradiction> {
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
fn refresh_plc_bounds(
    st: &mut SchedulingState,
    q: &mut Queue,
    n: NodeId,
) -> Result<(), Contradiction> {
    // PLCs link instruction pairs, and none exists before the first.
    if n >= st.ctx.n_insts || st.plc_seen.is_empty() {
        return Ok(());
    }
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
fn resource_pass(
    st: &mut SchedulingState,
    ctx: &StateCtx,
    q: &mut Queue,
) -> Result<bool, Contradiction> {
    let before = q.len();
    let mut scratch = std::mem::take(&mut st.scratch.pigeon);
    let passed = with_lists(st, |st, lists: &mut [Vec<NodeId>; 6]| {
        let [members, comms, of_class @ ..] = lists;
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
    of_class: &mut [Vec<NodeId>; 4],
    comms: &mut Vec<NodeId>,
) -> Result<(), Contradiction> {
    let tighten = !ctx.tuning.disable_resource_tightening;
    // Machine-wide, per FU class; the contender lists are static (comm
    // nodes are `Copy`-class, live-ins never compete).
    for (ci, &class) in OpClass::FU_CLASSES.iter().enumerate() {
        let pool = Pool {
            cap: ctx.machine.total_capacity(class),
            occupancy: 1,
            tighten,
            class,
            group: Group::Machine(ci),
        };
        pigeonhole(st, q, scratch, &ctx.fu_nodes[ci], pool)?;
    }
    // Per-VC, per FU class and per issue width. Roots are scanned in
    // ascending order, as `vc_roots()` returns them (comm nodes never root
    // a VC, so only fixed nodes can), and the member/class buffers are
    // reused across roots — pigeonhole only tightens bounds, never VC
    // structure, so membership is stable across the loop.
    for root in 0..ctx.fixed_nodes() {
        // A root's list is non-empty; fewer than two members form no
        // group.
        if st.vc_list[root].len() < 2 {
            continue;
        }
        // The VC's FU users, and the same split by class, in one pass.
        members.clear();
        for list in of_class.iter_mut() {
            list.clear();
        }
        for i in 0..st.vc_list[root].len() {
            let m = st.vc_list[root][i];
            if st.uses_resources(m) {
                if let Some(ci) = st.class(m).and_then(OpClass::fu_index) {
                    members.push(m);
                    of_class[ci].push(m);
                }
            }
        }
        if members.len() < 2 {
            continue;
        }
        for (ci, &class) in OpClass::FU_CLASSES.iter().enumerate() {
            if of_class[ci].len() > 1 {
                let pool = Pool {
                    cap: ctx.machine.capacity(class),
                    occupancy: 1,
                    tighten,
                    class,
                    group: Group::VcClass(root, ci),
                };
                pigeonhole(st, q, scratch, &of_class[ci], pool)?;
            }
        }
        if let Some(w) = ctx.machine.issue_per_cluster() {
            let pool = Pool {
                cap: w,
                occupancy: 1,
                tighten,
                class: OpClass::Int,
                group: Group::VcIssue(root),
            };
            pigeonhole(st, q, scratch, members, pool)?;
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
    let pool = Pool {
        cap: buses,
        occupancy: occ,
        tighten: false,
        class: OpClass::Copy,
        group: Group::Bus,
    };
    pigeonhole(st, q, scratch, comms, pool)?;
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

/// Which contender group a [`pigeonhole`] call covers: its slot in the
/// no-op memo.
#[derive(Debug, Clone, Copy)]
enum Group {
    /// Machine-wide, FU class index.
    Machine(usize),
    /// The live communications on the bus.
    Bus,
    /// One virtual cluster (by root), FU class index.
    VcClass(NodeId, usize),
    /// One virtual cluster's issue width.
    VcIssue(NodeId),
}

/// Per-node stamp kinds of the no-op memo: a node sits in at most one
/// group of each kind at a time (a comm node only in the bus group, an
/// instruction in one machine-wide group, so the two share a kind).
const STAMP_KINDS: usize = 3;

impl Group {
    /// `(memo slot, stamp kind)`.
    fn slot(self) -> (usize, usize) {
        let fu = OpClass::FU_CLASSES.len();
        match self {
            Group::Machine(ci) => (ci, 0),
            Group::Bus => (fu, 0),
            Group::VcClass(root, ci) => (fu + 1 + root * (fu + 1) + ci, 1),
            Group::VcIssue(root) => (fu + 1 + root * (fu + 1) + fu, 2),
        }
    }
}

/// One [`pigeonhole`] evaluation's resource: `cap` units, each member
/// holding one for `occupancy` cycles; `tighten` enables the saturated-
/// window bound moves; `class` names an overflow.
#[derive(Debug, Clone, Copy)]
struct Pool {
    cap: usize,
    occupancy: i64,
    tighten: bool,
    class: OpClass,
    group: Group,
}

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
    /// No-op memo, per group slot: the epoch and member count of the
    /// group's last evaluation that neither contradicted nor tightened.
    memo_groups: Vec<(u64, usize)>,
    /// No-op memo, per node and stamp kind: the epoch of the last such
    /// evaluation of the group holding the node, and the bounds it read.
    memo_nodes: Vec<(u64, i64, i64)>,
    /// Last epoch handed out (0: none).
    epoch: u64,
    /// Members per slack, for the precheck of [`PigeonScratch::skips`].
    by_slack: Vec<u32>,
}

impl PigeonScratch {
    /// Whether evaluating `nodes` under `pool` provably neither
    /// contradicts nor tightens, so the window scan can be skipped:
    ///
    /// * **memo** — the group's members and their bounds are exactly
    ///   those of its last no-op evaluation (the scan is a pure function
    ///   of them). Every member stamped with that evaluation's epoch, and
    ///   as many members as it had, means the same member set;
    /// * **precheck** — for every window length `L + 1`, fewer members
    ///   have slack `≤ L` than would fill such a window
    ///   (`count·occ < cap·(L + occ)`). A member confined to a window
    ///   spans at least its slack, so no window's demand reaches its
    ///   supply.
    fn skips(&mut self, st: &SchedulingState, nodes: &[NodeId], pool: Pool) -> bool {
        let (slot, kind) = pool.group.slot();
        let (epoch, count) = self.memo_groups.get(slot).copied().unwrap_or_default();
        let mut same = epoch != 0 && count == nodes.len();
        let (cap, occ) = (pool.cap as i64, pool.occupancy);
        // Longest `L` whose windows `n` members could fill.
        let top = nodes.len() as i64 * occ / cap - occ;
        self.by_slack.clear();
        self.by_slack.resize(top.max(-1) as usize + 1, 0);
        for &n in nodes {
            let (e, l) = (st.est[n], st.lst[n]);
            if l - e <= top {
                self.by_slack[(l - e) as usize] += 1;
            }
            same = same && self.memo_nodes.get(n * STAMP_KINDS + kind) == Some(&(epoch, e, l));
        }
        let mut confined = 0;
        same || self.by_slack.iter().zip(0..).all(|(&k, l)| {
            confined += k as i64;
            confined * occ < cap * (l + occ)
        })
    }

    /// Records a no-op evaluation of `nodes` under `pool`.
    fn remember(&mut self, st: &SchedulingState, nodes: &[NodeId], pool: Pool) {
        let (slot, kind) = pool.group.slot();
        self.epoch += 1;
        if self.memo_groups.len() <= slot {
            self.memo_groups.resize(slot + 1, (0, 0));
        }
        self.memo_groups[slot] = (self.epoch, nodes.len());
        let rows = st.kind.len() * STAMP_KINDS;
        if self.memo_nodes.len() < rows {
            self.memo_nodes.resize(rows, (0, 0, 0));
        }
        for &n in nodes {
            self.memo_nodes[n * STAMP_KINDS + kind] = (self.epoch, st.est[n], st.lst[n]);
        }
    }
}

/// Windowed pigeonhole over `nodes` with `pool.cap` units: for windows
/// `[a, b]`, instructions confined to the window must fit; when a window
/// is saturated, instructions merely *starting* inside it are pushed out
/// (if `pool.tighten`).
///
/// Groups [`PigeonScratch::skips`] proves inert are not scanned. Windows
/// longer than `|confined|/cap` cycles can be neither overfull nor
/// saturated, so for each window start only the first `n/cap` end values
/// matter — that bound keeps the pass near-linear in practice.
fn pigeonhole(
    st: &mut SchedulingState,
    q: &mut Queue,
    scratch: &mut PigeonScratch,
    nodes: &[NodeId],
    pool: Pool,
) -> Result<(), Contradiction> {
    if nodes.len() <= pool.cap || pool.cap == 0 {
        return Ok(());
    }
    if scratch.skips(st, nodes, pool) {
        #[cfg(test)]
        tests::assert_skip_is_noop(st, scratch, nodes, pool);
        return Ok(());
    }
    let before = q.len();
    window_scan(st, q, scratch, nodes, pool)?;
    if q.len() == before {
        scratch.remember(st, nodes, pool);
    }
    Ok(())
}

/// The full window scan of [`pigeonhole`].
fn window_scan(
    st: &mut SchedulingState,
    q: &mut Queue,
    scratch: &mut PigeonScratch,
    nodes: &[NodeId],
    pool: Pool,
) -> Result<(), Contradiction> {
    let Pool {
        cap,
        occupancy,
        tighten,
        class,
        ..
    } = pool;
    // Nodes that could belong to a window starting at `a` are those with
    // `est >= a`, ordered by their latest start so `must(a, b)` grows
    // incrementally with `b`. One sorted LST list serves every start: as
    // `a` advances, members with `est < a` drop out one at a time —
    // identical contents to a per-start refilter, without the O(n² log n)
    // rebuild (the window scan reads bounds, it never tightens them).
    // Two sorts feed all four views: the deduped window boundaries
    // `starts` / `ends` are linear projections of `by_est` / `lsts`.
    //
    // Only *tight* members enter the views: those whose slack fits the
    // longest window any start considers. A loose member is confined to
    // no such window, so it adds to no `must`. It can still bound one,
    // as its EST `a` or its LST `b`; but if such a window saturates, the
    // window spanned by its confined members' own extreme bounds holds
    // the same members in fewer cycles and overflows, so the scan ends in
    // the same contradiction without the loose member, having tightened
    // nothing. What remains is the count of members left at `a`, which
    // decides whether start `a` is scanned at all: `loose_est` settles
    // the one case where loose members change that decision.
    let longest = nodes.len() as i64 * occupancy / cap as i64 + occupancy - 1;
    let mut loose_est = i64::MIN;
    scratch.by_est.clear();
    for &n in nodes {
        let (e, l) = (st.est[n], st.lst[n]);
        if l - e <= longest {
            scratch.by_est.push((e, l));
        } else {
            loose_est = loose_est.max(e);
        }
    }
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
        // Starts with at most `cap` members left (tight or loose) are not
        // scanned. Fewer than `cap` tight ones can fill no window either
        // way; exactly `cap` can, so there the loose ones decide.
        let tight = scratch.lsts.len();
        if tight < cap || (tight == cap && loose_est < a) {
            continue;
        }
        // Longest window that can still overflow or saturate.
        let max_len = (tight as i64 * occupancy) / cap as i64 + occupancy;
        // Ends below `a` bound no window starting at `a`: begin past
        // them. (No remaining latest start is below `a`: each member has
        // `lst >= est >= a`.)
        let mut idx = 0;
        for &b in &scratch.ends[scratch.ends.partition_point(|&b| b < a)..] {
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
            if st.pinned(u) && st.pinned(v) {
                resolve_fixed_edge(st, e_idx, st.est[u] - st.est[v])?;
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

#[cfg(test)]
pub(crate) mod tests {
    //! Oracles for the deduction kernels that skip work: each skip is
    //! checked against the full computation it replaces, on every
    //! occurrence while the scheduler searches random blocks.

    use std::cell::Cell;

    use proptest::prelude::*;
    use vcsched_arch::{MachineConfig, OpClass};
    use vcsched_ir::{Superblock, SuperblockBuilder};

    use super::*;
    use crate::{VcOptions, VcScheduler};

    thread_local! {
        /// Pigeonhole groups skipped, and studies checked, on this thread.
        static SKIPS: Cell<u64> = const { Cell::new(0) };
        static STUDIES: Cell<u64> = const { Cell::new(0) };
    }

    /// Called whenever [`PigeonScratch::skips`] skips a group: the full
    /// window scan on the same bounds must neither contradict nor
    /// tighten.
    pub(super) fn assert_skip_is_noop(
        st: &mut SchedulingState,
        scratch: &mut PigeonScratch,
        nodes: &[NodeId],
        pool: Pool,
    ) {
        let mut q = Queue::new();
        let scanned = window_scan(st, &mut q, scratch, nodes, pool);
        assert_eq!(scanned, Ok(()), "a skipped {pool:?} group overflows");
        assert!(q.is_empty(), "a skipped {pool:?} group tightens {q:?}");
        SKIPS.with(|c| c.set(c.get() + 1));
    }

    /// Called after every successful study: every data edge whose
    /// endpoints sit in incompatible VCs has a communication carrying
    /// the producer's value to its consumer.
    pub(crate) fn assert_crossing_edges_served(st: &SchedulingState) {
        for &(p, c) in &st.ctx.data_edges {
            let (rp, rc) = (st.vc.find_const(p), st.vc.find_const(c));
            if rp == rc || !st.vc_adj[rp].contains(rc) {
                continue;
            }
            let served = st.flc_by_value[p].iter().any(|&ci| {
                matches!(&st.comms[ci].kind, CommKind::Flc { consumers, .. } if consumers.contains(&c))
            });
            assert!(
                served,
                "data edge {p} -> {c} crosses incompatible VCs unserved"
            );
        }
        STUDIES.with(|c| c.set(c.get() + 1));
    }

    /// A random block of `n` ops: mixed classes and latencies, one or
    /// two producers per op (live-ins among them), a side exit halfway.
    fn random_block(n: usize, seed: u64) -> Superblock {
        let mut s = seed | 1;
        let mut next = move |m: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        let mut b = SuperblockBuilder::new("oracle");
        let mut ids: Vec<_> = (0..next(4)).map(|_| b.live_in()).collect();
        let side = n / 2;
        let mut side_exit = None;
        for i in 0..n {
            let class = match next(10) {
                0..=2 => OpClass::Mem,
                3 => OpClass::Fp,
                _ => OpClass::Int,
            };
            let id = b.inst(class, 1 + next(3) as u32);
            for _ in 0..=next(2) {
                if !ids.is_empty() {
                    let p = ids[next(ids.len() as u64) as usize];
                    b.data_dep(p, id);
                }
            }
            ids.push(id);
            if i == side {
                let x = b.exit(1, 0.3);
                b.data_dep(id, x);
                side_exit = Some(x);
            }
        }
        let exit = b.exit(1 + next(2) as u32, 0.7);
        for &id in &ids {
            b.data_dep(id, exit);
        }
        if let Some(x) = side_exit {
            b.data_dep(x, exit);
        }
        b.build().expect("generated block is valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pigeonhole skips (memo and precheck) and the served-crossing-
        /// edge invariant hold on every occurrence during real searches.
        #[test]
        fn kernel_skips_match_the_full_computation(
            n in 6usize..26,
            seed in any::<u64>(),
            m in 0usize..4,
        ) {
            let mut machines = MachineConfig::paper_eval_configs();
            machines.push(MachineConfig::hetero_2c());
            let sb = random_block(n, seed);
            let vc = VcScheduler::with_options(machines[m].clone(), VcOptions {
                max_dp_steps: 20_000,
                ..VcOptions::default()
            });
            let _ = vc.schedule(&sb);
        }
    }

    /// The window scan with every member in the views: the reference
    /// [`window_scan`] must match.
    fn reference_window_scan(
        st: &mut SchedulingState,
        q: &mut Queue,
        nodes: &[NodeId],
        pool: Pool,
    ) -> Result<(), Contradiction> {
        let Pool {
            cap,
            occupancy,
            tighten,
            class,
            ..
        } = pool;
        let mut by_est: Vec<(i64, i64)> = nodes.iter().map(|&n| (st.est[n], st.lst[n])).collect();
        by_est.sort_unstable();
        let mut lsts: Vec<i64> = by_est.iter().map(|&(_, l)| l).collect();
        lsts.sort_unstable();
        let mut starts: Vec<i64> = by_est.iter().map(|&(e, _)| e).collect();
        starts.dedup();
        let mut ends = lsts.clone();
        ends.dedup();
        let mut saturated = Vec::new();
        let mut dropped = 0;
        for &a in &starts {
            while dropped < by_est.len() && by_est[dropped].0 < a {
                let pos = lsts.binary_search(&by_est[dropped].1).unwrap();
                lsts.remove(pos);
                dropped += 1;
            }
            if (lsts.len() as i64) * occupancy <= cap as i64 * occupancy {
                continue;
            }
            let max_len = (lsts.len() as i64 * occupancy) / cap as i64 + occupancy;
            let mut idx = 0;
            for &b in &ends {
                if b < a {
                    continue;
                }
                if b - a + 1 > max_len {
                    break;
                }
                while idx < lsts.len() && lsts[idx] <= b {
                    idx += 1;
                }
                let must = idx as i64;
                let supply = cap as i64 * (b - a + occupancy);
                if must * occupancy > supply {
                    return Err(Contradiction::ResourceOverflow(class));
                }
                if tighten && must * occupancy == supply && must > 0 {
                    saturated.push((a, b));
                }
            }
        }
        for (a, b) in saturated {
            let must = nodes
                .iter()
                .filter(|&&n| st.est[n] >= a && st.lst[n] <= b)
                .count() as i64;
            if must * occupancy != cap as i64 * (b - a + occupancy) {
                continue;
            }
            for &n in nodes {
                if st.est[n] >= a && st.lst[n] <= b {
                    continue;
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

    /// A state over `n` independent integer ops (one exit), whose bounds
    /// the caller overwrites.
    fn bare_state(n: usize) -> SchedulingState {
        let mut b = SuperblockBuilder::new("bounds");
        let ops: Vec<_> = (0..n).map(|_| b.inst(OpClass::Int, 1)).collect();
        let exit = b.exit(1, 1.0);
        for &op in &ops {
            b.data_dep(op, exit);
        }
        let sb = b.build().expect("valid block");
        let ctx = StateCtx::new(&sb, &MachineConfig::paper_2c_8w());
        let windows = crate::init::sg_windows(&ctx);
        let lstarts = vec![64; ctx.n_insts];
        crate::init::build_state(&ctx, &windows, &lstarts, 64, &[], &mut Budget::unlimited())
            .expect("an unconstrained block closes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Directly on random bounds, tight enough that windows often
        /// fill exactly: whenever the precheck or the memo skips a
        /// group, the full scan neither contradicts nor tightens.
        #[test]
        fn pigeonhole_skips_only_inert_groups(
            bounds in proptest::collection::vec((0i64..4, 0i64..3), 3..12),
            cap in 1usize..4,
            occupancy in 1i64..3,
            moved in any::<u64>(),
        ) {
            let n = bounds.len();
            let mut st = bare_state(n);
            for (i, &(e, slack)) in bounds.iter().enumerate() {
                st.est[i] = e;
                st.lst[i] = e + slack;
            }
            let nodes: Vec<NodeId> = (0..n).collect();
            let pool = Pool {
                cap,
                occupancy,
                tighten: true,
                class: OpClass::Int,
                group: Group::Machine(0),
            };
            let mut scratch = PigeonScratch::default();
            if scratch.skips(&st, &nodes, pool) {
                assert_skip_is_noop(&mut st, &mut scratch, &nodes, pool);
                return Ok(());
            }
            // Not skipped: scan for real; a no-op scan is remembered and
            // must be skipped on the same bounds, and a moved bound must
            // only be skipped if inert.
            let mut q = Queue::new();
            let scanned = window_scan(&mut st, &mut q, &mut scratch, &nodes, pool);
            if scanned.is_err() || !q.is_empty() {
                return Ok(());
            }
            scratch.remember(&st, &nodes, pool);
            prop_assert!(scratch.skips(&st, &nodes, pool));
            let m = (moved % n as u64) as usize;
            st.est[m] = st.lst[m];
            if scratch.skips(&st, &nodes, pool) {
                assert_skip_is_noop(&mut st, &mut scratch, &nodes, pool);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The window scan, which leaves loose members out of its views,
        /// contradicts, tightens and queues exactly as the full scan.
        #[test]
        fn window_scan_matches_the_full_scan(
            bounds in proptest::collection::vec((0i64..6, 0i64..5), 3..14),
            cap in 1usize..4,
            occupancy in 1i64..3,
        ) {
            let n = bounds.len();
            let mut st = bare_state(n);
            for (i, &(e, slack)) in bounds.iter().enumerate() {
                st.est[i] = e;
                st.lst[i] = e + slack;
            }
            let nodes: Vec<NodeId> = (0..n).collect();
            let pool = Pool {
                cap,
                occupancy,
                tighten: true,
                class: OpClass::Int,
                group: Group::Machine(0),
            };
            let mut reference = st.clone();
            let (mut q, mut q_ref) = (Queue::new(), Queue::new());
            let got = window_scan(&mut st, &mut q, &mut PigeonScratch::default(), &nodes, pool);
            let want = reference_window_scan(&mut reference, &mut q_ref, &nodes, pool);
            prop_assert_eq!(got, want);
            prop_assert_eq!(q, q_ref);
            prop_assert_eq!(&st.est, &reference.est);
            prop_assert_eq!(&st.lst, &reference.lst);
        }
    }

    #[test]
    fn the_oracles_see_skips_and_studies() {
        let sb = random_block(24, 7);
        let vc = VcScheduler::with_options(
            MachineConfig::paper_2c_8w(),
            VcOptions {
                max_dp_steps: 20_000,
                ..VcOptions::default()
            },
        );
        let _ = vc.schedule(&sb);
        assert!(SKIPS.with(Cell::get) > 0, "no pigeonhole group was skipped");
        assert!(STUDIES.with(Cell::get) > 0, "no study was checked");
    }
}
