//! The scheduling state (§4.3).
//!
//! One [`SchedulingState`] captures everything the paper's state comprises:
//! instruction bounds (`estart`/`lstart`), the chosen / discarded /
//! non-treated combination lists (as per-edge [`CombDomain`]s plus a
//! resolution), the connected components, the virtual cluster graph, and the
//! communication instructions (fully- and partially-linked).
//!
//! Beyond the paper's description, the state holds one *anchor* node per
//! physical cluster: an anchor's virtual cluster **is** that physical
//! cluster. Anchors are pairwise incompatible from the start, so "map VC to
//! PC" (stage 4) becomes "fuse VC with anchor", and every deduction rule
//! (capacity checks, communication insertion) applies uniformly to mapping
//! decisions. Live-in values pre-placed in a register file are fused with
//! their home anchor during initialisation.

use std::sync::Arc;

use vcsched_arch::{ClusterId, MachineConfig, OpClass};
use vcsched_graph::coloring::DenseColoring;
use vcsched_graph::{Csr, GrowSet, OffsetUnionFind, UnionFind};
use vcsched_ir::{DepGraph, DepKind, InstId, Superblock};

use crate::combination::{CombDomain, CombRange};
use crate::dp::{PigeonScratch, Queue};
use crate::trail::{Trail, TrailEntry, TrailMark};

/// Identity of a partially-linked communication: `(kind_tag, x, y, z)`,
/// tag 0 for producer-partial and 1 for consumer-partial.
pub type PlcKey = (u8, NodeId, NodeId, NodeId);

/// Dense node index inside a scheduling state.
///
/// Layout: `0..n_insts` are the superblock's instructions (same order as
/// [`InstId`]), the next `cluster_count` are physical-cluster anchors, and
/// communication nodes follow as they are created.
pub type NodeId = usize;

/// What a state node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A superblock instruction.
    Inst(InstId),
    /// The anchor of a physical cluster.
    Anchor(ClusterId),
    /// A communication (index into the comm table).
    Comm(usize),
}

/// Resolution state of one scheduling-graph edge.
///
/// `Copy` on purpose: the trail journals the pre-mutation value of an
/// edge's resolution as one small undo record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Still undecided; holds the remaining combination values.
    Open(CombDomain),
    /// One combination chosen: `cycle(u) − cycle(v) = d`.
    Chosen(i64),
    /// All combinations discarded: the pair does not overlap.
    NoOverlap,
}

/// One scheduling-graph edge between nodes `u < v`.
#[derive(Debug, Clone)]
pub struct SgEdge {
    /// Lower-id endpoint.
    pub u: NodeId,
    /// Higher-id endpoint.
    pub v: NodeId,
    /// The full (dependence-narrowed) combination window.
    pub window: CombRange,
    /// Resolution.
    pub state: EdgeState,
}

/// A communication instruction: fully linked (producer and consumers known)
/// or partially linked (§3.3.1, "PLC").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommKind {
    /// Fully-linked: transports the value of `value` to `consumers`.
    Flc {
        /// Producer node of the transported value.
        value: NodeId,
        /// Remote consumers (all fused into one virtual cluster).
        consumers: Vec<NodeId>,
    },
    /// Producer-partial (Rule 5): one of `producers` will send to `consumer`.
    PPlc {
        /// The two alternative producers.
        producers: (NodeId, NodeId),
        /// The common consumer.
        consumer: NodeId,
    },
    /// Consumer-partial: `value` will be sent to one of `consumers`.
    CPlc {
        /// Producer node of the value.
        value: NodeId,
        /// The two alternative consumers.
        consumers: (NodeId, NodeId),
    },
    /// Subsumed by another communication; keeps the node id stable but no
    /// longer reserves the bus.
    Dead,
}

/// A communication entry.
#[derive(Debug, Clone)]
pub struct Comm {
    /// State node carrying this communication's bounds.
    pub node: NodeId,
    /// Linkage.
    pub kind: CommKind,
}

/// Ablation switches for the deduction process and stages, used by the
/// `ablations` experiment (`crates/bench/src/bin/ablations.rs`) to
/// quantify each design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    /// Disable partially-linked communications (Rules 5–7 reservations).
    pub disable_plc: bool,
    /// Disable the windowed resource *tightening* (contradiction detection
    /// stays on — soundness is unaffected, foresight degrades).
    pub disable_resource_tightening: bool,
    /// Replace the exact maximum-weight matching of stage 3 by the greedy
    /// approximation.
    pub greedy_matching: bool,
}

/// Scheduling-graph edge lookup by node pair `(u, v)`, `u < v`.
///
/// Pairs of instructions — every edge the state builds — sit in a dense
/// per-attempt table, one slot per pair, sized by [`EdgeIndex::reset`]:
/// a lookup is one load. The comm-comm pairs stage 5 adds later keep a
/// `Vec` sorted by `(u, v)`, binary-searched.
#[derive(Debug, Clone, Default)]
pub struct EdgeIndex {
    /// Instructions covered by `dense`.
    insts: usize,
    /// Edge of instruction pair `(u, v)` at `u * insts + v`; `NO_EDGE`
    /// when the pair has none.
    dense: Vec<u32>,
    /// Pairs indexed in `dense`.
    dense_len: usize,
    /// Every other pair, sorted.
    entries: Vec<(NodeId, NodeId, usize)>,
}

const NO_EDGE: u32 = u32::MAX;

impl EdgeIndex {
    /// An empty index.
    pub fn new() -> EdgeIndex {
        EdgeIndex::default()
    }

    /// Number of indexed pairs.
    pub fn len(&self) -> usize {
        self.dense_len + self.entries.len()
    }

    /// Returns `true` if no pair is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry and sizes the dense table for pairs among
    /// `insts` instructions, keeping the allocations.
    pub fn reset(&mut self, insts: usize) {
        self.insts = insts;
        self.dense.clear();
        self.dense.resize(insts * insts, NO_EDGE);
        self.dense_len = 0;
        self.entries.clear();
    }

    fn position(&self, u: NodeId, v: NodeId) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|&(a, b, _)| (a, b).cmp(&(u, v)))
    }

    /// The edge index stored for pair `(u, v)`, `u < v`, if any.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if v < self.insts {
            let e = self.dense[u * self.insts + v];
            (e != NO_EDGE).then_some(e as usize)
        } else {
            self.position(u, v).ok().map(|i| self.entries[i].2)
        }
    }

    /// Returns `true` if pair `(u, v)` is indexed.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.get(u, v).is_some()
    }

    /// Inserts `(u, v) → e`. The pair must not be present yet. Appending
    /// in ascending pair order is O(1); out-of-order inserts shift.
    pub fn insert(&mut self, u: NodeId, v: NodeId, e: usize) {
        if v < self.insts {
            let slot = &mut self.dense[u * self.insts + v];
            assert_eq!(*slot, NO_EDGE, "pair already indexed");
            *slot = u32::try_from(e).expect("edge index fits in u32");
            self.dense_len += 1;
            return;
        }
        match self.entries.last() {
            Some(&(a, b, _)) if (a, b) < (u, v) => self.entries.push((u, v, e)),
            None => self.entries.push((u, v, e)),
            _ => {
                let pos = self.position(u, v).expect_err("pair already indexed");
                self.entries.insert(pos, (u, v, e));
            }
        }
    }
}

/// Immutable per-superblock context shared by all cloned states.
#[derive(Debug)]
pub struct StateCtx {
    /// Machine description.
    pub machine: MachineConfig,
    /// Ablation switches.
    pub tuning: Tuning,
    /// Number of superblock instructions.
    pub n_insts: usize,
    /// Operation class per instruction.
    pub classes: Vec<OpClass>,
    /// Latency per instruction.
    pub latencies: Vec<u32>,
    /// Live-in flags.
    pub live_in: Vec<bool>,
    /// Exit flags.
    pub exit: Vec<bool>,
    /// Data dependences `(producer, consumer)` among instructions.
    pub data_edges: Vec<(usize, usize)>,
    /// Dependence order: `ordered[u]` contains `v` iff a path forces
    /// `u` before `v` (used when building scheduling-graph edges).
    pub dg: DepGraph,
    /// Data consumers per producer.
    pub consumers_of: Vec<Vec<usize>>,
    /// Data producers per consumer.
    pub producers_of: Vec<Vec<usize>>,
    /// Indices into [`StateCtx::data_edges`] of the edges at each
    /// instruction (as producer or consumer), ascending.
    pub data_edges_at: Csr<usize>,
    /// Instruction pairs with a common data consumer or a common data
    /// producer — the only pairs Rule 5 and its dual can act on — as a
    /// bit matrix: bit `y` of row `x`, rows [`StateCtx::pair_words`]
    /// words wide.
    pub plc_pairs: Vec<u64>,
    /// Pairwise longest dependence paths: `paths[v][u]` is the heaviest
    /// path `u → v`, `None` when unreachable. Computed once per block.
    pub paths: Vec<Vec<Option<i64>>>,
    /// Static hard-dependence successors `(node, latency)` per fixed node,
    /// flattened CSR-style. Built once per block; per-attempt states layer
    /// only their dynamic extras (comm dependence edges) on top, so state
    /// resets stop rebuilding — and clones stop copying — the static
    /// adjacency.
    pub succ_csr: Csr<(NodeId, i64)>,
    /// Static hard-dependence predecessors, mirror of
    /// [`StateCtx::succ_csr`].
    pub pred_csr: Csr<(NodeId, i64)>,
    /// Machine-wide resource contenders per FU class (one list per
    /// [`OpClass::FU_CLASSES`] entry, ascending node order). Static:
    /// live-in instructions never compete and comm nodes are
    /// `Copy`-class, so the fixed instruction prefix decides membership.
    pub fu_nodes: [Vec<NodeId>; 4],
    /// Statically-firing groups of the precedence resource rule, in the
    /// exact order the per-round rescan used to visit them. Membership,
    /// capacity overflow and the dependence-path slack depend only on the
    /// dependence graph and the machine, so each fixpoint round only has
    /// to fold the group's current EST/LST bounds.
    pub prec_rules: Vec<PrecRule>,
}

/// One precomputed firing site of the precedence resource rule: more
/// same-class instructions than the machine can issue are all forced
/// before (or after) `node`, so `node`'s bound moves by the group's
/// issue-round count plus its nearest dependence path.
#[derive(Debug)]
pub struct PrecRule {
    /// The instruction whose bound the rule tightens.
    pub node: usize,
    /// `false`: `members` precede `node` (tightens its EST); `true`:
    /// `members` follow it (tightens its LST).
    pub succ_side: bool,
    /// The same-class group forced to one side of `node`.
    pub members: Vec<usize>,
    /// `(issue rounds − 1) + min dependence path`, added to the group's
    /// min EST (or subtracted from its max LST).
    pub slack: i64,
}

impl StateCtx {
    /// Distils `sb` into the immutable context.
    pub fn new(sb: &Superblock, machine: &MachineConfig) -> Arc<StateCtx> {
        StateCtx::with_tuning(sb, machine, Tuning::default())
    }

    /// Context with explicit ablation switches.
    pub fn with_tuning(sb: &Superblock, machine: &MachineConfig, tuning: Tuning) -> Arc<StateCtx> {
        let n = sb.len();
        let dg = DepGraph::new(sb);
        let mut data_edges = Vec::new();
        let mut consumers_of = vec![Vec::new(); n];
        let mut producers_of = vec![Vec::new(); n];
        for d in sb.deps() {
            if d.kind == DepKind::Data {
                let (f, t) = (d.from.index(), d.to.index());
                // Parallel data edges collapse: one value, one consumption.
                if !consumers_of[f].contains(&t) {
                    data_edges.push((f, t));
                    consumers_of[f].push(t);
                    producers_of[t].push(f);
                }
            }
        }
        // One reverse-id pass: dependences flow forward, so when `u` is
        // reached every path out of its successors is already final.
        let mut paths: Vec<Vec<Option<i64>>> = vec![vec![None; n]; n];
        for u in (0..n).rev() {
            paths[u][u] = Some(0);
            for d in dg.succs(InstId(u as u32)) {
                let (s, lat) = (d.to.index(), d.latency as i64);
                for row in &mut paths[s..] {
                    if let Some(tail) = row[s] {
                        if row[u].is_none_or(|cur| tail + lat > cur) {
                            row[u] = Some(tail + lat);
                        }
                    }
                }
            }
        }
        // Static adjacency, flattened. Row-major over producers exactly as
        // the per-attempt reset used to push, so CSR iteration is
        // bit-compatible with the `Vec<Vec<…>>` it replaces; anchor rows
        // (the `cluster_count` tail) are empty.
        let fixed = n + machine.cluster_count();
        let mut succ_rows: Vec<Vec<(NodeId, i64)>> = vec![Vec::new(); fixed];
        let mut pred_rows: Vec<Vec<(NodeId, i64)>> = vec![Vec::new(); fixed];
        for u in 0..n {
            for d in dg.succs(InstId(u as u32)) {
                let (v, lat) = (d.to.index(), d.latency as i64);
                succ_rows[u].push((v, lat));
                pred_rows[v].push((u, lat));
            }
        }
        let succ_csr: Csr<(NodeId, i64)> = succ_rows.into_iter().collect();
        let pred_csr: Csr<(NodeId, i64)> = pred_rows.into_iter().collect();
        let classes: Vec<OpClass> = sb.insts().iter().map(|i| i.class()).collect();
        let live_in: Vec<bool> = sb.insts().iter().map(|i| i.is_live_in()).collect();
        let data_edges_at = Csr::grouped(
            n,
            &data_edges
                .iter()
                .enumerate()
                .flat_map(|(i, &(p, c))| [(p, i), (c, i)])
                .collect::<Vec<_>>(),
            |&(node, _)| node,
            |&(_, i)| i,
        );
        let words = n.div_ceil(64);
        let mut plc_pairs = vec![0u64; n * words];
        for side in [&consumers_of, &producers_of] {
            for common in side {
                for &x in common {
                    for &y in common {
                        if x != y {
                            plc_pairs[x * words + y / 64] |= 1 << (y % 64);
                        }
                    }
                }
            }
        }
        let mut fu_nodes: [Vec<NodeId>; 4] = Default::default();
        for (ci, &class) in OpClass::FU_CLASSES.iter().enumerate() {
            fu_nodes[ci] = (0..n)
                .filter(|&i| !live_in[i] && classes[i] == class)
                .collect();
        }
        // Same visit order as the per-round rescan this replaces: node
        // ascending, FU class order, predecessor side before successor
        // side — the deduction queue is order-sensitive. One pass over
        // the instructions per node fills every (class, side) group.
        let mut prec_rules = Vec::new();
        let inst = |i: usize| vcsched_ir::InstId(i as u32);
        let mut groups: [[Vec<usize>; 2]; 4] = Default::default();
        let mut min_paths = [[i64::MAX; 2]; 4];
        for x in 0..n {
            for (g, p) in groups.iter_mut().zip(&mut min_paths) {
                g[0].clear();
                g[1].clear();
                *p = [i64::MAX; 2];
            }
            for m in 0..n {
                let Some(ci) = classes[m].fu_index().filter(|_| !live_in[m]) else {
                    continue;
                };
                for (side, forced, d) in [
                    (0, dg.reaches(inst(m), inst(x)), paths[x][m]),
                    (1, dg.reaches(inst(x), inst(m)), paths[m][x]),
                ] {
                    if forced {
                        groups[ci][side].push(m);
                        if let Some(d) = d {
                            min_paths[ci][side] = min_paths[ci][side].min(d);
                        }
                    }
                }
            }
            for (ci, class) in OpClass::FU_CLASSES.into_iter().enumerate() {
                let cap = machine.total_capacity(class) as i64;
                if cap == 0 {
                    continue;
                }
                for side in 0..2 {
                    let members = &groups[ci][side];
                    let min_path = min_paths[ci][side];
                    if members.len() as i64 > cap && min_path != i64::MAX {
                        let rounds = (members.len() as i64 + cap - 1) / cap;
                        prec_rules.push(PrecRule {
                            node: x,
                            succ_side: side == 1,
                            members: members.clone(),
                            slack: (rounds - 1) + min_path,
                        });
                    }
                }
            }
        }
        Arc::new(StateCtx {
            machine: machine.clone(),
            tuning,
            n_insts: n,
            classes,
            latencies: sb.insts().iter().map(|i| i.latency()).collect(),
            live_in,
            exit: sb.insts().iter().map(|i| i.is_exit()).collect(),
            data_edges,
            dg,
            consumers_of,
            producers_of,
            data_edges_at,
            plc_pairs,
            paths,
            succ_csr,
            pred_csr,
            fu_nodes,
            prec_rules,
        })
    }

    /// Node id of the anchor for cluster `c`.
    pub fn anchor(&self, c: usize) -> NodeId {
        self.n_insts + c
    }

    /// Number of fixed nodes (instructions + anchors).
    pub fn fixed_nodes(&self) -> usize {
        self.n_insts + self.machine.cluster_count()
    }

    /// Words per row of [`StateCtx::plc_pairs`].
    pub fn pair_words(&self) -> usize {
        self.n_insts.div_ceil(64)
    }

    /// Whether instructions `x` and `y` share a data consumer or a data
    /// producer (see [`StateCtx::plc_pairs`]).
    pub fn is_plc_pair(&self, x: usize, y: usize) -> bool {
        self.plc_pairs[x * self.pair_words() + y / 64] & (1 << (y % 64)) != 0
    }
}

/// Heuristic comparison key for future scheduling states (§4.4.3): fewer
/// communications, then more compact code, then a lower outedge-to-VC ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateScore {
    /// Live communications (FLC + PLC).
    pub comms: usize,
    /// Compactness proxy: sum of exit earliest starts.
    pub compactness: i64,
    /// `outedges / virtual clusters`, scaled by 1000 and truncated.
    pub outedge_ratio_milli: i64,
}

impl StateScore {
    /// Returns `true` if `self` is a better (preferred) state than `other`.
    /// Ties favour the incumbent (callers push the *choose* future first).
    pub fn better_than(&self, other: &StateScore) -> bool {
        (self.comms, self.compactness, self.outedge_ratio_milli)
            < (other.comms, other.compactness, other.outedge_ratio_milli)
    }
}

/// A free list of emptied vectors, handed out again instead of
/// allocating fresh ones.
#[derive(Debug)]
pub(crate) struct Pool<T>(Vec<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<T> Pool<T> {
    /// An empty vector, recycled when one is free.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Empties `v` and keeps it for the next [`Pool::take`].
    pub(crate) fn give(&mut self, mut v: Vec<T>) {
        v.clear();
        self.0.push(v);
    }
}

/// Reusable buffers for the deduction rules, owned by the state so that a
/// study allocates nothing once the buffers have grown: the search arena
/// keeps one state, and with it these buffers, across AWCT attempts.
/// Contents carry no meaning between calls, so a clone starts empty.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Work lists for the rules. Rules nest (a fuse fires Rule 1, which
    /// fuses again), so the lists are a pool rather than one buffer per
    /// rule.
    pub(crate) lists: Pool<NodeId>,
    /// Per-node rows (member lists, edge lists, FLC consumer lists) of
    /// comm nodes a rollback discarded, for the next comm node.
    pub(crate) rows: Pool<NodeId>,
    /// Dependence rows, recycled the same way.
    pub(crate) dep_rows: Pool<(NodeId, i64)>,
    /// One slot per node for the sweeps that memoise VC roots or view
    /// indices; none of them nests, so one buffer serves them all.
    memo: Vec<usize>,
    /// One bit per data edge: the edges a crossing-edge sweep visits
    /// (sweeps do not nest).
    pub(crate) edge_marks: Vec<u64>,
    /// One bit per instruction: the members of the VC a PLC sweep pairs
    /// against (the sweep does not nest).
    pub(crate) pair_mask: Vec<u64>,
    /// `(component root, offset)` per member, read once by the
    /// same-cycle audit loops of a merge or fuse (those loops do not
    /// nest).
    pub(crate) cc_pos: Vec<(usize, i64)>,
    /// The worklist a decision drains.
    pub(crate) queue: Queue,
    /// Window-scan buffers of the resource rules.
    pub(crate) pigeon: PigeonScratch,
    /// The colourability check's graph.
    vcg: DenseColoring,
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

impl Scratch {
    /// The node memo, filled with `usize::MAX` for `nodes` nodes; hand it
    /// back with [`Scratch::put_memo`].
    pub(crate) fn take_memo(&mut self, nodes: usize) -> Vec<usize> {
        let mut memo = std::mem::take(&mut self.memo);
        memo.clear();
        memo.resize(nodes, usize::MAX);
        memo
    }

    /// Returns the node memo.
    pub(crate) fn put_memo(&mut self, memo: Vec<usize>) {
        self.memo = memo;
    }
}

/// `(&mut lists[a], &mut lists[b])` for `a != b`.
fn two_mut(lists: &mut [Vec<NodeId>], a: usize, b: usize) -> (&mut Vec<NodeId>, &mut Vec<NodeId>) {
    if a < b {
        let (lo, hi) = lists.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = lists.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Appends `lists[from]` to `lists[to]` and empties `lists[from]`, keeping
/// both allocations; returns how many members moved.
pub(crate) fn move_members(lists: &mut [Vec<NodeId>], from: usize, to: usize) -> usize {
    let (src, dst) = two_mut(lists, from, to);
    dst.extend_from_slice(src);
    let moved = src.len();
    src.clear();
    moved
}

/// Undoes [`move_members`]: moves the last `moved` members of `lists[to]`
/// back into the emptied `lists[from]`.
fn unmove_members(lists: &mut [Vec<NodeId>], from: usize, to: usize, moved: usize) {
    let (dst, src) = two_mut(lists, from, to);
    let at = src.len() - moved;
    dst.extend_from_slice(&src[at..]);
    src.truncate(at);
}

/// The mutable scheduling state.
///
/// Candidate study is trail-based (apply on this state, then
/// [`SchedulingState::rollback`]). The state stays cloneable: the
/// speculation tests study each decision on a clone, the paper's literal
/// mechanism, as the reference the trail must match.
#[derive(Debug, Clone)]
pub struct SchedulingState {
    /// Shared immutable context.
    pub ctx: Arc<StateCtx>,
    /// Node kinds (instructions, anchors, comms).
    pub kind: Vec<NodeKind>,
    /// Earliest start per node.
    pub est: Vec<i64>,
    /// Latest start per node.
    pub lst: Vec<i64>,
    /// *Dynamic* hard dependence successors `(node, latency)` per node —
    /// only the edges deduction adds (communication edges). The static
    /// superblock adjacency lives in [`StateCtx::succ_csr`] and is
    /// iterated before these extras.
    pub succ: Vec<Vec<(NodeId, i64)>>,
    /// *Dynamic* hard dependence predecessors, mirror of
    /// [`SchedulingState::succ`].
    pub pred: Vec<Vec<(NodeId, i64)>>,
    /// Connected components over nodes, with fixed cycle offsets.
    pub cc: OffsetUnionFind,
    /// Virtual clusters over nodes.
    pub vc: UnionFind,
    /// VC incompatibility adjacency, authoritative at VC roots. Growable
    /// bitsets: ascending iteration like the former sorted vecs, one cache
    /// line for typical degrees, semantic equality under rollback churn.
    pub vc_adj: Vec<GrowSet>,
    /// Scheduling-graph edges.
    pub edges: Vec<SgEdge>,
    /// Edge index by node pair `(min, max)`.
    pub edge_of: EdgeIndex,
    /// Edges incident to each node.
    pub edges_at: Vec<Vec<usize>>,
    /// Communication table.
    pub comms: Vec<Comm>,
    /// FLC registry: per producer instruction, the communication indices
    /// carrying its value (one per destination virtual cluster); empty
    /// while the value has none.
    pub flc_by_value: Vec<Vec<usize>>,
    /// PLC dedup registry: `(kind_tag, x, y, z)` identities already created
    /// (tag 0 = producer-partial, 1 = consumer-partial), kept sorted.
    pub plc_seen: Vec<PlcKey>,
    /// Scheduling horizon: upper bound for every lstart this attempt.
    pub horizon: i64,
    /// Connected-component member lists, authoritative at CC roots
    /// (empty elsewhere).
    pub cc_list: Vec<Vec<NodeId>>,
    /// Virtual-cluster member lists, authoritative at VC roots.
    pub vc_list: Vec<Vec<NodeId>>,
    /// Set whenever a bound tightened or the VC/comm structure changed;
    /// gates re-running the (expensive) resource rules.
    pub dirty: bool,
    /// Set when the virtual-cluster graph (VC sets or incompatibility
    /// adjacency) may have changed since the last colourability check that
    /// passed; clear means the VCG is bit-identical to one already proven
    /// colourable, so the check can be skipped with an identical result.
    pub vcg_dirty: bool,
    /// The speculation trail: undo log plus lifetime telemetry.
    pub trail: Trail,
    /// Reusable buffers for the deduction rules.
    pub(crate) scratch: Scratch,
}

impl SchedulingState {
    /// Latency of a node (bus latency for comms, 0 for anchors).
    pub fn latency(&self, n: NodeId) -> i64 {
        match self.kind[n] {
            NodeKind::Inst(id) => self.ctx.latencies[id.index()] as i64,
            NodeKind::Anchor(_) => 0,
            NodeKind::Comm(_) => self.ctx.machine.bus_latency() as i64,
        }
    }

    /// Operation class of a node (`Copy` for comms, `None` for anchors).
    pub fn class(&self, n: NodeId) -> Option<OpClass> {
        match self.kind[n] {
            NodeKind::Inst(id) => Some(self.ctx.classes[id.index()]),
            NodeKind::Anchor(_) => None,
            NodeKind::Comm(_) => Some(OpClass::Copy),
        }
    }

    /// Whether the node competes for issue/bus resources.
    pub fn uses_resources(&self, n: NodeId) -> bool {
        match self.kind[n] {
            NodeKind::Inst(id) => !self.ctx.live_in[id.index()],
            NodeKind::Anchor(_) => false,
            NodeKind::Comm(ci) => self.comms[ci].kind != CommKind::Dead,
        }
    }

    /// Whether the node is pinned to a single cycle.
    pub fn pinned(&self, n: NodeId) -> bool {
        self.est[n] == self.lst[n]
    }

    /// Slack (`lstart − estart`) of a node.
    pub fn slack(&self, n: NodeId) -> i64 {
        self.lst[n] - self.est[n]
    }

    /// Returns `Some(cycle(a) − cycle(b))` when the relative position of the
    /// two nodes is already fixed (same connected component, or both pinned).
    pub fn fixed_delta(&mut self, a: NodeId, b: NodeId) -> Option<i64> {
        if let Some(d) = self.cc.relative_offset(a, b) {
            return Some(d);
        }
        if self.pinned(a) && self.pinned(b) {
            return Some(self.est[a] - self.est[b]);
        }
        None
    }

    /// Returns `true` when the two nodes provably issue in the same cycle.
    pub fn same_cycle(&mut self, a: NodeId, b: NodeId) -> bool {
        self.fixed_delta(a, b) == Some(0)
    }

    /// VC root of a node.
    pub fn vc_root(&mut self, n: NodeId) -> usize {
        self.vc.find(n)
    }

    /// Returns `true` if the VCs of the two nodes are fused.
    pub fn same_vc(&mut self, a: NodeId, b: NodeId) -> bool {
        self.vc.same(a, b)
    }

    /// Returns `true` if the VCs of the two nodes are marked incompatible.
    pub fn vcs_incompatible(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.vc.find(a), self.vc.find(b));
        ra != rb && self.vc_adj[ra].contains(rb)
    }

    /// Whether `m` roots a virtual cluster. Comm nodes live outside the
    /// VC world, so their singletons do not count.
    fn is_vc_root(&self, m: NodeId) -> bool {
        !self.vc_list[m].is_empty() && !matches!(self.kind[m], NodeKind::Comm(_))
    }

    /// All current VC roots (anchors always included).
    pub fn vc_roots(&self) -> Vec<usize> {
        (0..self.kind.len())
            .filter(|&m| self.is_vc_root(m))
            .collect()
    }

    /// Number of current VC roots — `vc_roots().len()` in O(1): comm
    /// nodes are never fused, so each is one singleton set of the VC
    /// union-find and every other set is rooted at a fixed node.
    fn vc_root_count(&self) -> usize {
        self.vc.set_count() - (self.kind.len() - self.ctx.fixed_nodes())
    }

    /// The anchor cluster a node's VC is mapped to, if any.
    pub fn cluster_of(&mut self, n: NodeId) -> Option<ClusterId> {
        let root = self.vc.find(n);
        for c in 0..self.ctx.machine.cluster_count() {
            let a = self.ctx.anchor(c);
            if self.vc.find(a) == root {
                return Some(ClusterId(c as u8));
            }
        }
        None
    }

    /// Live communications (not dead).
    pub fn live_comms(&self) -> impl Iterator<Item = &Comm> {
        self.comms.iter().filter(|c| c.kind != CommKind::Dead)
    }

    /// Number of live communications.
    pub fn comm_count(&self) -> usize {
        self.live_comms().count()
    }

    /// Data edges whose endpoints sit in *different, compatible* VCs — the
    /// paper's *outedges* (§4.4.1.2), the edges stage 3 eliminates.
    pub fn outedges(&mut self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        self.for_each_outedge(|p, c| out.push((p, c)));
        out
    }

    /// `outedges().len()` without materialising the pair list (the score
    /// heuristic only needs the count).
    fn outedge_count(&mut self) -> usize {
        let mut count = 0;
        self.for_each_outedge(|_, _| count += 1);
        count
    }

    fn for_each_outedge(&mut self, mut f: impl FnMut(NodeId, NodeId)) {
        // Memoise VC roots across the edge walk: endpoints repeat across
        // data edges, and with the trail journaling suspending path
        // compression each `find` would otherwise re-walk its chain.
        let mut root = self.scratch.take_memo(self.kind.len());
        let mut root_of = |vc: &mut UnionFind, n: NodeId| {
            if root[n] == usize::MAX {
                root[n] = vc.find(n);
            }
            root[n]
        };
        for &(p, c) in &self.ctx.data_edges {
            let rp = root_of(&mut self.vc, p);
            let rc = root_of(&mut self.vc, c);
            if rp != rc && !self.vc_adj[rp].contains(rc) {
                f(p, c);
            }
        }
        self.scratch.put_memo(root);
    }

    /// Heuristic score of this state (§4.4.3).
    pub fn score(&mut self) -> StateScore {
        let comms = self.comm_count();
        let compactness: i64 = self
            .ctx
            .dg
            .exits()
            .iter()
            .map(|x| self.est[x.index()])
            .sum();
        let outedges = self.outedge_count() as i64;
        let vcs = self.vc_root_count() as i64;
        StateScore {
            comms,
            compactness,
            outedge_ratio_milli: if vcs > 0 { outedges * 1000 / vcs } else { 0 },
        }
    }

    /// Starts a speculation: subsequent mutations are recorded on the
    /// trail (and in the union-finds' own journals, with path compression
    /// suspended) until [`SchedulingState::rollback`] or
    /// [`SchedulingState::commit`] consumes the returned mark.
    /// Speculations do not nest.
    pub fn begin_speculation(&mut self) -> TrailMark {
        debug_assert!(
            !self.trail.active && self.trail.entries.is_empty(),
            "speculations do not nest"
        );
        self.trail.active = true;
        self.cc.begin_journal();
        self.vc.begin_journal();
        TrailMark {
            len: self.trail.entries.len(),
            cc: self.cc.mark(),
            vc: self.vc.mark(),
            dirty: self.dirty,
            vcg_dirty: self.vcg_dirty,
        }
    }

    /// Undoes every mutation recorded since `mark`, restoring the state
    /// bit-exactly, and ends the speculation.
    pub fn rollback(&mut self, mark: TrailMark) {
        self.trail.note_rollback();
        while self.trail.entries.len() > mark.len {
            match self.trail.entries.pop().expect("trail entry") {
                TrailEntry::Est { n, old } => self.est[n] = old,
                TrailEntry::Lst { n, old } => self.lst[n] = old,
                TrailEntry::Edge { e, old } => self.edges[e].state = old,
                TrailEntry::DepEdge { from, to } => {
                    self.succ[from].pop();
                    self.pred[to].pop();
                }
                TrailEntry::CcListMove { root, minor, moved } => {
                    unmove_members(&mut self.cc_list, minor, root, moved);
                }
                TrailEntry::VcListMove { root, minor, moved } => {
                    unmove_members(&mut self.vc_list, minor, root, moved);
                }
                TrailEntry::VcAdjInsert { a, b } => {
                    self.vc_adj[a].remove(b);
                }
                TrailEntry::VcAdjRemove { a, b } => {
                    self.vc_adj[a].insert(b);
                }
                TrailEntry::CommPush => {
                    if let Some(Comm {
                        kind: CommKind::Flc { consumers, .. },
                        ..
                    }) = self.comms.pop()
                    {
                        self.scratch.rows.give(consumers);
                    }
                }
                TrailEntry::CommKind { ci, old } => self.comms[ci].kind = old,
                TrailEntry::CommConsumerPush { ci } => {
                    if let CommKind::Flc { consumers, .. } = &mut self.comms[ci].kind {
                        consumers.pop();
                    }
                }
                TrailEntry::FlcPush { value } => {
                    self.flc_by_value[value].pop();
                }
                TrailEntry::PlcSeen { key } => {
                    if let Ok(pos) = self.plc_seen.binary_search(&key) {
                        self.plc_seen.remove(pos);
                    }
                }
                TrailEntry::NewNode => {
                    self.kind.pop();
                    self.est.pop();
                    self.lst.pop();
                    self.vc_adj.pop();
                    // Rows go back in the reverse of the order
                    // `push_comm_node` takes them, so a re-created node
                    // gets each row back in the same role.
                    let rows = [self.pred.pop(), self.succ.pop()];
                    for row in rows.into_iter().flatten() {
                        self.scratch.dep_rows.give(row);
                    }
                    let lists = [self.vc_list.pop(), self.cc_list.pop(), self.edges_at.pop()];
                    for list in lists.into_iter().flatten() {
                        self.scratch.rows.give(list);
                    }
                }
            }
        }
        self.cc.rollback(mark.cc);
        self.vc.rollback(mark.vc);
        self.cc.end_journal();
        self.vc.end_journal();
        self.dirty = mark.dirty;
        // The VCG is restored bit-exactly too, so the colourability verdict
        // the mark-time state held (checked or not) is valid again.
        self.vcg_dirty = mark.vcg_dirty;
        self.trail.active = false;
    }

    /// Keeps every mutation recorded since `mark` (the adopted-winner
    /// path) and ends the speculation, discarding the undo records.
    pub fn commit(&mut self, mark: TrailMark) {
        self.trail.entries.truncate(mark.len);
        self.cc.end_journal();
        self.vc.end_journal();
        self.trail.active = false;
    }

    /// Whether the PLC `key` was already created.
    pub(crate) fn has_plc(&self, key: &PlcKey) -> bool {
        self.plc_seen.binary_search(key).is_ok()
    }

    /// Records the PLC `key` (absent until now) in sorted position.
    pub(crate) fn insert_plc(&mut self, key: PlcKey) {
        if let Err(pos) = self.plc_seen.binary_search(&key) {
            self.plc_seen.insert(pos, key);
        }
    }

    /// Appends a comm node row with the given bounds to every per-node
    /// vector (rows come from the scratch pool) and returns its id. The
    /// comm-table index it points at is the next `comms` slot.
    pub(crate) fn push_comm_node(&mut self, est: i64, lst: i64) -> NodeId {
        let node = self.kind.len();
        self.kind.push(NodeKind::Comm(self.comms.len()));
        self.est.push(est);
        self.lst.push(lst);
        let (succ, pred) = (self.scratch.dep_rows.take(), self.scratch.dep_rows.take());
        self.succ.push(succ);
        self.pred.push(pred);
        let cc_id = self.cc.push();
        debug_assert_eq!(cc_id, node);
        let vc_id = self.vc.push();
        debug_assert_eq!(vc_id, node);
        self.vc_adj.push(Default::default());
        let edges_at = self.scratch.rows.take();
        self.edges_at.push(edges_at);
        for lists in [&mut self.cc_list, &mut self.vc_list] {
            let mut row = self.scratch.rows.take();
            row.push(node);
            lists.push(row);
        }
        node
    }

    /// Estimated heap bytes a full clone of this state would copy — the
    /// per-study cost the trail engine avoids. Measured once per state
    /// (re)build and cached on the trail, which credits it to
    /// [`Trail::bytes_not_cloned`] on each rollback in O(1) (walking the
    /// whole heap per study would reintroduce the very cost the trail
    /// removes).
    pub fn approx_clone_bytes(&self) -> u64 {
        use std::mem::size_of;
        let per_node = size_of::<NodeKind>()      // kind
            + 2 * size_of::<i64>()                // est + lst
            + 3 * size_of::<usize>()              // cc parent/rank/offset (approx)
            + 2 * size_of::<usize>(); // vc parent/rank (approx)
        let mut bytes = (self.kind.len() * per_node) as u64;
        for v in &self.succ {
            bytes += (v.len() * size_of::<(NodeId, i64)>()) as u64;
        }
        for v in &self.pred {
            bytes += (v.len() * size_of::<(NodeId, i64)>()) as u64;
        }
        for adj in &self.vc_adj {
            bytes += (adj.len() * size_of::<usize>()) as u64;
        }
        for v in &self.edges_at {
            bytes += (v.len() * size_of::<usize>()) as u64;
        }
        for v in self.cc_list.iter().chain(&self.vc_list) {
            bytes += (v.len() * size_of::<NodeId>()) as u64;
        }
        bytes += (self.edges.len() * size_of::<SgEdge>()) as u64;
        bytes += (self.edge_of.len() * size_of::<(NodeId, NodeId, usize)>()) as u64;
        bytes += (self.comms.len() * size_of::<Comm>()) as u64;
        let flc_values = self
            .flc_by_value
            .iter()
            .filter(|cis| !cis.is_empty())
            .count();
        bytes += (flc_values * 3 * size_of::<usize>()) as u64;
        bytes += (self.plc_seen.len() * size_of::<PlcKey>()) as u64;
        bytes
    }

    /// Whether the VCG restricted to current roots can be coloured with
    /// the physical clusters (§3.2), checked on the scratch dense graph:
    /// graph node `i` is the `i`-th root in ascending order, and an edge
    /// `{i, j}` (`i < j`) exists when root `j` is in root `i`'s adjacency
    /// row (rows may still name merged-away roots; those are skipped).
    pub(crate) fn vcg_colorable(&mut self, k: usize) -> bool {
        // Comm nodes never root a VC: only fixed nodes can.
        let fixed = self.ctx.fixed_nodes();
        let mut index = self.scratch.take_memo(self.kind.len());
        let mut roots = 0;
        for m in 0..fixed {
            if self.is_vc_root(m) {
                index[m] = roots;
                roots += 1;
            }
        }
        let vcg = &mut self.scratch.vcg;
        vcg.reset(roots);
        for r in 0..fixed {
            let i = index[r];
            if i == usize::MAX {
                continue;
            }
            for n in self.vc_adj[r].iter() {
                let j = index[n];
                if j != usize::MAX && i < j {
                    vcg.add_edge(i, j);
                }
            }
        }
        let colorable = vcg.is_k_colorable(k, 22);
        self.scratch.put_memo(index);
        colorable
    }
}
