//! The speculation trail: delta/rollback for candidate study (§4.4.2).
//!
//! The paper studies every candidate decision "on a cloned state". Cloning
//! the whole [`crate::state::SchedulingState`] per candidate made the clone
//! — not the deduction — the dominant cost of a study. The trail replaces
//! clone-and-discard with **record-and-undo**: while a speculation is
//! active, every state mutation the deduction process performs appends one
//! small undo record, and [`crate::state::SchedulingState::rollback`]
//! replays the records in reverse to restore the state *bit-exactly*.
//!
//! Coverage is total by construction: every mutable field of the state is
//! either journaled here (bounds, edge resolutions, dependence-edge pushes,
//! component/cluster member lists, incompatibility adjacency, communication
//! table, FLC/PLC registries, node creation), journaled inside the
//! union-finds themselves (`vcsched-graph` suspends path compression and
//! logs unions/pushes while speculating), or captured wholesale in the
//! [`TrailMark`] (the `dirty` flag). Rollback therefore restores the exact
//! pre-study state, which is what keeps trail-based search byte-identical
//! to the paper's clone-and-discard study.
//!
//! The stages adopt a winner by re-running its deduction on the restored
//! state ([`crate::decision::replay_decision`]), which charges the same
//! work bytes the study did, so a byte budget prices an adopted winner
//! exactly as it priced the study.
//!
//! The trail also accumulates lifetime telemetry — entries recorded,
//! rollbacks performed, peak depth, winners adopted, and an estimate of
//! the clone bytes the engine did *not* copy — surfaced as
//! [`vcsched_policy::SpecStats`] through the scheduler.

use crate::state::{CommKind, EdgeState, NodeId, PlcKey};

/// One undo record. Entries are deliberately small: the common cases
/// (bound tightenings, edge-domain changes) are a pair of machine words.
#[derive(Debug, Clone)]
pub(crate) enum TrailEntry {
    /// `est[n]` was raised; `old` restores it.
    Est { n: NodeId, old: i64 },
    /// `lst[n]` was lowered; `old` restores it.
    Lst { n: NodeId, old: i64 },
    /// The resolution (or open domain) of edge `e` changed.
    Edge { e: usize, old: EdgeState },
    /// A hard dependence edge `from → to` was appended to `succ`/`pred`.
    DepEdge { from: NodeId, to: NodeId },
    /// `moved` members of CC `minor` were appended to CC `root`'s list.
    CcListMove {
        /// Surviving root whose list grew.
        root: usize,
        /// Emptied root whose list the members came from.
        minor: usize,
        /// How many members moved (a suffix of `root`'s list).
        moved: usize,
    },
    /// `moved` members of VC `minor` were appended to VC `root`'s list.
    VcListMove {
        /// Surviving root whose list grew.
        root: usize,
        /// Emptied root whose list the members came from.
        minor: usize,
        /// How many members moved (a suffix of `root`'s list).
        moved: usize,
    },
    /// `b` was inserted into `vc_adj[a]`.
    VcAdjInsert { a: usize, b: usize },
    /// `b` was removed from `vc_adj[a]`.
    VcAdjRemove { a: usize, b: usize },
    /// A communication entry was pushed onto the comm table.
    CommPush,
    /// Communication `ci` changed kind (PLC promoted or killed); `old`
    /// restores it.
    CommKind { ci: usize, old: CommKind },
    /// A consumer was appended to FLC `ci`'s consumer list.
    CommConsumerPush { ci: usize },
    /// A comm index was appended to the FLC registry under `value`.
    FlcPush { value: NodeId },
    /// `key` was inserted into the PLC dedup registry.
    PlcSeen { key: PlcKey },
    /// A node row was pushed onto every per-node vector (comm creation).
    NewNode,
}

/// Position snapshot returned by
/// [`crate::state::SchedulingState::begin_speculation`]; consumed by
/// `rollback` or `commit`.
#[derive(Debug, Clone, Copy)]
pub struct TrailMark {
    pub(crate) len: usize,
    pub(crate) cc: usize,
    pub(crate) vc: usize,
    pub(crate) dirty: bool,
    pub(crate) vcg_dirty: bool,
}

/// The undo log plus its lifetime telemetry counters.
///
/// The counters survive state resets (the search arena reuses one state
/// across AWCT bumps), so at the end of a search they describe the whole
/// run, not just the last attempt.
#[derive(Debug, Clone, Default)]
pub struct Trail {
    pub(crate) entries: Vec<TrailEntry>,
    pub(crate) active: bool,
    /// Cached estimate of one full-state clone, refreshed per state
    /// (re)build — rollbacks credit it in O(1) instead of re-walking the
    /// whole heap per study.
    pub(crate) clone_bytes_hint: u64,
    /// Lifetime bytes of state touched by deduction mutations — the
    /// trail-work measure byte budgets are priced in.
    work_bytes: u64,
    total_entries: u64,
    rollbacks: u64,
    peak_depth: usize,
    bytes_not_cloned: u64,
    /// Stage winners adopted by [`crate::decision::replay_decision`].
    pub(crate) adoptions: u64,
    /// Work bytes those adoptions charged.
    pub(crate) adopted_bytes: u64,
}

impl Trail {
    /// Whether a speculation is active (mutations are being recorded).
    pub fn active(&self) -> bool {
        self.active
    }

    /// Appends one undo record.
    #[inline]
    pub(crate) fn push(&mut self, entry: TrailEntry) {
        self.entries.push(entry);
        self.total_entries += 1;
        if self.entries.len() > self.peak_depth {
            self.peak_depth = self.entries.len();
        }
    }

    /// Charges `bytes` of state mutation to the trail-work meter.
    #[inline]
    pub(crate) fn charge_bytes(&mut self, bytes: u64) {
        self.work_bytes += bytes;
    }

    /// Counts one rollback and credits the clone it avoided (the cached
    /// per-build size estimate — O(1) per study).
    pub(crate) fn note_rollback(&mut self) {
        self.rollbacks += 1;
        self.bytes_not_cloned += self.clone_bytes_hint;
    }

    /// Undo records appended over the trail's lifetime.
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }

    /// Rollbacks performed over the trail's lifetime.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Deepest the undo log ever grew (entries outstanding at once).
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Estimated bytes a clone-per-study engine would have copied for the
    /// studies this trail rolled back instead (rollback count × the
    /// per-build state-size estimate; comm nodes created mid-attempt are
    /// not re-measured, so this slightly underestimates).
    pub fn bytes_not_cloned(&self) -> u64 {
        self.bytes_not_cloned
    }

    /// Lifetime bytes of state touched by deduction mutations (the unit
    /// trail-work byte budgets are priced in).
    pub fn work_bytes(&self) -> u64 {
        self.work_bytes
    }

    /// Stage winners adopted by re-deduction over the trail's lifetime.
    pub fn adoptions(&self) -> u64 {
        self.adoptions
    }

    /// Work bytes charged by those adoptions (part of
    /// [`Trail::work_bytes`]).
    pub fn adopted_bytes(&self) -> u64 {
        self.adopted_bytes
    }
}
