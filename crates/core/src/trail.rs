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
//! to the legacy clone-based engine on the golden corpus.
//!
//! Alongside the undo log, the trail can record a **redo log**: while a
//! study runs with redo capture on, every mutation also appends a
//! *forward* record (the `new` half of the `(old, new)` delta pair). After
//! the study rolls back, the captured [`RedoLog`] replays the winner's
//! deltas directly through
//! [`crate::state::SchedulingState::apply_redo`] — no re-deduction, no
//! re-charged budget, step telemetry untouched.
//!
//! The trail also accumulates lifetime telemetry — entries recorded,
//! rollbacks performed, peak depth, and an estimate of the clone bytes the
//! engine did *not* copy — surfaced as
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

/// One redo record: the *forward* half of a state delta, enough to replay
/// the mutation without re-running deduction. Variants mirror the
/// [`TrailEntry`] undo records but carry the `new` value (and, for
/// structural pushes, the payload the deduction derived), so replaying the
/// sequence in order reproduces the post-study state bit-exactly.
#[derive(Debug, Clone)]
pub(crate) enum RedoEntry {
    /// `est[n]` was raised to `new`.
    Est { n: NodeId, new: i64 },
    /// `lst[n]` was lowered to `new`.
    Lst { n: NodeId, new: i64 },
    /// Edge `e` now has state `new`.
    Edge { e: usize, new: EdgeState },
    /// A hard dependence edge `from → to` with latency `lat` was appended.
    DepEdge { from: NodeId, to: NodeId, lat: i64 },
    /// CC roots `u` and `v` were unioned with relative offset `delta`
    /// (`offset(v) − offset(u)` at union time).
    CcUnion { u: usize, v: usize, delta: i64 },
    /// CC `minor`'s member list was drained into CC `root`'s.
    CcListMove { root: usize, minor: usize },
    /// VC roots `a` and `b` were unioned.
    VcUnion { a: usize, b: usize },
    /// VC `minor`'s member list was drained into VC `root`'s.
    VcListMove { root: usize, minor: usize },
    /// `b` was inserted into `vc_adj[a]`.
    VcAdjInsert { a: usize, b: usize },
    /// `b` was removed from `vc_adj[a]`.
    VcAdjRemove { a: usize, b: usize },
    /// A comm node was created with the given (clamped) initial bounds.
    /// The comm-table index is derived from `comms.len()` at replay time —
    /// comm pushes replay in the original order.
    NewNode { est: i64, lst: i64 },
    /// An FLC comm for `value → consumer` was pushed (node id derives from
    /// the preceding [`RedoEntry::NewNode`]).
    CommPushFlc {
        node: NodeId,
        value: NodeId,
        consumer: NodeId,
    },
    /// A producer-PLC comm was pushed.
    CommPushPPlc {
        node: NodeId,
        producers: (NodeId, NodeId),
        consumer: NodeId,
    },
    /// A consumer-PLC comm was pushed.
    CommPushCPlc {
        node: NodeId,
        value: NodeId,
        consumers: (NodeId, NodeId),
    },
    /// `c` was appended to the consumer list of FLC comm `ci`.
    CommConsumerPush { ci: usize, c: NodeId },
    /// Comm `ci` was killed (kind set to `Dead`).
    CommSetDead { ci: usize },
    /// Comm index `ci` was appended to the FLC registry under `value`.
    FlcPush { value: NodeId, ci: usize },
    /// `key` was inserted into the PLC dedup registry.
    PlcInsert { key: PlcKey },
}

/// A captured forward delta log from one successful study — replay it with
/// [`crate::state::SchedulingState::apply_redo`] to adopt the studied
/// decision without re-running deduction.
#[derive(Debug, Clone, Default)]
pub struct RedoLog {
    pub(crate) entries: Vec<RedoEntry>,
}

impl RedoLog {
    /// Number of forward records captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty (the study mutated nothing).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
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
    /// Forward (redo) records captured while `redo_on`; handed to a
    /// [`RedoLog`] by a successful study, cleared by a failed one.
    pub(crate) redo: Vec<RedoEntry>,
    /// Emptied redo buffers returned by [`Trail::recycle`], swapped in for
    /// the next study's capture so a log costs no allocation once warm.
    spare_redo: Vec<Vec<RedoEntry>>,
    /// Whether mutations should also append redo records.
    pub(crate) redo_on: bool,
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
    redo_entries_total: u64,
    redo_replays: u64,
    redo_bytes_replayed: u64,
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

    /// Appends one redo record if capture is on.
    #[inline]
    pub(crate) fn redo(&mut self, entry: RedoEntry) {
        if self.redo_on {
            self.redo.push(entry);
            self.redo_entries_total += 1;
        }
    }

    /// Hands the captured redo records to a [`RedoLog`], leaving a
    /// recycled (empty) buffer for the next capture.
    pub(crate) fn take_redo(&mut self) -> RedoLog {
        let spare = self.spare_redo.pop().unwrap_or_default();
        RedoLog {
            entries: std::mem::replace(&mut self.redo, spare),
        }
    }

    /// Returns a log's buffer for reuse by later studies, once the log
    /// has been replayed or its candidate lost.
    pub fn recycle(&mut self, mut log: RedoLog) {
        // A stage holds at most a handful of logs at once; keep that many.
        const KEEP: usize = 8;
        if self.spare_redo.len() < KEEP {
            log.entries.clear();
            self.spare_redo.push(log.entries);
        }
    }

    /// Charges `bytes` of state mutation to the trail-work meter.
    #[inline]
    pub(crate) fn charge_bytes(&mut self, bytes: u64) {
        self.work_bytes += bytes;
    }

    /// Counts one redo replay of `entries` records covering `bytes` of
    /// state.
    pub(crate) fn note_redo_replay(&mut self, bytes: u64) {
        self.redo_replays += 1;
        self.redo_bytes_replayed += bytes;
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

    /// Estimated bytes the clone-based engine would have copied for the
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

    /// Redo records captured over the trail's lifetime.
    pub fn redo_entries_total(&self) -> u64 {
        self.redo_entries_total
    }

    /// Redo replays performed (winner adoptions that skipped re-deduction).
    pub fn redo_replays(&self) -> u64 {
        self.redo_replays
    }

    /// State bytes written back by redo replays over the trail's lifetime.
    pub fn redo_bytes_replayed(&self) -> u64 {
        self.redo_bytes_replayed
    }
}
