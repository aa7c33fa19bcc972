//! Decisions (§3): the actions the staged search studies through the DP.
//!
//! Studying is **trail-based** by default: a candidate is applied to the
//! real state under an active speculation
//! ([`SchedulingState::begin_speculation`]), its resulting score is
//! snapshotted, and the state is rolled back bit-exactly — no clone.
//! The winner is adopted by re-deducing it on the restored state
//! ([`replay_decision`]), which reaches the studied state and charges the
//! same work bytes the study did. The paper's literal clone-and-discard
//! mechanism (§4.4.2) is kept only as a test reference: clone the state
//! and [`apply_decision`] to it. `crates/core/tests/speculation.rs`
//! checks that a study and a replay match it, decision by decision.

use crate::dp::{self, Budget, DpAbort};
use crate::state::{NodeId, SchedulingState, StateScore};

/// One candidate action over the scheduling state.
///
/// The four decision forms of §3 map as follows: establishing a distance
/// relation is [`Decision::ChooseComb`]; scheduling an instruction in a
/// cycle is [`Decision::Pin`]; assigning instruction sets to the same /
/// different physical clusters are [`Decision::Fuse`] (including fusion
/// with a cluster anchor) and [`Decision::Incompat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Choose combination `d` between nodes `u < v`.
    ChooseComb {
        /// Lower-id endpoint.
        u: NodeId,
        /// Higher-id endpoint.
        v: NodeId,
        /// `cycle(u) − cycle(v)`.
        d: i64,
    },
    /// Discard combination `d` between nodes `u < v`.
    DiscardComb {
        /// Lower-id endpoint.
        u: NodeId,
        /// Higher-id endpoint.
        v: NodeId,
        /// The discarded value.
        d: i64,
    },
    /// Schedule `node` exactly at `cycle`.
    Pin {
        /// The node to pin.
        node: NodeId,
        /// Its issue cycle.
        cycle: i64,
    },
    /// Fuse the VCs of the two nodes (same physical cluster).
    Fuse(NodeId, NodeId),
    /// Fuse several VC pairs simultaneously (the stage-3 matching decision).
    FuseSet(Vec<(NodeId, NodeId)>),
    /// Mark the VCs of the two nodes incompatible (different clusters).
    Incompat(NodeId, NodeId),
}

/// Applies `decision` to `st`, runs the deduction process to a fixpoint and
/// checks VCG colourability.
///
/// # Errors
///
/// [`DpAbort::Contradiction`] when the decision is infeasible (study callers
/// then discard the candidate), [`DpAbort::Budget`] when out of budget.
pub fn apply_decision(
    st: &mut SchedulingState,
    decision: &Decision,
    budget: &mut Budget,
) -> Result<(), DpAbort> {
    dp::with_queue(st, |st, q| {
        match decision {
            Decision::ChooseComb { u, v, d } => {
                let e_idx = st
                    .edge_of
                    .get(*u, *v)
                    .expect("decision references an existing edge");
                dp::choose_comb(st, q, e_idx, *d)?;
            }
            Decision::DiscardComb { u, v, d } => {
                let e_idx = st
                    .edge_of
                    .get(*u, *v)
                    .expect("decision references an existing edge");
                dp::discard_comb(st, q, e_idx, *d)?;
            }
            Decision::Pin { node, cycle } => {
                dp::tighten_est(st, q, *node, *cycle)?;
                dp::tighten_lst(st, q, *node, *cycle)?;
            }
            Decision::Fuse(a, b) => {
                dp::fuse_vcs(st, q, *a, *b)?;
            }
            Decision::FuseSet(pairs) => {
                for &(a, b) in pairs {
                    dp::fuse_vcs(st, q, a, b)?;
                }
            }
            Decision::Incompat(a, b) => {
                dp::make_incompat(st, q, *a, *b)?;
            }
        }
        dp::drain(st, q, budget)?;
        dp::check_colorable(st)?;
        Ok(())
    })
}

/// Studies `decision` on `st` itself through the trail (§4.4.2, delta
/// form): applies it under an active speculation, snapshots the resulting
/// heuristic score, and rolls the state back bit-exactly. Returns the
/// score the future state would have — callers compare scores and
/// [`replay_decision`] (or [`study_and_keep`]) the winner.
///
/// # Errors
///
/// As [`apply_decision`]; the state is rolled back on error too.
pub fn study_decision(
    st: &mut SchedulingState,
    decision: &Decision,
    budget: &mut Budget,
) -> Result<StateScore, DpAbort> {
    let mark = st.begin_speculation();
    let applied = apply_decision(st, decision, budget);
    #[cfg(test)]
    if applied.is_ok() {
        crate::dp::tests::assert_crossing_edges_served(st);
    }
    let outcome = applied.map(|()| st.score());
    st.rollback(mark);
    outcome
}

/// Studies `decision` and, on success, keeps the applied deltas (commits
/// the speculation) — the adopt-unconditionally path of stage 3. On
/// contradiction or budget exhaustion the state is rolled back.
///
/// # Errors
///
/// As [`apply_decision`].
pub fn study_and_keep(
    st: &mut SchedulingState,
    decision: &Decision,
    budget: &mut Budget,
) -> Result<(), DpAbort> {
    let mark = st.begin_speculation();
    match apply_decision(st, decision, budget) {
        Ok(()) => {
            st.commit(mark);
            Ok(())
        }
        Err(e) => {
            st.rollback(mark);
            Err(e)
        }
    }
}

/// Re-applies a decision that a study already proved viable — the adopted
/// winner after every candidate was rolled back. Runs outside speculation
/// (full path compression, no recording) and against an *uncharged*
/// budget: the study already paid the deduction steps, just as adopting
/// a studied clone in the paper's mechanism costs none, so step
/// telemetry matches that mechanism. The re-deduction does
/// charge its work bytes, the same amount the study charged; each call
/// counts as one adoption ([`crate::Trail::adoptions`]).
pub fn replay_decision(st: &mut SchedulingState, decision: &Decision) {
    debug_assert!(!st.trail.active, "adoption runs outside speculation");
    let before = st.trail.work_bytes();
    apply_decision(st, decision, &mut Budget::unlimited())
        .expect("replaying a studied decision on the identical state cannot fail");
    st.trail.adoptions += 1;
    st.trail.adopted_bytes += st.trail.work_bytes() - before;
}
