//! Virtual cluster scheduling through the scheduling graph.
//!
//! This crate implements the CGO 2007 paper's contribution: a combined
//! instruction-scheduling and cluster-assignment algorithm for clustered
//! VLIW processors, built from three mechanisms:
//!
//! * the **scheduling graph** ([`init::sg_windows`], [`state::SgEdge`]) —
//!   an enumeration of every feasible *combination* (cycle-distance
//!   relation) between instruction pairs that may overlap (§3.1);
//! * **virtual clusters** and the **virtual cluster graph**
//!   ([`state::SchedulingState`]) — sets of instructions that must share a
//!   physical cluster, with incompatibility edges between sets that must
//!   not; final mapping onto physical clusters is postponed to the end of
//!   scheduling (§3.2);
//! * the **deduction process** ([`dp`]) — a monotone rule engine that turns
//!   every candidate decision into its mandatory consequences or a
//!   contradiction, including communication insertion and partially-linked
//!   communications (§3.3).
//!
//! The driver ([`VcScheduler`]) enumerates AWCT values from an enhanced
//! minimum (§4.2) and runs the six-stage search of §4.4 for each value.
//!
//! The repository README maps the crates and their verify commands; see
//! [`VcScheduler`] for a usage example.

#![warn(missing_docs)]

pub mod combination;
pub mod decision;
pub mod dp;
pub mod init;
pub mod policy;
pub mod scheduler;
pub mod search;
pub mod stages;
pub mod state;
pub mod trail;

pub use combination::{CombDomain, CombRange};
pub use decision::Decision;
pub use dp::{Budget, Contradiction, DpAbort};
pub use init::StateArena;
pub use policy::VcPolicy;
pub use scheduler::{VcAttempt, VcError, VcOptions, VcOutcome, VcScheduler, VcStats};
pub use search::{SearchFail, SearchResult};
pub use state::{
    Comm, CommKind, EdgeIndex, EdgeState, NodeId, NodeKind, SchedulingState, StateCtx, Tuning,
};
pub use trail::{Trail, TrailMark};
