//! Superblock intermediate representation.
//!
//! A *superblock* (§2.2 of the paper) is a straight-line region with a
//! single entry and one or more exit branches, each annotated with the
//! probability that the exit is taken. Scheduling a superblock means
//! assigning every instruction a cycle (and, on a clustered machine, a
//! cluster) so that the **average weighted completion time**
//!
//! ```text
//! AWCT = Σ (cycle(u) + latency(u)) · P(u)    over exits u
//! ```
//!
//! is minimised subject to dependence and resource constraints.
//!
//! This crate provides:
//!
//! * [`Instruction`] / [`Superblock`] / [`SuperblockBuilder`] — the IR with
//!   validation (exit probabilities, dependence sanity, branch ordering),
//! * [`DepGraph`] — dependence-graph queries: `estart`/`lstart` bounds,
//!   per-exit path lengths (the paper's `LBx` encoding), reachability,
//!   per-instruction dependence rows and the list schedulers' weighted
//!   critical-path priorities,
//! * [`ReadyList`] — the incremental ready set of those list schedulers,
//! * [`awct`] — the AWCT metric and exit-target bookkeeping,
//! * live-in pseudo-instructions, which model values that are live on entry
//!   and pre-placed in a register file (the paper randomises these
//!   placements but gives both schedulers the same assignment, §6.1).
//!
//! # Example
//!
//! ```
//! use vcsched_arch::OpClass;
//! use vcsched_ir::SuperblockBuilder;
//!
//! // The running example of the paper (Fig. 1): 2-cycle ops I0..I4 and
//! // 3-cycle branches B0 (P=0.3) and B1 (P=0.7).
//! let mut b = SuperblockBuilder::new("fig1");
//! let i0 = b.inst(OpClass::Int, 2);
//! let i1 = b.inst(OpClass::Int, 2);
//! let i2 = b.inst(OpClass::Int, 2);
//! let i3 = b.inst(OpClass::Int, 2);
//! let b0 = b.exit(3, 0.3);
//! let i4 = b.inst(OpClass::Int, 2);
//! let b1 = b.exit(3, 0.7);
//! b.data_dep(i0, i1).data_dep(i0, i2).data_dep(i0, i3);
//! b.data_dep(i3, b0).data_dep(i1, i4).data_dep(i2, i4).data_dep(i4, b1);
//! b.ctrl_dep(b0, b1);
//! let sb = b.build()?;
//! assert_eq!(sb.exits().count(), 2);
//! # Ok::<(), vcsched_ir::BuildError>(())
//! ```

#![warn(missing_docs)]

pub mod awct;
mod depgraph;
mod inst;
mod ready;
mod schedule;
mod superblock;

pub use awct::{awct_of_cycles, ExitTargets};
pub use depgraph::DepGraph;
pub use inst::{Dep, DepKind, InstId, Instruction};
pub use ready::ReadyList;
pub use schedule::{CopyOp, Schedule};
pub use superblock::{BuildError, Superblock, SuperblockBuilder};
