//! Graph algorithms substrate for the `vcsched` workspace.
//!
//! The CGO 2007 paper implements its scheduler on top of the LEDA library
//! ("LEDA, a library of efficient data types and algorithms"). This crate is
//! the from-scratch replacement for the slice of LEDA the paper actually
//! uses:
//!
//! * a growable dense **bit set** ([`GrowSet`]) used for per-cluster
//!   incompatibility adjacency,
//! * **union-find** ([`UnionFind`]) and an **offset union-find**
//!   ([`OffsetUnionFind`]) used for virtual-cluster fusion and for connected
//!   components of chosen combinations (members keep fixed cycle offsets),
//! * **compressed-sparse-row tables** ([`Csr`]) holding the dependence
//!   graph's per-instruction rows and the scheduler's static adjacency,
//! * **maximum-weight matching** ([`matching::max_weight_matching`]) used to
//!   pick virtual-cluster pairs in the outedge-elimination stage,
//! * **graph colouring** ([`coloring::DenseColoring`]) used for the clique
//!   (colourability) check of the virtual cluster graph.
//!
//! # Example
//!
//! ```
//! use vcsched_graph::{coloring::DenseColoring, matching::max_weight_matching};
//!
//! let m = max_weight_matching(4, &[(0, 1, 5), (1, 2, 9), (2, 3, 5)]);
//! assert_eq!(m.total_weight, 10); // {0-1, 2-3} beats {1-2}
//!
//! // A triangle needs three colours.
//! let mut g = DenseColoring::default();
//! g.reset(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! g.add_edge(2, 0);
//! assert!(!g.is_k_colorable(2, 16));
//! assert!(g.is_k_colorable(3, 16));
//! ```

#![warn(missing_docs)]

mod bitset;
pub mod coloring;
mod csr;
pub mod matching;
mod union_find;

pub use bitset::GrowSet;
pub use csr::Csr;
pub use union_find::{OffsetUnion, OffsetUnionFind, UnionFind};
