//! The ready set shared by the single-pass list schedulers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::depgraph::DepGraph;
use crate::inst::InstId;
use crate::superblock::Superblock;

/// Unscheduled instructions whose predecessors are all scheduled, served
/// in a fixed rank order: weighted critical-path priority
/// ([`DepGraph::weighted_priorities`]) descending, then id ascending, which
/// keeps exits in program order.
///
/// Readiness is tracked incrementally: each instruction counts its
/// unscheduled predecessors (one per dependence), and
/// [`ReadyList::scheduled`] releases the consumers whose count reaches
/// zero. Live-ins are scheduled from the start and never served.
///
/// # Example
///
/// ```
/// use vcsched_arch::OpClass;
/// use vcsched_ir::{DepGraph, ReadyList, SuperblockBuilder};
///
/// let mut b = SuperblockBuilder::new("chain");
/// let i0 = b.inst(OpClass::Int, 1);
/// let x = b.exit(1, 1.0);
/// b.data_dep(i0, x);
/// let sb = b.build()?;
/// let dg = DepGraph::new(&sb);
/// let mut ready = ReadyList::new(&sb, &dg);
/// assert_eq!(ready.pop(), Some(i0));
/// assert_eq!(ready.pop(), None); // x waits for i0
/// ready.scheduled(&dg, i0);
/// assert_eq!(ready.pop(), Some(x));
/// # Ok::<(), vcsched_ir::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReadyList {
    /// `by_rank[r]`: the instruction of rank `r`.
    by_rank: Vec<u32>,
    /// `rank[u]`: the position of `u` in service order.
    rank: Vec<u32>,
    /// Unscheduled predecessors per instruction, one per dependence.
    waiting: Vec<u32>,
    /// Ranks of the ready instructions; the lowest is served first.
    heap: BinaryHeap<Reverse<u32>>,
}

impl ReadyList {
    /// The initial ready set of `sb`, whose dependence graph is `dg`.
    ///
    /// # Panics
    ///
    /// Panics if a priority is NaN (never for a valid block).
    pub fn new(sb: &Superblock, dg: &DepGraph) -> ReadyList {
        let n = sb.len();
        let priorities = dg.weighted_priorities(sb);
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        // Ids break ties, so the order is total and an unstable sort
        // yields it exactly.
        by_rank.sort_unstable_by(|&a, &b| {
            priorities[b as usize]
                .partial_cmp(&priorities[a as usize])
                .expect("finite priorities")
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; n];
        for (r, &u) in by_rank.iter().enumerate() {
            rank[u as usize] = r as u32;
        }
        let waiting: Vec<u32> = sb.ids().map(|v| dg.preds(v).len() as u32).collect();
        let mut ready = ReadyList {
            by_rank,
            rank,
            waiting,
            heap: BinaryHeap::with_capacity(n),
        };
        for (u, inst) in sb.insts().iter().enumerate() {
            if !inst.is_live_in() && ready.waiting[u] == 0 {
                ready.push(InstId(u as u32));
            }
        }
        for li in sb.live_ins() {
            ready.scheduled(dg, li);
        }
        ready
    }

    /// Removes and returns the highest-ranked ready instruction.
    pub fn pop(&mut self) -> Option<InstId> {
        self.heap
            .pop()
            .map(|Reverse(r)| InstId(self.by_rank[r as usize]))
    }

    /// Returns a popped instruction that stays unscheduled to the set.
    pub fn push(&mut self, u: InstId) {
        self.heap.push(Reverse(self.rank[u.index()]));
    }

    /// Records that `u` is scheduled: every consumer whose last
    /// unscheduled predecessor was `u` becomes ready.
    pub fn scheduled(&mut self, dg: &DepGraph, u: InstId) {
        for d in dg.succs(u) {
            let w = &mut self.waiting[d.to.index()];
            *w -= 1;
            if *w == 0 {
                self.push(d.to);
            }
        }
    }
}
