//! Dependence-graph queries: bounds, reachability, per-exit path lengths.

use vcsched_graph::Csr;

use crate::awct::ExitTargets;
use crate::inst::{Dep, InstId};
use crate::superblock::Superblock;

/// Precomputed dependence-graph facts for one superblock.
///
/// * `estart(u)` — earliest start: longest dependence path from the entry
///   (cycle 0) to `u`; purely dependence-based, resource refinement is the
///   scheduler's job.
/// * `dist_to_exit(u, x)` — longest dependence path from `u` to exit `x`
///   (the paper's `LBx − δ` encoding of latest starts, §3.1, which lets the
///   scheduling graph be computed once and reused for every AWCT value).
/// * `lstart(u, targets)` — latest start induced by concrete per-exit
///   target cycles.
/// * `reaches(u, v)` — whether a dependence path forces `u` before `v`
///   (kills every combination between the pair, §3.1).
/// * `preds(v)` / `succs(u)` — the dependences into `v` / out of `u`, in
///   dependence order.
///
/// Every dependence of a [`Superblock`] flows from a lower id to a higher
/// one, so id order is a topological order: construction is one forward
/// pass (`estart`) and one backward pass (reachability and exit distances)
/// over ids.
///
/// # Example
///
/// ```
/// use vcsched_arch::OpClass;
/// use vcsched_ir::{DepGraph, SuperblockBuilder};
///
/// let mut b = SuperblockBuilder::new("chain");
/// let i0 = b.inst(OpClass::Int, 2);
/// let x = b.exit(3, 1.0);
/// b.data_dep(i0, x);
/// let sb = b.build()?;
/// let dg = DepGraph::new(&sb);
/// assert_eq!(dg.estart(i0), 0);
/// assert_eq!(dg.estart(x), 2);
/// assert!(dg.reaches(i0, x));
/// # Ok::<(), vcsched_ir::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DepGraph {
    preds: Csr<Dep>,
    succs: Csr<Dep>,
    estart: Vec<i64>,
    /// Transitive closure, one bit row of `words` words per instruction.
    reach: Vec<u64>,
    words: usize,
    exits: Vec<InstId>,
    /// `dist_to_exit[u * exits.len() + k]` = longest path u → exit k
    /// (`None`: no path).
    dist_to_exit: Vec<Option<i64>>,
}

impl DepGraph {
    /// Builds the dependence facts for `sb`.
    pub fn new(sb: &Superblock) -> Self {
        let n = sb.len();
        let preds = Csr::grouped(n, sb.deps(), |d| d.to.index(), |d| *d);
        let succs = Csr::grouped(n, sb.deps(), |d| d.from.index(), |d| *d);
        let mut estart = vec![0i64; n];
        for v in 0..n {
            for d in preds.row(v) {
                estart[v] = estart[v].max(estart[d.from.index()] + d.latency as i64);
            }
        }
        let exits: Vec<InstId> = sb.exits().map(|(id, _)| id).collect();
        let x = exits.len();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut dist_to_exit: Vec<Option<i64>> = vec![None; n * x];
        for u in (0..n).rev() {
            // Successors have higher ids: their rows are final.
            let (head, done) = reach.split_at_mut((u + 1) * words);
            let row = &mut head[u * words..];
            for d in succs.row(u) {
                let s = d.to.index();
                row[s / 64] |= 1 << (s % 64);
                let succ_row = &done[(s - u - 1) * words..(s - u) * words];
                for (w, &bits) in row.iter_mut().zip(succ_row) {
                    *w |= bits;
                }
            }
            for k in 0..x {
                let best = if exits[k].index() == u {
                    Some(0)
                } else {
                    succs
                        .row(u)
                        .iter()
                        .filter_map(|d| {
                            dist_to_exit[d.to.index() * x + k].map(|t| t + d.latency as i64)
                        })
                        .max()
                };
                dist_to_exit[u * x + k] = best;
            }
        }
        DepGraph {
            preds,
            succs,
            estart,
            reach,
            words,
            exits,
            dist_to_exit,
        }
    }

    /// The dependences into `v`, in dependence order.
    pub fn preds(&self, v: InstId) -> &[Dep] {
        self.preds.row(v.index())
    }

    /// The dependences out of `u`, in dependence order.
    pub fn succs(&self, u: InstId) -> &[Dep] {
        self.succs.row(u.index())
    }

    /// Earliest start of `u` from dependences alone.
    pub fn estart(&self, u: InstId) -> i64 {
        self.estart[u.index()]
    }

    /// Returns `true` if a dependence path forces `u` strictly before `v`.
    pub fn reaches(&self, u: InstId, v: InstId) -> bool {
        let v = v.index();
        self.reach[u.index() * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Returns `true` if some dependence path connects the pair in either
    /// direction (no scheduling-graph edge may exist between them).
    pub fn ordered(&self, u: InstId, v: InstId) -> bool {
        self.reaches(u, v) || self.reaches(v, u)
    }

    /// Exit branches in program order.
    pub fn exits(&self) -> &[InstId] {
        &self.exits
    }

    /// Longest dependence path from `u` to exit number `k` (program order),
    /// `None` when exit `k` does not require `u`.
    pub fn dist_to_exit(&self, u: InstId, k: usize) -> Option<i64> {
        assert!(k < self.exits.len(), "exit {k} out of range");
        self.dist_to_exit[u.index() * self.exits.len() + k]
    }

    /// Latest start of `u` induced by the per-exit target cycles: the
    /// minimum over exits `x` requiring `u` of `target(x) − dist(u, x)`.
    ///
    /// Exits themselves are constrained by their own target. Instructions
    /// reaching no exit (only live-ins can be such) get `i64::MAX`.
    pub fn lstart(&self, u: InstId, targets: &ExitTargets) -> i64 {
        let mut best = i64::MAX;
        for k in 0..self.exits.len() {
            if let Some(d) = self.dist_to_exit(u, k) {
                best = best.min(targets.cycle(k) - d);
            }
        }
        best
    }

    /// Latest starts for all instructions under `targets`.
    pub fn lstarts(&self, targets: &ExitTargets) -> Vec<i64> {
        (0..self.estart.len())
            .map(|i| self.lstart(InstId(i as u32), targets))
            .collect()
    }

    /// Dependence-only lower bounds on exit cycles, in exit order — the
    /// starting point of the paper's minAWCT computation (§2.2).
    pub fn min_exit_cycles(&self) -> Vec<i64> {
        self.exits.iter().map(|x| self.estart(*x)).collect()
    }

    /// Weighted critical-path priorities of the list schedulers:
    /// `Σ_k P_k · (dist(u, exit_k) + λ_k)` over the exits `u` reaches —
    /// longer, more probable paths schedule first. `sb` must be the block
    /// this graph was built from.
    pub fn weighted_priorities(&self, sb: &Superblock) -> Vec<f64> {
        let exits: Vec<(InstId, f64)> = sb.exits().collect();
        (0..sb.len())
            .map(|u| {
                exits
                    .iter()
                    .enumerate()
                    .map(|(k, &(x, p))| {
                        let lam = sb.inst(x).latency() as f64;
                        match self.dist_to_exit(InstId(u as u32), k) {
                            Some(d) => p * (d as f64 + lam),
                            None => 0.0,
                        }
                    })
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awct::ExitTargets;
    use crate::superblock::SuperblockBuilder;
    use vcsched_arch::OpClass;

    /// The paper's Fig. 1 block: see crate docs.
    fn fig1() -> Superblock {
        let mut b = SuperblockBuilder::new("fig1");
        let i0 = b.inst(OpClass::Int, 2);
        let i1 = b.inst(OpClass::Int, 2);
        let i2 = b.inst(OpClass::Int, 2);
        let i3 = b.inst(OpClass::Int, 2);
        let b0 = b.exit(3, 0.3);
        let i4 = b.inst(OpClass::Int, 2);
        let b1 = b.exit(3, 0.7);
        b.data_dep(i0, i1)
            .data_dep(i0, i2)
            .data_dep(i0, i3)
            .data_dep(i3, b0)
            .data_dep(i1, i4)
            .data_dep(i2, i4)
            .data_dep(i4, b1)
            .ctrl_dep(b0, b1);
        b.build().unwrap()
    }

    #[test]
    fn fig1_estarts_match_paper() {
        let sb = fig1();
        let dg = DepGraph::new(&sb);
        // Paper §2.2: B0 earliest at cycle 4, B1 earliest at cycle 6.
        assert_eq!(dg.estart(InstId(0)), 0); // I0
        assert_eq!(dg.estart(InstId(1)), 2); // I1
        assert_eq!(dg.estart(InstId(3)), 2); // I3
        assert_eq!(dg.estart(InstId(4)), 4); // B0
        assert_eq!(dg.estart(InstId(5)), 4); // I4
        assert_eq!(dg.estart(InstId(6)), 6); // B1
        assert_eq!(dg.min_exit_cycles(), vec![4, 6]);
    }

    #[test]
    fn fig1_reachability() {
        let sb = fig1();
        let dg = DepGraph::new(&sb);
        let (i0, i1, i4, b0, b1) = (InstId(0), InstId(1), InstId(5), InstId(4), InstId(6));
        assert!(dg.reaches(i0, b1));
        assert!(dg.reaches(i1, i4));
        assert!(!dg.reaches(i4, i1));
        assert!(dg.ordered(i1, i4));
        // I4 and B0 are unordered: the pair the paper studies in stage 1.
        assert!(!dg.ordered(i4, b0));
        assert!(dg.ordered(b0, b1));
    }

    #[test]
    fn fig1_lstarts_for_targets() {
        let sb = fig1();
        let dg = DepGraph::new(&sb);
        // AWCT 9.4 state of the worked example: B0 target 5, B1 target 7.
        let targets = ExitTargets::new(&sb, vec![5, 7]);
        // I0 must start by min(5-4, 7-6) = 1 (paper Fig. 9: lstart(I0)=1).
        assert_eq!(dg.lstart(InstId(0), &targets), 1);
        // I3 feeds only B0: lstart = 5 − 2 = 3 (paper: lstart(I3)=3).
        assert_eq!(dg.lstart(InstId(3), &targets), 3);
        // I4 feeds only B1: lstart = 7 − 2 = 5.
        assert_eq!(dg.lstart(InstId(5), &targets), 5);
        // Exits pinned at their targets.
        assert_eq!(dg.lstart(InstId(4), &targets), 5);
        assert_eq!(dg.lstart(InstId(6), &targets), 7);
    }

    #[test]
    fn live_in_has_estart_zero_and_unbounded_lstart() {
        let mut b = SuperblockBuilder::new("li");
        let li = b.live_in();
        let i = b.inst(OpClass::Int, 1);
        let x = b.exit(1, 1.0);
        b.data_dep(li, i).data_dep(i, x);
        let sb = b.build().unwrap();
        let dg = DepGraph::new(&sb);
        assert_eq!(dg.estart(li), 0);
        let targets = ExitTargets::new(&sb, vec![1]);
        // li → i (lat 0) → x (lat 1): lstart(li) = 1 − 1 = 0.
        assert_eq!(dg.lstart(li, &targets), 0);
    }
}
