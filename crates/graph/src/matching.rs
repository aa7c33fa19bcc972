//! Maximum-weight matching on general undirected graphs.
//!
//! The paper's outedge-elimination stage (§4.4.1.2) selects virtual-cluster
//! pairs with a *maximum weight matching* (via LEDA). We replace that with:
//!
//! * an **exact** solver (dynamic programming over vertex subsets,
//!   memoised top-down over the subsets reachable from the full set) for
//!   graphs with at most [`EXACT_NODE_LIMIT`] *matchable* nodes — the
//!   matching graph shrinks every stage-3 round as clusters fuse, so the vast
//!   majority of calls are exact, and
//! * a **greedy + local-improvement** heuristic beyond that, guaranteed to be
//!   a valid matching and at least the greedy 1/2-approximation.
//!
//! Property tests compare the two against brute force on random graphs.

use crate::Csr;

/// Maximum number of nodes *incident to an edge* for which the exact subset
/// DP is used. Its memo holds only the subsets reachable from the full set,
/// at most `2^20` at this limit and far fewer on sparse graphs.
pub const EXACT_NODE_LIMIT: usize = 20;

/// A matching: chosen edges and their total weight.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matching {
    /// Selected edges as `(a, b, weight)` triples, `a < b`, sorted.
    pub edges: Vec<(usize, usize, u64)>,
    /// Sum of selected edge weights.
    pub total_weight: u64,
    /// Whether the result is provably optimal (exact path taken).
    pub exact: bool,
}

/// Computes a maximum-weight matching of the edge list `edges` over nodes
/// `0..n`.
///
/// Edges are `(a, b, weight)` with `a != b`; duplicates keep the heaviest.
/// Zero-weight edges are never selected (selecting them cannot increase the
/// weight and would constrain the matching).
///
/// # Example
///
/// ```
/// use vcsched_graph::matching::max_weight_matching;
///
/// // Path 0-1-2-3 with the middle edge heavy but the ends heavier combined.
/// let m = max_weight_matching(4, &[(0, 1, 4), (1, 2, 5), (2, 3, 4)]);
/// assert_eq!(m.total_weight, 8);
/// assert!(m.exact);
/// ```
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n` or a self-loop is supplied.
pub fn max_weight_matching(n: usize, edges: &[(usize, usize, u64)]) -> Matching {
    let edges = dedup_edges(n, edges);
    // Only nodes incident to a positive-weight edge matter for the DP size.
    let mut touched: Vec<usize> = edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
    touched.sort_unstable();
    touched.dedup();
    if touched.len() <= EXACT_NODE_LIMIT {
        exact_matching(&touched, &edges)
    } else {
        greedy_matching(&edges)
    }
}

/// Greedy 1/2-approximate matching with a single improvement sweep; exposed
/// for the `ablation_matching` experiment.
pub fn greedy_max_weight_matching(n: usize, edges: &[(usize, usize, u64)]) -> Matching {
    greedy_matching(&dedup_edges(n, edges))
}

fn dedup_edges(n: usize, edges: &[(usize, usize, u64)]) -> Vec<(usize, usize, u64)> {
    use std::collections::BTreeMap;
    let mut best: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for &(a, b, w) in edges {
        assert!(a != b, "matching edges must not be self-loops");
        assert!(a < n && b < n, "edge endpoint out of range");
        if w == 0 {
            continue;
        }
        let key = (a.min(b), a.max(b));
        let e = best.entry(key).or_insert(0);
        *e = (*e).max(w);
    }
    best.into_iter().map(|((a, b), w)| (a, b, w)).collect()
}

/// The exact path: the subset recurrence over the compressed nodes,
/// evaluated top-down from the full set.
///
/// `best(mask)` is the heaviest matching inside `mask`: either its lowest
/// node stays unmatched (`best(mask − low)`), or it is matched to a
/// neighbour `hi` still in the mask (`w + best(mask − low − hi)`),
/// neighbours tried in edge order and a candidate kept only when strictly
/// heavier. Memoising only the masks reachable from the full set gives the
/// same values, the same choices and so the same [`Matching`] as filling a
/// table over all `2^k` subsets, at a cost proportional to the reachable
/// masks — few on the sparse matching graphs of stage 3.
fn exact_matching(touched: &[usize], edges: &[(usize, usize, u64)]) -> Matching {
    let k = touched.len();
    let index_of = |v: usize| touched.binary_search(&v).expect("endpoint is touched");
    // Edges bucketed by their lower compressed endpoint, as `(other, edge)`
    // in edge order.
    let ends: Vec<(usize, usize, usize)> = edges
        .iter()
        .enumerate()
        .map(|(ei, &(a, b, _))| {
            let (ia, ib) = (index_of(a), index_of(b));
            (ia.min(ib), ia.max(ib), ei)
        })
        .collect();
    let by_low = Csr::grouped(k, &ends, |&(lo, _, _)| lo, |&(_, hi, ei)| (hi, ei));
    let mut dp = SubsetMemo {
        edges,
        by_low: &by_low,
        memo: std::collections::HashMap::new(),
    };
    let full = (1usize << k) - 1;
    let total_weight = dp.best(full);
    // Reconstruct along the memoised choices.
    let mut sel = Vec::new();
    let mut mask = full;
    while mask != 0 {
        match dp.memo[&mask].1 {
            Some(ei) => {
                let (a, b, w) = edges[ei];
                sel.push((a.min(b), a.max(b), w));
                mask &= !(1 << index_of(a)) & !(1 << index_of(b));
            }
            None => mask &= mask - 1,
        }
    }
    sel.sort_unstable();
    Matching {
        total_weight,
        edges: sel,
        exact: true,
    }
}

/// The memo of [`exact_matching`]: per reached mask, the best weight and
/// the edge matching its lowest node (`None`: left unmatched).
struct SubsetMemo<'a> {
    edges: &'a [(usize, usize, u64)],
    by_low: &'a Csr<(usize, usize)>,
    memo: std::collections::HashMap<usize, (u64, Option<usize>)>,
}

impl SubsetMemo<'_> {
    fn best(&mut self, mask: usize) -> u64 {
        if mask == 0 {
            return 0;
        }
        if let Some(&(w, _)) = self.memo.get(&mask) {
            return w;
        }
        let low = mask.trailing_zeros() as usize;
        // Option 1: leave `low` unmatched.
        let mut best = self.best(mask & (mask - 1));
        let mut choice = None;
        // Option 2: match `low` with a neighbour present in the mask.
        for &(hi, ei) in self.by_low.row(low) {
            if mask & (1 << hi) != 0 {
                let cand = self.best(mask & !(1 << low) & !(1 << hi)) + self.edges[ei].2;
                if cand > best {
                    best = cand;
                    choice = Some(ei);
                }
            }
        }
        self.memo.insert(mask, (best, choice));
        best
    }
}

fn greedy_matching(edges: &[(usize, usize, u64)]) -> Matching {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    // Heaviest first; ties broken by endpoint order for determinism.
    order.sort_by_key(|&i| (std::cmp::Reverse(edges[i].2), edges[i].0, edges[i].1));
    let n = edges
        .iter()
        .map(|&(a, b, _)| a.max(b) + 1)
        .max()
        .unwrap_or(0);
    let mut used = vec![false; n];
    let mut sel: Vec<usize> = Vec::new();
    for &i in &order {
        let (a, b, _) = edges[i];
        if !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            sel.push(i);
        }
    }
    // One local-improvement sweep: try to replace a selected edge by two
    // disjoint edges adjacent to its endpoints (classic 2-for-1 swap).
    let mut improved = true;
    while improved {
        improved = false;
        'outer: for si in 0..sel.len() {
            let (a, b, w) = edges[sel[si]];
            for (ei, &(x, y, wx)) in edges.iter().enumerate() {
                if sel.contains(&ei) {
                    continue;
                }
                // Candidate first replacement edge must touch exactly one of {a,b}
                // and have its other endpoint free.
                let touches_a = x == a || y == a;
                let touches_b = x == b || y == b;
                if touches_a == touches_b {
                    continue;
                }
                let other1 = if x == a || x == b { y } else { x };
                if used[other1] {
                    continue;
                }
                for (ej, &(p, q, wq)) in edges.iter().enumerate() {
                    if ej == ei || sel.contains(&ej) {
                        continue;
                    }
                    let need = if touches_a { b } else { a };
                    let touches_need = p == need || q == need;
                    if !touches_need {
                        continue;
                    }
                    let other2 = if p == need { q } else { p };
                    if used[other2] || other2 == other1 {
                        continue;
                    }
                    if wx + wq > w {
                        used[a] = false;
                        used[b] = false;
                        sel.remove(si);
                        for &e in &[ei, ej] {
                            let (u, v, _) = edges[e];
                            used[u] = true;
                            used[v] = true;
                            sel.push(e);
                        }
                        improved = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    let mut out: Vec<(usize, usize, u64)> = sel
        .into_iter()
        .map(|i| {
            let (a, b, w) = edges[i];
            (a.min(b), a.max(b), w)
        })
        .collect();
    out.sort_unstable();
    Matching {
        total_weight: out.iter().map(|e| e.2).sum(),
        edges: out,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(2^m) brute force over edge subsets, for cross-checking.
    fn brute_force(n: usize, edges: &[(usize, usize, u64)]) -> u64 {
        let m = edges.len();
        let mut best = 0;
        for mask in 0u32..(1 << m) {
            let mut used = vec![false; n];
            let mut w = 0;
            let mut ok = true;
            for (i, &(a, b, wt)) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    if used[a] || used[b] {
                        ok = false;
                        break;
                    }
                    used[a] = true;
                    used[b] = true;
                    w += wt;
                }
            }
            if ok {
                best = best.max(w);
            }
        }
        best
    }

    /// The bottom-up form of the exact recurrence: `dp` and `choice`
    /// tables over all `2^k` subsets. The reference the memoised solver
    /// must reproduce exactly.
    fn bottom_up_matching(touched: &[usize], edges: &[(usize, usize, u64)]) -> Matching {
        let k = touched.len();
        let index_of = |v: usize| touched.binary_search(&v).unwrap();
        let mut dp = vec![0u64; 1 << k];
        let mut choice: Vec<Option<usize>> = vec![None; 1 << k];
        let mut by_low: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
        for (ei, &(a, b, _)) in edges.iter().enumerate() {
            let (ia, ib) = (index_of(a), index_of(b));
            by_low[ia.min(ib)].push((ia.max(ib), ei));
        }
        for mask in 1usize..(1 << k) {
            let low = mask.trailing_zeros() as usize;
            dp[mask] = dp[mask & (mask - 1)];
            for &(hi, ei) in &by_low[low] {
                if mask & (1 << hi) != 0 {
                    let cand = dp[mask & !(1 << low) & !(1 << hi)] + edges[ei].2;
                    if cand > dp[mask] {
                        dp[mask] = cand;
                        choice[mask] = Some(ei);
                    }
                }
            }
        }
        let mut sel = Vec::new();
        let mut mask = (1usize << k) - 1;
        while mask != 0 {
            match choice[mask] {
                Some(ei) => {
                    let (a, b, w) = edges[ei];
                    sel.push((a.min(b), a.max(b), w));
                    mask &= !(1 << index_of(a)) & !(1 << index_of(b));
                }
                None => mask &= mask - 1,
            }
        }
        sel.sort_unstable();
        Matching {
            total_weight: dp[(1 << k) - 1],
            edges: sel,
            exact: true,
        }
    }

    #[test]
    fn empty_graph() {
        let m = max_weight_matching(5, &[]);
        assert_eq!(m.total_weight, 0);
        assert!(m.edges.is_empty());
    }

    #[test]
    fn triangle_takes_heaviest() {
        let m = max_weight_matching(3, &[(0, 1, 3), (1, 2, 4), (0, 2, 2)]);
        assert_eq!(m.total_weight, 4);
        assert_eq!(m.edges, vec![(1, 2, 4)]);
    }

    #[test]
    fn path_prefers_ends() {
        let m = max_weight_matching(4, &[(0, 1, 4), (1, 2, 5), (2, 3, 4)]);
        assert_eq!(m.total_weight, 8);
        assert_eq!(m.edges.len(), 2);
    }

    #[test]
    fn duplicate_edges_keep_heaviest() {
        let m = max_weight_matching(2, &[(0, 1, 1), (1, 0, 9)]);
        assert_eq!(m.total_weight, 9);
    }

    #[test]
    fn zero_weight_edges_ignored() {
        let m = max_weight_matching(4, &[(0, 1, 0), (2, 3, 2)]);
        assert_eq!(m.edges, vec![(2, 3, 2)]);
    }

    #[test]
    fn greedy_is_valid_matching() {
        let edges = &[(0, 1, 4), (1, 2, 5), (2, 3, 4), (3, 4, 5), (4, 0, 1)];
        let m = greedy_max_weight_matching(5, edges);
        let mut used = std::collections::HashSet::new();
        for &(a, b, _) in &m.edges {
            assert!(used.insert(a));
            assert!(used.insert(b));
        }
    }

    #[test]
    fn exact_matches_brute_force_on_fixed_graphs() {
        let cases: Vec<(usize, Vec<(usize, usize, u64)>)> = vec![
            (
                6,
                vec![
                    (0, 1, 7),
                    (0, 2, 3),
                    (1, 2, 5),
                    (3, 4, 6),
                    (4, 5, 6),
                    (3, 5, 9),
                ],
            ),
            (
                5,
                vec![(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 0, 2)],
            ),
            (
                8,
                vec![
                    (0, 4, 1),
                    (1, 5, 2),
                    (2, 6, 3),
                    (3, 7, 4),
                    (0, 1, 10),
                    (2, 3, 10),
                ],
            ),
        ];
        for (n, edges) in cases {
            let m = max_weight_matching(n, &edges);
            assert!(m.exact);
            assert_eq!(m.total_weight, brute_force(n, &edges));
        }
    }

    proptest::proptest! {
        #[test]
        fn exact_beats_or_ties_brute_force(
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u64..50), 0..12)
        ) {
            let edges: Vec<_> = edges.into_iter().filter(|(a, b, _)| a != b).collect();
            let m = max_weight_matching(10, &edges);
            proptest::prop_assert_eq!(m.total_weight, brute_force(10, &edges));
            // Validity: endpoints disjoint.
            let mut used = std::collections::HashSet::new();
            for &(a, b, _) in &m.edges {
                proptest::prop_assert!(used.insert(a));
                proptest::prop_assert!(used.insert(b));
            }
        }

        #[test]
        fn memoised_matching_equals_the_bottom_up_table(
            edges in proptest::collection::vec(
                (0usize..EXACT_NODE_LIMIT, 0usize..EXACT_NODE_LIMIT, 1u64..6),
                0..36,
            )
        ) {
            // Small weights force ties, so the strict tie-breaks are
            // exercised, not only the optimum.
            let edges: Vec<_> = edges.into_iter().filter(|(a, b, _)| a != b).collect();
            let edges = dedup_edges(EXACT_NODE_LIMIT, &edges);
            let mut touched: Vec<usize> = edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
            touched.sort_unstable();
            touched.dedup();
            proptest::prop_assert_eq!(
                exact_matching(&touched, &edges),
                bottom_up_matching(&touched, &edges)
            );
        }

        #[test]
        fn greedy_at_least_half_of_optimal(
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1u64..40), 0..10)
        ) {
            let edges: Vec<_> = edges.into_iter().filter(|(a, b, _)| a != b).collect();
            let g = greedy_max_weight_matching(9, &edges);
            let opt = brute_force(9, &edges);
            proptest::prop_assert!(g.total_weight * 2 >= opt);
            proptest::prop_assert!(g.total_weight <= opt);
        }
    }
}
