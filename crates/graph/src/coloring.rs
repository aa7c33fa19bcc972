//! Graph colouring and clique estimation.
//!
//! The paper uses a Chaitin-style colouring scheme twice:
//!
//! * §3.2 — after each candidate decision, a colouring-based check rejects
//!   decisions that would create a virtual-cluster-graph clique larger than
//!   the number of physical clusters ([`is_k_colorable`] /
//!   [`greedy_coloring`]);
//! * §4.4.1.3 — the final virtual→physical mapping assigns clusters in
//!   decreasing-degree order ([`degree_order`]).

use crate::Ungraph;

/// Nodes sorted by decreasing degree (ties by index for determinism).
///
/// This is the ordering the paper's final mapping stage walks (§4.4.1.3).
pub fn degree_order(g: &Ungraph) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.node_count()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order
}

/// Greedy colouring following `order`; returns one colour index per node.
///
/// The number of colours used is `max + 1`. With [`degree_order`] this is
/// the classic Welsh–Powell bound.
pub fn greedy_coloring(g: &Ungraph, order: &[usize]) -> Vec<usize> {
    let n = g.node_count();
    let mut color = vec![usize::MAX; n];
    // One scratch row reused across nodes; cleared per node by walking the
    // same neighbours that set it, so the cost is O(degree), not O(n).
    let mut taken: Vec<bool> = vec![false; n.max(1)];
    for &v in order {
        for u in g.neighbors(v) {
            if color[u] != usize::MAX {
                taken[color[u]] = true;
            }
        }
        color[v] = (0..).find(|&c| !taken[c]).expect("always a free colour");
        for u in g.neighbors(v) {
            if color[u] != usize::MAX {
                taken[color[u]] = false;
            }
        }
    }
    color
}

/// Number of colours used by a colouring (0 for an empty graph).
pub fn color_count(coloring: &[usize]) -> usize {
    coloring.iter().copied().max().map_or(0, |m| m + 1)
}

/// Exact `k`-colourability test by backtracking, intended for the small
/// virtual-cluster graphs this workspace produces.
///
/// Falls back to the greedy upper bound when the graph is larger than
/// `exact_limit` nodes: returns `true` iff greedy needs ≤ `k` colours, which
/// is sound for "accept" but may spuriously reject — the same conservative
/// behaviour the paper's heuristic clique check exhibits.
pub fn is_k_colorable(g: &Ungraph, k: usize, exact_limit: usize) -> bool {
    let mut dense = DenseColoring::default();
    dense.reset(g.node_count());
    for (a, b) in g.edges() {
        dense.add_edge(a, b);
    }
    dense.is_k_colorable(k, exact_limit)
}

/// A graph held as a dense adjacency bit matrix, with the buffers of the
/// [`is_k_colorable`] check. [`DenseColoring::reset`] keeps every
/// allocation, so a caller that re-checks small graphs over and over (the
/// §3.2 test after each studied decision) allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct DenseColoring {
    nodes: usize,
    /// Words per adjacency row.
    words: usize,
    adj: Vec<u64>,
    /// Degree per node, counted once per check for the ordering sort.
    degree: Vec<usize>,
    order: Vec<usize>,
    color: Vec<usize>,
    taken: Vec<bool>,
}

impl DenseColoring {
    /// Clears the graph to `n` isolated nodes.
    pub fn reset(&mut self, n: usize) {
        self.nodes = n;
        self.words = n.div_ceil(64);
        self.adj.clear();
        self.adj.resize(n * self.words, 0);
    }

    /// Adds the edge `{a, b}` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or an endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a != b, "self-loops are not allowed");
        assert!(a < self.nodes && b < self.nodes);
        self.adj[a * self.words + b / 64] |= 1 << (b % 64);
        self.adj[b * self.words + a / 64] |= 1 << (a % 64);
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.adj[v * self.words..(v + 1) * self.words]
    }

    fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets `taken[color[u]]` to `on` for every coloured neighbour `u` of `v`.
    fn mark(adj: &[u64], color: &[usize], taken: &mut [bool], on: bool) {
        for (wi, &word) in adj.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if color[u] != usize::MAX {
                    taken[color[u]] = on;
                }
            }
        }
    }

    /// [`is_k_colorable`] on this graph: greedy colouring in
    /// [`degree_order`] accepts at once; otherwise graphs of at most
    /// `exact_limit` nodes are decided by backtracking and larger ones
    /// are conservatively rejected.
    pub fn is_k_colorable(&mut self, k: usize, exact_limit: usize) -> bool {
        let n = self.nodes;
        if k == 0 {
            return n == 0;
        }
        // Quick accept via greedy, in decreasing-degree order (ties by
        // index); the keys are unique, so the unstable sort is exact.
        // Degrees are counted once up front, not per comparison.
        let mut degree = std::mem::take(&mut self.degree);
        degree.clear();
        degree.extend((0..n).map(|v| self.degree(v)));
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(degree[v]), v));
        self.degree = degree;
        self.color.clear();
        self.color.resize(n, usize::MAX);
        self.taken.clear();
        self.taken.resize(n.max(1), false);
        let mut colors = 0;
        for &v in &order {
            let row = &self.adj[v * self.words..(v + 1) * self.words];
            Self::mark(row, &self.color, &mut self.taken, true);
            let c = (0..)
                .find(|&c| !self.taken[c])
                .expect("always a free colour");
            Self::mark(row, &self.color, &mut self.taken, false);
            self.color[v] = c;
            colors = colors.max(c + 1);
        }
        let out = if colors <= k {
            true
        } else if n > exact_limit {
            false // conservative
        } else {
            // Backtracking on nodes in decreasing-degree order; one
            // `k`-wide taken row per depth.
            self.color.fill(usize::MAX);
            self.taken.clear();
            self.taken.resize(n * k, false);
            self.backtrack(&order, 0, k)
        };
        self.order = order;
        out
    }

    fn backtrack(&mut self, order: &[usize], i: usize, k: usize) -> bool {
        if i == order.len() {
            return true;
        }
        let v = order[i];
        let taken = &mut self.taken[i * k..(i + 1) * k];
        taken.fill(false);
        let row = &self.adj[v * self.words..(v + 1) * self.words];
        Self::mark(row, &self.color, taken, true);
        // Symmetry breaking: only allow "one more than the max used so far".
        let max_used = self
            .color
            .iter()
            .filter(|&&c| c != usize::MAX)
            .copied()
            .max()
            .map_or(0, |m| m + 1);
        for c in 0..k.min(max_used + 1) {
            if !self.taken[i * k + c] {
                self.color[v] = c;
                if self.backtrack(order, i + 1, k) {
                    return true;
                }
                self.color[v] = usize::MAX;
            }
        }
        false
    }
}

/// Greedy lower bound on the maximum clique size.
///
/// Grows a clique from each of the `seeds` highest-degree nodes by repeatedly
/// adding the highest-degree common neighbour. Used to *detect* (not prove
/// absence of) virtual-cluster-graph cliques exceeding the physical cluster
/// count (§3.2).
pub fn clique_lower_bound(g: &Ungraph, seeds: usize) -> usize {
    let order = degree_order(g);
    let mut best = usize::from(g.node_count() > 0);
    for &s in order.iter().take(seeds.max(1)) {
        let mut clique = vec![s];
        let mut cands: Vec<usize> = g.neighbors(s).collect();
        while !cands.is_empty() {
            // Highest-degree candidate.
            let &v = cands
                .iter()
                .max_by_key(|&&v| (g.degree(v), std::cmp::Reverse(v)))
                .expect("non-empty");
            clique.push(v);
            cands.retain(|&u| u != v && g.has_edge(u, v));
        }
        best = best.max(clique.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> Ungraph {
        let mut g = Ungraph::new(n);
        for a in 0..n {
            for b in a + 1..n {
                g.add_edge(a, b);
            }
        }
        g
    }

    fn cycle(n: usize) -> Ungraph {
        let mut g = Ungraph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n);
        }
        g
    }

    #[test]
    fn coloring_is_proper() {
        let g = cycle(7);
        let coloring = greedy_coloring(&g, &degree_order(&g));
        for (a, b) in g.edges() {
            assert_ne!(coloring[a], coloring[b]);
        }
        assert!(color_count(&coloring) <= 3);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = complete(5);
        assert!(!is_k_colorable(&g, 4, 32));
        assert!(is_k_colorable(&g, 5, 32));
    }

    #[test]
    fn odd_cycle_needs_three() {
        let g = cycle(5);
        assert!(!is_k_colorable(&g, 2, 32));
        assert!(is_k_colorable(&g, 3, 32));
    }

    #[test]
    fn even_cycle_needs_two() {
        let g = cycle(6);
        assert!(is_k_colorable(&g, 2, 32));
    }

    #[test]
    fn empty_graph_one_colorable() {
        let g = Ungraph::new(4);
        assert!(is_k_colorable(&g, 1, 32));
        assert_eq!(color_count(&greedy_coloring(&g, &degree_order(&g))), 1);
    }

    #[test]
    fn clique_bound_finds_k4() {
        // K4 plus pendant edges.
        let mut g = complete(4);
        let v = g.push_node();
        g.add_edge(0, v);
        assert!(clique_lower_bound(&g, 4) >= 4);
    }

    #[test]
    fn degree_order_is_decreasing() {
        let mut g = Ungraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(1, 2);
        let order = degree_order(&g);
        assert_eq!(order[0], 0);
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    proptest::proptest! {
        #[test]
        fn greedy_coloring_always_proper(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40)
        ) {
            let mut g = Ungraph::new(12);
            for (a, b) in edges {
                if a != b {
                    g.add_edge(a, b);
                }
            }
            let coloring = greedy_coloring(&g, &degree_order(&g));
            for (a, b) in g.edges() {
                proptest::prop_assert_ne!(coloring[a], coloring[b]);
            }
            // Colour count never exceeds max degree + 1.
            let max_deg = (0..12).map(|v| g.degree(v)).max().unwrap_or(0);
            proptest::prop_assert!(color_count(&coloring) <= max_deg + 1);
        }

        #[test]
        fn k_colorable_matches_brute_force(
            n in 0usize..8,
            k in 0usize..4,
            edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)
        ) {
            let mut g = Ungraph::new(n);
            for (a, b) in edges {
                if a != b && a < n && b < n {
                    g.add_edge(a, b);
                }
            }
            // Every assignment of k colours to n nodes, as base-k digits.
            let brute = (0..k.pow(n as u32)).any(|code| {
                let color = |v: usize| code / k.pow(v as u32) % k;
                g.edges().all(|(a, b)| color(a) != color(b))
            }) || n == 0;
            proptest::prop_assert_eq!(is_k_colorable(&g, k, 16), brute);
            // Past the exact limit the answer is the greedy bound.
            let greedy = color_count(&greedy_coloring(&g, &degree_order(&g)));
            proptest::prop_assert_eq!(is_k_colorable(&g, k, 0), greedy <= k && (k > 0 || n == 0));
        }

        #[test]
        fn k_colorable_consistent_with_clique(
            edges in proptest::collection::vec((0usize..9, 0usize..9), 0..30)
        ) {
            let mut g = Ungraph::new(9);
            for (a, b) in edges {
                if a != b {
                    g.add_edge(a, b);
                }
            }
            let clique = clique_lower_bound(&g, 9);
            if clique > 0 {
                // A graph with a clique of size c is never (c-1)-colourable.
                proptest::prop_assert!(!is_k_colorable(&g, clique.saturating_sub(1), 16)
                    || clique <= 1);
            }
        }
    }
}
