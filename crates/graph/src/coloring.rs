//! Graph colouring for the virtual-cluster-graph clique check.
//!
//! After each candidate decision the paper rejects decisions that would
//! create a virtual-cluster-graph clique larger than the number of physical
//! clusters, using a Chaitin-style colouring scheme (§3.2).
//! [`DenseColoring`] is that check. The §4.4.1.3 mapping order is not
//! computed here: stage 4 of the scheduler sorts virtual clusters by its own
//! degree key.

/// A graph held as a dense adjacency bit matrix, with the buffers of the
/// [`DenseColoring::is_k_colorable`] check. [`DenseColoring::reset`] keeps
/// every allocation, so a caller that re-checks small graphs over and over
/// (the §3.2 test after each studied decision) allocates nothing once warm.
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

    /// Exact `k`-colourability test for the small virtual-cluster graphs
    /// this workspace produces: greedy colouring in decreasing-degree order
    /// (ties by index) accepts at once; otherwise graphs of at most
    /// `exact_limit` nodes are decided by backtracking and larger ones are
    /// conservatively rejected. A rejection past the limit is sound for
    /// "accept" but may be spurious — the same conservative behaviour the
    /// paper's heuristic clique check exhibits.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Loads `edges` on `n` nodes into `g` through the production calls.
    fn load(g: &mut DenseColoring, n: usize, edges: &[(usize, usize)]) {
        g.reset(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
    }

    fn fresh(n: usize, edges: &[(usize, usize)]) -> DenseColoring {
        let mut g = DenseColoring::default();
        load(&mut g, n, edges);
        g
    }

    fn complete(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect()
    }

    fn cycle(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    /// Self-loop-free edges on `n` nodes from raw proptest pairs.
    fn simple_edges(n: usize, raw: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        raw.into_iter()
            .filter(|&(a, b)| a != b && a < n && b < n)
            .collect()
    }

    /// Reference greedy colouring: nodes in decreasing degree (ties by
    /// index), each taking the smallest colour no coloured neighbour has.
    /// Returns the number of colours used.
    fn greedy_colors(n: usize, edges: &[(usize, usize)]) -> usize {
        let adjacent = |a: usize, b: usize| {
            edges
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        };
        let degree = |v: usize| (0..n).filter(|&u| adjacent(u, v)).count();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
        let mut color: Vec<Option<usize>> = vec![None; n];
        for v in order {
            let free = (0..)
                .find(|&c| (0..n).all(|u| !adjacent(u, v) || color[u] != Some(c)))
                .expect("always a free colour");
            color[v] = Some(free);
        }
        color.iter().flatten().max().map_or(0, |m| m + 1)
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let mut g = fresh(5, &complete(5));
        assert!(!g.is_k_colorable(4, 32));
        assert!(g.is_k_colorable(5, 32));
    }

    #[test]
    fn odd_cycle_needs_three() {
        let mut g = fresh(5, &cycle(5));
        assert!(!g.is_k_colorable(2, 32));
        assert!(g.is_k_colorable(3, 32));
    }

    #[test]
    fn even_cycle_needs_two() {
        let mut g = fresh(6, &cycle(6));
        assert!(g.is_k_colorable(2, 32));
    }

    #[test]
    fn empty_graph_one_colorable() {
        let mut g = fresh(4, &[]);
        assert!(g.is_k_colorable(1, 32));
        assert!(!g.is_k_colorable(0, 32));
        assert!(g.is_k_colorable(1, 0), "greedy needs one colour");
    }

    thread_local! {
        /// One instance reused through `reset` across every case of
        /// `reused_instance_answers_like_a_fresh_one`, as the scheduler
        /// reuses its scratch copy across studied decisions.
        static REUSED: RefCell<DenseColoring> = RefCell::new(DenseColoring::default());
    }

    proptest::proptest! {
        #[test]
        fn k_colorable_matches_brute_force(
            n in 0usize..8,
            k in 0usize..4,
            edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)
        ) {
            let edges = simple_edges(n, edges);
            let mut g = fresh(n, &edges);
            // Every assignment of k colours to n nodes, as base-k digits.
            let brute = (0..k.pow(n as u32)).any(|code| {
                let color = |v: usize| code / k.pow(v as u32) % k;
                edges.iter().all(|&(a, b)| color(a) != color(b))
            }) || n == 0;
            proptest::prop_assert_eq!(g.is_k_colorable(k, 16), brute);
            // Past the exact limit the answer is the greedy bound.
            let greedy = greedy_colors(n, &edges);
            for colors in 0..=n {
                proptest::prop_assert_eq!(g.is_k_colorable(colors, 0), greedy <= colors);
            }
        }

        #[test]
        fn reused_instance_answers_like_a_fresh_one(
            n in 0usize..80,
            edges in proptest::collection::vec((0usize..80, 0usize..80), 0..120)
        ) {
            let edges = simple_edges(n, edges);
            let mut once = fresh(n, &edges);
            REUSED.with(|reused| {
                let mut reused = reused.borrow_mut();
                load(&mut reused, n, &edges);
                for k in 0..5 {
                    for limit in [0, 12] {
                        proptest::prop_assert_eq!(
                            reused.is_k_colorable(k, limit),
                            once.is_k_colorable(k, limit)
                        );
                    }
                }
                Ok(())
            })?;
        }
    }
}
