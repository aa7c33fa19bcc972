//! Combinations: cycle-distance relations between instruction pairs (§3.1).
//!
//! For an instruction pair `(u, v)` with `u < v` in lexicographic id order,
//! a *combination* with value `d` asserts `cycle(u) − cycle(v) = d` in the
//! final schedule. Combinations only exist where the two execution windows
//! `[cycle, cycle + latency)` can overlap:
//!
//! ```text
//! −(λ(u) − 1)  ≤  d  ≤  λ(v) − 1
//! ```
//!
//! The paper's prose on the sign of `comb` is garbled by PDF extraction;
//! this convention is the one recovered from Fig. 4(b) — it reproduces the
//! published combination tables exactly (see `sg::tests::figure4_tables`).
//!
//! Dependences shrink the window further: a path `u → v` of latency `L`
//! forces `d ≤ −L`, a path `v → u` forces `d ≥ L`. The pair has a
//! scheduling-graph edge iff the resulting interval is non-empty.

/// Inclusive interval of feasible combination values for one pair.
///
/// Empty intervals (`lo > hi`) mean "no combination": the pair can never
/// overlap, so the scheduling graph has no edge between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombRange {
    /// Smallest feasible `cycle(u) − cycle(v)`.
    pub lo: i64,
    /// Largest feasible `cycle(u) − cycle(v)`.
    pub hi: i64,
}

impl CombRange {
    /// The raw overlap window of two latencies, before dependences.
    pub fn overlap(lat_u: u32, lat_v: u32) -> CombRange {
        CombRange {
            lo: -((lat_u as i64 - 1).max(0)),
            hi: (lat_v as i64 - 1).max(0),
        }
    }

    /// Overlap window narrowed by dependence paths: `path_uv` is the longest
    /// latency of a path `u → v` (`None` if unreachable), `path_vu` likewise.
    pub fn with_dependences(
        lat_u: u32,
        lat_v: u32,
        path_uv: Option<i64>,
        path_vu: Option<i64>,
    ) -> CombRange {
        let mut r = CombRange::overlap(lat_u, lat_v);
        if let Some(l) = path_uv {
            r.hi = r.hi.min(-l);
        }
        if let Some(l) = path_vu {
            r.lo = r.lo.max(l);
        }
        r
    }

    /// Returns `true` if no combination value is feasible.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Number of feasible values.
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.hi - self.lo + 1) as usize
        }
    }

    /// Returns `true` if `d` lies in the interval.
    pub fn contains(&self, d: i64) -> bool {
        self.lo <= d && d <= self.hi
    }

    /// Iterates the feasible values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = i64> {
        self.lo..=self.hi
    }
}

/// The set of still-possible combination values of one scheduling-graph
/// edge, kept as the original window plus a discard mask.
///
/// `Copy` (a range plus one `u64` mask) so edge resolutions are cheap to
/// snapshot onto the speculation trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombDomain {
    range: CombRange,
    /// Bit `i` set ⇒ value `range.lo + i` discarded.
    discarded: u64,
}

impl CombDomain {
    /// Builds a domain over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range has more than 64 values (latencies in this
    /// workspace are small; the paper's are 1–3 cycles).
    pub fn new(range: CombRange) -> CombDomain {
        assert!(range.len() <= 64, "combination window too wide");
        CombDomain {
            range,
            discarded: 0,
        }
    }

    /// The original window.
    pub fn range(&self) -> CombRange {
        self.range
    }

    /// Discards value `d`. Returns `true` if it was present.
    pub fn discard(&mut self, d: i64) -> bool {
        if !self.range.contains(d) {
            return false;
        }
        let bit = 1u64 << (d - self.range.lo);
        let present = self.discarded & bit == 0;
        self.discarded |= bit;
        present
    }

    /// Bits of the window's values whose offset from `range.lo` is below
    /// `offset` (clamped to the window).
    fn offsets_below(&self, offset: i64) -> u64 {
        let n = offset.clamp(0, self.range.len() as i64);
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Discards every value in `mask` (bits of the window); returns `true`
    /// if any was present.
    fn discard_mask(&mut self, mask: u64) -> bool {
        let present = mask & !self.discarded != 0;
        self.discarded |= mask;
        present
    }

    /// Discards every value strictly below `d`. Returns `true` if any was
    /// present.
    pub fn discard_below(&mut self, d: i64) -> bool {
        self.discard_mask(self.offsets_below(d.saturating_sub(self.range.lo)))
    }

    /// Discards every value strictly above `d`. Returns `true` if any was
    /// present.
    pub fn discard_above(&mut self, d: i64) -> bool {
        let keep = self.offsets_below(d.saturating_sub(self.range.lo).saturating_add(1));
        self.discard_mask(self.offsets_below(64) & !keep)
    }

    /// Returns `true` if `d` is still possible.
    pub fn contains(&self, d: i64) -> bool {
        self.range.contains(d) && self.discarded & (1 << (d - self.range.lo)) == 0
    }

    /// Number of remaining values.
    pub fn len(&self) -> usize {
        self.range.len() - (self.discarded.count_ones() as usize)
    }

    /// Returns `true` if every value has been discarded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.range.iter().filter(|&d| self.contains(d))
    }

    /// The single remaining value, if exactly one is left.
    pub fn singleton(&self) -> Option<i64> {
        let left = self.offsets_below(64) & !self.discarded;
        (left.count_ones() == 1).then(|| self.range.lo + left.trailing_zeros() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure3_window() {
        // B (3 cycles) and I (2 cycles), B lexicographically smaller:
        // the paper enumerates exactly the ids {−2, −1, 0, 1}.
        let r = CombRange::overlap(3, 2);
        assert_eq!((r.lo, r.hi), (-2, 1));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn figure4_edge8_branch_pair() {
        // B0 → B1 control dependence of latency 1, both 3 cycles:
        // window [−2, 2] ∩ {d ≤ −1} = {−2, −1}, as the paper's table says.
        let r = CombRange::with_dependences(3, 3, Some(1), None);
        assert_eq!((r.lo, r.hi), (-2, -1));
    }

    #[test]
    fn data_dependence_kills_all_combinations() {
        // 2-cycle producer feeding a consumer: path latency 2 > λ−1.
        let r = CombRange::with_dependences(2, 2, Some(2), None);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn reverse_path_raises_lo() {
        let r = CombRange::with_dependences(3, 3, None, Some(1));
        assert_eq!((r.lo, r.hi), (1, 2));
    }

    #[test]
    fn domain_discards() {
        let mut d = CombDomain::new(CombRange { lo: -2, hi: 1 });
        assert_eq!(d.len(), 4);
        assert!(d.discard(0));
        assert!(!d.discard(0));
        assert!(!d.discard(5), "outside range is a no-op");
        assert!(!d.contains(0));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![-2, -1, 1]);
        assert_eq!(d.singleton(), None);
        d.discard(-2);
        d.discard(-1);
        assert_eq!(d.singleton(), Some(1));
        d.discard(1);
        assert!(d.is_empty());
    }

    #[test]
    fn domain_bound_pruning() {
        let mut d = CombDomain::new(CombRange { lo: -2, hi: 2 });
        assert!(d.discard_below(-1));
        assert!(d.discard_above(1));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![-1, 0, 1]);
        assert!(!d.discard_below(-1), "idempotent");
    }

    /// Per-value reference for [`CombDomain::discard_below`] /
    /// [`CombDomain::discard_above`]: discards each value `drop` selects.
    fn discard_where(dom: &mut CombDomain, drop: impl Fn(i64) -> bool) -> bool {
        let mut any = false;
        for v in dom.range().iter() {
            if drop(v) {
                any |= dom.discard(v);
            }
        }
        any
    }

    proptest::proptest! {
        #[test]
        fn mask_discards_match_the_per_value_reference(
            lo in -70i64..70,
            len in 1i64..65,
            pre in proptest::collection::vec(0i64..64, 0..6),
            cut in -150i64..150,
            above in proptest::any::<bool>(),
        ) {
            let range = CombRange { lo, hi: lo + len - 1 };
            let mut dom = CombDomain::new(range);
            for p in pre {
                dom.discard(lo + p);
            }
            let mut reference = dom;
            let (got, want) = if above {
                (dom.discard_above(cut), discard_where(&mut reference, |v| v > cut))
            } else {
                (dom.discard_below(cut), discard_where(&mut reference, |v| v < cut))
            };
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(dom, reference);
            let mut it = reference.iter();
            let single = match (it.next(), it.next()) {
                (Some(d), None) => Some(d),
                _ => None,
            };
            proptest::prop_assert_eq!(dom.singleton(), single);
        }
    }

    #[test]
    fn zero_latency_window() {
        // Live-in pseudo-instructions have latency 0; window degenerates.
        let r = CombRange::overlap(0, 0);
        assert_eq!((r.lo, r.hi), (0, 0));
    }
}
