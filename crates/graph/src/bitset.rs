//! A growable dense bit set, [`GrowSet`].

/// A growable dense set of small integers backed by `u64` words.
///
/// The capacity is not fixed: `insert` grows the word vector on demand,
/// while `remove` and `contains` treat out-of-range indices as simply
/// absent. Used for per-cluster incompatibility
/// adjacency in the scheduler state, where membership churns under
/// speculation rollback.
///
/// Equality is **semantic**: two sets holding the same elements compare
/// equal even when one carries trailing zero words left over from
/// rollback churn, so state fingerprints never depend on capacity
/// history.
///
/// # Example
///
/// ```
/// use vcsched_graph::GrowSet;
///
/// let mut s = GrowSet::new();
/// s.insert(3);
/// s.insert(200); // grows automatically
/// assert!(s.contains(200) && !s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct GrowSet {
    words: Vec<u64>,
}

impl GrowSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        GrowSet::default()
    }

    /// Number of elements currently in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `i`, growing capacity as needed. Returns `true` if it was
    /// newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `i`. Out-of-range indices are absent, not an error.
    /// Returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Iterates over set elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Removes all elements (capacity is retained).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Heap bytes held by the set (capacity, not population).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    fn trimmed(&self) -> &[u64] {
        let n = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..n]
    }
}

impl PartialEq for GrowSet {
    /// Semantic equality: trailing zero words (capacity padding) are
    /// ignored.
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for GrowSet {}

impl std::fmt::Debug for GrowSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for GrowSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = GrowSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growset_grows_on_insert() {
        let mut s = GrowSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(1000));
        assert!(s.insert(0));
        assert!(s.insert(777));
        assert!(!s.insert(777));
        assert!(s.contains(0) && s.contains(777) && !s.contains(776));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 777]);
    }

    #[test]
    fn growset_remove_out_of_range_is_noop() {
        let mut s = GrowSet::new();
        s.insert(3);
        assert!(!s.remove(10_000));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn growset_equality_ignores_capacity_padding() {
        // One set grew to hold 500, then lost it again under rollback;
        // the other never grew. Semantic equality must not see the
        // trailing zero words.
        let mut churned = GrowSet::new();
        churned.insert(5);
        churned.insert(500);
        churned.remove(500);
        let mut fresh = GrowSet::new();
        fresh.insert(5);
        assert_eq!(churned, fresh);
        churned.insert(6);
        assert_ne!(churned, fresh);
    }

    #[test]
    fn growset_clear_keeps_semantic_equality() {
        let mut s: GrowSet = [9usize, 90, 900].into_iter().collect();
        s.clear();
        assert_eq!(s, GrowSet::new());
        assert_eq!(s.len(), 0);
        assert!(format!("{s:?}") == "{}");
    }

    #[test]
    fn growset_from_iterator_orders_ascending() {
        let s: GrowSet = [70usize, 2, 130, 2].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 70, 130]);
        assert_eq!(format!("{s:?}"), "{2, 70, 130}");
    }
}
