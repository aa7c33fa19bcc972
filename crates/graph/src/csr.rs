//! Compressed-sparse-row adjacency storage.

/// A compressed-sparse-row table: one flat payload array plus a row
/// offset index, replacing `Vec<Vec<T>>` jagged adjacency for cache
/// locality.
///
/// Rows are immutable once built — the scheduler keeps the *static*
/// dependence-graph adjacency here (built once per problem) and layers
/// per-search extras in small side vectors. Row order and within-row
/// payload order are exactly the insertion order, so iteration over a
/// CSR row is bit-compatible with iterating the `Vec` it replaced.
///
/// # Example
///
/// ```
/// use vcsched_graph::Csr;
///
/// let csr: Csr<(usize, i64)> = [vec![(1, 2), (2, 3)], vec![], vec![(0, 1)]]
///     .into_iter()
///     .collect();
/// assert_eq!(csr.rows(), 3);
/// assert_eq!(csr.row(0), &[(1, 2), (2, 3)]);
/// assert!(csr.row(1).is_empty());
/// assert_eq!(csr.row(2), &[(0, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `offsets[i]..offsets[i + 1]` delimits row `i` in `data`.
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty table with zero rows.
    pub fn empty() -> Csr<T> {
        Csr {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Groups `items` into `rows` rows by `row_of`, keeping input order
    /// within each row (a stable counting sort).
    ///
    /// # Panics
    ///
    /// Panics if `row_of` returns a row `>= rows`, or if there are more
    /// than `u32::MAX` items.
    pub fn grouped<S>(
        rows: usize,
        items: &[S],
        row_of: impl Fn(&S) -> usize,
        value: impl Fn(&S) -> T,
    ) -> Csr<T> {
        assert!(
            u32::try_from(items.len()).is_ok(),
            "CSR payload exceeds u32::MAX entries"
        );
        let mut offsets = vec![0u32; rows + 1];
        for item in items {
            offsets[row_of(item) + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        let mut order = vec![0u32; items.len()];
        for (i, item) in items.iter().enumerate() {
            let slot = &mut next[row_of(item)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        let data = order.iter().map(|&i| value(&items[i as usize])).collect();
        Csr { offsets, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The payload slice of row `i`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total payload entries across all rows.
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes held by the table.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.data.capacity() * std::mem::size_of::<T>()
    }
}

/// Collects one row per item, in order.
///
/// # Panics
///
/// Panics if the total payload would exceed `u32::MAX` entries.
impl<T, R: IntoIterator<Item = T>> FromIterator<R> for Csr<T> {
    fn from_iter<I: IntoIterator<Item = R>>(iter: I) -> Self {
        let mut offsets = vec![0];
        let mut data = Vec::new();
        for row in iter {
            data.extend(row);
            let end = u32::try_from(data.len()).expect("CSR payload exceeds u32::MAX entries");
            offsets.push(end);
        }
        Csr { offsets, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_in_order() {
        let rows: Vec<Vec<u32>> = vec![vec![3, 1, 2], vec![], vec![9], vec![7, 7]];
        let csr: Csr<u32> = rows.iter().cloned().collect();
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.entries(), 6);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), row.as_slice(), "row {i}");
        }
    }

    #[test]
    fn empty_table_has_no_rows() {
        let csr: Csr<u8> = Csr::empty();
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.entries(), 0);
    }

    #[test]
    fn tuple_payloads_keep_insertion_order() {
        let csr: Csr<(usize, i64)> = [vec![(4, -1), (2, 5)], vec![(0, 0)]].into_iter().collect();
        // Insertion order, NOT sorted: callers depend on Vec-identical
        // iteration for bit-identical propagation order.
        assert_eq!(csr.row(0), &[(4, -1), (2, 5)]);
        assert_eq!(csr.row(1), &[(0, 0)]);
    }

    #[test]
    fn grouped_is_a_stable_sort_by_row() {
        let items = [(2usize, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let csr = Csr::grouped(4, &items, |it| it.0, |it| it.1);
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(0), &['b', 'd']);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), &['a', 'c']);
        assert_eq!(csr.row(3), &['e']);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        let csr: Csr<u8> = Csr::empty();
        let _ = csr.row(0);
    }
}
