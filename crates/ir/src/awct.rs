//! Average weighted completion time (AWCT).
//!
//! `AWCT = Σ (cycle(u) + latency(u)) · P(u)` over superblock exits `u`
//! (paper §2.2). The scheduler enumerates candidate AWCT values as integer
//! *target cycles per exit*; [`ExitTargets`] is that assignment. Which
//! exit to bump next (§4.2) is the search's decision, in `vcsched-core`.

use crate::superblock::Superblock;

/// AWCT of concrete exit cycles.
///
/// `exits` pairs each exit's `(probability, latency)` with the matching
/// entry of `cycles`.
///
/// # Example
///
/// ```
/// use vcsched_ir::awct_of_cycles;
///
/// // Paper §2.2: B0 (3cy, P=.3) at cycle 4, B1 (3cy, P=.7) at cycle 6
/// // gives AWCT = 7·0.3 + 9·0.7 = 8.4.
/// let a = awct_of_cycles(&[(0.3, 3), (0.7, 3)], &[4, 6]);
/// assert!((a - 8.4).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn awct_of_cycles(exits: &[(f64, u32)], cycles: &[i64]) -> f64 {
    assert_eq!(exits.len(), cycles.len(), "exit/cycle length mismatch");
    exits
        .iter()
        .zip(cycles)
        .map(|(&(p, lat), &c)| (c as f64 + lat as f64) * p)
        .sum()
}

/// Target cycles for every exit of one superblock — the concrete encoding
/// of one AWCT value during enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitTargets {
    /// `(probability, latency)` per exit, in program order.
    exits: Vec<(f64, u32)>,
    cycles: Vec<i64>,
}

impl ExitTargets {
    /// Pairs the exits of `sb` (program order) with `cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles.len()` differs from the number of exits.
    pub fn new(sb: &Superblock, cycles: Vec<i64>) -> Self {
        let exits: Vec<(f64, u32)> = sb
            .exits()
            .map(|(id, p)| (p, sb.inst(id).latency()))
            .collect();
        assert_eq!(exits.len(), cycles.len(), "one target cycle per exit");
        ExitTargets { exits, cycles }
    }

    /// Target cycle of exit `k` (program order).
    pub fn cycle(&self, k: usize) -> i64 {
        self.cycles[k]
    }

    /// The AWCT this target assignment represents.
    pub fn awct(&self) -> f64 {
        awct_of_cycles(&self.exits, &self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superblock::SuperblockBuilder;
    use vcsched_arch::OpClass;

    fn two_exit_block() -> Superblock {
        let mut b = SuperblockBuilder::new("t");
        let i = b.inst(OpClass::Int, 2);
        let b0 = b.exit(3, 0.3);
        let b1 = b.exit(3, 0.7);
        b.data_dep(i, b0).data_dep(i, b1);
        b.build().unwrap()
    }

    #[test]
    fn paper_awct_value() {
        let a = awct_of_cycles(&[(0.3, 3), (0.7, 3)], &[4, 6]);
        assert!((a - 8.4).abs() < 1e-12);
    }

    #[test]
    fn targets_awct() {
        let sb = two_exit_block();
        let t = ExitTargets::new(&sb, vec![4, 6]);
        assert_eq!(t.cycle(0), 4);
        assert_eq!(t.cycle(1), 6);
        assert!((t.awct() - 8.4).abs() < 1e-12);
        // One more cycle on exit 0 (P = 0.3) costs exactly 0.3.
        let later = ExitTargets::new(&sb, vec![5, 6]);
        assert!((later.awct() - t.awct() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one target cycle per exit")]
    fn wrong_target_count_panics() {
        let sb = two_exit_block();
        ExitTargets::new(&sb, vec![4]);
    }
}
