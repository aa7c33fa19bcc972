//! Metric primitives: striped atomic [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket log-scale [`Histogram`]s with deterministic quantiles.
//!
//! All three are cheap-clone handles over shared atomic state, so a handle
//! fetched once from the [`Registry`](crate::Registry) can be cached in a
//! hot loop and hammered from any number of threads without locks.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Number of cache-line-padded cells a [`Counter`] spreads its increments
/// over. Each thread hashes to one cell, so concurrent increments from
/// different threads rarely contend on the same cache line.
const COUNTER_STRIPES: usize = 16;

/// One cache-line-padded atomic cell of a striped counter.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

fn stripe_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_STRIPES;
            s.set(idx);
        }
        idx
    })
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
///
/// Increments land on one of `COUNTER_STRIPES` cache-line-padded atomic
/// cells picked per thread; [`Counter::get`] sums the stripes. Totals are
/// exact: every increment lands in exactly one atomic cell.
#[derive(Clone, Default)]
pub struct Counter {
    stripes: Arc<[PaddedU64; COUNTER_STRIPES]>,
}

impl Counter {
    /// A fresh counter at zero, unattached to any registry.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes the counter. Increments racing with a reset may land before
    /// or after it; quiesce writers if an exact cut is needed.
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time signed value (queue depth, live connections, occupancy).
///
/// Unlike counters, gauges go up *and* down and are not cleared by
/// [`Registry::reset`](crate::Registry::reset) — they describe live state,
/// not accumulated history.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero, unattached to any registry.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Values below this are counted in exact unit-wide buckets.
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBS_PER_OCTAVE: usize = 8;
/// Total fixed bucket count: 16 linear + 60 octaves × 8 sub-buckets.
const HISTOGRAM_BUCKETS: usize = LINEAR_CUTOFF as usize + 60 * SUBS_PER_OCTAVE;

/// Maps a value to its bucket index. Values `< 16` get exact buckets;
/// larger values get 8 logarithmic sub-buckets per power of two
/// (≤ 12.5 % relative error on the reconstructed bound).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // ≥ 4
    let sub = ((v >> (msb - 3)) & 0x7) as usize;
    LINEAR_CUTOFF as usize + (msb - 4) * SUBS_PER_OCTAVE + sub
}

/// The smallest value that lands in bucket `idx` — the deterministic value
/// reported for any quantile falling inside that bucket.
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_CUTOFF as usize;
    let msb = rel / SUBS_PER_OCTAVE + 4;
    let sub = (rel % SUBS_PER_OCTAVE) as u64;
    (8 + sub) << (msb - 3)
}

/// The largest value in the same bucket as `v` — the inclusive Prometheus
/// `le` bound rendered for that bucket.
pub fn bucket_upper_bound_of_value(v: u64) -> u64 {
    bucket_upper_bound(bucket_index(v))
}

/// The largest value that lands in bucket `idx` (Prometheus `le` bound).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx + 1 < HISTOGRAM_BUCKETS {
        bucket_lower_bound(idx + 1) - 1
    } else {
        u64::MAX
    }
}

struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A fixed-bucket log-scale histogram of `u64` samples.
///
/// Recording is a single relaxed `fetch_add` on the sample's bucket plus
/// one on the running sum. Quantiles are computed from bucket counts alone
/// and are therefore **deterministic**: any two histograms that saw the
/// same multiset of samples — regardless of thread interleaving or how
/// many threads recorded them — report identical p50/p90/p99/p999.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets,
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram, unattached to any registry.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded samples (wraps on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Zeroes all buckets and the sum (same caveat as [`Counter::reset`]).
    pub fn reset(&self) {
        for b in self.inner.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.sum.store(0, Ordering::Relaxed);
    }

    /// An immutable copy of the current bucket state with precomputed
    /// quantiles. The copy is internally consistent: quantiles, count and
    /// non-empty bucket list all derive from one pass over the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot::from_bucket_counts(&counts, self.sum())
    }

    /// The deterministic `q`-quantile (`0.0 ..= 1.0`) of recorded samples:
    /// the lower bound of the bucket containing the rank-⌈q·n⌉ sample.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a [`Histogram`]: count, sum, fixed quantiles,
/// and the non-empty buckets as `(bucket lower bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (wraps on overflow).
    pub sum: u64,
    /// Median (deterministic bucket lower bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Non-empty buckets as `(lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot (quantiles included) from a full, dense bucket
    /// count array indexed by bucket index.
    fn from_bucket_counts(counts: &[u64], sum: u64) -> HistogramSnapshot {
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_lower_bound(idx);
                }
            }
            bucket_lower_bound(counts.len().saturating_sub(1))
        };
        HistogramSnapshot {
            count,
            sum,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            p999: quantile(0.999),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(idx, &c)| (bucket_lower_bound(idx), c))
                .collect(),
        }
    }

    /// The deterministic `q`-quantile of this snapshot (see
    /// [`Histogram::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(lo, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return lo;
            }
        }
        self.buckets.last().map(|&(lo, _)| lo).unwrap_or(0)
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        for idx in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound maps back to bucket");
            if idx + 1 < HISTOGRAM_BUCKETS {
                assert!(lo < bucket_lower_bound(idx + 1));
                assert_eq!(bucket_upper_bound(idx), bucket_lower_bound(idx + 1) - 1);
                assert_eq!(bucket_index(bucket_upper_bound(idx)), idx);
            }
        }
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, u64::MAX] {
            let idx = bucket_index(v);
            assert!(bucket_lower_bound(idx) <= v);
            assert!(v <= bucket_upper_bound(idx));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16 {
            for _ in 0..=v {
                h.record(v);
            }
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, (0..16u64).map(|v| v + 1).sum::<u64>());
        for v in 0..16u64 {
            assert!(snap.buckets.contains(&(v, v + 1)));
        }
    }

    #[test]
    fn quantiles_deterministic() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50, snap.quantile(0.5));
        // p50 of 1..=1000 lands in the bucket holding 500.
        assert_eq!(snap.p50, bucket_lower_bound(bucket_index(500)));
        assert_eq!(snap.p99, bucket_lower_bound(bucket_index(990)));
        assert_eq!(snap.sum, (1..=1000u64).sum::<u64>());
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.p50, snap.p999), (0, 0, 0));
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.inc();
        g.add(-3);
        assert_eq!(g.get(), 5);
    }
}
