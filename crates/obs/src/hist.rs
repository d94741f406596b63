//! Lock-free log2-bucketed histograms with percentile estimation.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index of `v`: 0 holds only zero; bucket `i >= 1` holds values
/// in `[2^(i-1), 2^i - 1]`.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` — the representative value
/// percentiles report.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// A thread-safe log2-bucketed histogram. Recording is a relaxed atomic
/// increment; no locks anywhere.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `v`.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self` — the per-thread-shard
    /// merge: merging shards is equivalent to recording every value into
    /// one histogram, because log2 bucketing is deterministic per value.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An immutable snapshot with percentiles computed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot::from_buckets(
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// A point-in-time copy of a [`Histogram`], with percentiles.
///
/// Percentiles report the inclusive upper bound of the bucket containing
/// the requested rank, clamped to the exact observed `max` — a true
/// quantile can never exceed the true maximum, and the clamp keeps the
/// exported summary coherent (`quantile="0.999"` never above
/// `quantile="1"`). `p50 <= p95 <= p99 <= p999 <= max` holds by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// 99.9th percentile (bucket upper bound).
    pub p999: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, trimmed after the last non-empty bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw bucket counts, a value sum, and the
    /// exact observed maximum.
    pub fn from_buckets(mut buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        let p50 = percentile(&buckets, count, 0.50).min(max);
        let p95 = percentile(&buckets, count, 0.95).min(max);
        let p99 = percentile(&buckets, count, 0.99).min(max);
        let p999 = percentile(&buckets, count, 0.999).min(max);
        let used = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        buckets.truncate(used);
        HistogramSnapshot { count, sum, p50, p95, p99, p999, max, buckets }
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper bound), or 0
    /// for an empty histogram. Monotone in `q`.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile(&self.buckets, self.count, q)
    }

    /// Mean of the observed values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self`, recomputing count/sum/percentiles —
    /// the snapshot-level equivalent of [`Histogram::merge_from`].
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let len = self.buckets.len().max(other.buckets.len());
        let mut merged = vec![0u64; len.max(1)];
        for (i, &c) in self.buckets.iter().enumerate() {
            merged[i] += c;
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            merged[i] += c;
        }
        merged.resize(BUCKETS, 0);
        *self =
            HistogramSnapshot::from_buckets(merged, self.sum + other.sum, self.max.max(other.max));
    }
}

fn percentile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose upper bound contains it.
        for v in [0u64, 1, 2, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "{v} above bucket {b} bound");
            if b > 0 {
                assert!(v > bucket_upper(b - 1), "{v} fits the previous bucket");
            }
        }
    }

    #[test]
    fn merging_shards_equals_recording_into_one() {
        // Satellite: per-thread shard merge correctness.
        let values: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 100_000).collect();
        let whole = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            shards[i % 4].observe(v);
        }
        let merged = Histogram::new();
        for s in &shards {
            merged.merge_from(s);
        }
        assert_eq!(merged.snapshot(), whole.snapshot());
        // Snapshot-level merge agrees too.
        let mut snap = shards[0].snapshot();
        for s in &shards[1..] {
            snap.merge(&s.snapshot());
        }
        assert_eq!(snap, whole.snapshot());
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.observe(i * i % 65_536);
        }
        let s = h.snapshot();
        let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            assert!(
                s.percentile(w[0]) <= s.percentile(w[1]),
                "p{} > p{}",
                w[0] * 100.0,
                w[1] * 100.0
            );
        }
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    fn empty_and_single_value() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p99, s.p999, s.max), (0, 0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
        h.observe(42);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // 42 lives in [32, 63], but the bucket bound is clamped to the
        // exact max so the quantile never overshoots the worst case.
        assert_eq!(s.p50, 42);
        assert_eq!(s.p99, 42);
        assert_eq!(s.p999, 42);
        assert_eq!(s.max, 42);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn max_is_exact_and_survives_merges() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(100);
        a.observe(7);
        b.observe(9_999);
        let merged = Histogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.snapshot().max, 9_999);
        // Snapshot-level merge agrees.
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.max, 9_999);
        assert_eq!(snap, merged.snapshot());
    }

    #[test]
    fn snapshot_trims_trailing_zero_buckets() {
        let h = Histogram::new();
        h.observe(5);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), bucket_of(5) + 1);
        assert_eq!(*s.buckets.last().unwrap(), 1);
    }
}
