//! Cumulative metric primitives: lock-striped counters and the one
//! log-spaced latency histogram.
//!
//! Counters are monotonic and striped across cache-line-padded atomics
//! so concurrent workers and clients never contend on one line.
//! Histograms use fixed log-spaced buckets (√2 growth from 250 ns, 60
//! buckets ≈ 250 ns … 3 min), giving ~±20 % quantile resolution with
//! O(1) lock-free recording — the classic serving-systems trade.
//!
//! Serializable views of these (`rtoss_serve::PhaseStats`,
//! `rtoss_serve::PhaseHistogram`) live with their serde-aware users;
//! this crate stays dependency-free.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of stripes per counter. Eight covers typical worker-pool and
/// client-thread counts without measurable contention.
const STRIPES: usize = 8;

/// An `AtomicU64` padded to its own cache line so neighbouring stripes
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedAtomic(AtomicU64);

/// Monotonic counter striped across cache lines.
///
/// Each thread increments its own stripe (assigned round-robin on first
/// use); reads sum all stripes. Totals are exact — only the ordering of
/// concurrent increments across stripes is unspecified, which a
/// monotonic counter does not care about.
#[derive(Debug, Default)]
pub struct StripedCounter {
    stripes: [PaddedAtomic; STRIPES],
}

/// Round-robin stripe assignment shared by all counters: each thread
/// gets one index for its lifetime, so a thread's increments always hit
/// the same cache line.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

impl StripedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        StripedCounter::default()
    }

    /// Adds `n` to the calling thread's stripe.
    pub fn add(&self, n: u64) {
        let idx = MY_STRIPE.with(|s| *s);
        self.stripes[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sums all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Histogram geometry: 60 buckets growing by √2 from 250 ns.
const BUCKETS: usize = 60;
const BUCKET_LO_NS: f64 = 250.0;
/// log2 of the per-bucket growth factor (√2 → 0.5).
const LOG2_GROWTH: f64 = 0.5;

/// Fixed-bucket log-spaced latency histogram with lock-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Number of fixed log-spaced buckets.
    pub const NUM_BUCKETS: usize = BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Bucket 0 holds samples in `(0, BUCKET_LO_NS]`; bucket `i > 0`
    /// holds `(upper(i-1), upper(i)]`. Keeping bucket 0's upper bound at
    /// exactly `BUCKET_LO_NS` means a sub-250 ns sample can never report
    /// a quantile above 250 ns.
    ///
    /// Public (with [`bucket_upper_ns`](Self::bucket_upper_ns)) so the
    /// boundary checks in `rtoss-verify` exercise the exact mapping the
    /// recorder uses.
    pub fn bucket_index(ns: f64) -> usize {
        if ns <= BUCKET_LO_NS {
            return 0;
        }
        let steps = ((ns / BUCKET_LO_NS).log2() / LOG2_GROWTH).floor() as usize;
        let mut idx = (steps + 1).min(BUCKETS - 1);
        // The log/floor above can overshoot by one when `ns` sits exactly
        // on (or within float error of) a bucket's upper bound: a sample
        // at upper(i) computed steps == i, landing it in bucket i+1 and
        // violating the half-open range documented above (RV021).
        while idx > 0 && ns <= Self::bucket_upper_ns(idx - 1) {
            idx -= 1;
        }
        idx
    }

    /// Upper bound of bucket `i` in nanoseconds (`upper(0) == BUCKET_LO_NS`).
    pub fn bucket_upper_ns(i: usize) -> f64 {
        BUCKET_LO_NS * 2f64.powf(LOG2_GROWTH * i as f64)
    }

    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(ns as f64)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of every recorded sample, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns() as f64 / n as f64 / 1e6
    }

    /// Quantile estimate in milliseconds: the upper bound of the bucket
    /// containing the sample at nearest rank `ceil(q·count)` (0 when
    /// empty). Same rank rule as an exact percentile over the raw
    /// samples, but resolved to a bucket upper bound — so the
    /// estimate is ≥ the exact nearest-rank sample and exceeds it by at
    /// most one bucket's resolution (bucket bounds grow by √2 per
    /// step). `histogram_quantile_agrees_with_nearest_rank` below pins
    /// this agreement on a shared sample set.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_ns(i) / 1e6;
            }
        }
        Self::bucket_upper_ns(BUCKETS - 1) / 1e6
    }

    /// Every bucket count, in bucket order. The last bucket also
    /// absorbs anything above its bound (the recorder clamps), so the
    /// counts always sum to [`count`](Self::count) once recording
    /// quiesces.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper bounds of every bucket in nanoseconds, in order.
    pub fn bucket_upper_bounds_ns() -> Vec<f64> {
        (0..BUCKETS).map(Self::bucket_upper_ns).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn striped_counter_is_exact_under_contention() {
        let c = Arc::new(StripedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_quantiles_bracket_true_values() {
        let h = LatencyHistogram::new();
        // 100 samples: 1 ms .. 100 ms.
        for i in 1..=100u64 {
            h.record(Duration::from_millis(i));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        // Bucket upper bounds: within a √2 factor above the true value.
        assert!((50.0..=75.0).contains(&p50), "p50 {p50}");
        assert!((99.0..=145.0).contains(&p99), "p99 {p99}");
        assert!((h.mean_ms() - 50.5).abs() < 0.5, "mean {}", h.mean_ms());
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn histogram_quantile_agrees_with_nearest_rank() {
        // Cross-check of the histogram against the exact percentile on
        // a shared sample set: the exact answer is the nearest-rank
        // sample (rank ceil(q·n) over the sorted raw values); the
        // histogram resolves the same rank to its bucket's upper
        // bound. The two must agree within one bucket's resolution —
        // estimate ≥ exact, and exact must not be below the bucket's
        // lower neighbour's bound.
        let mut samples_ns: Vec<f64> = Vec::new();
        // Deterministic spread over several decades, incl. repeats.
        for i in 1..=500u64 {
            let ns = 300.0 * (1.0 + (i % 97) as f64) * (1 + i / 100) as f64;
            samples_ns.push(ns);
        }
        let h = LatencyHistogram::new();
        for &ns in &samples_ns {
            h.record(Duration::from_nanos(ns as u64));
        }
        let mut sorted = samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for q in [0.50, 0.90, 0.95, 0.99, 1.0] {
            // Nearest rank: the sample at rank ceil(q·n), 1-based.
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact_ns = sorted[idx];
            let hist_ns = h.quantile_ms(q) * 1e6;
            assert!(
                hist_ns >= exact_ns - 1e-9,
                "q={q}: histogram {hist_ns} ns below exact nearest-rank {exact_ns} ns"
            );
            // Same bucket: the histogram's answer is the upper bound of
            // the bucket the exact sample falls into.
            let bucket = LatencyHistogram::bucket_index(exact_ns);
            let upper = LatencyHistogram::bucket_upper_ns(bucket);
            assert!(
                (hist_ns - upper).abs() < 1e-6,
                "q={q}: histogram {hist_ns} ns is not the exact sample's bucket upper \
                 bound {upper} ns — estimators diverge by more than one bucket"
            );
        }
    }

    #[test]
    fn sub_bucket_sample_reports_quantile_within_first_bucket() {
        // Regression: a 100 ns sample lands in bucket 0, whose reported
        // upper bound must be the bucket floor (250 ns), not one growth
        // step above it (~354 ns).
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        let p100_ns = h.quantile_ms(1.0) * 1e6;
        assert!(p100_ns <= 250.0, "quantile {p100_ns} ns exceeds bucket 0");
        assert!(p100_ns > 0.0);
    }

    #[test]
    fn bucket_boundaries_are_half_open_and_monotonic() {
        // A sample exactly on a bucket's upper bound belongs to that
        // bucket, not the next one (RV021 regression).
        for i in 0..LatencyHistogram::NUM_BUCKETS {
            let upper = LatencyHistogram::bucket_upper_ns(i);
            assert_eq!(
                LatencyHistogram::bucket_index(upper),
                i,
                "upper({i}) = {upper} ns"
            );
            if i + 1 < LatencyHistogram::NUM_BUCKETS {
                assert!(upper < LatencyHistogram::bucket_upper_ns(i + 1));
                assert_eq!(LatencyHistogram::bucket_index(upper * 1.0001), i + 1);
            }
        }
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(0.0) > 0.0);
        assert!(h.quantile_ms(1.0) >= h.quantile_ms(0.0));
    }
}
