//! Server-side metrics: lock-striped counters and log-spaced latency
//! histograms, with a serde-serializable snapshot.
//!
//! Counters are monotonic and striped across cache-line-padded atomics
//! so concurrent workers and clients never contend on one line.
//! Histograms use fixed log-spaced buckets (√2 growth from 250 ns, 60
//! buckets ≈ 250 ns … 3 min), giving ~±20 % quantile resolution with
//! O(1) lock-free recording — the classic serving-systems trade.

use rtoss_obs::timeseries::{WindowSpec, WindowedCounter, WindowedHistogram};
use serde::{Deserialize, Serialize};
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

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e6
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

    /// Snapshot of this histogram's headline statistics.
    pub fn stats(&self) -> PhaseStats {
        PhaseStats {
            count: self.count(),
            mean_ms: self.mean_ms(),
            p50_ms: self.quantile_ms(0.50),
            p95_ms: self.quantile_ms(0.95),
            p99_ms: self.quantile_ms(0.99),
        }
    }

    /// Full bucket-level snapshot (every bucket count plus the exact
    /// sum), for diffable reports and Prometheus exposition.
    pub fn full(&self) -> PhaseHistogram {
        PhaseHistogram {
            count: self.count(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Upper bounds of every bucket in nanoseconds, in order. The last
    /// bucket also absorbs anything larger (the recorder clamps), so
    /// `sum(buckets) == count` always holds for [`full`](Self::full).
    pub fn bucket_upper_bounds_ns() -> Vec<f64> {
        (0..BUCKETS).map(Self::bucket_upper_ns).collect()
    }
}

/// Headline latency statistics for one serving phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median (bucket upper bound), milliseconds.
    pub p50_ms: f64,
    /// 95th percentile (bucket upper bound), milliseconds.
    pub p95_ms: f64,
    /// 99th percentile (bucket upper bound), milliseconds.
    pub p99_ms: f64,
}

/// Full bucket-level view of one phase histogram: per-bucket counts in
/// the fixed log-spaced geometry (see
/// [`LatencyHistogram::bucket_upper_bounds_ns`]) plus the exact sample
/// sum. Unlike [`PhaseStats`] this loses nothing — two runs are
/// diffable bucket by bucket, and the Prometheus exposition is derived
/// from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts, `LatencyHistogram::NUM_BUCKETS` entries; the
    /// last bucket also holds everything above its bound, so the counts
    /// always sum to `count`.
    pub buckets: Vec<u64>,
}

/// Windowed time-series view of the respond path, recorded alongside
/// the monotonic counters when `rtoss_obs::series_enabled()` is on
/// (the recorders gate themselves — disabled cost is one relaxed
/// atomic load per call). Fleet-level SLO monitors sum trailing
/// ranges of these windows to compute deadline burn rates per
/// replica; the cumulative counters cannot answer "how bad were the
/// last two seconds", which is the question burn-rate alerting asks.
#[derive(Debug)]
pub struct ServerSeries {
    /// Requests served to completion, per aligned window.
    pub completed: WindowedCounter,
    /// Completed requests that missed their deadline, per aligned
    /// window.
    pub deadline_missed: WindowedCounter,
    /// End-to-end latency (submit → respond) in microseconds, windowed
    /// into coarse buckets for the flight recorder's post-mortem view.
    pub latency_us: WindowedHistogram,
}

impl Default for ServerSeries {
    fn default() -> Self {
        // Bounds in microseconds: 1 ms .. 1 s, log-ish spacing. Coarse
        // on purpose — the per-phase LatencyHistogram keeps the fine
        // geometry; these windows exist to localise a breach in time.
        const LATENCY_BOUNDS_US: [u64; 7] =
            [1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000];
        ServerSeries {
            completed: WindowedCounter::new(WindowSpec::default()),
            deadline_missed: WindowedCounter::new(WindowSpec::default()),
            latency_us: WindowedHistogram::new(WindowSpec::default(), &LATENCY_BOUNDS_US),
        }
    }
}

impl ServerSeries {
    /// Records one completed request at `ts_ns` (nanoseconds since the
    /// trace epoch): bumps the completion window, the miss window when
    /// `missed`, and the latency histogram window. A no-op (one atomic
    /// load per recorder) while series recording is disabled.
    pub fn record_completion(&self, ts_ns: u64, latency: Duration, missed: bool) {
        self.completed.incr_at(ts_ns);
        if missed {
            self.deadline_missed.incr_at(ts_ns);
        }
        let us = (latency.as_micros()).min(u128::from(u64::MAX)) as u64;
        self.latency_us.record_at(ts_ns, us);
    }

    /// Deadline-miss and completion counts `(missed, completed)`
    /// summed over the trailing `range_ns` ending at `now_ns` — the
    /// (bad, total) pair a deadline SLO monitor evaluates.
    pub fn deadline_range(&self, now_ns: u64, range_ns: u64) -> (u64, u64) {
        let (missed, _) = self.deadline_missed.range(now_ns, range_ns);
        let (completed, _) = self.completed.range(now_ns, range_ns);
        (missed, completed)
    }
}

/// All counters and histograms for one running server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Submission attempts while the queue was open. Every attempt ends
    /// up in exactly one of `completed`, `rejected`, `shed`, `failed`,
    /// or `shut_down`, so `submitted` equals their sum once all tickets
    /// have resolved.
    pub submitted: StripedCounter,
    /// Requests served to completion.
    pub completed: StripedCounter,
    /// Requests refused at submission (queue full).
    pub rejected: StripedCounter,
    /// Requests dropped by the `ShedExpired` policy.
    pub shed: StripedCounter,
    /// Completed requests that finished after their deadline.
    pub deadline_missed: StripedCounter,
    /// Worker panics caught (each also fails its in-flight batch).
    pub worker_panics: StripedCounter,
    /// Requests that failed with a model error.
    pub failed: StripedCounter,
    /// Submitted requests the server shut down before serving (drained
    /// at queue close, or woken from a blocked submit by shutdown).
    pub shut_down: StripedCounter,
    /// Micro-batches executed.
    pub batches: StripedCounter,
    /// Requests carried by those batches (mean batch size = this ÷ batches).
    pub batched_requests: StripedCounter,
    /// Modelled energy, microjoules (integer so it can be a counter).
    pub energy_uj: StripedCounter,
    /// Submit → popped from the queue.
    pub queue_wait: LatencyHistogram,
    /// Popped → batch closed.
    pub batch_assembly: LatencyHistogram,
    /// Batched forward pass.
    pub execute: LatencyHistogram,
    /// High-water mark of the served engine's activation-arena bytes
    /// across its compiled execution plans (0 until a compiled plan
    /// reports one). A gauge, not a counter: updated by max, so
    /// concurrent workers racing on it cannot lose the peak.
    pub peak_activation_bytes: AtomicU64,
    /// Windowed respond-path series (inert unless
    /// `rtoss_obs::series_enabled()`); not part of
    /// [`MetricsSnapshot`] — fleet telemetry reads it live through its
    /// `Arc<ServerMetrics>`.
    pub series: ServerSeries,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// Raises the peak-activation-bytes high-water mark to `bytes` if
    /// it is higher than the current value.
    pub fn record_peak_activation_bytes(&self, bytes: u64) {
        self.peak_activation_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting. Counters are
    /// read individually (monotonic, so each value is exact even if the
    /// set is not an atomic cut).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            rejected: self.rejected.get(),
            shed: self.shed.get(),
            deadline_missed: self.deadline_missed.get(),
            worker_panics: self.worker_panics.get(),
            failed: self.failed.get(),
            shut_down: self.shut_down.get(),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            energy_j: self.energy_uj.get() as f64 / 1e6,
            peak_activation_bytes: self.peak_activation_bytes.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.stats(),
            batch_assembly: self.batch_assembly.stats(),
            execute: self.execute.stats(),
            queue_wait_hist: self.queue_wait.full(),
            batch_assembly_hist: self.batch_assembly.full(),
            execute_hist: self.execute.full(),
        }
    }
}

/// Serializable point-in-time view of [`ServerMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Submission attempts while the queue was open.
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at submission.
    pub rejected: u64,
    /// Requests dropped by `ShedExpired`.
    pub shed: u64,
    /// Completed requests that missed their deadline.
    pub deadline_missed: u64,
    /// Worker panics caught.
    pub worker_panics: u64,
    /// Requests failed with a model error.
    pub failed: u64,
    /// Submitted requests taken by shutdown before serving.
    pub shut_down: u64,
    /// Mean micro-batch size over the run.
    pub mean_batch_size: f64,
    /// Modelled energy, joules.
    pub energy_j: f64,
    /// High-water mark of the served engine's activation-arena bytes
    /// (0 until a compiled plan reports one, or for models without
    /// plans).
    pub peak_activation_bytes: u64,
    /// Queue-wait phase statistics.
    pub queue_wait: PhaseStats,
    /// Batch-assembly phase statistics.
    pub batch_assembly: PhaseStats,
    /// Execute phase statistics.
    pub execute: PhaseStats,
    /// Queue-wait phase, full bucket counts.
    pub queue_wait_hist: PhaseHistogram,
    /// Batch-assembly phase, full bucket counts.
    pub batch_assembly_hist: PhaseHistogram,
    /// Execute phase, full bucket counts.
    pub execute_hist: PhaseHistogram,
}

impl MetricsSnapshot {
    /// The three phase histograms with their exposition names, in a
    /// fixed order (`queue_wait`, `batch_assembly`, `execute`).
    pub fn phase_histograms(&self) -> [(&'static str, &PhaseHistogram); 3] {
        [
            ("queue_wait", &self.queue_wait_hist),
            ("batch_assembly", &self.batch_assembly_hist),
            ("execute", &self.execute_hist),
        ]
    }

    /// Renders the snapshot in Prometheus text exposition format:
    /// every counter as `rtoss_<name>_total`, the batch-size and
    /// energy gauges, and each phase histogram as
    /// `rtoss_<phase>_seconds` with the full log-bucket geometry
    /// (bounds converted to seconds).
    pub fn to_prometheus(&self) -> String {
        use rtoss_obs::prom::{render, PromHistogram, PromMetric, PromValue};
        let counters: [(&str, &str, u64); 8] = [
            (
                "submitted",
                "Submission attempts while the queue was open",
                self.submitted,
            ),
            ("completed", "Requests served to completion", self.completed),
            (
                "rejected",
                "Requests refused at submission (queue full)",
                self.rejected,
            ),
            (
                "shed",
                "Requests dropped by the ShedExpired policy",
                self.shed,
            ),
            (
                "deadline_missed",
                "Completed requests that finished after their deadline",
                self.deadline_missed,
            ),
            ("worker_panics", "Worker panics caught", self.worker_panics),
            ("failed", "Requests failed with a model error", self.failed),
            (
                "shut_down",
                "Submitted requests taken by shutdown before serving",
                self.shut_down,
            ),
        ];
        let mut metrics = Vec::new();
        for (name, help, v) in counters {
            metrics.push(PromMetric::counter(
                format!("rtoss_{name}_total"),
                help,
                v as f64,
            ));
        }
        metrics.push(PromMetric::gauge(
            "rtoss_mean_batch_size",
            "Mean micro-batch size over the run",
            self.mean_batch_size,
        ));
        metrics.push(PromMetric::counter(
            "rtoss_energy_joules_total",
            "Modelled energy consumed, joules",
            self.energy_j,
        ));
        metrics.push(PromMetric::gauge(
            "rtoss_peak_activation_bytes",
            "Peak activation-arena bytes across the engine's compiled execution plans",
            self.peak_activation_bytes as f64,
        ));
        let upper_bounds_s: Vec<f64> = LatencyHistogram::bucket_upper_bounds_ns()
            .into_iter()
            .map(|ns| ns / 1e9)
            .collect();
        for (phase, hist) in self.phase_histograms() {
            metrics.push(PromMetric {
                name: format!("rtoss_{phase}_seconds"),
                help: format!("Latency of the {phase} serving phase"),
                labels: Vec::new(),
                value: PromValue::Histogram(PromHistogram {
                    upper_bounds: upper_bounds_s.clone(),
                    counts: hist.buckets.clone(),
                    sum: hist.sum_ns as f64 / 1e9,
                    count: hist.count,
                }),
            });
        }
        render(&metrics)
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

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = ServerMetrics::new();
        m.submitted.add(10);
        m.completed.add(9);
        m.shed.incr();
        m.batches.add(3);
        m.batched_requests.add(9);
        m.energy_uj.add(1_500_000);
        m.queue_wait.record(Duration::from_micros(80));
        m.execute.record(Duration::from_millis(4));
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"completed\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        assert_eq!(back, snap);
        assert_eq!(back.energy_j, 1.5);
        assert_eq!(back.mean_batch_size, 3.0);
        // The full bucket counts ride along and survive the round trip.
        assert_eq!(back.queue_wait_hist.count, 1);
        assert_eq!(
            back.queue_wait_hist.buckets.iter().sum::<u64>(),
            back.queue_wait_hist.count
        );
        assert_eq!(
            back.execute_hist.buckets.len(),
            LatencyHistogram::NUM_BUCKETS
        );
    }

    #[test]
    fn peak_activation_bytes_is_a_high_water_mark() {
        let m = ServerMetrics::new();
        assert_eq!(m.snapshot().peak_activation_bytes, 0);
        m.record_peak_activation_bytes(4096);
        m.record_peak_activation_bytes(1024); // lower: must not regress
        assert_eq!(m.snapshot().peak_activation_bytes, 4096);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE rtoss_peak_activation_bytes gauge"));
        assert!(text.contains("rtoss_peak_activation_bytes 4096"));
    }

    #[test]
    fn prometheus_exposition_round_trips_bucket_counts() {
        let m = ServerMetrics::new();
        m.submitted.add(5);
        m.completed.add(5);
        m.execute.record(Duration::from_millis(2));
        m.execute.record(Duration::from_millis(2));
        m.execute.record(Duration::from_micros(10));
        let snap = m.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE rtoss_execute_seconds histogram"));
        assert!(text.contains("rtoss_submitted_total 5"));
        let samples = rtoss_obs::prom::parse(&text).expect("own exposition parses");
        // Cumulative bucket counts must reconstruct the snapshot's.
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "rtoss_execute_seconds_bucket")
            .map(|s| s.value)
            .collect();
        assert_eq!(buckets.len(), LatencyHistogram::NUM_BUCKETS + 1);
        let mut cumulative = 0u64;
        for (i, c) in snap.execute_hist.buckets.iter().enumerate() {
            cumulative += c;
            assert_eq!(buckets[i], cumulative as f64, "bucket {i}");
        }
        assert_eq!(*buckets.last().unwrap(), snap.execute_hist.count as f64);
        let count = samples
            .iter()
            .find(|s| s.name == "rtoss_execute_seconds_count")
            .unwrap();
        assert_eq!(count.value, 3.0);
    }
}
