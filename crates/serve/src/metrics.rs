//! Server-side metrics: which counters and phase histograms a server
//! keeps, and their serde-serializable snapshot.
//!
//! The primitives themselves ([`StripedCounter`], [`LatencyHistogram`])
//! live in `rtoss_obs::metrics`; this module only declares them and
//! renders the snapshot.

use rtoss_obs::metrics::{LatencyHistogram, StripedCounter};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

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

impl PhaseStats {
    /// Headline statistics of `h`.
    pub fn of(h: &LatencyHistogram) -> Self {
        PhaseStats {
            count: h.count(),
            mean_ms: h.mean_ms(),
            p50_ms: h.quantile_ms(0.50),
            p95_ms: h.quantile_ms(0.95),
            p99_ms: h.quantile_ms(0.99),
        }
    }
}

impl PhaseHistogram {
    /// Every bucket count of `h` plus its exact sum.
    pub fn of(h: &LatencyHistogram) -> Self {
        PhaseHistogram {
            count: h.count(),
            sum_ns: h.sum_ns(),
            buckets: h.bucket_counts(),
        }
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
            peak_activation_bytes: self.peak_activation_bytes.load(Ordering::Relaxed),
            queue_wait: PhaseStats::of(&self.queue_wait),
            batch_assembly: PhaseStats::of(&self.batch_assembly),
            execute: PhaseStats::of(&self.execute),
            queue_wait_hist: PhaseHistogram::of(&self.queue_wait),
            batch_assembly_hist: PhaseHistogram::of(&self.batch_assembly),
            execute_hist: PhaseHistogram::of(&self.execute),
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
    /// peak-activation gauges, and each phase histogram as
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
    use std::time::Duration;

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = ServerMetrics::new();
        m.submitted.add(10);
        m.completed.add(9);
        m.shed.incr();
        m.batches.add(3);
        m.batched_requests.add(9);
        m.queue_wait.record(Duration::from_micros(80));
        m.execute.record(Duration::from_millis(4));
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"completed\""));
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        assert_eq!(back, snap);
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
