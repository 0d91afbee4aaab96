//! The benchmark's own open-loop load generator.
//!
//! One thread walks a seeded Poisson schedule and submits each request
//! at the instant it is *due*; one collector thread resolves the
//! tickets as they complete, so no ticket is held until the schedule
//! ends. A request's latency is counted from its due time: the
//! generator's lateness plus the response's own `timing.total()`, and
//! that sum is cross-checked against the completion the collector
//! observed. (`rtoss_serve::loadgen` and `rtoss_fleet::loadgen` time
//! from the submit call and wait for every ticket only after the last
//! submit, which hides exactly the stalls an open loop exists to show.)

use crate::trace::Tracer;
use rand::Rng;
use rtoss_serve::{InferenceResponse, RequestError, RequestResult, Ticket};
use rtoss_tensor::{init, Tensor};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// A traffic source of the schedule: its share of arrivals and the
/// number of distinct streams (routing keys) it spreads them over.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// Relative share of arrivals.
    pub weight: f64,
    /// Distinct streams of this source.
    pub streams: usize,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Offset from the start of the run at which the request is due.
    pub due: Duration,
    /// Index into the frame pool.
    pub frame: usize,
    /// Index into the sources.
    pub source: usize,
    /// Stream of that source.
    pub stream: usize,
    /// Bucket of the run (lead-in, measured window, …) the request is due in;
    /// everything measured about it is filed there.
    pub bucket: usize,
}

/// A Poisson schedule at a fixed `rate_per_s` over consecutive buckets
/// of the given lengths, drawn from `seed` alone: the same seed gives
/// the same arrivals. The process is conditioned on its count — each
/// bucket gets exactly `rate_per_s × length` arrivals at sorted uniform
/// instants, which is what a Poisson process looks like given how many
/// points fell in the window — so every seed and every bucket offers
/// the same number of requests and only their spacing varies.
pub fn poisson_arrivals(
    seed: u64,
    rate_per_s: f64,
    buckets: &[Duration],
    sources: &[Source],
    pool_frames: usize,
) -> Vec<Arrival> {
    let mut rng = init::rng(seed ^ 0x10AD_6E4E);
    let total_weight: f64 = sources.iter().map(|s| s.weight).sum();
    let mut out = Vec::new();
    let mut offset = 0.0f64;
    for (bucket, length) in buckets.iter().enumerate() {
        let length = length.as_secs_f64();
        let count = (rate_per_s * length).round() as usize;
        let mut due: Vec<f64> = (0..count)
            .map(|_| offset + rng.gen_range(0.0..length.max(f64::MIN_POSITIVE)))
            .collect();
        due.sort_by(f64::total_cmp);
        for t in due {
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut source = sources.len() - 1;
            for (i, s) in sources.iter().enumerate() {
                if pick < s.weight {
                    source = i;
                    break;
                }
                pick -= s.weight;
            }
            out.push(Arrival {
                due: Duration::from_secs_f64(t),
                frame: rng.gen_range(0..pool_frames),
                source,
                stream: rng.gen_range(0..sources[source].streams.max(1)),
                bucket,
            });
        }
        offset += length;
    }
    out
}

/// What a submit call returned.
pub enum Submitted {
    /// Accepted; resolves later.
    Ticket(Ticket),
    /// Refused by policy at the door.
    Refused(Refusal),
    /// The call failed outright.
    Failed(String),
}

/// A policy refusal: the system working as configured, not an error.
/// Every refusal misses the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The queue was full.
    Rejected,
    /// Shed by admission pressure or as already past its deadline.
    Shed,
    /// The tenant quota was exhausted.
    Throttled,
}

/// Everything measured about the requests due in one bucket of an
/// open-loop run.
#[derive(Debug, Default)]
pub struct OpenLoopStats {
    /// Requests submitted (one per scheduled arrival).
    pub sent: u64,
    /// Responses received with a verified output.
    pub completed: u64,
    /// Verified responses the collector saw arrive while this bucket's
    /// time window was open, whichever bucket they were due in: the
    /// numerator of completions per wall second.
    pub completed_in_window: u64,
    /// Completed requests whose latency from due time met the deadline.
    pub hits: u64,
    /// Errors, lost requests, wrong outputs, timing contradictions.
    pub failed: u64,
    /// Refused at the submit call, by kind.
    pub rejected: u64,
    /// Refused at the submit call as shed (fleet admission).
    pub admission_shed: u64,
    /// Refused at the submit call as throttled.
    pub throttled: u64,
    /// Accepted, then shed from the queue as expired.
    pub queue_shed: u64,
    /// Latency from due time of each completed request, ms.
    pub latency_ms: Vec<f64>,
    /// Generator lateness of every sent request, ms.
    pub lag_ms: Vec<f64>,
    /// Duration of every submit call, µs.
    pub submit_us: Vec<f64>,
    /// `timing.queue_wait` of completed requests, ms.
    pub queue_wait_ms: Vec<f64>,
    /// `timing.batch_assembly` of completed requests, ms.
    pub batch_assembly_ms: Vec<f64>,
    /// `timing.execute` of completed requests, ms.
    pub execute_ms: Vec<f64>,
    /// Micro-batch size each completed request rode in.
    pub batch_sizes: Vec<f64>,
    /// Observed completion − submit return − `timing.total()`, ms: what
    /// the respond path adds after the timed phases (floored at 0).
    pub respond_gap_ms: Vec<f64>,
    /// Observed completion − submit call − `timing.total()`, ms: all the
    /// path adds around the timed phases, the submit call included.
    pub path_overhead_ms: Vec<f64>,
    /// Σ latency from due time over completed requests, ms.
    pub attributed_ms: f64,
    /// Σ (observed completion − due) over completed requests, ms.
    pub observed_ms: f64,
    /// Completed requests by the tier whose oracle output they matched.
    pub tier_counts: [u64; 3],
    /// Sent and deadline hits per source.
    pub per_source: Vec<(u64, u64)>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl OpenLoopStats {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// `sent == completed + refused + failed`, the client-side ledger.
    pub fn conserved(&self) -> bool {
        self.sent
            == self.completed
                + self.failed
                + self.rejected
                + self.admission_shed
                + self.throttled
                + self.queue_shed
    }
}

/// How one open-loop run is driven and judged.
pub struct OpenLoop<'a> {
    /// The schedule.
    pub arrivals: &'a [Arrival],
    /// Length of each bucket the arrivals index, in order.
    pub buckets: &'a [Duration],
    /// The one bucket whose requests are traced, if any.
    pub traced_bucket: Option<usize>,
    /// Called by the generator as it enters each bucket, before the
    /// bucket's first submit.
    pub on_bucket: &'a mut dyn FnMut(usize),
    /// Number of sources the arrivals index.
    pub sources: usize,
    /// Fixed latency limit, from due time.
    pub deadline: Duration,
    /// Span name of the submit call (`serve.submit` / `fleet.submit`).
    pub submit_span: &'static str,
    /// Submits one arrival.
    pub submit: &'a mut dyn FnMut(&Arrival) -> Submitted,
    /// Which tier's oracle output `outputs` equals bit for bit on pool
    /// frame `frame`; `None` is a wrong output.
    pub classify: &'a (dyn Fn(usize, &[Tensor]) -> Option<usize> + Sync),
}

/// A request the generator has submitted, as the collector tracks it
/// until it resolves.
struct Waiting {
    seq: u64,
    bucket: usize,
    due: Instant,
    call_at: Instant,
    returned_at: Instant,
    frame: usize,
    source: usize,
}

/// How long before a request is due the generator stops sleeping and
/// spins: a sleeping thread wakes up to a scheduler slice late, a
/// spinning one is on its vCPU when the instant comes.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Generator lateness (p99, ms) above which a phase is flagged: the
/// lateness is part of every latency counted from due time, so past
/// this the benchmark, not the code under test, sets the tail.
pub const LAG_LIMIT_MS: f64 = 1.0;

/// How long the collector blocks on the oldest ticket before it sweeps
/// the others: bounds the error of an out-of-order completion's
/// observed time without a spinning poll.
const COLLECT_POLL: Duration = Duration::from_millis(1);

/// Slack allowed when the observed completion is checked against
/// submit + `timing.total()` (they are read from the same clock).
const CLOCK_SLACK: Duration = Duration::from_micros(50);

struct Collector<'a> {
    stats: Vec<OpenLoopStats>,
    /// Start of the schedule and the offset each bucket ends at.
    start: Instant,
    bucket_ends: Vec<Duration>,
    tr: Tracer,
    traced_bucket: Option<usize>,
    deadline: Duration,
    classify: &'a (dyn Fn(usize, &[Tensor]) -> Option<usize> + Sync),
}

impl Collector<'_> {
    fn resolve(&mut self, w: Waiting, result: RequestResult, observed_at: Instant) {
        match result {
            Ok(resp) => self.completed(w, resp, observed_at),
            Err(RequestError::Shed) => self.stats[w.bucket].queue_shed += 1,
            Err(RequestError::Rejected) => self.stats[w.bucket].rejected += 1,
            Err(e) => self.stats[w.bucket].fail(format!("request {}: {e}", w.seq)),
        }
    }

    fn completed(&mut self, w: Waiting, resp: InferenceResponse, observed_at: Instant) {
        let Some(tier) = (self.classify)(w.frame, &resp.outputs) else {
            self.stats[w.bucket].fail(format!(
                "request {}: output matches no tier's oracle on frame {}",
                w.seq, w.frame
            ));
            return;
        };
        let total = resp.timing.total();
        if observed_at + CLOCK_SLACK < w.call_at + total {
            self.stats[w.bucket].fail(format!(
                "request {}: timing.total() {:?} exceeds the observed completion {:?}",
                w.seq,
                total,
                observed_at - w.call_at
            ));
            return;
        }
        let st = &mut self.stats[w.bucket];
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let lateness = w.call_at - w.due;
        let latency = lateness + total;
        st.completed += 1;
        let since_start = observed_at - self.start;
        if let Some(window) = self.bucket_ends.iter().position(|end| since_start < *end) {
            self.stats[window].completed_in_window += 1;
        }
        let st = &mut self.stats[w.bucket];
        st.tier_counts[tier] += 1;
        st.latency_ms.push(ms(latency));
        if latency <= self.deadline {
            st.hits += 1;
            st.per_source[w.source].1 += 1;
        }
        st.queue_wait_ms.push(ms(resp.timing.queue_wait));
        st.batch_assembly_ms.push(ms(resp.timing.batch_assembly));
        st.execute_ms.push(ms(resp.timing.execute));
        st.batch_sizes.push(resp.batch_size as f64);
        st.respond_gap_ms.push(ms(
            observed_at.saturating_duration_since(w.returned_at + total)
        ));
        st.path_overhead_ms
            .push(ms(observed_at.saturating_duration_since(w.call_at + total)));
        st.attributed_ms += ms(latency);
        st.observed_ms += ms(observed_at - w.due);

        self.tr.set_on(self.traced_bucket == Some(w.bucket));
        let root = self.tr.record("request", w.seq, w.due, observed_at, None);
        if root.is_some() {
            let t = &resp.timing;
            let popped = w.call_at + t.queue_wait;
            let exec_start = popped + t.batch_assembly;
            self.tr
                .record("loadgen.lateness", w.seq, w.due, w.call_at, root);
            self.tr
                .record("serve.queue_wait", w.seq, w.call_at, popped, root);
            self.tr
                .record("serve.batch_assembly", w.seq, popped, exec_start, root);
            self.tr.record(
                "serve.execute",
                w.seq,
                exec_start,
                exec_start + t.execute,
                root,
            );
        }
    }

    fn take(
        &mut self,
        (w, submitted): (Waiting, Submitted),
        pending: &mut VecDeque<(Waiting, Ticket)>,
    ) {
        let st = &mut self.stats[w.bucket];
        st.sent += 1;
        st.per_source[w.source].0 += 1;
        st.lag_ms.push((w.call_at - w.due).as_secs_f64() * 1e3);
        st.submit_us
            .push((w.returned_at - w.call_at).as_secs_f64() * 1e6);
        match submitted {
            Submitted::Ticket(ticket) => pending.push_back((w, ticket)),
            Submitted::Refused(Refusal::Rejected) => st.rejected += 1,
            Submitted::Refused(Refusal::Shed) => st.admission_shed += 1,
            Submitted::Refused(Refusal::Throttled) => st.throttled += 1,
            Submitted::Failed(msg) => st.fail(format!("submit {}: {msg}", w.seq)),
        }
    }

    fn run(&mut self, rx: Receiver<(Waiting, Submitted)>) {
        let mut pending: VecDeque<(Waiting, Ticket)> = VecDeque::new();
        let mut open = true;
        while open || !pending.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(sent) => self.take(sent, &mut pending),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            let Some((w, ticket)) = pending.pop_front() else {
                if open {
                    match rx.recv() {
                        Ok(sent) => self.take(sent, &mut pending),
                        Err(_) => open = false,
                    }
                }
                continue;
            };
            // Block on the oldest ticket, then look at every other one
            // without blocking, so a completion that overtook it is
            // seen at most one poll late.
            let mut still: VecDeque<(Waiting, Ticket)> = VecDeque::with_capacity(pending.len() + 1);
            match ticket.wait_timeout(COLLECT_POLL) {
                Ok(result) => self.resolve(w, result, Instant::now()),
                Err(ticket) => still.push_back((w, ticket)),
            }
            for (w, ticket) in pending.drain(..) {
                match ticket.wait_timeout(Duration::ZERO) {
                    Ok(result) => self.resolve(w, result, Instant::now()),
                    Err(ticket) => still.push_back((w, ticket)),
                }
            }
            pending = still;
        }
    }
}

/// What an open-loop run measured.
pub struct OpenLoopRun {
    /// Per-bucket statistics, by the bucket each request was due in.
    pub buckets: Vec<OpenLoopStats>,
    /// Process CPU seconds read as the generator entered each bucket,
    /// and once more after the last ticket resolved.
    pub cpu_marks: Vec<f64>,
}

/// Runs one open-loop schedule to completion: every arrival is
/// submitted at its due time and every ticket is resolved before this
/// returns. Spans of the traced bucket go to `tr` (submit calls) and a
/// forked buffer of the collector thread (requests and their phases),
/// merged at the end; `tr` is left switched off.
pub fn run_open_loop(job: OpenLoop<'_>, tr: &mut Tracer) -> OpenLoopRun {
    let (tx, rx) = mpsc::channel::<(Waiting, Submitted)>();
    let start = Instant::now();
    let mut collector = Collector {
        stats: job
            .buckets
            .iter()
            .map(|_| OpenLoopStats {
                per_source: vec![(0, 0); job.sources],
                ..OpenLoopStats::default()
            })
            .collect(),
        start,
        bucket_ends: job
            .buckets
            .iter()
            .scan(Duration::ZERO, |end, len| {
                *end += *len;
                Some(*end)
            })
            .collect(),
        tr: tr.fork(),
        traced_bucket: job.traced_bucket,
        deadline: job.deadline,
        classify: job.classify,
    };
    let cpu = || crate::host::cpu_seconds().unwrap_or(0.0);
    let mut cpu_marks = Vec::with_capacity(job.buckets.len() + 1);
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            collector.run(rx);
            collector
        });
        for (seq, arrival) in job.arrivals.iter().enumerate() {
            let due = start + arrival.due;
            if let Some(idle) = due
                .saturating_duration_since(Instant::now())
                .checked_sub(SPIN_BEFORE_DUE)
            {
                std::thread::sleep(idle);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            while cpu_marks.len() <= arrival.bucket {
                tr.set_on(job.traced_bucket == Some(cpu_marks.len()));
                (job.on_bucket)(cpu_marks.len());
                cpu_marks.push(cpu());
            }
            let call_at = Instant::now();
            let submitted = (job.submit)(arrival);
            let returned_at = Instant::now();
            tr.record(job.submit_span, seq as u64, call_at, returned_at, None);
            let sent = Waiting {
                seq: seq as u64,
                bucket: arrival.bucket,
                due,
                call_at,
                returned_at,
                frame: arrival.frame,
                source: arrival.source,
            };
            if tx.send((sent, submitted)).is_err() {
                break;
            }
        }
        drop(tx);
        let collector = handle.join().expect("collector thread panicked");
        tr.set_on(false);
        tr.merge(collector.tr);
        while cpu_marks.len() <= job.buckets.len() {
            cpu_marks.push(cpu());
        }
        OpenLoopRun {
            buckets: collector.stats,
            cpu_marks,
        }
    })
}
