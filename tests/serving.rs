//! Integration tests for the serving subsystem: batched-vs-direct
//! equivalence on a real pruned engine, load shedding under synthetic
//! overload, panic isolation, and a traced live server whose exports
//! pass the RV040–RV044 checks.

use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::obs;
use rtoss::serve::{
    BackpressurePolicy, ExecConfig, RequestError, ServeConfig, ServeModel, Server, Ticket,
};
use rtoss::sparse::SparseModel;
use rtoss::tensor::{init, Tensor};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Tracing is process-wide: the traced test holds this gate
/// exclusively so no other test's server writes into its trace.
static TRACE_GATE: RwLock<()> = RwLock::new(());

fn untraced() -> RwLockReadGuard<'static, ()> {
    TRACE_GATE.read().unwrap_or_else(|e| e.into_inner())
}

fn traced() -> RwLockWriteGuard<'static, ()> {
    TRACE_GATE.write().unwrap_or_else(|e| e.into_inner())
}

fn pruned_engine(entry: EntryPattern, seed: u64) -> SparseModel {
    let mut model = rtoss::models::yolov5s_twin(4, 2, seed).expect("model builds");
    RTossPruner::new(entry)
        .prune_graph(&mut model.graph)
        .expect("prunes");
    SparseModel::compile(&model.graph).expect("compiles")
}

fn probe(seed: u64) -> Tensor {
    init::uniform(&mut init::rng(seed), &[1, 3, 32, 32], 0.0, 1.0)
}

/// (a) A request served through the queue/micro-batch/worker path gets
/// outputs bit-identical to calling the engine directly — and requests
/// really do ride in shared batches.
#[test]
fn served_outputs_are_bit_identical_to_direct_execution() {
    let _gate = untraced();
    let reference = pruned_engine(EntryPattern::Two, 5);
    let server = Server::start(
        Arc::new(pruned_engine(EntryPattern::Two, 5)),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: Duration::from_millis(50),
            policy: BackpressurePolicy::Block,
            ..ServeConfig::default()
        },
    );
    let inputs: Vec<Tensor> = (0..8).map(|i| probe(200 + i)).collect();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|x| server.submit(x.clone(), None).expect("submit"))
        .collect();
    let mut max_batch = 0;
    for (x, t) in inputs.iter().zip(tickets) {
        let resp = t.wait().expect("served");
        max_batch = max_batch.max(resp.batch_size);
        let direct = reference.forward(x).expect("direct forward");
        assert_eq!(resp.outputs.len(), direct.len());
        for (served, want) in resp.outputs.iter().zip(&direct) {
            assert_eq!(served.shape(), want.shape());
            assert_eq!(
                served.as_slice(),
                want.as_slice(),
                "served output differs from direct execution"
            );
        }
    }
    assert!(max_batch >= 2, "no micro-batching observed");
    let m = server.metrics();
    server.shutdown();
    let snap = m.snapshot();
    assert_eq!(snap.completed, 8);
    assert!(
        snap.mean_batch_size > 1.0,
        "mean batch {}",
        snap.mean_batch_size
    );
}

/// A model with a controllable service time (and optional poison input).
struct SlowEcho {
    delay: Duration,
    panic_on_value: Option<f32>,
}

impl ServeModel for SlowEcho {
    fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
        if let Some(v) = self.panic_on_value {
            if batch.as_slice().contains(&v) {
                panic!("poison value {v}");
            }
        }
        std::thread::sleep(self.delay);
        Ok(vec![batch.clone()])
    }
}

/// (b) Under overload with `ShedExpired`, late requests are shed while
/// the requests that *do* complete keep a bounded p99 — instead of the
/// unbounded queueing delay a policy-free queue would produce.
#[test]
fn overload_sheds_expired_requests_and_bounds_completed_p99() {
    let _gate = untraced();
    let service_time = Duration::from_millis(10);
    let deadline = Duration::from_millis(60);
    let server = Server::start(
        Arc::new(SlowEcho {
            delay: service_time,
            panic_on_value: None,
        }),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            batch_timeout: Duration::ZERO,
            queue_capacity: 128,
            policy: BackpressurePolicy::ShedExpired,
            ..ServeConfig::default()
        },
    );
    // Offered load: 100 requests at once into a 100 req/s server —
    // draining the backlog alone would take ~1 s, far past the 60 ms
    // deadline for most of the queue.
    let total = 100;
    let tickets: Vec<Ticket> = (0..total)
        .map(|i| {
            server
                .submit(Tensor::full(&[1, 1, 2, 2], i as f32), Some(deadline))
                .expect("queue has room")
        })
        .collect();
    let mut completed_e2e_ms: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(resp) => completed_e2e_ms.push(resp.timing.total().as_secs_f64() * 1e3),
            Err(RequestError::Shed) => shed += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    let m = server.metrics();
    server.shutdown();
    let snap = m.snapshot();

    assert!(shed > 0, "overload produced no shedding");
    assert_eq!(snap.shed, shed);
    assert!(!completed_e2e_ms.is_empty(), "nothing completed");
    assert_eq!(snap.completed as usize, completed_e2e_ms.len());

    completed_e2e_ms.sort_by(|a, b| a.total_cmp(b));
    let p99 = completed_e2e_ms[(completed_e2e_ms.len() * 99 / 100).min(completed_e2e_ms.len() - 1)];
    // Completed requests stopped being popped once past the deadline, so
    // their end-to-end time is bounded by deadline + one service time
    // (generous slack for scheduler jitter). Without shedding the tail
    // would reach ~total * service_time = 1000 ms.
    let bound_ms = (deadline + 4 * service_time).as_secs_f64() * 1e3;
    assert!(
        p99 < bound_ms,
        "completed p99 {p99:.1} ms exceeds shedding bound {bound_ms:.1} ms"
    );
}

/// The timing split: `execute` is pure model time while `batch_assembly`
/// absorbs straggler-waiting *and* input stacking. A model that sleeps
/// 25 ms must show all of that sleep in `execute` and none of it in
/// `batch_assembly`.
#[test]
fn execute_timing_excludes_batch_assembly() {
    let _gate = untraced();
    let delay = Duration::from_millis(25);
    let server = Server::start(
        Arc::new(SlowEcho {
            delay,
            panic_on_value: None,
        }),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let resp = server
        .submit(Tensor::full(&[1, 1, 2, 2], 1.0), None)
        .expect("submit")
        .wait()
        .expect("served");
    server.shutdown();
    assert!(
        resp.timing.execute >= delay,
        "execute {:?} lost model time (model slept {delay:?})",
        resp.timing.execute
    );
    assert!(
        resp.timing.batch_assembly < delay,
        "batch_assembly {:?} absorbed model time",
        resp.timing.batch_assembly
    );
}

/// Under concurrent producers and every backpressure policy, the
/// terminal counters partition the submission attempts exactly:
/// `submitted == completed + rejected + shed + failed` once every
/// ticket has resolved.
#[test]
fn concurrent_stress_counters_partition_all_submissions() {
    let _gate = untraced();
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::RejectWhenFull,
        BackpressurePolicy::ShedExpired,
    ] {
        let server = Server::start(
            Arc::new(SlowEcho {
                delay: Duration::from_micros(500),
                panic_on_value: None,
            }),
            ServeConfig {
                workers: 2,
                queue_capacity: 4,
                policy,
                max_batch: 4,
                batch_timeout: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let producers = 4usize;
        let per_producer = 30usize;
        let deadline = match policy {
            // Tight enough that the slow model sheds part of the queue.
            BackpressurePolicy::ShedExpired => Some(Duration::from_millis(2)),
            _ => None,
        };
        std::thread::scope(|s| {
            for p in 0..producers {
                let server = &server;
                s.spawn(move || {
                    for i in 0..per_producer {
                        let x = Tensor::full(&[1, 1, 2, 2], (p * per_producer + i) as f32);
                        match server.submit(x, deadline) {
                            Ok(ticket) => match ticket.wait() {
                                Ok(_) | Err(RequestError::Shed) => {}
                                Err(e) => panic!("unexpected ticket outcome: {e}"),
                            },
                            Err(RequestError::Rejected) | Err(RequestError::Shed) => {}
                            Err(e) => panic!("unexpected submit outcome: {e}"),
                        }
                    }
                });
            }
        });
        // Every ticket has resolved, so the partition must be exact.
        let snap = server.metrics().snapshot();
        server.shutdown();
        assert_eq!(
            snap.submitted,
            (producers * per_producer) as u64,
            "{policy:?}: every open-queue attempt counts as submitted"
        );
        assert_eq!(
            snap.submitted,
            snap.completed + snap.rejected + snap.shed + snap.failed,
            "{policy:?}: counters do not partition submissions: {snap:?}"
        );
    }
}

/// (c) A poisoned batch panics the model; the batch fails, the panic is
/// counted, and the server keeps serving afterwards.
#[test]
fn panicking_model_leaves_server_healthy() {
    let _gate = untraced();
    let server = Server::start(
        Arc::new(SlowEcho {
            delay: Duration::ZERO,
            panic_on_value: Some(-99.0),
        }),
        ServeConfig {
            workers: 2,
            max_batch: 2,
            batch_timeout: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    );
    let poisoned = server
        .submit(Tensor::full(&[1, 1, 2, 2], -99.0), None)
        .expect("submit");
    match poisoned.wait() {
        Err(RequestError::Failed(msg)) => assert!(msg.contains("panic"), "msg: {msg}"),
        other => panic!("poisoned request should fail, got {other:?}"),
    }
    // The server still serves correctly after the panic.
    for i in 0..10 {
        let x = Tensor::full(&[1, 1, 2, 2], i as f32);
        let resp = server
            .submit(x.clone(), None)
            .expect("submit")
            .wait()
            .expect("healthy after panic");
        assert_eq!(resp.outputs[0].as_slice(), x.as_slice());
    }
    let m = server.metrics();
    server.shutdown();
    let snap = m.snapshot();
    assert!(snap.worker_panics >= 1, "panic not counted");
    assert!(snap.failed >= 1);
    assert_eq!(snap.completed, 10);
}

/// (f) Prewarming compiles execution plans for every micro-batch size
/// up front: workers never plan on the request path, the
/// peak-activation gauge is live before the first request, and served
/// outputs still match direct execution exactly.
#[test]
fn prewarm_compiles_plans_and_exports_arena_gauge() {
    let _gate = untraced();
    let engine = Arc::new(pruned_engine(EntryPattern::Three, 6));
    let server = Server::start(
        engine.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 3,
            batch_timeout: Duration::from_millis(5),
            prewarm: Some(vec![1, 3, 32, 32]),
            ..ServeConfig::default()
        },
    );
    // Prewarm already compiled plans for batches 1..=3 and published
    // the arena high-water mark — before any request was submitted.
    let warm = server.metrics().snapshot().peak_activation_bytes;
    assert!(warm > 0, "prewarm should publish the arena gauge");
    assert_eq!(ServeModel::peak_activation_bytes(&*engine), Some(warm));

    let x = probe(900);
    let resp = server
        .submit(x.clone(), None)
        .expect("submit")
        .wait()
        .expect("served");
    let direct = engine.forward(&x).expect("direct");
    for (served, want) in resp.outputs.iter().zip(&direct) {
        assert_eq!(served.as_slice(), want.as_slice());
    }
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.peak_activation_bytes, warm,
        "serving at prewarmed shapes must not grow the arena"
    );
    assert!(snap.to_prometheus().contains("rtoss_peak_activation_bytes"));
    server.shutdown();
}

/// A traced server over a pruned twin exports a Chrome trace that
/// passes RV040–RV042 (spans nest per thread, close in order, and every
/// `execute` holds a `layer:*` span) and a Prometheus exposition that
/// passes RV043–RV044 (well-formed, and its phase histograms rebuild
/// the metrics snapshot bucket for bucket).
#[test]
fn traced_server_exports_pass_rv040_to_rv044() {
    let _gate = traced();
    obs::set_enabled(true);
    obs::set_sample_every(1);
    obs::reset();
    let server = Server::start(
        Arc::new(pruned_engine(EntryPattern::Three, 7)),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(2),
            prewarm: Some(vec![1, 3, 32, 32]),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..12)
        .map(|i| server.submit(probe(300 + i), None).expect("submit"))
        .collect();
    for t in tickets {
        t.wait().expect("served");
    }
    let metrics = server.metrics();
    server.shutdown();
    obs::set_enabled(false);
    let trace = obs::drain();
    let snap = metrics.snapshot();

    assert_eq!(trace.dropped, 0, "per-thread trace buffers overflowed");
    assert!(
        trace.events.iter().any(|e| e.name == "execute"),
        "the trace recorded no execute span"
    );
    assert_eq!(snap.completed, 12);
    let check = rtoss::verify::check_trace_json("serve trace", &trace.to_chrome_json());
    assert!(!check.has_errors(), "{}", check.render());
    let check = rtoss::verify::check_prometheus_snapshot("serve", &snap.to_prometheus(), &snap);
    assert!(!check.has_errors(), "{}", check.render());
}
