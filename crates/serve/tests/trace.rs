//! End-to-end tracing through the serving stack: a traced server run
//! must produce the full span hierarchy the observability layer
//! promises — enqueue markers, per-request queue-wait async intervals,
//! batch phases, and per-layer spans nested inside `execute`.

use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_obs as obs;
use rtoss_serve::{ServeConfig, Server};
use rtoss_sparse::SparseModel;
use rtoss_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

fn engine() -> SparseModel {
    let mut model = rtoss_models::yolov5s_twin(4, 2, 11).expect("twin builds");
    RTossPruner::new(EntryPattern::Two)
        .prune_graph(&mut model.graph)
        .expect("prunes");
    SparseModel::compile(&model.graph).expect("compiles")
}

#[test]
fn traced_server_run_emits_nested_phase_and_layer_spans() {
    obs::set_enabled(true);
    obs::set_sample_every(1);
    obs::reset();

    let server = Server::start(
        Arc::new(engine()),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            batch_timeout: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..3)
        .map(|_| server.submit(Tensor::zeros(&[1, 3, 32, 32]), None).unwrap())
        .collect();
    for t in tickets {
        t.wait().expect("request served");
    }
    server.shutdown();
    obs::set_enabled(false);
    let trace = obs::drain();

    assert_eq!(trace.dropped, 0);
    let count = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("enqueue"), 3, "one enqueue marker per submit");
    let queue_waits: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "queue_wait")
        .collect();
    assert_eq!(queue_waits.len(), 3, "one queue-wait interval per request");
    let mut ids: Vec<u64> = queue_waits
        .iter()
        .map(|e| match e.kind {
            obs::EventKind::Async { id } => id,
            other => panic!("queue_wait must be async, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "queue waits carry distinct request ids");

    let executes: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "execute" && e.kind == obs::EventKind::Span)
        .collect();
    assert!(!executes.is_empty(), "at least one execute span");
    assert!(count("batch_assembly") >= 1);
    assert!(count("respond") >= 1);
    assert!(count("batch") >= 1);

    // Every execute span contains at least one layer span on its own
    // thread (the invariant rtoss-verify checks as RV042).
    for exec in &executes {
        let exec_end = exec.ts_ns + exec.dur_ns;
        let nested_layers = trace
            .events
            .iter()
            .filter(|e| {
                e.name.starts_with("layer:")
                    && e.tid == exec.tid
                    && e.ts_ns >= exec.ts_ns
                    && e.ts_ns + e.dur_ns <= exec_end
            })
            .count();
        assert!(
            nested_layers > 0,
            "execute span [{}..{exec_end}] on tid {} has no nested layer spans",
            exec.ts_ns,
            exec.tid
        );
    }

    // Layer spans carry the executor tags the profile report relies on.
    let conv_layer = trace
        .events
        .iter()
        .find(|e| {
            e.name.starts_with("layer:")
                && e.args
                    .iter()
                    .any(|(k, v)| *k == "kind" && *v == obs::ArgValue::Static("conv"))
        })
        .expect("at least one conv layer span");
    for key in ["oc", "ic", "k", "nnz", "width"] {
        assert!(
            conv_layer.args.iter().any(|(k, _)| *k == key),
            "conv layer span missing arg {key:?}"
        );
    }
    assert!(conv_layer
        .args
        .iter()
        .any(|(k, v)| *k == "format" && *v == obs::ArgValue::Static("pattern")));

    // The exports stay well-formed on a real trace.
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"b\""));
    let profile = obs::Profile::from_trace(&trace);
    assert!(!profile.with_prefix("layer:").is_empty());
}
