//! The traced run's per-layer probe: each crate timed from outside, by
//! calling its public functions on the workload's own model and on the
//! model's heaviest layer shapes. Names carry the crate they measure.

use crate::engines::{ModelKind, DENSE, EP2, EP3};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use crate::workloads::{decode_frame, suppress, Rig};
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_hw::{DeviceModel, EnergyBreakdown};
use rtoss_models::{ConvLayerSpec, ModelSpec};
use rtoss_sparse::exec::{conv2d_pattern_sparse_with, conv2d_unstructured_with};
use rtoss_sparse::{coo_from_pattern, PatternCompressedConv};
use rtoss_tensor::{init, ops, ExecConfig, PoolTask, Tensor, WorkerPool};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed items sharing the probe's span equally.
const SLICES: u32 = 13;

/// Calls `f` once to warm up, then for `slice` (at least five times);
/// returns the seconds of each timed call.
fn sample(slice: Duration, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut out = Vec::new();
    let start = Instant::now();
    while start.elapsed() < slice || out.len() < 5 {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// The model's heaviest conv layer of kernel extent `kernel`, with its
/// spatial extents rescaled from the spec's input size to `frame_h`.
fn heaviest(spec: &ModelSpec, kernel: usize, frame_h: usize) -> Option<ConvLayerSpec> {
    let mut best: Option<&ConvLayerSpec> = None;
    for l in spec.layers.iter().filter(|l| l.kernel == kernel) {
        if best.is_none_or(|b| l.macs() > b.macs()) {
            best = Some(l);
        }
    }
    best.map(|l| ConvLayerSpec {
        out_h: (l.out_h * frame_h / spec.input_hw.0).max(1),
        out_w: (l.out_w * frame_h / spec.input_hw.1).max(1),
        ..l.clone()
    })
}

fn layer_input(l: &ConvLayerSpec, seed: u64) -> Tensor {
    init::uniform(
        &mut init::rng(seed ^ 0x1A7E),
        &[1, l.in_ch, l.out_h * l.stride, l.out_w * l.stride],
        0.0,
        1.0,
    )
}

fn layer_weights(l: &ConvLayerSpec, seed: u64) -> Tensor {
    init::uniform(
        &mut init::rng(seed ^ 0x3E16),
        &[l.out_ch, l.in_ch, l.kernel, l.kernel],
        -1.0,
        1.0,
    )
}

/// Dense MACs and computed bytes moved by one frame, from the spec:
/// weights read once, every conv's input read and output written once.
fn spec_work(kind: ModelKind, spec: &ModelSpec) -> (f64, f64) {
    let [_, _, h, w] = kind.frame_shape();
    let scale = (h * w) as f64 / (spec.input_hw.0 * spec.input_hw.1) as f64;
    let macs = spec.total_macs() as f64 * scale;
    let activations: f64 = spec
        .layers
        .iter()
        .map(|l| {
            let out = (l.out_ch * l.out_h * l.out_w) as f64;
            let inp = (l.in_ch * l.out_h * l.stride * l.out_w * l.stride) as f64;
            (inp + out) * scale
        })
        .sum();
    (macs, spec.total_weight_bytes() as f64 + 4.0 * activations)
}

/// Runs the per-layer probe for `span` and files every metric it owns.
pub fn run_layer_probe(
    rig: &Rig,
    seed: u64,
    pool: &[Tensor],
    span: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let kind = rig.def.model;
    let shape = kind.frame_shape();
    let slice = span / SLICES;
    let t1 = ExecConfig::with_threads(1);
    let dense_model = kind.build(seed)?;
    let spec = &dense_model.spec;
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // ---- tensor -----------------------------------------------------
    let l3 = heaviest(spec, 3, shape[2]).ok_or("model has no 3x3 conv")?;
    let l1 = heaviest(spec, 1, shape[2]).ok_or("model has no 1x1 conv")?;
    let (x3, w3) = (layer_input(&l3, seed), layer_weights(&l3, seed));
    let (x1, w1) = (layer_input(&l1, seed), layer_weights(&l1, seed));
    ops::conv2d_with(&x3, &w3, None, l3.stride, 1, &t1).map_err(|e| err(&e))?;
    let (s, _) = tr.time("tensor.conv3x3_dense", NO_OP, || {
        sample(slice, || {
            black_box(ops::conv2d_with(black_box(&x3), &w3, None, l3.stride, 1, &t1).ok());
        })
    });
    m.put("tensor.conv3x3_dense_ms", median(&s) * 1e3, "ms");
    let (s, _) = tr.time("tensor.conv1x1", NO_OP, || {
        sample(slice, || {
            black_box(ops::conv2d_with(black_box(&x1), &w1, None, l1.stride, 0, &t1).ok());
        })
    });
    m.put("tensor.conv1x1_ms", median(&s) * 1e3, "ms");
    let four: Vec<&Tensor> = pool.iter().take(4).collect();
    let (s, _) = tr.time("tensor.batch_stack", NO_OP, || {
        sample(slice, || {
            black_box(ops::batch_stack(black_box(&four)).ok());
        })
    });
    m.put("tensor.batch_stack_us", median(&s) * 1e6, "us");
    let workers = WorkerPool::global();
    let (s, _) = tr.time("tensor.pool_roundtrip", NO_OP, || {
        sample(slice, || {
            let tasks: Vec<PoolTask> = (0..2).map(|_| Box::new(|| {}) as PoolTask).collect();
            workers.run_batch(tasks);
        })
    });
    m.put("tensor.pool_roundtrip_us", median(&s) * 1e6, "us");
    let (macs, bytes) = spec_work(kind, spec);
    m.put("tensor.macs_per_frame_dense", macs, "count");
    m.put("tensor.bytes_per_frame_dense", bytes, "B");

    // ---- sparse: the same 3x3 shape through each format --------------
    let pruned = |entries: usize| -> Result<PatternCompressedConv, String> {
        let mut w = w3.clone();
        let set = canonical_set(entries).map_err(|e| err(&e))?;
        prune_3x3_weights(&mut w, &set).map_err(|e| err(&e))?;
        PatternCompressedConv::from_dense(&w, l3.stride, 1).map_err(|e| err(&e))
    };
    let (p2, p3) = (pruned(2)?, pruned(3)?);
    let coo3 = coo_from_pattern(&p3);
    conv2d_pattern_sparse_with(&x3, &p3, None, &t1).map_err(|e| err(&e))?;
    conv2d_unstructured_with(&x3, &coo3, None, &t1).map_err(|e| err(&e))?;
    for (name, span_name, layer) in [
        (
            "sparse.conv3x3_pattern_2ep_ms",
            "sparse.conv3x3_pattern_2ep",
            &p2,
        ),
        (
            "sparse.conv3x3_pattern_3ep_ms",
            "sparse.conv3x3_pattern_3ep",
            &p3,
        ),
    ] {
        let (s, _) = tr.time(span_name, NO_OP, || {
            sample(slice, || {
                black_box(conv2d_pattern_sparse_with(black_box(&x3), layer, None, &t1).ok());
            })
        });
        m.put(name, median(&s) * 1e3, "ms");
    }
    let (s, _) = tr.time("sparse.conv3x3_coo_3ep", NO_OP, || {
        sample(slice, || {
            black_box(conv2d_unstructured_with(black_box(&x3), &coo3, None, &t1).ok());
        })
    });
    m.put("sparse.conv3x3_coo_3ep_ms", median(&s) * 1e3, "ms");

    // ---- sparse: whole-model paths of the 3EP tier -------------------
    let ep3 = &rig.tiers[EP3];
    let engine = &ep3.engine;
    let frame = &pool[0];
    let (s, _) = tr.time("sparse.forward_interpreted", NO_OP, || {
        sample(slice, || {
            black_box(engine.forward_interpreted_with(black_box(frame), &t1).ok());
        })
    });
    m.put("sparse.forward_interp_ms_p50_3ep", median(&s) * 1e3, "ms");
    // Width 1 and width 2 interleaved call by call, so drift cancels in
    // the ratio.
    let t2 = ExecConfig::with_threads(2);
    let (mut at1, mut at2) = (Vec::new(), Vec::new());
    tr.begin("sparse.forward_t1_t2", NO_OP);
    let start = Instant::now();
    while start.elapsed() < slice || at1.len() < 5 {
        for (exec, out) in [(&t1, &mut at1), (&t2, &mut at2)] {
            let t0 = Instant::now();
            black_box(engine.forward_with(black_box(frame), exec).ok());
            out.push(t0.elapsed().as_secs_f64());
        }
    }
    tr.end();
    m.put(
        "sparse.forward_t2_over_t1_x",
        median(&at2) / median(&at1),
        "x",
    );
    let summary = engine.plan_summary(&shape).map_err(|e| err(&e))?;
    for format in ["pattern", "coo", "dense"] {
        let n = summary.steps.iter().filter(|s| s.format == format).count();
        m.put(&format!("sparse.format_layers_{format}"), n as f64, "count");
    }
    m.put(
        "sparse.arena_kib",
        summary.arena_bytes as f64 / 1024.0,
        "KiB",
    );
    let (s, _) = tr.time("sparse.plan_lookup", NO_OP, || {
        sample(slice, || {
            for _ in 0..1000 {
                black_box(engine.plan_for(black_box(&shape)).ok());
            }
        })
    });
    m.put("sparse.plan_lookup_us", median(&s) * 1e6 / 1000.0, "us");
    m.put("sparse.compile_s", ep3.times.compile_s, "s");
    m.put("sparse.plan_compile_ms", ep3.times.plan_s * 1e3, "ms");
    m.put("sparse.compression_x_3ep", engine.compression_ratio(), "x");
    m.put(
        "sparse.compression_x_2ep",
        rig.tiers[EP2].engine.compression_ratio(),
        "x",
    );
    m.put(
        "sparse.stored_weights_3ep",
        engine.stored_weights() as f64,
        "count",
    );

    // ---- core: what the pruner did (counts must repeat exactly) ------
    let r3 = ep3.report.as_ref().ok_or("3EP tier has no prune report")?;
    let r2 = rig.tiers[EP2]
        .report
        .as_ref()
        .ok_or("2EP tier has no prune report")?;
    m.put("core.prune_3ep_s", ep3.times.prune_s, "s");
    m.put("core.prune_2ep_s", rig.tiers[EP2].times.prune_s, "s");
    m.put("core.dfs_groups", r3.group_count as f64, "count");
    let kernels = |k: usize| -> f64 {
        r3.layers
            .iter()
            .filter(|l| l.kernel == k && l.zeros > 0)
            .map(|l| l.total / (k * k))
            .sum::<usize>() as f64
    };
    m.put("core.kernels_3x3_pruned", kernels(3), "count");
    m.put("core.kernels_1x1_pruned", kernels(1), "count");
    m.put("core.sparsity_share_3ep", r3.overall_sparsity(), "share");
    m.put("core.sparsity_share_2ep", r2.overall_sparsity(), "share");

    // ---- models / data / nn / verify --------------------------------
    m.put("models.build_s", ep3.times.build_s, "s");
    m.put(
        "verify.check_s",
        ep3.times.check_s + ep3.times.verify_s,
        "s",
    );
    let outputs = engine.forward_with(frame, &t1).map_err(|e| err(&e))?;
    let dets = decode_frame(&outputs, &ep3.heads, ep3.num_classes)?;
    let (s, _) = tr.time("models.decode", NO_OP, || {
        sample(slice, || {
            black_box(decode_frame(black_box(&outputs), &ep3.heads, ep3.num_classes).ok());
        })
    });
    m.put("models.decode_ms_p50", median(&s) * 1e3, "ms");
    let (s, _) = tr.time("data.nms", NO_OP, || {
        sample(slice, || {
            black_box(suppress(black_box(dets.clone())));
        })
    });
    m.put("data.nms_ms_p50", median(&s) * 1e3, "ms");
    let mut graph = dense_model.graph;
    graph.set_training(false);
    let (s, _) = tr.time("nn.graph_forward", NO_OP, || {
        sample(slice, || {
            black_box(graph.forward(black_box(frame)).ok());
        })
    });
    m.put("nn.graph_forward_ms_p50", median(&s) * 1e3, "ms");

    // ---- hw: modelled energy on the paper's embedded target ----------
    let device = DeviceModel::jetson_tx2();
    for (name, tier) in [
        ("hw.energy_mj_per_frame_dense", DENSE),
        ("hw.energy_mj_per_frame_2ep", EP2),
    ] {
        let joules = EnergyBreakdown::compute(&device, &rig.tiers[tier].workload).total_j();
        m.put(name, joules * 1e3, "mJ");
    }
    Ok(())
}
