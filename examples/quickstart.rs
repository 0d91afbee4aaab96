//! Quickstart: prune a detector with R-TOSS in a dozen lines.
//!
//! Builds the YOLOv5s scaled twin, applies R-TOSS 2-entry-pattern
//! pruning (DFS grouping + 3×3 pattern pruning + the 1×1
//! transformation), prints the sparsity report, and verifies that the
//! pattern-compressed sparse executor reproduces the dense layer
//! outputs.
//!
//! Run: `cargo run --release --example quickstart`

use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::models::yolov5s_twin;
use rtoss::sparse::exec::conv2d_pattern_sparse_with;
use rtoss::sparse::{ExecConfig, PatternCompressedConv};
use rtoss::tensor::{init, ops, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a detector (scaled YOLOv5s twin: same topology family,
    //    width 8, 64x64 input).
    let mut model = yolov5s_twin(8, 3, 42)?;
    println!(
        "built {} ({} conv layers, {:.2} M params)",
        model.spec.name,
        model.spec.conv_layer_count(),
        model.spec.params_millions()
    );

    // 2. Prune with R-TOSS (2EP): Algorithm 1 groups layers, Algorithm 2
    //    pattern-prunes 3x3 kernels, Algorithm 3 pools and prunes 1x1s.
    let pruner = RTossPruner::new(EntryPattern::Two);
    let report = pruner.prune_graph(&mut model.graph)?;
    println!(
        "{}: sparsity {:.1}%, compression {:.2}x, {} layer groups",
        report.method,
        report.overall_sparsity() * 100.0,
        report.compression_ratio(),
        report.group_count
    );

    // 3. The pruned model still runs (masks zero the dropped weights).
    let out = model.graph.forward(&Tensor::zeros(&[1, 3, 64, 64]))?;
    println!("forward pass ok: head output {:?}", out[0].shape());

    // 4. Compress one pruned 3x3 layer and execute it sparsely.
    let conv_id = model
        .graph
        .conv_ids()
        .into_iter()
        .find(|&id| model.graph.conv(id).map(|c| c.kernel_size()) == Some(3))
        .expect("twin has 3x3 layers");
    let conv = model.graph.conv(conv_id).expect("conv node");
    let w = conv.weight().value.clone();
    let (stride, pad) = (conv.stride(), conv.padding());
    let pc = PatternCompressedConv::from_dense(&w, stride, pad)?;
    println!(
        "layer {:?}: {} distinct patterns, stored weights {} ({:.2}x compressed)",
        model.graph.node(conv_id).name,
        pc.pattern_count(),
        pc.stored_weights(),
        pc.compression_ratio()
    );
    let x = init::uniform(&mut init::rng(7), &[1, pc.in_channels(), 16, 16], -1.0, 1.0);
    let dense = ops::conv2d(&x, &w, None, stride, pad)?;
    let sparse = conv2d_pattern_sparse_with(&x, &pc, None, &ExecConfig::default())?;
    let max_err = dense
        .as_slice()
        .iter()
        .zip(sparse.as_slice())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("sparse executor matches dense (max |err| = {max_err:.2e})");
    Ok(())
}
