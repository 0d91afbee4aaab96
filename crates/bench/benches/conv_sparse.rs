//! Dense vs pattern-grouped vs unstructured convolution (the measured
//! substrate behind Fig. 6's CPU series), plus a thread-scaling sweep
//! of the tiled parallel executors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::exec::{conv2d_pattern_sparse_with, conv2d_unstructured_with};
use rtoss_sparse::{ExecConfig, PatternCompressedConv, UnstructuredSparseConv};
use rtoss_tensor::{init, ops};

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_3x3_64ch_32px");
    group.sample_size(10);
    let x = init::uniform(&mut init::rng(1), &[1, 64, 32, 32], -1.0, 1.0);
    let exec = ExecConfig::default();

    let dense_w = init::uniform(&mut init::rng(2), &[64, 64, 3, 3], -1.0, 1.0);
    group.bench_function("dense", |b| {
        b.iter(|| ops::conv2d(&x, &dense_w, None, 1, 1).unwrap())
    });

    for k in [2usize, 3, 4] {
        let mut w = dense_w.clone();
        prune_3x3_weights(&mut w, &canonical_set(k).unwrap()).unwrap();
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();
        group.bench_with_input(
            BenchmarkId::new("pattern", format!("{k}EP")),
            &pc,
            |b, pc| b.iter(|| conv2d_pattern_sparse_with(&x, pc, None, &exec).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("coo", format!("{k}EP")), &un, |b, un| {
            b.iter(|| conv2d_unstructured_with(&x, un, None, &exec).unwrap())
        });
    }
    group.finish();
}

/// Thread scaling of the tiled executors: the same 2EP-pruned layer run
/// at 1/2/4/8 intra-op threads through all three execution paths.
fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_thread_scaling_2EP");
    group.sample_size(10);
    // A wide layer (many output planes) so there are enough tiles to
    // spread across 8 workers.
    let x = init::uniform(&mut init::rng(3), &[2, 64, 32, 32], -1.0, 1.0);
    let mut w = init::uniform(&mut init::rng(4), &[64, 64, 3, 3], -1.0, 1.0);
    prune_3x3_weights(&mut w, &canonical_set(2).unwrap()).unwrap();
    let pc = PatternCompressedConv::from_dense(&w, 1, 1).unwrap();
    let un = UnstructuredSparseConv::from_dense(&w, 1, 1).unwrap();

    for threads in [1usize, 2, 4, 8] {
        let exec = ExecConfig::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("dense", threads), &exec, |b, exec| {
            b.iter(|| ops::conv2d_with(&x, &w, None, 1, 1, exec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pattern", threads), &exec, |b, exec| {
            b.iter(|| conv2d_pattern_sparse_with(&x, &pc, None, exec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("coo", threads), &exec, |b, exec| {
            b.iter(|| conv2d_unstructured_with(&x, &un, None, exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conv, bench_thread_scaling);
criterion_main!(benches);
