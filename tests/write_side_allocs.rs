//! Allocation bound on the prune→engine write side.
//!
//! `SparseModel::compile`, `verify()` and `check_model` walk every
//! weight of the model; they must do so over flat arrays, allocating
//! per layer and per distinct pattern, never per kernel. A counting
//! allocator makes that an assertion: quadrupling the kernel count
//! (twin width 8 → 16, same layers) must add next to nothing to the
//! allocations, and the total stays under a fixed budget per pattern.
//! With the pack as the only copy of a layer's weights the three calls
//! make 934 allocations at either width (4,665 and 18,495 kernels, 93
//! patterns); with pattern groups stored beside the pack they made
//! 1,778 and 2,144. The two per-kernel primitives of the pruner and
//! the checker — `PatternSet::best_for` and `Pattern::is_connected` —
//! allocate nothing at all.

#[path = "../crates/obs/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rtoss::core::pattern::{canonical_set, Pattern};
use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::models::yolov5s_twin;
use rtoss::sparse::SparseModel;
use rtoss::verify::check_model;

/// `(allocations of compile + verify() + check_model, packed kernels,
/// pattern groups summed over conv layers)` for the 3EP twin at `width`.
fn write_side_allocations(width: usize) -> (u64, usize, usize) {
    let mut model = yolov5s_twin(width, 2, 7).expect("twin builds");
    RTossPruner::new(EntryPattern::Three)
        .prune_graph(&mut model.graph)
        .expect("prunes");

    let before = allocations();
    let engine = SparseModel::compile(&model.graph).expect("compiles");
    let violations = engine.verify();
    let report = check_model(&model.graph, &[1, 3, 64, 64]);
    let spent = allocations() - before;

    assert!(violations.is_empty(), "{violations:?}");
    assert!(!report.has_errors(), "{}", report.render());
    let layers = engine.conv_layers();
    let kernels = layers.iter().map(|(_, l)| l.pack().kernel_count()).sum();
    let groups = layers.iter().map(|(_, l)| l.pattern_count()).sum();
    (spent, kernels, groups)
}

#[test]
fn compile_verify_check_allocate_per_group_not_per_kernel() {
    let (narrow, narrow_kernels, _) = write_side_allocations(8);
    let (wide, wide_kernels, wide_groups) = write_side_allocations(16);
    assert!(
        wide_kernels > 3 * narrow_kernels,
        "width 16 should pack about 4x the kernels: {narrow_kernels} -> {wide_kernels}"
    );
    assert!(
        wide <= narrow + narrow / 8,
        "allocations grew with the kernel count: {narrow} at width 8, {wide} at width 16 \
         ({narrow_kernels} -> {wide_kernels} kernels)"
    );
    assert!(
        wide < 16 * wide_groups as u64,
        "{wide} allocations for {wide_groups} pattern groups ({wide_kernels} kernels)"
    );
}

#[test]
fn per_kernel_primitives_allocate_nothing() {
    let set = canonical_set(3).expect("canonical 3EP set");
    let patterns: Vec<Pattern> = (0..512)
        .map(|bits| Pattern::from_bits(bits).expect("9-bit mask"))
        .collect();
    let kernel = [0.3f32, -0.7, 0.1, 0.9, -0.2, 0.5, -0.4, 0.8, -0.6];

    let before = allocations();
    let mut connected = 0usize;
    for p in &patterns {
        connected += usize::from(p.is_connected());
    }
    let mut best = 0usize;
    for _ in 0..1000 {
        best += set.best_for(std::hint::black_box(&kernel)).0;
    }
    let spent = allocations() - before;

    std::hint::black_box((connected, best));
    assert_eq!(spent, 0, "is_connected / best_for touched the heap");
}
