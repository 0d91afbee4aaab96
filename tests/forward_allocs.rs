//! Heap allocations of one warmed, width-1 planned forward.
//!
//! After the first call has compiled the plan and sized its arena, a
//! forward's allocations are a pure function of the plan: they repeat
//! exactly, run after run and host after host, so this test asserts
//! the exact count — any change to what the hot path allocates must
//! restate it. Debug builds count two more per conv step, which
//! re-validates its layer (`debug_validate`).
//!
//! On the 3EP twin below (42 plan steps, 29 of them convs, 2 outputs)
//! a forward made 112 allocations (debug 170) while every conv step
//! still collected its output planes into a per-call tile list for the
//! scoped-thread tiler; with the tiler gone it makes 83 (debug 141),
//! one fewer per conv step.

#[path = "../crates/obs/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::models::yolov5s_twin;
use rtoss::sparse::{ExecConfig, SparseModel};
use rtoss::tensor::init;

const INPUT: [usize; 4] = [1, 3, 32, 32];

#[test]
fn warmed_width_one_forward_allocates_an_exact_count() {
    let mut m = yolov5s_twin(4, 2, 7).expect("twin builds");
    RTossPruner::new(EntryPattern::Three)
        .prune_graph(&mut m.graph)
        .expect("prunes");
    let engine = SparseModel::compile(&m.graph).expect("compiles");
    let x = init::uniform(&mut init::rng(8), &INPUT, 0.0, 1.0);
    let serial = ExecConfig::serial();
    // Warm-up: compiles and caches the plan, sizes the arena.
    engine.forward_with(&x, &serial).expect("forward");

    let before = allocations();
    let out = engine.forward_with(&x, &serial).expect("forward");
    let spent = allocations() - before;
    drop(out);

    let summary = engine.plan_summary(&INPUT).expect("plans");
    let convs = summary.steps.iter().filter(|s| s.kind == "conv").count();
    let shape = (summary.steps.len(), convs, summary.outputs.len());
    assert_eq!(shape, (42, 29, 2), "the twin's plan changed shape");
    let expected = if cfg!(debug_assertions) { 141 } else { 83 };
    assert_eq!(
        spent, expected,
        "a warmed width-1 forward made {spent} allocations, expected {expected}"
    );
}
