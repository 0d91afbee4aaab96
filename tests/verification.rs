//! Integration tests for the rtoss-verify static-analysis layer.
//!
//! Two directions: seed artifacts (pruned twins, compiled engines,
//! executors) must verify *clean*, and property-based mutations of
//! valid artifacts — flipped indices, broken adjacency, desynchronised
//! DFS groups — must make the matching diagnostic fire. Together they
//! pin both the false-positive and false-negative rate of every check
//! family at zero on the cases covered.

use proptest::prelude::*;
use rtoss::core::dfs::group_layers;
use rtoss::core::pattern::{canonical_set, Pattern};
use rtoss::core::prune3x3::prune_3x3_weights;
use rtoss::core::{EntryPattern, Pruner, RTossPruner};
use rtoss::models::{retinanet_twin, yolov5s_twin, DetectorModel};
use rtoss::sparse::{PatternCompressedConv, SparseModel, UnstructuredSparseConv};
use rtoss::tensor::Tensor;
use rtoss::verify::{
    check_execution_plan, check_model, check_pattern_layer, check_plan, check_sparse_model,
    check_unstructured_layer, fixtures,
};

const INPUT: [usize; 4] = [1, 3, 64, 64];

fn pruned(mut m: DetectorModel, entry: EntryPattern) -> DetectorModel {
    RTossPruner::new(entry)
        .prune_graph(&mut m.graph)
        .expect("pruning succeeds");
    m
}

// ---------------------------------------------------------------------
// Clean-artifact direction: seed models produce zero diagnostics.
// ---------------------------------------------------------------------

#[test]
fn seed_yolov5s_configs_verify_clean() {
    for entry in [EntryPattern::Two, EntryPattern::Three, EntryPattern::Four] {
        let m = pruned(yolov5s_twin(8, 2, 42).expect("twin builds"), entry);
        let report = check_model(&m.graph, &INPUT);
        assert!(
            report.diagnostics.is_empty(),
            "yolov5s twin {entry:?}:\n{}",
            report.render()
        );
        let engine = SparseModel::compile(&m.graph).expect("compiles");
        let report = check_sparse_model(&engine);
        assert!(
            report.diagnostics.is_empty(),
            "yolov5s engine {entry:?}:\n{}",
            report.render()
        );
    }
}

#[test]
fn seed_retinanet_configs_verify_clean() {
    for entry in [EntryPattern::Two, EntryPattern::Three] {
        let m = pruned(retinanet_twin(8, 2, 42).expect("twin builds"), entry);
        let report = check_model(&m.graph, &INPUT);
        assert!(
            report.diagnostics.is_empty(),
            "retinanet twin {entry:?}:\n{}",
            report.render()
        );
        let engine = SparseModel::compile(&m.graph).expect("compiles");
        let report = check_sparse_model(&engine);
        assert!(
            report.diagnostics.is_empty(),
            "retinanet engine {entry:?}:\n{}",
            report.render()
        );
    }
}

/// The seed pass `verify` runs by default: the YOLOv5s twin pruned at
/// 2/3/4EP and the RetinaNet twin at 2/3EP through every model, sparse,
/// plan and kernel check, plus the histogram, ring, controller and
/// micro-fleet checks (RV001–RV092 less the trace and telemetry
/// families, which have their own tests).
#[test]
fn seed_artifacts_verify_clean() {
    let report = rtoss::verify::check_seed_artifacts().expect("seed artifacts build");
    assert!(report.diagnostics.is_empty(), "{}", report.render());
}

/// RV071–RV073 over the real hot-path sources.
#[test]
fn hot_path_sources_pass_the_lint() {
    let ds = rtoss::verify::lint_paths(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("hot-path sources read");
    assert!(ds.is_empty(), "hot-path lint findings: {ds:?}");
}

/// RV020, RV050–RV054 and RV070 on live engines: the compiled plan's
/// schedule, arena, levels and level deal are sound, and its output is
/// bit-identical to the interpreter oracle at widths 1, 2 and 4 and on
/// a forced worker pool.
#[test]
fn planned_forward_matches_the_interpreter_oracle() {
    let probe_shape = [1, 3, 32, 32];
    let probe = rtoss::tensor::init::uniform(
        &mut rtoss::tensor::init::rng(0x5EED),
        &probe_shape,
        0.0,
        1.0,
    );
    // 3EP twin with non-trivial BN running statistics, so the fused
    // conv→BN→activation epilogues carry real scale/shift values.
    let mut yolo = yolov5s_twin(4, 2, 0x5EED).expect("twin builds");
    let warm =
        rtoss::tensor::init::uniform(&mut rtoss::tensor::init::rng(1), &[2, 3, 32, 32], 0.0, 1.0);
    yolo.graph.set_training(true);
    yolo.graph.forward(&warm).expect("warm-up forward");
    yolo.graph.set_training(false);
    let yolo = pruned(yolo, EntryPattern::Three);
    let retina = retinanet_twin(4, 2, 0x5EED).expect("twin builds");
    for (label, m) in [("yolov5s 3EP", &yolo), ("retinanet dense", &retina)] {
        let engine = SparseModel::compile(&m.graph).expect("compiles");
        let report = check_execution_plan(&engine, &probe, &[1, 2, 4]);
        assert!(!report.has_errors(), "{label}:\n{}", report.render());
    }
}

/// The one plan walk on the seed twins' plans: RV020 (the level deal
/// the runner executes partitions every level at widths 1..=8), RV050,
/// RV051, RV054 and RV070; RV021 on the serving histogram.
#[test]
fn executor_invariants_hold() {
    for (label, m) in [
        ("yolov5s", yolov5s_twin(8, 2, 42).expect("twin builds")),
        ("retinanet", retinanet_twin(8, 2, 42).expect("twin builds")),
    ] {
        let m = pruned(m, EntryPattern::Three);
        let engine = SparseModel::compile(&m.graph).expect("compiles");
        let summary = engine.plan_summary(&INPUT).expect("plans");
        let fans_out = summary
            .level_schedule(2)
            .levels
            .iter()
            .any(|d| !d.pooled.is_empty());
        assert!(fans_out, "{label}: no level wide enough to fan out");
        let diags = check_plan(label, &engine, &summary);
        assert!(diags.is_empty(), "{label}: {diags:?}");
    }
    let report = rtoss::verify::check_histogram_buckets();
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn every_corruption_fixture_fires_its_code() {
    for &(name, run, code) in fixtures::FIXTURES {
        let report = run();
        assert!(
            report.has_code(code),
            "fixture {name}: expected {code}\n{}",
            report.render()
        );
    }
    // The plan walk reports every rule at once; these corruptions must
    // stay invisible to the neighbouring rule that cannot see them.
    let alias = fixtures::plan_level_alias_fixture();
    assert!(
        !alias
            .diagnostics
            .iter()
            .any(|d| d.code == "RV051" && d.message.contains("lifetimes overlap")),
        "plan-level-alias passes RV051's serial index rule:\n{}",
        alias.render()
    );
    let hb = fixtures::plan_hb_fixture();
    assert!(
        !hb.has_code("RV050") && !hb.has_code("RV054"),
        "plan-hb is a self-consistent dropped edge:\n{}",
        hb.render()
    );
}

// ---------------------------------------------------------------------
// Mutation direction: property-based corruption of valid artifacts.
// ---------------------------------------------------------------------

fn pruned_weight(o: usize, i: usize, k_entries: usize, seed: u64) -> Tensor {
    let mut w = rtoss::tensor::init::uniform(
        &mut rtoss::tensor::init::rng(seed),
        &[o, i, 3, 3],
        -1.0,
        1.0,
    );
    prune_3x3_weights(&mut w, &canonical_set(k_entries).expect("set")).expect("prunes");
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping one pattern offset out of sorted order (or out of
    /// bounds) in a compressed layer fires RV010.
    #[test]
    fn flipped_offset_fires_rv010(
        seed in 0u64..1000,
        k in 2usize..=4,
        bump in 3usize..10,
    ) {
        let w = pruned_weight(4, 3, k, seed);
        let pc = PatternCompressedConv::from_dense(&w, 1, 1).expect("compresses");
        prop_assert!(check_pattern_layer("clean", &pc).is_empty());
        // Rebuild with the first group's first offset pushed out of
        // bounds: (ky, kx) -> (ky + bump, kx) with bump >= 3.
        let mut groups = pc.groups();
        if groups.is_empty() || groups[0].offsets.is_empty() {
            continue; // vendored proptest: skip-case in place of prop_assume
        }
        groups[0].offsets[0].0 += bump;
        let bad = PatternCompressedConv::from_parts(
            pc.out_channels(),
            pc.in_channels(),
            pc.kernel_size(),
            pc.stride(),
            pc.padding(),
            groups,
        );
        let ds = check_pattern_layer("mutated", &bad);
        prop_assert!(ds.iter().any(|d| d.code == "RV010"), "{ds:?}");
    }

    /// Flipping a COO entry's kernel coordinate out of bounds (or out
    /// of sort order) fires RV013.
    #[test]
    fn flipped_coo_index_fires_rv013(
        seed in 0u64..1000,
        k in 2usize..=4,
        which in 0usize..64,
    ) {
        let w = pruned_weight(4, 3, k, seed);
        let un = UnstructuredSparseConv::from_dense(&w, 1, 1).expect("builds");
        prop_assert!(check_unstructured_layer("clean", &un).is_empty());
        let mut entries = un.entries();
        if entries.is_empty() {
            continue;
        }
        let idx = which % entries.len();
        entries[idx].2 += 3; // ky out of the 3x3 kernel
        let bad = UnstructuredSparseConv::from_entries(
            un.out_channels(),
            un.in_channels(),
            un.kernel_size(),
            un.stride(),
            un.padding(),
            entries,
        );
        let ds = check_unstructured_layer("mutated", &bad);
        prop_assert!(ds.iter().any(|d| d.code == "RV013"), "{ds:?}");
    }

    /// Breaking a kernel mask's 4-adjacency (teleporting one kept cell
    /// to a non-adjacent corner) fires RV002.
    #[test]
    fn broken_adjacency_fires_rv002(
        seed in 0u64..1000,
        kernel_pick in 0usize..64,
    ) {
        let mut m = pruned(yolov5s_twin(4, 2, seed).expect("twin builds"), EntryPattern::Two);
        // Pick a masked 3x3 conv and a kernel inside it.
        let ids: Vec<_> = m.graph.conv_ids().into_iter().filter(|&id| {
            m.graph.conv(id).is_some_and(|c| c.kernel_size() == 3 && c.weight().mask().is_some())
        }).collect();
        if ids.is_empty() {
            continue;
        }
        let id = ids[seed as usize % ids.len()];
        let param = m.graph.conv_mut(id).expect("conv").weight_mut();
        let mut mask = param.mask().expect("masked").clone();
        let n_kernels = mask.numel() / 9;
        let base = (kernel_pick % n_kernels) * 9;
        let chunk = &mut mask.as_mut_slice()[base..base + 9];
        // 2EP masks keep two 4-adjacent cells; rewrite to two opposite
        // corners, which is never 4-connected.
        chunk.fill(0.0);
        chunk[0] = 1.0;
        chunk[8] = 1.0;
        let wchunk = &mut param.value.as_mut_slice()[base..base + 9];
        wchunk.fill(0.0);
        wchunk[0] = 0.5;
        wchunk[8] = 0.5;
        param.set_mask(mask).expect("same shape");
        let report = check_model(&m.graph, &INPUT);
        prop_assert!(report.has_code("RV002"), "{}", report.render());
    }

    /// Re-masking a grouped child with a legal pattern its parent never
    /// selected desynchronises the DFS group and fires RV004.
    #[test]
    fn desynced_group_fires_rv004(seed in 0u64..1000) {
        let mut m = pruned(yolov5s_twin(8, 2, seed).expect("twin builds"), EntryPattern::Three);
        let groups = group_layers(&m.graph);
        // Find a masked 3x3 child whose parent has a non-empty set.
        let mut target = None;
        'outer: for group in groups.groups() {
            let Some(pc) = m.graph.conv(group.parent) else { continue };
            if pc.kernel_size() != 3 { continue }
            let Some(pmask) = pc.weight().mask() else { continue };
            let parent_bits: std::collections::BTreeSet<u16> = pmask
                .as_slice()
                .chunks_exact(9)
                .map(|c| c.iter().enumerate().fold(0u16, |b, (i, &v)| {
                    if v != 0.0 { b | (1 << i) } else { b }
                }))
                .collect();
            if parent_bits.is_empty() { continue }
            for &child in &group.children {
                let masked = m.graph.conv(child)
                    .is_some_and(|cc| cc.weight().mask().is_some());
                if masked {
                    target = Some((parent_bits, child));
                    break 'outer;
                }
            }
        }
        let Some((parent_bits, child)) = target else {
            continue;
        };
        let rogue = (0u16..512).find(|&b| {
            b.count_ones() == 3
                && Pattern::from_bits(b).map(|p| p.is_connected()).unwrap_or(false)
                && !parent_bits.contains(&b)
        });
        let Some(rogue) = rogue else {
            continue;
        };
        let param = m.graph.conv_mut(child).expect("conv").weight_mut();
        let mut mask = param.mask().expect("masked").clone();
        for (i, slot) in mask.as_mut_slice()[..9].iter_mut().enumerate() {
            *slot = if rogue & (1 << i) != 0 { 1.0 } else { 0.0 };
        }
        for (i, wv) in param.value.as_mut_slice()[..9].iter_mut().enumerate() {
            *wv = if rogue & (1 << i) != 0 { 0.25 } else { 0.0 };
        }
        param.set_mask(mask).expect("same shape");
        let report = check_model(&m.graph, &INPUT);
        prop_assert!(report.has_code("RV004"), "{}", report.render());
    }
}
