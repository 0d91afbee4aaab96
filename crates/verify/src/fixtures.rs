//! Seeded-corruption fixtures: one per check family.
//!
//! Each fixture builds a *valid* artifact, applies a single targeted
//! corruption, and runs the matching verification pass. A healthy
//! verifier reports at least the fixture's registry code; the `verify`
//! binary's `--fixture NAME` mode exits non-zero exactly when that
//! happens, which is how CI proves the checks can actually fail.

use crate::diag::Report;
use crate::exec::check_histogram_mapping;
use crate::lint::lint_source;
use crate::model::{check_model, chunk_bits};
use crate::plan::{check_level_deal, check_plan};
use crate::sparse::check_pattern_layer;
use crate::trace::{check_prometheus, check_trace};
use rtoss_core::dfs::group_layers;
use rtoss_core::pattern::{canonical_set, Pattern};
use rtoss_core::prune1x1::prune_1x1_weights;
use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_nn::layers::Conv2d;
use rtoss_nn::Graph;
use rtoss_obs::metrics::LatencyHistogram;
use rtoss_sparse::{PatternCompressedConv, PatternGroup};
use rtoss_tensor::{init, Tensor};
use std::collections::BTreeSet;

/// One seeded-corruption fixture: its name, the function that builds
/// and checks the corrupted artifact, and the registry code it is
/// guaranteed to trigger.
pub type Fixture = (&'static str, fn() -> Report, &'static str);

/// Every fixture, in registry order.
pub const FIXTURES: &[Fixture] = &[
    ("mask", mask_fixture, "RV002"),
    ("group", group_fixture, "RV004"),
    ("roundtrip", roundtrip_fixture, "RV005"),
    ("format", format_fixture, "RV010"),
    ("tiles", tiles_fixture, "RV020"),
    ("histogram", histogram_fixture, "RV021"),
    ("trace-nesting", trace_nesting_fixture, "RV040"),
    ("trace-order", trace_order_fixture, "RV041"),
    ("trace-orphan", trace_orphan_fixture, "RV042"),
    ("prom", prom_fixture, "RV043"),
    ("plan-schedule", plan_schedule_fixture, "RV050"),
    ("plan-arena", plan_arena_fixture, "RV051"),
    ("plan-fused", plan_fused_fixture, "RV052"),
    ("plan-level-dep", plan_level_dep_fixture, "RV054"),
    ("plan-level-alias", plan_level_alias_fixture, "RV054"),
    ("fleet-ring", fleet_ring_fixture, "RV060"),
    ("fleet-tier", fleet_tier_fixture, "RV061"),
    ("fleet-quota", fleet_quota_fixture, "RV062"),
    ("plan-hb", plan_hb_fixture, "RV070"),
    ("pool-order", pool_order_fixture, "RV070"),
    ("lint-lock-order", lint_lock_order_fixture, "RV071"),
    ("lint-relaxed-store", lint_relaxed_store_fixture, "RV072"),
    (
        "lint-lock-across-submit",
        lint_lock_across_submit_fixture,
        "RV073",
    ),
    ("series-window", series_window_fixture, "RV080"),
    ("series-conserve", series_conserve_fixture, "RV081"),
    ("slo-hysteresis", slo_hysteresis_fixture, "RV082"),
    ("flight-dump", flight_dump_fixture, "RV083"),
    ("kernel-pack", kernel_pack_fixture, "RV090"),
    ("kernel-equiv", kernel_equiv_fixture, "RV092"),
];

/// Mask legality: one kernel keeps two opposite corners (disconnected,
/// RV002), another keeps six weights (illegal entry count, RV001).
pub fn mask_fixture() -> Report {
    let w = Tensor::full(&[2, 1, 3, 3], 0.5);
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g
        .add_layer("bad_conv", Box::new(Conv2d::from_weight(w, 1, 1)), x)
        .expect("valid node");
    g.set_outputs(vec![c]).expect("valid output");
    let mut mask = vec![0.0f32; 18];
    mask[0] = 1.0; // (0,0)
    mask[8] = 1.0; // (2,2): 4-disconnected from (0,0)
    for slot in mask[9..15].iter_mut() {
        *slot = 1.0; // kernel 1 keeps 6 > 5 weights
    }
    let conv = g.conv_mut(c).expect("conv node");
    conv.weight_mut()
        .set_mask(Tensor::from_vec(mask, &[2, 1, 3, 3]).expect("mask shape"))
        .expect("mask matches weight");
    conv.weight_mut().apply_mask();
    check_model(&g, &[1, 1, 8, 8])
}

/// DFS-group consistency: a child kernel is re-masked with a connected
/// pattern its parent never selected (RV004).
pub fn group_fixture() -> Report {
    let mut m = rtoss_models::yolov5s_twin(8, 2, 0x5EED).expect("twin builds");
    RTossPruner::new(EntryPattern::Three)
        .prune_graph(&mut m.graph)
        .expect("twin prunes");
    let groups = group_layers(&m.graph);
    let mut target = None;
    'outer: for group in groups.groups() {
        let Some(pc) = m.graph.conv(group.parent) else {
            continue;
        };
        if pc.kernel_size() != 3 {
            continue;
        }
        let Some(pmask) = pc.weight().mask() else {
            continue;
        };
        let parent_bits: BTreeSet<u16> = pmask.as_slice().chunks_exact(9).map(chunk_bits).collect();
        if parent_bits.is_empty() {
            continue;
        }
        for &child in &group.children {
            let masked = m
                .graph
                .conv(child)
                .is_some_and(|cc| cc.weight().mask().is_some());
            if masked {
                target = Some((parent_bits, child));
                break 'outer;
            }
        }
    }
    let (parent_bits, child) = target.expect("twin has a masked 3x3 group with a child");
    let rogue = (0u16..512)
        .find(|&b| {
            b.count_ones() == 3
                && Pattern::from_bits(b)
                    .map(|p| p.is_connected())
                    .unwrap_or(false)
                && !parent_bits.contains(&b)
        })
        .expect("a connected 3-entry pattern outside the parent's set exists");
    let param = m
        .graph
        .conv_mut(child)
        .expect("child is a conv")
        .weight_mut();
    let mut mask = param.mask().expect("child is masked").clone();
    for (i, slot) in mask.as_mut_slice()[..9].iter_mut().enumerate() {
        *slot = if rogue & (1 << i) != 0 { 1.0 } else { 0.0 };
    }
    for (i, wv) in param.value.as_mut_slice()[..9].iter_mut().enumerate() {
        *wv = if rogue & (1 << i) != 0 { 0.25 } else { 0.0 };
    }
    param.set_mask(mask).expect("same shape");
    check_model(&m.graph, &[1, 3, 64, 64])
}

/// 1×1 round-trip: the tail weight Algorithm 3 must prune is
/// resurrected (RV005).
pub fn roundtrip_fixture() -> Report {
    // 5×2 = 10 weights: one full 9-chunk plus a 1-weight tail.
    let mut w = init::uniform(&mut init::rng(5), &[5, 2, 1, 1], -1.0, 1.0);
    let set = canonical_set(2).expect("canonical 2-entry set");
    let out = prune_1x1_weights(&mut w, &set).expect("1x1 prune");
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g
        .add_layer("bad_1x1", Box::new(Conv2d::from_weight(w, 1, 0)), x)
        .expect("valid node");
    g.set_outputs(vec![c]).expect("valid output");
    let param = g.conv_mut(c).expect("conv node").weight_mut();
    let mut mask = out.mask;
    mask.as_mut_slice()[9] = 1.0;
    param.value.as_mut_slice()[9] = 0.75;
    param.set_mask(mask).expect("same shape");
    check_model(&g, &[1, 2, 8, 8])
}

/// Sparse format: unsorted offsets, duplicate kernel, stored zero, and
/// a value-count mismatch in one hand-assembled layer (RV010–RV012).
pub fn format_fixture() -> Report {
    let layer = PatternCompressedConv::from_parts(
        6,
        2,
        3,
        1,
        1,
        vec![
            PatternGroup::from_kernels(
                vec![(1, 1), (0, 0), (3, 0)], // unsorted + out of bounds
                &[
                    (0, 0, &[1.0, 2.0, 3.0]),
                    (0, 0, &[4.0, 0.0, 6.0]), // duplicate kernel + stored zero
                ],
            ),
            // two values for one offset: a ragged group
            PatternGroup::from_kernels(vec![(2, 2)], &[(5, 0, &[7.0, 8.0])]),
        ],
    );
    let mut report = Report::new();
    report.extend(check_pattern_layer("fixture layer", &layer));
    report
}

/// Level deal: the fixture engine's two-branch level is dealt with its
/// first step on both the caller and a worker and its second step on
/// neither — one step would run twice, the other never (RV020).
pub fn tiles_fixture() -> Report {
    let summary = plan_fixture_engine()
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    let level = summary
        .level_groups()
        .into_iter()
        .find(|l| l.len() >= 2)
        .expect("fixture engine has a parallel level");
    let deal = rtoss_sparse::LevelDeal {
        caller: vec![level[0]],
        pooled: vec![vec![level[0]]],
    };
    let mut report = Report::new();
    report.extend(check_level_deal(
        "fixture plan (doubled and dropped step)",
        &level,
        &deal,
    ));
    report
}

/// Histogram geometry: the pre-fix bucket mapping that dropped
/// exact-boundary samples one bucket too high (RV021).
pub fn histogram_fixture() -> Report {
    let broken = |ns: f64| {
        if ns <= 250.0 {
            return 0;
        }
        let steps = ((ns / 250.0).log2() / 0.5).floor() as usize;
        (steps + 1).min(LatencyHistogram::NUM_BUCKETS - 1)
    };
    let mut report = Report::new();
    report.extend(check_histogram_mapping(
        "fixture histogram",
        LatencyHistogram::NUM_BUCKETS,
        LatencyHistogram::bucket_upper_ns,
        broken,
    ));
    report
}

/// Builds a span event for the trace fixtures.
fn fixture_span(name: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> rtoss_obs::TraceEvent {
    rtoss_obs::TraceEvent {
        name: name.into(),
        kind: rtoss_obs::EventKind::Span,
        tid,
        ts_ns,
        dur_ns,
        args: Vec::new(),
    }
}

/// Trace nesting: two sync spans on one thread partially overlap —
/// neither nests in nor stays disjoint from the other (RV040).
pub fn trace_nesting_fixture() -> Report {
    let trace = rtoss_obs::Trace {
        events: vec![
            fixture_span("batch_assembly", 1, 0, 100),
            fixture_span("execute", 1, 50, 100),
        ],
        dropped: 0,
    };
    check_trace("fixture trace (partial overlap)", &trace)
}

/// Trace order: a thread's buffer holds a span ending *before* its
/// predecessor's end, impossible for recorded-at-close spans (RV041).
pub fn trace_order_fixture() -> Report {
    let trace = rtoss_obs::Trace {
        events: vec![
            fixture_span("execute", 1, 0, 200),
            fixture_span("layer:stem", 1, 10, 40),
        ],
        dropped: 0,
    };
    check_trace("fixture trace (out-of-order ends)", &trace)
}

/// Trace completeness: an `execute` span with no `layer:*` child — the
/// per-layer instrumentation went missing (RV042).
pub fn trace_orphan_fixture() -> Report {
    let trace = rtoss_obs::Trace {
        events: vec![fixture_span("execute", 1, 0, 100)],
        dropped: 0,
    };
    check_trace("fixture trace (hollow execute)", &trace)
}

/// Prometheus exposition: a histogram whose cumulative bucket counts
/// decrease and whose `+Inf` bucket disagrees with `_count` (RV043).
pub fn prom_fixture() -> Report {
    let text = "\
# HELP rtoss_execute_seconds Latency of the execute serving phase
# TYPE rtoss_execute_seconds histogram
rtoss_execute_seconds_bucket{le=\"0.1\"} 5
rtoss_execute_seconds_bucket{le=\"0.2\"} 3
rtoss_execute_seconds_bucket{le=\"+Inf\"} 7
rtoss_execute_seconds_sum 1.25
rtoss_execute_seconds_count 9
";
    check_prometheus("fixture exposition", text)
}

/// A small but structurally interesting engine for the plan fixtures:
/// a fused conv→BN→SiLU stem feeding a diamond (two branches joined by
/// an add), so the compiled plan has fusion, slot reuse, and liveness.
fn plan_fixture_engine() -> rtoss_sparse::SparseModel {
    use rtoss_nn::layers::{Activation, ActivationKind, BatchNorm2d};
    let mut g = Graph::new();
    let x = g.add_input("x");
    let stem = g
        .add_layer("stem", Box::new(Conv2d::new(3, 4, 3, 1, 1, 0xA0)), x)
        .expect("valid node");
    let bn = g
        .add_layer("stem_bn", Box::new(BatchNorm2d::new(4)), stem)
        .expect("valid node");
    let act = g
        .add_layer(
            "stem_act",
            Box::new(Activation::new(ActivationKind::Silu)),
            bn,
        )
        .expect("valid node");
    let left = g
        .add_layer("left", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xA1)), act)
        .expect("valid node");
    let right = g
        .add_layer("right", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xA2)), act)
        .expect("valid node");
    let join = g.add_add("join", left, right).expect("valid node");
    g.set_outputs(vec![join]).expect("valid output");
    rtoss_sparse::SparseModel::compile(&g).expect("engine compiles")
}

/// Plan schedule: an early step is rewired to read a step that has not
/// executed yet — a forward operand reference (RV050).
pub fn plan_schedule_fixture() -> Report {
    let engine = plan_fixture_engine();
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    let last = summary.steps.len() - 1;
    summary.steps[0].inputs = vec![Some(last)];
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (forward operand)",
        &engine,
        &summary,
    ));
    report
}

/// Plan arena: the left branch is rewired to write into the stem's
/// slot while the stem is still live (the right branch reads it a step
/// later) — overlapping lifetimes a run would corrupt (RV051).
pub fn plan_arena_fixture() -> Report {
    let engine = plan_fixture_engine();
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    summary.steps[1].out_slot = summary.steps[0].out_slot;
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (overlapping slot lifetimes)",
        &engine,
        &summary,
    ));
    report
}

/// Fused bit-identity: one output element of the planned forward pass
/// is flipped by a single bit — RV052 must notice, because "close" is
/// not the contract (RV052).
pub fn plan_fused_fixture() -> Report {
    let engine = plan_fixture_engine();
    let probe = init::uniform(&mut init::rng(0xA3), &[1, 3, 8, 8], 0.0, 1.0);
    let interpreted = engine
        .forward_interpreted_with(&probe, &rtoss_sparse::ExecConfig::serial())
        .expect("interpreter runs");
    let mut planned = interpreted.clone();
    let mut data = planned[0].as_slice().to_vec();
    data[0] = f32::from_bits(data[0].to_bits() ^ 1);
    planned[0] = Tensor::from_vec(data, interpreted[0].shape()).expect("same shape");
    let mut report = Report::new();
    report.extend(crate::plan::check_outputs_bit_identical(
        "fixture plan (single-ulp drift)",
        &planned,
        &interpreted,
    ));
    report
}

/// Level dependencies: a branch conv is pulled down into its
/// producer's dependency level, so the parallel executor would start
/// it while the stem is still being written (RV054).
pub fn plan_level_dep_fixture() -> Report {
    let engine = plan_fixture_engine();
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    let (i, j) = summary
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, st)| st.inputs.iter().flatten().next().map(|j| (i, *j)))
        .expect("fixture engine has step-to-step deps");
    summary.steps[i].level = summary.steps[j].level;
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (dep-violating level)",
        &engine,
        &summary,
    ));
    report
}

/// Concurrently-live slot alias: in `x → a → b` / `x → c` (both `b`
/// and `c` retained), `c` is rewired to write `a`'s slot. The serial
/// index rule is satisfied — `a`'s last use (step 1) precedes `c`
/// (step 2) — but `c` sits in level 0 while `b` consumes `a` in level
/// 1, so a parallel run could overwrite `a` mid-read. Exactly the
/// aliasing only the level rule can see: RV054, with no RV051 "lifetimes
/// overlap" finding.
pub fn plan_level_alias_fixture() -> Report {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let a = g
        .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 0xB0)), x)
        .expect("valid node");
    let b = g
        .add_layer("b", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xB1)), a)
        .expect("valid node");
    let c = g
        .add_layer("c", Box::new(Conv2d::new(3, 4, 3, 1, 1, 0xB2)), x)
        .expect("valid node");
    g.set_outputs(vec![b, c]).expect("valid outputs");
    let engine = rtoss_sparse::SparseModel::compile(&g).expect("engine compiles");
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    summary.steps[2].out_slot = summary.steps[0].out_slot;
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (concurrently-live slot alias)",
        &engine,
        &summary,
    ));
    report
}

/// Dropped dependency edge: in `x → a → b`, step `b`'s operand edge to
/// `a` is erased and `b` relevelled to 0. The corrupted summary is
/// *self-consistent* — RV050 and RV054 stay silent, because RV054's
/// window rule can only constrain edges that are still present — but
/// the model says the edge must exist, so the happens-before edge
/// reconstruction notices the read that lost its ordering (RV070).
pub fn plan_hb_fixture() -> Report {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let a = g
        .add_layer("a", Box::new(Conv2d::new(3, 4, 3, 1, 1, 0xC0)), x)
        .expect("valid node");
    let b = g
        .add_layer("b", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xC1)), a)
        .expect("valid node");
    g.set_outputs(vec![b]).expect("valid output");
    let engine = rtoss_sparse::SparseModel::compile(&g).expect("engine compiles");
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    summary.steps[1].inputs = vec![None];
    summary.steps[1].level = 0;
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (dropped dependency edge)",
        &engine,
        &summary,
    ));
    report
}

/// Cross-lane slot collision: two steps of one dependency level — the
/// exact pair `run_with_pool` fans into concurrent caller/worker lanes
/// at width 2 and up — are rewired to write the same arena slot. The
/// shadow replay reports the unordered write at every such width
/// (RV070).
pub fn pool_order_fixture() -> Report {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let s = g
        .add_layer("stem", Box::new(Conv2d::new(3, 4, 3, 1, 1, 0xC2)), x)
        .expect("valid node");
    let a = g
        .add_layer("a", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xC3)), s)
        .expect("valid node");
    let b = g
        .add_layer("b", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xC4)), a)
        .expect("valid node");
    let c = g
        .add_layer("c", Box::new(Conv2d::new(4, 4, 3, 1, 1, 0xC5)), s)
        .expect("valid node");
    g.set_outputs(vec![b, c]).expect("valid outputs");
    let engine = rtoss_sparse::SparseModel::compile(&g).expect("engine compiles");
    let mut summary = engine
        .plan_summary(&[1, 3, 8, 8])
        .expect("plan compiles for the fixture engine");
    let groups = summary.level_groups();
    let level = groups
        .iter()
        .find(|g| g.len() >= 2)
        .expect("fixture engine has a parallel level");
    let (p, q) = (level[0], level[1]);
    summary.steps[q].out_slot = summary.steps[p].out_slot;
    let mut report = Report::new();
    report.extend(check_plan(
        "fixture plan (cross-lane slot collision)",
        &engine,
        &summary,
    ));
    report
}

/// Lock-order consistency: two functions acquire the same two mutexes
/// in opposite orders — the classic ABBA deadlock shape (RV071).
pub fn lint_lock_order_fixture() -> Report {
    let src = "\
fn ab(s: &S) {
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
fn ba(s: &S) {
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
";
    let mut report = Report::new();
    report.extend(lint_source("fixtures/lock_order.rs", src));
    report
}

/// Relaxed publication: a readiness flag is stored with
/// `Ordering::Relaxed`, so a reader observing `true` has no ordering
/// guarantee on the data published before the store (RV072).
pub fn lint_relaxed_store_fixture() -> Report {
    let src = "\
fn publish(s: &S) {
    s.results = compute();
    s.ready.store(true, Ordering::Relaxed);
}
";
    let mut report = Report::new();
    report.extend(lint_source("fixtures/relaxed_store.rs", src));
    report
}

/// Lock held across pool hand-off: a mutex guard stays live across
/// `pool.submit(…)` and `batch.wait()`, so pool tasks needing the same
/// lock would deadlock against the waiting caller (RV073).
pub fn lint_lock_across_submit_fixture() -> Report {
    let src = "\
fn flush(s: &S, pool: &WorkerPool) {
    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());
    let batch = pool.submit(make_tasks(&q));
    batch.wait();
}
";
    let mut report = Report::new();
    report.extend(lint_source("fixtures/lock_across_submit.rs", src));
    report
}

/// Routing ring: one replica is built with zero virtual nodes, so no
/// key can ever reach it (RV060).
pub fn fleet_ring_fixture() -> Report {
    let ring = rtoss_fleet::HashRing::with_vnode_counts(&[32, 0, 32, 32]);
    crate::fleet::check_hash_ring(&ring, 2000)
}

/// Degradation controller: the hysteresis band is inverted — the
/// upgrade threshold sits *above* the downgrade threshold, so the
/// controller would oscillate on every tick (RV061).
pub fn fleet_tier_fixture() -> Report {
    let cfg = rtoss_fleet::TierControllerConfig {
        upgrade_below: 0.9,
        downgrade_above: 0.2,
        ..rtoss_fleet::TierControllerConfig::default()
    };
    crate::fleet::check_tier_controller(cfg, 3)
}

/// Tenant quota ledger: a snapshot where two offered requests vanished
/// without being admitted, throttled, or shed (RV062).
pub fn fleet_quota_fixture() -> Report {
    use rtoss_fleet::{FleetSnapshot, TenantSnapshot};
    let snapshot = FleetSnapshot {
        tenants: vec![TenantSnapshot {
            id: "cam-fleet".into(),
            class: "gold".into(),
            offered: 10,
            admitted: 5, // 5 + 2 + 1 == 8 != 10: two requests leaked
            throttled: 2,
            shed: 1,
        }],
        replicas: Vec::new(),
        routed_affinity: 5,
        routed_spill: 0,
        tier_upgrades: 0,
        tier_downgrades: 0,
        hot_swaps: 0,
    };
    crate::fleet::check_fleet_ledger(&snapshot)
}

/// A hand-built, fully consistent telemetry snapshot: one tenant that
/// fired and resolved an admission alert, one healthy replica. The
/// telemetry fixtures each corrupt one invariant of this base.
pub(crate) fn telemetry_fixture_base() -> rtoss_fleet::TelemetrySnapshot {
    use rtoss_fleet::{
        AdmissionTotals, AdmissionWindow, AlertRecord, BurnPoint, GaugeWindow, PolicySnapshot,
        ReplicaTelemetrySnapshot, TelemetrySnapshot, TenantTelemetrySnapshot,
    };
    const MS: u64 = 1_000_000;
    let policy = PolicySnapshot {
        objective: 0.95,
        short_range_ns: 50 * MS,
        long_range_ns: 200 * MS,
        fire_burn: 2.0,
        resolve_burn: 0.5,
        min_total: 5,
    };
    TelemetrySnapshot {
        window_ns: 10 * MS,
        windows: 64,
        admission_policy: policy,
        deadline_policy: PolicySnapshot {
            objective: 0.9,
            ..policy
        },
        tenants: vec![TenantTelemetrySnapshot {
            id: "bulk-co".into(),
            class: "bulk".into(),
            windows: vec![
                AdmissionWindow {
                    start_ns: 0,
                    offered: 10,
                    admitted: 6,
                    throttled: 2,
                    shed: 2,
                },
                AdmissionWindow {
                    start_ns: 10 * MS,
                    offered: 8,
                    admitted: 8,
                    throttled: 0,
                    shed: 0,
                },
            ],
            totals: AdmissionTotals {
                offered: 18,
                admitted: 14,
                throttled: 2,
                shed: 2,
            },
            evicted: AdmissionTotals {
                offered: 0,
                admitted: 0,
                throttled: 0,
                shed: 0,
            },
            late: 0,
            burns: vec![
                BurnPoint {
                    ts_ns: 5 * MS,
                    short: 3.0,
                    long: 2.5,
                },
                BurnPoint {
                    ts_ns: 15 * MS,
                    short: 0.2,
                    long: 1.0,
                },
            ],
            firing: false,
        }],
        replicas: vec![ReplicaTelemetrySnapshot {
            replica: 0,
            queue_frac: vec![GaugeWindow {
                start_ns: 0,
                count: 2,
                last: 0.5,
                min: 0.1,
                max: 0.6,
            }],
            tier: vec![GaugeWindow {
                start_ns: 0,
                count: 2,
                last: 1.0,
                min: 0.0,
                max: 1.0,
            }],
            burns: vec![BurnPoint {
                ts_ns: 5 * MS,
                short: 0.0,
                long: 0.0,
            }],
            firing: false,
        }],
        alerts: vec![
            AlertRecord {
                rule: "admission".into(),
                subject: "bulk-co".into(),
                state: "firing".into(),
                ts_ns: 5 * MS,
                burn_short: 3.0,
                burn_long: 2.5,
            },
            AlertRecord {
                rule: "admission".into(),
                subject: "bulk-co".into(),
                state: "resolved".into(),
                ts_ns: 15 * MS,
                burn_short: 0.2,
                burn_long: 1.0,
            },
        ],
        dump_count: 1,
        dumps_suppressed: 0,
    }
}

/// A valid flight dump rendered by a real recorder: tick span, breach
/// alert, burn sample, with the trigger inside the covered window.
pub(crate) fn flight_fixture_dump() -> String {
    use rtoss_obs::{AlertEvent, AlertKind, FlightRecorder};
    let r = FlightRecorder::new(16);
    r.span("telemetry_tick", 1_000, 500);
    r.alert(&AlertEvent {
        rule: "admission".into(),
        subject: "bulk-co".into(),
        kind: AlertKind::Firing,
        ts_ns: 2_000,
        burn_short: 3.0,
        burn_long: 2.5,
    });
    r.sample("tenant/bulk-co/burn_short", 3_000, 3.0);
    r.dump("slo-breach", 2_000)
}

/// Window geometry: one admission window's start is knocked off the
/// storage-window alignment grid (RV080).
pub fn series_window_fixture() -> Report {
    let mut snap = telemetry_fixture_base();
    snap.tenants[0].windows[1].start_ns += 3;
    crate::telemetry::check_telemetry_windows(&snap)
}

/// Per-window conservation: one admitted request is double-counted, so
/// `offered != admitted + throttled + shed` in that window (RV081).
pub fn series_conserve_fixture() -> Report {
    let mut snap = telemetry_fixture_base();
    snap.tenants[0].windows[0].admitted += 1;
    crate::telemetry::check_telemetry_conservation(&snap, None)
}

/// Alert hysteresis: the resolve transition claims a short burn still
/// above the resolve threshold — a transition the monitor's hysteresis
/// band can never emit (RV082).
pub fn slo_hysteresis_fixture() -> Report {
    let mut snap = telemetry_fixture_base();
    snap.alerts[1].burn_short = 1.5;
    snap.tenants[0].burns[1].short = 1.5;
    crate::telemetry::check_alert_log(&snap)
}

/// Flight dump: the trigger timestamp is rewritten to sit outside the
/// `[first_ts_ns, last_ts_ns]` window the dump claims to cover (RV083).
pub fn flight_dump_fixture() -> Report {
    let dump = flight_fixture_dump().replace("\"trigger_ts_ns\":2000", "\"trigger_ts_ns\":99000");
    crate::telemetry::check_flight_dump("fixture dump (trigger outside window)", &dump)
}

/// A pruned 3x3 weight and its compressed layer for the kernel-family
/// fixtures: real shared patterns and a non-trivial pack.
fn kernel_fixture_layer() -> (Tensor, PatternCompressedConv) {
    let mut w = init::uniform(&mut init::rng(0x90), &[6, 4, 3, 3], -1.0, 1.0);
    let set = canonical_set(3).expect("canonical 3-entry set");
    rtoss_core::prune3x3::prune_3x3_weights(&mut w, &set).expect("prunes");
    let layer = PatternCompressedConv::from_dense(&w, 1, 1).expect("compresses");
    (w, layer)
}

/// Pack reconstruction: one value of a copy of the layer's pack gets a
/// single-ulp flip, so the copy no longer rebuilds the dense weight it
/// was compiled from (RV090).
pub fn kernel_pack_fixture() -> Report {
    let (w, layer) = kernel_fixture_layer();
    let mut pack = layer.pack().clone();
    let vals = pack.values_mut();
    vals[0] = f32::from_bits(vals[0].to_bits() ^ 1);
    let mut report = Report::new();
    report.extend(crate::kernels::check_pack(
        "fixture layer (flipped pack value)",
        "pattern",
        &pack,
        &w,
    ));
    report
}

/// Pack-vs-oracle equivalence: the first value of a copy of the layer's
/// COO pack is changed, so the tiled driver over it no longer agrees
/// with the scalar reference on the intact layer (RV092).
pub fn kernel_equiv_fixture() -> Report {
    let (_, layer) = kernel_fixture_layer();
    let mut pack = rtoss_sparse::coo_from_pattern(&layer).pack().clone();
    pack.values_mut()[0] += 0.5;
    let mut report = Report::new();
    report.extend(crate::kernels::check_packs_match_scalar(
        "fixture layer (corrupted pack vs intact layer)",
        &layer,
        &[("coo", &pack)],
        &[1, 4, 10, 10],
    ));
    report
}
