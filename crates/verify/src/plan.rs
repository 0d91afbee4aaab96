//! Compiled-plan checks: one walk over a plan summary (RV020, RV050,
//! RV051, RV054, RV070) and planned ≡ interpreted bit-identity (RV052).
//!
//! The plan compiler in `rtoss-sparse` turns a [`SparseModel`] into a
//! static schedule with a reusable buffer arena, fused conv epilogues,
//! and a dependency-levelled parallel schedule. [`check_plan`] checks
//! one [`PlanSummary`] against the model it was compiled from. It
//! builds three things once — the per-slot tenant lists, the map from
//! model node to producing step, and, for every width in 1..=8, the
//! lane deal the runner executes
//! ([`PlanSummary::level_schedule`] shares its dealing code with the
//! runner) — and reads every rule off them:
//!
//! - **RV050 — schedule validity.** Every step reads only earlier
//!   steps (or the extern input), liveness points forward, and every
//!   declared output comes from a retained step. A violation means the
//!   plan could read garbage or free a value that is still needed.
//! - **RV051 — arena soundness.** Two tenants of one slot have
//!   disjoint lifetimes in step order; every slot has a tenant and
//!   covers each one; `arena_bytes`, `retained_bytes` and
//!   `peak_live_bytes` agree with the schedule. A violation means a run
//!   would overwrite live data — the classic buffer-reuse bug.
//! - **RV054 — level-parallel soundness.** Every operand sits in a
//!   strictly earlier dependency level, and a slot's earlier tenant is
//!   last consumed strictly below the later tenant's level. The serial
//!   index rule of RV051 cannot see a slot the parallel runner would
//!   overwrite while another level still reads it.
//! - **RV020 — level deal.** At every width the caller lane and the
//!   pooled chunks partition each level's steps. A step dealt twice
//!   runs twice and races itself on its output slot; a step dealt
//!   nowhere never runs, and its consumers read a stale slot.
//! - **RV070 — happens-before race freedom.** First, the operand edges:
//!   the model's data dependencies, with the compiler's sole-consumer
//!   conv→affine→activation fusion re-derived from node kinds and use
//!   counts, must give exactly each step's recorded edges. A dropped
//!   edge leaves a self-consistent summary that RV050/RV054 pass,
//!   because the level rule only constrains edges that are still
//!   present. Second, a shadow replay at each width: the walk executes
//!   the deal lane by lane, tracking which step's value each slot holds
//!   and every access of the current level. Levels are barriers and a
//!   lane runs in order, so two accesses to one slot from different
//!   lanes of one level, at least one a write, are unordered; each such
//!   pair is reported, as is every read that does not see the value its
//!   edge promises (a slot recycled too early, or a producer that has
//!   not run). Width 1 replays serial step order.
//!
//! [`check_execution_plan`] runs [`check_plan`] on a live engine's plan
//! and then proves the planned forward **bit-identical** to the
//! interpreter (RV052), serial and level-parallel; closeness is not
//! enough, because serving dedup/caching layers compare outputs
//! exactly. The `tiles`, `plan-*` and `pool-order` fixtures prove each
//! code can fire.

use crate::diag::{Diagnostic, Report};
use rtoss_sparse::{ExecConfig, LevelDeal, PlanSummary, SparseModel};
use rtoss_tensor::{Tensor, WorkerPool};
use std::collections::BTreeMap;

/// Widest lane deal [`check_plan`] replays; every width from 1 up is
/// checked.
const MAX_WIDTH: usize = 8;

/// Checks a compiled plan's summary against the model it was compiled
/// from in one walk: schedule (RV050), arena (RV051), levels (RV054),
/// the level deal at widths 1..=8 (RV020) and race freedom
/// (RV070). Returns one diagnostic per violation.
pub fn check_plan(location: &str, model: &SparseModel, s: &PlanSummary) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = s.steps.len();
    // Per slot, its tenants in step order; per step, the deepest level
    // that consumes it (MAX for retained outputs, live to the end).
    let mut tenants: Vec<Vec<usize>> = vec![Vec::new(); s.slot_caps.len()];
    let mut end_level: Vec<usize> = s
        .steps
        .iter()
        .map(|st| {
            if st.last_use == usize::MAX {
                usize::MAX
            } else {
                st.level
            }
        })
        .collect();
    for (i, step) in s.steps.iter().enumerate() {
        if i > 0 && s.steps[i - 1].node >= step.node {
            out.push(Diagnostic::error(
                "RV050",
                location,
                format!(
                    "step {i} ({}) computes node {} after node {}: schedule is not in \
                     topological node order",
                    step.name,
                    step.node,
                    s.steps[i - 1].node
                ),
            ));
        }
        for (k, src) in step.inputs.iter().enumerate() {
            let Some(j) = *src else { continue };
            if j >= i {
                out.push(Diagnostic::error(
                    "RV050",
                    location,
                    format!(
                        "step {i} ({}) operand {k} reads step {j}, which has not \
                         executed yet",
                        step.name
                    ),
                ));
            }
            let Some(op) = s.steps.get(j) else { continue };
            if op.level >= step.level {
                out.push(Diagnostic::error(
                    "RV054",
                    location,
                    format!(
                        "step {i} ({}, level {}) operand {k} reads step {j} ({}, level {}): \
                         operands must sit in strictly earlier levels or the parallel \
                         executor may read them mid-write",
                        step.name, step.level, op.name, op.level
                    ),
                ));
            }
            end_level[j] = end_level[j].max(step.level);
        }
        if step.last_use != usize::MAX && (step.last_use < i || step.last_use >= n) {
            out.push(Diagnostic::error(
                "RV050",
                location,
                format!(
                    "step {i} ({}) has last use {} outside {i}..{n}: liveness must point \
                     forward within the schedule",
                    step.name, step.last_use
                ),
            ));
        }
        match s.slot_caps.get(step.out_slot) {
            None => out.push(Diagnostic::error(
                "RV051",
                location,
                format!(
                    "step {i} ({}) writes slot {}, but only {} slots exist",
                    step.name,
                    step.out_slot,
                    s.slot_caps.len()
                ),
            )),
            Some(&cap) => {
                if cap < step.out_len {
                    out.push(Diagnostic::error(
                        "RV051",
                        location,
                        format!(
                            "step {i} ({}) needs {} elements but slot {} holds only {cap}",
                            step.name, step.out_len, step.out_slot
                        ),
                    ));
                }
                tenants[step.out_slot].push(i);
            }
        }
    }
    for (k, src) in s.outputs.iter().enumerate() {
        let Some(j) = src else { continue };
        match s.steps.get(*j) {
            None => out.push(Diagnostic::error(
                "RV050",
                location,
                format!("output {k} references step {j}, but only {n} steps exist"),
            )),
            Some(step) if step.last_use != usize::MAX => out.push(Diagnostic::error(
                "RV050",
                location,
                format!(
                    "output {k} reads step {j} ({}), whose slot is recycled after step {}: \
                     outputs must be retained",
                    step.name, step.last_use
                ),
            )),
            Some(_) => {}
        }
    }
    for (slot, steps_in_slot) in tenants.iter().enumerate() {
        if steps_in_slot.is_empty() {
            out.push(Diagnostic::error(
                "RV051",
                location,
                format!("slot {slot} has no tenant: arena reserves memory nothing uses"),
            ));
        }
        for pair in steps_in_slot.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (sa, sb) = (&s.steps[a], &s.steps[b]);
            // Tenant `a`'s value must be dead strictly before tenant
            // `b` claims the slot, in step order (RV051) and in level
            // order (RV054); a retained tenant (MAX) never dies.
            if sa.last_use == usize::MAX || sa.last_use >= b {
                let live = match sa.last_use {
                    usize::MAX => "the end of the run".to_string(),
                    l => l.to_string(),
                };
                out.push(Diagnostic::error(
                    "RV051",
                    location,
                    format!(
                        "slot {slot}: step {b} ({}) overwrites step {a} ({}), which is \
                         live through step {live} — lifetimes overlap",
                        sb.name, sa.name
                    ),
                ));
            }
            if end_level[a] == usize::MAX || end_level[a] >= sb.level {
                let end = match end_level[a] {
                    usize::MAX => "end-of-run".to_string(),
                    l => l.to_string(),
                };
                out.push(Diagnostic::error(
                    "RV054",
                    location,
                    format!(
                        "slot {slot}: step {b} ({}, level {}) claims it while step {a} ({}) \
                         is still consumed at level {end} — the two can be concurrently live, \
                         so a parallel run could overwrite data another level still reads",
                        sb.name, sb.level, sa.name
                    ),
                ));
            }
        }
    }
    let arena: u64 = 4 * s.slot_caps.iter().map(|&c| c as u64).sum::<u64>();
    if s.arena_bytes != arena {
        out.push(Diagnostic::error(
            "RV051",
            location,
            format!(
                "reported arena_bytes {} does not match slot capacities ({arena} bytes)",
                s.arena_bytes
            ),
        ));
    }
    let retained: u64 = 4 * s.steps.iter().map(|st| st.out_len as u64).sum::<u64>();
    if s.retained_bytes != retained {
        out.push(Diagnostic::error(
            "RV051",
            location,
            format!(
                "reported retained_bytes {} does not match step outputs ({retained} bytes)",
                s.retained_bytes
            ),
        ));
    }
    if s.peak_live_bytes > s.arena_bytes {
        out.push(Diagnostic::error(
            "RV051",
            location,
            format!(
                "peak_live_bytes {} exceeds arena_bytes {}: the arena could not hold the \
                 liveness peak",
                s.peak_live_bytes, s.arena_bytes
            ),
        ));
    }

    // RV070: the operand edges the model requires.
    let (kinds, node_inputs): (Vec<&str>, Vec<Vec<usize>>) = model.node_deps().into_iter().unzip();
    let producer = node_to_step(location, model, &kinds, &node_inputs, s, &mut out);
    for (si, step) in s.steps.iter().enumerate() {
        let Some(ins) = node_inputs.get(step.node) else {
            continue; // bad node index already reported
        };
        let expected: Vec<Option<usize>> = ins
            .iter()
            .map(|&j| match kinds.get(j) {
                Some(&"input") => None,
                _ => producer.get(j).copied().flatten(),
            })
            .collect();
        if expected != step.inputs {
            out.push(Diagnostic::error(
                "RV070",
                location,
                format!(
                    "step {si} ({}) carries operand edges {:?}, but model node {} requires \
                     {expected:?} — a dropped or rewired dependency edge removes the \
                     happens-before order that kept its read race-free",
                    step.name, step.inputs, step.node
                ),
            ));
        }
    }

    // RV020 and the RV070 shadow replay over each width's deal.
    let groups = s.level_groups();
    let serial: Vec<usize> = (0..n).collect();
    for width in 1..=MAX_WIDTH {
        let deals = s.level_schedule(width).levels;
        for (li, (level, deal)) in groups.iter().zip(&deals).enumerate() {
            out.extend(check_level_deal(
                &format!("{location} width={width} level={li}"),
                level,
                deal,
            ));
        }
        let levels: Vec<Vec<&[usize]>> = if width == 1 {
            vec![vec![&serial]]
        } else {
            deals
                .iter()
                .map(|d| {
                    std::iter::once(d.caller.as_slice())
                        .chain(d.pooled.iter().map(Vec::as_slice))
                        .collect()
                })
                .collect()
        };
        shadow_replay(location, s, width, &levels, &mut out);
    }
    out
}

/// Re-derives, per model node, which plan step produces its value
/// (`None` for the extern input and for nodes no step covers), by
/// replaying the compiler's fusion decisions from the model's node
/// kinds, inputs and use counts and each step's `fused` label.
/// Inconsistencies become RV070 diagnostics.
fn node_to_step(
    location: &str,
    model: &SparseModel,
    kinds: &[&str],
    inputs: &[Vec<usize>],
    s: &PlanSummary,
    out: &mut Vec<Diagnostic>,
) -> Vec<Option<usize>> {
    // The compiler fuses node `i` into its consumer only when exactly
    // one edge consumes `i` and `i` is not a declared output.
    let sole_consumer = |i: usize| {
        if model.node_uses().get(i) != Some(&1) || model.output_nodes().contains(&i) {
            return None;
        }
        inputs.iter().rposition(|ins| ins.contains(&i))
    };
    let n = kinds.len();
    let mut map: Vec<Option<usize>> = vec![None; n];
    for (si, step) in s.steps.iter().enumerate() {
        if step.node >= n {
            out.push(Diagnostic::error(
                "RV070",
                location,
                format!(
                    "step {si} ({}) claims model node {}, but the model has only {n} nodes",
                    step.name, step.node
                ),
            ));
            continue;
        }
        map[step.node] = Some(si);
        let (wants_affine, wants_act) = match step.fused {
            "none" => (false, false),
            "affine" => (true, false),
            "act" => (false, true),
            "affine+act" => (true, true),
            other => {
                out.push(Diagnostic::error(
                    "RV070",
                    location,
                    format!(
                        "step {si} ({}) has unknown fusion label {other:?}",
                        step.name
                    ),
                ));
                (false, false)
            }
        };
        let mut tail = step.node;
        for (wanted, kind, what, consumer) in [
            (
                wants_affine,
                "channel_affine",
                "channel affine",
                "channel-affine",
            ),
            (wants_act, "activation", "activation", "activation"),
        ] {
            if !wanted {
                continue;
            }
            match sole_consumer(tail) {
                Some(c) if kinds.get(c) == Some(&kind) => {
                    map[c] = Some(si);
                    tail = c;
                }
                _ => out.push(Diagnostic::error(
                    "RV070",
                    location,
                    format!(
                        "step {si} ({}) claims a fused {what}, but node {tail} has no \
                         sole-consumer {consumer} in the model",
                        step.name
                    ),
                )),
            }
        }
    }
    map
}

/// Shadow-state replay of one width's lanes (`levels[level][lane]`
/// lists the steps a lane runs, in order). Tracks which step's value
/// each arena slot holds and every write and read of the current
/// level, and reports each read that does not observe the value its
/// operand edge promises and each pair of accesses to one slot from
/// different lanes of one level with at least one write (RV070).
fn shadow_replay(
    location: &str,
    s: &PlanSummary,
    width: usize,
    levels: &[Vec<&[usize]>],
    out: &mut Vec<Diagnostic>,
) {
    let n_slots = s.slot_caps.len();
    let mut holder: Vec<Option<usize>> = vec![None; n_slots];
    for (li, lanes) in levels.iter().enumerate() {
        // `(step, lane)` of this level's accesses per slot; the level
        // barrier orders everything before them.
        let mut writes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_slots];
        let mut reads: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_slots];
        for (lane, steps) in lanes.iter().enumerate() {
            for &si in *steps {
                let step = &s.steps[si];
                let mut read_slots: Vec<usize> = Vec::new();
                for &p in step.inputs.iter().flatten() {
                    // Out-of-range operands and slots are RV050's and
                    // RV051's findings.
                    let Some(slot) = s.steps.get(p).map(|op| op.out_slot) else {
                        continue;
                    };
                    if slot >= n_slots {
                        continue;
                    }
                    if holder[slot] != Some(p) {
                        out.push(Diagnostic::error(
                            "RV070",
                            location,
                            format!(
                                "shadow width {width}: step {si} ({}) reads slot {slot} \
                                 expecting step {p}'s value, but the slot holds {} — the \
                                 value was recycled or never produced",
                                step.name,
                                match holder[slot] {
                                    Some(w) => format!("step {w}'s"),
                                    None => "no value".to_string(),
                                }
                            ),
                        ));
                    }
                    if !read_slots.contains(&slot) {
                        read_slots.push(slot);
                    }
                }
                for &slot in &read_slots {
                    for &(_, wk) in writes[slot].iter().filter(|&&(_, wk)| wk != lane) {
                        out.push(Diagnostic::error(
                            "RV070",
                            location,
                            format!(
                                "shadow width {width}: step {si} ({}) reads slot {slot} \
                                 concurrently with lane {wk}'s write in level {li}",
                                step.name
                            ),
                        ));
                    }
                    reads[slot].push((si, lane));
                }
                let slot = step.out_slot;
                if slot >= n_slots {
                    continue;
                }
                for &(_, wk) in writes[slot].iter().filter(|&&(_, wk)| wk != lane) {
                    out.push(Diagnostic::error(
                        "RV070",
                        location,
                        format!(
                            "shadow width {width}: unordered write — step {si} ({}) writes \
                             slot {slot} concurrently with lane {wk}'s write in level {li}",
                            step.name
                        ),
                    ));
                }
                for &(r, rk) in reads[slot].iter().filter(|&&(_, rk)| rk != lane) {
                    out.push(Diagnostic::error(
                        "RV070",
                        location,
                        format!(
                            "shadow width {width}: unordered write — step {si} ({}) writes \
                             slot {slot} while step {r} reads it from concurrent lane {rk} \
                             of level {li}",
                            step.name
                        ),
                    ));
                }
                holder[slot] = Some(si);
                writes[slot].push((si, lane));
            }
        }
    }
}

/// Checks that `deal` partitions the steps of `level` (RV020): every
/// step the caller lane (lane 0) or a pooled chunk (lanes 1..) runs
/// belongs to the level, none runs twice, none is left out.
pub(crate) fn check_level_deal(
    location: &str,
    level: &[usize],
    deal: &LevelDeal,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut owner: BTreeMap<usize, Option<usize>> = level.iter().map(|&si| (si, None)).collect();
    let lanes = std::iter::once(&deal.caller).chain(&deal.pooled);
    for (lane, steps) in lanes.enumerate() {
        for &si in steps {
            match owner.get_mut(&si) {
                None => out.push(Diagnostic::error(
                    "RV020",
                    location,
                    format!("lane {lane} runs step {si}, which is not in this level"),
                )),
                Some(Some(prev)) => out.push(Diagnostic::error(
                    "RV020",
                    location,
                    format!("step {si} dealt to both lane {prev} and lane {lane} (runs twice)"),
                )),
                Some(slot) => *slot = Some(lane),
            }
        }
    }
    for (si, lane) in owner {
        if lane.is_none() {
            out.push(Diagnostic::error(
                "RV020",
                location,
                format!("step {si} dealt to no lane (never runs)"),
            ));
        }
    }
    out
}

/// Checks that two output sets are **bit-identical** (RV052): same
/// count, same shapes, every `f32` equal as bits. Used to prove the
/// planned (fused, arena-backed) forward pass equals the interpreter.
pub fn check_outputs_bit_identical(
    location: &str,
    planned: &[Tensor],
    interpreted: &[Tensor],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if planned.len() != interpreted.len() {
        out.push(Diagnostic::error(
            "RV052",
            location,
            format!(
                "planned forward returned {} outputs, interpreter returned {}",
                planned.len(),
                interpreted.len()
            ),
        ));
        return out;
    }
    for (k, (p, i)) in planned.iter().zip(interpreted).enumerate() {
        if p.shape() != i.shape() {
            out.push(Diagnostic::error(
                "RV052",
                location,
                format!(
                    "output {k}: planned shape {:?} != interpreted shape {:?}",
                    p.shape(),
                    i.shape()
                ),
            ));
            continue;
        }
        let diffs = p
            .as_slice()
            .iter()
            .zip(i.as_slice())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if diffs > 0 {
            let first = p
                .as_slice()
                .iter()
                .zip(i.as_slice())
                .position(|(a, b)| a.to_bits() != b.to_bits())
                .unwrap_or(0);
            out.push(Diagnostic::error(
                "RV052",
                location,
                format!(
                    "output {k}: {diffs} of {} elements differ from the interpreter \
                     (first at flat index {first}) — planned execution must be \
                     bit-identical, not approximately equal",
                    p.as_slice().len()
                ),
            ));
        }
    }
    out
}

/// Runs every plan check against a live engine: compiles a plan for
/// `input`'s shape and runs [`check_plan`] on its summary, then executes
/// the planned and interpreted forward passes at each thread count in
/// `threads` and proves them bit-identical (RV052). The planned pass
/// runs twice per thread count — once through the public entry
/// (process-global pool) and once against a forced 3-worker pool — so
/// the level-parallel executor is exercised and bit-compared against
/// the serial plan even on a single-core host.
pub fn check_execution_plan(model: &SparseModel, input: &Tensor, threads: &[usize]) -> Report {
    let mut report = Report::new();
    let shape = input.shape();
    let loc = format!("plan{shape:?}");
    let summary = match model.plan_summary(shape) {
        Ok(s) => s,
        Err(e) => {
            report.push(Diagnostic::error(
                "RV050",
                loc,
                format!("plan compilation failed: {e}"),
            ));
            return report;
        }
    };
    report.extend(check_plan(&loc, model, &summary));
    let forced = WorkerPool::new(3);
    let serial = model
        .plan_for(shape)
        .and_then(|p| p.run_with_pool(model, input, &ExecConfig::serial(), &forced));
    for &t in threads {
        let exec = ExecConfig::with_threads(t);
        let tloc = format!("plan{shape:?} threads={t}");
        let planned = model
            .plan_for(shape)
            .and_then(|p| p.run(model, input, &exec));
        let interpreted = model.forward_interpreted_with(input, &exec);
        match (planned, interpreted) {
            (Ok(p), Ok(i)) => report.extend(check_outputs_bit_identical(&tloc, &p, &i)),
            (Err(e), _) => report.push(Diagnostic::error(
                "RV052",
                tloc,
                format!("planned forward failed: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "RV052",
                tloc,
                format!("interpreted forward failed: {e}"),
            )),
        }
        let ploc = format!("plan{shape:?} threads={t} forced-pool");
        let parallel = model
            .plan_for(shape)
            .and_then(|p| p.run_with_pool(model, input, &exec, &forced));
        match (&serial, parallel) {
            (Ok(s), Ok(p)) => report.extend(check_outputs_bit_identical(&ploc, &p, s)),
            (Err(e), _) => report.push(Diagnostic::error(
                "RV052",
                ploc,
                format!("serial planned forward failed: {e}"),
            )),
            (_, Err(e)) => report.push(Diagnostic::error(
                "RV052",
                ploc,
                format!("parallel planned forward failed: {e}"),
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtoss_core::{EntryPattern, Pruner, RTossPruner};
    use rtoss_tensor::init;

    fn engine() -> SparseModel {
        let mut m = rtoss_models::yolov5s_twin(4, 2, 0xBEEF).expect("twin builds");
        RTossPruner::new(EntryPattern::Three)
            .prune_graph(&mut m.graph)
            .expect("prunes");
        SparseModel::compile(&m.graph).expect("compiles")
    }

    fn clean_summary(engine: &SparseModel) -> PlanSummary {
        engine.plan_summary(&[1, 3, 32, 32]).expect("plans")
    }

    fn codes(diags: &[Diagnostic], code: &str) -> usize {
        diags.iter().filter(|d| d.code == code).count()
    }

    #[test]
    fn clean_engine_passes_all_plan_checks() {
        let engine = engine();
        let probe = init::uniform(&mut init::rng(7), &[1, 3, 32, 32], 0.0, 1.0);
        let diags = check_plan("clean", &engine, &clean_summary(&engine));
        assert!(diags.is_empty(), "{diags:?}");
        let report = check_execution_plan(&engine, &probe, &[1, 4]);
        assert!(!report.has_errors(), "{}", report.render());
        // Reading the model's dependency skeleton leaves it runnable.
        assert!(engine.forward(&probe).is_ok());
    }

    #[test]
    fn forward_operand_reference_fires_rv050() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Make an early step read a step that runs after it.
        let last = s.steps.len() - 1;
        s.steps[0].inputs = vec![Some(last)];
        let diags = check_plan("corrupt", &engine, &s);
        assert!(codes(&diags, "RV050") > 0, "{diags:?}");
    }

    #[test]
    fn undersized_slot_fires_rv051() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Undersize a slot below its tenant's length.
        let slot = s.steps[0].out_slot;
        s.slot_caps[slot] = s.steps[0].out_len.saturating_sub(1);
        let diags = check_plan("corrupt", &engine, &s);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RV051" && d.message.contains("holds only")),
            "{diags:?}"
        );
    }

    #[test]
    fn dep_violating_level_fires_rv054() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Pull a consumer down into its operand's level: the levelled
        // schedule would start both concurrently.
        let (i, j) = s
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, st)| st.inputs.iter().flatten().next().map(|j| (i, *j)))
            .expect("twin has step-to-step deps");
        s.steps[i].level = s.steps[j].level;
        let diags = check_plan("corrupt", &engine, &s);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RV054" && d.message.contains("strictly earlier levels")),
            "{diags:?}"
        );
    }

    #[test]
    fn concurrently_live_slot_alias_fires_rv054() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Find a slot with two tenants and make the earlier one
        // retained: its lifetime now spans the later tenant's level,
        // so the two could be concurrently live.
        let mut tenants: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, st) in s.steps.iter().enumerate() {
            tenants.entry(st.out_slot).or_default().push(i);
        }
        let pair = tenants
            .values()
            .find(|t| t.len() >= 2)
            .expect("twin plan reuses a slot");
        s.steps[pair[0]].last_use = usize::MAX;
        let diags = check_plan("corrupt", &engine, &s);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RV054" && d.message.contains("concurrently live")),
            "{diags:?}"
        );
    }

    #[test]
    fn dropped_and_doubled_steps_are_rv020() {
        let engine = engine();
        let s = clean_summary(&engine);
        let level = s
            .level_groups()
            .into_iter()
            .find(|l| l.len() >= 2)
            .expect("the twin has a level with two steps");
        // Step level[0] dealt to the caller and a worker; level[1] to
        // nobody.
        let deal = LevelDeal {
            caller: vec![level[0]],
            pooled: vec![vec![level[0]]],
        };
        let ds = check_level_deal("corrupt", &level, &deal);
        assert!(
            ds.iter().any(|d| d.message.contains("runs twice")),
            "{ds:?}"
        );
        assert!(
            ds.iter().any(|d| d.message.contains("never runs")),
            "{ds:?}"
        );
        assert!(ds.iter().all(|d| d.code == "RV020"));
        let stray = LevelDeal {
            caller: level.clone(),
            pooled: vec![vec![usize::MAX]],
        };
        let ds = check_level_deal("stray", &level, &stray);
        assert!(
            ds.iter().any(|d| d.message.contains("not in this level")),
            "{ds:?}"
        );
    }

    #[test]
    fn dropped_operand_edge_fires_rv070_where_rv054_is_silent() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Find a step with a step-to-step edge and erase it, relevelling
        // the consumer so RV054's window rule still holds.
        let i = s
            .steps
            .iter()
            .position(|st| st.inputs.iter().any(|src| src.is_some()))
            .expect("twin has step-to-step deps");
        s.steps[i].inputs = vec![None];
        s.steps[i].level = 0;
        let diags = check_plan("corrupt", &engine, &s);
        assert_eq!(
            codes(&diags, "RV054"),
            0,
            "RV054 must not see a dropped edge"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RV070" && d.message.contains("operand edges")),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_lane_slot_collision_reports_every_unordered_access() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Find two steps sharing a level (fanned into different lanes
        // at width 2+) and alias their output slots.
        let groups = s.level_groups();
        let level = groups
            .iter()
            .find(|g| {
                g.len() >= 2
                    && g.iter()
                        .all(|&si| s.steps[si].inputs.iter().all(|i| i.is_some()))
            })
            .expect("twin has a parallel level");
        let (a, b) = (level[0], level[1]);
        s.steps[b].out_slot = s.steps[a].out_slot;
        let diags = check_plan("corrupt", &engine, &s);
        let races: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == "RV070" && d.message.contains("unordered write"))
            .collect();
        // Every parallel width reports the collision; width 1 is serial.
        for w in 2..=MAX_WIDTH {
            let tag = format!("shadow width {w}:");
            assert!(
                races.iter().any(|d| d.message.starts_with(&tag)),
                "width {w}: {races:?}"
            );
        }
        assert!(!races
            .iter()
            .any(|d| d.message.starts_with("shadow width 1:")));
    }

    #[test]
    fn shadow_replay_keeps_reporting_after_the_first_race() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Alias the out slots of two different parallel levels: the
        // replay must report both collisions, not stop at the first.
        let groups = s.level_groups();
        let wide: Vec<&Vec<usize>> = groups
            .iter()
            .filter(|g| {
                g.len() >= 2
                    && g.iter()
                        .all(|&si| s.steps[si].inputs.iter().all(|i| i.is_some()))
            })
            .take(2)
            .collect();
        assert_eq!(wide.len(), 2, "twin has two parallel levels");
        for level in &wide {
            s.steps[level[1]].out_slot = s.steps[level[0]].out_slot;
        }
        let diags = check_plan("corrupt", &engine, &s);
        for level in &wide {
            let who = format!("step {} (", level[1]);
            assert!(
                diags
                    .iter()
                    .any(|d| d.message.starts_with("shadow width 2:")
                        && d.message.contains("unordered write")
                        && d.message.contains(&who)),
                "level of step {}: {diags:?}",
                level[1]
            );
        }
    }

    #[test]
    fn stale_read_is_reported_by_the_shadow_replay() {
        let engine = engine();
        let mut s = clean_summary(&engine);
        // Recycle a producer's slot too early: a step scheduled between
        // the producer and one of its readers takes over the slot, so
        // the reader no longer observes the value its edge promises.
        let producer = s
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, st)| st.inputs.iter().flatten().find(|&&p| i > p + 1).copied())
            .expect("twin has a dep spanning more than one step");
        let thief = producer + 1; // strictly between producer and reader
        s.steps[thief].out_slot = s.steps[producer].out_slot;
        let diags = check_plan("corrupt", &engine, &s);
        assert!(
            diags
                .iter()
                .any(|d| d.message.starts_with("shadow width 1:")
                    && d.message.contains("recycled or never produced")),
            "{diags:?}"
        );
    }

    #[test]
    fn lane_structure_matches_runner_semantics() {
        let engine = engine();
        let s = clean_summary(&engine);
        // Width 1: everything on the caller, nothing pooled.
        let serial = s.level_schedule(1);
        assert!(serial.levels.iter().all(|d| d.pooled.is_empty()));
        // Any width: every step appears in exactly one lane.
        for w in [2, 3, 4] {
            let sched = s.level_schedule(w);
            let mut seen = vec![0usize; s.steps.len()];
            for deal in &sched.levels {
                for &si in deal.caller.iter().chain(deal.pooled.iter().flatten()) {
                    seen[si] += 1;
                }
                // No worker chunk may contain an extern-reading step.
                for chunk in &deal.pooled {
                    for &si in chunk {
                        assert!(s.steps[si].inputs.iter().all(|i| i.is_some()));
                    }
                }
                assert!(
                    deal.pooled.len() < w.max(1),
                    "at most width-1 worker chunks"
                );
            }
            assert!(seen.iter().all(|&c| c == 1), "width {w}: {seen:?}");
        }
    }

    #[test]
    fn single_bit_flip_fires_rv052() {
        let engine = engine();
        let probe = init::uniform(&mut init::rng(8), &[1, 3, 32, 32], 0.0, 1.0);
        let good = engine.forward(&probe).expect("forward");
        let mut bad: Vec<Tensor> = good.clone();
        let mut data = bad[0].as_slice().to_vec();
        data[0] = f32::from_bits(data[0].to_bits() ^ 1);
        bad[0] = Tensor::from_vec(data, good[0].shape()).expect("same shape");
        let diags = check_outputs_bit_identical("corrupt", &bad, &good);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RV052");
        assert!(check_outputs_bit_identical("clean", &good, &good).is_empty());
    }
}
