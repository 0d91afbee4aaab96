//! Execution-plan checks: schedule validity, arena slot-lifetime
//! disjointness, fused/unfused bit-identity, and level-parallel
//! soundness (RV050/RV051/RV052/RV054).
//!
//! The plan compiler in `rtoss-sparse` turns a [`SparseModel`] into a
//! static schedule with a reusable buffer arena, fused conv epilogues,
//! and a dependency-levelled parallel schedule. Four things can
//! silently go wrong with such a compiler, and each gets its own
//! registry code:
//!
//! - **RV050 — schedule validity.** Every step must read only earlier
//!   steps (or the extern input), liveness must point forward, and
//!   every declared output must come from a retained step. A violation
//!   here means the plan could read garbage or free a value that is
//!   still needed.
//! - **RV051 — arena soundness.** Two values may share an arena slot
//!   only if their lifetimes are disjoint; every slot must be large
//!   enough for each tenant; and the plan's reported byte accounting
//!   (`arena_bytes`, `retained_bytes`, `peak_live_bytes`) must agree
//!   with the schedule it summarises. A violation means a run would
//!   overwrite live data — the classic buffer-reuse bug.
//! - **RV052 — planned ≡ interpreted.** Epilogue fusion and arena
//!   execution must be **bit-identical** to the per-node interpreter;
//!   closeness is not enough, because serving dedup/caching layers
//!   compare outputs exactly. [`check_execution_plan`] also forces a
//!   multi-worker pool so the level-parallel executor is exercised and
//!   bit-compared against the serial plan even on a single-core host.
//! - **RV054 — level-parallel soundness.** Every step's operands must
//!   sit in strictly earlier dependency levels (the levelled schedule
//!   respects all data deps), and two tenants of one arena slot may
//!   never be concurrently live: the earlier tenant's deepest
//!   consuming level must lie strictly below the later tenant's level.
//!   A violation means the parallel executor could race a read against
//!   a write — the serial index rule (RV051) alone cannot see this.
//!
//! [`check_execution_plan`] runs all four against a live engine; the
//! `plan-schedule` / `plan-arena` / `plan-fused` / `plan-level-dep` /
//! `plan-level-alias` fixtures prove each check can fire.

use crate::diag::{Diagnostic, Report};
use rtoss_sparse::{ExecConfig, PlanSummary, SparseModel};
use rtoss_tensor::{Tensor, WorkerPool};

/// Checks schedule validity (RV050) of a plan summary: topological
/// operand references, forward-pointing liveness, and output steps that
/// are actually retained.
pub fn check_plan_schedule(location: &str, s: &PlanSummary) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = s.steps.len();
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
            if let Some(j) = src {
                if *j >= i {
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
            }
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
    out
}

/// Checks arena soundness (RV051) of a plan summary: slot capacities
/// cover every tenant, slot lifetimes are disjoint, and the reported
/// byte accounting matches the schedule.
pub fn check_plan_arena(location: &str, s: &PlanSummary) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut tenants: Vec<Vec<usize>> = vec![Vec::new(); s.slot_caps.len()];
    for (i, step) in s.steps.iter().enumerate() {
        match s.slot_caps.get(step.out_slot) {
            None => {
                out.push(Diagnostic::error(
                    "RV051",
                    location,
                    format!(
                        "step {i} ({}) writes slot {}, but only {} slots exist",
                        step.name,
                        step.out_slot,
                        s.slot_caps.len()
                    ),
                ));
                continue;
            }
            Some(&cap) if cap < step.out_len => out.push(Diagnostic::error(
                "RV051",
                location,
                format!(
                    "step {i} ({}) needs {} elements but slot {} holds only {cap}",
                    step.name, step.out_len, step.out_slot
                ),
            )),
            Some(_) => {}
        }
        tenants[step.out_slot].push(i);
    }
    for (slot, steps_in_slot) in tenants.iter().enumerate() {
        if steps_in_slot.is_empty() {
            out.push(Diagnostic::error(
                "RV051",
                location,
                format!("slot {slot} has no tenant: arena reserves memory nothing uses"),
            ));
            continue;
        }
        for pair in steps_in_slot.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Tenant `a`'s value must be dead strictly before tenant
            // `b` claims the slot; a retained tenant (MAX) never dies.
            if s.steps[a].last_use == usize::MAX || s.steps[a].last_use >= b {
                out.push(Diagnostic::error(
                    "RV051",
                    location,
                    format!(
                        "slot {slot}: step {b} ({}) overwrites step {a} ({}), which is \
                         live through step {} — lifetimes overlap",
                        s.steps[b].name,
                        s.steps[a].name,
                        if s.steps[a].last_use == usize::MAX {
                            "the end of the run".to_string()
                        } else {
                            s.steps[a].last_use.to_string()
                        }
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
    out
}

/// Checks level-parallel soundness (RV054) of a plan summary: the
/// dependency-levelled schedule respects every data dependency (each
/// operand's level is strictly below its consumer's), and arena slots
/// are disjoint across concurrently-live steps — consecutive tenants
/// of a slot must be separated by a level barrier, not just by step
/// index.
pub fn check_plan_levels(location: &str, s: &PlanSummary) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Deepest consuming level per step; MAX for retained outputs,
    // which stay live to the end of the run.
    let mut end_level: Vec<usize> = s.steps.iter().map(|st| st.level).collect();
    for (i, step) in s.steps.iter().enumerate() {
        for (k, src) in step.inputs.iter().enumerate() {
            let Some(j) = src else { continue };
            let Some(op) = s.steps.get(*j) else {
                // Out-of-range operands are RV050's finding; skip here.
                continue;
            };
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
            end_level[*j] = end_level[*j].max(step.level);
        }
    }
    for (i, step) in s.steps.iter().enumerate() {
        if step.last_use == usize::MAX {
            end_level[i] = usize::MAX;
        }
    }
    let mut tenants: Vec<Vec<usize>> = vec![Vec::new(); s.slot_caps.len()];
    for (i, step) in s.steps.iter().enumerate() {
        if let Some(t) = tenants.get_mut(step.out_slot) {
            t.push(i);
        }
    }
    for (slot, steps_in_slot) in tenants.iter().enumerate() {
        for pair in steps_in_slot.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if end_level[a] == usize::MAX || end_level[a] >= s.steps[b].level {
                out.push(Diagnostic::error(
                    "RV054",
                    location,
                    format!(
                        "slot {slot}: step {b} ({}, level {}) claims it while step {a} ({}) \
                         is still consumed at level {} — the two can be concurrently live, \
                         so a parallel run could overwrite data another level still reads",
                        s.steps[b].name,
                        s.steps[b].level,
                        s.steps[a].name,
                        if end_level[a] == usize::MAX {
                            "end-of-run".to_string()
                        } else {
                            end_level[a].to_string()
                        }
                    ),
                ));
            }
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

/// Runs the full RV05x family against a live engine: compiles a plan
/// for `input`'s shape, checks the schedule (RV050), arena (RV051),
/// levelled parallel schedule (RV054), the runner's level deal at
/// widths 1..=8 (RV020) and race freedom (RV070), then executes the planned
/// and interpreted forward passes at each thread count in `threads`
/// and proves them bit-identical (RV052). The planned pass runs twice
/// per thread count — once through the public entry (process-global
/// pool) and once against a forced 3-worker pool — so the
/// level-parallel executor is exercised and bit-compared against the
/// serial plan even on a single-core host.
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
    report.extend(check_plan_schedule(&loc, &summary));
    report.extend(check_plan_arena(&loc, &summary));
    report.extend(check_plan_levels(&loc, &summary));
    report.extend(crate::exec::check_level_deals(&loc, &summary, 8));
    let deps = crate::concurrency::ModelDeps::of(model);
    report.extend(crate::concurrency::check_plan_hb(
        &loc, &deps, &summary, threads,
    ));
    for &t in threads {
        report.extend(crate::concurrency::shadow_replay(
            &format!("{loc} width={t}"),
            &summary,
            t,
        ));
    }
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

    #[test]
    fn clean_engine_passes_all_plan_checks() {
        let engine = engine();
        let probe = init::uniform(&mut init::rng(7), &[1, 3, 32, 32], 0.0, 1.0);
        let report = check_execution_plan(&engine, &probe, &[1, 4]);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn forward_operand_reference_fires_rv050() {
        let engine = engine();
        let mut s = engine.plan_summary(&[1, 3, 32, 32]).expect("plans");
        // Make an early step read a step that runs after it.
        let last = s.steps.len() - 1;
        s.steps[0].inputs = vec![Some(last)];
        let diags = check_plan_schedule("corrupt", &s);
        assert!(diags.iter().any(|d| d.code == "RV050"), "{diags:?}");
    }

    #[test]
    fn overlapping_slot_lifetimes_fire_rv051() {
        let engine = engine();
        let mut s = engine.plan_summary(&[1, 3, 32, 32]).expect("plans");
        // Undersize a slot below its tenant's length.
        let slot = s.steps[0].out_slot;
        s.slot_caps[slot] = s.steps[0].out_len.saturating_sub(1);
        let diags = check_plan_arena("corrupt", &s);
        assert!(diags.iter().any(|d| d.code == "RV051"), "{diags:?}");
    }

    #[test]
    fn dep_violating_level_fires_rv054() {
        let engine = engine();
        let mut s = engine.plan_summary(&[1, 3, 32, 32]).expect("plans");
        assert!(check_plan_levels("clean", &s).is_empty());
        // Pull a consumer down into its operand's level: the levelled
        // schedule would start both concurrently.
        let (i, j) = s
            .steps
            .iter()
            .enumerate()
            .find_map(|(i, st)| st.inputs.iter().flatten().next().map(|j| (i, *j)))
            .expect("twin has step-to-step deps");
        s.steps[i].level = s.steps[j].level;
        let diags = check_plan_levels("corrupt", &s);
        assert!(diags.iter().any(|d| d.code == "RV054"), "{diags:?}");
    }

    #[test]
    fn concurrently_live_slot_alias_fires_rv054() {
        let engine = engine();
        let mut s = engine.plan_summary(&[1, 3, 32, 32]).expect("plans");
        // Find a slot with two tenants and make the earlier one
        // retained: its lifetime now spans the later tenant's level,
        // so the two could be concurrently live.
        let mut tenants: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (i, st) in s.steps.iter().enumerate() {
            tenants.entry(st.out_slot).or_default().push(i);
        }
        let pair = tenants
            .values()
            .find(|t| t.len() >= 2)
            .expect("twin plan reuses a slot");
        s.steps[pair[0]].last_use = usize::MAX;
        let diags = check_plan_levels("corrupt", &s);
        assert!(diags.iter().any(|d| d.code == "RV054"), "{diags:?}");
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
