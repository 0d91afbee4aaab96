//! Executor checks: the plan's level deal partitions every level
//! (RV020), and latency-histogram bucket geometry (RV021).
//!
//! The compiled plan's level deal is the workspace's only concurrency:
//! `ExecutionPlan::run_with_pool` hands each dependency level's steps
//! to the caller lane and to pool chunks ([`LevelDeal`]). A step dealt
//! twice runs twice and races itself on its output slot; a step dealt
//! nowhere never runs, and its consumers read a stale slot. So the
//! caller lane and the pooled chunks must *partition* the level's
//! steps. [`check_level_deals`] proves that for the deal the runner
//! executes — [`PlanSummary::level_schedule`] shares its dealing code
//! with the runner — at every width up to a bound, and
//! [`check_level_deal`] checks one deal (used by the corruption
//! fixture).
//!
//! The serving histogram's bucket boundaries must be strictly
//! monotonic with half-open `(upper(i-1), upper(i)]` ranges;
//! [`check_histogram_buckets`] proves it for
//! [`rtoss_obs::metrics::LatencyHistogram`] and
//! [`check_histogram_mapping`] for any `(upper, index)` pair.

use crate::diag::{Diagnostic, Report};
use rtoss_obs::metrics::LatencyHistogram;
use rtoss_sparse::{LevelDeal, PlanSummary};
use std::collections::BTreeMap;

/// Checks that `deal` partitions the steps of `level` (RV020): every
/// step the caller lane (lane 0) or a pooled chunk (lanes 1..) runs
/// belongs to the level, none runs twice, none is left out.
pub fn check_level_deal(location: &str, level: &[usize], deal: &LevelDeal) -> Vec<Diagnostic> {
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

/// Proves the level deal the plan runner executes partitions every
/// dependency level of `s` at each width in `1..=max_width` (RV020).
pub fn check_level_deals(location: &str, s: &PlanSummary, max_width: usize) -> Vec<Diagnostic> {
    let groups = s.level_groups();
    let mut out = Vec::new();
    for width in 1..=max_width.max(1) {
        let schedule = s.level_schedule(width);
        for (li, (level, deal)) in groups.iter().zip(&schedule.levels).enumerate() {
            out.extend(check_level_deal(
                &format!("{location} width={width} level={li}"),
                level,
                deal,
            ));
        }
    }
    out
}

/// Checks an arbitrary histogram bucket geometry: `upper(i)` strictly
/// increasing, and `index` honouring half-open `(upper(i-1), upper(i)]`
/// ranges at and just past every boundary.
pub fn check_histogram_mapping(
    location: &str,
    n_buckets: usize,
    upper: impl Fn(usize) -> f64,
    index: impl Fn(f64) -> usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 1..n_buckets {
        if upper(i) <= upper(i - 1) {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "bucket boundaries not strictly increasing: upper({i}) = {} <= \
                     upper({}) = {}",
                    upper(i),
                    i - 1,
                    upper(i - 1)
                ),
            ));
        }
    }
    // The last bucket is a catch-all; boundary behaviour applies below it.
    for i in 0..n_buckets.saturating_sub(1) {
        let at = index(upper(i));
        if at != i {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "sample at upper({i}) = {} lands in bucket {at}; ranges are \
                     half-open (lo, hi], so it belongs to bucket {i}",
                    upper(i)
                ),
            ));
        }
        let past = index(upper(i) * 1.0001);
        if past != i + 1 {
            out.push(Diagnostic::error(
                "RV021",
                location,
                format!(
                    "sample just past upper({i}) lands in bucket {past}, expected {}",
                    i + 1
                ),
            ));
        }
    }
    out
}

/// Proves the serving histogram's bucket geometry (RV021).
pub fn check_histogram_buckets() -> Report {
    let mut report = Report::new();
    report.extend(check_histogram_mapping(
        "LatencyHistogram",
        LatencyHistogram::NUM_BUCKETS,
        LatencyHistogram::bucket_upper_ns,
        LatencyHistogram::bucket_index,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_and_doubled_steps_are_rv020() {
        let m = rtoss_models::yolov5s_twin(4, 2, 0xD1).expect("twin builds");
        let engine = rtoss_sparse::SparseModel::compile(&m.graph).expect("compiles");
        let s = engine.plan_summary(&[1, 3, 32, 32]).expect("plans");
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
    fn serving_histogram_geometry_is_clean() {
        let report = check_histogram_buckets();
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn pre_fix_bucket_mapping_is_rv021() {
        // The mapping shipped before the RV021 fix: floor + 1 without the
        // boundary correction, which drops exact-boundary samples one
        // bucket too high.
        let broken = |ns: f64| {
            if ns <= 250.0 {
                return 0;
            }
            let steps = ((ns / 250.0).log2() / 0.5).floor() as usize;
            (steps + 1).min(LatencyHistogram::NUM_BUCKETS - 1)
        };
        let ds = check_histogram_mapping(
            "fixture",
            LatencyHistogram::NUM_BUCKETS,
            LatencyHistogram::bucket_upper_ns,
            broken,
        );
        assert!(ds.iter().any(|d| d.code == "RV021"), "{ds:?}");
    }
}
