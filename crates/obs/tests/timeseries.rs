//! Edge-case and property tests for the windowed time-series rings:
//! boundary samples, backwards clocks, ring wrap after idle gaps, and
//! randomized per-window-sums-equal-totals conservation.

use proptest::prelude::*;
use rtoss_obs::timeseries::{set_series_enabled, WindowSpec, WindowedSet};
use std::collections::BTreeMap;

/// Serializes tests: the series-enabled flag is process-wide.
fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const W: u64 = 1_000_000; // 1 ms windows

/// A one-lane set: the plain windowed counter shape.
fn counter(windows: usize) -> WindowedSet {
    WindowedSet::new(WindowSpec::new(W, windows), &["n"])
}

/// `(start_ns, count)` of every live window of a one-lane set.
fn counts(s: &WindowedSet) -> Vec<(u64, u64)> {
    s.samples()
        .into_iter()
        .map(|w| (w.start_ns, w.counts[0]))
        .collect()
}

#[test]
fn boundary_sample_opens_the_new_window() {
    let _flags = flag_lock();
    set_series_enabled(true);
    let c = counter(8);
    c.incr_at(W - 1, 0); // last nanosecond of window 0
    c.incr_at(W, 0); // exactly on the boundary: opens window 1
    c.incr_at(W + 1, 0);
    assert_eq!(counts(&c), vec![(0, 1), (W, 2)]);
    set_series_enabled(false);
}

#[test]
fn backwards_clock_lands_in_live_windows_and_goes_late_past_them() {
    let _flags = flag_lock();
    set_series_enabled(true);
    let c = counter(4);
    // Fill windows 4..8: the 4-slot ring now holds exactly those four.
    for k in 4..8u64 {
        c.incr_at(k * W, 0);
    }
    // A modest backwards step to a still-live window is fine: the
    // sample lands in window 5, not in the current one.
    c.incr_at(5 * W + 10, 0);
    assert_eq!(c.late(), 0);
    assert!(counts(&c).contains(&(5 * W, 2)));
    // A step to before the ring's history cannot land — its slot holds
    // a newer window — and must be tallied late, not silently merged.
    c.incr_at(2 * W, 0);
    assert_eq!(c.late(), 1);
    assert_eq!(c.total_lane(0), 5, "late samples never reach the totals");
    set_series_enabled(false);
}

#[test]
fn ring_wrap_after_idle_gap_evicts_the_stale_window() {
    let _flags = flag_lock();
    set_series_enabled(true);
    let c = counter(4);
    for _ in 0..3 {
        c.incr_at(1, 0);
    }
    // Idle for far longer than the whole ring span, then resume in a
    // window that reuses slot 0 (100 % 4 == 0): the stale window must
    // be harvested into the evicted totals, not reported as live.
    c.incr_at(100 * W, 0);
    assert_eq!(counts(&c), vec![(100 * W, 1)]);
    assert_eq!(c.evicted_lane(0), 3);
    assert_eq!(c.total_lane(0), 1 + c.evicted_lane(0));
    assert_eq!(c.late(), 0);
    set_series_enabled(false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sample batch within one ring span: every window's per-lane
    /// count matches an independent model exactly, and the grand totals
    /// equal the per-window sums (nothing evicted, nothing late).
    #[test]
    fn set_window_sums_match_totals(
        samples in proptest::collection::vec((0u64..64 * W, 0usize..3), 1..200)
    ) {
        let _flags = flag_lock();
        set_series_enabled(true);
        let s = WindowedSet::new(WindowSpec::new(W, 64), &["a", "b", "c"]);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(ts, lane) in &samples {
            s.incr_at(ts, lane);
            model.entry(ts / W * W).or_insert_with(|| vec![0; 3])[lane] += 1;
        }
        let got: BTreeMap<u64, Vec<u64>> = s
            .samples()
            .into_iter()
            .map(|w| (w.start_ns, w.counts))
            .collect();
        set_series_enabled(false);
        prop_assert_eq!(&got, &model);
        for lane in 0..3 {
            let live: u64 = got.values().map(|c| c[lane]).sum();
            prop_assert_eq!(s.total_lane(lane), live);
            prop_assert_eq!(s.evicted_lane(lane), 0);
        }
        prop_assert_eq!(s.late(), 0);
    }

    /// Paired-lane recording keeps `offered == Σ outcome lanes` in
    /// every window and in the totals for any timestamp/outcome mix.
    #[test]
    fn set_pairs_conserve_per_window(
        samples in proptest::collection::vec((0u64..64 * W, 1usize..4), 1..200)
    ) {
        let _flags = flag_lock();
        set_series_enabled(true);
        let s = WindowedSet::new(
            WindowSpec::new(W, 64),
            &["offered", "admitted", "throttled", "shed"],
        );
        for &(ts, outcome) in &samples {
            s.incr_pair_at(ts, 0, outcome);
        }
        let windows = s.samples();
        set_series_enabled(false);
        for w in &windows {
            prop_assert_eq!(w.counts[0], w.counts[1] + w.counts[2] + w.counts[3]);
        }
        prop_assert_eq!(s.total_lane(0), samples.len() as u64);
        prop_assert_eq!(
            s.total_lane(1) + s.total_lane(2) + s.total_lane(3),
            samples.len() as u64
        );
        let live: u64 = windows.iter().map(|w| w.counts[0]).sum();
        prop_assert_eq!(live + s.evicted_lane(0), s.total_lane(0));
    }
}
