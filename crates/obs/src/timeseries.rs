//! Windowed time-series: fixed rings of aligned time buckets.
//!
//! Two recorder shapes share one ring engine: [`WindowedSet`] (named
//! counter lanes that land in the same window, for per-window
//! conservation laws) and [`WindowedGauge`] (count/last/min/max of an
//! observed value per window). Cumulative counters and latency
//! histograms are [`crate::metrics`]; a windowed view of a cumulative
//! counter is a difference of two readings, not a second recorder.
//!
//! Every metric here is a ring of `spec.windows` slots, each slot
//! holding the aggregate for one **aligned** wall-clock window
//! (`[k·window_ns, (k+1)·window_ns)` of the trace epoch — a sample
//! landing exactly on a boundary belongs to the window it opens). A
//! slot is reused once the ring wraps, so the structure holds the last
//! `windows · window_ns` nanoseconds of history at fixed memory.
//!
//! Design constraints, mirroring [`crate::trace`]:
//!
//! 1. **One atomic load when off.** Every public record method checks
//!    [`series_enabled`] first — a single relaxed atomic load, no
//!    timestamp, no allocation — so serving hot paths instrument
//!    unconditionally.
//! 2. **O(1), lock-cheap record when on.** A sample indexes its slot
//!    directly (`window_index % windows`) and lands with a handful of
//!    atomic adds. The per-metric rotation mutex is taken only when a
//!    slot crosses into a new window — once per `window_ns` per metric,
//!    never on the steady-state path.
//! 3. **No lost samples.** Slot rotation is epoch-guarded: writers
//!    announce themselves on a per-slot in-flight counter before
//!    checking the slot's window tag, and the rotator parks the tag
//!    (tag 0) and waits for in-flight writers to finish before it
//!    harvests and zeroes the cells. Conservation therefore holds
//!    exactly: `total == Σ live windows + evicted` for every lane,
//!    which `rtoss-verify` checks per window across lanes (RV081).
//!
//! Timestamps are nanoseconds since the trace epoch ([`crate::now_ns`]
//! / [`crate::ts_ns`]) — a monotonic source. A sample older than what
//! its slot currently holds (possible after delays longer than the
//! whole ring) is counted in `late` instead of corrupting a newer
//! window.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Environment variable that turns series recording on (`1`, `true`,
/// `on`).
pub const SERIES_ENV: &str = "RTOSS_SERIES";

// 0 = uninitialised (read env on first query), 1 = off, 2 = on.
static SERIES_ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether windowed-series recording is globally enabled. The first
/// call reads [`SERIES_ENV`]; [`set_series_enabled`] overrides it.
#[inline]
pub fn series_enabled() -> bool {
    match SERIES_ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_series_enabled(),
    }
}

#[cold]
fn init_series_enabled() -> bool {
    let on = std::env::var(SERIES_ENV)
        .map(|v| matches!(v.trim(), "1" | "true" | "on"))
        .unwrap_or(false);
    // Racing initialisers agree (both read the same env).
    SERIES_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Turns series recording on or off programmatically (overrides
/// [`SERIES_ENV`]).
pub fn set_series_enabled(on: bool) {
    SERIES_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Ring geometry: aligned window width and slot count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one aligned window, nanoseconds (min 1).
    pub window_ns: u64,
    /// Number of ring slots (min 2): the series keeps the last
    /// `windows` windows.
    pub windows: usize,
}

impl WindowSpec {
    /// Builds a spec, clamping to the minimums (1 ns, 2 slots).
    pub fn new(window_ns: u64, windows: usize) -> Self {
        WindowSpec {
            window_ns: window_ns.max(1),
            windows: windows.max(2),
        }
    }

    /// Index of the window containing `ts_ns` (half-open: a timestamp
    /// exactly on a boundary opens the new window).
    #[inline]
    pub fn window_index(&self, ts_ns: u64) -> u64 {
        ts_ns / self.window_ns
    }
}

impl Default for WindowSpec {
    /// 250 ms windows × 256 slots = 64 s of history.
    fn default() -> Self {
        WindowSpec::new(250_000_000, 256)
    }
}

// ---------------------------------------------------------------------
// The shared ring engine: N u64 lanes per slot, epoch-guarded rotation.
// ---------------------------------------------------------------------

/// One live window read out of a ring: window index plus one value per
/// lane.
type RawWindow = (u64, Vec<u64>);

#[derive(Debug)]
struct WindowRing {
    spec: WindowSpec,
    lanes: usize,
    /// Per-slot window tag: `window_index + 1`; 0 = empty or rotating.
    tags: Box<[AtomicU64]>,
    /// Per-slot in-flight writer count (rotation waits on it).
    active: Box<[AtomicU64]>,
    /// `windows × lanes` cells, slot-major.
    cells: Box<[AtomicU64]>,
    /// Per-lane totals harvested from slots that rotated out.
    evicted: Box<[AtomicU64]>,
    /// Samples that arrived after their window's slot was reused.
    late: AtomicU64,
    rotate: Mutex<()>,
}

impl WindowRing {
    fn new(spec: WindowSpec, lanes: usize) -> Self {
        let slots = spec.windows;
        WindowRing {
            spec,
            lanes,
            tags: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            active: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            cells: (0..slots * lanes).map(|_| AtomicU64::new(0)).collect(),
            evicted: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            late: AtomicU64::new(0),
            rotate: Mutex::new(()),
        }
    }

    #[inline]
    fn slot_cells(&self, slot: usize) -> &[AtomicU64] {
        &self.cells[slot * self.lanes..(slot + 1) * self.lanes]
    }

    /// Applies `add` to the slot for `ts_ns`'s window, rotating the
    /// slot first if it still holds an older window. Returns `false`
    /// when the sample is too old to land (counted in `late`).
    ///
    /// `harvest` receives the evicted slot's cells (already summed into
    /// `evicted`) — gauges use it to reset non-additive lanes.
    fn record_at(
        &self,
        ts_ns: u64,
        add: impl Fn(&[AtomicU64]),
        reset_extra: impl Fn(&[AtomicU64]),
    ) -> bool {
        let tag = self.spec.window_index(ts_ns) + 1;
        let slot = ((tag - 1) % self.spec.windows as u64) as usize;
        // Announce before reading the tag: the rotator parks the tag
        // and then waits for `active` to drain, so a writer that saw
        // the old tag finishes before the cells are harvested. The
        // SeqCst pair (this RMW / the rotator's park-store + drain-
        // loads) is a store-load fence both sides rely on.
        self.active[slot].fetch_add(1, Ordering::SeqCst);
        let seen = self.tags[slot].load(Ordering::SeqCst);
        if seen == tag {
            add(self.slot_cells(slot));
            self.active[slot].fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        self.active[slot].fetch_sub(1, Ordering::SeqCst);
        if seen > tag {
            self.late.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Slot holds an older window (or is parked): rotate under the
        // mutex, then land the sample. Loop because another thread may
        // rotate first — to our tag (just add) or past it (late).
        loop {
            let guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
            let seen = self.tags[slot].load(Ordering::SeqCst);
            if seen == tag {
                drop(guard);
                self.active[slot].fetch_add(1, Ordering::SeqCst);
                if self.tags[slot].load(Ordering::SeqCst) == tag {
                    add(self.slot_cells(slot));
                    self.active[slot].fetch_sub(1, Ordering::SeqCst);
                    return true;
                }
                self.active[slot].fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if seen > tag {
                self.late.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // Park the slot: writers arriving now fall into this same
            // rotate path and queue on the mutex we hold.
            self.tags[slot].store(0, Ordering::SeqCst);
            while self.active[slot].load(Ordering::SeqCst) != 0 {
                std::hint::spin_loop();
            }
            let cells = self.slot_cells(slot);
            if seen != 0 {
                for (lane, cell) in cells.iter().enumerate() {
                    self.evicted[lane].fetch_add(cell.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            for cell in cells {
                cell.store(0, Ordering::Relaxed);
            }
            reset_extra(cells);
            add(cells);
            self.tags[slot].store(tag, Ordering::SeqCst);
            return true;
        }
    }

    /// Live windows (index + per-lane values), sorted by window index.
    /// Taken under the rotation mutex so no slot is mid-harvest.
    fn read(&self) -> Vec<RawWindow> {
        let _guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<RawWindow> = Vec::new();
        for slot in 0..self.spec.windows {
            let tag = self.tags[slot].load(Ordering::SeqCst);
            if tag == 0 {
                continue;
            }
            let values = self
                .slot_cells(slot)
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            out.push((tag - 1, values));
        }
        out.sort_unstable_by_key(|(w, _)| *w);
        out
    }

    /// Sums `lane` over the live windows overlapping the trailing
    /// `range_ns` before `now_ns` (aligned: includes the window
    /// containing `now - range`).
    fn range_lane(&self, now_ns: u64, range_ns: u64, lane: usize) -> u64 {
        let hi = self.spec.window_index(now_ns);
        let lo = self.spec.window_index(now_ns.saturating_sub(range_ns));
        let mut sum = 0u64;
        for slot in 0..self.spec.windows {
            let tag = self.tags[slot].load(Ordering::SeqCst);
            if tag == 0 {
                continue;
            }
            let w = tag - 1;
            if w >= lo && w <= hi {
                sum += self.slot_cells(slot)[lane].load(Ordering::Relaxed);
            }
        }
        sum
    }

    fn evicted_lane(&self, lane: usize) -> u64 {
        self.evicted[lane].load(Ordering::Relaxed)
    }

    fn late(&self) -> u64 {
        self.late.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Counter set: named lanes sharing one ring, for cross-lane
// conservation laws (offered == admitted + throttled + shed per window).
// ---------------------------------------------------------------------

/// One live window of a [`WindowedSet`]: start plus one count per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSample {
    /// Window start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Per-lane counts, in constructor lane order.
    pub counts: Vec<u64>,
}

/// Several named counters sharing one window ring, so samples recorded
/// with the same timestamp land in the **same** window of every lane —
/// the property that makes per-window conservation checks exact.
#[derive(Debug)]
pub struct WindowedSet {
    ring: WindowRing,
    lane_names: Vec<&'static str>,
    totals: Box<[AtomicU64]>,
}

impl WindowedSet {
    /// A zeroed set with one lane per name (at least one).
    pub fn new(spec: WindowSpec, lanes: &[&'static str]) -> Self {
        assert!(!lanes.is_empty(), "a windowed set needs at least one lane");
        WindowedSet {
            ring: WindowRing::new(spec, lanes.len()),
            lane_names: lanes.to_vec(),
            totals: (0..lanes.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Lane names in lane order.
    pub fn lanes(&self) -> &[&'static str] {
        &self.lane_names
    }

    /// Adds 1 to `lane` in the window containing `ts_ns`. One relaxed
    /// atomic load and out when recording is disabled.
    #[inline]
    pub fn incr_at(&self, ts_ns: u64, lane: usize) {
        if !series_enabled() {
            return;
        }
        debug_assert!(lane < self.lane_names.len());
        let landed = self.ring.record_at(
            ts_ns,
            |cells| {
                cells[lane].fetch_add(1, Ordering::Relaxed);
            },
            |_| {},
        );
        if landed {
            self.totals[lane].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds 1 to lanes `a` and `b` in the window containing `ts_ns` as
    /// **one** sample: either both land or both are dropped as late.
    /// Recording the lanes separately would let a racing rotation
    /// split them (one harvested, one late), silently breaking
    /// cross-lane conservation laws by one.
    #[inline]
    pub fn incr_pair_at(&self, ts_ns: u64, a: usize, b: usize) {
        if !series_enabled() {
            return;
        }
        debug_assert!(a < self.lane_names.len() && b < self.lane_names.len());
        let landed = self.ring.record_at(
            ts_ns,
            |cells| {
                cells[a].fetch_add(1, Ordering::Relaxed);
                cells[b].fetch_add(1, Ordering::Relaxed);
            },
            |_| {},
        );
        if landed {
            self.totals[a].fetch_add(1, Ordering::Relaxed);
            self.totals[b].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Live windows, sorted by start.
    pub fn samples(&self) -> Vec<SetSample> {
        self.ring
            .read()
            .into_iter()
            .map(|(w, counts)| SetSample {
                start_ns: w * self.ring.spec.window_ns,
                counts,
            })
            .collect()
    }

    /// Sum of `lane` over the trailing `range_ns` before `now_ns`.
    pub fn range_lane(&self, now_ns: u64, range_ns: u64, lane: usize) -> u64 {
        self.ring.range_lane(now_ns, range_ns, lane)
    }

    /// Grand total of `lane` across the whole run.
    pub fn total_lane(&self, lane: usize) -> u64 {
        self.totals[lane].load(Ordering::Relaxed)
    }

    /// Count harvested from rotated-out windows for `lane`.
    pub fn evicted_lane(&self, lane: usize) -> u64 {
        self.ring.evicted_lane(lane)
    }

    /// Samples dropped as too old.
    pub fn late(&self) -> u64 {
        self.ring.late()
    }
}

// ---------------------------------------------------------------------
// Gauge.
// ---------------------------------------------------------------------

const GAUGE_COUNT: usize = 0;
const GAUGE_LAST: usize = 1;
const GAUGE_MIN: usize = 2;
const GAUGE_MAX: usize = 3;

/// One live window of a [`WindowedGauge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Window start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Observations in this window.
    pub count: u64,
    /// Last observed value.
    pub last: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

/// A windowed gauge: per-window last/min/max of an observed value
/// (queue depth, tier index, occupancy fraction). Values are stored as
/// `f64` bit patterns; min/max use CAS loops, so concurrent observers
/// cannot lose an extremum.
#[derive(Debug)]
pub struct WindowedGauge {
    ring: WindowRing,
}

impl WindowedGauge {
    /// A zeroed gauge over `spec`.
    pub fn new(spec: WindowSpec) -> Self {
        WindowedGauge {
            ring: WindowRing::new(spec, 4),
        }
    }

    /// Observes `value` at `ts_ns`. One relaxed atomic load and out
    /// when recording is disabled.
    pub fn set_at(&self, ts_ns: u64, value: f64) {
        if !series_enabled() {
            return;
        }
        let bits = value.to_bits();
        let update = |cells: &[AtomicU64]| {
            cells[GAUGE_COUNT].fetch_add(1, Ordering::Relaxed);
            cells[GAUGE_LAST].store(bits, Ordering::Relaxed);
            for (lane, keep_new) in [(GAUGE_MIN, value), (GAUGE_MAX, value)] {
                let want_min = lane == GAUGE_MIN;
                let cell = &cells[lane];
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let cur_v = f64::from_bits(cur);
                    let replace = if want_min {
                        keep_new < cur_v
                    } else {
                        keep_new > cur_v
                    };
                    if !replace {
                        break;
                    }
                    match cell.compare_exchange_weak(
                        cur,
                        bits,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(now) => cur = now,
                    }
                }
            }
        };
        // A fresh slot starts min at +inf and max at -inf so the first
        // observation wins both races.
        self.ring.record_at(ts_ns, update, |cells| {
            cells[GAUGE_MIN].store(f64::INFINITY.to_bits(), Ordering::Relaxed);
            cells[GAUGE_MAX].store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        });
    }

    /// Live windows, sorted by start.
    pub fn samples(&self) -> Vec<GaugeSample> {
        self.ring
            .read()
            .into_iter()
            .map(|(w, v)| GaugeSample {
                start_ns: w * self.ring.spec.window_ns,
                count: v[GAUGE_COUNT],
                last: f64::from_bits(v[GAUGE_LAST]),
                min: f64::from_bits(v[GAUGE_MIN]),
                max: f64::from_bits(v[GAUGE_MAX]),
            })
            .collect()
    }

    /// The most recent observation, if any window is live.
    pub fn last(&self) -> Option<f64> {
        self.samples().last().map(|s| s.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    /// Window starts and per-lane counts of every live window.
    fn windows(s: &WindowedSet) -> Vec<(u64, Vec<u64>)> {
        s.samples()
            .into_iter()
            .map(|w| (w.start_ns, w.counts))
            .collect()
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_lock();
        set_series_enabled(false);
        let s = WindowedSet::new(WindowSpec::new(10_000_000, 4), &["a", "b"]);
        let g = WindowedGauge::new(WindowSpec::new(10_000_000, 4));
        s.incr_at(0, 0);
        s.incr_pair_at(1, 0, 1);
        g.set_at(2, 1.0);
        set_series_enabled(true);
        assert!(s.samples().is_empty());
        assert_eq!((s.total_lane(0), s.total_lane(1)), (0, 0));
        assert_eq!(g.last(), None);
        set_series_enabled(false);
    }

    #[test]
    fn set_windows_align_and_conserve() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 10_000_000; // 10 ms
        let s = WindowedSet::new(WindowSpec::new(w, 8), &["a", "b"]);
        s.incr_at(0, 0);
        s.incr_at(w - 1, 1); // same window
        s.incr_at(w, 0); // boundary opens the next window
        s.incr_at(3 * w + 5, 1);
        assert_eq!(
            windows(&s),
            vec![(0, vec![1, 1]), (w, vec![1, 0]), (3 * w, vec![0, 1])]
        );
        assert_eq!((s.total_lane(0), s.total_lane(1)), (2, 2));
        assert_eq!((s.evicted_lane(0), s.evicted_lane(1)), (0, 0));
        assert_eq!(s.late(), 0);
        set_series_enabled(false);
    }

    #[test]
    fn ring_wrap_evicts_into_totals_and_old_samples_go_late() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 1_000_000;
        let s = WindowedSet::new(WindowSpec::new(w, 4), &["n"]);
        // Window k gets k + 1 samples: 55 in all over windows 0..10.
        for k in 0..10u64 {
            for _ in 0..=k {
                s.incr_at(k * w, 0);
            }
        }
        let live = windows(&s);
        assert_eq!(live.len(), 4, "ring keeps the last 4 windows");
        assert_eq!(live[0], (6 * w, vec![7]));
        let live_sum: u64 = live.iter().map(|(_, c)| c[0]).sum();
        assert_eq!(s.total_lane(0), 55);
        assert_eq!(s.evicted_lane(0), 21);
        assert_eq!(
            s.total_lane(0),
            live_sum + s.evicted_lane(0),
            "conservation across wrap"
        );
        // A monotonic clock can still deliver a sample whose window
        // rotated out long ago (e.g. a long-delayed drain): dropped as
        // late, never written into a newer window.
        s.incr_at(0, 0);
        assert_eq!(s.late(), 1);
        assert_eq!(s.total_lane(0), 55);
        set_series_enabled(false);
    }

    #[test]
    fn range_sums_trailing_windows() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 1_000_000;
        let s = WindowedSet::new(WindowSpec::new(w, 16), &["n"]);
        for k in 0..8u64 {
            s.incr_at(k * w + 1, 0);
        }
        let now = 7 * w + 2;
        // Trailing 2 ms from within window 7 covers windows 5, 6, 7.
        assert_eq!(s.range_lane(now, 2 * w, 0), 3);
        assert_eq!(s.range_lane(now, 100 * w, 0), 8);
        set_series_enabled(false);
    }

    #[test]
    fn set_lanes_share_windows() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 1_000_000;
        let s = WindowedSet::new(WindowSpec::new(w, 8), &["offered", "admitted", "shed"]);
        for k in 0..6u64 {
            let ts = k * w / 2;
            s.incr_at(ts, 0);
            s.incr_at(ts, if k % 3 == 0 { 2 } else { 1 });
        }
        for win in s.samples() {
            let offered = win.counts[0];
            assert_eq!(
                offered,
                win.counts[1] + win.counts[2],
                "per-window conservation at {}",
                win.start_ns
            );
        }
        assert_eq!(s.total_lane(0), 6);
        assert_eq!(s.total_lane(1) + s.total_lane(2), 6);
        assert_eq!(s.lanes(), ["offered", "admitted", "shed"]);
        set_series_enabled(false);
    }

    #[test]
    fn gauge_tracks_last_min_max_per_window() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 1_000_000;
        let g = WindowedGauge::new(WindowSpec::new(w, 4));
        g.set_at(10, 3.0);
        g.set_at(20, 1.0);
        g.set_at(30, 2.0);
        g.set_at(w + 1, 7.5);
        let s = g.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].count, s[0].last, s[0].min, s[0].max),
            (3, 2.0, 1.0, 3.0)
        );
        assert_eq!((s[1].count, s[1].last), (1, 7.5));
        assert_eq!(g.last(), Some(7.5));
        set_series_enabled(false);
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        let _g = test_lock();
        set_series_enabled(true);
        let w = 50_000; // 50 µs windows: rotations happen constantly
        let s = std::sync::Arc::new(WindowedSet::new(WindowSpec::new(w, 8), &["a", "b"]));
        let threads = 4;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        s.incr_pair_at(crate::now_ns(), 0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // A thread preempted between its now_ns() and the add can land
        // after its window rotated out (counted late) — but nothing is
        // ever lost silently, and a pair lands or drops as one.
        assert_eq!(s.total_lane(0) + s.late(), threads as u64 * per_thread);
        let live = windows(&s);
        for lane in 0..2 {
            let live_sum: u64 = live.iter().map(|(_, c)| c[lane]).sum();
            assert_eq!(
                s.total_lane(lane),
                live_sum + s.evicted_lane(lane),
                "no sample lost across rotations (lane {lane})"
            );
        }
        assert_eq!(s.total_lane(0), s.total_lane(1));
        set_series_enabled(false);
    }
}
