//! Fleet-wide SLO telemetry: windowed admission series, per-replica
//! gauges and deadline readings, multi-window burn-rate monitors, and
//! the black-box flight recorder.
//!
//! The cumulative ledgers in [`crate::metrics`] answer "how did the
//! run go"; this module answers "how are the last few seconds going"
//! — the question burn-rate alerting and post-mortems ask. Per tenant
//! it keeps one [`WindowedSet`] with the four admission lanes
//! (`offered` / `admitted` / `throttled` / `shed`) sharing a single
//! window ring, so `offered == admitted + throttled + shed` holds
//! **per window**, not just in aggregate (RV081). Per replica it keeps
//! queue-depth-fraction and served-tier gauges plus a deadline-miss
//! monitor fed by the server's cumulative `completed` /
//! `deadline_missed` counts, read once per control tick for it and the
//! tier controller: one reading per storage window is kept (at most
//! [`TelemetryConfig::windows`]), and a trailing range is the latest
//! reading minus the newest kept one at or before `now − range`.
//!
//! Each control tick evaluates every [`SloMonitor`] over the policy's
//! short/long trailing ranges. Transitions are appended to an alert
//! log whose legality `rtoss-verify` replays (RV082), and a `firing`
//! transition — or a worker-panic delta — triggers a
//! [`FlightRecorder`] dump (RV083).
//!
//! Everything here is inert until [`rtoss_obs::set_series_enabled`]
//! (or `RTOSS_SERIES=1`): the admission recorder gates itself on one
//! relaxed atomic load, and the control thread skips the tick
//! entirely, so a telemetry-configured fleet with series disabled pays
//! nothing on the request path.
//!
//! [`TelemetrySnapshot::to_prometheus`] writes only the burn-rate,
//! firing and queue-fraction gauges; ledger counters and replica tiers
//! are [`crate::FleetSnapshot::to_prometheus`]'s alone.

use rtoss_obs as obs;
use rtoss_obs::prom::{render, PromMetric};
use rtoss_obs::slo::{AlertEvent, AlertKind, AlertState, BurnRatePolicy, SloMonitor};
use rtoss_obs::timeseries::{GaugeSample, WindowSpec, WindowedGauge, WindowedSet};
use rtoss_obs::FlightRecorder;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use crate::tenant::TenantSpec;

/// Admission lanes, in lane order of the per-tenant [`WindowedSet`].
pub const ADMISSION_LANES: [&str; 4] = ["offered", "admitted", "throttled", "shed"];
const LANE_OFFERED: usize = 0;
const LANE_ADMITTED: usize = 1;
const LANE_THROTTLED: usize = 2;
const LANE_SHED: usize = 3;

/// Burn-point series are bounded so a long-running fleet cannot grow
/// them without limit; the oldest points are dropped first.
const MAX_BURN_POINTS: usize = 4096;

/// How one offered request left the admission path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Accepted by the chosen replica's queue.
    Admitted,
    /// Refused by the tenant's token bucket.
    Throttled,
    /// Refused by class-pressure admission or the replica queue.
    Shed,
}

impl AdmissionOutcome {
    fn lane(self) -> usize {
        match self {
            AdmissionOutcome::Admitted => LANE_ADMITTED,
            AdmissionOutcome::Throttled => LANE_THROTTLED,
            AdmissionOutcome::Shed => LANE_SHED,
        }
    }
}

/// Telemetry subsystem tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Storage window width for every series.
    pub window: Duration,
    /// Ring length (live windows kept per series).
    pub windows: usize,
    /// Burn-rate policy for the per-tenant admission SLO (good =
    /// admitted, bad = throttled + shed, out of offered).
    pub admission: BurnRatePolicy,
    /// Burn-rate policy for the per-replica deadline SLO (bad =
    /// deadline misses out of completions).
    pub deadline: BurnRatePolicy,
    /// Flight-recorder ring capacity (entries).
    pub flight_capacity: usize,
    /// At most this many flight dumps are retained per run; further
    /// triggers are counted but not rendered.
    pub max_dumps: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: Duration::from_millis(250),
            windows: 256,
            admission: BurnRatePolicy {
                short_range_ns: 5_000_000_000,
                long_range_ns: 60_000_000_000,
                ..BurnRatePolicy::new(0.95)
            },
            deadline: BurnRatePolicy {
                short_range_ns: 5_000_000_000,
                long_range_ns: 60_000_000_000,
                ..BurnRatePolicy::new(0.9)
            },
            flight_capacity: 1024,
            max_dumps: 8,
        }
    }
}

impl TelemetryConfig {
    /// Structural problems with the configuration, empty when valid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.window.is_zero() {
            problems.push("telemetry window must be > 0".into());
        }
        if self.windows < 2 {
            problems.push(format!(
                "telemetry needs >= 2 windows, got {}",
                self.windows
            ));
        }
        let span_ns = self.window.as_nanos().saturating_mul(self.windows as u128);
        for (name, policy) in [("admission", &self.admission), ("deadline", &self.deadline)] {
            for p in policy.validate() {
                problems.push(format!("{name} policy: {p}"));
            }
            if u128::from(policy.long_range_ns) > span_ns {
                problems.push(format!(
                    "{name} policy long range ({} ns) exceeds the ring span ({span_ns} ns) — \
                     the monitor would sum windows that no longer exist",
                    policy.long_range_ns
                ));
            }
        }
        if self.flight_capacity == 0 {
            problems.push("flight_capacity must be > 0".into());
        }
        problems
    }

    fn spec(&self) -> WindowSpec {
        WindowSpec::new(
            self.window.as_nanos().min(u128::from(u64::MAX)) as u64,
            self.windows,
        )
    }
}

/// One burn-rate evaluation of a monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnPoint {
    /// Evaluation time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Short-range burn rate.
    pub short: f64,
    /// Long-range burn rate.
    pub long: f64,
}

struct TenantTelemetry {
    class: String,
    admission: WindowedSet,
    monitor: Mutex<SloMonitor>,
    burns: Mutex<Vec<BurnPoint>>,
}

struct ReplicaTelemetry {
    queue_frac: WindowedGauge,
    tier: WindowedGauge,
    /// Cumulative deadline counts, one reading per storage window.
    readings: Mutex<VecDeque<DeadlineReading>>,
    monitor: Mutex<SloMonitor>,
    burns: Mutex<Vec<BurnPoint>>,
    last_panics: Mutex<u64>,
}

/// A replica's cumulative deadline counts at one control tick.
#[derive(Debug, Clone, Copy)]
struct DeadlineReading {
    ts_ns: u64,
    completed: u64,
    missed: u64,
}

/// One replica's state as seen by a control tick.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaObservation {
    /// Queue depth as a fraction of capacity.
    pub queue_frac: f64,
    /// Currently served tier index.
    pub tier: usize,
    /// Requests the replica server completed so far (cumulative).
    pub completed: u64,
    /// Completed requests that missed their deadline so far
    /// (cumulative).
    pub deadline_missed: u64,
    /// Worker panics the replica server caught so far (cumulative).
    pub worker_panics: u64,
}

/// A rendered flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (`"slo-breach"`, `"worker-panic"`,
    /// `"manual"`).
    pub reason: String,
    /// Trigger instant, nanoseconds since the trace epoch.
    pub trigger_ts_ns: u64,
    /// The self-contained post-mortem JSON document (RV083).
    pub json: String,
}

/// The fleet's telemetry plane; one per [`crate::Fleet`] when
/// configured.
pub struct FleetTelemetry {
    config: TelemetryConfig,
    tenants: BTreeMap<String, TenantTelemetry>,
    replicas: Vec<ReplicaTelemetry>,
    flight: FlightRecorder,
    alerts: Mutex<Vec<AlertEvent>>,
    dumps: Mutex<Vec<FlightDump>>,
    dumps_suppressed: Mutex<u64>,
}

impl std::fmt::Debug for FleetTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTelemetry")
            .field("tenants", &self.tenants.keys().collect::<Vec<_>>())
            .field("replicas", &self.replicas.len())
            .field(
                "alerts",
                &self.alerts.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl FleetTelemetry {
    /// Builds the telemetry plane for `tenants` over `replicas`
    /// replicas.
    ///
    /// # Errors
    ///
    /// Returns the joined [`TelemetryConfig::validate`] problems when
    /// the configuration is structurally invalid.
    pub fn new(
        config: TelemetryConfig,
        tenants: &[TenantSpec],
        replicas: usize,
    ) -> Result<Self, String> {
        let problems = config.validate();
        if !problems.is_empty() {
            return Err(format!("invalid telemetry config: {}", problems.join("; ")));
        }
        let spec = config.spec();
        let tenants = tenants
            .iter()
            .map(|t| {
                (
                    t.id.clone(),
                    TenantTelemetry {
                        class: t.class.label().to_string(),
                        admission: WindowedSet::new(spec, &ADMISSION_LANES),
                        monitor: Mutex::new(SloMonitor::new(
                            "admission",
                            t.id.clone(),
                            config.admission,
                        )),
                        burns: Mutex::new(Vec::new()),
                    },
                )
            })
            .collect();
        let replicas = (0..replicas)
            .map(|i| ReplicaTelemetry {
                queue_frac: WindowedGauge::new(spec),
                tier: WindowedGauge::new(spec),
                readings: Mutex::new(VecDeque::with_capacity(spec.windows)),
                monitor: Mutex::new(SloMonitor::new(
                    "deadline",
                    format!("replica/{i}"),
                    config.deadline,
                )),
                burns: Mutex::new(Vec::new()),
                last_panics: Mutex::new(0),
            })
            .collect();
        Ok(FleetTelemetry {
            flight: FlightRecorder::new(config.flight_capacity),
            config,
            tenants,
            replicas,
            alerts: Mutex::new(Vec::new()),
            dumps: Mutex::new(Vec::new()),
            dumps_suppressed: Mutex::new(0),
        })
    }

    /// The governing configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The flight recorder (feed it spans/instants from outside the
    /// fleet if useful).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Records one admission decision for `tenant` at `ts_ns`: the
    /// `offered` lane and the outcome lane land (or drop) as one
    /// sample, keeping per-window conservation exact. Unknown tenants
    /// are ignored (the fleet refuses them before offering). Inert
    /// while series recording is disabled.
    pub fn record_admission(&self, tenant: &str, ts_ns: u64, outcome: AdmissionOutcome) {
        if let Some(t) = self.tenants.get(tenant) {
            t.admission
                .incr_pair_at(ts_ns, LANE_OFFERED, outcome.lane());
        }
    }

    /// Feeds a tier change into the flight recorder.
    pub fn record_tier_change(&self, ts_ns: u64, replica: usize, from: usize, to: usize) {
        self.flight.instant(
            "tier_change",
            ts_ns,
            format!("replica/{replica} {from}->{to}"),
        );
    }

    /// One control tick at `ts_ns`: samples the per-replica gauges,
    /// evaluates every monitor over its policy ranges, logs alert
    /// transitions, and dumps the flight recorder on a firing
    /// transition or a worker-panic delta. Call order must be
    /// single-threaded (the fleet's control thread). No-op while
    /// series recording is disabled.
    pub fn tick(&self, ts_ns: u64, replicas: &[ReplicaObservation]) {
        if !obs::series_enabled() {
            return;
        }
        let tick_start = std::time::Instant::now();
        for (i, (state, seen)) in self.replicas.iter().zip(replicas).enumerate() {
            state.queue_frac.set_at(ts_ns, seen.queue_frac);
            state.tier.set_at(ts_ns, seen.tier as f64);
            self.flight
                .sample(format!("replica/{i}/queue_frac"), ts_ns, seen.queue_frac);
            let p = &self.config.deadline;
            let (short, long) = {
                let mut readings = state.readings.lock().unwrap_or_else(|e| e.into_inner());
                let reading = DeadlineReading {
                    ts_ns,
                    completed: seen.completed,
                    missed: seen.deadline_missed,
                };
                keep_reading(&mut readings, self.config.spec(), reading);
                (
                    deadline_range(&readings, ts_ns, p.short_range_ns),
                    deadline_range(&readings, ts_ns, p.long_range_ns),
                )
            };
            let (event, burns) = {
                let mut monitor = state.monitor.lock().unwrap_or_else(|e| e.into_inner());
                let event = monitor.evaluate(ts_ns, short, long);
                (event, monitor.last_burns())
            };
            push_burn(&state.burns, ts_ns, burns);
            if let Some(event) = event {
                self.log_alert(event);
            }
            let panics = seen.worker_panics;
            let mut last = state.last_panics.lock().unwrap_or_else(|e| e.into_inner());
            if panics > *last {
                *last = panics;
                drop(last);
                self.flight
                    .instant("worker_panic", ts_ns, format!("replica/{i} total={panics}"));
                self.dump("worker-panic", ts_ns);
            }
        }
        for (id, t) in &self.tenants {
            let p = &self.config.admission;
            let (event, burns) = {
                let mut monitor = t.monitor.lock().unwrap_or_else(|e| e.into_inner());
                let event = monitor.evaluate(
                    ts_ns,
                    admission_range(&t.admission, ts_ns, p.short_range_ns),
                    admission_range(&t.admission, ts_ns, p.long_range_ns),
                );
                (event, monitor.last_burns())
            };
            push_burn(&t.burns, ts_ns, burns);
            self.flight
                .sample(format!("tenant/{id}/burn_short"), ts_ns, burns.0);
            if let Some(event) = event {
                self.log_alert(event);
            }
        }
        self.flight.span(
            "telemetry_tick",
            ts_ns,
            tick_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        );
    }

    fn log_alert(&self, event: AlertEvent) {
        self.flight.alert(&event);
        let firing = event.kind == AlertKind::Firing;
        let ts = event.ts_ns;
        self.alerts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
        if firing {
            self.dump("slo-breach", ts);
        }
    }

    /// Renders and retains a flight dump now (also the manual
    /// entry point: `reason = "manual"`). Dumps beyond
    /// [`TelemetryConfig::max_dumps`] are counted, not rendered.
    pub fn dump(&self, reason: &str, trigger_ts_ns: u64) {
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        if dumps.len() >= self.config.max_dumps {
            *self
                .dumps_suppressed
                .lock()
                .unwrap_or_else(|e| e.into_inner()) += 1;
            return;
        }
        dumps.push(FlightDump {
            reason: reason.to_string(),
            trigger_ts_ns,
            json: self.flight.dump(reason, trigger_ts_ns),
        });
    }

    /// Every alert transition so far, in log order.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.alerts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Every retained flight dump so far, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Serializable point-in-time view of the whole telemetry plane.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let tenants = self
            .tenants
            .iter()
            .map(|(id, t)| {
                let windows = t
                    .admission
                    .samples()
                    .into_iter()
                    .map(|w| AdmissionWindow {
                        start_ns: w.start_ns,
                        offered: w.counts[LANE_OFFERED],
                        admitted: w.counts[LANE_ADMITTED],
                        throttled: w.counts[LANE_THROTTLED],
                        shed: w.counts[LANE_SHED],
                    })
                    .collect();
                let lane_total = |l| t.admission.total_lane(l);
                let lane_evicted = |l| t.admission.evicted_lane(l);
                let monitor = t.monitor.lock().unwrap_or_else(|e| e.into_inner());
                TenantTelemetrySnapshot {
                    id: id.clone(),
                    class: t.class.clone(),
                    windows,
                    totals: AdmissionTotals {
                        offered: lane_total(LANE_OFFERED),
                        admitted: lane_total(LANE_ADMITTED),
                        throttled: lane_total(LANE_THROTTLED),
                        shed: lane_total(LANE_SHED),
                    },
                    evicted: AdmissionTotals {
                        offered: lane_evicted(LANE_OFFERED),
                        admitted: lane_evicted(LANE_ADMITTED),
                        throttled: lane_evicted(LANE_THROTTLED),
                        shed: lane_evicted(LANE_SHED),
                    },
                    late: t.admission.late(),
                    burns: t.burns.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                    firing: monitor.state() == AlertState::Firing,
                }
            })
            .collect();
        let replicas = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let monitor = r.monitor.lock().unwrap_or_else(|e| e.into_inner());
                ReplicaTelemetrySnapshot {
                    replica: i,
                    queue_frac: r
                        .queue_frac
                        .samples()
                        .into_iter()
                        .map(gauge_window)
                        .collect(),
                    tier: r.tier.samples().into_iter().map(gauge_window).collect(),
                    burns: r.burns.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                    firing: monitor.state() == AlertState::Firing,
                }
            })
            .collect();
        TelemetrySnapshot {
            window_ns: self.config.spec().window_ns,
            windows: self.config.windows,
            admission_policy: PolicySnapshot::from(&self.config.admission),
            deadline_policy: PolicySnapshot::from(&self.config.deadline),
            tenants,
            replicas,
            alerts: self.alerts().iter().map(AlertRecord::from).collect(),
            dump_count: self.dumps.lock().unwrap_or_else(|e| e.into_inner()).len(),
            dumps_suppressed: *self
                .dumps_suppressed
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        }
    }
}

fn admission_range(set: &WindowedSet, now_ns: u64, range_ns: u64) -> (u64, u64) {
    let throttled = set.range_lane(now_ns, range_ns, LANE_THROTTLED);
    let shed = set.range_lane(now_ns, range_ns, LANE_SHED);
    let offered = set.range_lane(now_ns, range_ns, LANE_OFFERED);
    (throttled + shed, offered)
}

/// Keeps `reading` as its storage window's one reading (a later tick in
/// the same window replaces it), dropping the oldest reading once the
/// ring holds `spec.windows`.
fn keep_reading(
    readings: &mut VecDeque<DeadlineReading>,
    spec: WindowSpec,
    reading: DeadlineReading,
) {
    match readings.back_mut() {
        Some(last) if spec.window_index(last.ts_ns) == spec.window_index(reading.ts_ns) => {
            *last = reading;
        }
        _ => {
            if readings.len() == spec.windows {
                readings.pop_front();
            }
            readings.push_back(reading);
        }
    }
}

/// `(missed, completed)` over the trailing `range_ns` before `now_ns`:
/// the latest reading minus the newest kept reading at or before
/// `now − range`, or minus the oldest kept reading if none is that old.
fn deadline_range(readings: &VecDeque<DeadlineReading>, now_ns: u64, range_ns: u64) -> (u64, u64) {
    let (Some(first), Some(latest)) = (readings.front(), readings.back()) else {
        return (0, 0);
    };
    let cutoff = now_ns.saturating_sub(range_ns);
    let base = readings
        .iter()
        .rev()
        .find(|r| r.ts_ns <= cutoff)
        .unwrap_or(first);
    (
        latest.missed.saturating_sub(base.missed),
        latest.completed.saturating_sub(base.completed),
    )
}

fn push_burn(burns: &Mutex<Vec<BurnPoint>>, ts_ns: u64, (short, long): (f64, f64)) {
    let mut burns = burns.lock().unwrap_or_else(|e| e.into_inner());
    if burns.len() >= MAX_BURN_POINTS {
        burns.remove(0);
    }
    burns.push(BurnPoint { ts_ns, short, long });
}

fn gauge_window(s: GaugeSample) -> GaugeWindow {
    GaugeWindow {
        start_ns: s.start_ns,
        count: s.count,
        last: s.last,
        min: s.min,
        max: s.max,
    }
}

/// Serde mirror of [`BurnRatePolicy`] (the obs crate is serde-free by
/// design).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// Target good/total ratio.
    pub objective: f64,
    /// Short trailing range, nanoseconds.
    pub short_range_ns: u64,
    /// Long trailing range, nanoseconds.
    pub long_range_ns: u64,
    /// Firing threshold.
    pub fire_burn: f64,
    /// Resolve threshold (below `fire_burn`).
    pub resolve_burn: f64,
    /// Minimum events for a range to produce a non-zero burn.
    pub min_total: u64,
}

impl From<&BurnRatePolicy> for PolicySnapshot {
    fn from(p: &BurnRatePolicy) -> Self {
        PolicySnapshot {
            objective: p.objective,
            short_range_ns: p.short_range_ns,
            long_range_ns: p.long_range_ns,
            fire_burn: p.fire_burn,
            resolve_burn: p.resolve_burn,
            min_total: p.min_total,
        }
    }
}

impl PolicySnapshot {
    /// The policy this snapshot mirrors (for replay in `rtoss-verify`).
    pub fn to_policy(self) -> BurnRatePolicy {
        BurnRatePolicy {
            objective: self.objective,
            short_range_ns: self.short_range_ns,
            long_range_ns: self.long_range_ns,
            fire_burn: self.fire_burn,
            resolve_burn: self.resolve_burn,
            min_total: self.min_total,
        }
    }
}

/// Serde mirror of [`AlertEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Rule name (`"admission"` / `"deadline"`).
    pub rule: String,
    /// Monitored subject (tenant id or `"replica/N"`).
    pub subject: String,
    /// `"firing"` or `"resolved"`.
    pub state: String,
    /// Transition time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Short-range burn at the transition.
    pub burn_short: f64,
    /// Long-range burn at the transition.
    pub burn_long: f64,
}

impl From<&AlertEvent> for AlertRecord {
    fn from(e: &AlertEvent) -> Self {
        AlertRecord {
            rule: e.rule.clone(),
            subject: e.subject.clone(),
            state: e.kind.label().to_string(),
            ts_ns: e.ts_ns,
            burn_short: e.burn_short,
            burn_long: e.burn_long,
        }
    }
}

/// One admission window of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionWindow {
    /// Window start, nanoseconds since the trace epoch (aligned to the
    /// window width).
    pub start_ns: u64,
    /// Requests offered in this window.
    pub offered: u64,
    /// …admitted.
    pub admitted: u64,
    /// …throttled by quota.
    pub throttled: u64,
    /// …shed by pressure admission or the queue.
    pub shed: u64,
}

/// Admission lane totals (live + evicted breakdowns use the same
/// shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionTotals {
    /// Offered-lane count.
    pub offered: u64,
    /// Admitted-lane count.
    pub admitted: u64,
    /// Throttled-lane count.
    pub throttled: u64,
    /// Shed-lane count.
    pub shed: u64,
}

/// One window of a gauge series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugeWindow {
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

/// One tenant's telemetry view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTelemetrySnapshot {
    /// Tenant id.
    pub id: String,
    /// SLO class label.
    pub class: String,
    /// Live admission windows, sorted by start.
    pub windows: Vec<AdmissionWindow>,
    /// Grand totals of samples accepted into the series.
    pub totals: AdmissionTotals,
    /// Counts harvested from rotated-out windows.
    pub evicted: AdmissionTotals,
    /// Samples dropped as older than the ring span.
    pub late: u64,
    /// Burn-rate evaluations, one per control tick (bounded, oldest
    /// dropped first).
    pub burns: Vec<BurnPoint>,
    /// Whether the admission monitor is currently firing.
    pub firing: bool,
}

/// One replica's telemetry view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaTelemetrySnapshot {
    /// Replica index.
    pub replica: usize,
    /// Queue-depth-fraction gauge windows.
    pub queue_frac: Vec<GaugeWindow>,
    /// Served-tier gauge windows.
    pub tier: Vec<GaugeWindow>,
    /// Deadline burn-rate evaluations, one per control tick.
    pub burns: Vec<BurnPoint>,
    /// Whether the deadline monitor is currently firing.
    pub firing: bool,
}

/// Serializable point-in-time view of a [`FleetTelemetry`], the
/// document `verify --telemetry` and `fleet_dashboard` read and
/// RV080–RV082 validate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Storage window width, nanoseconds.
    pub window_ns: u64,
    /// Ring length.
    pub windows: usize,
    /// The admission policy in force.
    pub admission_policy: PolicySnapshot,
    /// The deadline policy in force.
    pub deadline_policy: PolicySnapshot,
    /// Per-tenant series, sorted by tenant id.
    pub tenants: Vec<TenantTelemetrySnapshot>,
    /// Per-replica series, in replica order.
    pub replicas: Vec<ReplicaTelemetrySnapshot>,
    /// Alert transitions in log order.
    pub alerts: Vec<AlertRecord>,
    /// Flight dumps rendered.
    pub dump_count: usize,
    /// Dump triggers beyond `max_dumps`, counted not rendered.
    pub dumps_suppressed: u64,
}

impl TelemetrySnapshot {
    /// Renders the gauges only telemetry knows as Prometheus text
    /// exposition: per tenant the admission burn rate over both policy
    /// ranges and the firing flag, per replica the latest queue
    /// fraction and the deadline firing flag. Tenant ids are escaped as
    /// label values, so hostile names cannot corrupt the exposition.
    /// The ledger counters and replica tiers are
    /// [`crate::FleetSnapshot::to_prometheus`]'s to write.
    pub fn to_prometheus(&self) -> String {
        let firing = |rule: &str, subject: String, on: bool| {
            PromMetric::gauge(
                "rtoss_fleet_alert_firing",
                "1 while the SLO monitor is firing",
                if on { 1.0 } else { 0.0 },
            )
            .with_label("rule", rule)
            .with_label("subject", subject)
        };
        let mut metrics = Vec::new();
        for t in &self.tenants {
            let (short, long) = t.burns.last().map_or((0.0, 0.0), |b| (b.short, b.long));
            for (range, v) in [("short", short), ("long", long)] {
                metrics.push(
                    PromMetric::gauge(
                        "rtoss_fleet_admission_burn",
                        "Admission SLO burn rate over the policy range",
                        v,
                    )
                    .with_label("tenant", t.id.clone())
                    .with_label("range", range),
                );
            }
            metrics.push(firing("admission", t.id.clone(), t.firing));
        }
        for r in &self.replicas {
            if let Some(w) = r.queue_frac.last() {
                metrics.push(
                    PromMetric::gauge(
                        "rtoss_fleet_queue_frac",
                        "Queue depth as a fraction of capacity",
                        w.last,
                    )
                    .with_label("replica", r.replica.to_string()),
                );
            }
            metrics.push(firing(
                "deadline",
                format!("replica/{}", r.replica),
                r.firing,
            ));
        }
        render(&metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::SloClass;

    /// Serializes the tests that flip the process-wide series flag.
    fn series_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn config() -> TelemetryConfig {
        TelemetryConfig {
            window: Duration::from_millis(10),
            windows: 64,
            admission: BurnRatePolicy {
                short_range_ns: 50_000_000,
                long_range_ns: 200_000_000,
                min_total: 5,
                ..BurnRatePolicy::new(0.95)
            },
            deadline: BurnRatePolicy {
                short_range_ns: 50_000_000,
                long_range_ns: 200_000_000,
                min_total: 5,
                ..BurnRatePolicy::new(0.9)
            },
            ..TelemetryConfig::default()
        }
    }

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("gold", SloClass::Gold, 1e6, 1e6),
            TenantSpec::new("bulk", SloClass::Bulk, 1e6, 1e6),
        ]
    }

    #[test]
    fn validate_rejects_ranges_wider_than_the_ring() {
        let mut cfg = config();
        cfg.admission.long_range_ns = 10_000_000_000; // 10 s > 640 ms span
        let err = FleetTelemetry::new(cfg, &tenants(), 1).unwrap_err();
        assert!(err.contains("ring span"), "{err}");
    }

    /// A replica observation with no completions yet.
    fn idle(queue_frac: f64, tier: usize) -> ReplicaObservation {
        ReplicaObservation {
            queue_frac,
            tier,
            completed: 0,
            deadline_missed: 0,
            worker_panics: 0,
        }
    }

    #[test]
    fn overload_fires_and_recovery_resolves_with_dump() {
        let _guard = series_lock();
        obs::set_series_enabled(true);
        let tel = FleetTelemetry::new(config(), &tenants(), 1).unwrap();
        let base = obs::now_ns();
        let win = 10_000_000u64;
        // 20 ticks of heavy shedding for bulk: every window 5 offered,
        // 4 shed.
        let mut ts = base;
        for _ in 0..20 {
            for k in 0..5 {
                let outcome = if k == 0 {
                    AdmissionOutcome::Admitted
                } else {
                    AdmissionOutcome::Shed
                };
                tel.record_admission("bulk", ts, outcome);
                tel.record_admission("gold", ts, AdmissionOutcome::Admitted);
            }
            ts += win;
            tel.tick(ts, &[idle(0.9, 2)]);
        }
        let firing: Vec<_> = tel
            .alerts()
            .into_iter()
            .filter(|a| a.kind == AlertKind::Firing)
            .collect();
        assert_eq!(firing.len(), 1, "bulk should fire exactly once");
        assert_eq!(firing[0].subject, "bulk");
        assert_eq!(tel.dumps().len(), 1);
        assert_eq!(tel.dumps()[0].reason, "slo-breach");
        // Quiet period long past the short range: burn decays, resolves.
        ts += 30 * win;
        tel.tick(ts, &[idle(0.1, 0)]);
        let alerts = tel.alerts();
        let last = alerts.last().unwrap();
        assert_eq!(last.kind, AlertKind::Resolved);
        assert_eq!(last.subject, "bulk");
        let snap = tel.snapshot();
        let bulk = snap.tenants.iter().find(|t| t.id == "bulk").unwrap();
        assert!(!bulk.firing);
        // Per-window and total conservation.
        for w in &bulk.windows {
            assert_eq!(w.offered, w.admitted + w.throttled + w.shed);
        }
        assert_eq!(
            bulk.totals.offered,
            bulk.totals.admitted + bulk.totals.throttled + bulk.totals.shed
        );
        // The flight dump covers the breach instant.
        let dump = &tel.dumps()[0];
        assert!(dump.json.contains("\"reason\":\"slo-breach\""));
        assert!(dump.json.contains("\"kind\":\"alert\""));
        // Prometheus rendering carries tenant labels and parses back;
        // the ledger counters are not telemetry's to write.
        let prom = snap.to_prometheus();
        assert!(prom.contains("rtoss_fleet_admission_burn{tenant=\"bulk\""));
        assert!(!prom.contains("rtoss_fleet_shed_total"));
        assert!(rtoss_obs::prom::parse(&prom).is_ok());
        obs::set_series_enabled(false);
    }

    #[test]
    fn tick_fed_deadline_counts_fire_and_resolve() {
        let _guard = series_lock();
        obs::set_series_enabled(true);
        let tel = FleetTelemetry::new(config(), &tenants(), 1).unwrap();
        let win = 10_000_000u64;
        let mut ts = obs::now_ns();
        let mut seen = idle(0.5, 0);
        let deadline_alerts = |state: AlertKind| {
            tel.alerts()
                .into_iter()
                .filter(|a| a.rule == "deadline" && a.subject == "replica/0" && a.kind == state)
                .count()
        };
        // Half of every window's completions miss their deadline: a 0.5
        // miss rate burns the 0.1 budget at 5x, past the 2x fire burn.
        for _ in 0..30 {
            ts += win;
            seen.completed += 10;
            seen.deadline_missed += 5;
            tel.tick(ts, &[seen]);
        }
        assert_eq!(deadline_alerts(AlertKind::Firing), 1);
        assert!(tel.snapshot().replicas[0].firing);
        assert_eq!(tel.dumps()[0].reason, "slo-breach");
        // Misses stop while completions continue: once the short range
        // holds no miss, the short burn is 0 and the alert resolves.
        for _ in 0..10 {
            ts += win;
            seen.completed += 10;
            tel.tick(ts, &[seen]);
        }
        assert_eq!(deadline_alerts(AlertKind::Resolved), 1);
        let snap = tel.snapshot();
        assert!(!snap.replicas[0].firing);
        assert_eq!(snap.replicas[0].burns.last().map(|b| b.short), Some(0.0));
        // Enough ticks to wrap: one reading per window, bounded by the
        // ring length.
        for _ in 0..100 {
            ts += win / 2;
            seen.completed += 1;
            tel.tick(ts, &[seen]);
        }
        let kept = tel.replicas[0]
            .readings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        assert_eq!(kept, config().windows);
        obs::set_series_enabled(false);
    }

    #[test]
    fn deadline_range_subtracts_the_newest_reading_old_enough() {
        let reading = |ts_ns, completed, missed| DeadlineReading {
            ts_ns,
            completed,
            missed,
        };
        let readings: VecDeque<DeadlineReading> = [
            reading(10, 100, 1),
            reading(20, 150, 4),
            reading(30, 200, 9),
        ]
        .into();
        // now − range = 25: the reading at 20 is the newest that old.
        assert_eq!(deadline_range(&readings, 35, 10), (5, 50));
        // Exactly at a reading's timestamp counts as old enough.
        assert_eq!(deadline_range(&readings, 30, 10), (5, 50));
        // Nothing that old: fall back to the oldest kept reading.
        assert_eq!(deadline_range(&readings, 35, 30), (8, 100));
        assert_eq!(deadline_range(&VecDeque::new(), 35, 10), (0, 0));
    }

    #[test]
    fn disabled_series_record_nothing() {
        let _guard = series_lock();
        obs::set_series_enabled(false);
        let tel = FleetTelemetry::new(config(), &tenants(), 1).unwrap();
        tel.record_admission("gold", obs::now_ns(), AdmissionOutcome::Admitted);
        tel.tick(obs::now_ns(), &[idle(0.5, 0)]);
        let snap = tel.snapshot();
        assert_eq!(snap.tenants[1].totals.offered, 0);
        assert!(snap.tenants[1].burns.is_empty());
        assert!(tel.flight().is_empty());
        assert_eq!(snap.dump_count, 0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let _guard = series_lock();
        obs::set_series_enabled(true);
        let tel = FleetTelemetry::new(config(), &tenants(), 2).unwrap();
        let ts = obs::now_ns();
        tel.record_admission("gold", ts, AdmissionOutcome::Throttled);
        tel.tick(ts + 10_000_000, &[idle(0.25, 1), idle(0.75, 2)]);
        let snap = tel.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.replicas.len(), 2);
        assert_eq!(back.tenants[1].totals.throttled, 1);
        obs::set_series_enabled(false);
    }
}
