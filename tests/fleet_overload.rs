//! A live fleet past capacity, on sleep-timed tiers so the outcome does
//! not depend on how fast the host runs a detector:
//!
//! - the degradation controller must beat doing nothing: replaying one
//!   seeded schedule at 2.5x dense capacity, the controller-on fleet
//!   meets more deadlines than the same fleet pinned to dense;
//! - the SLO telemetry plane of an overloaded fleet that then goes
//!   quiet passes the ledger checks (RV062/RV063) and the telemetry
//!   checks (RV080–RV083, with the ledger cross-check), its Bulk
//!   admission alert fires and resolves, and the flight recorder dumps.
//!   The settled snapshot and the first dump are written to
//!   `CARGO_TARGET_TMPDIR` as `fleet_telemetry.json` and
//!   `fleet_flight.json`, for `verify --telemetry`, `verify --flight`
//!   and `fleet_dashboard --in`.

use rtoss::fleet::{
    Fleet, FleetConfig, SloClass, TelemetryConfig, TelemetrySnapshot, TenantSpec,
    TierControllerConfig, TierSpec,
};
use rtoss::obs::BurnRatePolicy;
use rtoss::serve::{BackpressurePolicy, ExecConfig, ServeConfig, ServeModel};
use rtoss::tensor::{init, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service time of one dense frame; 3EP takes half, 2EP a quarter.
const DENSE: Duration = Duration::from_millis(6);
/// Two replicas of one worker each, one frame per batch.
const REPLICAS: usize = 2;
/// Frames per second the fleet serves when every replica runs dense.
const DENSE_CAPACITY: f64 = REPLICAS as f64 / 0.006;
/// One deadline for every tenant, so hit shares compare like for like.
const DEADLINE: Duration = Duration::from_millis(40);
/// Arrivals cycle through the tenants 3:2:1.
const MIX: [&str; 6] = [
    "gold-cams",
    "gold-cams",
    "gold-cams",
    "silver-cams",
    "silver-cams",
    "bulk-reprocess",
];

/// A tier that sleeps its service time and echoes its input.
struct Sleep(Duration);

impl ServeModel for Sleep {
    fn run_batch(&self, batch: &Tensor, _exec: &ExecConfig) -> Result<Vec<Tensor>, String> {
        std::thread::sleep(self.0);
        Ok(vec![batch.clone()])
    }
}

fn start_fleet(controller: bool, telemetry: Option<TelemetryConfig>) -> Fleet {
    let tiers: Vec<(TierSpec, Arc<dyn ServeModel>)> = vec![
        (TierSpec::new("dense", 75.0), Arc::new(Sleep(DENSE))),
        (TierSpec::new("3EP", 73.9), Arc::new(Sleep(DENSE / 2))),
        (TierSpec::new("2EP", 72.6), Arc::new(Sleep(DENSE / 4))),
    ];
    let tenants = vec![
        TenantSpec::new("gold-cams", SloClass::Gold, 1e9, 1e9),
        TenantSpec::new("silver-cams", SloClass::Silver, 1e9, 1e9),
        TenantSpec::new("bulk-reprocess", SloClass::Bulk, 1e9, 1e9),
    ];
    Fleet::start(
        tiers,
        FleetConfig {
            replicas: REPLICAS,
            tenants,
            controller: controller.then(TierControllerConfig::default),
            telemetry,
            control_interval: Duration::from_millis(5),
            serve: ServeConfig {
                workers: 1,
                queue_capacity: 16,
                policy: BackpressurePolicy::ShedExpired,
                max_batch: 1,
                batch_timeout: Duration::ZERO,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts")
}

/// Seeded Poisson arrival offsets at `rate` per second over `span`.
fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let n = (rate * span.as_secs_f64()).ceil() as usize;
    let draws = init::uniform(&mut init::rng(seed), &[n], 0.0, 1.0);
    let mut t = 0.0f64;
    draws
        .as_slice()
        .iter()
        .map(|&u| {
            t -= (1.0 - f64::from(u)).max(1e-12).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Submits one request per offset of `schedule`, open loop, then waits
/// for every admitted ticket. Returns the share of offered requests
/// that completed within [`DEADLINE`].
fn replay(fleet: &Fleet, schedule: &[Duration]) -> f64 {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let tenant = MIX[i % MIX.len()];
        let key = format!("{tenant}/stream-{}", i % 4);
        let frame = Tensor::zeros(&[1, 1, 4, 4]);
        if let Ok(ticket) = fleet.submit(tenant, &key, frame, Some(DEADLINE)) {
            tickets.push(ticket);
        }
    }
    let hits = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(|r| matches!(r, Ok(resp) if !resp.deadline_missed))
        .count();
    hits as f64 / schedule.len() as f64
}

/// The controller contract "never worse than doing nothing", at a
/// load where doing nothing collapses: at 2.5x dense capacity the
/// pinned fleet queues past the deadline, while the controller's 2EP
/// tier (4x dense speed) has headroom.
#[test]
fn degradation_beats_pinned_dense_at_2_5x_capacity() {
    /// How much larger the degraded arm's deadline-hit share must be
    /// (a 2-vCPU host measured 0.91 against 0.05).
    const MARGIN: f64 = 0.5;
    let schedule = poisson_schedule(42, 2.5 * DENSE_CAPACITY, Duration::from_millis(1200));

    let fleet = start_fleet(true, None);
    let degraded = replay(&fleet, &schedule);
    let downgrades = fleet.shutdown().tier_downgrades;
    let fleet = start_fleet(false, None);
    let pinned = replay(&fleet, &schedule);
    fleet.shutdown();

    assert!(downgrades >= 1, "the controller never left dense");
    assert!(
        degraded >= pinned + MARGIN,
        "degraded hit share {degraded:.3} does not beat pinned {pinned:.3} by {MARGIN}"
    );
}

/// Scaled-down alert policy: 50 ms windows and 250 ms / 1 s burn
/// ranges, so an alert can fire and resolve within a two-second test.
fn telemetry_config() -> TelemetryConfig {
    let policy = |objective| BurnRatePolicy {
        short_range_ns: 250_000_000,
        long_range_ns: 1_000_000_000,
        min_total: 10,
        ..BurnRatePolicy::new(objective)
    };
    TelemetryConfig {
        window: Duration::from_millis(50),
        windows: 64,
        admission: policy(0.95),
        deadline: policy(0.9),
        ..TelemetryConfig::default()
    }
}

/// Polls until no monitor is firing (the burn ranges empty once the
/// load stops) or `timeout` passes; returns the last snapshot.
fn settle(tel: &rtoss::fleet::FleetTelemetry, timeout: Duration) -> TelemetrySnapshot {
    let start = Instant::now();
    loop {
        let snap = tel.snapshot();
        let quiet =
            snap.tenants.iter().all(|t| !t.firing) && snap.replicas.iter().all(|r| !r.firing);
        if quiet || start.elapsed() > timeout {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn overloaded_fleet_telemetry_fires_resolves_and_verifies() {
    rtoss::obs::set_series_enabled(true);
    let fleet = start_fleet(true, Some(telemetry_config()));
    let tel = fleet.telemetry().expect("telemetry configured");
    // Twice what even the sparsest tier serves: every tier is past
    // capacity, so Bulk sheds at its admission bound throughout.
    let schedule = poisson_schedule(7, 8.0 * DENSE_CAPACITY, Duration::from_millis(1000));
    replay(&fleet, &schedule);
    let snapshot = settle(&tel, Duration::from_secs(10));
    let dumps = tel.dumps();
    let ledger = fleet.shutdown();
    rtoss::obs::set_series_enabled(false);

    let mut check = rtoss::verify::check_fleet_ledger(&ledger);
    check.extend(rtoss::verify::check_fleet_replicas(&ledger).diagnostics);
    check.extend(rtoss::verify::check_telemetry_windows(&snapshot).diagnostics);
    check.extend(rtoss::verify::check_telemetry_conservation(&snapshot, Some(&ledger)).diagnostics);
    check.extend(rtoss::verify::check_alert_log(&snapshot).diagnostics);
    for (i, dump) in dumps.iter().enumerate() {
        let label = format!("flight dump[{i}] ({})", dump.reason);
        check.extend(rtoss::verify::check_flight_dump(&label, &dump.json).diagnostics);
    }
    assert!(!check.has_errors(), "{}", check.render());

    let bulk = |state: &str| {
        snapshot.alerts.iter().position(|a| {
            a.rule == "admission" && a.subject == "bulk-reprocess" && a.state == state
        })
    };
    let (fired, resolved) = (bulk("firing"), bulk("resolved"));
    assert!(
        matches!((fired, resolved), (Some(f), Some(r)) if f < r),
        "bulk admission alert did not fire and then resolve: {:?}",
        snapshot.alerts
    );
    let first = dumps
        .first()
        .expect("a firing alert dumps the flight recorder");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(dir.join("fleet_telemetry.json"), json).expect("write snapshot");
    std::fs::write(dir.join("fleet_flight.json"), &first.json).expect("write flight dump");
}
