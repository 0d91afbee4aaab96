//! Fleet overload benchmark: the accuracy-tier degradation curve.
//!
//! Builds a dense / 3EP / 2EP tier stack from the same seeded YOLOv5s
//! twin (identical weights before pruning, each variant compiled to the
//! planned sparse engine), calibrates the fleet's saturating load from
//! the dense engine's measured service time, then sweeps offered load
//! across multiples of that saturation point. Every load point is
//! replayed **twice on the same seeded arrival schedule**: once with
//! the degradation controller enabled (replicas swap to sparser, faster
//! R-TOSS variants under pressure) and once with the controller off
//! (pinned dense — the no-degradation baseline). The headline curve is
//! deadline-hit-rate vs. load; the cost axis is the frame-weighted
//! modelled mAP of what was actually served.
//!
//! ```text
//! fleet_bench [--replicas N] [--workers N] [--max-batch N] [--image N]
//!             [--duration SECS] [--seed N] [--deadline-ms N]
//!             [--burst F] [--loads F,F,...] [--out PATH] [--strict]
//!             [--telemetry]
//! ```
//!
//! `--telemetry` turns the windowed SLO telemetry plane on for every
//! arm (bench-scaled burn-rate ranges), validates each settled
//! snapshot with the RV080–RV083 passes (including the ledger
//! cross-check and every flight dump), and writes the artifacts of the
//! highest >= 2x degraded arm next to the report:
//! `fleet_telemetry.json`, `fleet_telemetry.prom`, and
//! `fleet_flight.json`. Combined with `--strict` it also requires the
//! bulk tenant's admission alert to fire *and* resolve at that point —
//! the breach-and-recovery acceptance gate.
//!
//! `--deadline-ms 0` (the default) auto-derives the deadline from the
//! calibrated dense service time (8x the mean single-frame latency), so
//! the benchmark stays meaningful across machines. `--burst F` replaces
//! the Poisson arrivals with the on/off-modulated bursty schedule
//! (burstiness factor `F >= 1`; `1` is plain Poisson). `--strict` exits
//! non-zero unless degradation strictly beats the baseline's
//! deadline-hit-rate at every load point at or above 2x saturation —
//! the acceptance gate CI runs.
//!
//! Both terminal fleet snapshots of every load point are checked with
//! the rtoss-verify RV062/RV063 passes (tenant-ledger conservation,
//! replica-state consistency); a violation aborts with exit 1. Writes
//! `fleet_bench.json` and a plain-text `fleet_bench.txt` table next to
//! each other under `results/fleet/` by default.

use rtoss_bench::format_table;
use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_fleet::loadgen::{
    bursty_schedule, poisson_schedule, run_fleet_open_loop, FleetLoadSummary, TenantLoad,
};
use rtoss_fleet::{
    Fleet, FleetConfig, FlightDump, SloClass, TelemetryConfig, TelemetrySnapshot, TenantSpec,
    TierControllerConfig, TierSpec,
};
use rtoss_models::yolov5s_twin;
use rtoss_serve::{BackpressurePolicy, ServeConfig, ServeModel};
use rtoss_sparse::SparseModel;
use rtoss_tensor::{init, ExecConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served-frame count of one accuracy tier (summed over replicas).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TierMixRow {
    /// Tier name (`dense`, `3EP`, `2EP`).
    tier: String,
    /// Frames served on this tier across the whole fleet.
    frames: u64,
}

/// One arm (controller on or off) of one load point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ArmRow {
    /// Whether the degradation controller was enabled.
    degradation: bool,
    /// Client-side load summary (per-tenant outcomes included).
    summary: FleetLoadSummary,
    /// Fraction of offered requests completed within deadline.
    deadline_hit_rate: f64,
    /// Frame-weighted modelled mAP of everything served (0 when the
    /// arm served nothing).
    served_map: f64,
    /// Served frames per tier.
    tier_mix: Vec<TierMixRow>,
    /// Controller moves toward sparser tiers during the run.
    tier_downgrades: u64,
    /// Controller moves back toward dense during the run.
    tier_upgrades: u64,
    /// Requests routed to their hash-affine replica.
    routed_affinity: u64,
    /// Requests spilled to the least-outstanding replica.
    routed_spill: u64,
}

/// Both arms of one offered-load multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LoadPoint {
    /// Offered load as a multiple of the calibrated saturating rate.
    multiplier: f64,
    /// Offered load, requests/second.
    qps: f64,
    /// Requests in the (shared) schedule.
    requests: u64,
    /// Controller-enabled arm.
    degraded: ArmRow,
    /// Pinned-dense baseline arm.
    baseline: ArmRow,
}

/// The full degradation-curve report written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FleetBenchReport {
    /// Schedule / weight seed.
    seed: u64,
    /// Replicas in the fleet.
    replicas: u64,
    /// Workers per replica.
    workers: u64,
    /// Micro-batch cap.
    max_batch: u64,
    /// Input image side, pixels.
    image: u64,
    /// Per-request deadline, milliseconds (auto-derived when the flag
    /// was 0).
    deadline_ms: f64,
    /// Burstiness factor (1 = Poisson arrivals).
    burst: f64,
    /// Mean dense single-frame service time, milliseconds (calibration).
    dense_frame_ms: f64,
    /// Calibrated saturating load, requests/second.
    sat_qps: f64,
    /// Target seconds per load point.
    duration_s: f64,
    /// Whether every >= 2x point had degradation strictly beat the
    /// baseline's deadline-hit-rate.
    degradation_wins_overload: bool,
    /// One entry per load multiplier.
    points: Vec<LoadPoint>,
}

struct Args {
    replicas: usize,
    workers: usize,
    max_batch: usize,
    image: usize,
    duration_s: f64,
    seed: u64,
    deadline_ms: f64,
    burst: f64,
    loads: Vec<f64>,
    out: String,
    strict: bool,
    telemetry: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        replicas: 2,
        workers: 2,
        max_batch: 4,
        image: 32,
        duration_s: 2.0,
        seed: 42,
        deadline_ms: 0.0,
        burst: 1.0,
        loads: vec![0.5, 1.0, 2.0, 3.0],
        out: "results/fleet/fleet_bench.json".to_string(),
        strict: false,
        telemetry: false,
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("fleet_bench: {msg}");
        eprintln!(
            "usage: fleet_bench [--replicas N] [--workers N] [--max-batch N] [--image N] \
             [--duration SECS] [--seed N] [--deadline-ms N] [--burst F] [--loads F,F,...] \
             [--out PATH] [--strict] [--telemetry]"
        );
        std::process::exit(2);
    }
    fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, got {raw:?}")))
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--replicas" => args.replicas = number(&flag, &value()),
            "--workers" => args.workers = number(&flag, &value()),
            "--max-batch" => args.max_batch = number(&flag, &value()),
            "--image" => args.image = number(&flag, &value()),
            "--duration" => args.duration_s = number(&flag, &value()),
            "--seed" => args.seed = number(&flag, &value()),
            "--deadline-ms" => args.deadline_ms = number(&flag, &value()),
            "--burst" => args.burst = number(&flag, &value()),
            "--loads" => {
                args.loads = value()
                    .split(',')
                    .map(|s| number("--loads", s.trim()))
                    .collect();
            }
            "--out" => args.out = value(),
            "--strict" => args.strict = true,
            "--telemetry" => args.telemetry = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if args.burst < 1.0 {
        usage_error("--burst must be >= 1");
    }
    if args.loads.is_empty() {
        usage_error("--loads must name at least one multiplier");
    }
    args
}

/// Compiles one variant of the seeded twin to a planned sparse engine.
fn build_tier(entry: Option<EntryPattern>, seed: u64) -> Arc<dyn ServeModel> {
    let mut model = yolov5s_twin(8, 2, seed).expect("model builds");
    if let Some(e) = entry {
        RTossPruner::new(e)
            .prune_graph(&mut model.graph)
            .expect("prunes");
    }
    Arc::new(SparseModel::compile(&model.graph).expect("compiles"))
}

/// Effective mean single-frame service time of `model`, milliseconds,
/// measured with `concurrency` threads running forwards back to back —
/// an isolated single-thread timing overestimates capacity badly
/// (memory contention between workers is the real bottleneck), so the
/// saturation point is calibrated under the same concurrency the fleet
/// will serve with.
fn calibrate_frame_ms(
    model: &Arc<dyn ServeModel>,
    image: usize,
    seed: u64,
    concurrency: usize,
) -> f64 {
    let exec = ExecConfig::with_threads(1);
    let probe = init::uniform(&mut init::rng(seed), &[1, 3, image, image], 0.0, 1.0);
    // Warm the plan cache so compilation is not timed.
    model.run_batch(&probe, &exec).expect("warmup runs");
    let reps = 30;
    let concurrency = concurrency.max(1);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..concurrency {
            let probe = probe.clone();
            s.spawn(move || {
                for _ in 0..reps {
                    model.run_batch(&probe, &exec).expect("forward runs");
                }
            });
        }
    });
    // Aggregate mean: wall time spread over every frame served, scaled
    // back to per-worker service time.
    t0.elapsed().as_secs_f64() * 1e3 * concurrency as f64 / (reps * concurrency) as f64
}

/// The three-tenant mix every load point replays: latency-critical gold
/// traffic, standard silver, best-effort bulk.
fn tenant_mix() -> Vec<TenantLoad> {
    vec![
        TenantLoad {
            id: "gold-cams".into(),
            weight: 3.0,
            streams: 4,
        },
        TenantLoad {
            id: "silver-cams".into(),
            weight: 2.0,
            streams: 4,
        },
        TenantLoad {
            id: "bulk-reprocess".into(),
            weight: 1.0,
            streams: 2,
        },
    ]
}

/// The telemetry-plane artifacts of one arm: the settled snapshot, its
/// Prometheus rendering, and every flight dump the run triggered.
struct TelemetryArtifacts {
    snapshot: TelemetrySnapshot,
    prom: String,
    dumps: Vec<FlightDump>,
}

/// Blocks until every SLO monitor has resolved (the burn ranges drain
/// once load stops) or `timeout` elapses; returns the settled snapshot.
fn wait_for_resolve(tel: &rtoss_fleet::FleetTelemetry, timeout: Duration) -> TelemetrySnapshot {
    let t0 = Instant::now();
    loop {
        let snap = tel.snapshot();
        let quiet =
            snap.tenants.iter().all(|t| !t.firing) && snap.replicas.iter().all(|r| !r.firing);
        if quiet || t0.elapsed() > timeout {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the RV080–RV083 passes over one arm's settled telemetry; a
/// violation aborts the benchmark, same contract as RV062/RV063.
fn verify_telemetry(artifacts: &TelemetryArtifacts, ledger: &rtoss_fleet::FleetSnapshot) {
    let mut check = rtoss_verify::check_telemetry_windows(&artifacts.snapshot);
    check.extend(
        rtoss_verify::check_telemetry_conservation(&artifacts.snapshot, Some(ledger)).diagnostics,
    );
    check.extend(rtoss_verify::check_alert_log(&artifacts.snapshot).diagnostics);
    for (i, dump) in artifacts.dumps.iter().enumerate() {
        let label = format!("flight dump[{i}] ({})", dump.reason);
        check.extend(rtoss_verify::check_flight_dump(&label, &dump.json).diagnostics);
    }
    if check.has_errors() {
        eprint!("{}", check.render());
        eprintln!("fleet_bench: telemetry failed RV080-RV083 verification");
        std::process::exit(1);
    }
}

/// Runs one arm of one load point on a fresh fleet and returns its row
/// (plus the telemetry artifacts when `--telemetry` is on).
#[allow(clippy::too_many_arguments)]
fn run_arm(
    tiers: &[(TierSpec, Arc<dyn ServeModel>)],
    args: &Args,
    deadline: Duration,
    schedule: &[Duration],
    degradation: bool,
) -> (ArmRow, Option<TelemetryArtifacts>) {
    // Quotas are set far above the offered load: this benchmark curves
    // pressure degradation, not token-bucket throttling.
    let tenants = tenant_mix()
        .iter()
        .map(|t| {
            let class = match t.id.as_str() {
                "gold-cams" => SloClass::Gold,
                "silver-cams" => SloClass::Silver,
                _ => SloClass::Bulk,
            };
            let mut spec = TenantSpec::new(&t.id, class, 1e9, 1e9);
            // One uniform deadline across classes so the aggregate
            // hit-rate compares like for like between arms.
            spec.deadline = Some(deadline);
            spec
        })
        .collect();
    let fleet = Fleet::start(
        tiers.to_vec(),
        FleetConfig {
            replicas: args.replicas,
            tenants,
            controller: degradation.then(TierControllerConfig::default),
            telemetry: args.telemetry.then(TelemetryConfig::bench),
            control_interval: Duration::from_millis(5),
            serve: ServeConfig {
                workers: args.workers,
                queue_capacity: 32,
                policy: BackpressurePolicy::ShedExpired,
                max_batch: args.max_batch,
                batch_timeout: Duration::from_millis(1),
                energy: None,
                exec: ExecConfig::with_threads(1),
                prewarm: Some(vec![1, 3, args.image, args.image]),
            },
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");

    let side = args.image;
    let seed = args.seed;
    let summary = run_fleet_open_loop(&fleet, schedule, &tenant_mix(), seed ^ 0xF1EE7, |i| {
        init::uniform(
            &mut init::rng(seed ^ i as u64),
            &[1, 3, side, side],
            0.0,
            1.0,
        )
    });
    // Let the burn ranges drain before shutdown so the settled snapshot
    // carries the full firing -> resolved transition, then capture the
    // telemetry plane (the Arc outlives the fleet).
    let artifacts = fleet.telemetry().map(|tel| {
        let snapshot = wait_for_resolve(&tel, Duration::from_secs(4));
        TelemetryArtifacts {
            prom: snapshot.to_prometheus(),
            dumps: tel.dumps(),
            snapshot,
        }
    });
    let snapshot = fleet.shutdown();

    // A benchmark over a leaky ledger reports fiction: conservation and
    // replica-state consistency are preconditions for the numbers.
    let mut check = rtoss_verify::check_fleet_ledger(&snapshot);
    check.extend(rtoss_verify::check_fleet_replicas(&snapshot).diagnostics);
    if check.has_errors() {
        eprint!("{}", check.render());
        eprintln!("fleet_bench: fleet snapshot failed RV062/RV063 verification");
        std::process::exit(1);
    }
    if let Some(a) = &artifacts {
        verify_telemetry(a, &snapshot);
    }

    let row = ArmRow {
        degradation,
        deadline_hit_rate: summary.deadline_hit_rate(),
        summary,
        served_map: snapshot.served_map_mean().unwrap_or(0.0),
        tier_mix: snapshot
            .tier_mix()
            .into_iter()
            .map(|(tier, frames)| TierMixRow { tier, frames })
            .collect(),
        tier_downgrades: snapshot.tier_downgrades,
        tier_upgrades: snapshot.tier_upgrades,
        routed_affinity: snapshot.routed_affinity,
        routed_spill: snapshot.routed_spill,
    };
    (row, artifacts)
}

/// Writes `text` to `path`, creating parent directories.
fn write_output(path: &str, text: &str) {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).expect("output dir");
    }
    std::fs::write(p, text).expect("write output");
}

fn mix_cell(arm: &ArmRow) -> String {
    arm.tier_mix
        .iter()
        .map(|t| format!("{}:{}", t.tier, t.frames))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let args = parse_args();
    if args.telemetry {
        rtoss_obs::set_series_enabled(true);
    }

    println!(
        "fleet_bench: {} replicas x {} workers, max batch {}, image {}, seed {}, \
         burst {}, ~{:.1}s per load point",
        args.replicas,
        args.workers,
        args.max_batch,
        args.image,
        args.seed,
        args.burst,
        args.duration_s
    );
    println!("fleet_bench: building dense/3EP/2EP tier stack...");
    let tiers: Vec<(TierSpec, Arc<dyn ServeModel>)> = vec![
        (TierSpec::new("dense", 75.0), build_tier(None, args.seed)),
        (
            TierSpec::new("3EP", 73.9),
            build_tier(Some(EntryPattern::Three), args.seed),
        ),
        (
            TierSpec::new("2EP", 72.6),
            build_tier(Some(EntryPattern::Two), args.seed),
        ),
    ];

    let dense_frame_ms = calibrate_frame_ms(
        &tiers[0].1,
        args.image,
        args.seed,
        args.replicas * args.workers,
    );
    // Saturation estimate: every worker on every replica serving
    // single-frame batches of the dense tier back to back.
    let sat_qps = (args.replicas * args.workers) as f64 * 1e3 / dense_frame_ms;
    let deadline_ms = if args.deadline_ms > 0.0 {
        args.deadline_ms
    } else {
        (8.0 * dense_frame_ms).max(5.0)
    };
    let deadline = Duration::from_secs_f64(deadline_ms / 1e3);
    println!(
        "fleet_bench: dense frame {:.2} ms -> saturation ~{:.0} qps, deadline {:.1} ms",
        dense_frame_ms, sat_qps, deadline_ms
    );

    let mut points = Vec::new();
    let mut telemetry_artifacts: Vec<(f64, TelemetryArtifacts)> = Vec::new();
    for &multiplier in &args.loads {
        let qps = multiplier * sat_qps;
        let n = (qps * args.duration_s).ceil().max(8.0) as usize;
        let point_seed = args.seed.wrapping_add((multiplier * 1e3) as u64);
        let schedule = if args.burst > 1.0 {
            bursty_schedule(point_seed, qps, n, args.burst)
        } else {
            poisson_schedule(point_seed, qps, n)
        };
        println!(
            "fleet_bench: load {multiplier}x ({qps:.0} qps, {n} requests) degradation on/off..."
        );
        let (degraded, artifacts) = run_arm(&tiers, &args, deadline, &schedule, true);
        let (baseline, _) = run_arm(&tiers, &args, deadline, &schedule, false);
        if let Some(a) = artifacts {
            telemetry_artifacts.push((multiplier, a));
        }
        points.push(LoadPoint {
            multiplier,
            qps,
            requests: n as u64,
            degraded,
            baseline,
        });
    }

    let degradation_wins_overload = points
        .iter()
        .filter(|p| p.multiplier >= 2.0)
        .all(|p| p.degraded.deadline_hit_rate > p.baseline.deadline_hit_rate);

    let mut rows = Vec::new();
    for p in &points {
        for arm in [&p.degraded, &p.baseline] {
            rows.push(vec![
                format!("{:.1}x", p.multiplier),
                if arm.degradation { "degrade" } else { "pinned" }.to_string(),
                format!("{:.0}", p.qps),
                format!("{:.1}%", 100.0 * arm.deadline_hit_rate),
                format!("{:.2}", arm.summary.p50_ms),
                format!("{:.2}", arm.summary.p99_ms),
                format!("{:.1}", arm.served_map),
                format!("{}", arm.tier_downgrades),
                mix_cell(arm),
            ]);
        }
    }
    let table = format_table(
        "Fleet degradation curve (deadline-hit-rate under overload)",
        &[
            "load", "arm", "qps", "hit", "p50 ms", "p99 ms", "mAP", "downs", "tier mix",
        ],
        &rows,
    );
    print!("{table}");
    println!(
        "\ndegradation {} the pinned-dense baseline at every >= 2x load point",
        if degradation_wins_overload {
            "strictly beats"
        } else {
            "DOES NOT beat"
        }
    );

    let report = FleetBenchReport {
        seed: args.seed,
        replicas: args.replicas as u64,
        workers: args.workers as u64,
        max_batch: args.max_batch as u64,
        image: args.image as u64,
        deadline_ms,
        burst: args.burst,
        dense_frame_ms,
        sat_qps,
        duration_s: args.duration_s,
        degradation_wins_overload,
        points,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: FleetBenchReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back, report, "serde round-trip must be lossless");
    write_output(&args.out, &json);
    let txt_out = std::path::Path::new(&args.out)
        .with_extension("txt")
        .to_string_lossy()
        .into_owned();
    write_output(&txt_out, &table);
    println!("report: {} + {}", args.out, txt_out);

    if args.telemetry {
        write_telemetry_artifacts(&args, &telemetry_artifacts);
    }

    if args.strict && !degradation_wins_overload {
        eprintln!("fleet_bench: --strict: degradation failed to beat the baseline under overload");
        std::process::exit(1);
    }
}

/// Writes the telemetry artifacts of the most-overloaded degraded arm
/// next to the report, and under `--strict` requires the bulk tenant's
/// admission alert to have fired *and* resolved there.
fn write_telemetry_artifacts(args: &Args, artifacts: &[(f64, TelemetryArtifacts)]) {
    let Some((multiplier, chosen)) = artifacts
        .iter()
        .max_by(|(a, _), (b, _)| a.total_cmp(b))
        .map(|(m, a)| (*m, a))
    else {
        eprintln!("fleet_bench: --telemetry produced no artifacts (no degraded arm ran)");
        std::process::exit(1);
    };
    let dir = std::path::Path::new(&args.out)
        .parent()
        .map_or_else(|| ".".to_string(), |d| d.to_string_lossy().into_owned());
    let snap_json =
        serde_json::to_string_pretty(&chosen.snapshot).expect("telemetry snapshot serializes");
    let snap_path = format!("{dir}/fleet_telemetry.json");
    let prom_path = format!("{dir}/fleet_telemetry.prom");
    write_output(&snap_path, &snap_json);
    write_output(&prom_path, &chosen.prom);
    let mut written = vec![snap_path, prom_path];
    if let Some(dump) = chosen.dumps.first() {
        let flight_path = format!("{dir}/fleet_flight.json");
        write_output(&flight_path, &dump.json);
        written.push(flight_path);
    }
    let bulk_fired = chosen
        .snapshot
        .alerts
        .iter()
        .any(|a| a.rule == "admission" && a.subject.starts_with("bulk") && a.state == "firing");
    let bulk_resolved =
        chosen.snapshot.alerts.iter().any(|a| {
            a.rule == "admission" && a.subject.starts_with("bulk") && a.state == "resolved"
        });
    println!(
        "telemetry: {multiplier}x arm, {} alert transition(s), {} flight dump(s), \
         bulk admission fired={bulk_fired} resolved={bulk_resolved}",
        chosen.snapshot.alerts.len(),
        chosen.dumps.len(),
    );
    println!("telemetry artifacts: {}", written.join(" + "));
    if args.strict && !(bulk_fired && bulk_resolved) {
        eprintln!(
            "fleet_bench: --strict --telemetry: bulk admission alert did not fire and resolve \
             at the {multiplier}x point"
        );
        std::process::exit(1);
    }
}
