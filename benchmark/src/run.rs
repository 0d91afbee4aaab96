//! One run of one workload.
//!
//! Untraced: set-up (repeated) → six probe blocks → main phase (a
//! lead-in, then one measured window under the same uninterrupted load)
//! → six probe blocks. Every metric of the main phase is taken over all
//! the operations of the measured window: the median latency, and
//! shares and rates over every operation sent. The five probe timings
//! are the fastest of the blocks' medians (see [`PROBE_BLOCKS`]), and
//! so are the three timings of `stream_closed`'s main phase, which is
//! the same kind of loop (see [`STREAM_BLOCKS`]).
//!
//! Traced (`--trace 1`): set-up → per-layer probe → lead-in → untraced
//! reference segment → traced segment (→ the fleet's knee segment).

use crate::engines::{oracle_outputs, DENSE, EP2, EP3, TIERS};
use crate::host::{peak_rss_mb, Fingerprint};
use crate::layers::run_layer_probe;
use crate::loadgen::LAG_LIMIT_MS;
use crate::probe::{run_probe_block, ProbeStats};
use crate::report::Metrics;
use crate::stats::{mean, median, quantile};
use crate::trace::{render_summary, summarize, write_chrome_trace, Tracer, NO_OP};
use crate::workloads::{
    check_fleet, fleet_run, run_main, setup, start_fleet, teardown, tenant_labels, Drive, MainPlan,
    MainStats, Teardown, WorkloadDef, KNEE_FPS,
};
use rtoss_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// Seed of weights, frames and arrival schedule.
    pub seed: u64,
    /// Seconds the probe and main phases measure for, together.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Six measured seconds in all and a single set-up: every phase
    /// runs for about two seconds.
    pub smoke: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Every gate passed and no operation failed.
    pub correct: bool,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Operations failed over all phases.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics of a traced run.
    pub metrics: Metrics,
}

/// Probe blocks of an untraced run: half before the main phase, half
/// after it. A block's value is the median of its samples, and the run
/// reports the fastest block, not the median over all samples. The
/// probe times one deterministic single-thread computation over and
/// over, and what moves it from block to block is the host, which only
/// ever adds time: on the guest this was written on, other tenants slow
/// it by up to half for seconds to minutes at a time. Over ten runs of
/// a busy hour the median over all blocks spread 9%, their lower
/// quartile 4% and the fastest block 2%; in a worse hour the lower
/// quartile spread 14% and 20% over two sets of ten whose medians were
/// 18% apart (README.md). The fastest block would also hide a
/// regression of the code that spares one half-second block in twelve;
/// nothing in a loop that repeats one forward is known to behave so,
/// and the lower quartile and the median over all blocks are printed
/// beside every run for whoever wants to check. The main phase of the served workloads,
/// where the program's own bursts live (controller oscillation, queue
/// stalls), takes every metric over all operations.
const PROBE_BLOCKS: u32 = 12;

/// Blocks the measured window of `stream_closed` is cut into. One
/// client repeating one deterministic single-thread pipeline is the
/// probe's kind of loop, and the acceptance host moved its whole-window
/// median by 27% and 39% between runs of the same code while the
/// probe's block statistic held. So its `latency_ms_p50`,
/// `cpu_ms_per_op` and `throughput_ops_s` are those of the block that
/// was best at each; hit share and served mAP stay over every frame,
/// and the whole-window values are printed beside them. The other
/// workloads measure one block, which is its own best.
const STREAM_BLOCKS: u32 = 12;

/// Unrecorded lead-in of the main phase: the same load, checked like
/// the rest, but not counted. Lets caches, the allocator and the
/// serving stack's queues reach their steady state.
const LEAD_IN: Duration = Duration::from_secs(2);

/// Measured seconds of a smoke run.
const SMOKE_SECONDS: f64 = 6.0;

/// Set-up is repeated until this many repetitions and this much time
/// have gone by (one rule for every model: the twin's 0.1 s set-up
/// needs many repetitions for a median that repeats, the full model's
/// 3 s set-up only the minimum), and never more than the maximum.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TIME: Duration = Duration::from_millis(1500);

/// How the measured seconds are split over the phases.
struct Phases {
    /// One probe block (untraced) or the whole per-layer probe (traced).
    probe: Duration,
    /// Main buckets: the lead-in, then the measured window (untraced)
    /// or the reference and the traced segment (traced).
    main: Vec<Duration>,
    knee: Duration,
}

impl Phases {
    fn of(args: &RunArgs) -> Self {
        let seconds = if args.smoke {
            SMOKE_SECONDS
        } else {
            args.seconds
        };
        let share = |x: f64| Duration::from_secs_f64(seconds * x);
        if !args.trace {
            let lead_in = LEAD_IN.min(share(0.75) / 4);
            let blocks = match args.def.drive {
                Drive::StreamClosed => STREAM_BLOCKS,
                _ => 1,
            };
            let mut main = vec![(share(0.75) - lead_in) / blocks; blocks as usize + 1];
            main[0] = lead_in;
            return Phases {
                probe: share(0.25) / PROBE_BLOCKS,
                main,
                knee: Duration::ZERO,
            };
        }
        let fleet = matches!(args.def.drive, Drive::FleetOverload { .. });
        let lead_in = LEAD_IN.min(share(0.25) / 4);
        Phases {
            probe: share(0.30),
            main: vec![
                lead_in,
                share(0.25) - lead_in,
                share(if fleet { 0.30 } else { 0.45 }),
            ],
            knee: if fleet { share(0.15) } else { Duration::ZERO },
        }
    }
}

/// The client's own totals over every segment it drove against the
/// rig's serving stack, lead-in included: what the server-side ledgers
/// are checked against at teardown.
#[derive(Debug, Default)]
struct Ledger {
    sent: u64,
    failed: u64,
    tier_counts: [u64; 3],
    violations: Vec<String>,
}

impl Ledger {
    fn add(&mut self, st: &MainStats) {
        self.sent += st.sent;
        self.failed += st.failed;
        if let Some(open) = &st.open {
            for (t, n) in self.tier_counts.iter_mut().zip(open.tier_counts) {
                *t += n;
            }
            if !open.conserved() {
                self.violations.push(format!(
                    "client ledger: sent {} != completed {} + refused + failed {}",
                    open.sent, open.completed, open.failed
                ));
            }
        }
    }
}

fn report_phase(phase: &str, st: &MainStats) {
    let lag = st.open.as_ref().map_or(String::new(), |open| {
        let p99 = quantile(&open.lag_ms, 0.99);
        let flag = if p99 > LAG_LIMIT_MS {
            format!(" LAG_ABOVE_{LAG_LIMIT_MS}_MS")
        } else {
            String::new()
        };
        format!(" loadgen_lag_p99_ms={p99:.3}{flag}")
    });
    println!(
        "phase={phase} attempted={} refused={} failed={} completed={} hits={} wall_s={:.3} \
         cpu_s={:.3} latency_p50_ms={:.3}{lag}",
        st.sent,
        st.refused,
        st.failed,
        st.completed,
        st.hits,
        st.wall_s,
        st.cpu_s,
        median(&st.latency_ms)
    );
    for msg in &st.failures {
        println!("  failure: {msg}");
    }
}

/// Runs the workload and prints everything but the result line.
pub fn run(args: &RunArgs, process_start: Instant, repo_root: &Path) -> RunOutput {
    let def = args.def;
    let fingerprint = Fingerprint::measure(repo_root);
    println!(
        "workload={} seed={} seconds={} trace={} smoke={}",
        def.name, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!("host: {fingerprint}");
    let phases = Phases::of(args);
    let mut tr = Tracer::new(args.trace, process_start);
    let mut metrics = Metrics::default();
    let broken = |why: String| {
        println!("INCORRECT: {why}");
        RunOutput {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Metrics::default(),
        }
    };

    // ---- set-up, repeated; every repetition is the same work (frame
    // pool, every tier built and gated, serving stack started) and the
    // last one's rig is the one measured -------------------------------
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let (pool, rig) = loop {
        let t0 = Instant::now();
        tr.begin("setup", NO_OP);
        let pool = def.model.frame_pool(args.seed);
        let built = setup(def, args.seed, &pool[..2], &mut tr);
        tr.end();
        let rig = match built {
            Ok(rig) => rig,
            Err(e) => return broken(format!("set-up failed its gate: {e}")),
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        let enough = setup_s.len() >= SETUP_MIN_REPS && setup_start.elapsed() >= SETUP_MIN_TIME;
        if args.smoke || enough || setup_s.len() == SETUP_MAX_REPS {
            break (pool, rig);
        }
        // Shut the stack down before the next repetition starts one.
        drop(rig);
    };
    println!(
        "setup: {} repetition(s), seconds {}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The interpreter's outputs on every pool frame: the oracle of every
    // later comparison. Not part of set-up: it is the benchmark's cost.
    let oracle: Result<Vec<Vec<Vec<Tensor>>>, String> =
        rig.tiers.iter().map(|t| oracle_outputs(t, &pool)).collect();
    let oracle = match oracle {
        Ok(o) => o,
        Err(e) => return broken(e),
    };

    // ---- probe (first half) or per-layer probe ------------------------
    let mut probe = ProbeStats::default();
    if args.trace {
        tr.begin("layer_probe", NO_OP);
        let probed = run_layer_probe(&rig, args.seed, &pool, phases.probe, &mut tr, &mut metrics);
        tr.end();
        if let Err(e) = probed {
            return broken(format!("per-layer probe failed: {e}"));
        }
    } else {
        for _ in 0..PROBE_BLOCKS / 2 {
            run_probe_block(
                &rig,
                args.seed,
                &pool,
                &oracle,
                phases.probe,
                &mut tr,
                &mut probe,
            );
        }
    }

    // ---- main: one uninterrupted load; bucket 0 is the lead-in --------
    let traced_bucket = args.trace.then_some(phases.main.len() - 1);
    let mut obs_events = 0u64;
    let mut on_bucket = |bucket: usize| {
        // The rtoss_obs recorder runs for the traced bucket only.
        if traced_bucket == Some(bucket) {
            rtoss_obs::reset();
            rtoss_obs::set_enabled(true);
        }
    };
    let mut buckets = run_main(
        &rig,
        args.seed,
        &pool,
        &oracle,
        MainPlan {
            buckets: &phases.main,
            traced_bucket,
            on_bucket: &mut on_bucket,
        },
        &mut tr,
    );
    if args.trace {
        rtoss_obs::set_enabled(false);
        let trace = rtoss_obs::drain();
        obs_events = trace.events.len() as u64 + trace.dropped;
        println!("rtoss_obs recorder, top layer self times of the traced segment:");
        print!(
            "{}",
            rtoss_obs::Profile::from_trace(&trace).render_table("layer:", 8)
        );
    }
    let mut ledger = Ledger::default();
    for (i, st) in buckets.iter().enumerate() {
        let label = match (i, traced_bucket) {
            (0, _) => "main_lead_in",
            (i, Some(t)) if i == t => "main_traced",
            _ => "main",
        };
        report_phase(label, st);
        ledger.add(st);
    }
    let measured: Vec<MainStats> = buckets.split_off(1);
    tr.set_on(args.trace);

    // ---- probe (second half), after main so the two halves bracket it --
    if !args.trace {
        for _ in PROBE_BLOCKS / 2..PROBE_BLOCKS {
            run_probe_block(
                &rig,
                args.seed,
                &pool,
                &oracle,
                phases.probe,
                &mut tr,
                &mut probe,
            );
        }
        println!(
            "phase=probe attempted={} refused=0 failed={}",
            probe.attempted, probe.failed
        );
        for msg in &probe.failures {
            println!("  failure: {msg}");
        }
    }

    // ---- the fleet's knee segment (traced run only, informational) ----
    let mut knee: Option<(MainStats, Vec<String>)> = None;
    if !phases.knee.is_zero() {
        match start_fleet(def, &rig.tiers) {
            Err(e) => return broken(format!("knee fleet failed to start: {e}")),
            Ok(fleet) => {
                tr.set_on(false);
                let st = fleet_run(
                    def,
                    &fleet,
                    &rig.tiers,
                    &pool,
                    &oracle,
                    args.seed ^ 0x4B4E_4545,
                    KNEE_FPS,
                    MainPlan {
                        buckets: &[phases.knee],
                        traced_bucket: None,
                        on_bucket: &mut |_| {},
                    },
                    &mut tr,
                )
                .pop()
                .expect("one bucket in, one out");
                tr.set_on(args.trace);
                let mut violations = Vec::new();
                let counts = st.open.as_ref().map(|o| o.tier_counts);
                check_fleet(&fleet.shutdown(), st.sent, counts, &mut violations);
                report_phase("knee", &st);
                knee = Some((st, violations));
            }
        }
    }

    // ---- teardown and ledgers ----------------------------------------
    let mut ledger_violations = std::mem::take(&mut ledger.violations);
    let tier_counts = (ledger.failed == 0).then_some(ledger.tier_counts);
    let down: Teardown = teardown(rig, ledger.sent, tier_counts);
    ledger_violations.extend(down.violations.iter().cloned());
    if let Some((_, v)) = &knee {
        ledger_violations.extend(v.iter().cloned());
    }
    for v in &ledger_violations {
        println!("  conservation violation: {v}");
    }

    // ---- metrics ------------------------------------------------------
    if args.trace {
        let (reference, traced) = (&measured[0], &measured[measured.len() - 1]);
        let knee_stats = knee.as_ref().map(|k| &k.0);
        traced_metrics(
            &mut metrics,
            traced,
            reference,
            &down,
            knee_stats,
            obs_events,
            &tr,
        );
        println!(
            "benchmark-side spans (self = span - children; residual = 1 - sum(children)/parent):"
        );
        print!("{}", render_summary(&summarize(tr.spans())));
        let path = repo_root
            .join("benchmark")
            .join("out")
            .join(format!("{}.trace.json", def.name));
        match write_chrome_trace(&path, tr.spans()) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    } else {
        end_to_end_metrics(&mut metrics, &setup_s, &probe, &measured);
    }
    println!(
        "measured: {:.3} s since process start (asked for {} s of probe+main)",
        process_start.elapsed().as_secs_f64(),
        if args.smoke {
            SMOKE_SECONDS
        } else {
            args.seconds
        }
    );
    println!("metrics:");
    print!("{}", metrics.render());

    let main_attempted: u64 = ledger.sent + knee.as_ref().map_or(0, |k| k.0.sent);
    let main_failed: u64 = ledger.failed + knee.as_ref().map_or(0, |k| k.0.failed);
    // A conservation violation leaves every operation of the main phase
    // unverified: count them all as failed.
    let mut failed = if ledger_violations.is_empty() {
        probe.failed + main_failed
    } else {
        probe.failed + main_attempted
    };
    // A metric with nothing behind it is a failure, not a zero.
    for name in metrics.not_finite() {
        println!("INCORRECT: metric {name} is not a finite number");
        failed += 1;
    }
    RunOutput {
        correct: failed == 0,
        attempted: probe.attempted + main_attempted,
        failed,
        metrics,
    }
}

/// `x / n`, or 0 when there is nothing to divide by: a layer the
/// workload does not exercise reports 0.
fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// Every end-to-end metric. `main` is the measured window in blocks:
/// one block, so every metric is over all its operations, except on
/// `stream_closed` (see [`STREAM_BLOCKS`]). When no block completed
/// anything the values are not finite, which fails the run (see
/// `Metrics::put`).
fn end_to_end_metrics(m: &mut Metrics, setup_s: &[f64], probe: &ProbeStats, main: &[MainStats]) {
    let fastest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let per_block = |f: fn(&MainStats) -> f64| -> Vec<f64> { main.iter().map(f).collect() };
    let total = |f: fn(&MainStats) -> u64| -> f64 { main.iter().map(f).sum::<u64>() as f64 };
    let latency = per_block(|b| median(&b.latency_ms));
    let throughput = per_block(|b| b.completed_in_window as f64 / b.wall_s);
    let cpu = per_block(|b| b.cpu_s * 1e3 / b.completed_in_window as f64);
    m.put("setup_s", median(setup_s), "s");
    m.put("frame_ms_p50_dense", fastest(&probe.frame_ms[DENSE]), "ms");
    m.put("frame_ms_p50_3ep", fastest(&probe.frame_ms[EP3]), "ms");
    m.put("frame_ms_p50_2ep", fastest(&probe.frame_ms[EP2]), "ms");
    m.put("batch4_ms_p50_3ep", fastest(&probe.batch4_ms), "ms");
    m.put("prune_to_engine_s", fastest(&probe.prune_to_engine_s), "s");
    m.put("latency_ms_p50", fastest(&latency), "ms");
    m.put(
        "throughput_ops_s",
        throughput.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        "ops/s",
    );
    m.put(
        "deadline_hit_share",
        total(|b| b.hits) / total(|b| b.sent),
        "share",
    );
    m.put(
        "served_map",
        main.iter().map(|b| b.map_sum).sum::<f64>() / total(|b| b.completed),
        "mAP",
    );
    m.put("cpu_ms_per_op", fastest(&cpu), "ms");
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    let all_latencies: Vec<f64> = main
        .iter()
        .flat_map(|b| b.latency_ms.iter().copied())
        .collect();
    println!(
        "samples: {} probe blocks, {} main block(s), {} latencies",
        probe.batch4_ms.len(),
        main.len(),
        all_latencies.len(),
    );
    for (label, q) in [("lower quartile", 0.25), ("median", 0.5)] {
        println!(
            "ungated: {label} over all probe blocks: dense {:.3} ms 3ep {:.3} ms 2ep {:.3} ms \
             batch4 {:.3} ms prune_to_engine {:.5} s",
            quantile(&probe.frame_ms[DENSE], q),
            quantile(&probe.frame_ms[EP3], q),
            quantile(&probe.frame_ms[EP2], q),
            quantile(&probe.batch4_ms, q),
            quantile(&probe.prune_to_engine_s, q),
        );
    }
    println!(
        "ungated: speedup dense/3ep {:.3}x dense/2ep {:.3}x, latency p90 {:.3} ms p99 {:.3} ms",
        per(median(&probe.frame_ms[DENSE]), median(&probe.frame_ms[EP3])),
        per(median(&probe.frame_ms[DENSE]), median(&probe.frame_ms[EP2])),
        quantile(&all_latencies, 0.90),
        quantile(&all_latencies, 0.99),
    );
    println!(
        "ungated: over the whole measured window: latency p50 {:.3} ms, throughput {:.3} ops/s, cpu {:.3} ms/op",
        median(&all_latencies),
        total(|b| b.completed_in_window) / main.iter().map(|b| b.wall_s).sum::<f64>(),
        main.iter().map(|b| b.cpu_s).sum::<f64>() * 1e3 / total(|b| b.completed_in_window),
    );
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    m: &mut Metrics,
    main: &MainStats,
    reference: &MainStats,
    down: &Teardown,
    knee: Option<&MainStats>,
    obs_events: u64,
    tr: &Tracer,
) {
    let open = main.open.as_ref();
    let pick = |f: fn(&crate::loadgen::OpenLoopStats) -> &Vec<f64>| -> f64 {
        open.map_or(0.0, |o| median(f(o)))
    };
    let is_fleet = down.fleet.is_some();

    // ---- serve ----------------------------------------------------
    let submit_us = pick(|o| &o.submit_us);
    m.put(
        "serve.submit_us_p50",
        if is_fleet { 0.0 } else { submit_us },
        "us",
    );
    m.put("serve.queue_wait_ms_p50", pick(|o| &o.queue_wait_ms), "ms");
    m.put(
        "serve.batch_assembly_ms_p50",
        pick(|o| &o.batch_assembly_ms),
        "ms",
    );
    m.put("serve.execute_ms_p50", pick(|o| &o.execute_ms), "ms");
    m.put(
        "serve.batch_size_mean",
        open.map_or(0.0, |o| mean(&o.batch_sizes)),
        "count",
    );
    m.put(
        "serve.respond_gap_ms_p50",
        pick(|o| &o.respond_gap_ms),
        "ms",
    );
    let servers: Vec<&rtoss_serve::MetricsSnapshot> = match (&down.serve, &down.fleet) {
        (Some(s), _) => vec![s],
        (_, Some(f)) => f.replicas.iter().map(|r| &r.server).collect(),
        _ => Vec::new(),
    };
    let total = |f: fn(&rtoss_serve::MetricsSnapshot) -> u64| -> f64 {
        servers.iter().map(|s| f(s)).sum::<u64>() as f64
    };
    m.put("serve.shed", total(|s| s.shed), "count");
    m.put("serve.rejected", total(|s| s.rejected), "count");
    m.put("serve.failed", total(|s| s.failed), "count");

    // ---- fleet ----------------------------------------------------
    m.put(
        "fleet.submit_us_p50",
        if is_fleet { submit_us } else { 0.0 },
        "us",
    );
    m.put(
        "fleet.overhead_ms_p50",
        if is_fleet {
            pick(|o| &o.path_overhead_ms)
        } else {
            0.0
        },
        "ms",
    );
    let snap = down.fleet.as_ref();
    let routed = snap.map_or(0.0, |s| (s.routed_affinity + s.routed_spill) as f64);
    m.put(
        "fleet.routed_affinity_share",
        snap.map_or(0.0, |s| per(s.routed_affinity as f64, routed)),
        "share",
    );
    m.put(
        "fleet.routed_spill_share",
        snap.map_or(0.0, |s| per(s.routed_spill as f64, routed)),
        "share",
    );
    m.put(
        "fleet.tier_downgrades",
        snap.map_or(0.0, |s| s.tier_downgrades as f64),
        "count",
    );
    m.put(
        "fleet.tier_upgrades",
        snap.map_or(0.0, |s| s.tier_upgrades as f64),
        "count",
    );
    let mix = snap.map(|s| s.tier_mix());
    let frames: f64 = mix.as_ref().map_or(0.0, |x| x.values().sum::<u64>() as f64);
    for (tier, label) in TIERS.iter().zip(["dense", "3ep", "2ep"]) {
        let n = mix
            .as_ref()
            .and_then(|x| x.get(tier.name))
            .copied()
            .unwrap_or(0);
        m.put(
            &format!("fleet.frames_{label}_share"),
            per(n as f64, frames),
            "share",
        );
    }
    let tenants = |f: fn(&rtoss_fleet::TenantSnapshot) -> u64| -> f64 {
        snap.map_or(0.0, |s| s.tenants.iter().map(f).sum::<u64>() as f64)
    };
    m.put("fleet.throttled", tenants(|t| t.throttled), "count");
    m.put("fleet.shed", tenants(|t| t.shed), "count");
    for (i, label) in tenant_labels().iter().enumerate() {
        let (sent, hits) = open
            .filter(|_| is_fleet)
            .and_then(|o| o.per_source.get(i).copied())
            .unwrap_or((0, 0));
        m.put(
            &format!("fleet.hit_share_{label}"),
            per(hits as f64, sent as f64),
            "share",
        );
    }
    m.put(
        "fleet.knee_hit_share",
        knee.map_or(0.0, |k| per(k.hits as f64, k.sent as f64)),
        "share",
    );

    // ---- obs / loadgen / client ------------------------------------
    let (p50_traced, p50_ref) = (median(&main.latency_ms), median(&reference.latency_ms));
    m.put(
        "obs.trace_overhead_share",
        per(p50_traced - p50_ref, p50_ref),
        "share",
    );
    m.put(
        "obs.spans_per_op",
        per(obs_events as f64, main.completed as f64),
        "count",
    );
    m.put(
        "loadgen.lag_ms_p99",
        open.map_or(0.0, |o| quantile(&o.lag_ms, 0.99)),
        "ms",
    );
    m.put(
        "client.latency_ms_p90",
        quantile(&main.latency_ms, 0.90),
        "ms",
    );
    m.put(
        "client.latency_ms_p99",
        quantile(&main.latency_ms, 0.99),
        "ms",
    );
    let unattributed = match open {
        Some(o) => 1.0 - per(o.attributed_ms, o.observed_ms),
        None => {
            let stats = summarize(tr.spans());
            ["frame", "cycle"]
                .iter()
                .find_map(|root| stats.get(root))
                .map_or(0.0, |s| s.residual_share())
        }
    };
    m.put("client.unattributed_share", unattributed, "share");
}
