//! Plan-vs-interpreter benchmark: what does compile-before-run buy?
//!
//! Times every (twin, pruning) configuration through the per-call
//! graph interpreter and through the compiled [`ExecutionPlan`]
//! (epilogue fusion + arena reuse), on the same input, and reports the
//! latency delta next to the plan's memory accounting: arena bytes
//! (the plan's actual activation footprint), peak live bytes (the
//! liveness lower bound), and retained bytes (what the interpreter
//! holds when it keeps every activation until the forward returns).
//!
//! ```text
//! plan_bench [--reps N] [--image N] [--threads N] [--out-dir PATH] [--gate-par]
//! ```
//!
//! Each row also times the *parallel* plan — the same compiled plan at
//! graph-level width `--threads` on the persistent worker pool —
//! against the serial plan. `--gate-par` exits non-zero when the
//! parallel plan is slower than the serial plan (beyond a 5% jitter
//! allowance) — but only when the host reports more than one core and
//! `--threads > 1`; a single-core host can only measure scheduler
//! overhead, not scaling.
//!
//! Writes `results/plan/plan_bench.txt` + `results/plan/plan_bench.json`
//! by default. All paths are bit-identical by construction (proved
//! by rtoss-verify RV052 and the sparse crate's property tests), so the
//! deltas here are pure execution-strategy effects.
//!
//! [`ExecutionPlan`]: rtoss_sparse::ExecutionPlan

use rtoss_bench::print_table;
use rtoss_core::{EntryPattern, Pruner, RTossPruner};
use rtoss_sparse::SparseModel;
use rtoss_tensor::{init, ExecConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (model, pruning) configuration's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PlanRow {
    /// Twin name: "yolov5s" or "retinanet".
    model: String,
    /// Variant name: "dense", "2EP", "3EP", "4EP".
    mode: String,
    /// Conv-weight compression of the compiled engine.
    compression: f64,
    /// Interpreter forward, best-of-reps milliseconds per frame.
    interp_ms: f64,
    /// Serial planned forward (fusion + arena, width 1), best-of-reps
    /// milliseconds per frame.
    plan_ms: f64,
    /// Parallel planned forward (graph-level width = `threads` on the
    /// persistent worker pool), best-of-reps milliseconds per frame.
    par_ms: f64,
    /// Arena bytes the plan actually allocates for activations.
    arena_bytes: u64,
    /// Liveness lower bound on activation bytes.
    peak_live_bytes: u64,
    /// Activation bytes the interpreter retains (every step's output).
    retained_bytes: u64,
}

impl PlanRow {
    fn speedup(&self) -> f64 {
        self.interp_ms / self.plan_ms
    }
    /// Parallel-plan speedup over the serial plan (>1 = parallel wins).
    fn par_scaling(&self) -> f64 {
        self.plan_ms / self.par_ms
    }
    fn memory_saving(&self) -> f64 {
        1.0 - self.arena_bytes as f64 / self.retained_bytes as f64
    }
}

/// The full report written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PlanBenchReport {
    /// Input image side, pixels.
    image: u64,
    /// Timed repetitions per cell.
    reps: u64,
    /// Threads: interpreter intra-op tiling width and planned-path
    /// graph-level width.
    threads: u64,
    /// Cores the host actually has (`available_parallelism`) — the
    /// parallel-plan column only means scaling when this is > 1.
    host_cores: u64,
    /// One row per (model, pruning) configuration.
    rows: Vec<PlanRow>,
}

struct Args {
    reps: usize,
    image: usize,
    threads: usize,
    out_dir: String,
    gate_par: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        reps: 10,
        image: 64,
        threads: rtoss_tensor::exec::default_threads(),
        out_dir: "results/plan".to_string(),
        gate_par: false,
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("plan_bench: {msg}");
        eprintln!(
            "usage: plan_bench [--reps N] [--image N] [--threads N] [--out-dir PATH] [--gate-par]"
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
            "--reps" => args.reps = number(&flag, &value()),
            "--image" => args.image = number(&flag, &value()),
            "--threads" => args.threads = number(&flag, &value()),
            "--out-dir" => args.out_dir = value(),
            "--gate-par" => args.gate_par = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// One timed frame of `f`, milliseconds.
fn frame_ms(f: &mut impl FnMut() -> Vec<rtoss_tensor::Tensor>) -> f64 {
    let start = Instant::now();
    let y = f();
    let ms = 1e3 * start.elapsed().as_secs_f64();
    std::hint::black_box(y[0].as_slice()[0]);
    ms
}

/// Times `reps` frames of each path *interleaved* (one serial-plan
/// frame, one parallel-plan frame, one interpreted frame, repeat) and
/// reports the per-path minimum — robust against clock-speed drift and
/// co-tenant noise, which a back-to-back block measurement folds
/// entirely into one path.
fn time_trio_ms(
    reps: usize,
    mut serial_plan: impl FnMut() -> Vec<rtoss_tensor::Tensor>,
    mut par_plan: impl FnMut() -> Vec<rtoss_tensor::Tensor>,
    mut interp: impl FnMut() -> Vec<rtoss_tensor::Tensor>,
) -> (f64, f64, f64) {
    std::hint::black_box(serial_plan()); // warm-up
    std::hint::black_box(par_plan());
    std::hint::black_box(interp());
    let (mut plan_ms, mut par_ms, mut interp_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        plan_ms = plan_ms.min(frame_ms(&mut serial_plan));
        par_ms = par_ms.min(frame_ms(&mut par_plan));
        interp_ms = interp_ms.min(frame_ms(&mut interp));
    }
    (plan_ms, par_ms, interp_ms)
}

fn measure(model: &str, mode: &str, entry: Option<EntryPattern>, args: &Args) -> PlanRow {
    let mut m = match model {
        "yolov5s" => rtoss_models::yolov5s_twin(8, 2, 42),
        "retinanet" => rtoss_models::retinanet_twin(8, 2, 42),
        _ => unreachable!("model names are fixed in main"),
    }
    .expect("twin builds");
    if let Some(e) = entry {
        RTossPruner::new(e)
            .prune_graph(&mut m.graph)
            .expect("prunes");
    }
    let engine = SparseModel::compile(&m.graph).expect("compiles");
    let serial = ExecConfig::serial();
    let exec = ExecConfig::with_threads(args.threads);
    let shape = [1, 3, args.image, args.image];
    let x = init::uniform(&mut init::rng(10), &shape, 0.0, 1.0);

    // Plan first so compilation happens outside all timed regions.
    let summary = engine.plan_summary(&shape).expect("plans");
    let (plan_ms, par_ms, interp_ms) = time_trio_ms(
        args.reps,
        || engine.forward_with(&x, &serial).expect("serial plan"),
        || engine.forward_with(&x, &exec).expect("parallel plan"),
        || {
            engine
                .forward_interpreted_with(&x, &exec)
                .expect("interpreted forward")
        },
    );

    PlanRow {
        model: model.to_string(),
        mode: mode.to_string(),
        compression: engine.compression_ratio(),
        interp_ms,
        plan_ms,
        par_ms,
        arena_bytes: summary.arena_bytes,
        peak_live_bytes: summary.peak_live_bytes,
        retained_bytes: summary.retained_bytes,
    }
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "plan_bench: {s}x{s} input, {r} reps, {t} threads, host has {host_cores} core(s)\n",
        s = args.image,
        r = args.reps,
        t = args.threads
    );

    let variants: [(&str, Option<EntryPattern>); 4] = [
        ("dense", None),
        ("4EP", Some(EntryPattern::Four)),
        ("3EP", Some(EntryPattern::Three)),
        ("2EP", Some(EntryPattern::Two)),
    ];
    let mut rows = Vec::new();
    for model in ["yolov5s", "retinanet"] {
        for &(mode, entry) in &variants {
            eprintln!("plan_bench: measuring {model} {mode}...");
            rows.push(measure(model, mode, entry, &args));
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} {}", r.model, r.mode),
                format!("{:.2}x", r.compression),
                format!("{:.2}", r.interp_ms),
                format!("{:.2}", r.plan_ms),
                format!("{:.2}", r.par_ms),
                format!("{:.2}x", r.par_scaling()),
                format!("{:.2}x", r.speedup()),
                format!("{}", r.arena_bytes / 1024),
                format!("{}", r.peak_live_bytes / 1024),
                format!("{}", r.retained_bytes / 1024),
                format!("{:.0}%", 100.0 * r.memory_saving()),
            ]
        })
        .collect();
    let headers = [
        "config",
        "compress",
        "interp ms",
        "plan ms",
        "par ms",
        "par x",
        "speedup",
        "arena KiB",
        "live KiB",
        "interp KiB",
        "mem saved",
    ];
    let title = "Compile-before-run: planned (fused, arena) vs per-call interpreter";
    print_table(title, &headers, &table);

    let report = PlanBenchReport {
        image: args.image as u64,
        reps: args.reps as u64,
        threads: args.threads as u64,
        host_cores: host_cores as u64,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: PlanBenchReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back, report, "serde round-trip must be lossless");

    std::fs::create_dir_all(&args.out_dir).expect("output dir");
    let json_path = format!("{}/plan_bench.json", args.out_dir);
    std::fs::write(&json_path, &json).expect("write json report");
    let mut text = format!("{title}\n\n{}\n", headers.join(" | "));
    for row in &table {
        text.push_str(&row.join(" | "));
        text.push('\n');
    }
    text.push_str(&format!(
        "\nplan = serial plan (width 1); par = the same plan at graph-level width {t}\n\
         on the persistent worker pool; par x = plan ms / par ms (host: {host_cores} core(s)).\n\
         arena = activation bytes the plan allocates (slots reused after last consumer);\n\
         live = liveness lower bound; interp = bytes the interpreter retains per forward.\n\
         Outputs are bit-identical across all paths (rtoss-verify RV052).\n",
        t = args.threads
    ));
    let txt_path = format!("{}/plan_bench.txt", args.out_dir);
    std::fs::write(&txt_path, &text).expect("write text report");
    println!("\nreports: {txt_path}, {json_path} (serde round-trip verified)");

    if args.gate_par {
        if host_cores > 1 && args.threads > 1 {
            // The interleaved min-of-reps timer is stable, but gate with
            // a 5% jitter allowance so a noisy CI neighbour cannot flip
            // a genuinely-parallel run into a failure.
            let slow: Vec<&PlanRow> = report
                .rows
                .iter()
                .filter(|r| r.par_ms > r.plan_ms * 1.05)
                .collect();
            if slow.is_empty() {
                println!(
                    "gate-par: parallel plan >= serial plan on all {} rows",
                    report.rows.len()
                );
            } else {
                for r in &slow {
                    eprintln!(
                        "gate-par: {} {} parallel plan {:.2} ms slower than serial {:.2} ms",
                        r.model, r.mode, r.par_ms, r.plan_ms
                    );
                }
                eprintln!("gate-par: FAILED on {} row(s)", slow.len());
                std::process::exit(1);
            }
        } else {
            println!(
                "gate-par: skipped (host has {host_cores} core(s), threads={}) — \
                 a single-core host only measures scheduler overhead, not scaling",
                args.threads
            );
        }
    }
}
