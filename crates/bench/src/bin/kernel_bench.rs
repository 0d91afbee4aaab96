//! Microkernel sparsity sweep: what does the one tiled driver cost at
//! each density?
//!
//! Times one 3×3 conv layer at every pruning level (2EP/3EP/4EP taps
//! per kernel, plus the unpruned weight — the density-1.0, arity-9
//! pack) three ways: the scalar reference walk, the tiled driver over
//! the layer's pattern pack, and the tiled driver over the COO pack of
//! the same weights. Read down the rows for the fig6-style crossover
//! (time ∝ surviving taps); read across for the tiled-over-scalar
//! speedup and for what storage costs at run time (a COO pack of
//! pattern-pruned weights has the same uniform arity, so it takes the
//! same monomorphized body and differs only in unshared offsets).
//!
//! ```text
//! kernel_bench [--reps N] [--image N] [--channels N] [--out-dir PATH] [--gate]
//! ```
//!
//! `--gate` exits non-zero when the tiled driver is slower than the
//! scalar reference (beyond a 5% jitter allowance) on any
//! pattern-pruned row — the whole point of the microkernel layer. The
//! gate self-skips when a timer-stability calibration shows the host
//! cannot produce repeatable minima (noisy CI neighbours).
//!
//! Writes `results/kernels/kernel_bench.txt` + `.json` by default.
//! All three paths are bit-identical by construction (rtoss-verify
//! RV092), so the deltas here are pure kernel-strategy effects.

use rtoss_bench::print_table;
use rtoss_core::pattern::canonical_set;
use rtoss_core::prune3x3::prune_3x3_weights;
use rtoss_sparse::exec::{conv2d_packed_into, conv2d_pattern_scalar_into_with, conv_output_shape};
use rtoss_sparse::{coo_from_pattern, PatternCompressedConv};
use rtoss_tensor::exec::Epilogue;
use rtoss_tensor::{init, ExecConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One sparsity level's measurements, all three paths, milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KernelRow {
    /// Pruning level: "2EP", "3EP", "4EP", or "dense".
    mode: String,
    /// Fraction of the dense weight tensor that survived pruning.
    density: f64,
    /// Scalar reference executor, best-of-reps ms.
    scalar_ms: f64,
    /// Tiled driver over the layer's pattern pack, best-of-reps ms.
    tiled_ms: f64,
    /// Tiled driver over the COO pack of the same weights (offsets
    /// stored per run, not per group), best-of-reps ms.
    coo_ms: f64,
}

impl KernelRow {
    /// Tiled speedup over the scalar reference (>1 = tiling wins).
    fn tiled_speedup(&self) -> f64 {
        self.scalar_ms / self.tiled_ms
    }
}

/// The full report written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KernelBenchReport {
    /// Input image side, pixels.
    image: u64,
    /// Channels (both in and out) of the swept layer.
    channels: u64,
    /// Timed repetitions per cell.
    reps: u64,
    /// Relative spread of two back-to-back scalar calibration minima —
    /// the gate self-skips above [`CALIBRATION_SPREAD`].
    timer_spread: f64,
    /// One row per pruning level.
    rows: Vec<KernelRow>,
}

/// Max relative disagreement between two calibration minima before the
/// host is declared too noisy to gate on.
const CALIBRATION_SPREAD: f64 = 0.15;

struct Args {
    reps: usize,
    image: usize,
    channels: usize,
    out_dir: String,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        reps: 20,
        image: 64,
        channels: 32,
        out_dir: "results/kernels".to_string(),
        gate: false,
    };
    fn usage_error(msg: &str) -> ! {
        eprintln!("kernel_bench: {msg}");
        eprintln!(
            "usage: kernel_bench [--reps N] [--image N] [--channels N] [--out-dir PATH] [--gate]"
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
            "--channels" => args.channels = number(&flag, &value()),
            "--out-dir" => args.out_dir = value(),
            "--gate" => args.gate = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

/// Builds the swept layer: a seeded 3×3 conv pruned to `entries` taps
/// per kernel (`None` = unpruned dense weight).
fn build_layer(channels: usize, entries: Option<usize>) -> PatternCompressedConv {
    let mut w = init::uniform(&mut init::rng(0x6B), &[channels, channels, 3, 3], -1.0, 1.0);
    if let Some(n) = entries {
        let set = canonical_set(n).expect("canonical set");
        prune_3x3_weights(&mut w, &set).expect("prunes");
    }
    PatternCompressedConv::from_dense(&w, 1, 1).expect("compresses")
}

/// One timed call of `f`, milliseconds, output pinned so the work
/// cannot be optimized away.
fn call_ms(out: &mut [f32], f: &mut impl FnMut(&mut [f32])) -> f64 {
    let start = Instant::now();
    f(out);
    let ms = 1e3 * start.elapsed().as_secs_f64();
    std::hint::black_box(out[0]);
    ms
}

/// Interleaved min-of-reps over the three paths: one frame each per
/// rep, so clock drift and co-tenant noise hit every path equally.
fn time_trio_ms(
    reps: usize,
    out: &mut [f32],
    scalar: &mut impl FnMut(&mut [f32]),
    tiled: &mut impl FnMut(&mut [f32]),
    coo: &mut impl FnMut(&mut [f32]),
) -> (f64, f64, f64) {
    scalar(out); // warm-up
    tiled(out);
    coo(out);
    let mut ms = [f64::INFINITY; 3];
    for _ in 0..reps {
        ms[0] = ms[0].min(call_ms(out, scalar));
        ms[1] = ms[1].min(call_ms(out, tiled));
        ms[2] = ms[2].min(call_ms(out, coo));
    }
    (ms[0], ms[1], ms[2])
}

fn measure(mode: &str, entries: Option<usize>, args: &Args) -> KernelRow {
    let layer = build_layer(args.channels, entries);
    let coo = coo_from_pattern(&layer);
    let x_shape = [1, args.channels, args.image, args.image];
    let x = init::uniform(&mut init::rng(0x6C), &x_shape, -1.0, 1.0);
    let bias = vec![0.125f32; args.channels];
    let exec = ExecConfig::serial();
    let out_shape = conv_output_shape(
        &x_shape,
        layer.in_channels(),
        layer.out_channels(),
        3,
        1,
        1,
        "kernel_bench",
    )
    .expect("shape valid");
    let mut out = vec![0.0f32; out_shape.iter().product()];
    let xs = x.as_slice();
    let packed = |pack, o: &mut [f32]| {
        conv2d_packed_into(xs, &x_shape, pack, Some(&bias), &Epilogue::NONE, o, &exec)
            .map(|_| ())
            .expect("tiled driver runs")
    };

    let (scalar_ms, tiled_ms, coo_ms) = time_trio_ms(
        args.reps,
        &mut out,
        &mut |o| {
            conv2d_pattern_scalar_into_with(
                xs,
                &x_shape,
                &layer,
                Some(&bias),
                &Epilogue::NONE,
                o,
                &exec,
            )
            .map(|_| ())
            .expect("scalar runs")
        },
        &mut |o| packed(layer.pack(), o),
        &mut |o| packed(coo.pack(), o),
    );

    let total = (layer.out_channels() * layer.in_channels() * 9) as f64;
    KernelRow {
        mode: mode.to_string(),
        density: layer.stored_weights() as f64 / total,
        scalar_ms,
        tiled_ms,
        coo_ms,
    }
}

/// Times the scalar path twice (min-of-reps each) and returns the
/// relative spread of the two minima: a stable host repeats its
/// minimum; a noisy one does not, and the gate must not trust it.
fn calibrate_timer(args: &Args) -> f64 {
    let layer = build_layer(args.channels, Some(3));
    let x_shape = [1, args.channels, args.image, args.image];
    let x = init::uniform(&mut init::rng(0x6D), &x_shape, -1.0, 1.0);
    let bias = vec![0.125f32; args.channels];
    let exec = ExecConfig::serial();
    let mut out = vec![0.0f32; x_shape.iter().product::<usize>()];
    let mut run = |o: &mut [f32]| {
        conv2d_pattern_scalar_into_with(
            x.as_slice(),
            &x_shape,
            &layer,
            Some(&bias),
            &Epilogue::NONE,
            o,
            &exec,
        )
        .map(|_| ())
        .expect("calibration runs")
    };
    run(&mut out); // warm-up
    let mut pass = |reps: usize, out: &mut [f32]| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            best = best.min(call_ms(out, &mut run));
        }
        best
    };
    let a = pass(args.reps.max(5), &mut out);
    let b = pass(args.reps.max(5), &mut out);
    (a - b).abs() / a.min(b)
}

fn main() {
    let args = parse_args();
    println!(
        "kernel_bench: {c}ch {s}x{s} input, {r} reps per path\n",
        c = args.channels,
        s = args.image,
        r = args.reps
    );

    let timer_spread = calibrate_timer(&args);
    let variants: [(&str, Option<usize>); 4] = [
        ("2EP", Some(2)),
        ("3EP", Some(3)),
        ("4EP", Some(4)),
        ("dense", None),
    ];
    let mut rows = Vec::new();
    for &(mode, entries) in &variants {
        eprintln!("kernel_bench: measuring {mode}...");
        rows.push(measure(mode, entries, &args));
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.0}%", 100.0 * r.density),
                format!("{:.3}", r.scalar_ms),
                format!("{:.3}", r.tiled_ms),
                format!("{:.3}", r.coo_ms),
                format!("{:.2}x", r.tiled_speedup()),
            ]
        })
        .collect();
    let headers = [
        "mode",
        "density",
        "scalar ms",
        "tiled ms",
        "coo ms",
        "tiled x",
    ];
    let title = "One tiled conv driver across sparsity: scalar vs pattern pack vs COO pack";
    print_table(title, &headers, &table);

    let report = KernelBenchReport {
        image: args.image as u64,
        channels: args.channels as u64,
        reps: args.reps as u64,
        timer_spread,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: KernelBenchReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back, report, "serde round-trip must be lossless");

    std::fs::create_dir_all(&args.out_dir).expect("output dir");
    let json_path = format!("{}/kernel_bench.json", args.out_dir);
    std::fs::write(&json_path, &json).expect("write json report");
    let mut text = format!("{title}\n\n{}\n", headers.join(" | "));
    for row in &table {
        text.push_str(&row.join(" | "));
        text.push('\n');
    }
    text.push_str(&format!(
        "\nscalar = per-tap reference walk; tiled = the register-tiled driver over the\n\
         layer's pattern pack (one body monomorphized on the uniform tap arity; the dense\n\
         row is the unpruned layer's arity-9 pack); coo = the same driver over the COO\n\
         pack of the same weights (same arity, offsets stored per run).\n\
         Timer calibration spread: {timer_spread:.3} (gate trusts the host below {CALIBRATION_SPREAD}).\n\
         All paths are bit-identical (rtoss-verify RV092); deltas are strategy only.\n"
    ));
    let txt_path = format!("{}/kernel_bench.txt", args.out_dir);
    std::fs::write(&txt_path, &text).expect("write text report");
    println!("\nreports: {txt_path}, {json_path} (serde round-trip verified)");

    if args.gate {
        if timer_spread > CALIBRATION_SPREAD {
            println!(
                "gate: skipped (calibration spread {timer_spread:.3} > {CALIBRATION_SPREAD}) — \
                 this host cannot produce repeatable minima, so a pass or fail here would \
                 measure the neighbours, not the kernels"
            );
            return;
        }
        // The microkernel layer exists to beat the scalar walk on
        // pattern-pruned layers; allow 5% jitter so one noisy minimum
        // cannot flip a genuinely-faster kernel into a CI failure.
        let slow: Vec<&KernelRow> = report
            .rows
            .iter()
            .filter(|r| r.mode != "dense" && r.tiled_ms > r.scalar_ms * 1.05)
            .collect();
        if slow.is_empty() {
            println!(
                "gate: tiled driver >= scalar reference on all pattern-pruned rows ({} checked)",
                report.rows.iter().filter(|r| r.mode != "dense").count()
            );
        } else {
            for r in &slow {
                eprintln!(
                    "gate: {} tiled {:.3} ms slower than scalar {:.3} ms",
                    r.mode, r.tiled_ms, r.scalar_ms
                );
            }
            eprintln!("gate: FAILED on {} row(s)", slow.len());
            std::process::exit(1);
        }
    }
}
