//! The benchmark's single command.
//!
//! ```text
//! rtoss-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                 [--smoke] [--repeat N [--sets K]]
//! ```
//!
//! Prints every metric by name and unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any output was wrong.
//! README.md documents workloads, metrics and bounds.

mod engines;
mod host;
mod layers;
mod loadgen;
mod probe;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::{
    declared_end_to_end, parse_result_line, render_agreement, render_set, result_line, ParsedResult,
};
use run::{run, RunArgs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str =
    "usage: rtoss-benchmark --workload <stream_closed|serve_open|fleet_overload|prune_compile> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--repeat <n> [--sets <k>]]";

struct Cli {
    run: RunArgs,
    repeat: usize,
    sets: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 24.0f64, false, false);
    let (mut repeat, mut sets) = (0usize, 1usize);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        let bad = |raw: &str| format!("{flag} does not take {raw:?}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other)),
                }
            }
            "--smoke" => smoke = true,
            "--repeat" => repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--sets" => sets = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        run: RunArgs {
            def: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        },
        repeat,
        sets: sets.max(1),
    })
}

/// The checkout this binary was built in: the benchmark's package
/// directory is `<root>/benchmark`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Runs this same binary once per seed and returns each parsed result.
/// Each child is waited for before the next starts.
fn repeat_runs(args: &RunArgs, seeds: std::ops::Range<u64>) -> Result<Vec<ParsedResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for seed in seeds {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", args.def.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed = parse_result_line(last)
            .map_err(|e| format!("seed {seed}: no result line ({e}); exit {}", output.status))?;
        eprintln!(
            "seed {seed}: correct={} attempted={} failed={}",
            parsed.correct, parsed.attempted, parsed.failed
        );
        if !output.status.success() || !parsed.correct {
            return Err(format!("seed {seed}: run was not correct:\n{stdout}"));
        }
        out.push(parsed);
    }
    Ok(out)
}

fn repeat_report(cli: &Cli, root: &Path) -> Result<(), String> {
    let declared = declared_end_to_end(&root.join("BENCHMARK.json"))?;
    let fingerprint = host::Fingerprint::measure(root);
    println!(
        "workload={} seconds={} trace={} sets={} runs_per_set={} first_seed={}",
        cli.run.def.name, cli.run.seconds, cli.run.trace as u8, cli.sets, cli.repeat, cli.run.seed
    );
    println!("host: {fingerprint}");
    let mut sets = Vec::new();
    for set in 0..cli.sets as u64 {
        let first = cli.run.seed + set * cli.repeat as u64;
        let runs = repeat_runs(&cli.run, first..first + cli.repeat as u64)?;
        let label = format!(
            "set {} (seeds {first}..{})",
            set + 1,
            first + cli.repeat as u64 - 1
        );
        print!("{}", render_set(&label, &declared, &runs));
        sets.push(runs);
    }
    if sets.len() > 1 {
        print!("{}", render_agreement(&declared, &sets));
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("rtoss-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::forbidden_env_set();
    if !set.is_empty() {
        eprintln!(
            "rtoss-benchmark: refusing to run with {} set: two results must differ by code only",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let root = repo_root();
    if cli.repeat > 0 {
        return match repeat_report(&cli, &root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rtoss-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = run(&cli.run, process_start, &root);
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
