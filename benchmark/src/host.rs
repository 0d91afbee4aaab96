//! What the host contributes to a result: fingerprint, process CPU
//! time, peak memory, and the environment knobs a run must not carry.

use std::path::Path;
use std::time::Instant;

/// `RTOSS_*` variables that change what the crates under test execute.
/// A run refuses to start with any of them set, so two results can only
/// differ by code.
const FORBIDDEN_ENV: [&str; 5] = [
    "RTOSS_THREADS",
    "RTOSS_FORMAT",
    "RTOSS_AUTOTUNE",
    "RTOSS_TRACE",
    "RTOSS_SERIES",
];

/// Names of the forbidden variables that are set.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// Host and build facts printed with every result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Vector features the binary was compiled for (the repository's
    /// `.cargo/config.toml` asks for `target-cpu=native`).
    pub target_features: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub git_commit: String,
    /// Smallest non-zero step `Instant` showed over a short spin.
    pub timer_resolution_ns: u64,
}

impl Fingerprint {
    /// Measures the fingerprint of this process' host.
    pub fn measure(repo_root: &Path) -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            target_features: target_features(),
            git_commit: git_commit(repo_root),
            timer_resolution_ns: timer_resolution_ns(),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cores={} target_features={} git_commit={} timer_resolution_ns={}",
            self.cores, self.target_features, self.git_commit, self.timer_resolution_ns
        )
    }
}

fn target_features() -> String {
    let flags = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = flags.iter().filter(|f| f.1).map(|f| f.0).collect();
    format!("{}:{}", std::env::consts::ARCH, on.join("+"))
}

/// Reads `.git/HEAD` (following one symbolic ref) without spawning git:
/// the benchmark starts no process it would have to reap.
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(s) => s.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved:{r}")),
    }
}

fn timer_resolution_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..64 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min((b - a).as_nanos() as u64);
    }
    best
}

/// User + system CPU seconds of the whole process (all threads, also
/// those that already exited), from `/proc/self/stat` at the kernel's
/// 100 Hz accounting tick. `None` where procfs is not available.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; `state` is the first.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of the process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
