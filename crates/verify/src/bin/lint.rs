//! Hot-path source lint (RV071–RV073) over the four
//! [`rtoss_verify::lint::HOT_PATH_ROOTS`].
//!
//! Exits non-zero if any lock-order cycle, Relaxed publication or
//! guard held across a pool hand-off survives in non-test hot-path
//! code. Run from anywhere inside the workspace; the repo root is
//! located relative to this crate.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // crates/verify → repo root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = match rtoss_verify::lint_paths(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: cannot read sources: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &findings {
        println!("{d}");
    }
    if findings.is_empty() {
        println!(
            "lint: hot paths clean ({} roots)",
            rtoss_verify::lint::HOT_PATH_ROOTS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
