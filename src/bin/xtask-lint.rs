//! Repo lint driver: scans the workspace sources with the deny-by-default
//! token-level rules of the `wcc-lint` engine and
//! exits non-zero on any finding — including stale waiver markers.
//!
//! Run from anywhere in the workspace:
//!
//! ```text
//! cargo run --bin xtask-lint             # human-readable diagnostics
//! cargo run --bin xtask-lint -- --json   # machine output for CI artifacts
//! cargo run --bin xtask-lint -- --waivers # audit waiver markers only
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut waivers_only = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--waivers" => waivers_only = true,
            other => {
                eprintln!("xtask-lint: unknown argument {other:?} (try --json, --waivers)");
                return ExitCode::from(2);
            }
        }
    }
    // The binary lives in the workspace root package, so its manifest dir
    // IS the workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut findings = match wcc_lint::scan_tree(&root) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("xtask-lint: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if waivers_only {
        findings.retain(|d| d.rule == "stale-waiver");
    }
    if json {
        print!("{}", wcc_lint::to_json(&findings));
        return if findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if findings.is_empty() {
        println!(
            "xtask-lint: clean{}",
            if waivers_only {
                " (no stale waivers)"
            } else {
                ""
            }
        );
        return ExitCode::SUCCESS;
    }
    for d in &findings {
        println!("{d}");
    }
    eprintln!("xtask-lint: {} violation(s)", findings.len());
    ExitCode::FAILURE
}
