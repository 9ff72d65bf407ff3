//! `wcc bench trajectory` end to end, pinned to one core.
//!
//! No gated row depends on the host's core count, so a report written on
//! one core must pass its own check there; and a flag the command no longer
//! has is an error, not a silently different run.

use std::process::Command;

use webcache::bench::trajectory::{read_flat, Value, SCHEMA};

const WCC: &str = env!("CARGO_BIN_EXE_wcc");

#[test]
fn one_core_host_passes_its_own_check() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/trajectory-one-core.json");
    let pinned = |args: &[&str]| {
        Command::new("taskset")
            .args(["-c", "0", WCC, "bench", "trajectory"])
            .args(args)
            .output()
    };
    // Scale 100: the smallest round scale at which every Holds row holds.
    let run = match pinned(&["--scale", "100", "--out", out]) {
        Ok(run) => run,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("skipped: no taskset on this host");
            return;
        }
        Err(e) => panic!("cannot spawn taskset: {e}"),
    };
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stdout)
    );

    let report =
        read_flat(&std::fs::read_to_string(out).expect("report written")).expect("report parses");
    let get = |key: &str| {
        report
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(get("host_cores"), Some(Value::Int(1)));
    assert_eq!(get("schema"), Some(Value::Text(SCHEMA.to_string())));
    assert_eq!(get("grid.parallel_identical"), Some(Value::Bool(true)));
    // Schema /10 gates the queue's overflow-heap load on both replays.
    for row in ["inner_loop.overflow_inserts", "family.overflow_inserts"] {
        assert!(matches!(get(row), Some(Value::Int(_))), "{row}");
    }
    // Schema /9 dropped the second engine's rows with the engine.
    for gone in [
        "grid.shards",
        "grid.sharded_ms",
        "grid.sharded_identical",
        "family.shards",
        "family.sharded_identical",
        "proposer.sharded_identical",
    ] {
        assert_eq!(get(gone), None, "{gone}");
    }

    // The same pinned host reproduces every gated row of that report.
    let check = pinned(&["--check", out]).expect("taskset ran");
    let table = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success() && table.contains("PASS"), "{table}");
}

#[test]
fn removed_flags_are_rejected() {
    for flag in ["--shards", "--tolerance"] {
        let run = Command::new(WCC)
            .args(["bench", "trajectory", flag, "2"])
            .output()
            .expect("wcc spawns");
        assert_eq!(run.status.code(), Some(2), "{flag} accepted");
        assert!(run.stdout.is_empty(), "{flag} still ran");
        assert!(String::from_utf8_lossy(&run.stderr).contains(&format!("unknown flag {flag}")));
    }
}
