//! The `trajectory` binary end to end, pinned to one core.
//!
//! Regression for the sharded identity pass checking nothing on a 1-core
//! host: `--shards auto` used to resolve to a single shard there, so
//! `sharded_byte_identical` compared the sequential engine with itself. The
//! grid's sharded pass now always runs two shards, and the flag is gone.

use std::process::Command;

use wcc_bench::trajectory::{read_flat, Value};

const TRAJECTORY: &str = env!("CARGO_BIN_EXE_trajectory");

#[test]
fn one_core_host_still_runs_two_shards_and_passes_its_own_check() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/trajectory-one-core.json");
    let pinned = |args: &[&str]| {
        Command::new("taskset")
            .args(["-c", "0", TRAJECTORY])
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
    assert_eq!(get("grid.shards"), Some(Value::Int(2)));
    assert_eq!(get("grid.sharded_identical"), Some(Value::Bool(true)));

    // The same pinned host reproduces every gated row of that report.
    let check = pinned(&["--check", out]).expect("taskset ran");
    let table = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success() && table.contains("PASS"), "{table}");
}

#[test]
fn removed_flags_are_rejected() {
    for flag in ["--shards", "--tolerance"] {
        let run = Command::new(TRAJECTORY)
            .args([flag, "2"])
            .output()
            .expect("trajectory spawns");
        assert!(!run.status.success(), "{flag} accepted");
        assert!(String::from_utf8_lossy(&run.stderr).contains("bad argument"));
    }
}
