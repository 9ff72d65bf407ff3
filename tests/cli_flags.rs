//! `wcc` rejects a `--flag` its subcommand does not read: exit 2 and the
//! usage text, instead of a run that silently ignored it. (`--shards` was
//! such a flag until the second engine went, `--decoupled` until the
//! decoupled invalidation sender did; a stale script must not keep
//! "passing" while checking nothing.) `wcc bench <table>` holds the paper
//! tables to the same rule, where the binaries it replaced ran at full scale
//! on a typo, and `wcc serve` each role: a flag the role does not use is
//! refused, not ignored — as is, by `wcc replay --family`, every flag of
//! the single-trace replay it does not read.

use std::process::Command;

const WCC: &str = env!("CARGO_BIN_EXE_wcc");

#[test]
fn unknown_flags_exit_2_with_usage_and_known_ones_still_run() {
    let base = ["replay", "--trace", "epa", "--scale", "400"];
    for extra in [&["--shards", "2"][..], &["--decoupled"], &["--bogus"]] {
        let run = Command::new(WCC)
            .args(base)
            .args(extra)
            .output()
            .expect("wcc spawns");
        assert_eq!(run.status.code(), Some(2), "{extra:?}");
        assert!(run.stdout.is_empty(), "{extra:?} still ran the replay");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", extra[0])) && stderr.contains("usage:"),
            "{stderr}"
        );
    }
    let run = Command::new(WCC)
        .args(base)
        .args(["--audit", "--lifetime-days", "0.2"])
        .output()
        .expect("wcc spawns");
    assert!(run.status.success());
    assert!(String::from_utf8_lossy(&run.stdout).contains("audit:"));
}

/// `wcc replay --family` reads the flags of its own usage line only: the
/// single-trace replay's `--trace-out` wrote nothing, `--metrics` printed
/// nothing and `--trace` / `--lifetime-days` picked nothing, yet all four
/// exited 0; `--hierarchy` ran into a flat-federation error instead.
#[test]
fn family_replay_rejects_the_single_trace_flags() {
    let base = ["replay", "--family", "flash-crowd", "--scale", "200"];
    let out = std::env::temp_dir().join(format!("wcc-cli-flags-{}.jsonl", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for extra in [
        &["--trace", "epa"][..],
        &["--lifetime-days", "0.2"],
        &["--trace-out", out],
        &["--metrics"],
        &["--hierarchy"],
    ] {
        let run = Command::new(WCC)
            .args(base)
            .args(extra)
            .output()
            .expect("wcc spawns");
        assert_eq!(run.status.code(), Some(2), "{extra:?}");
        assert!(run.stdout.is_empty(), "{extra:?} still ran the replay");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let complaint = format!("--family NAME does not use {}", extra[0]);
        assert!(
            stderr.contains(&complaint) && stderr.contains("usage:"),
            "{stderr}"
        );
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a span log was written"
    );
    let run = Command::new(WCC)
        .args(base)
        .args(["--audit", "--seed", "3"])
        .output()
        .expect("wcc spawns");
    assert!(run.status.success());
    assert!(String::from_utf8_lossy(&run.stdout).contains("audit:"));
}

#[test]
fn bench_rejects_what_the_table_binaries_swallowed() {
    let bench = |args: &[&str]| {
        Command::new(WCC)
            .arg("bench")
            .args(args)
            .output()
            .expect("wcc spawns")
    };
    for (args, complaint) in [
        (&["table2", "--sclae", "20"][..], "unknown flag --sclae"),
        (&["table2", "--scale", "x"][..], "--scale expects a number"),
        (&["table2", "--scale"][..], "--scale expects a value"),
        (&["trajectory", "--check"][..], "--check expects a value"),
        (&["nosuch"][..], "no table \"nosuch\""),
    ] {
        let run = bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} still printed a table");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
    // The unknown name is answered with every valid one: `bench list`'s.
    let listed = bench(&["list"]);
    let names = String::from_utf8_lossy(&listed.stdout);
    let stderr = bench(&["nosuch"]).stderr;
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(names.lines().count(), 19);
    for name in names.lines().filter_map(|l| l.split_whitespace().next()) {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }

    let run = bench(&["table2", "--scale", "400"]);
    assert!(run.status.success());
    let table = String::from_utf8_lossy(&run.stdout);
    assert!(table.starts_with("=== Table 2: summary of the traces (seed 1997, scale 1/400) ==="));
}

/// `wcc serve` with `args`, killed (and the test failed) if it is still
/// running after 10 s: a daemon that started despite a bad flag.
fn serve(args: &[&str]) -> std::process::Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(WCC)
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("wcc spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("wcc serve {args:?} is serving");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

/// A `wcc serve` flag the role has no use for is refused with nothing
/// spawned: `--role proxy --port 8080` listened on an ephemeral port, and a
/// proxy's `--state-file` announced a §5 recovery that did nothing.
#[test]
fn serve_rejects_flags_its_role_does_not_use() {
    // Nothing listens on port 1: a proxy that got as far as spawning fails
    // its dial (exit 1), it does not serve.
    let up = ["--origin", "127.0.0.1:1"];
    for (role, flag, value) in [
        ("proxy", "port", "8080"),
        ("proxy", "docs", "4"),
        ("proxy", "doc-scale", "10"),
        ("proxy", "state-file", "wcc-cli-flags.state"),
        ("proxy", "config", "wcc-cli-flags.conf"),
        ("origin", "origin", "127.0.0.1:1"),
        ("origin", "cache-mib", "8"),
        ("pair", "origin", "127.0.0.1:1"),
    ] {
        let mut args = vec!["--role", role];
        if role == "proxy" {
            args.extend(up);
        }
        let flag = format!("--{flag}");
        args.extend([flag.as_str(), value]);
        let run = serve(&args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} published addresses");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let complaint = format!("--role {role} does not use {flag}");
        assert!(stderr.contains(&complaint), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new("wcc-cli-flags.state").exists());
    // The role's own flags pass the check and reach the spawn.
    let run = serve(&[
        "--role",
        "proxy",
        "--origin",
        "127.0.0.1:1",
        "--cache-mib",
        "8",
    ]);
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    assert!(run.stdout.is_empty());
}
