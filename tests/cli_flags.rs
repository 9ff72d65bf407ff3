//! `wcc` rejects a `--flag` its subcommand does not read: exit 2 and the
//! usage text, instead of a run that silently ignored it. (`--shards` was
//! such a flag until the second engine went; a stale script must not keep
//! "passing" while checking nothing.)

use std::process::Command;

const WCC: &str = env!("CARGO_BIN_EXE_wcc");

#[test]
fn unknown_flags_exit_2_with_usage_and_known_ones_still_run() {
    let base = ["replay", "--trace", "epa", "--scale", "400"];
    for extra in [&["--shards", "2"][..], &["--bogus"][..]] {
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
