//! The `/proc` parsers on fixture text, and their "unavailable" path.

use wcc_benchmark::affinity::parse_cpu_list;
use wcc_benchmark::procfs::{self, SchedStat};

const STATUS: &str = "Name:\twcc-benchmark
Umask:\t0022
State:\tR (running)
Tgid:\t4242
VmPeak:\t  220140 kB
VmSize:\t  154604 kB
VmHWM:\t   57836 kB
VmRSS:\t   31020 kB
Threads:\t7
Cpus_allowed:\t3
Cpus_allowed_list:\t0-1
voluntary_ctxt_switches:\t1234
nonvoluntary_ctxt_switches:\t56
";

#[test]
fn schedstat_fields() {
    assert_eq!(
        procfs::parse_schedstat("5230112233 41002200 977\n"),
        Some(SchedStat {
            on_cpu_ns: 5_230_112_233,
            runq_wait_ns: 41_002_200,
            timeslices: 977,
        })
    );
}

#[test]
fn schedstat_garbage_is_unavailable() {
    assert_eq!(procfs::parse_schedstat(""), None);
    assert_eq!(procfs::parse_schedstat("12 34"), None);
    assert_eq!(procfs::parse_schedstat("12 x 3"), None);
    assert_eq!(procfs::parse_schedstat("1 2 3 4"), None);
}

#[test]
fn status_fields() {
    assert_eq!(procfs::parse_vm_hwm_kib(STATUS), Some(57_836));
    assert_eq!(procfs::parse_ctx_switches(STATUS), Some(1_290));
}

#[test]
fn status_without_the_fields_is_unavailable() {
    let stripped: String = STATUS
        .lines()
        .filter(|l| !l.starts_with("VmHWM") && !l.starts_with("nonvoluntary"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(procfs::parse_vm_hwm_kib(&stripped), None);
    assert_eq!(procfs::parse_ctx_switches(&stripped), None);
    assert_eq!(procfs::parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
}

#[test]
fn a_thread_that_is_gone_reads_as_unavailable() {
    // No thread of this process has tid 1 unless it *is* pid 1; u32::MAX never exists.
    assert_eq!(procfs::sample_sched(&[u32::MAX]), None);
    assert_eq!(procfs::sample_group(&[u32::MAX]), None);
    assert_eq!(procfs::sample_sched(&[]), Some(SchedStat::default()));
}

#[test]
fn spawned_threads_are_attributed_to_their_spawner() {
    // Other tests spawn threads at the same time, so the diff may hold
    // more than ours — but it must hold ours.
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let (tid_tx, tid_rx) = std::sync::mpsc::channel::<Option<u32>>();
    let (handle, tids) = procfs::threads_spawned_by(|| {
        let handle = std::thread::spawn(move || {
            let own = std::fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name()?.to_str()?.parse().ok());
            tid_tx.send(own).expect("the test is listening");
            stop_rx.recv().ok();
        });
        (handle, tid_rx.recv().expect("the thread reports in"))
    });
    let (handle, own) = handle;
    if let Some(own) = own {
        assert!(tids.contains(&own), "{own} not among {tids:?}");
        assert!(procfs::sample_group(&[own]).is_some());
    }
    drop(stop_tx);
    handle.join().expect("thread exits once the channel closes");
}

#[test]
fn cpu_lists() {
    assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
    assert_eq!(parse_cpu_list("0,2-4,9"), Some(vec![0, 2, 3, 4, 9]));
    assert_eq!(parse_cpu_list(""), Some(vec![]));
    assert_eq!(parse_cpu_list("0-x"), None);
}
