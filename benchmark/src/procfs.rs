//! Per-thread CPU accounting and peak memory, read from `/proc` — the
//! only way to attribute CPU to the program's threads without touching
//! the program. Every reader returns `None` when the file is missing or
//! malformed, and callers report the metric as unavailable.

use std::collections::BTreeSet;

/// `/proc/<pid>/task/<tid>/schedstat`: time on a CPU, time runnable but
/// waiting for one, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
    pub timeslices: u64,
}

pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let stat = SchedStat {
        on_cpu_ns: fields.next()?.ok()?,
        runq_wait_ns: fields.next()?.ok()?,
        timeslices: fields.next()?.ok()?,
    };
    fields.next().is_none().then_some(stat)
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Voluntary + involuntary context switches from a `status` file.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        status_field(status, "voluntary_ctxt_switches")?
            + status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// Peak resident set (`VmHWM`) in KiB from a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status_field(status, "VmHWM")
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

/// The thread ids of this process.
pub fn list_tids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Runs `spawn` and returns its result with the threads it left running:
/// thread ownership learnt by diffing the task list around the call.
pub fn threads_spawned_by<T>(spawn: impl FnOnce() -> T) -> (T, Vec<u32>) {
    let before = list_tids();
    let value = spawn();
    let after = list_tids();
    (value, after.difference(&before).copied().collect())
}

/// One reading of a thread group's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupSample {
    pub sched: SchedStat,
    pub ctx_switches: u64,
}

impl GroupSample {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &GroupSample) -> GroupSample {
        GroupSample {
            sched: SchedStat {
                on_cpu_ns: self.sched.on_cpu_ns.saturating_sub(earlier.sched.on_cpu_ns),
                runq_wait_ns: self
                    .sched
                    .runq_wait_ns
                    .saturating_sub(earlier.sched.runq_wait_ns),
                timeslices: self
                    .sched
                    .timeslices
                    .saturating_sub(earlier.sched.timeslices),
            },
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Sums schedstat over `tids`; `None` if any thread cannot be read.
pub fn sample_sched(tids: &[u32]) -> Option<SchedStat> {
    let mut total = SchedStat::default();
    for tid in tids {
        let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
        let s = parse_schedstat(&text)?;
        total.on_cpu_ns += s.on_cpu_ns;
        total.runq_wait_ns += s.runq_wait_ns;
        total.timeslices += s.timeslices;
    }
    Some(total)
}

/// Sums schedstat and context switches over `tids`.
pub fn sample_group(tids: &[u32]) -> Option<GroupSample> {
    let mut ctx_switches = 0;
    for tid in tids {
        let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
        ctx_switches += parse_ctx_switches(&status)?;
    }
    Some(GroupSample {
        sched: sample_sched(tids)?,
        ctx_switches,
    })
}

/// On-CPU nanoseconds of the calling thread so far.
pub fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(parse_schedstat(&text)?.on_cpu_ns)
}

/// `nproc` and the CPU model, for the result header.
pub fn host() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (cores, model)
}
