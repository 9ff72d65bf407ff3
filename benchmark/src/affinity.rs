//! Thread placement, set from outside the program.
//!
//! On a 2-vCPU VM the scheduler moves the origin's and proxy's threads
//! between CPUs every few hundred milliseconds, and whether two threads
//! that wake each other share a CPU changes `serve-mixed` throughput
//! twofold (cross-CPU wake-ups cost a VM exit): unpinned, its 0.5 s slices
//! were bimodal around 22 k and 42 k req/s with an inter-quartile spread of
//! 35 %; with the server's threads on one half of the CPUs and the load
//! generator's on the other the spread fell to 10 %.

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_string();
            parse_cpu_list(&list)
        })
        .unwrap_or_default()
}

/// Parses `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// `(server CPUs, generator CPUs)`: `cpus` cut in half. `None` with fewer
/// than two CPUs — everything then shares the one there is.
pub fn split_cpus(cpus: &[usize]) -> Option<(&[usize], &[usize])> {
    (cpus.len() >= 2).then(|| cpus.split_at(cpus.len() / 2))
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts thread `tid` (0 = the caller) to `cpus`. Returns whether the
/// kernel accepted it; on refusal the thread stays where it was.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array for the whole call and
    // `cpusetsize` is exactly its size in bytes; the kernel only reads it.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins every thread of `tids`; true if all were accepted.
pub fn pin_all(tids: &[u32], cpus: &[usize]) -> bool {
    tids.iter().all(|&tid| pin(tid, cpus))
}
