//! CPU affinity, through the C library's `sched_getaffinity` /
//! `sched_setaffinity` (Linux).
//!
//! On a shared host the cores this process may use do not run at the same
//! speed: a core whose hyper-thread sibling is busy with another tenant's
//! work runs this benchmark up to ~1.5x slower, and which core that is
//! changes over minutes. The measuring loops therefore rotate the benchmark
//! (and the `bq-serve` it talks to) over the allowed cores, one core per
//! pass, and keep each input's best pass.

/// Bytes of a glibc `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restrict thread `tid` (0 = the calling thread) to `cpus`. Threads it
/// spawns afterwards inherit the restriction. Returns whether it took.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; SET_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < SET_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    let Ok(tid) = i32::try_from(tid) else {
        return false;
    };
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // call only changes scheduling of thread `tid`.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}
