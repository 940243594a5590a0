//! Process-level readings: CPU pinning, CPU time and peak memory.
//!
//! Everything here reads Linux `/proc` files or calls glibc directly, so the
//! benchmark needs no crate outside the repository.

use std::fs;

/// Affinity mask words: room for 1024 CPUs, glibc's default `cpu_set_t`.
const MASK_WORDS: usize = 16;
/// `clockid_t` of the calling process's CPU-time clock on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPUs this process may run on (read before any pinning).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the calling thread to the highest-numbered CPU it may use. Threads
/// it spawns afterwards inherit the mask, so calling this first thing in
/// `main` confines the client and every server thread to one CPU. Returns
/// the CPU, or `None` if the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).rev().find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// User plus system CPU time of the whole process, in milliseconds. This
/// is the sum `/proc/self/stat` reports in clock ticks (fields 14 and 15),
/// read from the process CPU-time clock at nanosecond resolution so that
/// sub-second windows can be measured.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two `long`s on 64-bit
    // Linux), which is all `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
