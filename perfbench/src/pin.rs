//! Pin the process to one CPU before the service starts its worker.
//!
//! In the closed loop the client waits while the worker runs, and the
//! worker waits while the client runs, so one core serves both. On one
//! core each of a request's two thread handoffs is a context switch on a
//! CPU that is already running. Across two cores each handoff has to wake
//! the other, idle, virtual CPU. On a shared host that wake-up waits for
//! the hypervisor and adds millisecond outliers. On a 2-vCPU VM under
//! host load, serve_unique p99 read 350–407 µs pinned against 418–864 µs
//! unpinned, over 4 interleaved pairs. Threads inherit the mask, so
//! pinning the main thread first pins the worker too.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask: room for 1024 CPUs, the size glibc's `cpu_set_t`
/// uses.
const MASK_WORDS: usize = 16;

/// Restrict this process to the lowest-numbered CPU it may run on and
/// return that CPU. Returns `None` if an affinity call fails, and the run
/// then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}
