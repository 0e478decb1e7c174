//! Pins the whole process to one CPU.
//!
//! On a shared VM the cost of waking a thread on *another* vCPU is set by
//! the hypervisor, not by the program: on the 2-vCPU box this benchmark
//! was sized on, the `serve` tick-to-mirror p50 read 195 µs, 375 µs and
//! 600 µs within one hour unpinned, and 200–207 µs on every run pinned
//! (five runs each, interleaved). With one CPU every thread handoff of the
//! service is a context switch on that CPU. The loops are closed with one
//! outstanding tick, so there is no parallelism for the pin to take away;
//! threads the service spawns inherit the mask.

/// 1024 CPUs, the size glibc's `cpu_set_t` has.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling process to the lowest-numbered CPU it is allowed
/// on, and returns that CPU (`None` when the platform has no such call or
/// the kernel refused; the run then goes on unpinned and says so).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable, `size`-byte buffer for the
    // duration of the call, which is all sched_getaffinity(2) requires;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|w| *w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `size`-byte buffer the kernel only reads.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
