//! Best-effort CPU affinity for worker threads.
//!
//! Pinning is a wall-clock-only knob behind
//! [`DiskConfig::pin_workers`](crate::DiskConfig::pin_workers): drive
//! workers ask to stay on one core so large-λ, large-`D` sweeps measure
//! transfer overlap instead of scheduler migrations. The request is
//! advisory — on platforms without thread affinity, or when the kernel
//! refuses (cpuset restrictions, sandboxes), the thread simply runs
//! unpinned. Nothing behavioural may depend on the outcome, which is why
//! the helper returns a `bool` nobody is required to check.
//!
//! The Linux implementation calls `sched_setaffinity(2)` directly through
//! the C library `std` already links; no external crate is involved.

/// Linux `sched_setaffinity` FFI: a `cpu_set_t` is a fixed 1024-bit mask
/// (128 bytes) on glibc and musl alike.
#[cfg(target_os = "linux")]
mod sys {
    /// 1024 CPUs — the glibc `CPU_SETSIZE` default.
    pub const SETSIZE_WORDS: usize = 1024 / 64;

    extern "C" {
        /// `pid == 0` targets the calling thread.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Best-effort pin the calling thread to `core` (modulo the mask size).
/// Returns whether the kernel accepted the request; `false` (unsupported
/// platform, restricted cpuset, core out of range) leaves the thread
/// unpinned and is always safe to ignore.
#[cfg(target_os = "linux")]
pub(crate) fn pin_thread_to_core(core: usize) -> bool {
    let mut mask = [0u64; sys::SETSIZE_WORDS];
    let bit = core % (sys::SETSIZE_WORDS * 64);
    mask[bit / 64] = 1u64 << (bit % 64);
    // SAFETY: the mask is a valid, live 128-byte buffer and pid 0 is the
    // calling thread; the call writes nothing through the pointer.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Best-effort pin the calling thread to `core` — no-op on platforms
/// without thread affinity (always returns `false`).
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_thread_to_core(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_never_panics_and_work_proceeds_either_way() {
        // The kernel may refuse (sandboxed cpuset); either outcome is fine.
        let _ = pin_thread_to_core(0);
        let _ = pin_thread_to_core(usize::MAX); // wraps into the mask
        let t = std::thread::spawn(|| {
            pin_thread_to_core(1);
            21u64 * 2
        });
        assert_eq!(t.join().unwrap(), 42);
    }
}
