//! CPU clocks. On a shared 2-vCPU x86-64 host the hypervisor took the
//! benchmark's virtual CPUs away for stretches (steal time: from none
//! to more than the CPU time the benchmark itself used, changing from
//! minute to minute), which stretched the serve workloads' wall-clock
//! figures by up to 2x from one run to the next. CPU time is charged
//! only while a thread actually runs, so the gated figures are CPU
//! times. CPU time still follows how fast the host runs a CPU at the
//! moment: in ten-run sets its quartile spread was 2 to 16% of the
//! median, where the open-loop p50 latency's reached 23%.

/// CPU seconds used so far by all threads of this process.
#[must_use]
pub fn process_s() -> f64 {
    imp::read(imp::PROCESS)
}

/// CPU seconds used so far by the calling thread.
#[must_use]
pub fn thread_s() -> f64 {
    imp::read(imp::THREAD)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }

    pub fn read(clock: i32) -> f64 {
        // `struct timespec` on 64-bit Linux: seconds, then nanoseconds.
        let mut ts = [0i64; 2];
        // SAFETY: `ts` is a live local with the layout of `struct
        // timespec`, and both clock ids exist on every Linux kernel.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts[0] as f64 + ts[1] as f64 * 1e-9
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    //! Elsewhere the CPU clocks fall back to wall time since start.
    use std::sync::OnceLock;
    use std::time::Instant;

    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 0;

    pub fn read(_clock: i32) -> f64 {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

/// User plus system CPU seconds of a reaped child, from its `rusage`.
#[must_use]
pub fn rusage_s(usage: &[i64; 18]) -> f64 {
    // Two `struct timeval`s: ru_utime, then ru_stime.
    (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_s() > p0);
        assert!(thread_s() > t0);
    }
}
