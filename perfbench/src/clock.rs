//! The host clock: this thread's CPU time.
//!
//! Every host figure the benchmark reports is read from this clock rather
//! than from wall time. The machines it runs on share their cores, and the
//! scheduler regularly takes the benchmark's thread off its CPU for one to
//! twenty milliseconds; on wall time those pauses land on whichever op was
//! running and set the p99. CPU time counts only the time the code ran.
//! All workloads are single-threaded, so the thread's time is the run's.

/// A reading of the host clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HostInstant(u64);

impl HostInstant {
    /// The current reading.
    pub fn now() -> Self {
        HostInstant(thread_cpu_ns())
    }

    /// Nanoseconds from `earlier` to this reading.
    pub fn ns_since(self, earlier: HostInstant) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Seconds since this reading.
    pub fn elapsed_s(self) -> f64 {
        HostInstant::now().ns_since(self) as f64 / 1e9
    }

    /// Microseconds since this reading.
    pub fn elapsed_us(self) -> f64 {
        HostInstant::now().ns_since(self) as f64 / 1e3
    }
}

/// `CLOCK_THREAD_CPUTIME_ID` in ns.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec of the platform's layout.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is unavailable");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// Elsewhere, wall time since the first reading.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn counts_work_but_not_sleep() {
        let start = HostInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = start.elapsed_s();
        let busy = HostInstant::now();
        let mut x = 0u64;
        while busy.elapsed_s() < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 0.02, "sleeping took {slept} s of CPU");
        assert!(busy.elapsed_s() >= 0.02);
    }
}
