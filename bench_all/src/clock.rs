//! What the end-to-end timings are read from, and the state the machine is
//! held in while they are read.
//!
//! The sandbox is a two-vCPU guest on a shared host, and ten 20-s runs of one
//! commit on the wall clock read a median `exec_small` round of 0.55 ms with
//! quartiles 38 % apart and a p90 seven times the median.  Two things did
//! that, and each has its own remedy here.
//!
//! **Time the process did not run.**  Wall time counts every slice another
//! process of the guest took and every moment the hypervisor gave the vCPU to
//! another guest (steal).  Every measured loop of this benchmark is one
//! thread that never blocks (the lockstep driver spins, the simulator
//! computes), so on a quiet machine its CPU time *is* its wall time, and on a
//! busy one its CPU time is what the run would have taken undisturbed: the
//! kernel's task clock excludes preemption and, through the paravirtual
//! steal clock, time stolen by the host.  Timings are therefore read from
//! [`Stopwatch::cpu_ns`]; the wall time of the same iterations is reported
//! beside them as `bench.wall_over_cpu`.
//!
//! **The other hardware thread.**  See [`Companion`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const THREAD_CPUTIME: i32 = 3;

extern "C" {
    // From the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU time the calling thread has used, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Reads both clocks over one stretch of the calling thread's work.
pub struct Stopwatch {
    cpu: u64,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu: cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// CPU nanoseconds since `start`.
    pub fn cpu_ns(&self) -> f64 {
        (cpu_ns() - self.cpu) as f64
    }

    /// Wall nanoseconds since `start`.
    pub fn wall_ns(&self) -> f64 {
        self.wall.elapsed().as_nanos() as f64
    }
}

/// Set while a measurement that runs threads of its own wants the
/// companion out of the way.
static PAUSED: AtomicBool = AtomicBool::new(false);

/// A thread that keeps the machine's other processor busy while a run is
/// measured.
///
/// With the second vCPU idle, the measured thread ran in one of two states
/// for seconds at a time, whichever the host chose: one commit's
/// `exec_small` round read 0.41 ms or 0.52 ms of CPU time, and whole runs
/// landed on either side (ten runs: quartiles 16 % apart).  With the second
/// vCPU spinning the fast state all but disappears — eight runs of each kind,
/// taken in turn: quartiles 6.7 % apart without the companion, 2.4 % with
/// it — so every run measures the one state the benchmark can hold the
/// machine in.  Pinning the two threads to a vCPU each brought the two
/// states back (15.9 %), so they are left to the scheduler.
///
/// The companion takes no lock, touches 32 KiB, and ends when dropped.  The
/// thread clock leaves its CPU time out of every timing.
pub struct Companion {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Companion {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // Integer arithmetic and first-level-cache loads, like the
            // interpreters and servers a neighbour would be running.
            let mut table = [0u64; 4096];
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            while !seen.load(Ordering::Relaxed) {
                if PAUSED.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                for _ in 0..4096 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let slot = (x >> 52) as usize;
                    table[slot] = table[slot].wrapping_mul(31).wrapping_add(x);
                }
                std::hint::black_box(&mut table);
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Companion {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic; a failed join has nothing to report.
            let _ = thread.join();
        }
    }
}

/// Run `body`, which starts threads of its own, with any companion asleep:
/// a third busy thread on two processors would measure the scheduler.
pub fn without_companion<T>(body: impl FnOnce() -> T) -> T {
    PAUSED.store(true, Ordering::Relaxed);
    // Long enough for the companion to notice.
    std::thread::sleep(Duration::from_millis(2));
    let out = body();
    PAUSED.store(false, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(50));
        let slept_cpu = watch.cpu_ns();
        assert!(watch.wall_ns() >= 50e6);
        assert!(slept_cpu < 25e6, "sleeping cost {slept_cpu} ns of CPU");

        let watch = Stopwatch::start();
        let mut x = 1u64;
        while watch.wall_ns() < 20e6 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spun_cpu = watch.cpu_ns();
        // Spinning is CPU time, unless the machine gave the core away.
        assert!(spun_cpu > 0.0 && spun_cpu <= watch.wall_ns() * 1.5);
    }

    #[test]
    fn a_companion_costs_the_measuring_thread_no_cpu_time_and_ends_when_dropped() {
        let watch = Stopwatch::start();
        let companion = Companion::start();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(without_companion(|| 7), 7);
        drop(companion);
        // The companion spun for 30 ms; this thread slept.
        assert!(watch.cpu_ns() < 15e6);
    }
}
