//! Host-speed probe. The benchmark host is shared, and its speed drifts
//! by up to 2× over seconds to minutes as neighbours come and go, which
//! would swamp any change to the simulator. A short fixed kernel —
//! random updates to a 16 MiB table plus binary-heap traffic, the
//! simulator's memory and event-queue pattern — runs only while the code
//! under test is idle: between batch cells, and in the open loop while
//! no cell is outstanding. Its cost against [`NOMINAL_NS_PER_OP`]
//! rescales host times to the host the benchmark was defined on.
//!
//! The probe is timed in thread CPU time, so a probe that is preempted
//! still reads the host's speed rather than its load.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe cost in thread-CPU ns per operation on the defining host in
/// its fast state: the unit every rescaled time is expressed in.
pub const NOMINAL_NS_PER_OP: f64 = 130.0;

/// Operations per probe (about 1 ms).
const OPS: u32 = 8_000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, ns.
fn thread_cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// The probe's state, built once and reused so every probe measures the
/// same warm kernel.
pub struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    x: u64,
}

impl Default for Probe {
    fn default() -> Self {
        let mut p = Probe {
            table: vec![0; 2 << 20],
            heap: BinaryHeap::with_capacity(2048),
            x: 0x9e37_79b9_7f4a_7c15,
        };
        for i in 0..1024u64 {
            p.heap.push(Reverse(i.wrapping_mul(0x2545_f491_4f6c_dd1d)));
        }
        p.measure();
        p
    }
}

impl Probe {
    /// Runs the kernel once; returns its cost in ns per operation.
    fn measure(&mut self) -> f64 {
        let mask = self.table.len() as u64 - 1;
        let start = thread_cpu_ns();
        let mut x = self.x;
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            let j = ((x >> 32) & mask) as usize;
            self.table[i] = self.table[i].wrapping_add(self.table[j] ^ x);
            self.heap.push(Reverse(x >> 20));
            let Reverse(top) = self.heap.pop().expect("the heap is never empty");
            x = x.wrapping_add(top);
        }
        self.x = black_box(x);
        (thread_cpu_ns() - start) / f64::from(OPS)
    }

    /// How fast the host runs now relative to the defining host:
    /// `NOMINAL_NS_PER_OP / measured`. Host seconds times this factor
    /// are seconds on the defining host.
    pub fn speed(&mut self) -> f64 {
        NOMINAL_NS_PER_OP / self.measure()
    }
}

/// Maps host instants to seconds on the defining host: piecewise linear
/// in host time, taking a new slope (the host speed) at every retune.
#[derive(Clone, Debug)]
pub struct HostClock {
    /// `(anchor, defining-host seconds at the anchor, speed after it)`.
    segments: Vec<(Instant, f64, f64)>,
}

impl HostClock {
    /// A clock reading 0 at `start` and running at `speed`.
    pub fn new(start: Instant, speed: f64) -> Self {
        HostClock {
            segments: vec![(start, 0.0, speed)],
        }
    }

    fn segment(&self, t: Instant) -> (Instant, f64, f64) {
        let i = self.segments.partition_point(|s| s.0 <= t);
        self.segments[i.max(1) - 1]
    }

    /// Defining-host seconds at `t` (0 before the start).
    pub fn at(&self, t: Instant) -> f64 {
        let (anchor, v, speed) = self.segment(t);
        v + t.saturating_duration_since(anchor).as_secs_f64() * speed
    }

    /// The host speed in force at `t`.
    pub fn speed_at(&self, t: Instant) -> f64 {
        self.segment(t).2
    }

    /// When the clock reads (or, past the last retune, will read) `v`.
    pub fn instant_of(&self, v: f64) -> Instant {
        let i = self.segments.partition_point(|s| s.1 <= v);
        let (anchor, va, speed) = self.segments[i.max(1) - 1];
        anchor + Duration::from_secs_f64(((v - va) / speed).max(0.0))
    }

    /// Continues from `now` at `speed`.
    pub fn retune(&mut self, now: Instant, speed: f64) {
        let v = self.at(now);
        self.segments.push((now, v, speed));
    }

    /// Mean speed over the retunes.
    pub fn mean_speed(&self) -> f64 {
        self.segments.iter().map(|s| s.2).sum::<f64>() / self.segments.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_each_speed_from_its_retune() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut c = HostClock::new(t0, 0.5);
        c.retune(at(100), 2.0);
        assert!((c.at(at(100)) - 0.05).abs() < 1e-9);
        assert!((c.at(at(150)) - 0.15).abs() < 1e-9);
        assert!((c.at(at(50)) - 0.025).abs() < 1e-9, "before the retune");
        assert_eq!(c.speed_at(at(50)), 0.5);
        assert_eq!(c.speed_at(at(200)), 2.0);
        assert_eq!(c.instant_of(0.25), at(200));
        assert_eq!(c.instant_of(0.025), at(50), "inside the first segment");
        assert_eq!(c.mean_speed(), 1.25);
    }

    #[test]
    fn probe_reads_a_positive_finite_speed() {
        let mut p = Probe::default();
        let s = p.speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn thread_cpu_time_advances_with_work_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(20));
        let slept = thread_cpu_ns() - t0;
        assert!(slept < 10e6, "sleeping used {slept} ns of CPU");
        let t1 = thread_cpu_ns();
        black_box(Probe::default().measure());
        assert!(thread_cpu_ns() > t1);
    }
}
