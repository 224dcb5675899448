//! Times at reference speed, so CPU-bound figures repeat on a shared host.
//!
//! On a host whose cores are shared with other tenants the speed of the
//! same code wanders by 2× and more over seconds to minutes, and the guest
//! sees none of it as steal: process CPU time grows with wall time. The
//! CPUs do not slow together, and the program's parallel steps wait for
//! the slowest. A figure timed on the wall clock then says more about the
//! neighbours than about the program. So one sampler thread per CPU,
//! pinned to it, times a fixed kernel of the benchmark's own code every
//! `SAMPLE_EVERY`; the host's speed around an operation is the mean over
//! the CPUs of each one's median kernel time around it. Each timed
//! operation's busy share — its process CPU time, at most its wall time —
//! is scaled by `REF_KERNEL_US` over that kernel time. The rest of the
//! operation (waiting on a timer, a socket, a schedule) is kept as
//! measured. Figures read as the time the operation would take on a host
//! whose CPUs each run the kernel in `REF_KERNEL_US`; the wall-clock
//! figures are printed beside them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kernel time that defines reference speed, µs.
const REF_KERNEL_US: f64 = 500.0;
const SAMPLE_EVERY: Duration = Duration::from_millis(40);
/// Samples within this much of an operation set its speed.
const WINDOW: Duration = Duration::from_secs(1);
/// Fewest samples a speed is read from; the nearest ones are taken when
/// the window holds fewer.
const MIN_SAMPLES: usize = 5;
const KERNEL_LEN: usize = 8192;

/// Mixed integer work like the engine's: generate, hash-aggregate, sort.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..KERNEL_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut groups: HashMap<u64, u64> = HashMap::new();
    for &k in &v {
        *groups.entry(k % 1024).or_default() += k >> 32;
    }
    v.sort_unstable();
    v[KERNEL_LEN / 2] ^ groups.values().sum::<u64>()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `cpu_set_t`: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu`.
fn pin(cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// CPU time of the whole process so far, all threads.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// One timed operation: when it started, how long it took, and the CPU
/// time the process spent meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub wall: Duration,
    pub cpu: Duration,
}

/// Times an operation from `start()` to `stop()`.
pub struct Stopwatch {
    start: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let cpu = process_cpu();
        Stopwatch {
            start: Instant::now(),
            cpu,
        }
    }

    pub fn stop(&self) -> Timing {
        let wall = self.start.elapsed();
        Timing {
            start: self.start,
            wall,
            cpu: process_cpu().saturating_sub(self.cpu),
        }
    }
}

/// The kernel-time samples of one run, per CPU.
pub struct Speed {
    cpus: Vec<usize>,
    samples: Vec<Mutex<Vec<(Instant, f64)>>>,
    stop: AtomicBool,
}

/// Stops the sampler when dropped, so it ends on every way out of a run.
pub struct StopGuard<'a>(&'a Speed);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
    }
}

impl Speed {
    pub fn new() -> Speed {
        let mut cpus = allowed_cpus();
        if cpus.is_empty() {
            // Affinity unknown: one unpinned sampler.
            cpus.push(usize::MAX);
        }
        Speed {
            samples: cpus.iter().map(|_| Mutex::new(Vec::new())).collect(),
            cpus,
            stop: AtomicBool::new(false),
        }
    }

    /// One sampler per CPU; run each on its own thread.
    pub fn samplers(&self) -> usize {
        self.cpus.len()
    }

    pub fn guard(&self) -> StopGuard<'_> {
        StopGuard(self)
    }

    /// Sampler `i`: pin to its CPU, then time the kernel every
    /// `SAMPLE_EVERY` until stopped.
    pub fn sample(&self, i: usize) {
        if self.cpus[i] != usize::MAX && !pin(self.cpus[i]) {
            eprintln!(
                "e2ebench: could not pin a speed sampler to CPU {}",
                self.cpus[i]
            );
        }
        while !self.stop.load(Ordering::Acquire) {
            let t = Instant::now();
            std::hint::black_box(kernel());
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            self.samples[i].lock().expect("speed samples").push((t, us));
            std::thread::sleep(SAMPLE_EVERY);
        }
    }

    /// Kernel time around `[a, b]`, µs: the mean over the CPUs of each
    /// one's median.
    fn kernel_us(&self, a: Instant, b: Instant) -> Option<f64> {
        let per_cpu: Vec<f64> = (0..self.samplers())
            .filter_map(|i| self.cpu_kernel_us(i, a, b))
            .collect();
        (!per_cpu.is_empty()).then(|| per_cpu.iter().sum::<f64>() / per_cpu.len() as f64)
    }

    /// Median kernel time of CPU `i` around `[a, b]`, µs.
    fn cpu_kernel_us(&self, i: usize, a: Instant, b: Instant) -> Option<f64> {
        let samples = self.samples[i].lock().expect("speed samples");
        let (lo, hi) = (a.checked_sub(WINDOW).unwrap_or(a), b + WINDOW);
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 >= lo && s.0 <= hi)
            .map(|s| s.1)
            .collect();
        if v.len() < MIN_SAMPLES {
            let mid = a + (b - a) / 2;
            let dist = |t: Instant| t.max(mid) - t.min(mid);
            let mut near: Vec<&(Instant, f64)> = samples.iter().collect();
            near.sort_by_key(|s| dist(s.0));
            v = near.iter().take(MIN_SAMPLES).map(|s| s.1).collect();
        }
        crate::stats::median(&v)
    }

    /// Seconds `t` would have taken at reference speed.
    pub fn at_ref(&self, t: &Timing) -> f64 {
        let wall = t.wall.as_secs_f64();
        let busy = t.cpu.as_secs_f64().min(wall);
        let factor = self
            .kernel_us(t.start, t.start + t.wall)
            .map_or(1.0, |k| REF_KERNEL_US / k);
        wall - busy + busy * factor
    }

    /// Median kernel time over the whole run per CPU, µs, and samples
    /// taken.
    pub fn summary(&self) -> (Vec<f64>, usize) {
        let mut n = 0;
        let medians = self
            .samples
            .iter()
            .map(|s| {
                let v: Vec<f64> = s
                    .lock()
                    .expect("speed samples")
                    .iter()
                    .map(|s| s.1)
                    .collect();
                n += v.len();
                crate::stats::median(&v).unwrap_or(0.0)
            })
            .collect();
        (medians, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_at(kernel_us: [f64; 2], at: Instant) -> Speed {
        let speed = Speed {
            cpus: vec![0, 1],
            samples: vec![Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            stop: AtomicBool::new(false),
        };
        for (cpu, us) in kernel_us.into_iter().enumerate() {
            let mut s = speed.samples[cpu].lock().unwrap();
            s.extend((0..MIN_SAMPLES).map(|_| (at, us)));
        }
        speed
    }

    #[test]
    fn busy_share_is_scaled_and_waiting_kept() {
        let t0 = Instant::now();
        // The CPUs run the kernel at half and at a quarter of reference
        // speed: a mean of 2.5x the reference time.
        let speed = speed_at([2.0 * REF_KERNEL_US, 3.0 * REF_KERNEL_US], t0);
        let t = Timing {
            start: t0,
            wall: Duration::from_millis(100),
            cpu: Duration::from_millis(50),
        };
        assert!((speed.at_ref(&t) - (0.050 + 0.050 / 2.5)).abs() < 1e-9);
        // Parallel work: CPU time past wall time counts as all busy.
        let t = Timing {
            cpu: Duration::from_millis(180),
            ..t
        };
        assert!((speed.at_ref(&t) - 0.100 / 2.5).abs() < 1e-9);
    }
}
