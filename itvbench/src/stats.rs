//! Sample statistics and whole-process probes (CPU time, peak RSS,
//! allocation count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Nearest-rank percentile of `xs` (`q` in 0..=1). `xs` need not be
/// sorted; an empty slice yields 0.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 0.5)
}

/// Microsecond samples as milliseconds.
pub fn us_to_ms(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|&u| u as f64 / 1000.0).collect()
}

/// Microsecond samples as `f64` microseconds.
pub fn us(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|&u| u as f64).collect()
}

/// Process CPU time (user + system) in microseconds, from
/// `/proc/self/stat` (clock-tick resolution).
pub fn cpu_time_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field n is index n - 3.
    (ticks(11) + ticks(12)) * 10_000
}

/// Peak resident set size in MiB, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The system allocator, counting allocations while [`count_allocs`] is
/// on. The cluster runs in this process, so server-side allocations are
/// counted too.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off (traced runs only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A small deterministic generator (SplitMix64) for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// An exponentially distributed gap with mean `mean_us` microseconds:
    /// the next inter-arrival time of a Poisson process.
    pub fn exp_gap(&mut self, mean_us: f64) -> std::time::Duration {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        std::time::Duration::from_micros((-(1.0 - u).ln() * mean_us) as u64)
    }
}
