//! A fixed reference computation, timed between rounds to read how fast
//! the host is running at that moment.
//!
//! The measuring host is shared, and other tenants slow it down by up to
//! 1.9x for minutes at a time. A slice of this kernel runs at every round
//! start, and the campaign's time is divided by the slices' slowdown.
//!
//! A slice first reads its whole table in an untimed sequential pass, then
//! times random accesses over it. After that pass the timed part does not
//! depend on what the campaign left in the cache, so two builds measured
//! under the same host load are divided by the same factor, whatever that
//! factor is. Without the pass, the timed part read the campaign's own
//! cache footprint as host load: a 4 MiB walk injected before the slice
//! slowed cold slices by 1.3–2.7%, and warmed ones not at all. See
//! `perfbench/README.md`.

use std::hint::black_box;
use std::time::Instant;

/// The timed part of one slice on the undisturbed host the benchmark was
/// tuned on (2-vCPU Intel Xeon VM): about the fastest campaign's mean
/// slice. Corrected times are host times scaled to that speed.
pub const UNDISTURBED_SLICE_SECONDS: f64 = 20.0e-6;

/// Host load slows the campaigns more than the kernel, whose table sits
/// in L2: a campaign's time grows as the kernel's slowdown to this power.
/// Fitted over the 108–131 campaigns per workload of ten 25 s runs, the
/// power was 1.71 (`hfl_rocket`), 1.81 (`cascade_cva6`) and 1.68
/// (`goldenfuzz_mhart`).
pub const HOST_EXPONENT: f64 = 1.75;

/// Random reads and writes over a 256 KiB table with data-dependent
/// branches: sensitive to the cache and branch-predictor contention a
/// neighbour causes, like the simulator and the learners. The table fits
/// in L2, so once warmed, what the campaign did before does not matter.
pub struct Reference {
    table: Vec<u64>,
    x: u64,
}

impl Default for Reference {
    /// The table starts out random. Started uniform, its branches would be
    /// predictable at first and the slices would slow down as the kernel
    /// randomises the table: a fresh kernel's first slices read 5 µs
    /// where a settled one reads 15 µs on the same host.
    fn default() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..1 << 15)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference { table, x }
    }
}

impl Reference {
    /// Runs one slice: warms the table, then times the kernel. Returns
    /// the timed seconds and the seconds of the whole slice.
    pub fn slice(&mut self) -> (f64, f64) {
        let warm_start = Instant::now();
        black_box(self.table.iter().fold(0, |acc, &v| acc ^ v));
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = self.x;
        for i in 0..1500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            let v = self.table[j];
            self.table[j] = match v & 3 {
                0 => v.wrapping_add(i),
                1 => v ^ x,
                2 => v.rotate_left(7),
                _ => v.wrapping_mul(3),
            };
        }
        self.x = black_box(x);
        (
            start.elapsed().as_secs_f64(),
            warm_start.elapsed().as_secs_f64(),
        )
    }
}

/// How much slower than undisturbed a campaign ran, from `count` slices
/// that took `seconds` in total (1 when there are none).
pub fn slowdown(seconds: f64, count: usize) -> f64 {
    if count == 0 {
        1.0
    } else {
        (seconds / count as f64 / UNDISTURBED_SLICE_SECONDS).powf(HOST_EXPONENT)
    }
}
