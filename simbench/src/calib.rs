//! Host-speed calibration: a fixed pointer chase timed beside every
//! measured call, so host metrics can be scaled to one host speed.
//!
//! The host alternates between a fast and a slow speed as other tenants
//! load it (README.md, "How a host metric is summarised"). The simulator
//! slows by 1.6–1.9 times in the slow phases; a dependent walk over a
//! 64 KB random cycle, which lives in L2, slows by 1.4–1.5 times in the
//! same phases. Dividing by its speed leaves about a fifth of the swing.
//! The walk is the benchmark's own code, so no change to the simulator
//! moves it.

use std::hint::black_box;
use std::time::Instant;

/// Entries in the cycle: 64 KB of `u32`.
const ENTRIES: usize = 16 * 1024;
/// Steps per measurement: a few milliseconds.
const STEPS: usize = 1_000_000;
/// The walk's speed, in steps per second, that scales to a factor of 1:
/// its speed in the fast phase of the 2-CPU host the README's figures
/// come from. Scaled host metrics read as if measured at that speed.
pub const REFERENCE_STEPS_PER_S: f64 = 3.4e8;

/// A single random cycle through `ENTRIES` slots, fixed for every run.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    /// Builds the cycle with Sattolo's shuffle from a fixed seed.
    pub fn new() -> Calibration {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibration { next }
    }

    /// The host's speed now, relative to `REFERENCE_STEPS_PER_S`.
    ///
    /// One walk, on the calling thread, also for a stage that runs on
    /// several threads: two walks started together on the host's two
    /// CPUs read twofold apart, so they measure each other and the
    /// scheduler rather than the host.
    pub fn speed(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        STEPS as f64 / start.elapsed().as_secs_f64() / REFERENCE_STEPS_PER_S
    }

    /// Runs `f` between two measurements and returns its result with the
    /// geometric mean of their speeds.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.speed();
        let value = f();
        let after = self.speed();
        (value, (before * after).sqrt())
    }
}
