//! Three frozen reference kernels that measure the host, not the
//! program: they call no repository code, so a change to the crates
//! cannot move them, and what does move them — a noisy neighbour, a
//! slower or faster machine — is divided out of every time metric.
//!
//! The kernels and their nominal constants are frozen: editing either
//! rescales every recorded baseline.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Floors of the kernels on the reference host (2 shared cores), in ms.
/// `host.factor` is the geomean of measured floor over these.
pub const CPU_NOMINAL_MS: f64 = 4.8;
/// See [`CPU_NOMINAL_MS`].
pub const CHASE_NOMINAL_MS: f64 = 12.8;
/// See [`CPU_NOMINAL_MS`].
pub const STREAM_NOMINAL_MS: f64 = 4.75;

const CPU_STEPS: u64 = 2_500_000;
const CHASE_STEPS: usize = 100_000;
/// 8 Mi `u32` entries = 32 MB: larger than any cache on the hosts we
/// run on, so the chase is bound by memory latency and the sum by
/// memory bandwidth.
const ARRAY_LEN: usize = 8 << 20;

/// One xorshift64 step; also the benchmark's only random source.
pub fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The three kernel times of one round, in ms.
#[derive(Debug, Clone, Copy)]
pub struct KernelSample {
    /// Dependent xorshift loop: core clock and nothing else.
    pub cpu: f64,
    /// Pointer chase over a single-cycle permutation: memory latency.
    pub chase: f64,
    /// Sequential sum of the same array: memory bandwidth.
    pub stream: f64,
}

/// Owns the 32 MB array the memory kernels walk.
pub struct Host {
    next: Vec<u32>,
    cursor: Cell<u32>,
}

impl Default for Host {
    fn default() -> Self {
        Self::new()
    }
}

impl Host {
    /// Builds the single-cycle permutation (Sattolo's shuffle from a
    /// fixed seed, so every process walks the same cycle).
    pub fn new() -> Host {
        let mut next: Vec<u32> = (0..ARRAY_LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ARRAY_LEN).rev() {
            state = xorshift(state);
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Host {
            next,
            cursor: Cell::new(0),
        }
    }

    fn cpu_kernel() -> f64 {
        let start = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..CPU_STEPS {
            x = xorshift(x);
        }
        black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Continues from where the previous chase stopped, so no call
    /// finds its path in cache.
    fn chase_kernel(&self) -> f64 {
        let start = Instant::now();
        let mut at = self.cursor.get();
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.cursor.set(black_box(at));
        start.elapsed().as_secs_f64() * 1e3
    }

    fn stream_kernel(&self) -> f64 {
        let start = Instant::now();
        let sum: u64 = self.next.iter().map(|&v| u64::from(v)).sum();
        black_box(sum);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Times the three kernels once each.
    pub fn sample(&self) -> KernelSample {
        KernelSample {
            cpu: Self::cpu_kernel(),
            chase: self.chase_kernel(),
            stream: self.stream_kernel(),
        }
    }
}

/// The host factor: geomean of the three kernel floors over their
/// nominal constants. Above 1 the host is slower than the reference.
pub fn factor(cpu_floor: f64, chase_floor: f64, stream_floor: f64) -> f64 {
    crate::stats::geomean(&[
        cpu_floor / CPU_NOMINAL_MS,
        chase_floor / CHASE_NOMINAL_MS,
        stream_floor / STREAM_NOMINAL_MS,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_one_at_nominal_and_scales_as_a_geomean() {
        assert!((factor(CPU_NOMINAL_MS, CHASE_NOMINAL_MS, STREAM_NOMINAL_MS) - 1.0).abs() < 1e-12);
        // One kernel 8x slower moves the factor by the cube root.
        let f = factor(8.0 * CPU_NOMINAL_MS, CHASE_NOMINAL_MS, STREAM_NOMINAL_MS);
        assert!((f - 2.0).abs() < 1e-12);
        let all = factor(
            1.5 * CPU_NOMINAL_MS,
            1.5 * CHASE_NOMINAL_MS,
            1.5 * STREAM_NOMINAL_MS,
        );
        assert!((all - 1.5).abs() < 1e-12);
    }

    #[test]
    fn xorshift_is_a_fixed_sequence() {
        assert_eq!(xorshift(1), 0x4082_2041);
        assert_ne!(xorshift(2), xorshift(3));
    }
}
