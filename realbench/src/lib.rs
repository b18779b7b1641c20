//! Real-host benchmark of the ADSALA stack.
//!
//! One binary (`src/main.rs`) installs thread-count models on this host
//! through `RealTimer<NativeBackend>`, then replays a named workload
//! against the public API of `adsala`, `adsala_blas3` and `adsala_serve`
//! and prints every metric by name and unit. See `README.md` for the
//! workload and metric tables.
//!
//! The library half holds everything the benchmark's own tests check:
//! seeded stream generation ([`workload`]), the metric catalogue
//! ([`metrics`]) and the span recorder ([`trace`]).

pub mod calls;
pub mod install;
pub mod metrics;
pub mod operands;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

/// SplitMix64: the benchmark's only random source, so one seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated from the raw value.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE0C_4A11_D00D)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}
