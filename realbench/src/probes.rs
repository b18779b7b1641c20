//! Per-layer probes of the traced run: the every-`nt` sweep behind the
//! predictor's speedup and regret, and small timed loops over the pool,
//! the packing layer and the micro-kernel.

use crate::calls::{time_at, Buffers};
use crate::stats::{median, quantile};
use crate::workload::Call;
use adsala::Adsala;
use adsala_blas3::pack::{pack_a_panels, pack_b_panels, packed_a_len, packed_b_len, PackSrc};
use adsala_blas3::{Blas3Backend, Blas3Op, Float, Matrix, NativeBackend, ThreadPool, Transpose};
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats per `(call, nt)` in the sweep; the median is kept.
const SWEEP_REPS: usize = 3;

/// Totals of the every-`nt` sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    /// Σ t(max nt).
    pub t_max: f64,
    /// Σ (t(predicted nt) + t_eval).
    pub t_choice_eval: f64,
    /// Σ min over nt of t(nt).
    pub t_oracle: f64,
    /// Σ t(nt = 1).
    pub t_one: f64,
    /// Σ t(nt = 2), or t(1) on a one-thread host.
    pub t_two: f64,
    /// Uncached prediction times, seconds, one per call.
    pub eval_s: Vec<f64>,
}

impl Sweep {
    /// The paper's estimated speedup over max threads,
    /// Σt_max / Σ(t_choice + t_eval).
    pub fn speedup_vs_max(&self) -> f64 {
        self.t_max / self.t_choice_eval
    }

    /// Σ(t_choice + t_eval) / Σt_oracle.
    pub fn regret(&self) -> f64 {
        self.t_choice_eval / self.t_oracle
    }

    /// t(nt = 1) / t(nt = 2).
    pub fn scaling(&self) -> f64 {
        self.t_one / self.t_two
    }
}

/// Time every call at each candidate thread count, and the model's
/// uncached prediction for it.
pub fn sweep(rt: &Adsala, bufs: &mut Buffers, calls: &[Call]) -> Sweep {
    let nt_max = rt.backend().max_threads();
    let mut s = Sweep::default();
    for call in calls {
        let predictor = rt
            .predictor(call.routine)
            .expect("every benchmark routine is installed");
        let mut evals = Vec::with_capacity(SWEEP_REPS);
        let mut chosen = 1;
        for _ in 0..SWEEP_REPS {
            let t0 = Instant::now();
            chosen = black_box(predictor.predict_uncached(call.dims));
            evals.push(t0.elapsed().as_secs_f64());
        }
        let t_eval = median(&evals);
        let times: Vec<f64> = (1..=nt_max)
            .map(|nt| {
                let reps: Vec<f64> = (0..SWEEP_REPS)
                    .map(|_| time_at(rt, bufs, call, nt))
                    .collect();
                median(&reps)
            })
            .collect();
        s.eval_s.push(t_eval);
        s.t_max += times[nt_max - 1];
        s.t_choice_eval += times[chosen - 1] + t_eval;
        s.t_oracle += times.iter().cloned().fold(f64::INFINITY, f64::min);
        s.t_one += times[0];
        s.t_two += times[1.min(nt_max - 1)];
    }
    s
}

/// Median microseconds of one empty `run_team` at `nt` workers on the
/// pool the routines dispatch onto.
pub fn pool_dispatch_us(nt: usize) -> f64 {
    let batch = 200;
    let samples: Vec<f64> = (0..25)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                ThreadPool::run_team_current(nt, |team| {
                    black_box(team.tid);
                });
            }
            t0.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Median microseconds per barrier crossing inside one team of `nt`.
pub fn pool_barrier_us(nt: usize) -> f64 {
    let crossings = 500;
    let samples: Vec<f64> = (0..25)
        .map(|_| {
            let t0 = Instant::now();
            ThreadPool::run_team_current(nt, |team| {
                for _ in 0..crossings {
                    team.barrier();
                }
            });
            t0.elapsed().as_secs_f64() * 1e6 / crossings as f64
        })
        .collect();
    median(&samples)
}

/// GB/s of packing one A block and one B block at the f64 kernel's block
/// sizes, counting each element read once and written once (computed
/// bytes, not measured traffic).
pub fn pack_gbps() -> f64 {
    let k = <f64 as Float>::kernel();
    let a = Matrix::<f64>::from_fn(k.mc, k.kc, |i, j| (i + 3 * j) as f64);
    let b = Matrix::<f64>::from_fn(k.kc, k.nc, |i, j| (2 * i + j) as f64);
    let a_src = PackSrc::matrix(a.as_slice(), k.mc, Transpose::No, k.mc, k.kc);
    let b_src = PackSrc::matrix(b.as_slice(), k.kc, Transpose::No, k.kc, k.nc);
    let mut abuf = vec![0.0f64; packed_a_len(k.mr, k.mc, k.kc)];
    let mut bbuf = vec![0.0f64; packed_b_len(k.nr, k.kc, k.nc)];
    let bytes = 2.0 * 8.0 * (k.mc * k.kc + k.kc * k.nc) as f64;
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            pack_a_panels(
                k.mr,
                k.mc,
                k.kc,
                &a_src,
                0,
                0,
                0,
                k.mc.div_ceil(k.mr),
                &mut abuf,
            );
            pack_b_panels(
                k.nr,
                k.kc,
                k.nc,
                &b_src,
                0,
                0,
                0,
                k.nc.div_ceil(k.nr),
                &mut bbuf,
            );
            black_box((&abuf, &bbuf));
            bytes / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Serial dgemm GFLOP/s (order 256, through `NativeBackend` at `nt = 1`)
/// over this core's FMA peak.
pub fn kernel_peak_frac() -> f64 {
    let n = 256;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let b = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 5 + j) % 13) as f64 - 6.0);
    let mut c = Matrix::<f64>::zeros(n, n);
    let flops = 2.0 * (n * n * n) as f64;
    let rates: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            NativeBackend
                .execute(
                    1,
                    Blas3Op::Gemm {
                        transa: Transpose::No,
                        transb: Transpose::No,
                        alpha: 1.0,
                        a: a.as_ref(),
                        b: b.as_ref(),
                        beta: 0.0,
                        c: c.as_mut(),
                    },
                )
                .expect("a square gemm is well-formed");
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    quantile(&rates, 0.5) / fma_peak_gflops()
}

/// One core's double-precision FMA peak, GFLOP/s, from a loop of
/// independent vector FMAs (AVX2 where the CPU has it, else scalar
/// multiply-adds).
pub fn fma_peak_gflops() -> f64 {
    let iters = 2_000_000u64;
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let (sum, flops) = fma_loop(iters);
            black_box(sum);
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Accumulator chains: enough to cover two FMA pipes of latency 4-5.
const CHAINS: usize = 10;

fn fma_loop(iters: u64) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the CPU reports AVX2 and FMA, the features the function
        // is compiled for.
        let sum = unsafe { fma_avx2(iters) };
        return (sum, (iters / 64 * 64) as f64 * (CHAINS * 4 * 2) as f64);
    }
    let mut acc = [black_box(1.0f64); CHAINS];
    for _ in 0..iters / 64 {
        for _ in 0..64 {
            for r in acc.iter_mut() {
                *r = *r * 0.999_999 + 1e-6;
            }
        }
        acc = black_box(acc);
    }
    (
        acc.iter().sum(),
        (iters / 64 * 64) as f64 * (CHAINS * 2) as f64,
    )
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_pd(black_box(0.999_999));
    let b = _mm256_set1_pd(black_box(1e-6));
    let mut acc = [_mm256_set1_pd(black_box(1.0)); CHAINS];
    for _ in 0..iters / 64 {
        for _ in 0..64 {
            for r in acc.iter_mut() {
                *r = _mm256_fmadd_pd(*r, a, b);
            }
        }
        // Keep the chains opaque so the loop cannot be folded.
        acc = black_box(acc);
    }
    let mut sum = 0.0;
    for r in acc {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), r);
        sum += lanes.iter().sum::<f64>();
    }
    sum
}
