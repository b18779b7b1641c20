//! General matrix-matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
//!
//! Parallel strategy: one **cooperative macro-kernel** region
//! ([`gemm_cooperative`]) — the whole team walks the same cache-block
//! schedule, jointly packs one shared B panel per `(jc, pc)` iteration and
//! one shared A block per `ic` iteration, then splits the macro-kernel's
//! register-tile loop. Shared operands are packed once per block instead of once per
//! worker (the old per-thread-chunk strategy re-packed all of A `nt` times
//! when splitting columns), and the tile split stays balanced at thread
//! counts where per-worker C chunks would go ragged.
//!
//! The pre-cooperative driver is kept as [`gemm_chunked`] so benches and
//! parity tests can race the two strategies.
//!
//! Within the backend seam this module is the kernel level: the wide
//! slice-signature entry point below is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for a validated
//! [`Blas3Op::Gemm`](crate::call::Blas3Op) description.

use crate::arena;
use crate::kernel::{gemm_cooperative, scale_block, shared_pack_lens, SharedPack};
use crate::matrix::{check_operand, Matrix};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::{Float, Transpose};

/// Slice-based GEMM with explicit leading dimensions and thread count.
///
/// Computes `C = alpha * op(A) * op(B) + beta * C` where `op(A)` is
/// `m x k` and `op(B)` is `k x n`, using exactly `nt` threads.
///
/// # Panics
/// If any leading dimension or slice length is inconsistent with the shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Float>(
    nt: usize,
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let (ar, ac) = match transa {
        Transpose::No => (m, k),
        Transpose::Yes => (k, m),
    };
    let (br, bc) = match transb {
        Transpose::No => (k, n),
        Transpose::Yes => (n, k),
    };
    check_operand("gemm A", ar, ac, lda, a);
    check_operand("gemm B", br, bc, ldb, b);
    check_operand("gemm C", m, n, ldc, c);
    if m == 0 || n == 0 {
        return;
    }

    // Both transpose cases are affine layouts — always the strided packing
    // fast path.
    let a_src = PackSrc::matrix(a, lda, transa, m, k);
    let b_src = PackSrc::matrix(b, ldb, transb, k, n);

    let cptr = SendPtr(c.as_mut_ptr());
    let skip_product = alpha == T::ZERO || k == 0;
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    // Shared packed-panel buffers, from the calling thread's arena.
    let (alen, blen) = shared_pack_lens(&disp, m, n, k);
    let mut abuf = arena::take::<T>(alen);
    let mut bbuf = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut abuf, &mut bbuf);
    ThreadPool::run_team_current(nt, |team| {
        // Beta scale first, split by columns; the barrier publishes the
        // scaled C before any accumulation.
        let (js, je) = team.chunk(n);
        if js < je {
            // SAFETY: disjoint column ranges per member.
            unsafe { scale_block(m, je - js, beta, cptr.get().add(js * ldc), ldc) };
        }
        team.barrier();
        if skip_product {
            return;
        }
        // SAFETY: C is exclusively borrowed for this call and the team is
        // the only accessor; shared bufs outlive the region; operands cover
        // the m x k / k x n extents (checked above).
        unsafe {
            gemm_cooperative(
                &disp,
                &team,
                m,
                n,
                k,
                alpha,
                &a_src,
                &b_src,
                cptr.get(),
                ldc,
                &shared,
            );
        }
    });
}

/// The pre-cooperative parallel strategy: split the larger extent of C into
/// per-thread chunks, each worker running the *legacy* serial engine
/// (closure-gather packing, fresh heap buffers) on its private chunk — so
/// the shared operand is re-packed by every worker.
///
/// Kept only as the baseline the `parallel_scaling` bench and the parity
/// suite race [`gemm`] against; not used by any backend path.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_chunked<T: Float>(
    nt: usize,
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    use crate::kernel::legacy::gemm_serial_gather;
    let (ar, ac) = match transa {
        Transpose::No => (m, k),
        Transpose::Yes => (k, m),
    };
    let (br, bc) = match transb {
        Transpose::No => (k, n),
        Transpose::Yes => (n, k),
    };
    check_operand("gemm A", ar, ac, lda, a);
    check_operand("gemm B", br, bc, ldb, b);
    check_operand("gemm C", m, n, ldc, c);
    if m == 0 || n == 0 {
        return;
    }
    let a_at = move |i: usize, p: usize| match transa {
        Transpose::No => a[i + p * lda],
        Transpose::Yes => a[p + i * lda],
    };
    let b_at = move |p: usize, j: usize| match transb {
        Transpose::No => b[p + j * ldb],
        Transpose::Yes => b[j + p * ldb],
    };
    let cptr = SendPtr(c.as_mut_ptr());
    let skip_product = alpha == T::ZERO || k == 0;
    let split_cols = n >= m;
    let disp = T::kernel();
    ThreadPool::run_current(nt, |tid| {
        if split_cols {
            let (js, je) = ThreadPool::chunk(n, nt, tid);
            if js >= je {
                return;
            }
            // SAFETY: disjoint column ranges per worker.
            unsafe {
                let cp = cptr.get().add(js * ldc);
                scale_block(m, je - js, beta, cp, ldc);
                if !skip_product {
                    gemm_serial_gather(
                        &disp,
                        m,
                        je - js,
                        k,
                        alpha,
                        &a_at,
                        &|p, j| b_at(p, js + j),
                        cp,
                        ldc,
                    );
                }
            }
        } else {
            let (is, ie) = ThreadPool::chunk(m, nt, tid);
            if is >= ie {
                return;
            }
            // SAFETY: disjoint row ranges per worker.
            unsafe {
                let cp = cptr.get().add(is);
                scale_block(ie - is, n, beta, cp, ldc);
                if !skip_product {
                    gemm_serial_gather(
                        &disp,
                        ie - is,
                        n,
                        k,
                        alpha,
                        &|i, p| a_at(is + i, p),
                        &b_at,
                        cp,
                        ldc,
                    );
                }
            }
        }
    });
}

/// Matrix-typed convenience wrapper: shapes are taken from the operands.
///
/// `op(A)` must be `c.rows() x k` and `op(B)` `k x c.cols()`.
pub fn gemm_mat<T: Float>(
    nt: usize,
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match transa {
        Transpose::No => a.cols(),
        Transpose::Yes => a.rows(),
    };
    let kb = match transb {
        Transpose::No => b.rows(),
        Transpose::Yes => b.cols(),
    };
    assert_eq!(k, kb, "inner dimensions of op(A) and op(B) must agree");
    let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
    gemm(
        nt,
        transa,
        transb,
        m,
        n,
        k,
        alpha,
        a.as_slice(),
        lda,
        b.as_slice(),
        ldb,
        beta,
        c.as_mut_slice(),
        ldc,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            ((h >> 33) % 2000) as f64 / 100.0 - 10.0
        })
    }

    #[test]
    fn matches_reference_across_shapes_and_threads() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 5, 3),
            (32, 32, 32),
            (65, 129, 33),
            (300, 5, 80),
        ] {
            for &nt in &[1usize, 2, 4] {
                for transa in [Transpose::No, Transpose::Yes] {
                    for transb in [Transpose::No, Transpose::Yes] {
                        let a = match transa {
                            Transpose::No => test_mat(m, k, 1),
                            Transpose::Yes => test_mat(k, m, 1),
                        };
                        let b = match transb {
                            Transpose::No => test_mat(k, n, 2),
                            Transpose::Yes => test_mat(n, k, 2),
                        };
                        let c0 = test_mat(m, n, 3);
                        let mut c = c0.clone();
                        gemm_mat(nt, transa, transb, 1.3, &a, &b, 0.7, &mut c);
                        let mut expect = c0.clone();
                        reference::gemm(transa, transb, 1.3, &a, &b, 0.7, &mut expect);
                        let scale = expect.frob_norm().max(1.0);
                        assert!(
                            c.max_abs_diff(&expect) / scale < 1e-12,
                            "m={m} n={n} k={k} nt={nt} {transa:?} {transb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cooperative_is_nt_invariant_bitwise() {
        // The cooperative schedule computes every tile with the same
        // micro-kernel and block order at any team size — so changing nt
        // cannot change a single bit of the result.
        let (m, n, k) = (130, 75, 61);
        let a = test_mat(m, k, 5);
        let b = test_mat(n, k, 6); // op(B) = B' is k x n
        let c0 = test_mat(m, n, 7);
        let mut base = c0.clone();
        gemm_mat(
            1,
            Transpose::No,
            Transpose::Yes,
            1.1,
            &a,
            &b,
            -0.4,
            &mut base,
        );
        for nt in [2usize, 3, 7] {
            let mut c = c0.clone();
            gemm_mat(nt, Transpose::No, Transpose::Yes, 1.1, &a, &b, -0.4, &mut c);
            assert_eq!(c.as_slice(), base.as_slice(), "nt={nt} changed bits");
        }
    }

    #[test]
    fn chunked_baseline_matches_cooperative() {
        let (m, n, k) = (90, 110, 70);
        let a = test_mat(m, k, 11);
        let b = test_mat(k, n, 12);
        let c0 = test_mat(m, n, 13);
        for nt in [1usize, 4] {
            let mut coop = c0.clone();
            gemm_mat(
                nt,
                Transpose::No,
                Transpose::No,
                1.0,
                &a,
                &b,
                0.5,
                &mut coop,
            );
            let mut chunked = c0.clone();
            gemm_chunked(
                nt,
                Transpose::No,
                Transpose::No,
                m,
                n,
                k,
                1.0,
                a.as_slice(),
                m,
                b.as_slice(),
                k,
                0.5,
                chunked.as_mut_slice(),
                m,
            );
            let scale = coop.frob_norm().max(1.0);
            assert!(coop.max_abs_diff(&chunked) / scale < 1e-12, "nt={nt}");
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::<f64>::identity(4);
        let b = Matrix::<f64>::filled(4, 4, 2.0);
        let mut c = Matrix::<f64>::filled(4, 4, f64::NAN);
        gemm_mat(2, Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let a = test_mat(6, 6, 1);
        let b = test_mat(6, 6, 2);
        let c0 = test_mat(6, 6, 3);
        let mut c = c0.clone();
        gemm_mat(3, Transpose::No, Transpose::No, 0.0, &a, &b, 2.0, &mut c);
        let expect = Matrix::from_fn(6, 6, |i, j| 2.0 * c0.get(i, j));
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn zero_k_is_pure_scale() {
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::<f64>::zeros(0, 3);
        let mut c = Matrix::<f64>::filled(4, 3, 1.5);
        gemm_mat(2, Transpose::No, Transpose::No, 1.0, &a, &b, 2.0, &mut c);
        assert!(c.max_abs_diff(&Matrix::filled(4, 3, 3.0)) < 1e-15);
    }

    #[test]
    fn many_threads_small_matrix() {
        // More threads than rows/cols: extra workers must no-op cleanly
        // (empty pack/tile chunks) while still meeting every barrier.
        let a = test_mat(3, 3, 1);
        let b = test_mat(3, 3, 2);
        let mut c = Matrix::<f64>::zeros(3, 3);
        gemm_mat(16, Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        let mut expect = Matrix::<f64>::zeros(3, 3);
        reference::gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn f32_precision_path() {
        let a = Matrix::<f32>::from_fn(20, 10, |i, j| ((i + j) % 5) as f32);
        let b = Matrix::<f32>::from_fn(10, 15, |i, j| ((i * 2 + j) % 7) as f32);
        let mut c = Matrix::<f32>::zeros(20, 15);
        gemm_mat(2, Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        let mut expect = Matrix::<f32>::zeros(20, 15);
        reference::gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn steady_state_packing_allocations_are_zero() {
        let (m, n, k) = (150, 120, 96);
        let a = test_mat(m, k, 1);
        let b = test_mat(k, n, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        // A private pool, so the count sees this test's threads only.
        let pool = std::sync::Arc::new(ThreadPool::with_max_workers(3));
        let _on_pool = ThreadPool::enter(pool.clone());
        // Warm every participating thread's arena.
        for _ in 0..2 {
            gemm_mat(4, Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        }
        let before = arena::allocation_count_in(&pool);
        assert!(before > 0, "the warm-up allocated on the pool's threads");
        for _ in 0..10 {
            gemm_mat(4, Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        }
        assert_eq!(
            arena::allocation_count_in(&pool),
            before,
            "steady-state parallel GEMM must perform zero packing allocations"
        );
    }

    #[test]
    #[should_panic(expected = "gemm C")]
    fn bad_ldc_panics() {
        let a = [0.0f64; 4];
        let b = [0.0f64; 4];
        let mut c = [0.0f64; 2];
        gemm(
            1,
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &a,
            2,
            &b,
            2,
            0.0,
            &mut c,
            1,
        );
    }
}
