//! Triangular solve with multiple right-hand sides (in place):
//! `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B` (Right);
//! the solution X overwrites B. A is assumed non-singular.
//!
//! One sweep serves both sides: the Right side is the Left side on `Bᵀ`
//! with `op(A)ᵀ` (see the crate-private `tri` module). The diagonal blocks are
//! **dependent** (block `i` can only be solved once every earlier block's
//! contribution is folded in), so the team sweeps them in lockstep, in
//! substitution order. Per block:
//!
//! 1. **Fold.** The product of the block's row of `op'(A)` with the
//!    already-solved rows runs as one cooperative GEMM over all of X. Its A
//!    operand lies wholly in A's stored triangle, so it packs straight from
//!    A's storage as a strided view.
//! 2. **Substitution.** Each member packs the diagonal block once into a
//!    dense tile (uplo, trans and diag resolved, zeros outside the
//!    triangle) and solves its column chunk of the block's rows against it,
//!    `W` columns at a time and in place: the tile is halved recursively,
//!    each half's off-diagonal update runs through the serial micro-kernel
//!    GEMM, and only 16-row diagonal pieces are solved element by element.
//!    A barrier then publishes the solved rows to the next fold.
//!
//! Each member's scratch is one `TB x TB` tile from its own arena, bounded
//! whatever m and n are: the scratch a call touches stays cache-sized, and
//! a large call cannot grow the arenas.
//!
//! Within the backend seam this module is the kernel level: the wide
//! slice-signature entry point below is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for a validated
//! [`Blas3Op::Trsm`](crate::call::Blas3Op) description.

use crate::arena;
use crate::kernel::SharedPack;
use crate::matrix::{check_operand, Matrix};
use crate::pool::ThreadPool;
use crate::tri::{solve_tile, sweep, Tri, XView, TB, W};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// Slice-based TRSM with explicit leading dimensions and thread count.
///
/// On return, `B` holds `X` such that `op(A) X = alpha B_in` (Left) or
/// `X op(A) = alpha B_in` (Right).
#[allow(clippy::too_many_arguments)]
pub fn trsm<T: Float>(
    nt: usize,
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    // X is B (Left) or Bᵀ (Right): na x nx, with op'(A) na x na.
    let (na, nx) = match side {
        Side::Left => (m, n),
        Side::Right => (n, m),
    };
    check_operand("trsm A", na, na, lda, a);
    check_operand("trsm B", m, n, ldb, b);
    if m == 0 || n == 0 {
        return;
    }

    let x = XView::new(b.as_mut_ptr(), ldb, side == Side::Right);
    let tri = Tri::new(side, uplo, trans, diag, na, a, lda);
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let nbmax = TB.min(na);
    let (alen, blen) = x.pack_lens(&disp, nbmax, nx, na);
    let mut pa = arena::take::<T>(alen);
    let mut pb = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut pa, &mut pb);
    let nblocks = na.div_ceil(TB);
    // Forward substitution for a lower op'(A), backward for an upper one.
    let order = sweep(nblocks, !tri.upper);

    ThreadPool::run_team_current(nt, |team| {
        let (c0, c1) = team.chunk(nx);
        // SAFETY: this member's column chunk of X. Nobody else touches it
        // before the first fold, which follows the first block's barrier.
        unsafe { x.at(0, c0).scale(na, c1 - c0, alpha) };
        let mut tile = (c0 < c1).then(|| arena::take::<T>(nbmax * nbmax));
        for (step, bi) in order.clone().enumerate() {
            let i0 = bi * TB;
            let nb = TB.min(na - i0);
            // 1. Fold in the already-solved rows.
            let (src0, krem) = tri.fold_rows(i0, nb);
            if krem > 0 {
                // SAFETY: rows src0..src0+krem of X hold final solved values
                // (published by an earlier block's barrier) and are not
                // written again; the fold writes only rows i0..i0+nb, split
                // across the team inside, and ends on a barrier.
                unsafe {
                    x.at(i0, 0).gemm_team(
                        &disp,
                        &team,
                        nb,
                        nx,
                        krem,
                        -T::ONE,
                        tri.fold_src(i0, nb),
                        x.at(src0, 0).src(),
                        &shared,
                    );
                }
            }
            // 2. Solve the diagonal block on this member's columns.
            if let Some(tile) = tile.as_mut() {
                tri.pack_diag(i0, nb, tile);
                for c in (c0..c1).step_by(W) {
                    // SAFETY: the nb x w block of X lies in this member's
                    // column chunk, and the fold above ended on a barrier.
                    unsafe {
                        solve_tile(
                            &disp,
                            tile,
                            nb,
                            tri.upper,
                            x.at(i0, c),
                            W.min(c1 - c),
                            0,
                            nb,
                        )
                    };
                }
            }
            // Publish the solved rows to the next block's fold.
            if step + 1 < nblocks {
                team.barrier();
            }
        }
    });
}

/// Matrix-typed convenience wrapper.
pub fn trsm_mat<T: Float>(
    nt: usize,
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: &Matrix<T>,
    b: &mut Matrix<T>,
) {
    let (m, n) = (b.rows(), b.cols());
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.rows(), na);
    assert_eq!(a.cols(), na);
    let (lda, ldb) = (a.ld(), b.ld());
    trsm(
        nt,
        side,
        uplo,
        trans,
        diag,
        m,
        n,
        alpha,
        a.as_slice(),
        lda,
        b.as_mut_slice(),
        ldb,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::trmm::trmm_mat;

    /// Well-conditioned triangular test matrix: dominant diagonal.
    fn tri_test_mat(n: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i % 5) as f64
            } else {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((j as u64).wrapping_mul(0x2545F4914F6CDD1D))
                    .wrapping_add(seed);
                ((h >> 40) % 100) as f64 / 100.0 - 0.5
            }
        })
    }

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0xff51afd7ed558ccd)
                .wrapping_add((j as u64).wrapping_mul(0x9E3779B97F4A7C15))
                .wrapping_add(seed);
            ((h >> 40) % 1000) as f64 / 100.0 - 5.0
        })
    }

    #[test]
    fn matches_reference_all_flags() {
        for &(m, n) in &[(1, 1), (5, 7), (64, 64), (70, 30), (130, 9), (9, 130)] {
            for &nt in &[1usize, 3] {
                for side in [Side::Left, Side::Right] {
                    for uplo in [Uplo::Upper, Uplo::Lower] {
                        for trans in [Transpose::No, Transpose::Yes] {
                            for diag in [Diag::NonUnit, Diag::Unit] {
                                let na = if side == Side::Left { m } else { n };
                                let a = tri_test_mat(na, 17);
                                let b0 = test_mat(m, n, 23);
                                let mut b = b0.clone();
                                trsm_mat(nt, side, uplo, trans, diag, 1.5, &a, &mut b);
                                let mut expect = b0.clone();
                                reference::trsm(side, uplo, trans, diag, 1.5, &a, &mut expect);
                                let scale = expect.frob_norm().max(1.0);
                                assert!(
                                    b.max_abs_diff(&expect) / scale < 1e-10,
                                    "m={m} n={n} nt={nt} {side:?} {uplo:?} {trans:?} {diag:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nt_invariant_bitwise() {
        let (m, n) = (150, 70);
        let a = tri_test_mat(m, 1);
        let b0 = test_mat(m, n, 2);
        let mut base = b0.clone();
        trsm_mat(
            1,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            2.0,
            &a,
            &mut base,
        );
        for nt in [2usize, 5] {
            let mut b = b0.clone();
            trsm_mat(
                nt,
                Side::Left,
                Uplo::Lower,
                Transpose::No,
                Diag::NonUnit,
                2.0,
                &a,
                &mut b,
            );
            assert_eq!(b.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    /// The defining property: trsm(trmm(X)) == X for every flag combination.
    #[test]
    fn trsm_inverts_trmm() {
        let m = 90;
        let n = 40;
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let na = if side == Side::Left { m } else { n };
                        let a = tri_test_mat(na, 5);
                        let x0 = test_mat(m, n, 8);
                        let mut b = x0.clone();
                        trmm_mat(2, side, uplo, trans, diag, 2.0, &a, &mut b);
                        trsm_mat(2, side, uplo, trans, diag, 0.5, &a, &mut b);
                        let scale = x0.frob_norm().max(1.0);
                        assert!(
                            b.max_abs_diff(&x0) / scale < 1e-10,
                            "{side:?} {uplo:?} {trans:?} {diag:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn residual_is_small() {
        // Direct residual check: op(A) X ~= alpha*B.
        let m = 100;
        let n = 20;
        let a = tri_test_mat(m, 2);
        let b0 = test_mat(m, n, 3);
        let mut x = b0.clone();
        trsm_mat(
            4,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            3.0,
            &a,
            &mut x,
        );
        let mut ax = x.clone();
        trmm_mat(
            4,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            &a,
            &mut ax,
        );
        let expect = Matrix::from_fn(m, n, |i, j| 3.0 * b0.get(i, j));
        assert!(ax.max_abs_diff(&expect) / expect.frob_norm() < 1e-12);
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        let n = 6;
        let mut a = tri_test_mat(n, 1);
        for i in 0..n {
            a.set(i, i, f64::NAN); // must not be read under Diag::Unit
        }
        let mut b = test_mat(n, 2, 4);
        trsm_mat(
            1,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::Unit,
            1.0,
            &a,
            &mut b,
        );
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }
}
