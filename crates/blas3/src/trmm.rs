//! Triangular matrix-matrix multiply (in place):
//! `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right),
//! A triangular with optional implicit unit diagonal.
//!
//! One sweep serves both sides: the Right side is the Left side on `Bᵀ`
//! with `op(A)ᵀ` (see the crate-private `tri` module). The team walks the diagonal
//! blocks of `op'(A)` **in lockstep**, in the order that leaves every row
//! a block reads unwritten until its own turn. Per block:
//!
//! 1. **Diagonal product.** Each member packs the diagonal block once into
//!    a dense tile (uplo, trans and diag resolved, zeros outside the
//!    triangle). It copies its column chunk of the block's rows of X into a
//!    panel, `W` columns at a time, and writes `alpha·tile·panel` back with
//!    the serial micro-kernel GEMM. Columns of X are independent here, so
//!    members need not meet.
//! 2. **Fold.** After a barrier, the product with the rows not yet
//!    overwritten runs as one cooperative GEMM over all of X. Its A operand
//!    lies wholly in A's stored triangle, so it packs straight from A's
//!    storage as a strided view.
//!
//! Each member's scratch (one `TB x TB` tile and one `TB x W` panel, from
//! its own arena) is bounded whatever m and n are: the scratch a call
//! touches stays cache-sized, and a large call cannot grow the arenas.
//!
//! Within the backend seam this module is the kernel level: the wide
//! slice-signature entry point below is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for a validated
//! [`Blas3Op::Trmm`](crate::call::Blas3Op) description.

use crate::arena;
use crate::kernel::SharedPack;
use crate::matrix::{check_operand, Matrix};
use crate::pool::ThreadPool;
use crate::tri::{sweep, tile_block, Tri, XView, TB, W};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// Slice-based TRMM with explicit leading dimensions and thread count.
///
/// `B` is `m x n` and is overwritten with the product. `A` is `m x m`
/// (Left) or `n x n` (Right); only its `uplo` triangle is referenced.
#[allow(clippy::too_many_arguments)]
pub fn trmm<T: Float>(
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
    check_operand("trmm A", na, na, lda, a);
    check_operand("trmm B", m, n, ldb, b);
    if m == 0 || n == 0 {
        return;
    }
    let x = XView::new(b.as_mut_ptr(), ldb, side == Side::Right);
    if alpha == T::ZERO {
        // BLAS convention: B := 0.
        ThreadPool::run_current(nt, |tid| {
            let (js, je) = ThreadPool::chunk(nx, nt, tid);
            // SAFETY: disjoint column chunks of X per worker.
            unsafe { x.at(0, js).scale(na, je - js, T::ZERO) };
        });
        return;
    }

    let tri = Tri::new(side, uplo, trans, diag, na, a, lda);
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let nbmax = TB.min(na);
    let (alen, blen) = x.pack_lens(&disp, nbmax, nx, na);
    let mut pa = arena::take::<T>(alen);
    let mut pb = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut pa, &mut pb);
    // Ascending when the fold reads the rows after the block.
    let order = sweep(na.div_ceil(TB), tri.upper);

    ThreadPool::run_team_current(nt, |team| {
        let (c0, c1) = team.chunk(nx);
        // The diagonal tile and the panel the product reads X from.
        let mut scratch = (c0 < c1).then(|| {
            let tile = arena::take::<T>(nbmax * nbmax);
            let panel = arena::take::<T>(nbmax * W.min(c1 - c0));
            (tile, panel)
        });
        for bi in order.clone() {
            let i0 = bi * TB;
            let nb = TB.min(na - i0);
            // 1. Diagonal product on this member's columns.
            if let Some((tile, buf)) = scratch.as_mut() {
                tri.pack_diag(i0, nb, tile);
                for c in (c0..c1).step_by(W) {
                    let w = W.min(c1 - c);
                    let xb = x.at(i0, c);
                    let panel = xb.panel(buf, nb, w);
                    let a = tile_block(tile, nb, 0, 0, nb, nb);
                    // SAFETY: the nb x w block of X is this member's (its
                    // column chunk) and was last touched by the previous
                    // fold, which ended on a barrier; the panel is the
                    // member's own scratch, sized nbmax x W.min(c1 - c0).
                    unsafe {
                        xb.copy_to(panel, nb, w);
                        xb.scale(nb, w, T::ZERO);
                        xb.gemm(&disp, nb, w, nb, alpha, a, panel.src());
                    }
                }
            }
            // 2. Fold in the rows no block has overwritten yet.
            let (src0, krem) = tri.fold_rows(i0, nb);
            if krem > 0 {
                // The fold splits the block's rows by tile, not by column.
                team.barrier();
                // SAFETY: rows src0..src0+krem of X keep their input
                // values until their own block's turn, so they are stable
                // reads; the fold writes only rows i0..i0+nb, split across
                // the team inside, and ends on a barrier.
                unsafe {
                    x.at(i0, 0).gemm_team(
                        &disp,
                        &team,
                        nb,
                        nx,
                        krem,
                        alpha,
                        tri.fold_src(i0, nb),
                        x.at(src0, 0).src(),
                        &shared,
                    );
                }
            }
        }
    });
}

/// Matrix-typed convenience wrapper.
pub fn trmm_mat<T: Float>(
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
    trmm(
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

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x2545F4914F6CDD1D)
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
                                let a = test_mat(na, na, 17);
                                let b0 = test_mat(m, n, 23);
                                let mut b = b0.clone();
                                trmm_mat(nt, side, uplo, trans, diag, 1.4, &a, &mut b);
                                let mut expect = b0.clone();
                                reference::trmm(side, uplo, trans, diag, 1.4, &a, &mut expect);
                                let scale = expect.frob_norm().max(1.0);
                                assert!(
                                    b.max_abs_diff(&expect) / scale < 1e-12,
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
        let (m, n) = (150, 90);
        let a = test_mat(m, m, 2);
        let b0 = test_mat(m, n, 3);
        let mut base = b0.clone();
        trmm_mat(
            1,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.6,
            &a,
            &mut base,
        );
        for nt in [2usize, 5] {
            let mut b = b0.clone();
            trmm_mat(
                nt,
                Side::Left,
                Uplo::Lower,
                Transpose::No,
                Diag::NonUnit,
                1.6,
                &a,
                &mut b,
            );
            assert_eq!(b.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    #[test]
    fn alpha_zero_zeroes_b() {
        let a = test_mat(5, 5, 1);
        let mut b = test_mat(5, 4, 2);
        trmm_mat(
            2,
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            0.0,
            &a,
            &mut b,
        );
        assert_eq!(b, Matrix::zeros(5, 4));
    }

    #[test]
    fn identity_triangular_is_noop_with_unit_diag() {
        // A strictly-zero triangle with Diag::Unit acts as the identity.
        let a = Matrix::<f64>::zeros(6, 6);
        let b0 = test_mat(6, 3, 9);
        let mut b = b0.clone();
        trmm_mat(
            2,
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::Unit,
            1.0,
            &a,
            &mut b,
        );
        assert!(b.max_abs_diff(&b0) < 1e-15);
    }
}
