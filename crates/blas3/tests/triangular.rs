//! Triangular coverage: TRMM and TRSM through their slice entry points,
//! against [`ReferenceBackend`], for every side, uplo, trans and diag.
//!
//! * Operands live in padded storage (`lda > na`, `ldb > m`) whose padding
//!   is NaN: the off-diagonal folds read A as a strided view through `lda`,
//!   so a stride mistake reads NaN, and the padding of B must come back
//!   untouched.
//! * The triangle of A that is not stored is NaN too (and so is the
//!   diagonal under `Diag::Unit`): neither routine may read it.
//! * Shapes straddle the 64-row diagonal block (63, 64, 65, 129), and one
//!   X is wider than the 128-column panel a team member works through.
//! * Every result must be bitwise identical across team sizes.

// Outside the Miri subset: exercises the OS thread pool.
#![cfg(not(miri))]

use adsala_blas3::{trmm, trsm};
use adsala_blas3::{Blas3Backend, Blas3Op, MatMut, MatRef, ReferenceBackend};
use adsala_blas3::{Diag, Float, Side, Transpose, Uplo};

const DIMS: [usize; 5] = [1, 63, 64, 65, 129];
/// Wider than the panel (128 columns of X).
const WIDE: usize = 300;
const ALPHAS: [f64; 3] = [0.0, 1.0, -0.5];
const PAD_A: usize = 3;
const PAD_B: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Routine {
    Trmm,
    Trsm,
}

fn shapes() -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = DIMS
        .iter()
        .flat_map(|&m| DIMS.iter().map(move |&n| (m, n)))
        .collect();
    // X is B (Left) or Bᵀ (Right), so each side gets a wide X.
    out.push((65, WIDE));
    out.push((WIDE, 65));
    out
}

/// Team sizes: serial, and one that splits X unevenly.
const TEAM_SIZES: [usize; 2] = [1, 3];

fn val(seed: u64, i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
    ((h >> 40) % 2001) as f64 / 1000.0 - 1.0
}

/// A, `na x na` with leading dimension `na + PAD_A`: a dominant diagonal
/// and off-diagonal entries scaled by `1/na` (well conditioned at every
/// size), with the unstored triangle, the padding and, under
/// `Diag::Unit`, the diagonal set to NaN.
fn tri_operand<T: Float>(na: usize, uplo: Uplo, diag: Diag) -> Vec<T> {
    let lda = na + PAD_A;
    let mut a = vec![T::from_f64(f64::NAN); lda * na];
    for j in 0..na {
        for i in 0..na {
            let stored = match uplo {
                Uplo::Upper => i < j,
                Uplo::Lower => i > j,
            };
            if stored {
                a[i + j * lda] = T::from_f64(val(11, i, j) / na as f64);
            } else if i == j && diag == Diag::NonUnit {
                a[i + j * lda] = T::from_f64(2.0 + (i % 5) as f64 / 4.0);
            }
        }
    }
    a
}

/// B, `m x n` with leading dimension `m + PAD_B` and NaN padding.
fn rhs<T: Float>(m: usize, n: usize) -> Vec<T> {
    let ldb = m + PAD_B;
    let mut b = vec![T::from_f64(f64::NAN); ldb * n];
    for j in 0..n {
        for i in 0..m {
            b[i + j * ldb] = T::from_f64(val(23, i, j));
        }
    }
    b
}

#[allow(clippy::too_many_arguments)]
fn native<T: Float>(
    routine: Routine,
    nt: usize,
    flags: (Side, Uplo, Transpose, Diag),
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &mut [T],
) {
    let (side, uplo, trans, diag) = flags;
    let ldb = m + PAD_B;
    match routine {
        Routine::Trmm => trmm::trmm(nt, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb),
        Routine::Trsm => trsm::trsm(nt, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb),
    }
}

#[allow(clippy::too_many_arguments)]
fn oracle<T: Float>(
    routine: Routine,
    flags: (Side, Uplo, Transpose, Diag),
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &mut [T],
) {
    let (side, uplo, trans, diag) = flags;
    let na = if side == Side::Left { m } else { n };
    let a = MatRef::new(na, na, lda, a);
    let b = MatMut::new(m, n, m + PAD_B, b);
    let op = match routine {
        Routine::Trmm => Blas3Op::Trmm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b,
        },
        Routine::Trsm => Blas3Op::Trsm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b,
        },
    };
    ReferenceBackend
        .execute(1, op)
        .expect("the reference accepts every well-formed call");
}

/// Largest element difference over B's `m x n` live region, relative to
/// the reference's largest magnitude; NaN anywhere counts as infinite.
fn rel_err<T: Float>(got: &[T], want: &[T], m: usize, n: usize) -> f64 {
    let ldb = m + PAD_B;
    let (mut diff, mut scale) = (0.0f64, 1.0f64);
    for j in 0..n {
        for i in 0..m {
            let (g, w) = (got[i + j * ldb].to_f64(), want[i + j * ldb].to_f64());
            if g.is_nan() {
                return f64::INFINITY;
            }
            diff = diff.max((g - w).abs());
            scale = scale.max(w.abs());
        }
    }
    diff / scale
}

fn padding_untouched<T: Float>(b: &[T], m: usize) -> bool {
    let ldb = m + PAD_B;
    b.chunks(ldb)
        .all(|col| col[m..].iter().all(|x| x.to_f64().is_nan()))
}

/// Every shape, side, uplo, diag, trans and alpha, at every team size.
/// Because A's unstored triangle is NaN (see [`tri_operand`]) and any NaN
/// in the result fails, this is also the `unstored_triangle_not_read`
/// check, for both routines and every flag combination on multi-block
/// shapes.
fn check<T: Float>(routine: Routine, tol: f64) {
    let label = std::any::type_name::<T>();
    for (m, n) in shapes() {
        for side in [Side::Left, Side::Right] {
            let na = if side == Side::Left { m } else { n };
            let lda = na + PAD_A;
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let a = tri_operand::<T>(na, uplo, diag);
                    for trans in [Transpose::No, Transpose::Yes] {
                        let flags = (side, uplo, trans, diag);
                        // Both routines are linear in alpha: one oracle
                        // call serves every alpha.
                        let mut unit = rhs::<T>(m, n);
                        oracle(routine, flags, m, n, T::ONE, &a, lda, &mut unit);
                        for alpha in ALPHAS.map(T::from_f64) {
                            let what = format!(
                                "{routine:?} {label} m={m} n={n} {flags:?} alpha={alpha:?}"
                            );
                            let want: Vec<T> = unit.iter().map(|&v| alpha * v).collect();
                            let mut base = Vec::new();
                            for nt in TEAM_SIZES {
                                let mut got = rhs::<T>(m, n);
                                native(routine, nt, flags, m, n, alpha, &a, lda, &mut got);
                                if nt == TEAM_SIZES[0] {
                                    let err = rel_err(&got, &want, m, n);
                                    assert!(err < tol, "{what}: relative error {err:e}");
                                    assert!(padding_untouched(&got, m), "{what}: padding written");
                                    base = got;
                                } else {
                                    let same = got
                                        .iter()
                                        .zip(&base)
                                        .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits());
                                    assert!(same, "{what}: nt={nt} changed bits");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn trmm_f64_matches_reference_and_is_nt_invariant() {
    check::<f64>(Routine::Trmm, 1e-12);
}

#[test]
fn trmm_f32_matches_reference_and_is_nt_invariant() {
    check::<f32>(Routine::Trmm, 1e-4);
}

#[test]
fn trsm_f64_matches_reference_and_is_nt_invariant() {
    check::<f64>(Routine::Trsm, 1e-12);
}

#[test]
fn trsm_f32_matches_reference_and_is_nt_invariant() {
    check::<f32>(Routine::Trsm, 1e-4);
}
