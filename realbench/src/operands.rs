//! Operands for the benchmark's calls, and the reference check.
//!
//! Read-only operands are contiguous views into one seeded pristine
//! buffer, so a call costs no operand generation. The output (or the
//! in-place B of TRMM/TRSM) lives in a work buffer that is zeroed or
//! re-copied before every call, outside the timed region, so every call
//! starts from the same inputs and its result can be recomputed.

use crate::workload::{Call, CAP_BYTES};
use crate::Rng;
use adsala_blas3::op::OpKind;
use adsala_blas3::{
    Blas3Backend, Blas3Op, Diag, Float, MatMut, MatRef, Matrix, OwnedOp, ReferenceBackend, Side,
    Transpose, Uplo,
};

/// Diagonal given to TRSM's triangular operand: larger than the summed
/// magnitude of any row's off-diagonal entries (each at most 0.5), so the
/// solve is well conditioned at every size.
fn trsm_diagonal(m: usize) -> f64 {
    0.5 * m as f64 + 1.0
}

/// Inner dimension of a call: the length of the dot products behind
/// each output element, which scales the rounding error.
pub fn depth(call: &Call) -> usize {
    let d = call.dims.0;
    match call.routine.op {
        OpKind::Gemm => d[1],
        OpKind::Syrk => d[1],
        OpKind::Syr2k => 2 * d[1],
        _ => d[0],
    }
}

/// Output elements of a call.
pub fn out_len(call: &Call) -> usize {
    let d = call.dims.0;
    match call.routine.op {
        OpKind::Syrk | OpKind::Syr2k => d[0] * d[0],
        _ => d[0] * d[1],
    }
}

/// Whether `got` matches `want` within the precision's tolerance for a
/// call of inner dimension `depth`.
pub fn matches<T: Float>(got: &[T], want: &[T], depth: usize) -> bool {
    let eps = if T::BYTES == 4 { 1.2e-7 } else { 2.3e-16 };
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.to_f64().abs()));
    let tol = 32.0 * eps * (depth + 1) as f64 * scale;
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g.to_f64() - w.to_f64()).abs() <= tol)
}

/// Buffers for calls of one precision.
#[derive(Debug)]
pub struct Operands<T: Float> {
    src: Vec<T>,
    tri: Vec<T>,
    out: Vec<T>,
    reference: Vec<T>,
}

impl<T: Float> Operands<T> {
    /// Buffers large enough for any call under the install cap, filled
    /// from `seed`.
    pub fn new(seed: u64) -> Operands<T> {
        let words = (CAP_BYTES as usize) / T::BYTES;
        let mut rng = Rng::new(seed ^ T::BYTES as u64);
        Operands {
            src: (0..words).map(|_| T::from_f64(rng.unit() - 0.5)).collect(),
            tri: vec![T::ZERO; words],
            out: vec![T::ZERO; words],
            reference: vec![T::ZERO; words],
        }
    }

    /// Reset the work buffer (and TRSM's triangular copy) for `call`.
    /// Not part of any timed region.
    pub fn prepare(&mut self, call: &Call) {
        prepare_out(call, &self.src, &mut self.out);
        if call.routine.op == OpKind::Trsm {
            let m = call.dims.a();
            self.tri[..m * m].copy_from_slice(&self.src[..m * m]);
            for i in 0..m {
                self.tri[i + i * m] = T::from_f64(trsm_diagonal(m));
            }
        }
    }

    /// The call description over the prepared buffers.
    pub fn op(&mut self, call: &Call) -> Blas3Op<'_, T> {
        build(call, &self.src, &self.tri, &mut self.out)
    }

    /// Recompute the last prepared call with `ReferenceBackend` and compare
    /// it with the work buffer. Call after the timed call, before the next
    /// [`Operands::prepare`].
    pub fn check(&mut self, call: &Call) -> bool {
        prepare_out(call, &self.src, &mut self.reference);
        let op = build(call, &self.src, &self.tri, &mut self.reference);
        if ReferenceBackend.execute(1, op).is_err() {
            return false;
        }
        let n = out_len(call);
        matches(&self.out[..n], &self.reference[..n], depth(call))
    }
}

fn prepare_out<T: Float>(call: &Call, src: &[T], out: &mut [T]) {
    let d = call.dims.0;
    match call.routine.op {
        OpKind::Trmm | OpKind::Trsm => {
            let (m, n) = (d[0], d[1]);
            out[..m * n].copy_from_slice(&src[m * m..m * m + m * n]);
        }
        _ => out[..out_len(call)].fill(T::ZERO),
    }
}

fn build<'a, T: Float>(
    call: &Call,
    src: &'a [T],
    tri: &'a [T],
    out: &'a mut [T],
) -> Blas3Op<'a, T> {
    let d = call.dims.0;
    let view = |rows: usize, cols: usize, off: usize| {
        MatRef::new(rows, cols, rows.max(1), &src[off..off + rows * cols])
    };
    match call.routine.op {
        OpKind::Gemm => {
            let (m, k, n) = (d[0], d[1], d[2]);
            Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: T::ONE,
                a: view(m, k, 0),
                b: view(k, n, m * k),
                beta: T::ZERO,
                c: MatMut::new(m, n, m, &mut out[..m * n]),
            }
        }
        OpKind::Symm => {
            let (m, n) = (d[0], d[1]);
            Blas3Op::Symm {
                side: Side::Left,
                uplo: Uplo::Upper,
                alpha: T::ONE,
                a: view(m, m, 0),
                b: view(m, n, m * m),
                beta: T::ZERO,
                c: MatMut::new(m, n, m, &mut out[..m * n]),
            }
        }
        OpKind::Syrk => {
            let (n, k) = (d[0], d[1]);
            Blas3Op::Syrk {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: T::ONE,
                a: view(n, k, 0),
                beta: T::ZERO,
                c: MatMut::new(n, n, n, &mut out[..n * n]),
            }
        }
        OpKind::Syr2k => {
            let (n, k) = (d[0], d[1]);
            Blas3Op::Syr2k {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: T::ONE,
                a: view(n, k, 0),
                b: view(n, k, n * k),
                beta: T::ZERO,
                c: MatMut::new(n, n, n, &mut out[..n * n]),
            }
        }
        OpKind::Trmm => {
            let (m, n) = (d[0], d[1]);
            Blas3Op::Trmm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: T::ONE,
                a: view(m, m, 0),
                b: MatMut::new(m, n, m, &mut out[..m * n]),
            }
        }
        OpKind::Trsm => {
            let (m, n) = (d[0], d[1]);
            Blas3Op::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: T::ONE,
                a: MatRef::new(m, m, m, &tri[..m * m]),
                b: MatMut::new(m, n, m, &mut out[..m * n]),
            }
        }
        other => unreachable!("the benchmark calls no Level 2 routine ({other:?})"),
    }
}

/// An owned job for the serve menu, with operands from `seed`.
pub fn owned_op<T: Float>(call: &Call, seed: u64) -> OwnedOp<T> {
    let mut rng = Rng::new(seed);
    let mut mat =
        |r: usize, c: usize| Matrix::<T>::from_fn(r, c, |_, _| T::from_f64(rng.unit() - 0.5));
    let d = call.dims.0;
    match call.routine.op {
        OpKind::Gemm => OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: T::ONE,
            a: mat(d[0], d[1]),
            b: mat(d[1], d[2]),
            beta: T::ZERO,
            c: Matrix::zeros(d[0], d[2]),
        },
        OpKind::Symm => OwnedOp::Symm {
            side: Side::Left,
            uplo: Uplo::Upper,
            alpha: T::ONE,
            a: mat(d[0], d[0]),
            b: mat(d[0], d[1]),
            beta: T::ZERO,
            c: Matrix::zeros(d[0], d[1]),
        },
        OpKind::Syrk => OwnedOp::Syrk {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: T::ONE,
            a: mat(d[0], d[1]),
            beta: T::ZERO,
            c: Matrix::zeros(d[0], d[0]),
        },
        OpKind::Syr2k => OwnedOp::Syr2k {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: T::ONE,
            a: mat(d[0], d[1]),
            b: mat(d[0], d[1]),
            beta: T::ZERO,
            c: Matrix::zeros(d[0], d[0]),
        },
        OpKind::Trmm => OwnedOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: T::ONE,
            a: mat(d[0], d[0]),
            b: mat(d[0], d[1]),
        },
        OpKind::Trsm => {
            let mut a = mat(d[0], d[0]);
            for i in 0..d[0] {
                a.set(i, i, T::from_f64(trsm_diagonal(d[0])));
            }
            OwnedOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: T::ONE,
                a,
                b: mat(d[0], d[1]),
            }
        }
        other => unreachable!("the serve menu holds no Level 2 routine ({other:?})"),
    }
}

/// Whether `done` (a served copy of `input`) holds the reference result.
pub fn owned_matches<T: Float>(call: &Call, input: &OwnedOp<T>, done: &OwnedOp<T>) -> bool {
    let mut want = input.clone();
    if ReferenceBackend.execute(1, want.as_op()).is_err() {
        return false;
    }
    matches(
        done.output().as_slice(),
        want.output().as_slice(),
        depth(call),
    )
}
