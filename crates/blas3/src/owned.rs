//! Owned, `'static` BLAS call descriptions.
//!
//! [`crate::call::Blas3Op`] borrows its operands, which is the right shape
//! for a synchronous entry point but cannot cross a queue: a service layer
//! that accepts work from many clients and executes it later on another
//! thread needs the operands to move *with* the job. [`OwnedOp`] is that
//! mirror — one variant per subroutine family, identical flags and scalars,
//! but [`Matrix`]-owned operands. The Level 2 vector operands are held as
//! `n x 1` column matrices, so every family's result is a [`Matrix`].
//! [`OwnedOp::as_op`] reborrows it as a [`Blas3Op`] for execution, and
//! [`OwnedOp::output`]/[`OwnedOp::into_output`] hand the result back to the
//! submitting client afterwards.

use crate::call::{Blas3Error, Blas3Op};
use crate::matrix::Matrix;
use crate::op::{Diag, Dims, OpKind, Routine, Side, Transpose, Uplo};
use crate::vector::{VecMut, VecRef};
use crate::Float;

/// A fully-described BLAS call with owned operands.
///
/// Field meanings match [`Blas3Op`] variant-for-variant; see its docs for
/// the semantics of each flag and scalar. A vector operand is an `n x 1`
/// [`Matrix`] whose storage is read as one contiguous vector.
#[derive(Debug, Clone)]
pub enum OwnedOp<T: Float> {
    /// `C = alpha * op(A) * op(B) + beta * C`.
    Gemm {
        /// Transpose flag for A.
        transa: Transpose,
        /// Transpose flag for B.
        transb: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Left operand.
        a: Matrix<T>,
        /// Right operand.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: Matrix<T>,
    },
    /// Symmetric matrix-matrix multiply (see [`Blas3Op::Symm`]).
    Symm {
        /// Side the symmetric operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: Matrix<T>,
        /// Dense operand.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: Matrix<T>,
    },
    /// Symmetric rank-k update (see [`Blas3Op::Syrk`]).
    Syrk {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Rank-k factor.
        a: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: Matrix<T>,
    },
    /// Symmetric rank-2k update (see [`Blas3Op::Syr2k`]).
    Syr2k {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// First rank-k factor.
        a: Matrix<T>,
        /// Second rank-k factor.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: Matrix<T>,
    },
    /// Triangular matrix multiply, in place on B (see [`Blas3Op::Trmm`]).
    Trmm {
        /// Side the triangular operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Scale on the product.
        alpha: T,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place dense operand.
        b: Matrix<T>,
    },
    /// Triangular solve, in place on B (see [`Blas3Op::Trsm`]).
    Trsm {
        /// Side the triangular operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Scale on B before the solve.
        alpha: T,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place right-hand sides.
        b: Matrix<T>,
    },
    /// Matrix-vector multiply into y (see [`Blas3Op::Gemv`]).
    Gemv {
        /// Transpose flag for A.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Matrix operand.
        a: Matrix<T>,
        /// Input vector.
        x: Matrix<T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector.
        y: Matrix<T>,
    },
    /// Rank-1 update, in place on A (see [`Blas3Op::Ger`]).
    Ger {
        /// Scale on the outer product.
        alpha: T,
        /// Column vector.
        x: Matrix<T>,
        /// Row vector.
        y: Matrix<T>,
        /// In-place matrix operand.
        a: Matrix<T>,
    },
    /// Symmetric matrix-vector multiply into y (see [`Blas3Op::Symv`]).
    Symv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: Matrix<T>,
        /// Input vector.
        x: Matrix<T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector.
        y: Matrix<T>,
    },
    /// Triangular matrix-vector multiply, in place on x (see
    /// [`Blas3Op::Trmv`]).
    Trmv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place vector operand.
        x: Matrix<T>,
    },
    /// Triangular solve, in place on x (see [`Blas3Op::Trsv`]).
    Trsv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place right-hand side / solution vector.
        x: Matrix<T>,
    },
}

/// An owned vector operand as a contiguous view.
fn vec_ref<T: Float>(v: &Matrix<T>) -> VecRef<'_, T> {
    VecRef::new(v.as_slice().len(), 1, v.as_slice())
}

/// An owned vector operand as a contiguous mutable view.
fn vec_mut<T: Float>(v: &mut Matrix<T>) -> VecMut<'_, T> {
    let data = v.as_mut_slice();
    VecMut::new(data.len(), 1, data)
}

/// Shape of `op(M)` for an owned matrix under a transpose flag.
fn op_shape<T: Float>(m: &Matrix<T>, trans: Transpose) -> (usize, usize) {
    match trans {
        Transpose::No => (m.rows(), m.cols()),
        Transpose::Yes => (m.cols(), m.rows()),
    }
}

impl<T: Float> OwnedOp<T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            OwnedOp::Gemm { .. } => OpKind::Gemm,
            OwnedOp::Symm { .. } => OpKind::Symm,
            OwnedOp::Syrk { .. } => OpKind::Syrk,
            OwnedOp::Syr2k { .. } => OpKind::Syr2k,
            OwnedOp::Trmm { .. } => OpKind::Trmm,
            OwnedOp::Trsm { .. } => OpKind::Trsm,
            OwnedOp::Gemv { .. } => OpKind::Gemv,
            OwnedOp::Ger { .. } => OpKind::Ger,
            OwnedOp::Symv { .. } => OpKind::Symv,
            OwnedOp::Trmv { .. } => OpKind::Trmv,
            OwnedOp::Trsv { .. } => OpKind::Trsv,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// Canonical dimension tuple, identical to [`Blas3Op::dims`].
    pub fn dims(&self) -> Dims {
        match self {
            OwnedOp::Gemm { transa, a, c, .. } => {
                let (_, k) = op_shape(a, *transa);
                Dims::d3(c.rows(), k, c.cols())
            }
            OwnedOp::Symm { c, .. } => Dims::d2(c.rows(), c.cols()),
            OwnedOp::Syrk { trans, a, c, .. } | OwnedOp::Syr2k { trans, a, c, .. } => {
                let (_, k) = op_shape(a, *trans);
                Dims::d2(c.rows(), k)
            }
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => Dims::d2(b.rows(), b.cols()),
            OwnedOp::Gemv { a, .. } | OwnedOp::Ger { a, .. } => Dims::d2(a.rows(), a.cols()),
            OwnedOp::Symv { a, .. } | OwnedOp::Trmv { a, .. } | OwnedOp::Trsv { a, .. } => {
                Dims::d1(a.rows())
            }
        }
    }

    /// Floating-point operation count of this call.
    pub fn flops(&self) -> f64 {
        self.op_kind().flops(self.dims())
    }

    /// Bytes of operand memory this call touches (see
    /// [`Blas3Op::bytes_touched`]).
    pub fn bytes_touched(&self) -> f64 {
        self.op_kind().footprint_bytes(self.dims(), T::PRECISION)
    }

    /// Reborrow as a [`Blas3Op`] view for execution through a
    /// [`crate::backend::Blas3Backend`].
    pub fn as_op(&mut self) -> Blas3Op<'_, T> {
        match self {
            OwnedOp::Gemm {
                transa,
                transb,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Gemm {
                transa: *transa,
                transb: *transb,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Symm {
                side,
                uplo,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Symm {
                side: *side,
                uplo: *uplo,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Syrk {
                uplo,
                trans,
                alpha,
                a,
                beta,
                c,
            } => Blas3Op::Syrk {
                uplo: *uplo,
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Syr2k {
                uplo,
                trans,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Syr2k {
                uplo: *uplo,
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Trmm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => Blas3Op::Trmm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_mut(),
            },
            OwnedOp::Trsm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => Blas3Op::Trsm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_mut(),
            },
            OwnedOp::Gemv {
                trans,
                alpha,
                a,
                x,
                beta,
                y,
            } => Blas3Op::Gemv {
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                x: vec_ref(x),
                beta: *beta,
                y: vec_mut(y),
            },
            OwnedOp::Ger { alpha, x, y, a } => Blas3Op::Ger {
                alpha: *alpha,
                x: vec_ref(x),
                y: vec_ref(y),
                a: a.as_mut(),
            },
            OwnedOp::Symv {
                uplo,
                alpha,
                a,
                x,
                beta,
                y,
            } => Blas3Op::Symv {
                uplo: *uplo,
                alpha: *alpha,
                a: a.as_ref(),
                x: vec_ref(x),
                beta: *beta,
                y: vec_mut(y),
            },
            OwnedOp::Trmv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => Blas3Op::Trmv {
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                a: a.as_ref(),
                x: vec_mut(x),
            },
            OwnedOp::Trsv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => Blas3Op::Trsv {
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                a: a.as_ref(),
                x: vec_mut(x),
            },
        }
    }

    /// Check the cross-operand dimension rules (see [`Blas3Op::validate`]).
    pub fn validate(&mut self) -> Result<(), Blas3Error> {
        self.as_op().validate()
    }

    /// The operand that receives this call's result: C; B for TRMM/TRSM;
    /// y for GEMV/SYMV; x for TRMV/TRSV; A for GER.
    pub fn output(&self) -> &Matrix<T> {
        match self {
            OwnedOp::Gemm { c, .. }
            | OwnedOp::Symm { c, .. }
            | OwnedOp::Syrk { c, .. }
            | OwnedOp::Syr2k { c, .. } => c,
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => b,
            OwnedOp::Gemv { y, .. } | OwnedOp::Symv { y, .. } => y,
            OwnedOp::Trmv { x, .. } | OwnedOp::Trsv { x, .. } => x,
            OwnedOp::Ger { a, .. } => a,
        }
    }

    /// Consume the call and return its output operand (see
    /// [`OwnedOp::output`]).
    pub fn into_output(self) -> Matrix<T> {
        match self {
            OwnedOp::Gemm { c, .. }
            | OwnedOp::Symm { c, .. }
            | OwnedOp::Syrk { c, .. }
            | OwnedOp::Syr2k { c, .. } => c,
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => b,
            OwnedOp::Gemv { y, .. } | OwnedOp::Symv { y, .. } => y,
            OwnedOp::Trmv { x, .. } | OwnedOp::Trsv { x, .. } => x,
            OwnedOp::Ger { a, .. } => a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Blas3Backend, NativeBackend, ReferenceBackend};
    use crate::reference;

    fn gemm_op(m: usize) -> OwnedOp<f64> {
        OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::Yes,
            alpha: 1.25,
            a: Matrix::from_fn(m, m, |i, j| ((i * 5 + j) % 7) as f64 - 3.0),
            b: Matrix::from_fn(m, m, |i, j| ((i + 3 * j) % 5) as f64 - 2.0),
            beta: 0.0,
            c: Matrix::zeros(m, m),
        }
    }

    #[test]
    fn owned_op_mirrors_the_borrowed_description() {
        let mut op = gemm_op(12);
        assert_eq!(op.op_kind(), OpKind::Gemm);
        assert_eq!(op.routine().name(), "dgemm");
        assert_eq!(op.dims(), Dims::d3(12, 12, 12));
        assert!(op.validate().is_ok());
        let (flops, bytes) = (op.flops(), op.bytes_touched());
        let view = op.as_op();
        assert_eq!(view.dims(), Dims::d3(12, 12, 12));
        assert_eq!(view.flops(), flops);
        assert_eq!(view.bytes_touched(), bytes);
    }

    #[test]
    fn executes_and_returns_the_output() {
        let mut op = gemm_op(16);
        let (a, b) = match &op {
            OwnedOp::Gemm { a, b, .. } => (a.clone(), b.clone()),
            _ => unreachable!(),
        };
        NativeBackend.execute(1, op.as_op()).unwrap();
        let mut expect = Matrix::<f64>::zeros(16, 16);
        reference::gemm(
            Transpose::No,
            Transpose::Yes,
            1.25,
            &a,
            &b,
            0.0,
            &mut expect,
        );
        assert!(op.output().max_abs_diff(&expect) < 1e-12);
        assert!(op.into_output().max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn in_place_routines_report_b_as_output() {
        let n = 8;
        let b0 = Matrix::<f64>::filled(n, n, 1.0);
        let mut op = OwnedOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: Matrix::from_fn(n, n, |i, j| if i == j { 4.0 } else { 0.5 }),
            b: b0.clone(),
        };
        assert_eq!(op.dims(), Dims::d2(n, n));
        NativeBackend.execute(1, op.as_op()).unwrap();
        // The solve overwrites B, and the output accessor exposes it.
        assert!(op.output().max_abs_diff(&b0) > 1e-3);
    }

    #[test]
    fn owned_validation_reports_mismatches() {
        let mut op = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(4, 5),
            b: Matrix::<f64>::zeros(6, 3),
            beta: 0.0,
            c: Matrix::<f64>::zeros(4, 3),
        };
        let err = op.validate().unwrap_err();
        assert!(matches!(err, Blas3Error::DimMismatch { got: (5, 6), .. }));
    }

    #[test]
    fn reference_and_native_agree_on_owned_ops() {
        let mut native = gemm_op(20);
        let mut refr = native.clone();
        NativeBackend.execute(2, native.as_op()).unwrap();
        ReferenceBackend.execute(1, refr.as_op()).unwrap();
        assert!(native.output().max_abs_diff(refr.output()) < 1e-12);
    }

    /// A contiguous `n x 1` vector operand from its elements.
    fn col(v: &[f64]) -> Matrix<f64> {
        Matrix::from_col_major(v.len(), 1, v.to_vec())
    }

    fn gemv_op(m: usize, n: usize) -> OwnedOp<f64> {
        OwnedOp::Gemv {
            trans: Transpose::No,
            alpha: 1.5,
            a: Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0),
            x: Matrix::from_fn(n, 1, |i, _| (i % 5) as f64 - 2.0),
            beta: 0.5,
            y: Matrix::from_fn(m, 1, |i, _| (i % 3) as f64),
        }
    }

    #[test]
    fn owned_gemv_mirrors_the_borrowed_description() {
        let mut op = gemv_op(9, 14);
        assert_eq!(op.op_kind(), OpKind::Gemv);
        assert_eq!(op.routine().name(), "dgemv");
        assert_eq!(op.dims(), Dims::d2(9, 14));
        assert!(op.validate().is_ok());
        let (flops, bytes) = (op.flops(), op.bytes_touched());
        let view = op.as_op();
        assert_eq!(view.dims(), Dims::d2(9, 14));
        assert_eq!(view.flops(), flops);
        assert_eq!(view.bytes_touched(), bytes);
    }

    #[test]
    fn native_and_reference_agree_through_the_owned_layer() {
        let mut native = gemv_op(17, 23);
        let mut refr = native.clone();
        NativeBackend.execute(4, native.as_op()).unwrap();
        ReferenceBackend.execute(1, refr.as_op()).unwrap();
        assert_eq!(native.output().rows(), 17);
        assert!(native.output().max_abs_diff(refr.output()) < 1e-12);
    }

    #[test]
    fn ger_reports_the_matrix_as_output() {
        let mut op = OwnedOp::Ger {
            alpha: 2.0,
            x: col(&[1.0, 2.0, 3.0]),
            y: col(&[1.0, -1.0]),
            a: Matrix::zeros(3, 2),
        };
        assert_eq!(op.dims(), Dims::d2(3, 2));
        NativeBackend.execute(1, op.as_op()).unwrap();
        assert_eq!(op.output().get(2, 0), 6.0);
        let out = op.into_output();
        assert_eq!(out.get(2, 1), -6.0);
    }

    #[test]
    fn trsv_roundtrips_through_owned_ops() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i < j {
                0.25
            } else {
                0.0
            }
        });
        let x0 = Matrix::from_fn(n, 1, |i, _| (i % 7) as f64 - 3.0);
        let mut mul = OwnedOp::Trmv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a: a.clone(),
            x: x0.clone(),
        };
        NativeBackend.execute(1, mul.as_op()).unwrap();
        let mut solve = OwnedOp::Trsv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a,
            x: mul.into_output(),
        };
        NativeBackend.execute(1, solve.as_op()).unwrap();
        assert!(
            solve.into_output().max_abs_diff(&x0) < 1e-10,
            "trsv did not invert trmv"
        );
    }
}
