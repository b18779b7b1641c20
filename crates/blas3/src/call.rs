//! The unified call-description layer: one value per BLAS call.
//!
//! A [`Blas3Op`] bundles everything a call needs — operand flags, scalars,
//! typed matrix views and, for the Level 2 families, typed strided vector
//! views — into a single enum with one variant per subroutine family: the
//! six Level 3 families of paper Table I and the five matrix-vector
//! families (GEMV, GER, SYMV, TRMV, TRSV). Backends
//! ([`crate::backend::Blas3Backend`]) consume these descriptions; the ADSALA
//! runtime produces them, predicts a thread count from [`Blas3Op::dims`],
//! and dispatches.
//!
//! The Level 2 families are the crate's memory-bound regime: every routine
//! performs O(n^2) flops over O(n^2) bytes, so arithmetic intensity stays
//! O(1) and the profitable thread count saturates at the memory-bandwidth
//! knee rather than the core count.
//!
//! [`Blas3Op::validate`] turns the cross-operand dimension rules of the BLAS
//! specification into typed [`Blas3Error`]s instead of scattered panics, so
//! library users can reject malformed calls gracefully.

use crate::matrix::{MatMut, MatRef};
use crate::op::{Diag, Dims, OpKind, Routine, Side, Transpose, Uplo};
use crate::vector::{VecMut, VecRef};
use crate::Float;
use std::fmt;

/// Typed error for malformed BLAS calls and views.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Blas3Error {
    /// A leading dimension is smaller than the view's row count.
    BadLeadingDim {
        /// Operand name (`"view"` for standalone views, `"gemm A"`-style
        /// inside a validated call).
        name: &'static str,
        /// The offending leading dimension.
        ld: usize,
        /// The view's row count.
        rows: usize,
    },
    /// A slice is too short for the view shape it was paired with.
    ShortSlice {
        /// Operand name.
        name: &'static str,
        /// View rows.
        rows: usize,
        /// View columns.
        cols: usize,
        /// Leading dimension.
        ld: usize,
        /// Minimum length the shape requires.
        needed: usize,
        /// Actual slice length.
        got: usize,
    },
    /// A sub-view does not fit inside its parent view.
    SubviewOutOfBounds {
        /// Anchor row.
        i: usize,
        /// Anchor column.
        j: usize,
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
        /// Parent view rows.
        parent_rows: usize,
        /// Parent view columns.
        parent_cols: usize,
    },
    /// Two operands of one call disagree on a shared dimension.
    DimMismatch {
        /// Subroutine family the call belongs to.
        op: OpKind,
        /// Which constraint was violated, e.g. `"op(A) columns"` vs
        /// `"op(B) rows"`.
        expected: &'static str,
        /// The two disagreeing extents.
        got: (usize, usize),
    },
    /// A symmetric/triangular operand is not square.
    NotSquare {
        /// Subroutine family the call belongs to.
        op: OpKind,
        /// Operand name.
        name: &'static str,
        /// Actual rows.
        rows: usize,
        /// Actual columns.
        cols: usize,
    },
    /// A vector increment (stride) is zero; the reference BLAS allows
    /// negative increments, this implementation requires `inc >= 1`.
    BadIncrement {
        /// Operand name.
        name: &'static str,
        /// The offending increment.
        inc: usize,
    },
    /// A slice is too short for the vector shape it was paired with.
    ShortVector {
        /// Operand name.
        name: &'static str,
        /// Logical element count.
        len: usize,
        /// Increment (stride) between elements.
        inc: usize,
        /// Minimum slice length the shape requires.
        needed: usize,
        /// Actual slice length.
        got: usize,
    },
    /// The backend failed executing an otherwise well-formed call.
    ///
    /// Raised by fallible backends (notably [`crate::fault::FaultBackend`])
    /// rather than by call validation. `transient` distinguishes faults a
    /// caller may safely retry — ops are pure, so re-execution is idempotent
    /// — from fatal ones that will keep failing.
    BackendFault {
        /// Backend name.
        backend: &'static str,
        /// Whether a retry of the identical call may succeed.
        transient: bool,
    },
}

impl Blas3Error {
    /// `true` when the error is a transient backend fault that a caller may
    /// retry. Every other variant — validation errors, fatal faults — is
    /// deterministic and will fail again identically.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Blas3Error::BackendFault {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for Blas3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blas3Error::BadLeadingDim { name, ld, rows } => {
                write!(f, "{name}: leading dimension {ld} < rows {rows}")
            }
            Blas3Error::ShortSlice {
                name,
                rows,
                cols,
                ld,
                needed,
                got,
            } => write!(
                f,
                "{name}: slice too short for {rows}x{cols} ld {ld}: length {got} < required {needed}"
            ),
            Blas3Error::SubviewOutOfBounds {
                i,
                j,
                rows,
                cols,
                parent_rows,
                parent_cols,
            } => write!(
                f,
                "sub-view {rows}x{cols} at ({i}, {j}) exceeds parent {parent_rows}x{parent_cols}"
            ),
            Blas3Error::DimMismatch { op, expected, got } => write!(
                f,
                "{}: {expected} disagree: {} vs {}",
                op.name(),
                got.0,
                got.1
            ),
            Blas3Error::NotSquare {
                op,
                name,
                rows,
                cols,
            } => write!(f, "{}: {name} must be square, got {rows}x{cols}", op.name()),
            Blas3Error::BadIncrement { name, inc } => {
                write!(f, "{name}: vector increment must be >= 1, got {inc}")
            }
            Blas3Error::ShortVector {
                name,
                len,
                inc,
                needed,
                got,
            } => write!(
                f,
                "{name}: slice too short for {len}-vector inc {inc}: length {got} < required {needed}"
            ),
            Blas3Error::BackendFault { backend, transient } => {
                let kind = if *transient { "transient" } else { "fatal" };
                write!(f, "backend {backend}: {kind} fault")
            }
        }
    }
}

impl std::error::Error for Blas3Error {}

/// Shape of `op(M)` for a view under a transpose flag.
fn op_shape<T: Float>(m: &MatRef<'_, T>, trans: Transpose) -> (usize, usize) {
    match trans {
        Transpose::No => (m.rows(), m.cols()),
        Transpose::Yes => (m.cols(), m.rows()),
    }
}

/// A fully-described BLAS call: flags, scalars, and operand views.
///
/// One variant per subroutine family: the six Level 3 families of paper
/// Table I, then the five Level 2 families. Dimensions are not stored
/// redundantly — they derive from the views via [`Blas3Op::dims`], and
/// [`Blas3Op::validate`] checks the cross-operand consistency rules.
#[derive(Debug)]
pub enum Blas3Op<'a, T: Float> {
    /// `C = alpha * op(A) * op(B) + beta * C`.
    Gemm {
        /// Transpose flag for A.
        transa: Transpose,
        /// Transpose flag for B.
        transb: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Left operand (stored orientation; `transa` applies on top).
        a: MatRef<'a, T>,
        /// Right operand.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: MatMut<'a, T>,
    },
    /// `C = alpha*A*B + beta*C` (Left) or `C = alpha*B*A + beta*C` (Right),
    /// A symmetric with only the `uplo` triangle stored.
    Symm {
        /// Side the symmetric operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: MatRef<'a, T>,
        /// Dense operand.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: MatMut<'a, T>,
    },
    /// `C = alpha*A*A' + beta*C` (No) or `C = alpha*A'*A + beta*C` (Yes);
    /// only the `uplo` triangle of C is referenced and updated.
    Syrk {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Rank-k factor.
        a: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: MatMut<'a, T>,
    },
    /// `C = alpha*(A*B' + B*A') + beta*C` (No) or transposed (Yes); `uplo`
    /// triangle of C only.
    Syr2k {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// First rank-k factor.
        a: MatRef<'a, T>,
        /// Second rank-k factor.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: MatMut<'a, T>,
    },
    /// `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right), A
    /// triangular; B is updated in place.
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
        a: MatRef<'a, T>,
        /// In-place dense operand.
        b: MatMut<'a, T>,
    },
    /// Solve `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B`
    /// (Right); X overwrites B.
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
        a: MatRef<'a, T>,
        /// In-place right-hand sides.
        b: MatMut<'a, T>,
    },
    /// `y = alpha * op(A) * x + beta * y`.
    Gemv {
        /// Transpose flag for A.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Matrix operand (stored orientation; `trans` applies on top).
        a: MatRef<'a, T>,
        /// Input vector (length = columns of `op(A)`).
        x: VecRef<'a, T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector (length = rows of `op(A)`).
        y: VecMut<'a, T>,
    },
    /// Rank-1 update `A = alpha * x * y' + A`, in place on A.
    Ger {
        /// Scale on the outer product.
        alpha: T,
        /// Column vector (length = rows of A).
        x: VecRef<'a, T>,
        /// Row vector (length = columns of A).
        y: VecRef<'a, T>,
        /// In-place matrix operand.
        a: MatMut<'a, T>,
    },
    /// `y = alpha * A * x + beta * y`, A symmetric with only the `uplo`
    /// triangle stored.
    Symv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: MatRef<'a, T>,
        /// Input vector.
        x: VecRef<'a, T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector.
        y: VecMut<'a, T>,
    },
    /// `x = op(A) * x`, A triangular; x is updated in place.
    Trmv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: MatRef<'a, T>,
        /// In-place vector operand.
        x: VecMut<'a, T>,
    },
    /// Solve `op(A) * x = b` where b arrives in x and the solution
    /// overwrites it; A triangular.
    Trsv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: MatRef<'a, T>,
        /// In-place right-hand side / solution vector.
        x: VecMut<'a, T>,
    },
}

impl<'a, T: Float> Blas3Op<'a, T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Blas3Op::Gemm { .. } => OpKind::Gemm,
            Blas3Op::Symm { .. } => OpKind::Symm,
            Blas3Op::Syrk { .. } => OpKind::Syrk,
            Blas3Op::Syr2k { .. } => OpKind::Syr2k,
            Blas3Op::Trmm { .. } => OpKind::Trmm,
            Blas3Op::Trsm { .. } => OpKind::Trsm,
            Blas3Op::Gemv { .. } => OpKind::Gemv,
            Blas3Op::Ger { .. } => OpKind::Ger,
            Blas3Op::Symv { .. } => OpKind::Symv,
            Blas3Op::Trmv { .. } => OpKind::Trmv,
            Blas3Op::Trsv { .. } => OpKind::Trsv,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// Canonical dimension tuple (paper Table I order), derived from the
    /// operand views: GEMM `(m, k, n)`; SYMM `(m, n)`; SYRK/SYR2K `(n, k)`;
    /// TRMM/TRSM `(m, n)`; GEMV/GER `(m, n)` from A's stored shape;
    /// SYMV/TRMV/TRSV `(n)`.
    ///
    /// Meaningful only up to the consistency [`Blas3Op::validate`] checks;
    /// on an inconsistent Level 3 call the extents come from C (and `k`
    /// from A), on a Level 2 call from A.
    pub fn dims(&self) -> Dims {
        match self {
            Blas3Op::Gemm { transa, a, c, .. } => {
                let (_, k) = op_shape(a, *transa);
                Dims::d3(c.rows(), k, c.cols())
            }
            Blas3Op::Symm { c, .. } => Dims::d2(c.rows(), c.cols()),
            Blas3Op::Syrk { trans, a, c, .. } => {
                let (_, k) = op_shape(a, *trans);
                Dims::d2(c.rows(), k)
            }
            Blas3Op::Syr2k { trans, a, c, .. } => {
                let (_, k) = op_shape(a, *trans);
                Dims::d2(c.rows(), k)
            }
            Blas3Op::Trmm { b, .. } | Blas3Op::Trsm { b, .. } => Dims::d2(b.rows(), b.cols()),
            Blas3Op::Gemv { a, .. } => Dims::d2(a.rows(), a.cols()),
            Blas3Op::Ger { a, .. } => Dims::d2(a.rows(), a.cols()),
            Blas3Op::Symv { a, .. } | Blas3Op::Trmv { a, .. } | Blas3Op::Trsv { a, .. } => {
                Dims::d1(a.rows())
            }
        }
    }

    /// Floating-point operation count of this call.
    pub fn flops(&self) -> f64 {
        self.op_kind().flops(self.dims())
    }

    /// Bytes of operand memory this call touches (inputs + outputs, in-place
    /// operands counted once), at the precision of `T`.
    pub fn bytes_touched(&self) -> f64 {
        self.op_kind().footprint_bytes(self.dims(), T::PRECISION)
    }

    /// Check every cross-operand dimension rule of the BLAS specification
    /// for this call, returning the first violation as a typed error.
    ///
    /// Leading-dimension and slice-length invariants are already enforced by
    /// the view constructors, so this only needs to relate the operands to
    /// each other.
    pub fn validate(&self) -> Result<(), Blas3Error> {
        let kind = self.op_kind();
        let square = |name: &'static str, m: &MatRef<'_, T>| {
            if m.rows() != m.cols() {
                Err(Blas3Error::NotSquare {
                    op: kind,
                    name,
                    rows: m.rows(),
                    cols: m.cols(),
                })
            } else {
                Ok(())
            }
        };
        let matches = |expected: &'static str, x: usize, y: usize| {
            if x != y {
                Err(Blas3Error::DimMismatch {
                    op: kind,
                    expected,
                    got: (x, y),
                })
            } else {
                Ok(())
            }
        };
        match self {
            Blas3Op::Gemm {
                transa,
                transb,
                a,
                b,
                c,
                ..
            } => {
                let (am, ak) = op_shape(a, *transa);
                let (bk, bn) = op_shape(b, *transb);
                matches("op(A) rows and C rows", am, c.rows())?;
                matches("op(B) columns and C columns", bn, c.cols())?;
                matches("op(A) columns and op(B) rows", ak, bk)
            }
            Blas3Op::Symm { side, a, b, c, .. } => {
                square("A", a)?;
                let expect = match side {
                    Side::Left => c.rows(),
                    Side::Right => c.cols(),
                };
                matches("A order and the multiplied C extent", a.rows(), expect)?;
                matches("B rows and C rows", b.rows(), c.rows())?;
                matches("B columns and C columns", b.cols(), c.cols())
            }
            Blas3Op::Syrk { trans, a, c, .. } => {
                if c.rows() != c.cols() {
                    return Err(Blas3Error::NotSquare {
                        op: kind,
                        name: "C",
                        rows: c.rows(),
                        cols: c.cols(),
                    });
                }
                let (an, _) = op_shape(a, *trans);
                matches("op(A) rows and C order", an, c.rows())
            }
            Blas3Op::Syr2k { trans, a, b, c, .. } => {
                if c.rows() != c.cols() {
                    return Err(Blas3Error::NotSquare {
                        op: kind,
                        name: "C",
                        rows: c.rows(),
                        cols: c.cols(),
                    });
                }
                let (an, ak) = op_shape(a, *trans);
                let (bn, bk) = op_shape(b, *trans);
                matches("op(A) rows and C order", an, c.rows())?;
                matches("op(B) rows and C order", bn, c.rows())?;
                matches("op(A) and op(B) inner extents", ak, bk)
            }
            Blas3Op::Trmm { side, a, b, .. } | Blas3Op::Trsm { side, a, b, .. } => {
                square("A", a)?;
                let expect = match side {
                    Side::Left => b.rows(),
                    Side::Right => b.cols(),
                };
                matches("A order and the multiplied B extent", a.rows(), expect)
            }
            Blas3Op::Gemv { trans, a, x, y, .. } => {
                let (rows, cols) = op_shape(a, *trans);
                matches("op(A) columns and x length", cols, x.len())?;
                matches("op(A) rows and y length", rows, y.len())
            }
            Blas3Op::Ger { x, y, a, .. } => {
                matches("A rows and x length", a.rows(), x.len())?;
                matches("A columns and y length", a.cols(), y.len())
            }
            Blas3Op::Symv { a, x, y, .. } => {
                square("A", a)?;
                matches("A order and x length", a.rows(), x.len())?;
                matches("A order and y length", a.rows(), y.len())
            }
            Blas3Op::Trmv { a, x, .. } | Blas3Op::Trsv { a, x, .. } => {
                square("A", a)?;
                matches("A order and x length", a.rows(), x.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn op_kind_dims_and_routine() {
        let a = Matrix::<f64>::zeros(3, 5);
        let b = Matrix::<f64>::zeros(5, 7);
        let mut c = Matrix::<f64>::zeros(3, 7);
        let op = Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(op.op_kind(), OpKind::Gemm);
        assert_eq!(op.dims(), Dims::d3(3, 5, 7));
        assert_eq!(op.routine().name(), "dgemm");
        assert_eq!(op.flops(), 2.0 * 3.0 * 5.0 * 7.0);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn cost_helpers_follow_the_blas_formulas() {
        // GEMM m=3, k=5, n=7: 2mkn flops; (mk + kn + mn) f64 words.
        let a = Matrix::<f64>::zeros(3, 5);
        let b = Matrix::<f64>::zeros(5, 7);
        let mut c = Matrix::<f64>::zeros(3, 7);
        let gemm = Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(gemm.flops(), 2.0 * 3.0 * 5.0 * 7.0);
        assert_eq!(gemm.bytes_touched(), (15.0 + 35.0 + 21.0) * 8.0);

        // SYMM m=4, n=6: 2m^2n flops; (m^2 + 2mn) words.
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(4, 6);
        let symm = Blas3Op::Symm {
            side: Side::Left,
            uplo: Uplo::Upper,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(symm.flops(), 2.0 * 16.0 * 6.0);
        assert_eq!(symm.bytes_touched(), (16.0 + 2.0 * 24.0) * 8.0);

        // SYRK n=4, k=6: n^2 k flops; (nk + n^2) f32 words.
        let a = Matrix::<f32>::zeros(4, 6);
        let mut c = Matrix::<f32>::zeros(4, 4);
        let syrk = Blas3Op::Syrk {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(syrk.flops(), 16.0 * 6.0);
        assert_eq!(syrk.bytes_touched(), (24.0 + 16.0) * 4.0);

        // SYR2K n=4, k=6: 2n^2 k flops; (2nk + n^2) words.
        let b = Matrix::<f32>::zeros(4, 6);
        let mut c2 = Matrix::<f32>::zeros(4, 4);
        let syr2k = Blas3Op::Syr2k {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c2.as_mut(),
        };
        assert_eq!(syr2k.flops(), 2.0 * 16.0 * 6.0);
        assert_eq!(syr2k.bytes_touched(), (2.0 * 24.0 + 16.0) * 4.0);

        // TRMM / TRSM m=5, n=3: m^2 n flops; (m^2 + mn) words, B in place.
        let a = Matrix::<f64>::zeros(5, 5);
        let mut bt = Matrix::<f64>::zeros(5, 3);
        let trmm = Blas3Op::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: a.as_ref(),
            b: bt.as_mut(),
        };
        assert_eq!(trmm.flops(), 25.0 * 3.0);
        assert_eq!(trmm.bytes_touched(), (25.0 + 15.0) * 8.0);
        let mut bt = Matrix::<f64>::zeros(5, 3);
        let trsm = Blas3Op::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: a.as_ref(),
            b: bt.as_mut(),
        };
        assert_eq!(trsm.flops(), 25.0 * 3.0);
        assert_eq!(trsm.bytes_touched(), (25.0 + 15.0) * 8.0);
    }

    #[test]
    fn transposed_gemm_dims() {
        let a = Matrix::<f32>::zeros(5, 3); // op(A) = A' is 3x5
        let b = Matrix::<f32>::zeros(7, 5); // op(B) = B' is 5x7
        let mut c = Matrix::<f32>::zeros(3, 7);
        let op = Blas3Op::Gemm {
            transa: Transpose::Yes,
            transb: Transpose::Yes,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(op.dims(), Dims::d3(3, 5, 7));
        assert_eq!(op.routine().name(), "sgemm");
        assert!(op.validate().is_ok());
    }

    #[test]
    fn op_kind_dims_routine_and_costs() {
        let a = Matrix::<f64>::zeros(3, 5);
        let x = [0.0f64; 5];
        let mut y = [0.0f64; 3];
        let op = Blas3Op::Gemv {
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(5, 1, &x),
            beta: 0.0,
            y: VecMut::new(3, 1, &mut y),
        };
        assert_eq!(op.op_kind(), OpKind::Gemv);
        assert_eq!(op.dims(), Dims::d2(3, 5));
        assert_eq!(op.routine().name(), "dgemv");
        assert_eq!(op.flops(), 30.0);
        assert_eq!(op.bytes_touched(), (15.0 + 8.0) * 8.0);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn transposed_gemv_swaps_vector_roles() {
        let a = Matrix::<f32>::zeros(3, 5); // op(A) = A' is 5x3
        let x = [0.0f32; 3];
        let mut y = [0.0f32; 5];
        let op = Blas3Op::Gemv {
            trans: Transpose::Yes,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(3, 1, &x),
            beta: 0.0,
            y: VecMut::new(5, 1, &mut y),
        };
        assert_eq!(op.dims(), Dims::d2(3, 5), "dims follow A's stored shape");
        assert!(op.validate().is_ok());
    }

    #[test]
    fn validation_rejects_mismatched_operands() {
        let a = Matrix::<f64>::zeros(3, 5);
        let x = [0.0f64; 4]; // wrong: needs 5
        let mut y = [0.0f64; 3];
        let op = Blas3Op::Gemv {
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(4, 1, &x),
            beta: 0.0,
            y: VecMut::new(3, 1, &mut y),
        };
        assert!(matches!(
            op.validate().unwrap_err(),
            Blas3Error::DimMismatch { got: (5, 4), .. }
        ));

        let tall = Matrix::<f64>::zeros(4, 3);
        let mut xv = [0.0f64; 4];
        let op = Blas3Op::Trmv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a: tall.as_ref(),
            x: VecMut::new(4, 1, &mut xv),
        };
        assert!(matches!(
            op.validate().unwrap_err(),
            Blas3Error::NotSquare {
                rows: 4,
                cols: 3,
                ..
            }
        ));
    }

    #[test]
    fn ger_dims_and_validation() {
        let mut a = Matrix::<f64>::zeros(3, 5);
        let x = [0.0f64; 3];
        let y = [0.0f64; 5];
        let op = Blas3Op::Ger {
            alpha: 1.0,
            x: VecRef::new(3, 1, &x),
            y: VecRef::new(5, 1, &y),
            a: a.as_mut(),
        };
        assert_eq!(op.dims(), Dims::d2(3, 5));
        assert_eq!(op.flops(), 30.0);
        assert!(op.validate().is_ok());
    }
}
