//! Pluggable execution backends for [`Blas3Op`] call descriptions.
//!
//! The ADSALA paper's runtime is a *wrapper*: it sits in front of a
//! preexisting BLAS (MKL on Gadi, BLIS on Setonix) and only chooses the
//! thread count. [`Blas3Backend`] is that seam in this reproduction — the
//! runtime is generic over it, so the native blocked kernels, the naive
//! reference oracles, or an FFI binding to a vendor BLAS can all serve the
//! same call stream. Two implementations ship today:
//!
//! * [`NativeBackend`] — this crate's blocked, pool-parallel kernels;
//! * [`ReferenceBackend`] — the `reference` module's naive oracles,
//!   useful for differential testing and as a worked example of adding a
//!   backend.
//!
//! The trait is object-safe (`dyn Blas3Backend` works) via the monomorphic
//! `execute_f32`/`execute_f64` entry points; the generic
//! [`Blas3Backend::execute`] convenience routes through [`Float`] and is
//! available on any sized backend type.

use crate::call::{Blas3Error, Blas3Op};
use crate::matrix::{MatMut, Matrix};
use crate::pool::ThreadPool;
use crate::{reference, Float};

/// An executor of BLAS call descriptions with explicit thread count.
///
/// One entry point per precision serves every Level 3 and Level 2 family.
pub trait Blas3Backend: Send + Sync {
    /// Short backend identifier, used in platform labels and reports.
    fn name(&self) -> &str;

    /// The largest thread count this backend meaningfully uses (the
    /// paper's "maximum number of threads" baseline).
    fn max_threads(&self) -> usize;

    /// Execute a single-precision call with `nt` threads.
    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error>;

    /// Execute a double-precision call with `nt` threads.
    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error>;

    /// Execute a call of either precision (generic convenience over the
    /// monomorphic entry points; `where Self: Sized` keeps the trait
    /// object-safe).
    fn execute<T: Float>(&self, nt: usize, op: Blas3Op<'_, T>) -> Result<(), Blas3Error>
    where
        Self: Sized,
    {
        T::dispatch_op(self, nt, op)
    }
}

impl<B: Blas3Backend + ?Sized> Blas3Backend for &B {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn max_threads(&self) -> usize {
        (**self).max_threads()
    }
    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        (**self).execute_f32(nt, op)
    }
    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        (**self).execute_f64(nt, op)
    }
}

impl<B: Blas3Backend + ?Sized> Blas3Backend for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn max_threads(&self) -> usize {
        (**self).max_threads()
    }
    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        (**self).execute_f32(nt, op)
    }
    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        (**self).execute_f64(nt, op)
    }
}

/// This crate's blocked, thread-pool-parallel kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl NativeBackend {
    /// Validate and execute one call: Level 3 with the blocked kernels,
    /// Level 2 with the streaming column kernels of [`crate::level2`].
    pub fn run<T: Float>(&self, nt: usize, op: Blas3Op<'_, T>) -> Result<(), Blas3Error> {
        op.validate()?;
        // One source of shape truth: the canonical dimension tuple the
        // runtime also predicts from (GEMM (m, k, n); SYMM (m, n);
        // SYRK/SYR2K (n, k); TRMM/TRSM (m, n); GEMV/GER (m, n); SYMV/TRMV/
        // TRSV (n)).
        let dims = op.dims();
        match op {
            Blas3Op::Gemm {
                transa,
                transb,
                alpha,
                a,
                b,
                beta,
                c,
            } => {
                let (m, k, n) = (dims.a(), dims.b(), dims.c());
                let ldc = c.ld();
                crate::gemm::gemm(
                    nt,
                    transa,
                    transb,
                    m,
                    n,
                    k,
                    alpha,
                    a.data(),
                    a.ld(),
                    b.data(),
                    b.ld(),
                    beta,
                    c.into_slice(),
                    ldc,
                );
            }
            Blas3Op::Symm {
                side,
                uplo,
                alpha,
                a,
                b,
                beta,
                c,
            } => {
                let (m, n) = (dims.a(), dims.b());
                let ldc = c.ld();
                crate::symm::symm(
                    nt,
                    side,
                    uplo,
                    m,
                    n,
                    alpha,
                    a.data(),
                    a.ld(),
                    b.data(),
                    b.ld(),
                    beta,
                    c.into_slice(),
                    ldc,
                );
            }
            Blas3Op::Syrk {
                uplo,
                trans,
                alpha,
                a,
                beta,
                c,
            } => {
                let (n, k) = (dims.a(), dims.b());
                let ldc = c.ld();
                crate::syrk::syrk(
                    nt,
                    uplo,
                    trans,
                    n,
                    k,
                    alpha,
                    a.data(),
                    a.ld(),
                    beta,
                    c.into_slice(),
                    ldc,
                );
            }
            Blas3Op::Syr2k {
                uplo,
                trans,
                alpha,
                a,
                b,
                beta,
                c,
            } => {
                let (n, k) = (dims.a(), dims.b());
                let ldc = c.ld();
                crate::syr2k::syr2k(
                    nt,
                    uplo,
                    trans,
                    n,
                    k,
                    alpha,
                    a.data(),
                    a.ld(),
                    b.data(),
                    b.ld(),
                    beta,
                    c.into_slice(),
                    ldc,
                );
            }
            Blas3Op::Trmm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => {
                let (m, n) = (dims.a(), dims.b());
                let ldb = b.ld();
                crate::trmm::trmm(
                    nt,
                    side,
                    uplo,
                    trans,
                    diag,
                    m,
                    n,
                    alpha,
                    a.data(),
                    a.ld(),
                    b.into_slice(),
                    ldb,
                );
            }
            Blas3Op::Trsm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => {
                let (m, n) = (dims.a(), dims.b());
                let ldb = b.ld();
                crate::trsm::trsm(
                    nt,
                    side,
                    uplo,
                    trans,
                    diag,
                    m,
                    n,
                    alpha,
                    a.data(),
                    a.ld(),
                    b.into_slice(),
                    ldb,
                );
            }
            Blas3Op::Gemv {
                trans,
                alpha,
                a,
                x,
                beta,
                y,
            } => {
                let (m, n, lda) = (dims.a(), dims.b(), a.ld());
                let (incx, incy) = (x.inc(), y.inc());
                crate::level2::gemv(
                    nt,
                    trans,
                    m,
                    n,
                    alpha,
                    a.data(),
                    lda,
                    x.data(),
                    incx,
                    beta,
                    y.into_slice(),
                    incy,
                );
            }
            Blas3Op::Ger { alpha, x, y, a } => {
                let (m, n, lda) = (dims.a(), dims.b(), a.ld());
                crate::level2::ger(
                    nt,
                    m,
                    n,
                    alpha,
                    x.data(),
                    x.inc(),
                    y.data(),
                    y.inc(),
                    a.into_slice(),
                    lda,
                );
            }
            Blas3Op::Symv {
                uplo,
                alpha,
                a,
                x,
                beta,
                y,
            } => {
                let (n, lda) = (dims.a(), a.ld());
                let (incx, incy) = (x.inc(), y.inc());
                crate::level2::symv(
                    nt,
                    uplo,
                    n,
                    alpha,
                    a.data(),
                    lda,
                    x.data(),
                    incx,
                    beta,
                    y.into_slice(),
                    incy,
                );
            }
            Blas3Op::Trmv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => {
                let (n, lda) = (dims.a(), a.ld());
                let incx = x.inc();
                crate::level2::trmv(uplo, trans, diag, n, a.data(), lda, x.into_slice(), incx);
            }
            Blas3Op::Trsv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => {
                let (n, lda) = (dims.a(), a.ld());
                let incx = x.inc();
                crate::level2::trsv(uplo, trans, diag, n, a.data(), lda, x.into_slice(), incx);
            }
        }
        Ok(())
    }
}

impl Blas3Backend for NativeBackend {
    fn name(&self) -> &str {
        "native"
    }

    fn max_threads(&self) -> usize {
        ThreadPool::hardware_threads()
    }

    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        self.run(nt, op)
    }

    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        self.run(nt, op)
    }
}

/// The naive `reference` oracles behind the backend seam.
///
/// Serial regardless of `nt` (its `max_threads` is 1); exists for
/// differential testing of backends and as the minimal example of plugging
/// a second BLAS in.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

/// Copy an owned result back into the output view.
fn write_back<T: Float>(out: &mut MatMut<'_, T>, result: &Matrix<T>) {
    for j in 0..out.cols() {
        for i in 0..out.rows() {
            out.set(i, j, result.get(i, j));
        }
    }
}

impl ReferenceBackend {
    /// Validate and execute one call with the naive oracles.
    ///
    /// Operands are materialised into owned matrices (the oracles are
    /// `Matrix`-typed), so this backend is for correctness work, not speed.
    pub fn run<T: Float>(&self, _nt: usize, op: Blas3Op<'_, T>) -> Result<(), Blas3Error> {
        op.validate()?;
        match op {
            Blas3Op::Gemm {
                transa,
                transb,
                alpha,
                a,
                b,
                beta,
                mut c,
            } => {
                let am = a.to_matrix();
                let bm = b.to_matrix();
                let mut cm = c.as_ref().to_matrix();
                reference::gemm(transa, transb, alpha, &am, &bm, beta, &mut cm);
                write_back(&mut c, &cm);
            }
            Blas3Op::Symm {
                side,
                uplo,
                alpha,
                a,
                b,
                beta,
                mut c,
            } => {
                let am = a.to_matrix();
                let bm = b.to_matrix();
                let mut cm = c.as_ref().to_matrix();
                reference::symm(side, uplo, alpha, &am, &bm, beta, &mut cm);
                write_back(&mut c, &cm);
            }
            Blas3Op::Syrk {
                uplo,
                trans,
                alpha,
                a,
                beta,
                mut c,
            } => {
                let am = a.to_matrix();
                let mut cm = c.as_ref().to_matrix();
                reference::syrk(uplo, trans, alpha, &am, beta, &mut cm);
                write_back(&mut c, &cm);
            }
            Blas3Op::Syr2k {
                uplo,
                trans,
                alpha,
                a,
                b,
                beta,
                mut c,
            } => {
                let am = a.to_matrix();
                let bm = b.to_matrix();
                let mut cm = c.as_ref().to_matrix();
                reference::syr2k(uplo, trans, alpha, &am, &bm, beta, &mut cm);
                write_back(&mut c, &cm);
            }
            Blas3Op::Trmm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                mut b,
            } => {
                let am = a.to_matrix();
                let mut bm = b.as_ref().to_matrix();
                reference::trmm(side, uplo, trans, diag, alpha, &am, &mut bm);
                write_back(&mut b, &bm);
            }
            Blas3Op::Trsm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                mut b,
            } => {
                let am = a.to_matrix();
                let mut bm = b.as_ref().to_matrix();
                reference::trsm(side, uplo, trans, diag, alpha, &am, &mut bm);
                write_back(&mut b, &bm);
            }
            Blas3Op::Gemv {
                trans,
                alpha,
                a,
                x,
                beta,
                mut y,
            } => {
                let am = a.to_matrix();
                let xv = x.to_vec();
                let mut yb = y.as_ref().to_vec();
                reference::gemv(trans, alpha, &am, &xv, beta, &mut yb);
                y.copy_from_slice(&yb);
            }
            Blas3Op::Ger { alpha, x, y, mut a } => {
                let xv = x.to_vec();
                let yv = y.to_vec();
                let mut am = a.as_ref().to_matrix();
                reference::ger(alpha, &xv, &yv, &mut am);
                write_back(&mut a, &am);
            }
            Blas3Op::Symv {
                uplo,
                alpha,
                a,
                x,
                beta,
                mut y,
            } => {
                let am = a.to_matrix();
                let xv = x.to_vec();
                let mut yb = y.as_ref().to_vec();
                reference::symv(uplo, alpha, &am, &xv, beta, &mut yb);
                y.copy_from_slice(&yb);
            }
            Blas3Op::Trmv {
                uplo,
                trans,
                diag,
                a,
                mut x,
            } => {
                let am = a.to_matrix();
                let mut xb = x.as_ref().to_vec();
                reference::trmv(uplo, trans, diag, &am, &mut xb);
                x.copy_from_slice(&xb);
            }
            Blas3Op::Trsv {
                uplo,
                trans,
                diag,
                a,
                mut x,
            } => {
                let am = a.to_matrix();
                let mut xb = x.as_ref().to_vec();
                reference::trsv(uplo, trans, diag, &am, &mut xb);
                x.copy_from_slice(&xb);
            }
        }
        Ok(())
    }
}

impl Blas3Backend for ReferenceBackend {
    fn name(&self) -> &str {
        "reference"
    }

    fn max_threads(&self) -> usize {
        1
    }

    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        self.run(nt, op)
    }

    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        self.run(nt, op)
    }
}
