//! The BLAS Level 2 routine family: GEMV, GER, SYMV, TRMV, TRSV.
//!
//! These are the crate's **memory-bound** routines: O(n^2) flops over
//! O(n^2) operand bytes, so every matrix element is loaded exactly once
//! and the packed-panel machinery the Level 3 drivers use would only add
//! traffic. Each routine is instead a walk over raw column-major columns
//! built from the two streaming primitives of
//! [`Level2Dispatch`] — `axpy` for
//! column updates, `dot` for column reductions — with software prefetch of
//! the next column when the selected kernel asks for it.
//!
//! Parallel strategy, where there is one:
//!
//! * **GEMV** — NoTrans splits *rows*: each worker owns a disjoint slice of
//!   `y` and streams every column's row-chunk into it. Trans splits
//!   *output elements*: each worker reduces its own columns by `dot`.
//! * **GER** — splits *columns*: each worker rank-1-updates a disjoint
//!   column range of A (perfectly parallel, no reduction).
//! * **SYMV** — the stored triangle makes row-splits ragged, so each team
//!   member accumulates a full-length private partial over its column
//!   chunk, then after a barrier the team reduces disjoint row chunks of
//!   the partials into `y`.
//! * **TRMV / TRSV** stay serial. TRSV's substitution recurrence makes
//!   column `j` depend on every column after (or before) it — the
//!   sequential chain *is* the algorithm — and TRMV's in-place update
//!   order is the same chain run forwards; parallelising either means
//!   blocking into Level 3 calls, which the tiny sizes this family serves
//!   never amortise. The predictor learns `nt = 1` for them instead.
//!
//! All entry points take BLAS-style slices with explicit leading dimension
//! and vector increments; strided (`inc != 1`) vectors are staged through
//! contiguous temporaries so the kernels always stream unit-stride.

use crate::kernel::level2::Level2Dispatch;
use crate::kernel::prefetch_read;
use crate::matrix::check_operand;
use crate::pool::{SendPtr, ThreadPool};
use crate::vector::{VecMut, VecRef};
use crate::{Diag, Float, Transpose, Uplo};

/// Cache lines of the next matrix column to pull while the current one
/// streams (same window as the Level 3 macro-kernel uses for panels).
const PREFETCH_LINES: usize = 4;

/// One column of a column-major `rows x cols` slice with leading dimension
/// `lda`.
#[inline]
fn col<T>(a: &[T], lda: usize, rows: usize, j: usize) -> &[T] {
    &a[j * lda..j * lda + rows]
}

/// Scale a vector in place; `beta == 0` stores zeros (clearing NaNs, per
/// BLAS convention), `beta == 1` is a no-op.
fn scale_vec<T: Float>(beta: T, y: &mut [T]) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        y.fill(T::ZERO);
    } else {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
}

/// Stage a strided input vector as a contiguous slice (borrowing when it
/// already is one).
fn staged<'a, T: Float>(v: &VecRef<'a, T>, buf: &'a mut Vec<T>) -> &'a [T] {
    match v.contiguous() {
        Some(s) => s,
        None => {
            *buf = v.to_vec();
            buf.as_slice()
        }
    }
}

/// `y = alpha * op(A) * x + beta * y` where A is `m x n` column-major.
///
/// Uses exactly `nt` threads (row-split for NoTrans, output-split for
/// Trans); `nt <= 1` runs the serial column walk.
///
/// # Panics
/// If `lda`/slice lengths are inconsistent with the shape, or a vector
/// increment is zero / its slice too short.
pub fn gemv<T: Float>(
    nt: usize,
    trans: Transpose,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    check_operand("gemv A", m, n, lda, a);
    let (xlen, ylen) = match trans {
        Transpose::No => (n, m),
        Transpose::Yes => (m, n),
    };
    let xv = VecRef::new_named("gemv x", xlen, incx, x);
    let mut yv = VecMut::new_named("gemv y", ylen, incy, y);
    if ylen == 0 {
        return;
    }

    let mut xbuf = Vec::new();
    let xs = staged(&xv, &mut xbuf);
    let run = |ys: &mut [T]| {
        scale_vec(beta, ys);
        if alpha != T::ZERO && xlen != 0 {
            let disp = T::kernel2();
            match trans {
                Transpose::No => gemv_notrans(nt, &disp, m, n, alpha, a, lda, xs, ys),
                Transpose::Yes => gemv_trans(nt, &disp, m, n, alpha, a, lda, xs, ys),
            }
        }
    };
    // Strided y: run the whole routine on a contiguous copy, write back once.
    match yv.contiguous_mut() {
        Some(ys) => run(ys),
        None => {
            let mut ybuf = yv.as_ref().to_vec();
            run(&mut ybuf);
            yv.copy_from_slice(&ybuf);
        }
    }
}

/// Row-split `y[0..m] += alpha * A * x`: each worker streams every column's
/// chunk of rows into its disjoint slice of `y`.
fn gemv_notrans<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    y: &mut [T],
) {
    if nt <= 1 || m < 2 {
        for j in 0..n {
            let c = col(a, lda, m, j);
            if disp.prefetch && j + 1 < n {
                prefetch_read(a[(j + 1) * lda..].as_ptr(), PREFETCH_LINES);
            }
            (disp.axpy)(alpha * x[j], c, y);
        }
        return;
    }
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (is, ie) = ThreadPool::chunk(m, nt, tid);
        if is >= ie {
            return;
        }
        // SAFETY: row ranges are disjoint across workers, so each mutable
        // slice of y is exclusive; `y` outlives the fork/join region.
        let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(is), ie - is) };
        for j in 0..n {
            let c = &col(a, lda, m, j)[is..ie];
            if disp.prefetch && j + 1 < n {
                prefetch_read(a[(j + 1) * lda + is..].as_ptr(), PREFETCH_LINES);
            }
            (disp.axpy)(alpha * x[j], c, my_y);
        }
    });
}

/// Output-split `y[0..n] += alpha * A' * x`: each worker reduces its own
/// columns by `dot` (disjoint output elements, no synchronisation).
fn gemv_trans<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    y: &mut [T],
) {
    if nt <= 1 || n < 2 {
        for (j, yj) in y.iter_mut().enumerate().take(n) {
            let c = col(a, lda, m, j);
            if disp.prefetch && j + 1 < n {
                prefetch_read(a[(j + 1) * lda..].as_ptr(), PREFETCH_LINES);
            }
            *yj = alpha.mul_add((disp.dot)(c, x), *yj);
        }
        return;
    }
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (js, je) = ThreadPool::chunk(n, nt, tid);
        if js >= je {
            return;
        }
        // SAFETY: column ranges are disjoint, so each worker's y elements
        // are exclusive.
        let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(js), je - js) };
        for (jj, yj) in my_y.iter_mut().enumerate() {
            let j = js + jj;
            let c = col(a, lda, m, j);
            if disp.prefetch && j + 1 < je {
                prefetch_read(a[(j + 1) * lda..].as_ptr(), PREFETCH_LINES);
            }
            *yj = alpha.mul_add((disp.dot)(c, x), *yj);
        }
    });
}

/// Rank-1 update `A += alpha * x * y'` where A is `m x n` column-major.
///
/// Column-split across `nt` threads: each worker axpy-updates a disjoint
/// column range (no reduction, no synchronisation).
///
/// # Panics
/// On inconsistent shapes, as for [`gemv`].
pub fn ger<T: Float>(
    nt: usize,
    m: usize,
    n: usize,
    alpha: T,
    x: &[T],
    incx: usize,
    y: &[T],
    incy: usize,
    a: &mut [T],
    lda: usize,
) {
    check_operand("ger A", m, n, lda, a);
    let xv = VecRef::new_named("ger x", m, incx, x);
    let yv = VecRef::new_named("ger y", n, incy, y);
    if m == 0 || n == 0 || alpha == T::ZERO {
        return;
    }
    let (mut xbuf, mut ybuf) = (Vec::new(), Vec::new());
    let xs = staged(&xv, &mut xbuf);
    let ys = staged(&yv, &mut ybuf);
    let disp = T::kernel2();

    if nt <= 1 || n < 2 {
        for j in 0..n {
            let c = &mut a[j * lda..j * lda + m];
            (disp.axpy)(alpha * ys[j], xs, c);
        }
        return;
    }
    let aptr = SendPtr(a.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (js, je) = ThreadPool::chunk(n, nt, tid);
        for (j, &yj) in ys.iter().enumerate().take(je).skip(js) {
            // SAFETY: column ranges are disjoint across workers and each
            // column is m <= lda elements starting at j * lda, inside the
            // checked operand.
            let c = unsafe { std::slice::from_raw_parts_mut(aptr.get().add(j * lda), m) };
            (disp.axpy)(alpha * yj, xs, c);
        }
    });
}

/// `y = alpha * A * x + beta * y` where A is symmetric with only the
/// `uplo` triangle stored (`n x n`, column-major).
///
/// Parallel: each team member accumulates a full-length private partial
/// over its column chunk of the stored triangle, then the team reduces
/// disjoint row chunks of the partials into `y` after a barrier.
///
/// # Panics
/// On inconsistent shapes, as for [`gemv`].
pub fn symv<T: Float>(
    nt: usize,
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    incx: usize,
    beta: T,
    y: &mut [T],
    incy: usize,
) {
    check_operand("symv A", n, n, lda, a);
    let xv = VecRef::new_named("symv x", n, incx, x);
    let mut yv = VecMut::new_named("symv y", n, incy, y);
    if n == 0 {
        return;
    }
    let mut xbuf = Vec::new();
    let xs = staged(&xv, &mut xbuf);
    let run = |ys: &mut [T]| {
        scale_vec(beta, ys);
        if alpha != T::ZERO {
            let disp = T::kernel2();
            if nt <= 1 || n < 2 {
                symv_serial_into(&disp, uplo, n, alpha, a, lda, xs, ys);
            } else {
                symv_parallel(nt, &disp, uplo, n, alpha, a, lda, xs, ys);
            }
        }
    };
    match yv.contiguous_mut() {
        Some(ys) => run(ys),
        None => {
            let mut ybuf = yv.as_ref().to_vec();
            run(&mut ybuf);
            yv.copy_from_slice(&ybuf);
        }
    }
}

/// One serial pass over the stored triangle: column `j` contributes an
/// axpy into the off-diagonal rows and a dot for `y[j]`, so each stored
/// element is used for both its own and its mirrored position in one load.
fn symv_serial_into<T: Float>(
    disp: &Level2Dispatch<T>,
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    y: &mut [T],
) {
    for j in 0..n {
        let c = col(a, lda, n, j);
        match uplo {
            Uplo::Upper => {
                // Stored rows 0..=j; c[j] is the diagonal.
                let off = &c[..j];
                (disp.axpy)(alpha * x[j], off, &mut y[..j]);
                let mirror = (disp.dot)(off, &x[..j]);
                y[j] = alpha.mul_add(c[j].mul_add(x[j], mirror), y[j]);
            }
            Uplo::Lower => {
                // Stored rows j..n; c[j] is the diagonal.
                let off = &c[j + 1..n];
                (disp.axpy)(alpha * x[j], off, &mut y[j + 1..n]);
                let mirror = (disp.dot)(off, &x[j + 1..n]);
                y[j] = alpha.mul_add(c[j].mul_add(x[j], mirror), y[j]);
            }
        }
    }
}

/// Column-chunked symmetric product with private partials and a row-chunk
/// reduction (see module docs).
fn symv_parallel<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    uplo: Uplo,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    y: &mut [T],
) {
    // One private full-length partial per team member, in one allocation.
    let mut partials = vec![T::ZERO; nt * n];
    let pptr = SendPtr(partials.as_mut_ptr());
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_team_current(nt, |team| {
        let tid = team.tid;
        // SAFETY: each member touches only its own `tid` stripe before the
        // barrier; the allocation outlives the team region.
        let mine = unsafe { std::slice::from_raw_parts_mut(pptr.get().add(tid * n), n) };
        let (js, je) = team.chunk(n);
        for j in js..je {
            let c = col(a, lda, n, j);
            match uplo {
                Uplo::Upper => {
                    let off = &c[..j];
                    (disp.axpy)(x[j], off, &mut mine[..j]);
                    let mirror = (disp.dot)(off, &x[..j]);
                    mine[j] += c[j].mul_add(x[j], mirror);
                }
                Uplo::Lower => {
                    let off = &c[j + 1..n];
                    (disp.axpy)(x[j], off, &mut mine[j + 1..n]);
                    let mirror = (disp.dot)(off, &x[j + 1..n]);
                    mine[j] += c[j].mul_add(x[j], mirror);
                }
            }
        }
        // Publish every partial before anyone reduces.
        team.barrier();
        let (is, ie) = team.chunk(n);
        if is < ie {
            // SAFETY: row ranges are disjoint across members; partials are
            // read-only after the barrier.
            let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(is), ie - is) };
            for t in 0..team.size {
                // SAFETY: pptr holds team.size partials of n rows each;
                // the barrier above froze them, so shared reads are sound.
                let part =
                    unsafe { std::slice::from_raw_parts(pptr.get().add(t * n + is), ie - is) };
                (disp.axpy)(alpha, part, my_y);
            }
        }
    });
}

/// `x = op(A) * x` in place, A triangular (`n x n`, `uplo` triangle stored,
/// optionally unit-diagonal). Serial by design — see the module docs.
///
/// # Panics
/// On inconsistent shapes, as for [`gemv`].
pub fn trmv<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    n: usize,
    a: &[T],
    lda: usize,
    x: &mut [T],
    incx: usize,
) {
    check_operand("trmv A", n, n, lda, a);
    let mut xv = VecMut::new_named("trmv x", n, incx, x);
    if n == 0 {
        return;
    }
    let disp = T::kernel2();
    // Each (uplo, trans) pair has exactly one in-place walk order that
    // reads every x element before the walk overwrites it.
    let walk = |xs: &mut [T]| match (uplo, trans) {
        (Uplo::Upper, Transpose::No) => {
            // x[i] <- sum_{j >= i}: ascending columns, x[j] still original
            // when column j is consumed.
            for j in 0..n {
                let c = col(a, lda, n, j);
                let t = xs[j];
                (disp.axpy)(t, &c[..j], &mut xs[..j]);
                xs[j] = match diag {
                    Diag::NonUnit => c[j] * t,
                    Diag::Unit => t,
                };
            }
        }
        (Uplo::Lower, Transpose::No) => {
            // Descending columns for the lower triangle.
            for j in (0..n).rev() {
                let c = col(a, lda, n, j);
                let t = xs[j];
                (disp.axpy)(t, &c[j + 1..n], &mut xs[j + 1..n]);
                xs[j] = match diag {
                    Diag::NonUnit => c[j] * t,
                    Diag::Unit => t,
                };
            }
        }
        (Uplo::Upper, Transpose::Yes) => {
            // op(A) is lower: descending dot walk keeps x[..j] original.
            for j in (0..n).rev() {
                let c = col(a, lda, n, j);
                let mirror = (disp.dot)(&c[..j], &xs[..j]);
                let d = match diag {
                    Diag::NonUnit => c[j],
                    Diag::Unit => T::ONE,
                };
                xs[j] = d.mul_add(xs[j], mirror);
            }
        }
        (Uplo::Lower, Transpose::Yes) => {
            // op(A) is upper: ascending dot walk keeps x[j+1..] original.
            for j in 0..n {
                let c = col(a, lda, n, j);
                let mirror = (disp.dot)(&c[j + 1..n], &xs[j + 1..n]);
                let d = match diag {
                    Diag::NonUnit => c[j],
                    Diag::Unit => T::ONE,
                };
                xs[j] = d.mul_add(xs[j], mirror);
            }
        }
    };
    match xv.contiguous_mut() {
        Some(xs) => walk(xs),
        None => {
            let mut xbuf = xv.as_ref().to_vec();
            walk(&mut xbuf);
            xv.copy_from_slice(&xbuf);
        }
    }
}

/// Solve `op(A) * x = b` in place (b arrives in `x`, the solution
/// overwrites it), A triangular. Serial by design: substitution makes
/// every step depend on the previous one — see the module docs.
///
/// # Panics
/// On inconsistent shapes, as for [`gemv`].
pub fn trsv<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    n: usize,
    a: &[T],
    lda: usize,
    x: &mut [T],
    incx: usize,
) {
    check_operand("trsv A", n, n, lda, a);
    let mut xv = VecMut::new_named("trsv x", n, incx, x);
    if n == 0 {
        return;
    }
    let disp = T::kernel2();
    let walk = |xs: &mut [T]| match (uplo, trans) {
        (Uplo::Upper, Transpose::No) => {
            // Back substitution, column-oriented: once x[j] is final,
            // eliminate its contribution from every earlier row at once.
            for j in (0..n).rev() {
                let c = col(a, lda, n, j);
                if diag == Diag::NonUnit {
                    xs[j] = xs[j] / c[j];
                }
                let t = xs[j];
                (disp.axpy)(-t, &c[..j], &mut xs[..j]);
            }
        }
        (Uplo::Lower, Transpose::No) => {
            for j in 0..n {
                let c = col(a, lda, n, j);
                if diag == Diag::NonUnit {
                    xs[j] = xs[j] / c[j];
                }
                let t = xs[j];
                (disp.axpy)(-t, &c[j + 1..n], &mut xs[j + 1..n]);
            }
        }
        (Uplo::Upper, Transpose::Yes) => {
            // op(A) is lower: forward substitution by dot against the
            // already-solved prefix.
            for j in 0..n {
                let c = col(a, lda, n, j);
                let s = xs[j] - (disp.dot)(&c[..j], &xs[..j]);
                xs[j] = match diag {
                    Diag::NonUnit => s / c[j],
                    Diag::Unit => s,
                };
            }
        }
        (Uplo::Lower, Transpose::Yes) => {
            for j in (0..n).rev() {
                let c = col(a, lda, n, j);
                let s = xs[j] - (disp.dot)(&c[j + 1..n], &xs[j + 1..n]);
                xs[j] = match diag {
                    Diag::NonUnit => s / c[j],
                    Diag::Unit => s,
                };
            }
        }
    };
    match xv.contiguous_mut() {
        Some(xs) => walk(xs),
        None => {
            let mut xbuf = xv.as_ref().to_vec();
            walk(&mut xbuf);
            xv.copy_from_slice(&xbuf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let v = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((j as u64).wrapping_mul(40503))
                .wrapping_add(seed);
            ((v % 17) as f64) / 8.0 - 1.0
        })
    }

    fn test_vec(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| (((i as u64).wrapping_mul(97).wrapping_add(seed) % 13) as f64) / 6.0 - 1.0)
            .collect()
    }

    #[test]
    fn gemv_matches_reference_across_threads_and_flags() {
        for &(m, n) in &[(1, 1), (3, 7), (16, 16), (33, 9), (64, 65)] {
            let a = test_mat(m, n, 5);
            for trans in [Transpose::No, Transpose::Yes] {
                let (xl, yl) = match trans {
                    Transpose::No => (n, m),
                    Transpose::Yes => (m, n),
                };
                let x = test_vec(xl, 1);
                let y0 = test_vec(yl, 2);
                let mut want = y0.clone();
                reference::gemv(trans, 1.25, &a, &x, -0.5, &mut want);
                for nt in [1usize, 2, 5] {
                    let mut y = y0.clone();
                    gemv(
                        nt,
                        trans,
                        m,
                        n,
                        1.25,
                        a.as_slice(),
                        m,
                        &x,
                        1,
                        -0.5,
                        &mut y,
                        1,
                    );
                    for i in 0..yl {
                        assert!(
                            (y[i] - want[i]).abs() < 1e-10,
                            "gemv {m}x{n} trans={trans:?} nt={nt} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_strided_vectors_match_contiguous() {
        let (m, n) = (9, 6);
        let a = test_mat(m, n, 3);
        let x = test_vec(2 * n, 4);
        let mut y = test_vec(3 * m, 5);
        let x1: Vec<f64> = x.iter().step_by(2).copied().collect();
        let mut y1: Vec<f64> = y.iter().step_by(3).copied().collect();
        gemv(
            2,
            Transpose::No,
            m,
            n,
            2.0,
            a.as_slice(),
            m,
            &x,
            2,
            0.5,
            &mut y,
            3,
        );
        gemv(
            1,
            Transpose::No,
            m,
            n,
            2.0,
            a.as_slice(),
            m,
            &x1,
            1,
            0.5,
            &mut y1,
            1,
        );
        for i in 0..m {
            assert!((y[3 * i] - y1[i]).abs() < 1e-12, "strided gemv i={i}");
        }
    }

    #[test]
    fn ger_matches_reference_across_threads() {
        let (m, n) = (23, 11);
        let x = test_vec(m, 7);
        let y = test_vec(n, 8);
        let a0 = test_mat(m, n, 9);
        let mut want = a0.clone();
        reference::ger(0.75, &x, &y, &mut want);
        for nt in [1usize, 3, 6] {
            let mut a = a0.clone();
            ger(nt, m, n, 0.75, &x, 1, &y, 1, a.as_mut_slice(), m);
            assert!(a.max_abs_diff(&want) < 1e-12, "ger nt={nt}");
        }
    }

    #[test]
    fn symv_matches_reference_both_triangles() {
        let n = 37;
        let full = {
            let mut m = test_mat(n, n, 11);
            m.symmetrize_from(Uplo::Upper);
            m
        };
        let x = test_vec(n, 12);
        let y0 = test_vec(n, 13);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut want = y0.clone();
            reference::symv(uplo, 1.5, &full, &x, 0.25, &mut want);
            for nt in [1usize, 2, 4, 7] {
                let mut y = y0.clone();
                symv(nt, uplo, n, 1.5, full.as_slice(), n, &x, 1, 0.25, &mut y, 1);
                for i in 0..n {
                    assert!(
                        (y[i] - want[i]).abs() < 1e-10,
                        "symv uplo={uplo:?} nt={nt} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn trmv_and_trsv_roundtrip_all_flag_combinations() {
        let n = 19;
        // Diagonally dominant so the solve is well-conditioned.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i % 3) as f64
            } else {
                (((i * 5 + j * 3) % 7) as f64) / 7.0 - 0.5
            }
        });
        let x0 = test_vec(n, 14);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let mut x = x0.clone();
                    trmv(uplo, trans, diag, n, a.as_slice(), n, &mut x, 1);
                    let mut want = x0.clone();
                    reference::trmv(uplo, trans, diag, &a, &mut want);
                    for i in 0..n {
                        assert!(
                            (x[i] - want[i]).abs() < 1e-10,
                            "trmv {uplo:?}/{trans:?}/{diag:?} i={i}"
                        );
                    }
                    trsv(uplo, trans, diag, n, a.as_slice(), n, &mut x, 1);
                    for i in 0..n {
                        assert!(
                            (x[i] - x0[i]).abs() < 1e-8,
                            "trsv failed to invert trmv {uplo:?}/{trans:?}/{diag:?} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes_are_no_ops() {
        // m == 0: nothing to do, not even beta-scaling.
        gemv::<f64>(
            2,
            Transpose::No,
            0,
            5,
            1.0,
            &[],
            1,
            &[0.0; 5],
            1,
            0.0,
            &mut [],
            1,
        );
        // n == 0: y = beta * y only.
        let mut y = vec![2.0f64; 3];
        gemv(2, Transpose::No, 3, 0, 1.0, &[], 3, &[], 1, 0.5, &mut y, 1);
        assert_eq!(y, vec![1.0; 3]);
        // alpha == 0 skips the product even with poisoned A.
        let mut y = vec![1.0f64; 2];
        gemv(
            1,
            Transpose::No,
            2,
            2,
            0.0,
            &[f64::NAN; 4],
            2,
            &[1.0, 1.0],
            1,
            2.0,
            &mut y,
            1,
        );
        assert_eq!(y, vec![2.0; 2]);
        ger::<f64>(2, 0, 0, 1.0, &[], 1, &[], 1, &mut [], 1);
        symv::<f64>(2, Uplo::Upper, 0, 1.0, &[], 1, &[], 1, 0.0, &mut [], 1);
        trmv::<f64>(
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            0,
            &[],
            1,
            &mut [],
            1,
        );
        trsv::<f64>(
            Uplo::Lower,
            Transpose::Yes,
            Diag::Unit,
            0,
            &[],
            1,
            &mut [],
            1,
        );
    }

    #[test]
    fn beta_zero_overwrites_nan_y() {
        let (m, n) = (4, 4);
        let a = test_mat(m, n, 20);
        let x = test_vec(n, 21);
        let mut y = vec![f64::NAN; m];
        gemv(
            1,
            Transpose::No,
            m,
            n,
            1.0,
            a.as_slice(),
            m,
            &x,
            1,
            0.0,
            &mut y,
            1,
        );
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
