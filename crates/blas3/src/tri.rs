//! Geometry shared by the in-place triangular routines,
//! [`trmm`](crate::trmm) and [`trsm`](crate::trsm).
//!
//! **Right is Left on the transpose.** `B·op(A)` is `(op(A)ᵀ·Bᵀ)ᵀ`, so
//! each routine runs one sweep over `X`, which is `B` on the Left and `Bᵀ`
//! on the Right, with the triangular factor `op'(A)` applied on X's left
//! (`op'(A)` is `op(A)` on the Left and `op(A)ᵀ` on the Right). [`XView`]
//! addresses X through B's own column-major storage; its products turn
//! `X[block] += P·Q` into a column-major GEMM on that storage, which for
//! `X = Bᵀ` is the transposed product `Xᵀ[block] += Qᵀ·Pᵀ`.
//!
//! **Diagonal tiles.** [`Tri::pack_diag`] copies one diagonal block of
//! `op'(A)` into a dense tile, with uplo, trans and diag resolved and zeros
//! outside the triangle, so the block's product or substitution runs on
//! contiguous data through the micro-kernel.
//!
//! **Folds.** Every off-diagonal rectangle a sweep folds in lies wholly in
//! A's stored triangle, so [`Tri::fold_src`] is a plain strided view of A
//! (trans only swaps the strides) and packs on the fast path.

use crate::kernel::{
    gemm_cooperative, gemm_serial_with, scale_block, shared_pack_lens, KernelDispatch, SharedPack,
};
use crate::pack::{PackSrc, StridedSrc};
use crate::pool::{SendPtr, TeamCtx};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// Diagonal-block size of the sweeps.
pub(crate) const TB: usize = 64;

/// Columns of X a member handles at a time. It bounds the TRMM panel at
/// `TB x W` whatever the width of the member's column chunk, and keeps the
/// block a substitution works on cache-resident.
pub(crate) const W: usize = 128;

/// Largest diagonal sub-block the substitution solves element-wise; larger
/// ones are halved, and the off-diagonal half runs through the micro-kernel.
const SOLVE_BASE: usize = 16;

/// Diagonal-block indices in sweep order: ascending or descending.
pub(crate) fn sweep(nblocks: usize, ascending: bool) -> impl Iterator<Item = usize> + Clone {
    (0..nblocks).map(move |s| if ascending { s } else { nblocks - 1 - s })
}

/// The triangular factor `op'(A)` of a sweep (see the module docs).
pub(crate) struct Tri<'a, T> {
    a: &'a [T],
    /// Order of A.
    na: usize,
    /// `op'(A)(i, j) = a[i*rs + j*cs]` inside the stored triangle.
    rs: usize,
    cs: usize,
    /// Whether `op'(A)` is upper triangular.
    pub upper: bool,
    unit: bool,
}

impl<'a, T: Float> Tri<'a, T> {
    /// `op'(A)` for a call with these flags; `a` holds the `na x na` A
    /// with leading dimension `lda`.
    pub fn new(
        side: Side,
        uplo: Uplo,
        trans: Transpose,
        diag: Diag,
        na: usize,
        a: &'a [T],
        lda: usize,
    ) -> Self {
        let transposed = (trans == Transpose::Yes) != (side == Side::Right);
        let (rs, cs) = if transposed { (lda, 1) } else { (1, lda) };
        Tri {
            a,
            na,
            rs,
            cs,
            upper: (uplo == Uplo::Upper) != transposed,
            unit: diag == Diag::Unit,
        }
    }

    /// The rows `(first, count)` of X the fold of the diagonal block at
    /// rows `i0..i0+nb` reads: those after the block when `op'(A)` is
    /// upper, those before it when lower.
    pub fn fold_rows(&self, i0: usize, nb: usize) -> (usize, usize) {
        if self.upper {
            (i0 + nb, self.na - i0 - nb)
        } else {
            (0, i0)
        }
    }

    /// The `op'(A)` operand of that fold, `op'(A)[i0..i0+nb, fold_rows]`.
    /// It lies strictly off the diagonal on the triangle's side, so it is
    /// stored as is.
    pub fn fold_src(&self, i0: usize, nb: usize) -> StridedSrc<'a, T> {
        let (src0, krem) = self.fold_rows(i0, nb);
        StridedSrc::new(
            self.a,
            i0 * self.rs + src0 * self.cs,
            self.rs,
            self.cs,
            nb,
            krem,
        )
    }

    /// Pack the diagonal block `op'(A)[i0..i0+nb, i0..i0+nb]` into `tile`
    /// (column-major, leading dimension `nb`): the unit diagonal applied,
    /// zeros outside the triangle. Reads only the stored triangle, and the
    /// diagonal only when it is not unit.
    pub fn pack_diag(&self, i0: usize, nb: usize, tile: &mut [T]) {
        for c in 0..nb {
            let col = &mut tile[c * nb..(c + 1) * nb];
            let stored = if self.upper { 0..c } else { c + 1..nb };
            if self.upper {
                col[c + 1..].fill(T::ZERO);
            } else {
                col[..c].fill(T::ZERO);
            }
            let base = (i0 + c) * self.cs + i0 * self.rs;
            for r in stored {
                col[r] = self.a[base + r * self.rs];
            }
            col[c] = if self.unit {
                T::ONE
            } else {
                self.a[base + c * self.rs]
            };
        }
    }
}

/// The dense `rows x cols` sub-block at `(r0, c0)` of a packed `nb x nb`
/// tile (see [`Tri::pack_diag`]).
pub(crate) fn tile_block<T: Float>(
    tile: &[T],
    nb: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
) -> StridedSrc<'_, T> {
    StridedSrc::new(tile, r0 + c0 * nb, 1, nb, rows, cols)
}

/// A sweep's operand `X`, addressed through column-major storage: `B`
/// itself (Left), `Bᵀ` (Right), or a panel copy of a block of either,
/// stored the same way. Plain data; every access is `unsafe` and bounded by
/// the routine that built the view.
#[derive(Clone, Copy)]
pub(crate) struct XView<T> {
    ptr: SendPtr<T>,
    /// Leading dimension of the storage.
    ld: usize,
    /// Whether `X` is the storage's transpose.
    trans: bool,
}

impl<T: Float> XView<T> {
    /// X over the storage at `ptr` (leading dimension `ld`).
    pub fn new(ptr: *mut T, ld: usize, trans: bool) -> Self {
        XView {
            ptr: SendPtr(ptr),
            ld,
            trans,
        }
    }

    /// `(rs, cs)` such that `X(i, j)` is `ptr[i*rs + j*cs]`.
    fn strides(self) -> (usize, usize) {
        if self.trans {
            (self.ld, 1)
        } else {
            (1, self.ld)
        }
    }

    /// The storage shape of an `r x c` block of X.
    fn stored(self, r: usize, c: usize) -> (usize, usize) {
        if self.trans {
            (c, r)
        } else {
            (r, c)
        }
    }

    /// Pointer to `X(i, j)`.
    fn ptr_at(self, i: usize, j: usize) -> *mut T {
        let (rs, cs) = self.strides();
        self.ptr.get().wrapping_add(i * rs + j * cs)
    }

    /// The view rooted at `X(i, j)`.
    pub fn at(self, i: usize, j: usize) -> Self {
        XView {
            ptr: SendPtr(self.ptr_at(i, j)),
            ..self
        }
    }

    /// An `r x c` block of X held in `buf`, stored the same way as this
    /// view's storage (a panel copy).
    pub fn panel(self, buf: &mut [T], r: usize, c: usize) -> Self {
        debug_assert!(r * c <= buf.len());
        XView::new(buf.as_mut_ptr(), self.stored(r, c).0, self.trans)
    }

    /// X as a read-only packing operand.
    ///
    /// # Safety
    /// As for [`StridedSrc::from_raw`]: every element a product reads
    /// through the view must be in bounds and not written meanwhile.
    pub unsafe fn src<'s>(self) -> StridedSrc<'s, T> {
        let (rs, cs) = self.strides();
        StridedSrc::from_raw(self.ptr.get(), rs, cs)
    }

    /// Packing-buffer lengths for team products into `m x n` blocks of X
    /// with inner dimension up to `k`.
    pub fn pack_lens(
        self,
        disp: &KernelDispatch<T>,
        m: usize,
        n: usize,
        k: usize,
    ) -> (usize, usize) {
        let (sm, sn) = self.stored(m, n);
        shared_pack_lens(disp, sm, sn, k)
    }

    /// The column-major product `(m', n', a', b')` whose `C += a'·b'` on
    /// the storage computes `X[0..m, 0..n] += A·B`.
    fn gemm_args<'s>(
        self,
        m: usize,
        n: usize,
        a: StridedSrc<'s, T>,
        b: StridedSrc<'s, T>,
    ) -> (usize, usize, PackSrc<'s, T>, PackSrc<'s, T>) {
        if self.trans {
            (
                n,
                m,
                PackSrc::Strided(b.transposed()),
                PackSrc::Strided(a.transposed()),
            )
        } else {
            (m, n, PackSrc::Strided(a), PackSrc::Strided(b))
        }
    }

    /// `X[0..m, 0..n] += alpha·A·B` on the calling thread, `A` `m x k`.
    ///
    /// # Safety
    /// The caller owns the block exclusively; `a` and `b` cover their
    /// extents and are not written during the call.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm(
        self,
        disp: &KernelDispatch<T>,
        m: usize,
        n: usize,
        k: usize,
        alpha: T,
        a: StridedSrc<'_, T>,
        b: StridedSrc<'_, T>,
    ) {
        let (m, n, a, b) = self.gemm_args(m, n, a, b);
        gemm_serial_with(disp, m, n, k, alpha, &a, &b, self.ptr.get(), self.ld);
    }

    /// [`XView::gemm`] as one cooperative product of the whole team, which
    /// must all call it with identical arguments. Returns after a trailing
    /// barrier.
    ///
    /// # Safety
    /// As for [`gemm_cooperative`]: the block is team-exclusive, operands
    /// cover their extents and `shared` is sized by [`XView::pack_lens`].
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_team(
        self,
        disp: &KernelDispatch<T>,
        team: &TeamCtx<'_>,
        m: usize,
        n: usize,
        k: usize,
        alpha: T,
        a: StridedSrc<'_, T>,
        b: StridedSrc<'_, T>,
        shared: &SharedPack<T>,
    ) {
        let (m, n, a, b) = self.gemm_args(m, n, a, b);
        gemm_cooperative(
            disp,
            team,
            m,
            n,
            k,
            alpha,
            &a,
            &b,
            self.ptr.get(),
            self.ld,
            shared,
        );
    }

    /// Copy the `r x c` block at this view into `dst`, stored the same way.
    ///
    /// # Safety
    /// Both blocks are in bounds, disjoint, and owned by the caller.
    pub unsafe fn copy_to(self, dst: XView<T>, r: usize, c: usize) {
        let (sr, sc) = self.stored(r, c);
        for j in 0..sc {
            std::ptr::copy_nonoverlapping(
                self.ptr.get().add(j * self.ld),
                dst.ptr.get().add(j * dst.ld),
                sr,
            );
        }
    }

    /// Scale the `r x c` block at this view by `beta` (`0` stores zeros).
    ///
    /// # Safety
    /// The block is in bounds and owned by the caller.
    pub unsafe fn scale(self, r: usize, c: usize, beta: T) {
        let (sr, sc) = self.stored(r, c);
        scale_block(sr, sc, beta, self.ptr.get(), self.ld);
    }
}

/// Solve `T·Y = X` in place for rows `lo..hi` of the `nb x w` block `x`,
/// `T` the packed `nb x nb` diagonal tile (upper or lower). Halves until
/// [`SOLVE_BASE`] rows remain and runs each split's off-diagonal update as
/// a serial GEMM.
///
/// Each column's arithmetic depends only on `nb` and `T`, never on `w` or
/// on which member solves it, so results are bitwise independent of the
/// team size.
///
/// # Safety
/// The block is in bounds and owned by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn solve_tile<T: Float>(
    disp: &KernelDispatch<T>,
    tile: &[T],
    nb: usize,
    upper: bool,
    x: XView<T>,
    w: usize,
    lo: usize,
    hi: usize,
) {
    if hi - lo <= SOLVE_BASE {
        solve_base(tile, nb, upper, x, w, lo, hi);
        return;
    }
    // Split on a multiple of 8 rows so the update runs on whole register
    // tiles; past SOLVE_BASE (>= 8) rows both halves are non-empty.
    let mid = lo + ((hi - lo) / 2).next_multiple_of(8);
    let (first, second) = if upper {
        ((mid, hi), (lo, mid))
    } else {
        ((lo, mid), (mid, hi))
    };
    solve_tile(disp, tile, nb, upper, x, w, first.0, first.1);
    let (r0, rows) = (second.0, second.1 - second.0);
    let (c0, cols) = (first.0, first.1 - first.0);
    x.at(r0, 0).gemm(
        disp,
        rows,
        w,
        cols,
        -T::ONE,
        tile_block(tile, nb, r0, c0, rows, cols),
        x.at(c0, 0).src(),
    );
    solve_tile(disp, tile, nb, upper, x, w, second.0, second.1);
}

/// Element-wise substitution of rows `lo..hi` (see [`solve_tile`]):
/// per pivot row `p`, divide it by `T(p, p)` and subtract its multiples
/// from the rows still to solve. Both loop nests below apply the same
/// operations to every element in the same order, so they agree bitwise.
/// Each walks X along its contiguous direction: run on a transposed X
/// (the Right side), the column-order nest strides through memory on
/// every element and costs Right-side solves about a quarter of their
/// speed.
///
/// # Safety
/// As for [`solve_tile`].
unsafe fn solve_base<T: Float>(
    tile: &[T],
    nb: usize,
    upper: bool,
    x: XView<T>,
    w: usize,
    lo: usize,
    hi: usize,
) {
    let pivots = sweep(hi - lo, !upper).map(|s| lo + s);
    let rest = |p: usize| if upper { lo..p } else { p + 1..hi };
    if x.trans {
        // Rows of X are contiguous: one axpy of length w per (i, p).
        for p in pivots {
            let d = tile[p + p * nb];
            let xp = std::slice::from_raw_parts_mut(x.ptr_at(p, 0), w);
            for v in xp.iter_mut() {
                *v = *v / d;
            }
            let xp: &[T] = xp;
            for i in rest(p) {
                let t = tile[i + p * nb];
                // Row i != p: a storage column disjoint from xp's.
                let xi = std::slice::from_raw_parts_mut(x.ptr_at(i, 0), w);
                for (v, &s) in xi.iter_mut().zip(xp) {
                    *v -= t * s;
                }
            }
        }
    } else {
        // Columns of X are contiguous: axpy over the tile's columns.
        for j in 0..w {
            let col = std::slice::from_raw_parts_mut(x.ptr_at(0, j), nb);
            for p in pivots.clone() {
                col[p] = col[p] / tile[p + p * nb];
                let s = col[p];
                let r = rest(p);
                let tcol = &tile[p * nb + r.start..p * nb + r.end];
                for (v, &t) in col[r].iter_mut().zip(tcol) {
                    *v -= t * s;
                }
            }
        }
    }
}
