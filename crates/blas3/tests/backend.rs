//! Backend-seam tests: `Blas3Op::validate` must reject every malformed
//! call shape with a typed error, and the two shipped backends must agree
//! numerically when driven through the object-safe trait path, for the
//! Level 3 and the Level 2 families alike.

// Outside the Miri subset: exercises the OS thread pool.
#![cfg(not(miri))]

use adsala_blas3::call::{Blas3Error, Blas3Op};
use adsala_blas3::op::{OpKind, Precision, Routine};
use adsala_blas3::{
    Blas3Backend, Diag, FaultBackend, FaultKind, FaultRule, FaultTarget, Float, MatMut, MatRef,
    Matrix, NativeBackend, OwnedOp, ReferenceBackend, Side, Transpose, Uplo,
};

fn mat_t<T: Float>(r: usize, c: usize, seed: u64) -> Matrix<T> {
    Matrix::from_fn(r, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
            .wrapping_add(seed.wrapping_mul(0xBF58476D1CE4E5B9));
        T::from_f64(((h >> 40) % 1000) as f64 / 100.0 - 5.0)
    })
}

fn mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    mat_t(r, c, seed)
}

fn tri_t<T: Float>(n: usize, seed: u64) -> Matrix<T> {
    let mut a = mat_t(n, n, seed);
    for i in 0..n {
        a.set(i, i, T::from_f64(4.0 + (i % 3) as f64));
    }
    a
}

fn tri(n: usize, seed: u64) -> Matrix<f64> {
    tri_t(n, seed)
}

/// One call per Level 2 family (GEMV, GER, SYMV, TRMV, TRSV) on an
/// `m x n` (or order-`m`) matrix; vectors are `len x 1` matrices.
fn level2_ops<T: Float>(m: usize, n: usize) -> Vec<OwnedOp<T>> {
    // TRSV's A: off-diagonals scaled down so the f32 solve stays well
    // conditioned at order m.
    let off = mat_t::<f64>(m, m, 30);
    let solve = Matrix::from_fn(m, m, |i, j| {
        T::from_f64(if i == j {
            4.0
        } else {
            off.get(i, j) / (4.0 * m as f64)
        })
    });
    vec![
        OwnedOp::Gemv {
            trans: Transpose::Yes,
            alpha: T::from_f64(1.3),
            a: mat_t(n, m, 21),
            x: mat_t(n, 1, 22),
            beta: T::from_f64(0.4),
            y: mat_t(m, 1, 23),
        },
        OwnedOp::Ger {
            alpha: T::from_f64(0.8),
            x: mat_t(m, 1, 24),
            y: mat_t(n, 1, 25),
            a: mat_t(m, n, 26),
        },
        OwnedOp::Symv {
            uplo: Uplo::Lower,
            alpha: T::from_f64(0.9),
            a: mat_t(m, m, 27),
            x: mat_t(m, 1, 28),
            beta: T::from_f64(-0.2),
            y: mat_t(m, 1, 29),
        },
        OwnedOp::Trmv {
            uplo: Uplo::Upper,
            trans: Transpose::Yes,
            diag: Diag::NonUnit,
            a: tri_t(m, 31),
            x: mat_t(m, 1, 32),
        },
        OwnedOp::Trsv {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a: solve,
            x: mat_t(m, 1, 33),
        },
    ]
}

/// Run every [`level2_ops`] call on `backend` and return the outputs.
fn run_level2<T: Float, B: Blas3Backend>(backend: &B, nt: usize) -> Vec<Matrix<T>> {
    level2_ops::<T>(23, 17)
        .into_iter()
        .map(|mut op| {
            backend
                .execute(nt, op.as_op())
                .unwrap_or_else(|e| panic!("{} rejected {}: {e}", backend.name(), op.routine()));
            op.into_output()
        })
        .collect()
}

/// Assert two backends' Level 2 outputs agree to `tol`, relative to the
/// second's magnitude.
fn assert_level2_agree<T: Float>(got: &[Matrix<T>], want: &[Matrix<T>], tol: f64, what: &str) {
    let names = ["gemv", "ger", "symv", "trmv", "trsv"];
    for ((name, g), w) in names.iter().zip(got).zip(want) {
        let diff = g.max_abs_diff(w) / w.frob_norm().max(1.0);
        assert!(diff < tol, "{name} {what}: diff {diff}");
    }
}

// ---------------------------------------------------------------- validate

#[test]
fn gemm_validate_rejects_every_mismatch() {
    let a = mat(4, 5, 1);
    let b = mat(5, 3, 2);

    // op(A) rows vs C rows.
    let mut c_bad = Matrix::<f64>::zeros(6, 3);
    let op = Blas3Op::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        b: b.as_ref(),
        beta: 0.0,
        c: c_bad.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (4, 6), .. })
    ));

    // op(B) cols vs C cols.
    let mut c_bad = Matrix::<f64>::zeros(4, 7);
    let op = Blas3Op::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        b: b.as_ref(),
        beta: 0.0,
        c: c_bad.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (3, 7), .. })
    ));

    // Inner k mismatch, visible only with the transpose flag applied.
    let mut c = Matrix::<f64>::zeros(5, 3);
    let op = Blas3Op::Gemm {
        transa: Transpose::Yes, // op(A) = 5x4, so k = 4 != 5
        transb: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        b: b.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (4, 5), .. })
    ));
}

#[test]
fn symm_validate_rejects_nonsquare_and_wrong_side() {
    let b = mat(4, 3, 2);
    let mut c = Matrix::<f64>::zeros(4, 3);

    let a_rect = mat(4, 5, 1);
    let op = Blas3Op::Symm {
        side: Side::Left,
        uplo: Uplo::Upper,
        alpha: 1.0,
        a: a_rect.as_ref(),
        b: b.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::NotSquare {
            rows: 4,
            cols: 5,
            ..
        })
    ));

    // Square A of the wrong order for the Right side (needs n = 3).
    let a_sq = mat(4, 4, 3);
    let op = Blas3Op::Symm {
        side: Side::Right,
        uplo: Uplo::Lower,
        alpha: 1.0,
        a: a_sq.as_ref(),
        b: b.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (4, 3), .. })
    ));

    // B shape must match C.
    let b_bad = mat(4, 9, 4);
    let a_ok = mat(4, 4, 5);
    let op = Blas3Op::Symm {
        side: Side::Left,
        uplo: Uplo::Upper,
        alpha: 1.0,
        a: a_ok.as_ref(),
        b: b_bad.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (9, 3), .. })
    ));
}

#[test]
fn syrk_validate_rejects_nonsquare_c_and_factor_mismatch() {
    let a = mat(4, 6, 1);
    let mut c_rect = Matrix::<f64>::zeros(4, 5);
    let op = Blas3Op::Syrk {
        uplo: Uplo::Lower,
        trans: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        beta: 0.0,
        c: c_rect.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::NotSquare { name: "C", .. })
    ));

    let mut c_wrong = Matrix::<f64>::zeros(6, 6); // needs op(A) rows = 6; a has 4
    let op = Blas3Op::Syrk {
        uplo: Uplo::Lower,
        trans: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        beta: 0.0,
        c: c_wrong.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (4, 6), .. })
    ));

    // With trans=Yes the same operands become consistent.
    let op = Blas3Op::Syrk {
        uplo: Uplo::Lower,
        trans: Transpose::Yes,
        alpha: 1.0,
        a: a.as_ref(),
        beta: 0.0,
        c: c_wrong.as_mut(),
    };
    assert!(op.validate().is_ok());
}

#[test]
fn syr2k_validate_rejects_factor_inconsistency() {
    let a = mat(5, 3, 1);
    let b_bad = mat(5, 4, 2); // inner extent 4 != 3
    let mut c = Matrix::<f64>::zeros(5, 5);
    let op = Blas3Op::Syr2k {
        uplo: Uplo::Upper,
        trans: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        b: b_bad.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (3, 4), .. })
    ));

    let b_off = mat(7, 3, 3); // rows 7 != C order 5
    let op = Blas3Op::Syr2k {
        uplo: Uplo::Upper,
        trans: Transpose::No,
        alpha: 1.0,
        a: a.as_ref(),
        b: b_off.as_ref(),
        beta: 0.0,
        c: c.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (7, 5), .. })
    ));
}

#[test]
fn trmm_trsm_validate_reject_bad_triangles() {
    let mut b = mat(4, 6, 1);

    let a_rect = mat(4, 6, 2);
    let op = Blas3Op::Trmm {
        side: Side::Left,
        uplo: Uplo::Upper,
        trans: Transpose::No,
        diag: Diag::NonUnit,
        alpha: 1.0,
        a: a_rect.as_ref(),
        b: b.as_mut(),
    };
    assert!(matches!(op.validate(), Err(Blas3Error::NotSquare { .. })));

    // Right side needs A of order n = 6; order-4 A must be rejected.
    let a_sq = tri(4, 3);
    let op = Blas3Op::Trsm {
        side: Side::Right,
        uplo: Uplo::Lower,
        trans: Transpose::Yes,
        diag: Diag::Unit,
        alpha: 1.0,
        a: a_sq.as_ref(),
        b: b.as_mut(),
    };
    assert!(matches!(
        op.validate(),
        Err(Blas3Error::DimMismatch { got: (4, 6), .. })
    ));
}

#[test]
fn view_construction_errors_carry_shape_context() {
    let d = [0.0f64; 10];
    match MatRef::try_new(4, 3, 4, &d) {
        Err(Blas3Error::ShortSlice { needed, got, .. }) => {
            assert_eq!(needed, 12);
            assert_eq!(got, 10);
        }
        other => panic!("expected ShortSlice, got {other:?}"),
    }
    let mut m = [0.0f64; 10];
    assert!(matches!(
        MatMut::try_new(4, 2, 3, &mut m),
        Err(Blas3Error::BadLeadingDim { ld: 3, rows: 4, .. })
    ));
}

// ------------------------------------------------- backend agreement (dyn)

/// Execute one op description on a `dyn`-object backend.
fn execute_dyn(backend: &dyn Blas3Backend, nt: usize, op: Blas3Op<'_, f64>) {
    backend
        .execute_f64(nt, op)
        .unwrap_or_else(|e| panic!("{} backend rejected a valid op: {e}", backend.name()));
}

#[test]
fn native_and_reference_agree_through_trait_objects() {
    let backends: [&dyn Blas3Backend; 2] = [&NativeBackend, &ReferenceBackend];
    let (m, n, k) = (23, 17, 31);

    // One representative call per variant; each backend fills its own C
    // starting from identical contents.
    for nt in [1usize, 3] {
        let mut results: Vec<Vec<Matrix<f64>>> = Vec::new();
        for backend in backends {
            let mut per_op = Vec::new();

            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let mut c = mat(m, n, 3);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.3,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.4,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(m, m, 4);
            let b = mat(m, n, 5);
            let mut c = mat(m, n, 6);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Symm {
                    side: Side::Left,
                    uplo: Uplo::Upper,
                    alpha: 0.9,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: -0.2,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(n, k, 7);
            let mut c = mat(n, n, 8);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Syrk {
                    uplo: Uplo::Lower,
                    trans: Transpose::No,
                    alpha: 1.1,
                    a: a.as_ref(),
                    beta: 0.6,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(n, k, 9);
            let b = mat(n, k, 10);
            let mut c = mat(n, n, 11);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Syr2k {
                    uplo: Uplo::Upper,
                    trans: Transpose::No,
                    alpha: 0.7,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.1,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = tri(m, 12);
            let mut b = mat(m, n, 13);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Trmm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    trans: Transpose::No,
                    diag: Diag::NonUnit,
                    alpha: 1.0,
                    a: a.as_ref(),
                    b: b.as_mut(),
                },
            );
            per_op.push(b);

            let a = tri(n, 14);
            let mut b = mat(m, n, 15);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Trsm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    trans: Transpose::No,
                    diag: Diag::NonUnit,
                    alpha: 2.0,
                    a: a.as_ref(),
                    b: b.as_mut(),
                },
            );
            per_op.push(b);

            results.push(per_op);
        }

        let names = ["gemm", "symm", "syrk", "syr2k", "trmm", "trsm"];
        for (i, name) in names.iter().enumerate() {
            let scale = results[1][i].frob_norm().max(1.0);
            let diff = results[0][i].max_abs_diff(&results[1][i]) / scale;
            assert!(
                diff < 1e-12,
                "{name} nt={nt}: native vs reference diff {diff}"
            );
        }

        // The Level 2 families, both precisions, through the same objects.
        let [native, reference] = backends;
        let what = format!("nt={nt} native vs reference");
        assert_level2_agree::<f64>(
            &run_level2(&native, nt),
            &run_level2(&reference, nt),
            1e-12,
            &what,
        );
        assert_level2_agree::<f32>(
            &run_level2(&native, nt),
            &run_level2(&reference, nt),
            1e-5,
            &what,
        );
    }
}

#[test]
fn backends_validate_before_executing() {
    // Both backends must reject the same malformed op with a typed error
    // (not a panic) through the trait-object path.
    let backends: [&dyn Blas3Backend; 2] = [&NativeBackend, &ReferenceBackend];
    for backend in backends {
        let a = mat(4, 5, 1);
        let b = mat(9, 3, 2); // inner 5 vs 9
        let mut c = Matrix::<f64>::zeros(4, 3);
        let err = backend
            .execute_f64(
                1,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.0,
                    c: c.as_mut(),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, Blas3Error::DimMismatch { got: (5, 9), .. }),
            "{}: {err:?}",
            backend.name()
        );
        check_level2_rejections::<f32, _>(&backend);
        check_level2_rejections::<f64, _>(&backend);
    }
}

/// `backend` rejects one malformed call per Level 2 family with the
/// typed error validation reports, and leaves the output untouched.
fn check_level2_rejections<T: Float, B: Blas3Backend>(backend: &B) {
    let v = |n: usize| Matrix::<T>::filled(n, 1, T::ONE);
    let (one, zero) = (T::ONE, T::ZERO);
    let malformed = vec![
        // x has 4 elements; op(A) has 5 columns.
        OwnedOp::Gemv {
            trans: Transpose::No,
            alpha: one,
            a: mat_t(4, 5, 1),
            x: v(4),
            beta: zero,
            y: v(4),
        },
        // x has 3 elements; A has 4 rows.
        OwnedOp::Ger {
            alpha: one,
            x: v(3),
            y: v(5),
            a: mat_t(4, 5, 2),
        },
        // A is not square.
        OwnedOp::Symv {
            uplo: Uplo::Upper,
            alpha: one,
            a: mat_t(4, 5, 3),
            x: v(4),
            beta: zero,
            y: v(4),
        },
        // x has 5 elements; A has order 4.
        OwnedOp::Trmv {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            diag: Diag::Unit,
            a: tri_t(4, 4),
            x: v(5),
        },
        // A is not square.
        OwnedOp::Trsv {
            uplo: Uplo::Upper,
            trans: Transpose::Yes,
            diag: Diag::NonUnit,
            a: mat_t(3, 4, 5),
            x: v(3),
        },
    ];
    for mut op in malformed {
        let before = op.output().clone();
        let want = op.validate().unwrap_err();
        assert!(matches!(
            want,
            Blas3Error::DimMismatch { .. } | Blas3Error::NotSquare { .. }
        ));
        let err = backend.execute(1, op.as_op()).unwrap_err();
        assert_eq!(err, want, "{} {}", backend.name(), op.routine());
        assert_eq!(
            op.output(),
            &before,
            "{} wrote a rejected call",
            op.routine()
        );
    }
}

#[test]
fn generic_execute_works_on_boxed_trait_objects() {
    // The generic convenience path must also serve `Box<dyn Blas3Backend>`,
    // which is how a runtime with a runtime-chosen backend stores it.
    let backend: Box<dyn Blas3Backend> = Box::new(ReferenceBackend);
    let a = Matrix::<f64>::identity(6);
    let b = mat(6, 4, 1);
    let mut c = Matrix::<f64>::zeros(6, 4);
    backend
        .execute(
            1,
            Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
            },
        )
        .unwrap();
    assert!(c.max_abs_diff(&b) < 1e-15);
    assert_eq!(backend.name(), "reference");
    assert_eq!(backend.max_threads(), 1);

    // The Level 2 families, both precisions, through boxed objects.
    let native: Box<dyn Blas3Backend> = Box::new(NativeBackend);
    for nt in [1usize, 3] {
        let what = format!("nt={nt} boxed native vs boxed reference");
        assert_level2_agree::<f64>(
            &run_level2(&native, nt),
            &run_level2(&backend, nt),
            1e-12,
            &what,
        );
        assert_level2_agree::<f32>(
            &run_level2(&native, nt),
            &run_level2(&backend, nt),
            1e-5,
            &what,
        );
    }
}

#[test]
fn fault_rule_on_a_level2_routine_fires_through_execute_f64() {
    let dgemv = Routine::new(OpKind::Gemv, Precision::Double);
    let backend = FaultBackend::new(
        NativeBackend,
        7,
        vec![FaultRule::new(FaultKind::Fatal).targeting(FaultTarget::routine(dgemv))],
    );
    for mut op in level2_ops::<f64>(9, 6) {
        let before = op.output().clone();
        let result = backend.execute_f64(1, op.as_op());
        if op.routine() == dgemv {
            assert_eq!(
                result,
                Err(Blas3Error::BackendFault {
                    backend: "fault",
                    transient: false
                })
            );
            assert_eq!(op.output(), &before, "a faulted call must not write");
        } else {
            assert_eq!(result, Ok(()), "{} is not targeted", op.routine());
        }
    }
    let stats = backend.stats();
    assert_eq!(stats.calls, 5);
    assert_eq!(stats.injected, 1);
}

#[test]
fn subviews_flow_through_backends() {
    // A Blas3Op over sub-views must only touch the viewed window.
    let big = mat(10, 10, 1);
    let mut out = Matrix::<f64>::filled(10, 10, 7.0);
    {
        let a = big.as_ref().submatrix(1, 1, 4, 3).unwrap();
        let b = big.as_ref().submatrix(2, 4, 3, 5).unwrap();
        let c = out.as_mut().submatrix(3, 2, 4, 5).unwrap();
        NativeBackend
            .execute(
                2,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a,
                    b,
                    beta: 0.0,
                    c,
                },
            )
            .unwrap();
    }
    // Everything outside the 4x5 window at (3,2) is untouched.
    let mut touched = 0;
    for i in 0..10 {
        for j in 0..10 {
            let inside = (3..7).contains(&i) && (2..7).contains(&j);
            if inside {
                touched += 1;
            } else {
                assert_eq!(out.get(i, j), 7.0, "({i},{j}) outside window modified");
            }
        }
    }
    assert_eq!(touched, 20);
    // And the window holds the expected product.
    let mut expect = Matrix::<f64>::zeros(4, 5);
    let am = big.as_ref().submatrix(1, 1, 4, 3).unwrap().to_matrix();
    let bm = big.as_ref().submatrix(2, 4, 3, 5).unwrap().to_matrix();
    adsala_blas3::reference::gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &am,
        &bm,
        0.0,
        &mut expect,
    );
    for i in 0..4 {
        for j in 0..5 {
            assert!((out.get(3 + i, 2 + j) - expect.get(i, j)).abs() < 1e-12);
        }
    }
}
