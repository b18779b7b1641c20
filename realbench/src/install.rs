//! Real-host installation: time the install corpus through
//! `RealTimer<NativeBackend>` and fit one XGBoost model per routine.
//!
//! `adsala::install_routine` samples the paper's 500 MB domain and picks
//! the model kind by measured speedup. Neither suits a benchmark on a
//! small shared host: the domain takes minutes to time, and near-tied
//! kinds flip from run to run, changing the installed model. So this
//! module drives the same public pieces (sampler, timer, features,
//! pipeline, grid search) over the capped domain with one fixed kind.

use crate::trace::{SpanId, Tracer};
use crate::workload::{install_corpus, routines};
use adsala::features::{feature_names, features_for};
use adsala::install::InstalledRoutine;
use adsala::pipeline::fit_pipeline;
use adsala::{BlasTimer, RealTimer};
use adsala_ml::model::ModelKind;
use adsala_ml::tuning::GridSearch;
use adsala_ml::Dataset;
use std::time::Instant;

/// Cross-validation folds of the XGBoost grid search.
const FOLDS: usize = 3;

/// Timings per training point; the label is their median. Single
/// timings on a shared host are noisy enough that the installed model's
/// thread choices change from run to run (they still do with three; the
/// run stamp's predicted-`nt` histogram shows by how much).
pub const REPEATS: usize = 3;

/// One installation of every routine.
#[derive(Debug)]
pub struct Installation {
    /// Installed routines, in [`routines`] order.
    pub routines: Vec<InstalledRoutine>,
    /// Seconds inside `RealTimer::time` (operand set-up included).
    pub gather_s: f64,
    /// Seconds in `fit_pipeline` plus the grid search and final fit.
    pub fit_s: f64,
}

/// Install every routine from the fixed install corpus.
pub fn install(timer: &RealTimer, tracer: &mut Tracer, parent: SpanId) -> Installation {
    let mut gather_s = 0.0;
    let mut fit_s = 0.0;
    let mut installed = Vec::new();
    for (ri, routine) in routines().into_iter().enumerate() {
        let corpus = install_corpus(routine, timer.max_threads());
        let mut x = Vec::with_capacity(corpus.len());
        let mut y = Vec::with_capacity(corpus.len());
        let g0 = Instant::now();
        for (i, s) in corpus.iter().enumerate() {
            let mut reps: Vec<f64> = (0..REPEATS)
                .map(|k| timer.time(routine, s.dims, s.nt, (i * REPEATS + k) as u64))
                .collect();
            reps.sort_by(f64::total_cmp);
            x.push(features_for(routine, s.dims, s.nt));
            y.push(reps[REPEATS / 2].max(1e-12).ln());
        }
        let g1 = Instant::now();
        tracer.span("install.gather", g0, g1, parent, ri as u64);
        gather_s += (g1 - g0).as_secs_f64();

        let names = feature_names(routine.op)
            .into_iter()
            .map(String::from)
            .collect();
        let data = Dataset::new(x, y, names);
        let f0 = Instant::now();
        let fitted = fit_pipeline(&data);
        let tuned = GridSearch {
            kind: ModelKind::Xgboost,
            folds: FOLDS,
        }
        .search(&fitted.train.x, &fitted.train.y);
        let f1 = Instant::now();
        tracer.span("install.fit", f0, f1, parent, ri as u64);
        fit_s += (f1 - f0).as_secs_f64();

        installed.push(InstalledRoutine {
            routine,
            platform: timer.platform().to_string(),
            max_threads: timer.max_threads(),
            nt_stride: 1,
            pipeline: fitted.config,
            model: tuned.model,
            selected: ModelKind::Xgboost,
            reports: Vec::new(),
            version: 1,
            trained_samples: fitted.train.len(),
        });
    }
    Installation {
        routines: installed,
        gather_s,
        fit_s,
    }
}
