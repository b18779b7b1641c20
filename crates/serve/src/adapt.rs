//! The online-adaptation driver: drift detection → telemetry refit → hot
//! epoch swap.
//!
//! The paper installs its models once per platform; this module closes the
//! loop the ROADMAP calls "online adaptation". The [`Telemetry`](crate::telemetry::Telemetry) ring
//! already pairs every served call with the prediction it was admitted
//! under; [`Adapter::run_once`] turns those pairs back into training data:
//!
//! 1. **Detect** — per routine, the mean `observed / predicted` ratio over
//!    records priced by the *current* epoch (pre-swap history must not
//!    re-trigger a refit). Ratios inside [`AdaptConfig::drift_band`] are
//!    healthy; short windows are ignored.
//! 2. **Refit** — qualifying records become training rows through the same
//!    feature path the offline install used (`features_for` → a freshly
//!    fitted preprocessing pipeline), with `ln(observed seconds)` labels;
//!    every configured `adsala-ml` model family is grid-search tuned on the
//!    training split. Telemetry only covers the thread counts the live
//!    policy chose, so the training split is augmented with an *anchored nt
//!    sweep*: rows at the other candidate thread counts, labelled with the
//!    live model's nt-profile shifted (in ln space) by each record's
//!    observed-over-predicted ratio. Without this a refit would have no nt
//!    signal at all and its argmin would wander into thread counts nobody
//!    ever measured.
//! 3. **Guard** — the winner is scored on a held-out split against the
//!    *live* epoch scored on the same rows. A candidate whose holdout RMSE
//!    is worse than the live model's is rejected: a refit may never make
//!    the service worse just because drift was detected.
//! 4. **Swap** — an accepted candidate is published with
//!    [`Adsala::swap_model`](adsala::runtime::Adsala::swap_model): the
//!    service keeps serving throughout, callers mid-prediction finish on
//!    the epoch they started with, and the routine's last-call cache
//!    cannot leak stale answers (entries are epoch-tagged).
//!
//! The driver is deliberately synchronous and re-entrant: call
//! [`Adapter::run_once`] from a maintenance thread, a timer loop, or a test
//! — each call makes at most one swap per routine, and post-swap telemetry
//! (tagged with the new epoch) then decides whether the loop has converged.
//! Publication is a compare-and-swap against the epoch the refit was
//! prepared from (`Adsala::swap_model_if`), so concurrent passes — or a
//! pass racing an operator's manual swap — cannot silently replace each
//! other's models: the loser reports [`AdaptAction::Superseded`] and its
//! refit is discarded.

use crate::service::Service;
use crate::telemetry::TelemetryRecord;
use adsala::cost::CostModel;
use adsala::features::{feature_names, features_for};
use adsala::install::InstalledRoutine;
use adsala::pipeline::fit_pipeline;
use adsala_blas3::op::Routine;
use adsala_blas3::Blas3Backend;
use adsala_ml::metrics::rmse;
use adsala_ml::model::{ModelKind, Regressor};
use adsala_ml::preprocess::stratified_split;
use adsala_ml::tuning::GridSearch;
use adsala_ml::Dataset;
use std::sync::Arc;

/// Knobs of the drift → refit → swap loop.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Minimum qualifying records (under the current epoch) per routine
    /// before drift is acted on. Clamped to at least 16 — below that the
    /// holdout guardrail is meaningless.
    pub min_window: usize,
    /// Healthy band for the mean `observed / predicted` ratio; a routine
    /// inside it is left alone.
    pub drift_band: (f64, f64),
    /// Fraction of the window held out for the guardrail comparison.
    pub holdout_frac: f64,
    /// Model families the refit tunes and races (the offline portfolio is
    /// usually overkill online; linear + one tree model is a good default).
    pub kinds: Vec<ModelKind>,
    /// Seed for the train/holdout split.
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> AdaptConfig {
        AdaptConfig {
            min_window: 48,
            drift_band: (0.77, 1.3),
            holdout_frac: 0.25,
            kinds: vec![ModelKind::LinearRegression, ModelKind::DecisionTree],
            seed: 0xADA9_7001,
        }
    }
}

/// A rejected [`AdaptConfig`] (see [`AdaptConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptConfigError {
    /// `drift_band` is not a non-empty positive interval `0 < lo < hi`.
    DriftBand {
        /// Configured lower edge.
        lo: f64,
        /// Configured upper edge.
        hi: f64,
    },
    /// `holdout_frac` is outside the open interval `(0, 1)`.
    HoldoutFrac {
        /// Configured fraction.
        frac: f64,
    },
}

impl std::fmt::Display for AdaptConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptConfigError::DriftBand { lo, hi } => write!(
                f,
                "drift_band ({lo}, {hi}) is not a positive interval with lo < hi: \
                 drift detection would never (or always) fire"
            ),
            AdaptConfigError::HoldoutFrac { frac } => write!(
                f,
                "holdout_frac {frac} is outside (0, 1): the refit would train or \
                 guard on an empty split"
            ),
        }
    }
}

impl std::error::Error for AdaptConfigError {}

impl AdaptConfig {
    fn need(&self) -> usize {
        self.min_window.max(16)
    }

    /// Reject configurations that would make the loop silently inert or
    /// degenerate: a `drift_band` with `lo >= hi` (or non-positive / NaN
    /// edges) means `run_once` either never fires or always fires, and a
    /// `holdout_frac` outside `(0, 1)` trains or guards on an empty split.
    /// Called by [`Adapter::new`] / [`Adapter::try_new`] so a misconfigured
    /// driver fails at construction, not by quietly never adapting.
    pub fn validate(&self) -> Result<(), AdaptConfigError> {
        let (lo, hi) = self.drift_band;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(AdaptConfigError::DriftBand { lo, hi });
        }
        if !(self.holdout_frac.is_finite() && 0.0 < self.holdout_frac && self.holdout_frac < 1.0) {
            return Err(AdaptConfigError::HoldoutFrac {
                frac: self.holdout_frac,
            });
        }
        Ok(())
    }
}

/// What [`Adapter::run_once`] decided for one routine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdaptAction {
    /// Drift is inside the healthy band; nothing to do.
    InBand,
    /// Not enough qualifying records under the current epoch yet.
    TooFewSamples {
        /// Records required before acting.
        need: usize,
    },
    /// Drift detected, refit accepted, new epoch published.
    Swapped {
        /// The epoch version now serving.
        version: u64,
        /// Family of the refitted model.
        selected: ModelKind,
        /// Holdout RMSE (ln-seconds) of the refit.
        candidate_rmse: f64,
        /// Holdout RMSE (ln-seconds) of the epoch it replaced.
        live_rmse: f64,
    },
    /// Drift detected but the refit lost to the live epoch on holdout:
    /// guardrail held, nothing swapped.
    RejectedWorse {
        /// Family of the best (still losing) refit candidate.
        selected: ModelKind,
        /// Its holdout RMSE (ln-seconds).
        candidate_rmse: f64,
        /// The live epoch's holdout RMSE (ln-seconds).
        live_rmse: f64,
    },
    /// Drift detected but no configured model family produced a finite
    /// holdout score (or [`AdaptConfig::kinds`] is empty): nothing to swap.
    NoViableCandidate,
    /// Drift detected and a refit was accepted, but another swap published
    /// a newer epoch first; the refit was discarded as stale.
    Superseded {
        /// Epoch version now serving.
        current_version: u64,
    },
    /// The live model exposes no installation artefacts to refit from
    /// (an opaque [`CostModel`] can be served but not adapted).
    Opaque,
}

/// Per-routine outcome of one [`Adapter::run_once`] pass.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// The routine examined.
    pub routine: Routine,
    /// Qualifying records under the current epoch.
    pub window: usize,
    /// Mean `observed / predicted` over the window (`None` when empty).
    pub drift: Option<f64>,
    /// What the driver did.
    pub action: AdaptAction,
}

/// Outcome of one refit attempt (see [`refit_from_records`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum RefitOutcome {
    /// The refit beat (or tied) the live epoch on holdout.
    Accepted(Box<RefitCandidate>),
    /// Guardrail: the refit was worse than the live epoch on holdout.
    RejectedWorse {
        /// Family of the best candidate.
        selected: ModelKind,
        /// Its holdout RMSE (ln-seconds).
        candidate_rmse: f64,
        /// The live epoch's holdout RMSE (ln-seconds).
        live_rmse: f64,
    },
    /// Too few qualifying records to refit and guard honestly.
    TooFewSamples {
        /// Qualifying records offered.
        have: usize,
        /// Records required.
        need: usize,
    },
    /// No configured model family produced a finite holdout score (or
    /// [`AdaptConfig::kinds`] is empty).
    NoViableCandidate,
    /// The live model exposes no installation artefacts to inherit the
    /// platform metadata from.
    Opaque,
}

/// An accepted refit, ready to swap.
#[derive(Debug)]
pub struct RefitCandidate {
    /// The refitted artefact (version already counted up from the live
    /// epoch; pipeline refitted on the telemetry window).
    pub installed: InstalledRoutine,
    /// Family of the winning model.
    pub selected: ModelKind,
    /// Holdout RMSE (ln-seconds) of the refit.
    pub candidate_rmse: f64,
    /// Holdout RMSE (ln-seconds) of the live epoch on the same rows.
    pub live_rmse: f64,
}

/// The adaptation driver: owns the knobs, acts on a [`Service`].
#[derive(Debug, Clone, Default)]
pub struct Adapter {
    cfg: AdaptConfig,
}

impl Adapter {
    /// Driver with explicit knobs.
    ///
    /// # Panics
    /// If the configuration fails [`AdaptConfig::validate`] — a band that
    /// can never fire or a holdout split that would be empty is a
    /// programming error, not a runtime condition to limp through. Use
    /// [`Adapter::try_new`] to handle it as a value.
    pub fn new(cfg: AdaptConfig) -> Adapter {
        match Adapter::try_new(cfg) {
            Ok(adapter) => adapter,
            Err(e) => panic!("invalid AdaptConfig: {e}"),
        }
    }

    /// Driver with explicit knobs, rejecting invalid ones as a value.
    pub fn try_new(cfg: AdaptConfig) -> Result<Adapter, AdaptConfigError> {
        cfg.validate()?;
        Ok(Adapter { cfg })
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// One pass of the loop: examine every model-backed routine seen in
    /// telemetry, refit and hot-swap the ones that drifted. Returns one
    /// report per examined routine (sorted by routine). The service keeps
    /// serving throughout — this runs entirely through `&Service`.
    pub fn run_once<B: Blas3Backend + 'static>(&self, service: &Service<B>) -> Vec<AdaptReport> {
        // The merged view across every scheduler cell: drift is a property
        // of the model, not of whichever shard happened to execute the
        // call, so the adapter aggregates before it judges.
        let snap = service.telemetry_snapshot();
        let runtime = service.runtime();
        let mut routines: Vec<Routine> = snap
            .iter()
            .filter(|r| r.model_backed)
            .map(|r| r.routine)
            .collect();
        routines.sort();
        routines.dedup();

        let mut reports = Vec::with_capacity(routines.len());
        for routine in routines {
            let Some(epoch) = runtime.model_epoch(routine) else {
                // Model-backed records for a routine without a slot can only
                // mean the record predates a runtime rebuild; nothing to do.
                continue;
            };
            let live_version = epoch.version();
            // Only records priced by the current epoch count: the drift that
            // justified the *last* swap must not justify the next one.
            let recs: Vec<TelemetryRecord> = snap
                .iter()
                .filter(|r| {
                    r.routine == routine && r.epoch == live_version && r.qualifies_for_drift()
                })
                .copied()
                .collect();
            let window = recs.len();
            let drift = (window > 0).then(|| {
                recs.iter()
                    .map(|r| r.observed_secs / r.predicted_secs)
                    .sum::<f64>()
                    / window as f64
            });

            // A full window always has a drift ratio (need() >= 1 per
            // validate()); folding the two conditions into one match keeps
            // the empty-window case on the TooFewSamples path instead of
            // unwrapping.
            let action = match drift {
                None => AdaptAction::TooFewSamples {
                    need: self.cfg.need(),
                },
                Some(_) if window < self.cfg.need() => AdaptAction::TooFewSamples {
                    need: self.cfg.need(),
                },
                Some(ratio) => {
                    let (lo, hi) = self.cfg.drift_band;
                    if ratio >= lo && ratio <= hi {
                        AdaptAction::InBand
                    } else {
                        match refit_from_records(&recs, epoch.model().as_ref(), &self.cfg) {
                            RefitOutcome::Accepted(cand) => {
                                // Compare-and-swap against the epoch the refit
                                // was prepared from: if another driver (or an
                                // operator) published first, this refit is
                                // stale and must not clobber theirs.
                                match runtime.swap_model_if(
                                    routine,
                                    live_version,
                                    Arc::new(cand.installed),
                                ) {
                                    Ok(version) => AdaptAction::Swapped {
                                        version,
                                        selected: cand.selected,
                                        candidate_rmse: cand.candidate_rmse,
                                        live_rmse: cand.live_rmse,
                                    },
                                    Err(adsala::cost::SwapError::VersionConflict {
                                        current,
                                        ..
                                    }) => AdaptAction::Superseded {
                                        current_version: current,
                                    },
                                    Err(e) => {
                                        unreachable!("slot and routine verified above: {e}")
                                    }
                                }
                            }
                            RefitOutcome::RejectedWorse {
                                selected,
                                candidate_rmse,
                                live_rmse,
                            } => AdaptAction::RejectedWorse {
                                selected,
                                candidate_rmse,
                                live_rmse,
                            },
                            RefitOutcome::TooFewSamples { need, .. } => {
                                AdaptAction::TooFewSamples { need }
                            }
                            RefitOutcome::NoViableCandidate => AdaptAction::NoViableCandidate,
                            RefitOutcome::Opaque => AdaptAction::Opaque,
                        }
                    }
                }
            };
            reports.push(AdaptReport {
                routine,
                window,
                drift,
                action,
            });
        }
        reports
    }
}

/// Refit one routine's cost model from telemetry records, guarded against
/// regressions: the candidate is accepted only if its holdout RMSE
/// (ln-seconds) is no worse than the live model's on the same held-out
/// rows.
///
/// Records that do not [qualify](TelemetryRecord::qualifies_for_drift) or
/// belong to another routine are ignored. Exposed so tests (and callers
/// with their own swap policy) can drive the refit without a [`Service`].
pub fn refit_from_records(
    records: &[TelemetryRecord],
    live: &dyn CostModel,
    cfg: &AdaptConfig,
) -> RefitOutcome {
    let routine = live.routine();
    let Some(live_inst) = live.as_installed() else {
        return RefitOutcome::Opaque;
    };
    let usable: Vec<&TelemetryRecord> = records
        .iter()
        .filter(|r| r.routine == routine && r.qualifies_for_drift())
        .collect();
    let need = cfg.need();
    if usable.len() < need {
        return RefitOutcome::TooFewSamples {
            have: usable.len(),
            need,
        };
    }

    // Telemetry rows -> the install-time representation: raw Table III
    // features at the executed thread count, ln(observed seconds) labels.
    let raw: Vec<Vec<f64>> = usable
        .iter()
        .map(|r| features_for(routine, r.dims, r.nt))
        .collect();
    let y: Vec<f64> = usable
        .iter()
        .map(|r| r.observed_secs.max(1e-12).ln())
        .collect();

    let holdout_frac = cfg.holdout_frac.clamp(0.05, 0.5);
    let (train_idx, hold_idx) = stratified_split(&y, holdout_frac, cfg.seed);
    if hold_idx.is_empty() || train_idx.len() < 8 {
        return RefitOutcome::TooFewSamples {
            have: usable.len(),
            need,
        };
    }

    // Fresh preprocessing pipeline on the training split only — the
    // holdout stays untouched by LOF/standardisation fitting.
    let names: Vec<String> = feature_names(routine.op)
        .into_iter()
        .map(String::from)
        .collect();
    let mut train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| raw[i].clone()).collect();
    let mut train_y: Vec<f64> = train_idx.iter().map(|&i| y[i]).collect();

    // Anchored nt sweep: production telemetry only samples the thread
    // counts the live policy chose, so a model fitted on it alone has no nt
    // signal and its argmin would wander into thread counts nobody ever
    // measured. For each training record, add rows at a strided subset of
    // the candidate thread counts, labelled with the live model's
    // nt-profile shifted (in ln space) by the record's observed ratio —
    // the refit learns the drift from real rows and inherits the nt shape
    // from the epoch it replaces. The holdout stays real records only.
    let cands = live_inst.candidates();
    let step = cands.len().div_ceil(6).max(1);
    for &i in &train_idx {
        let r = usable[i];
        let shift = y[i] - live.predict_secs(r.dims, r.nt).max(1e-12).ln();
        for &nt in cands.iter().step_by(step) {
            if nt == r.nt {
                continue;
            }
            train_x.push(features_for(routine, r.dims, nt));
            train_y.push(live.predict_secs(r.dims, nt).max(1e-12).ln() + shift);
        }
    }
    let fitted = fit_pipeline(&Dataset::new(train_x, train_y, names));

    // Guardrail baseline: the live epoch scored on the held-out rows.
    let hold_y: Vec<f64> = hold_idx.iter().map(|&i| y[i]).collect();
    let live_preds: Vec<f64> = hold_idx
        .iter()
        .map(|&i| {
            let r = usable[i];
            live.predict_secs(r.dims, r.nt).max(1e-12).ln()
        })
        .collect();
    let live_rmse = rmse(&live_preds, &hold_y);

    // Tune every configured family on the preprocessed training rows and
    // score each on the raw holdout through the new pipeline.
    let mut best: Option<(ModelKind, adsala_ml::model::Model, f64)> = None;
    for &kind in &cfg.kinds {
        let tuned = GridSearch::new(kind).search(&fitted.train.x, &fitted.train.y);
        let preds: Vec<f64> = hold_idx
            .iter()
            .map(|&i| {
                tuned
                    .model
                    .predict_row(&fitted.config.transform_row(&raw[i]))
            })
            .collect();
        let err = rmse(&preds, &hold_y);
        // A degenerate fit (non-finite holdout error) can never win — and
        // must never slip past the guardrail comparison below.
        if err.is_finite() && best.as_ref().is_none_or(|(.., e)| err < *e) {
            best = Some((kind, tuned.model, err));
        }
    }
    let Some((selected, model, candidate_rmse)) = best else {
        // Empty `kinds`, or every family degenerated to a non-finite
        // holdout score: a typed outcome, not a panic in the maintenance
        // thread that drives adaptation.
        return RefitOutcome::NoViableCandidate;
    };

    if candidate_rmse > live_rmse {
        return RefitOutcome::RejectedWorse {
            selected,
            candidate_rmse,
            live_rmse,
        };
    }

    let installed = InstalledRoutine {
        routine,
        platform: live_inst.platform.clone(),
        max_threads: live_inst.max_threads,
        nt_stride: live_inst.nt_stride,
        pipeline: fitted.config,
        model,
        selected,
        // A refit carries no Table VI evaluation rows; the guardrail RMSEs
        // in the report are its evaluation.
        reports: Vec::new(),
        version: live.version() + 1,
        trained_samples: fitted.train.len(),
    };
    RefitOutcome::Accepted(Box::new(RefitCandidate {
        installed,
        selected,
        candidate_rmse,
        live_rmse,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(AdaptConfig::default().validate(), Ok(()));
        let _ = Adapter::default();
    }

    #[test]
    fn inverted_or_degenerate_drift_band_is_rejected() {
        for band in [
            (1.3, 0.77), // inverted: run_once would never fire
            (1.0, 1.0),  // empty interval
            (0.0, 1.3),  // lo == 0 admits every ratio below the band
            (-0.5, 1.3),
            (f64::NAN, 1.3),
            (0.77, f64::INFINITY),
        ] {
            let cfg = AdaptConfig {
                drift_band: band,
                ..Default::default()
            };
            // NaN edges make derived equality useless; match on the variant.
            assert!(
                matches!(cfg.validate(), Err(AdaptConfigError::DriftBand { .. })),
                "band {band:?} must be rejected"
            );
            assert!(Adapter::try_new(cfg).is_err());
        }
    }

    #[test]
    fn holdout_frac_outside_unit_interval_is_rejected() {
        for frac in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
            let cfg = AdaptConfig {
                holdout_frac: frac,
                ..Default::default()
            };
            assert!(
                matches!(cfg.validate(), Err(AdaptConfigError::HoldoutFrac { .. })),
                "holdout_frac {frac} must be rejected"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid AdaptConfig")]
    fn new_panics_on_invalid_band() {
        Adapter::new(AdaptConfig {
            drift_band: (2.0, 0.5),
            ..Default::default()
        });
    }
}
