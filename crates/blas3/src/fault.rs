//! Deterministic fault injection over any [`Blas3Backend`].
//!
//! [`FaultBackend`] decorates an inner backend and injects failures from a
//! **seeded, replayable schedule**: typed errors
//! ([`Blas3Error::BackendFault`], transient or fatal), added latency, a
//! slow ramp that degrades a path a little more on every hit, and —
//! behind the test-only `fault-panic` feature — panics. Rules target
//! per-routine and per-shape ([`FaultTarget`]), so a test can break
//! exactly one path while every other call flows through untouched.
//!
//! ## Determinism and replay
//!
//! Every injection decision is a pure function of `(seed, rule index,
//! per-rule matching-call index)`: the same sequence of calls against the
//! same schedule faults at the same points, forever. There is no global
//! RNG and no time-based state — re-running a failing test with its seed
//! reproduces the exact fault pattern. (Under concurrency the *arrival
//! order* of calls is the scheduler's, but each call's verdict depends
//! only on its position in its rules' matching streams, so counts and
//! windows stay exact.)
//!
//! ## Retry safety
//!
//! Faults are injected **before** the inner backend runs, so a failed
//! call leaves its operands untouched — which is what makes the serve
//! layer's retry policy sound: a transient [`Blas3Error::BackendFault`]
//! guarantees no partial write happened. A real fallible backend must
//! uphold the same contract before marking its errors transient.

use crate::backend::Blas3Backend;
use crate::call::{Blas3Error, Blas3Op};
use crate::op::{Dims, Routine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does to the matching call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail with [`Blas3Error::BackendFault`]`{ transient: true }` —
    /// a retry of the identical call may succeed (and the operands are
    /// untouched, so the retry is safe).
    Transient,
    /// Fail with [`Blas3Error::BackendFault`]`{ transient: false }` —
    /// the path is broken and will keep failing.
    Fatal,
    /// Sleep for the duration, then execute normally. A single long
    /// `Latency` hit on a scheduled window is how tests wedge one
    /// scheduler cell without inventing a stuck thread.
    Latency(Duration),
    /// Added latency that grows per injection on this rule:
    /// `start + step * hits`, capped at `cap` — the "slowly degrading
    /// backend" that trips drift detectors and watchdogs gradually
    /// instead of all at once.
    SlowRamp {
        /// Delay on the first hit.
        start: Duration,
        /// Added per subsequent hit.
        step: Duration,
        /// Ceiling on the injected delay.
        cap: Duration,
    },
    /// Panic on the calling thread. Test-only: gated behind the
    /// `fault-panic` feature so production builds cannot even express it.
    #[cfg(feature = "fault-panic")]
    Panic,
}

/// Which calls a [`FaultRule`] applies to. `None` fields match anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultTarget {
    /// Match only this routine (family + precision), if set.
    pub routine: Option<Routine>,
    /// Match only this exact dimension tuple, if set.
    pub dims: Option<Dims>,
}

impl FaultTarget {
    /// Match every call.
    pub fn any() -> FaultTarget {
        FaultTarget::default()
    }

    /// Match one routine (any shape).
    pub fn routine(routine: Routine) -> FaultTarget {
        FaultTarget {
            routine: Some(routine),
            dims: None,
        }
    }

    /// Match one routine at one exact shape.
    pub fn shape(routine: Routine, dims: Dims) -> FaultTarget {
        FaultTarget {
            routine: Some(routine),
            dims: Some(dims),
        }
    }

    fn matches(&self, routine: Routine, dims: Dims) -> bool {
        self.routine.is_none_or(|r| r == routine) && self.dims.is_none_or(|d| d == dims)
    }
}

/// One entry of a fault schedule. Rules are evaluated in order; the first
/// rule that matches *and* fires claims the call.
///
/// `after`/`count` define a window in the rule's **matching-call stream**
/// (calls its target matches, fired or not): the rule is live for
/// matching calls `after .. after + count`. The default window is
/// "always" and the default probability 1.0, so
/// `FaultRule::new(kind).window(n, 1)` scripts "exactly the n-th matching
/// call" — the shape wedge tests want.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Which calls the rule may claim.
    pub target: FaultTarget,
    /// Chance in `[0, 1]` that a matching in-window call fires, decided
    /// deterministically from the backend seed.
    pub probability: f64,
    /// Matching calls skipped before the rule goes live.
    pub after: u64,
    /// Matching calls the rule stays live for (`u64::MAX` = forever).
    pub count: u64,
    /// What firing does.
    pub kind: FaultKind,
}

impl FaultRule {
    /// An always-on, match-everything rule of the given kind.
    pub fn new(kind: FaultKind) -> FaultRule {
        FaultRule {
            target: FaultTarget::any(),
            probability: 1.0,
            after: 0,
            count: u64::MAX,
            kind,
        }
    }

    /// Restrict the rule to `target`.
    pub fn targeting(mut self, target: FaultTarget) -> FaultRule {
        self.target = target;
        self
    }

    /// Fire on `probability` of matching in-window calls.
    pub fn with_probability(mut self, probability: f64) -> FaultRule {
        self.probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Live for matching calls `after .. after + count`.
    pub fn window(mut self, after: u64, count: u64) -> FaultRule {
        self.after = after;
        self.count = count;
        self
    }
}

/// Counters of one rule, snapshot by [`FaultBackend::rule_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// Calls the rule's target matched (fired or not).
    pub matched: u64,
    /// Calls the rule claimed (faulted).
    pub injected: u64,
}

struct RuleState {
    rule: FaultRule,
    matched: AtomicU64,
    injected: AtomicU64,
}

/// Whole-backend counters, snapshot by [`FaultBackend::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls that reached the decorator.
    pub calls: u64,
    /// Calls any rule claimed.
    pub injected: u64,
}

/// A fault-injecting decorator over any [`Blas3Backend`]. See the module
/// docs for the schedule model.
pub struct FaultBackend<B> {
    inner: B,
    name: String,
    seed: u64,
    rules: Vec<RuleState>,
    calls: AtomicU64,
    injected: AtomicU64,
}

/// The resolved effect of one decision, applied by the entry points.
enum Injection {
    Fail {
        transient: bool,
    },
    Sleep(Duration),
    #[cfg(feature = "fault-panic")]
    Panic,
}

/// Deterministic unit draw in `[0, 1)` from the schedule coordinates —
/// SplitMix64 finalizer over `(seed, rule, idx)`, dependency-free and
/// byte-for-byte identical across platforms.
fn unit(seed: u64, rule: u64, idx: u64) -> f64 {
    let mut z =
        seed ^ rule.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl<B: Blas3Backend> FaultBackend<B> {
    /// Decorate `inner` with a seeded fault schedule.
    pub fn new(inner: B, seed: u64, rules: Vec<FaultRule>) -> FaultBackend<B> {
        let name = format!("fault({})", inner.name());
        FaultBackend {
            inner,
            name,
            seed,
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    matched: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                })
                .collect(),
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Convenience: fail `probability` of all calls transiently — the
    /// "1% flaky backend" most chaos suites start from.
    pub fn transient(inner: B, seed: u64, probability: f64) -> FaultBackend<B> {
        FaultBackend::new(
            inner,
            seed,
            vec![FaultRule::new(FaultKind::Transient).with_probability(probability)],
        )
    }

    /// The decorated backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Whole-backend counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            // ORDER: Relaxed — monotone counters read for reporting only;
            // no memory is published through them.
            calls: self.calls.load(Ordering::Relaxed),
            // ORDER: Relaxed — same reporting-only counter as above.
            injected: self.injected.load(Ordering::Relaxed),
        }
    }

    /// Counters of rule `i` (construction order), or `None` out of range.
    pub fn rule_stats(&self, i: usize) -> Option<RuleStats> {
        self.rules.get(i).map(|rs| RuleStats {
            // ORDER: Relaxed — reporting-only counter.
            matched: rs.matched.load(Ordering::Relaxed),
            // ORDER: Relaxed — reporting-only counter.
            injected: rs.injected.load(Ordering::Relaxed),
        })
    }

    /// Decide this call's fate and bump the schedule counters.
    fn decide(&self, routine: Routine, dims: Dims) -> Option<Injection> {
        // ORDER: Relaxed — call counter for stats; carries no payload.
        self.calls.fetch_add(1, Ordering::Relaxed);
        for (i, rs) in self.rules.iter().enumerate() {
            if !rs.rule.target.matches(routine, dims) {
                continue;
            }
            // ORDER: Relaxed — the per-rule matching index: each call
            // needs a unique slot in the rule's stream, which fetch_add
            // provides on its own; no other memory rides on it.
            let idx = rs.matched.fetch_add(1, Ordering::Relaxed);
            if idx < rs.rule.after || idx.wrapping_sub(rs.rule.after) >= rs.rule.count {
                continue;
            }
            if rs.rule.probability < 1.0 && unit(self.seed, i as u64, idx) >= rs.rule.probability {
                continue;
            }
            // ORDER: Relaxed — per-rule hit counter (also the slow-ramp
            // step index; approximate under races by design).
            let hits = rs.injected.fetch_add(1, Ordering::Relaxed);
            // ORDER: Relaxed — whole-backend hit counter for stats.
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(match rs.rule.kind {
                FaultKind::Transient => Injection::Fail { transient: true },
                FaultKind::Fatal => Injection::Fail { transient: false },
                FaultKind::Latency(d) => Injection::Sleep(d),
                FaultKind::SlowRamp { start, step, cap } => {
                    let ramped =
                        start.saturating_add(step.saturating_mul(hits.min(1 << 20) as u32));
                    Injection::Sleep(ramped.min(cap))
                }
                #[cfg(feature = "fault-panic")]
                FaultKind::Panic => Injection::Panic,
            });
        }
        None
    }

    /// Apply the decision around the inner execution.
    fn apply(
        &self,
        routine: Routine,
        dims: Dims,
        run: impl FnOnce() -> Result<(), Blas3Error>,
    ) -> Result<(), Blas3Error> {
        match self.decide(routine, dims) {
            None => run(),
            Some(Injection::Fail { transient }) => Err(Blas3Error::BackendFault {
                backend: "fault",
                transient,
            }),
            Some(Injection::Sleep(d)) => {
                std::thread::sleep(d);
                run()
            }
            #[cfg(feature = "fault-panic")]
            Some(Injection::Panic) => panic!("injected backend panic (fault-panic schedule)"),
        }
    }
}

impl<B: Blas3Backend> Blas3Backend for FaultBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }

    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        self.apply(op.routine(), op.dims(), move || {
            self.inner.execute_f32(nt, op)
        })
    }

    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        self.apply(op.routine(), op.dims(), move || {
            self.inner.execute_f64(nt, op)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReferenceBackend;
    use crate::op::{OpKind, Precision};
    use crate::{Matrix, OwnedOp, Transpose};

    fn gemm(m: usize) -> OwnedOp<f64> {
        OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::identity(m),
            b: Matrix::<f64>::filled(m, m, 2.0),
            beta: 0.0,
            c: Matrix::<f64>::zeros(m, m),
        }
    }

    fn run_schedule(backend: &FaultBackend<ReferenceBackend>, calls: usize, m: usize) -> Vec<bool> {
        (0..calls)
            .map(|_| {
                let mut op = gemm(m);
                backend.execute_f64(1, op.as_op()).is_err()
            })
            .collect()
    }

    #[test]
    fn schedule_is_deterministic_and_replayable() {
        let mk = || FaultBackend::transient(ReferenceBackend, 42, 0.3);
        let a = run_schedule(&mk(), 200, 3);
        let b = run_schedule(&mk(), 200, 3);
        assert_eq!(a, b, "same seed + same call sequence = same schedule");
        let faults = a.iter().filter(|f| **f).count();
        assert!(
            (30..=90).contains(&faults),
            "0.3 rate wildly off: {faults}/200"
        );
        // A different seed produces a different schedule.
        let c = run_schedule(&FaultBackend::transient(ReferenceBackend, 43, 0.3), 200, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn targeting_breaks_exactly_one_path() {
        let dgemm = Routine::new(OpKind::Gemm, Precision::Double);
        let backend = FaultBackend::new(
            ReferenceBackend,
            7,
            vec![FaultRule::new(FaultKind::Fatal)
                .targeting(FaultTarget::shape(dgemm, Dims::d3(3, 3, 3)))],
        );
        // The targeted shape always fails, fatally.
        let mut hit = gemm(3);
        let err = backend.execute_f64(1, hit.as_op()).unwrap_err();
        assert!(matches!(
            err,
            Blas3Error::BackendFault {
                transient: false,
                ..
            }
        ));
        assert!(!err.is_transient());
        // A different shape of the same routine is untouched.
        let mut miss = gemm(4);
        assert!(backend.execute_f64(1, miss.as_op()).is_ok());
        assert_eq!(
            backend.rule_stats(0).unwrap(),
            RuleStats {
                matched: 1,
                injected: 1
            },
            "the off-shape call must not enter the rule's stream"
        );
        assert_eq!(backend.stats().calls, 2);
    }

    #[test]
    fn window_scripts_the_exact_matching_call() {
        // Fail exactly matching calls 2 and 3 (0-based), nothing else.
        let backend = FaultBackend::new(
            ReferenceBackend,
            0,
            vec![FaultRule::new(FaultKind::Transient).window(2, 2)],
        );
        let outcomes = run_schedule(&backend, 6, 2);
        assert_eq!(outcomes, vec![false, false, true, true, false, false]);
        let err = {
            let b = FaultBackend::new(
                ReferenceBackend,
                0,
                vec![FaultRule::new(FaultKind::Transient)],
            );
            let mut op = gemm(2);
            b.execute_f64(1, op.as_op()).unwrap_err()
        };
        assert!(err.is_transient());
    }

    #[test]
    fn slow_ramp_grows_and_caps() {
        // Durations are asserted through the decision layer (sleeping in a
        // unit test would be flaky); drive `decide` directly.
        let backend = FaultBackend::new(
            ReferenceBackend,
            0,
            vec![FaultRule::new(FaultKind::SlowRamp {
                start: Duration::from_millis(1),
                step: Duration::from_millis(2),
                cap: Duration::from_millis(4),
            })],
        );
        let dgemm = Routine::new(OpKind::Gemm, Precision::Double);
        let delays: Vec<Duration> = (0..4)
            .map(|_| match backend.decide(dgemm, Dims::d3(2, 2, 2)) {
                Some(Injection::Sleep(d)) => d,
                _ => panic!("ramp must inject latency"),
            })
            .collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(3),
                Duration::from_millis(4), // capped (would be 5)
                Duration::from_millis(4),
            ]
        );
    }

    #[test]
    fn first_matching_rule_claims_the_call() {
        // Rule 0 takes the first matching call only; rule 1 the rest.
        let backend = FaultBackend::new(
            ReferenceBackend,
            0,
            vec![
                FaultRule::new(FaultKind::Fatal).window(0, 1),
                FaultRule::new(FaultKind::Transient),
            ],
        );
        let mut op = gemm(2);
        assert!(!backend
            .execute_f64(1, op.as_op())
            .unwrap_err()
            .is_transient());
        let mut op = gemm(2);
        assert!(backend
            .execute_f64(1, op.as_op())
            .unwrap_err()
            .is_transient());
        assert_eq!(backend.stats().injected, 2);
    }

    #[test]
    fn decorator_is_transparent_when_idle() {
        let backend = FaultBackend::new(ReferenceBackend, 0, Vec::new());
        assert_eq!(backend.name(), "fault(reference)");
        assert_eq!(backend.max_threads(), ReferenceBackend.max_threads());
        let mut op = gemm(3);
        assert!(backend.execute_f64(1, op.as_op()).is_ok());
        let out = op.into_output();
        assert_eq!(out.get(0, 0), 2.0, "inner backend actually ran");
        assert_eq!(
            backend.stats(),
            FaultStats {
                calls: 1,
                injected: 0
            }
        );
    }

    #[cfg(feature = "fault-panic")]
    #[test]
    fn panic_injection_panics_on_schedule() {
        let backend = FaultBackend::new(
            ReferenceBackend,
            0,
            vec![FaultRule::new(FaultKind::Panic).window(1, 1)],
        );
        let mut op = gemm(2);
        assert!(backend.execute_f64(1, op.as_op()).is_ok());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut op = gemm(2);
            let _ = backend.execute_f64(1, op.as_op());
        }));
        assert!(result.is_err(), "second call must panic");
    }
}
