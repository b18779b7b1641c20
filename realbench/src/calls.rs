//! The closed-loop call workloads: one caller replays a held-out call
//! stream through `Adsala::execute` for a fixed measuring window.

use crate::operands::Operands;
use crate::trace::{Tracer, NO_SPAN};
use crate::workload::Call;
use crate::Rng;
use adsala::Adsala;
use adsala_blas3::op::{Precision, Routine};
use adsala_blas3::{arena, Blas3Backend, Blas3Error, Float};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Unrecorded calls before the window opens, so the pool, the arena and
/// the caches are warm.
const WARMUP: Duration = Duration::from_millis(300);

/// Share of calls whose output is recomputed with `ReferenceBackend`.
const CHECK_PROB: f64 = 1.0 / 64.0;

/// Most reference checks per run.
const MAX_CHECKS: u64 = 48;

/// Operand buffers of both precisions.
#[derive(Debug)]
pub struct Buffers {
    f64: Operands<f64>,
    f32: Operands<f32>,
}

impl Buffers {
    /// Buffers filled from `seed`.
    pub fn new(seed: u64) -> Buffers {
        Buffers {
            f64: Operands::new(seed),
            f32: Operands::new(seed),
        }
    }
}

/// What one run of a calls workload measured.
#[derive(Debug, Default)]
pub struct CallsOutcome {
    /// Latency of each call in the window, seconds.
    pub latencies_s: Vec<f64>,
    /// Useful flops of each call, parallel to `latencies_s`.
    pub flops_each: Vec<f64>,
    /// Summed useful flops of the calls in the window.
    pub flops: f64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Calls whose output was recomputed.
    pub checked: u64,
    /// Recomputed calls whose output did not match.
    pub mismatches: u64,
    /// Thread counts the runtime chose, per routine (`[nt] -> count`).
    pub nt_hist: BTreeMap<Routine, Vec<u64>>,
    /// Arena misses (fresh packing allocations) in the window.
    pub arena_misses: u64,
    /// Stream index the next window should start at.
    pub next: usize,
    /// End (in `latencies_s`) of each pooled window.
    pub window_ends: Vec<usize>,
}

impl CallsOutcome {
    /// Calls attempted in the window.
    pub fn attempted(&self) -> u64 {
        self.latencies_s.len() as u64
    }

    /// Calls that failed: errors plus wrong outputs.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Pool another window's measurements into this one.
    pub fn absorb(&mut self, other: CallsOutcome) {
        let base = self.latencies_s.len();
        self.latencies_s.extend(other.latencies_s);
        self.flops_each.extend(other.flops_each);
        self.flops += other.flops;
        self.errors += other.errors;
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.arena_misses += other.arena_misses;
        for (routine, h) in other.nt_hist {
            let mine = self.nt_hist.entry(routine).or_default();
            if mine.len() < h.len() {
                mine.resize(h.len(), 0);
            }
            for (a, b) in mine.iter_mut().zip(h) {
                *a += b;
            }
        }
        self.next = other.next;
        if other.window_ends.is_empty() {
            self.window_ends.push(self.latencies_s.len());
        } else {
            self.window_ends
                .extend(other.window_ends.iter().map(|e| e + base));
        }
    }

    /// `(latencies, flops)` of each pooled window.
    pub fn windows(&self) -> Vec<(&[f64], &[f64])> {
        let mut start = 0;
        self.window_ends
            .iter()
            .map(|&end| {
                let w = (&self.latencies_s[start..end], &self.flops_each[start..end]);
                start = end;
                w
            })
            .collect()
    }
}

struct Timed {
    result: Result<usize, Blas3Error>,
    start: Instant,
    end: Instant,
}

/// One call through the runtime. Untraced, it is `Adsala::execute`;
/// traced, the same two steps (`predict_nt`, then `execute_with_nt`) are
/// made separately so each gets a span.
fn call_one<T: Float>(
    rt: &Adsala,
    ops: &mut Operands<T>,
    call: &Call,
    tracer: &mut Tracer,
    req: u64,
) -> Timed {
    ops.prepare(call);
    let op = ops.op(call);
    if !tracer.is_on() {
        let start = Instant::now();
        let result = rt.execute(op);
        let end = Instant::now();
        return Timed { result, start, end };
    }
    let start = Instant::now();
    let p0 = Instant::now();
    let nt = rt.predict_nt(call.routine, call.dims);
    let p1 = Instant::now();
    let b0 = Instant::now();
    let result = rt.execute_with_nt(nt, op).map(|()| nt);
    let b1 = Instant::now();
    let end = Instant::now();
    let root = tracer.span("call", start, end, NO_SPAN, req);
    tracer.span("predictor", p0, p1, root, req);
    tracer.span("backend", b0, b1, root, req);
    Timed { result, start, end }
}

fn dispatch(rt: &Adsala, bufs: &mut Buffers, call: &Call, tracer: &mut Tracer, req: u64) -> Timed {
    match call.routine.prec {
        Precision::Double => call_one(rt, &mut bufs.f64, call, tracer, req),
        Precision::Single => call_one(rt, &mut bufs.f32, call, tracer, req),
    }
}

fn check(bufs: &mut Buffers, call: &Call) -> bool {
    match call.routine.prec {
        Precision::Double => bufs.f64.check(call),
        Precision::Single => bufs.f32.check(call),
    }
}

/// Replay `stream` cyclically from index `start` for `seconds` of calling
/// time (reference checks pause the window), after a short warm-up.
pub fn run(
    rt: &Adsala,
    bufs: &mut Buffers,
    stream: &[Call],
    start: usize,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> CallsOutcome {
    assert!(
        !stream.is_empty(),
        "a calls workload needs a non-empty stream"
    );
    let mut out = CallsOutcome::default();
    let mut rng = Rng::new(seed ^ 0xC4EC_4ED0);
    let nt_max = rt.backend().max_threads();
    let mut idle = Tracer::new(false);
    let warm_until = Instant::now() + WARMUP;
    let mut i = start;
    while Instant::now() < warm_until {
        let _ = dispatch(rt, bufs, &stream[i % stream.len()], &mut idle, 0);
        i += 1;
    }

    let misses0 = arena::allocation_count();
    let window = Duration::from_secs_f64(seconds);
    let mut paused = Duration::ZERO;
    let opened = Instant::now();
    while opened.elapsed() < window + paused {
        let call = stream[i % stream.len()];
        let t = dispatch(rt, bufs, &call, tracer, i as u64);
        i += 1;
        out.latencies_s.push((t.end - t.start).as_secs_f64());
        out.flops_each.push(call.flops());
        out.flops += call.flops();
        match t.result {
            Ok(nt) => {
                let hist = out
                    .nt_hist
                    .entry(call.routine)
                    .or_insert_with(|| vec![0; nt_max + 1]);
                if nt >= hist.len() {
                    hist.resize(nt + 1, 0);
                }
                hist[nt] += 1;
            }
            Err(_) => out.errors += 1,
        }
        if out.checked < MAX_CHECKS && rng.unit() < CHECK_PROB {
            let c0 = Instant::now();
            out.checked += 1;
            if !check(bufs, &call) {
                out.mismatches += 1;
            }
            paused += c0.elapsed();
        }
    }
    out.arena_misses = arena::allocation_count().saturating_sub(misses0) as u64;
    out.next = i;
    out
}

/// Seconds of one `execute_with_nt` of `call` at `nt` (operands reset
/// first, outside the timing).
pub fn time_at(rt: &Adsala, bufs: &mut Buffers, call: &Call, nt: usize) -> f64 {
    fn at<T: Float>(rt: &Adsala, ops: &mut Operands<T>, call: &Call, nt: usize) -> f64 {
        ops.prepare(call);
        let op = ops.op(call);
        let t0 = Instant::now();
        let result = rt.execute_with_nt(nt, op);
        let secs = t0.elapsed().as_secs_f64();
        result.expect("stream calls are well-formed");
        secs
    }
    match call.routine.prec {
        Precision::Double => at(rt, &mut bufs.f64, call, nt),
        Precision::Single => at(rt, &mut bufs.f32, call, nt),
    }
}
