//! Seeded workload generation: the install corpus, the held-out call
//! streams split by operand footprint, and the serve mix's arrival plan.
//!
//! Every function here is a pure function of its arguments, so one seed
//! gives one set of inputs on any host with the same thread count.

use crate::Rng;
use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_sampling::DomainSampler;
use std::collections::HashSet;

/// Operand-size cap of the install domain. The paper's 500 MB domain
/// takes minutes to time on a small host; 4 MiB keeps one installation
/// of all seven routines to a few seconds while still spanning both
/// sides of the per-core L2.
pub const CAP_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// Per-core L2 of the reference host (Xeon, 2 vCPU, 2 MiB L2 per core):
/// the footprint split between `calls_small` and `calls_large`. It is a
/// constant, not read from the host, so the workloads do not change with
/// the machine that runs them.
pub const L2_BYTES: f64 = 2.0 * 1024.0 * 1024.0;

/// Timed training points per routine.
pub const N_TRAIN: usize = 64;

/// Seed of the install stream. The install corpus is the same on every
/// run, so runs with different `--seed`s differ in the calls they replay,
/// not in the shapes the model was trained on; the models still differ
/// by timing noise, which the set-up repeats show.
pub const INSTALL_SEED: u64 = 0xAD5A1A;

/// Held-out draws per routine, before the footprint filter.
pub const HELDOUT_DRAWS: u64 = 500;

/// The held-out streams continue the install stream after this many
/// points (the same gap `adsala::install::install_routine` leaves).
pub const HELDOUT_SKIP: u64 = 10 * N_TRAIN as u64;

/// Disjoint held-out segments; `--seed` picks one.
pub const HELDOUT_SEGMENTS: u64 = 1 << 20;

/// The seven routines the benchmark installs and calls: the six Level 3
/// families in double precision plus sgemm.
pub fn routines() -> Vec<Routine> {
    let mut r: Vec<Routine> = OpKind::ALL
        .iter()
        .map(|&op| Routine::new(op, Precision::Double))
        .collect();
    r.push(Routine::new(OpKind::Gemm, Precision::Single));
    r
}

/// The install corpus of one routine: the first [`N_TRAIN`] points of
/// its scrambled-Halton stream over the capped domain.
pub fn install_corpus(routine: Routine, nt_max: usize) -> Vec<adsala_sampling::Sample> {
    DomainSampler::with_cap(routine, nt_max, CAP_BYTES, INSTALL_SEED).take(N_TRAIN)
}

/// Summed operand bytes of one call.
pub fn footprint(routine: Routine, dims: Dims) -> f64 {
    routine.op.footprint_bytes(dims, routine.prec)
}

/// Which footprint band a calls workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Operands fit one core's L2.
    Small,
    /// Operands between the L2 and the install cap.
    Large,
}

impl Band {
    /// Whether a call with this footprint belongs to the band.
    pub fn admits(self, bytes: f64) -> bool {
        match self {
            Band::Small => bytes <= L2_BYTES,
            Band::Large => bytes > L2_BYTES && bytes <= CAP_BYTES,
        }
    }
}

/// One call of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Routine called.
    pub routine: Routine,
    /// Its dimensions.
    pub dims: Dims,
}

impl Call {
    /// Useful floating-point operations of the call.
    pub fn flops(&self) -> f64 {
        self.routine.op.flops(self.dims)
    }
}

/// The held-out continuation of one routine's install stream inside
/// `band` (paper §VI-A): segment `seed` of the stream past the install
/// corpus. Shapes the install timed are dropped, and so is a shape equal
/// to the one before it, so no call can hit the predictor's last-call
/// cache.
pub fn heldout(routine: Routine, band: Band, nt_max: usize, seed: u64) -> Vec<Dims> {
    let timed: HashSet<Dims> = install_corpus(routine, nt_max)
        .iter()
        .map(|s| s.dims)
        .collect();
    let mut sampler = DomainSampler::with_cap(routine, nt_max, CAP_BYTES, INSTALL_SEED);
    sampler.skip(HELDOUT_SKIP + (seed % HELDOUT_SEGMENTS) * HELDOUT_DRAWS);
    let mut out: Vec<Dims> = Vec::new();
    for s in sampler.take(HELDOUT_DRAWS as usize) {
        if timed.contains(&s.dims) || !band.admits(footprint(routine, s.dims)) {
            continue;
        }
        if out.last() != Some(&s.dims) {
            out.push(s.dims);
        }
    }
    if out.len() > 1 && out.first() == out.last() {
        out.pop(); // the stream is replayed cyclically
    }
    out
}

/// The call stream of a calls workload: every routine's held-out shapes
/// interleaved round-robin.
pub fn call_stream(band: Band, nt_max: usize, seed: u64) -> Vec<Call> {
    let per: Vec<(Routine, Vec<Dims>)> = routines()
        .into_iter()
        .map(|r| (r, heldout(r, band, nt_max, seed)))
        .collect();
    let longest = per.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (routine, dims) in &per {
            if let Some(&d) = dims.get(i) {
                out.push(Call {
                    routine: *routine,
                    dims: d,
                });
            }
        }
    }
    out
}

/// Offered load of the serve probe, jobs per second: about a quarter of
/// the closed-loop capacity of the default two-cell service on the menu
/// below (about 40,000 jobs/s on the reference host). A constant, never
/// calibrated at run time, so a parent and a change see the same load.
pub const SERVE_RATE_JOBS_S: f64 = 10000.0;

/// Completion deadline of every serve job, from its scheduled arrival.
pub const SERVE_DEADLINE_MS: f64 = 100.0;

/// Tenants of the serve probe; tenant 0 is the hot one.
pub const SERVE_TENANTS: usize = 8;

/// Share of jobs the hot tenant submits; the rest spread evenly.
pub const SERVE_HOT_SHARE: f64 = 0.3;

/// The serve menu: shapes taken once from `calls_small`'s domain (every
/// footprint fits the L2), with skewed weights. Every shape runs at least
/// 1.4x faster at `nt = 1` than at `nt = 2` on the reference host, and the
/// installed models chose `nt = 1` for them on all but one of some thirty
/// installs tried. Larger shapes flipped between `nt = 1` and `nt = 2`
/// from one install to the next (dtrmm 72x72, dtrsm 64x96, dsyrk 100x64,
/// even dgemm 256^3); in the service an `nt = 2` job holds both cores, and
/// one flip moved the job tail tenfold. The flips themselves show in the
/// calls workloads' `nt` histograms.
pub const SERVE_MENU: [(&str, [usize; 3], u32); 8] = [
    ("dgemm", [64, 64, 64], 30),
    ("sgemm", [64, 64, 64], 15),
    ("dgemm", [48, 48, 48], 10),
    ("dsyrk", [64, 64, 1], 10),
    ("dsymm", [48, 48, 1], 10),
    ("dsyr2k", [48, 96, 1], 10),
    ("dsyr2k", [32, 32, 1], 8),
    ("dgemm", [32, 32, 32], 7),
];

/// The menu as calls.
pub fn serve_menu() -> Vec<Call> {
    SERVE_MENU
        .iter()
        .map(|(name, d, _)| Call {
            routine: Routine::parse(name).expect("menu names are routine names"),
            dims: Dims(*d),
        })
        .collect()
}

/// One scheduled serve job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled arrival, seconds after the window opens.
    pub at: f64,
    /// Submitting tenant (index into the service's tenants).
    pub tenant: usize,
    /// Menu entry.
    pub menu: usize,
}

/// The open-loop Poisson arrival plan of the serve probe over `seconds`.
pub fn serve_plan(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0xA221_7A15);
    let total_weight: u32 = SERVE_MENU.iter().map(|m| m.2).sum();
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -rng.unit().ln() / SERVE_RATE_JOBS_S;
        if at >= seconds {
            return out;
        }
        let tenant = if rng.unit() < SERVE_HOT_SHARE {
            0
        } else {
            1 + rng.below(SERVE_TENANTS - 1)
        };
        let mut pick = rng.below(total_weight as usize) as u32;
        let mut menu = 0;
        while pick >= SERVE_MENU[menu].2 {
            pick -= SERVE_MENU[menu].2;
            menu += 1;
        }
        out.push(Arrival { at, tenant, menu });
    }
}
