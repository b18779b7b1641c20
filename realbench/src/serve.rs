//! The open-loop serve mix: one generator thread submits a Poisson
//! arrival plan at a fixed rate to a default-configured `Service`, and
//! every job is timed from its *scheduled* arrival to its completion
//! callback, so a stall also charges the jobs queued behind it.

use crate::operands::{owned_matches, owned_op};
use crate::trace::{Tracer, NO_SPAN};
use crate::workload::{serve_menu, Arrival, Call, SERVE_DEADLINE_MS, SERVE_TENANTS};
use crate::Rng;
use adsala::Adsala;
use adsala_blas3::op::Precision;
use adsala_serve::{
    AnyOp, Client, JobStats, ServeError, Service, ServiceStats, SubmitOptions, TenantConfig,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of completed jobs whose output is recomputed.
const CHECK_PROB: f64 = 1.0 / 100.0;

/// Most reference checks per run.
const MAX_CHECKS: usize = 200;

/// Longest wait for the last jobs to settle after the arrival window.
const DRAIN: Duration = Duration::from_secs(30);

/// A running service with the mix's tenants.
pub struct ServeSetup {
    /// The service, on default `ServeConfig`.
    pub service: Service<adsala_blas3::NativeBackend>,
    clients: Vec<Client<adsala_blas3::NativeBackend>>,
}

impl ServeSetup {
    /// Start the service over `runtime` and register the tenants.
    ///
    /// # Panics
    /// If the host refuses the service's threads.
    pub fn new(runtime: Adsala) -> ServeSetup {
        let service = Service::new(runtime).expect("the host runs the service's threads");
        let clients = (0..SERVE_TENANTS)
            .map(|_| service.client_for(service.tenant(TenantConfig::default())))
            .collect();
        ServeSetup { service, clients }
    }
}

/// The menu's jobs, one owned copy each, cloned per submission.
pub fn menu_jobs(seed: u64) -> Vec<(Call, AnyOp)> {
    serve_menu()
        .into_iter()
        .enumerate()
        .map(|(i, call)| {
            let s = seed ^ (0x3E4D_0000 + i as u64);
            let op = match call.routine.prec {
                Precision::Double => AnyOp::F64(owned_op::<f64>(&call, s)),
                Precision::Single => AnyOp::F32(owned_op::<f32>(&call, s)),
            };
            (call, op)
        })
        .collect()
}

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Refused at submission.
    Rejected,
    /// Settled with a service error (shed, expired, stopped).
    Error(ServeError),
    /// Executed, but the backend returned an error.
    BackendError,
    /// Executed; the stats and whether a reference check failed.
    Done { stats: JobStats, mismatch: bool },
    /// Never settled within the drain window.
    Lost,
}

/// One job's record.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Scheduled arrival.
    pub due: Instant,
    /// Submission start and end.
    pub submit: (Instant, Instant),
    /// Completion callback time (submission end for refused jobs).
    pub done: Instant,
    /// Outcome.
    pub fate: Fate,
}

impl JobRecord {
    /// Completion minus scheduled arrival, seconds; a job that failed
    /// counts as at least the deadline.
    pub fn latency_s(&self) -> f64 {
        let lat = self.done.saturating_duration_since(self.due).as_secs_f64();
        if self.good() {
            lat
        } else {
            lat.max(SERVE_DEADLINE_MS * 1e-3)
        }
    }

    /// Executed, correct, and within the deadline.
    pub fn good(&self) -> bool {
        matches!(
            self.fate,
            Fate::Done {
                mismatch: false,
                ..
            }
        ) && self.done.saturating_duration_since(self.due).as_secs_f64() <= SERVE_DEADLINE_MS * 1e-3
    }
}

/// What one run of the serve probe measured.
#[derive(Debug)]
pub struct ServeOutcome {
    /// One record per planned job, in plan order.
    pub jobs: Vec<JobRecord>,
    /// Jobs whose output was recomputed.
    pub checked: usize,
    /// Counter increments over the window, after the drain.
    pub counters: Counters,
}

/// Service and predictor counters.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Jobs expired in the queues (`ShardStats::expired_jobs`).
    pub expired: u64,
    /// Transient-failure retries.
    pub retries: u64,
    /// Batches stolen by idle cells.
    pub stolen: u64,
    /// Jobs shed under overload.
    pub shed: u64,
    /// Predictor last-call cache hits, summed over routines.
    pub cache_hits: u64,
    /// Predictor cache misses (full sweeps).
    pub cache_misses: u64,
}

impl Counters {
    /// The counters' current totals.
    pub fn now(setup: &ServeSetup) -> Counters {
        let stats: ServiceStats = setup.service.stats();
        let sum = |f: fn(&adsala_serve::ShardStats) -> u64| stats.shards.iter().map(f).sum();
        let runtime = setup.service.runtime();
        let (cache_hits, cache_misses) = crate::workload::routines()
            .into_iter()
            .filter_map(|r| runtime.predictor(r).map(|p| p.cache_stats()))
            .fold((0, 0), |(h, m), (h1, m1)| (h + h1, m + m1));
        Counters {
            expired: sum(|s| s.expired_jobs),
            retries: sum(|s| s.retries),
            stolen: sum(|s| s.stolen_batches),
            shed: sum(|s| s.shed_jobs),
            cache_hits,
            cache_misses,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            expired: self.expired.saturating_sub(before.expired),
            retries: self.retries.saturating_sub(before.retries),
            stolen: self.stolen.saturating_sub(before.stolen),
            shed: self.shed.saturating_sub(before.shed),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(before.cache_misses),
        }
    }
}

type Settled = (
    usize,
    Instant,
    Result<(JobStats, Option<AnyOp>), Option<ServeError>>,
);

/// Run `plan` against the service; the window opens now.
pub fn run(
    setup: &ServeSetup,
    menu: &[(Call, AnyOp)],
    plan: &[Arrival],
    seed: u64,
    tracer: &mut Tracer,
) -> ServeOutcome {
    let before = Counters::now(setup);
    let settled: Arc<Mutex<Vec<Settled>>> = Arc::new(Mutex::new(Vec::with_capacity(plan.len())));
    let mut rng = Rng::new(seed ^ 0x5E12_7E00);
    let mut sampled = 0usize;
    let mut jobs: Vec<JobRecord> = Vec::with_capacity(plan.len());
    let deadline = Duration::from_secs_f64(SERVE_DEADLINE_MS * 1e-3);
    let opened = Instant::now();
    let mut submitted = 0usize;
    for (j, a) in plan.iter().enumerate() {
        let due = opened + Duration::from_secs_f64(a.at);
        let op = menu[a.menu].1.clone();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let keep = sampled < MAX_CHECKS && rng.unit() < CHECK_PROB;
        sampled += usize::from(keep);
        let opts = SubmitOptions {
            deadline: Some(due + deadline),
        };
        let s0 = Instant::now();
        let res = setup.clients[a.tenant].submit_with(op, opts);
        let s1 = Instant::now();
        let fate = match res {
            Ok(ticket) => {
                submitted += 1;
                let sink = Arc::clone(&settled);
                ticket.on_complete(move |outcome| {
                    let at = Instant::now();
                    let rec = match outcome {
                        Ok(c) if c.result.is_ok() => Ok((c.stats, keep.then_some(c.op))),
                        Ok(_) => Err(None),
                        Err(e) => Err(Some(e)),
                    };
                    sink.lock()
                        .expect("no settle callback panics")
                        .push((j, at, rec));
                });
                Fate::Lost
            }
            Err(_) => Fate::Rejected,
        };
        jobs.push(JobRecord {
            due,
            submit: (s0, s1),
            done: s1,
            fate,
        });
    }
    let drain_until = Instant::now() + DRAIN;
    while settled.lock().expect("no settle callback panics").len() < submitted
        && Instant::now() < drain_until
    {
        std::thread::sleep(Duration::from_millis(1));
    }

    let settled = std::mem::take(&mut *settled.lock().expect("no settle callback panics"));
    let mut checked = 0;
    for (j, at, rec) in settled {
        let job = &mut jobs[j];
        job.done = at;
        job.fate = match rec {
            Ok((stats, out)) => {
                let mismatch = out.is_some_and(|op| {
                    checked += 1;
                    let (call, input) = &menu[plan[j].menu];
                    !served_matches(call, input, op)
                });
                Fate::Done { stats, mismatch }
            }
            Err(Some(e)) => Fate::Error(e),
            Err(None) => Fate::BackendError,
        };
    }
    if tracer.is_on() {
        for (j, job) in jobs.iter().enumerate() {
            let id = j as u64;
            let root = tracer.span("job", job.due, job.done, NO_SPAN, id);
            tracer.span("gen.lag", job.due, job.submit.0.max(job.due), root, id);
            tracer.span("serve.submit", job.submit.0, job.submit.1, root, id);
            if let Fate::Done { stats, .. } = job.fate {
                let exec = Duration::from_secs_f64(stats.observed_secs);
                let start = job.done.checked_sub(exec).unwrap_or(job.due);
                tracer.span("serve.exec", start, job.done, root, id);
            }
        }
    }
    ServeOutcome {
        jobs,
        checked,
        counters: Counters::now(setup).since(before),
    }
}

fn served_matches(call: &Call, input: &AnyOp, done: AnyOp) -> bool {
    match (input, done) {
        (AnyOp::F64(want), AnyOp::F64(got)) => owned_matches(call, want, &got),
        (AnyOp::F32(want), AnyOp::F32(got)) => owned_matches(call, want, &got),
        _ => false,
    }
}
