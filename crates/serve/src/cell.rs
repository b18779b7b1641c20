//! Scheduler cells: the unit of sharding.
//!
//! A cell is one scheduler thread plus a private [`ThreadPool`] capped at
//! its slice of the hardware threads, a private [`Telemetry`] ring, and a
//! per-cell `LaneQueues`. The router places every admitted job on
//! exactly one cell; the cell's scheduler drains its lanes highest QoS
//! class first and executes batches on its own pool (the scheduler thread
//! holds a [`ThreadPool::enter`] override for its lifetime, so the
//! runtime's per-call parallelism stays confined to the cell's worker
//! slice).
//!
//! When a cell has nothing takeable and stealing is enabled, it takes one
//! whole same-shape batch from the sibling with the largest
//! predicted-seconds backlog and executes it on its *own* pool. Ordering
//! survives because a batch marks its tenant in flight on the owning cell
//! until the executor reports back — at most one batch per tenant is in
//! the air, and batches leave each tenant FIFO in order.

use crate::job::{AnyOp, Completed, JobStats, ServeError};
use crate::queue::{Batch, Job, LaneQueues, Take};
use crate::router::secs_to_nanos;
use crate::service::Shared;
use crate::telemetry::{Telemetry, TelemetryRecord};
use adsala_blas3::pool::TaskQueue;
use adsala_blas3::{Blas3Backend, ThreadPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle cell sleeps between steal attempts. Pushes to the
/// cell's own queues wake it immediately; this only bounds how stale a
/// *sibling's* backlog can get before an idle cell notices it.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// Longest a scheduler parks without waking to bump its heartbeat. The
/// heartbeat means "the scheduler *loop* is responsive" — a cell parked
/// on its condvar (paused, or every queued tenant already in flight) is
/// healthy and must keep beating, or the supervisor would mistake it for
/// wedged and restart-storm it. Only a thread genuinely stuck inside
/// batch execution freezes its heartbeat. Kept well under any sane
/// [`crate::SupervisorConfig::interval`] so a live cell always beats
/// between two sweeps.
const IDLE_TICK: Duration = Duration::from_millis(5);

/// Queue state guarded by the cell lock.
pub(crate) struct CellState {
    pub queues: LaneQueues,
    pub paused: bool,
    pub shutdown: bool,
}

/// One scheduler cell. Not generic over the backend: everything
/// backend-typed lives in [`Shared`], so cells can sit in a plain `Vec`
/// and be referenced from any thread.
pub(crate) struct Cell {
    /// Shard index (position in `Shared::cells`).
    pub index: usize,
    /// The cell's private worker pool.
    pub pool: Arc<ThreadPool>,
    pub state: Mutex<CellState>,
    /// Signalled on push, finish-batch, pause/resume, and shutdown.
    pub cv: Condvar,
    /// Per-cell telemetry ring (merged across cells by
    /// `Service::telemetry_snapshot`).
    pub telemetry: Telemetry,
    /// Mirror of `queues.queued()`, readable without the cell lock.
    pub pending: AtomicUsize,
    /// Mirror of `queues.backlog_secs()` in nanoseconds, readable without
    /// the cell lock — the router's placement signal and the thieves'
    /// victim-selection signal.
    pub backlog_nanos: AtomicU64,
    /// Batches this cell took from siblings.
    pub stolen_batches: AtomicU64,
    /// Batches siblings took from this cell.
    pub donated_batches: AtomicU64,
    /// Jobs shed from this cell's queues under overload.
    pub shed_jobs: AtomicU64,
    /// Completion callbacks that panicked on this cell's threads (caught,
    /// counted, never allowed to wedge the scheduler).
    pub callback_panics: AtomicU64,
    /// Monotonic liveness counter bumped by every scheduler iteration;
    /// the supervisor's wedge signal (see [`crate::SupervisorConfig`]).
    pub heartbeat: AtomicU64,
    /// Scheduler generation. The supervisor bumps it when restarting the
    /// cell; a scheduler thread that observes a generation newer than its
    /// own retires instead of double-serving against its replacement.
    pub generation: AtomicU64,
    /// Times the supervisor drained and restarted this cell.
    pub restarts: AtomicU64,
    /// Transient-failure retries executed on this cell.
    pub retries: AtomicU64,
    /// Jobs settled as [`ServeError::DeadlineExceeded`] — swept from the
    /// queues or caught at the executor — without reaching the pool.
    pub expired_jobs: AtomicU64,
}

impl Cell {
    pub fn new(index: usize, workers: usize, telemetry_capacity: usize, paused: bool) -> Cell {
        Cell {
            index,
            pool: Arc::new(ThreadPool::with_max_workers(workers)),
            state: Mutex::new(CellState {
                queues: LaneQueues::default(),
                paused,
                shutdown: false,
            }),
            cv: Condvar::new(),
            telemetry: Telemetry::new(telemetry_capacity),
            pending: AtomicUsize::new(0),
            backlog_nanos: AtomicU64::new(0),
            stolen_batches: AtomicU64::new(0),
            donated_batches: AtomicU64::new(0),
            shed_jobs: AtomicU64::new(0),
            callback_panics: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            expired_jobs: AtomicU64::new(0),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, CellState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Refresh the lock-free gauges from the queues. Call after every
    /// queue mutation, with the cell lock held.
    pub fn sync_gauges(&self, queues: &LaneQueues) {
        // ORDER: Release — routers read these gauges without the cell
        // lock; Release orders them after the queue mutation they report.
        self.pending.store(queues.queued(), Ordering::Release);
        // ORDER: Release — same publication edge as `pending` above.
        self.backlog_nanos
            .store(secs_to_nanos(queues.backlog_secs()), Ordering::Release);
    }

    /// Predicted seconds queued on this cell.
    pub fn backlog_secs(&self) -> f64 {
        // ORDER: Acquire — pairs with sync_gauges' Release store.
        self.backlog_nanos.load(Ordering::Acquire) as f64 / 1e9
    }

    /// Settle a job that will never run (shutdown drain or shed),
    /// counting a panicking completion callback against this cell.
    pub fn settle_unserved(&self, job: Job, error: ServeError) {
        job.tenant.settle(job.predicted_secs);
        if job.slot.complete(Err(error)) {
            self.callback_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

enum Work {
    /// A batch to execute; `owner` is the cell whose queues it left.
    Serve { owner: usize, batch: Batch },
    /// Shutdown: settle these drained jobs and exit.
    Exit(Vec<Job>),
    /// The supervisor restarted this cell behind us: retire without
    /// touching the queues — the replacement scheduler owns them now.
    Stale,
}

/// The per-cell scheduler: wait for work, take one batch (own lanes
/// first, then a sibling's), execute it outside every lock, resolve
/// tickets, repeat. `generation` is the scheduler's lease on the cell —
/// when the cell's generation counter moves past it (a supervisor
/// restart), this thread retires.
pub(crate) fn scheduler_loop<B: Blas3Backend>(
    shared: Arc<Shared<B>>,
    index: usize,
    generation: u64,
) {
    let cell = Arc::clone(&shared.cells[index]);
    // Confine the runtime's per-call parallelism (and multi-job batch
    // fan-out) to this cell's worker slice for the thread's lifetime.
    let _pool_scope = ThreadPool::enter(Arc::clone(&cell.pool));
    loop {
        match acquire_work(&shared, &cell, generation) {
            Work::Serve { owner, batch } => serve_batch(&shared, &cell, owner, batch),
            Work::Exit(jobs) => {
                for job in jobs {
                    cell.settle_unserved(job, ServeError::ServiceStopped);
                }
                return;
            }
            Work::Stale => return,
        }
    }
}

fn acquire_work<B: Blas3Backend>(shared: &Arc<Shared<B>>, cell: &Cell, generation: u64) -> Work {
    let steal_enabled = shared.cfg.steal && shared.cells.len() > 1;
    // Alternate "try to steal" with "re-check own queues" so a push that
    // lands while this cell is off stealing is noticed immediately.
    let mut steal_next = true;
    let mut st = cell.lock();
    loop {
        // ORDER: Relaxed — pure liveness gauge for the supervisor's wedge
        // detection; no payload is published through it.
        cell.heartbeat.fetch_add(1, Ordering::Relaxed);
        // ORDER: Acquire — pairs with the supervisor's AcqRel generation
        // bump: a superseded scheduler must observe the restart (and the
        // re-home before it) and retire instead of double-serving.
        if cell.generation.load(Ordering::Acquire) != generation {
            return Work::Stale;
        }
        // Lazy expiry sweep: jobs whose deadline already passed settle
        // typed here and never cost a pool wake-up.
        let expired = st.queues.expire_due(Instant::now());
        if !expired.is_empty() {
            cell.sync_gauges(&st.queues);
            drop(st);
            for job in expired {
                cell.expired_jobs.fetch_add(1, Ordering::Relaxed);
                cell.settle_unserved(job, ServeError::DeadlineExceeded);
            }
            st = cell.lock();
            continue;
        }
        if st.shutdown && (st.paused || st.queues.is_empty()) {
            // Graceful: drain admitted work unless paused. A paused
            // shutdown settles the queued jobs to `ServiceStopped`
            // instead of hanging their tickets. A batch a sibling has in
            // flight is not here — the sibling finishes it.
            let jobs = st.queues.drain_all();
            cell.sync_gauges(&st.queues);
            return Work::Exit(jobs);
        }
        // A shutdown flushes held batches immediately: the floor trades
        // latency for amortisation, and at shutdown there is no more
        // amortisation to wait for.
        let floor = if st.shutdown {
            0.0
        } else {
            shared.cfg.batch_floor_secs
        };
        let mut hold: Option<Duration> = None;
        if !st.paused {
            match st
                .queues
                .take_batch(shared.cfg.max_batch, floor, shared.cfg.batch_hold)
            {
                Take::Batch(batch) => {
                    cell.sync_gauges(&st.queues);
                    return Work::Serve {
                        owner: cell.index,
                        batch,
                    };
                }
                Take::Hold(d) => hold = Some(d),
                Take::Empty => {}
            }
        }
        // Nothing takeable here (empty, paused, coalescing under the batch
        // floor, or every tenant with work is in flight). While healthy
        // and allowed, look for skew.
        if steal_enabled && !st.paused && !st.shutdown {
            if steal_next {
                steal_next = false;
                drop(st);
                if let Some((owner, batch)) = try_steal(shared, cell.index) {
                    return Work::Serve { owner, batch };
                }
                st = cell.lock();
                // Loop to re-check own queues before sleeping: a push may
                // have landed (and its notify fired) while unlocked.
                continue;
            }
            steal_next = true;
            let wait = match hold {
                Some(d) => d.min(STEAL_POLL),
                None => STEAL_POLL,
            };
            let (guard, _) = cell
                .cv
                .wait_timeout(st, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        } else if let Some(d) = hold {
            // No stealing: sleep just until the earliest held batch's
            // hold expires (a push still wakes the cell sooner; the
            // heartbeat cap keeps the cell visibly alive meanwhile).
            let (guard, _) = cell
                .cv
                .wait_timeout(st, d.min(IDLE_TICK))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        } else {
            // Bounded park (not an indefinite wait): the wake-up exists
            // purely to bump the heartbeat above, so a paused or
            // fully-held cell stays distinguishable from a wedged one.
            let (guard, _) = cell
                .cv
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }
}

/// Take one batch from the sibling with the largest predicted backlog.
/// Locks one victim at a time and never the thief's own state, so steal
/// attempts cannot deadlock with pushes or other thieves.
fn try_steal<B: Blas3Backend>(shared: &Arc<Shared<B>>, thief: usize) -> Option<(usize, Batch)> {
    let mut victims: Vec<(usize, u64)> = shared
        .cells
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != thief)
        // ORDER: Acquire — pairs with sync_gauges' Release store.
        .map(|(i, c)| (i, c.backlog_nanos.load(Ordering::Acquire)))
        .filter(|(_, backlog)| *backlog > 0)
        .collect();
    victims.sort_by_key(|&(_, backlog)| std::cmp::Reverse(backlog));
    for (victim_idx, _) in victims {
        let victim = &shared.cells[victim_idx];
        let mut st = victim.lock();
        if st.paused || st.shutdown {
            continue;
        }
        // Thieves honour the batch floor too: stealing a coalescing tiny
        // batch early would defeat the amortisation the owner is waiting
        // for (an idle thief is not scarce capacity).
        if let Take::Batch(batch) = st.queues.take_batch(
            shared.cfg.max_batch,
            shared.cfg.batch_floor_secs,
            shared.cfg.batch_hold,
        ) {
            victim.sync_gauges(&st.queues);
            drop(st);
            victim.donated_batches.fetch_add(1, Ordering::Relaxed);
            shared.cells[thief]
                .stolen_batches
                // ORDER: Relaxed — steal accounting counter read only by
                // stats(); no payload rides on it.
                .fetch_add(1, Ordering::Relaxed);
            return Some((victim_idx, batch));
        }
    }
    None
}

/// Execute one batch on `cell`'s pool, then clear the in-flight mark on
/// the owning cell and wake its scheduler.
///
/// A singleton batch executes with its admission-predicted thread count —
/// the paper's per-call regime. A multi-job batch (same routine, same
/// shape) instead spends **one pool wake-up for the whole batch**:
/// `min(nt, batch_len)` workers claim jobs from a task queue and run each
/// op serially. Total width stays within what the model judged worthwhile
/// for the shape, but the per-op fork/join synchronisation — the dominant
/// dispatch cost on small fixed-shape streams — is paid once instead of
/// per job.
fn serve_batch<B: Blas3Backend>(
    shared: &Arc<Shared<B>>,
    cell: &Arc<Cell>,
    owner: usize,
    batch: Batch,
) {
    let Batch { tenant, qos, jobs } = batch;
    let batch_size = jobs.len();
    if batch_size == 1 {
        for job in jobs {
            let nt = job.nt;
            serve_one(shared, cell, job, 1, nt);
        }
    } else {
        debug_assert!(jobs.windows(2).all(|w| w[0].key == w[1].key));
        let width = jobs[0].nt.min(batch_size).max(1);
        let tasks = TaskQueue::new(batch_size);
        let slots: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        cell.pool.run(width, |_| {
            while let Some(i) = tasks.claim() {
                let job = slots[i]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take();
                if let Some(job) = job {
                    serve_one(shared, cell, job, batch_size, 1);
                }
            }
        });
    }
    let owner_cell = &shared.cells[owner];
    {
        let mut st = owner_cell.lock();
        st.queues.finish_batch(tenant, qos);
    }
    // The owner may be parked waiting for this tenant to leave flight
    // (shutdown drain included), and the router may now re-home the
    // tenant; wake the owner unconditionally.
    owner_cell.cv.notify_all();
}

fn serve_one<B: Blas3Backend>(
    shared: &Shared<B>,
    cell: &Cell,
    job: Job,
    batch_size: usize,
    exec_nt: usize,
) {
    let Job {
        client,
        tenant,
        key: (routine, dims),
        mut op,
        nt: admitted_nt,
        predicted_secs,
        model_backed,
        epoch,
        enqueued_at: _,
        deadline,
        slot,
    } = job;
    // Last line of deadline defence: the lazy sweep runs per scheduler
    // wake-up, so a job can expire between the sweep and its turn inside
    // a batch. Settle it typed instead of burning pool time on an answer
    // nobody can use.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        cell.expired_jobs.fetch_add(1, Ordering::Relaxed);
        tenant.settle(predicted_secs);
        if slot.complete(Err(ServeError::DeadlineExceeded)) {
            cell.callback_panics.fetch_add(1, Ordering::Relaxed);
        }
        return;
    }
    // Admission validated the description, so the built-in backends cannot
    // fail execution — but a custom backend may (resource exhaustion,
    // device errors, injected faults). A transient failure is retried with
    // capped, jittered backoff: ops are pure call descriptions and a
    // transient fault fires before operands are written, so re-executing
    // the identical call is safe. Each retry re-charges the tenant's
    // backlog budget for the attempt, and every outcome feeds the circuit
    // breaker. Fatal errors travel back through the ticket; panicking in
    // the scheduler would wedge every other tenant's pending jobs.
    let policy = shared.cfg.retry;
    // Stable per-job jitter coordinates: replayable under a fixed fault
    // schedule, distinct across a tenant's concurrent jobs.
    let jitter_seed = client.0 ^ tenant.id.0.rotate_left(32);
    let execute = |op: &mut AnyOp| match op {
        AnyOp::F32(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
        AnyOp::F64(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
    };
    let mut start = Instant::now();
    let mut result = execute(&mut op);
    // Observed seconds cover the *last* attempt only, so retries and
    // backoff sleeps do not pollute the telemetry the model refits from.
    let mut observed_secs = start.elapsed().as_secs_f64();
    let mut attempt = 1u32;
    while let Err(e) = &result {
        if shared.breaker.record_failure() {
            // This failure tripped the breaker: brown out — shed every
            // queued Batch-lane job so surviving capacity goes to the
            // higher classes. No locks are held here.
            crate::supervisor::brownout_shed(shared);
        }
        if !e.is_transient() || attempt >= policy.max_attempts.max(1) {
            break;
        }
        let delay = crate::retry::backoff_delay(&policy, attempt, jitter_seed);
        if deadline.is_some_and(|d| Instant::now() + delay >= d) {
            // The deadline would pass during the backoff; the transient
            // error settles as-is rather than as a late success.
            break;
        }
        // Budget-priced retry: the attempt occupies the tenant's backlog
        // budget again, so a tenant hammering a failing path throttles
        // itself at admission instead of billing the service.
        tenant.charge(1, predicted_secs);
        cell.retries.fetch_add(1, Ordering::Relaxed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        start = Instant::now();
        result = execute(&mut op);
        observed_secs = start.elapsed().as_secs_f64();
        tenant.settle(predicted_secs);
        attempt += 1;
    }
    if result.is_ok() {
        shared.breaker.record_success();
    }
    if result.is_ok() {
        cell.telemetry.record(TelemetryRecord {
            seq: shared.next_seq(),
            client,
            tenant: tenant.id,
            shard: cell.index,
            routine,
            dims,
            nt: exec_nt,
            admitted_nt,
            predicted_secs,
            model_backed,
            epoch,
            observed_secs,
            batch_size,
        });
    }
    tenant.settle(predicted_secs);
    // The client may have dropped its ticket; that only means nobody is
    // listening for this result. A panicking callback is caught inside
    // `complete` and only counted here.
    let panicked = slot.complete(Ok(Completed {
        op,
        stats: JobStats {
            tenant: tenant.id,
            shard: cell.index,
            nt: exec_nt,
            admitted_nt,
            predicted_secs,
            model_backed,
            epoch,
            observed_secs,
            batch_size,
        },
        result,
    }));
    if panicked {
        cell.callback_panics.fetch_add(1, Ordering::Relaxed);
    }
}
