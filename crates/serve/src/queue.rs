//! Per-cell job queues: QoS priority lanes, per-tenant FIFOs drained
//! round-robin, same-shape batch extraction, and shed-candidate selection.
//!
//! Each scheduler cell owns one `LaneQueues`. Within a cell, jobs sit in
//! one FIFO per tenant, grouped into [`QosClass::COUNT`] lanes drained
//! strictly highest class first; inside a lane tenants take round-robin
//! turns so no tenant starves a peer of equal class. A turn takes the
//! **contiguous same-shape prefix** of one tenant's FIFO (up to
//! `max_batch`) — never jobs from behind a different shape — so per-tenant
//! submission order is preserved all the way through execution, including
//! when a sibling cell steals the batch.
//!
//! A taken batch marks its tenant entry *in flight* until the executor
//! reports back (`LaneQueues::finish_batch`); while in flight no other
//! cell (or the owner) can take that tenant's next batch, which is the
//! whole ordering argument under work stealing: one batch per tenant in
//! the air at a time, batches leave in FIFO order.

use crate::completion::CompletionSlot;
use crate::job::{AnyOp, ClientId};
use crate::router::{QosClass, TenantId, TenantState};
use adsala_blas3::op::{Dims, Routine};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One accepted, not-yet-served job.
pub(crate) struct Job {
    /// Submitting client handle.
    pub client: ClientId,
    /// Tenant the client belongs to (routing + accounting).
    pub tenant: Arc<TenantState>,
    /// Batching key, computed once at admission.
    pub key: (Routine, Dims),
    /// The call description (operands included).
    pub op: AnyOp,
    /// Thread count chosen at admission.
    pub nt: usize,
    /// Predicted seconds the job was admitted under.
    pub predicted_secs: f64,
    /// Whether the prediction came from an installed model.
    pub model_backed: bool,
    /// Epoch version of the model that priced the job (0 for fallback).
    pub epoch: u64,
    /// When the job entered its cell's queues — the clock the batch-floor
    /// hold ([`LaneQueues::take_batch`]) runs against.
    pub enqueued_at: Instant,
    /// Absolute completion deadline, when the submission carried one
    /// ([`crate::SubmitOptions`]). Swept lazily by
    /// [`LaneQueues::expire_due`] and re-checked by the executor so a
    /// dead job never reaches the pool.
    pub deadline: Option<Instant>,
    /// Settlement slot shared with the submitting [`crate::Ticket`].
    pub slot: Arc<CompletionSlot>,
}

/// One tenant's same-shape batch, taken from a cell by its owner or a
/// stealing sibling. The owning cell's tenant entry stays in flight until
/// [`LaneQueues::finish_batch`] runs for `(tenant, qos)`.
pub(crate) struct Batch {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Lane the batch came from (needed to clear the in-flight mark).
    pub qos: QosClass,
    /// The jobs, in tenant submission order, all sharing one
    /// `(routine, dims)` key.
    pub jobs: Vec<Job>,
}

/// Outcome of [`LaneQueues::take_batch`].
pub(crate) enum Take {
    /// A batch to execute now.
    Batch(Batch),
    /// Every takeable group is a tiny same-shape prefix still coalescing
    /// under the batch floor; the earliest one becomes takeable (its hold
    /// expires) after this duration. The scheduler should wait at most
    /// this long before re-trying.
    Hold(Duration),
    /// Nothing takeable (empty, or every tenant with work is in flight).
    Empty,
}

/// A cheapest-to-refuse shed candidate reported by
/// [`LaneQueues::peek_shed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShedCandidate {
    /// Class of the candidate (strictly below the submission that is
    /// trying to make room).
    pub qos: QosClass,
    /// Predicted seconds freed by shedding it.
    pub predicted_secs: f64,
}

struct TenantEntry {
    tenant: TenantId,
    q: VecDeque<Job>,
    /// A batch from this FIFO is being executed (possibly by a stealing
    /// sibling cell); no further batch may leave until it finishes.
    in_flight: bool,
}

#[derive(Default)]
struct Lane {
    /// Tenant FIFOs in first-submission order; entries persist for the
    /// cell lifetime (tenants are few and long-lived by design).
    entries: Vec<TenantEntry>,
    /// Round-robin cursor into `entries`.
    cursor: usize,
}

/// The per-cell queue structure described in the module docs.
#[derive(Default)]
pub(crate) struct LaneQueues {
    lanes: [Lane; QosClass::COUNT],
    /// Total queued jobs across lanes (excludes in-flight batches).
    queued: usize,
    /// Sum of predicted seconds across queued jobs.
    backlog_secs: f64,
}

impl LaneQueues {
    pub fn queued(&self) -> usize {
        self.queued
    }

    pub fn backlog_secs(&self) -> f64 {
        self.backlog_secs
    }

    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Whether `tenant` still has queued jobs or a batch in flight here —
    /// if so, the router must keep the tenant homed on this cell.
    pub fn tenant_busy(&self, tenant: TenantId, qos: QosClass) -> bool {
        self.lanes[qos.lane()]
            .entries
            .iter()
            .any(|e| e.tenant == tenant && (!e.q.is_empty() || e.in_flight))
    }

    /// Enqueue one job at the tail of its tenant's FIFO.
    pub fn push(&mut self, job: Job) {
        self.queued += 1;
        self.backlog_secs += job.predicted_secs;
        let lane = &mut self.lanes[job.tenant.qos.lane()];
        let tenant = job.tenant.id;
        match lane.entries.iter_mut().find(|e| e.tenant == tenant) {
            Some(e) => e.q.push_back(job),
            None => {
                let mut q = VecDeque::new();
                q.push_back(job);
                lane.entries.push(TenantEntry {
                    tenant,
                    q,
                    in_flight: false,
                });
            }
        }
    }

    /// Take the next batch to serve: highest-priority lane first; within a
    /// lane, round-robin over tenants that are not in flight. The chosen
    /// tenant yields the contiguous prefix of its FIFO sharing the head
    /// job's `(routine, dims)` key, up to `max_batch`, and is marked in
    /// flight until [`LaneQueues::finish_batch`].
    ///
    /// When `floor_secs > 0`, a prefix whose summed predicted seconds is
    /// below the floor and which has not yet filled `max_batch` is **held**
    /// back — the coalescing window for tiny memory-bound (Level 2) jobs,
    /// whose per-wake-up dispatch cost can exceed their compute. The hold
    /// is bounded: once the prefix's head job has waited `hold`, it is
    /// served no matter how small the batch, so the floor trades at most
    /// `hold` of latency for dispatch amortisation. A held tenant does not
    /// block its lane — the scan moves on to the next tenant.
    pub fn take_batch(&mut self, max_batch: usize, floor_secs: f64, hold: Duration) -> Take {
        let max_batch = max_batch.max(1);
        let now = Instant::now();
        let mut earliest: Option<Duration> = None;
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            let n = lane.entries.len();
            for step in 0..n {
                let idx = (lane.cursor + step) % n;
                let e = &mut lane.entries[idx];
                if e.in_flight || e.q.is_empty() {
                    continue;
                }
                if floor_secs > 0.0 {
                    // Peek the same-key prefix before committing to it.
                    // The emptiness check above makes front() infallible
                    // here, but a held tenant is skipped, never unwrapped.
                    let Some(front) = e.q.front() else { continue };
                    let key = front.key;
                    let head_enqueued = front.enqueued_at;
                    let mut len = 0usize;
                    let mut secs = 0.0f64;
                    for j in e.q.iter().take(max_batch) {
                        if j.key != key {
                            break;
                        }
                        len += 1;
                        secs += j.predicted_secs;
                    }
                    let head_waited = now.saturating_duration_since(head_enqueued);
                    if len < max_batch && secs < floor_secs && head_waited < hold {
                        let remaining = hold - head_waited;
                        earliest = Some(match earliest {
                            Some(d) => d.min(remaining),
                            None => remaining,
                        });
                        continue;
                    }
                }
                let Some(head) = e.q.pop_front() else {
                    continue;
                };
                let key = head.key;
                let mut jobs = vec![head];
                while jobs.len() < max_batch {
                    if !e.q.front().is_some_and(|next| next.key == key) {
                        break;
                    }
                    let Some(next) = e.q.pop_front() else { break };
                    jobs.push(next);
                }
                e.in_flight = true;
                let tenant = e.tenant;
                lane.cursor = (idx + 1) % n;
                self.queued -= jobs.len();
                self.backlog_secs -= jobs.iter().map(|j| j.predicted_secs).sum::<f64>();
                if self.queued == 0 {
                    // Keep accumulated float error from drifting the budget.
                    self.backlog_secs = 0.0;
                }
                return Take::Batch(Batch {
                    tenant,
                    qos: QosClass::of_lane(lane_idx),
                    jobs,
                });
            }
        }
        match earliest {
            Some(d) => Take::Hold(d),
            None => Take::Empty,
        }
    }

    /// Clear the in-flight mark left by [`LaneQueues::take_batch`]. Called
    /// by whichever cell executed the batch, after execution, with the
    /// owning cell's lock held.
    pub fn finish_batch(&mut self, tenant: TenantId, qos: QosClass) {
        if let Some(e) = self.lanes[qos.lane()]
            .entries
            .iter_mut()
            .find(|e| e.tenant == tenant)
        {
            debug_assert!(e.in_flight, "finish_batch without a batch in flight");
            e.in_flight = false;
        }
    }

    /// The cheapest-to-refuse queued job of a class strictly below
    /// `below`, if any: lowest class first, then smallest predicted
    /// seconds. Only FIFO tails are candidates, so shedding never punches
    /// a hole in a tenant's submission order.
    pub fn peek_shed(&self, below: QosClass) -> Option<ShedCandidate> {
        for lane_idx in (0..QosClass::COUNT).rev() {
            let qos = QosClass::of_lane(lane_idx);
            if qos >= below {
                break;
            }
            let cheapest = self.lanes[lane_idx]
                .entries
                .iter()
                .filter_map(|e| e.q.back().map(|j| j.predicted_secs))
                .min_by(f64::total_cmp);
            if let Some(predicted_secs) = cheapest {
                return Some(ShedCandidate {
                    qos,
                    predicted_secs,
                });
            }
        }
        None
    }

    /// Total predicted seconds of queued jobs in classes strictly below
    /// `below` — the most a shedding pass could free from this cell.
    pub fn sheddable_secs(&self, below: QosClass) -> f64 {
        let mut total = 0.0;
        for lane_idx in (0..QosClass::COUNT).rev() {
            if QosClass::of_lane(lane_idx) >= below {
                break;
            }
            total += self.lanes[lane_idx]
                .entries
                .iter()
                .flat_map(|e| e.q.iter())
                .map(|j| j.predicted_secs)
                .sum::<f64>();
        }
        total
    }

    /// Remove and return the job [`LaneQueues::peek_shed`] would pick.
    pub fn shed_one(&mut self, below: QosClass) -> Option<Job> {
        let candidate = self.peek_shed(below)?;
        let lane = &mut self.lanes[candidate.qos.lane()];
        // The filter guarantees a back job; a tenant whose queue emptied
        // anyway simply sorts first on 0.0 and yields None from pop_back.
        let tail_secs = |e: &TenantEntry| e.q.back().map(|j| j.predicted_secs).unwrap_or(0.0);
        let entry = lane
            .entries
            .iter_mut()
            .filter(|e| !e.q.is_empty())
            .min_by(|a, b| tail_secs(a).total_cmp(&tail_secs(b)))?;
        let job = entry.q.pop_back()?;
        self.queued -= 1;
        self.backlog_secs -= job.predicted_secs;
        if self.queued == 0 {
            self.backlog_secs = 0.0;
        }
        Some(job)
    }

    /// Remove and return every queued job whose deadline is at or before
    /// `now` (the caller settles them to
    /// [`crate::ServeError::DeadlineExceeded`]). The lazy expiry sweep:
    /// schedulers call this before taking a batch, so a dead job costs a
    /// queue scan, never a pool wake-up. Removing an expired job from the
    /// middle of a FIFO is order-safe — the survivors keep their relative
    /// order, and the removed job is settled, not re-queued.
    pub fn expire_due(&mut self, now: Instant) -> Vec<Job> {
        let mut expired = Vec::new();
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                if !e.q.iter().any(|j| j.deadline.is_some_and(|d| d <= now)) {
                    continue;
                }
                let drained = std::mem::take(&mut e.q);
                for job in drained {
                    if job.deadline.is_some_and(|d| d <= now) {
                        expired.push(job);
                    } else {
                        e.q.push_back(job);
                    }
                }
            }
        }
        self.remove_from_gauges(&expired);
        expired
    }

    /// Drain the queued jobs of every tenant **without** a batch in
    /// flight, preserving per-tenant FIFO order — the supervisor's
    /// drain-and-restart source. An in-flight tenant's jobs stay: its
    /// airborne batch must land before its next batch may leave anywhere,
    /// so those jobs wait here for the replacement scheduler.
    pub fn drain_rehome(&mut self) -> Vec<Job> {
        let mut moved = Vec::new();
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                if !e.in_flight {
                    moved.extend(e.q.drain(..));
                }
            }
        }
        self.remove_from_gauges(&moved);
        moved
    }

    /// Drain every queued job of one QoS lane (the brownout shed: the
    /// whole lane goes, so no tenant's FIFO is left with a hole). The
    /// caller settles the victims to [`crate::ServeError::Shed`].
    pub fn drain_lane(&mut self, qos: QosClass) -> Vec<Job> {
        let mut shed = Vec::new();
        for e in self.lanes[qos.lane()].entries.iter_mut() {
            shed.extend(e.q.drain(..));
        }
        self.remove_from_gauges(&shed);
        shed
    }

    /// Subtract a set of removed jobs from the `queued`/`backlog_secs`
    /// gauges (shared tail of the targeted drains above).
    fn remove_from_gauges(&mut self, removed: &[Job]) {
        self.queued -= removed.len();
        self.backlog_secs -= removed.iter().map(|j| j.predicted_secs).sum::<f64>();
        if self.queued == 0 {
            self.backlog_secs = 0.0;
        }
    }

    /// Drain every queued job (shutdown path; the caller settles their
    /// tickets to [`crate::ServeError::ServiceStopped`]). In-flight batches
    /// are not here — they are owned by whichever cell is executing them.
    pub fn drain_all(&mut self) -> Vec<Job> {
        let mut all = Vec::with_capacity(self.queued);
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                all.extend(e.q.drain(..));
            }
        }
        self.queued = 0;
        self.backlog_secs = 0.0;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::TenantConfig;
    use adsala_blas3::{Matrix, OwnedOp, Transpose};

    fn tenant(id: u64, qos: QosClass) -> Arc<TenantState> {
        Arc::new(TenantState::new(
            TenantId(id),
            TenantConfig {
                qos,
                ..TenantConfig::default()
            },
        ))
    }

    fn job_for(tenant: &Arc<TenantState>, m: usize, secs: f64) -> Job {
        let op: AnyOp = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(m, m),
            b: Matrix::<f64>::zeros(m, m),
            beta: 0.0,
            c: Matrix::<f64>::zeros(m, m),
        }
        .into();
        Job {
            client: ClientId(tenant.id.0),
            tenant: Arc::clone(tenant),
            key: op.group_key(),
            nt: 1,
            predicted_secs: secs,
            model_backed: false,
            epoch: 0,
            enqueued_at: Instant::now(),
            deadline: None,
            op,
            slot: CompletionSlot::new(),
        }
    }

    /// Floor-free take, matching the pre-floor semantics the structural
    /// tests exercise.
    fn take(qs: &mut LaneQueues, max_batch: usize) -> Option<Batch> {
        match qs.take_batch(max_batch, 0.0, Duration::ZERO) {
            Take::Batch(b) => Some(b),
            Take::Hold(_) => panic!("floor disabled, nothing may be held"),
            Take::Empty => None,
        }
    }

    #[test]
    fn round_robin_alternates_tenants_within_a_lane() {
        let mut qs = LaneQueues::default();
        let (a, b) = (tenant(0, QosClass::Standard), tenant(1, QosClass::Standard));
        for _ in 0..3 {
            qs.push(job_for(&a, 4, 1.0));
        }
        for _ in 0..3 {
            qs.push(job_for(&b, 4, 1.0));
        }
        let mut order = Vec::new();
        while let Some(batch) = take(&mut qs, 1) {
            order.push(batch.tenant.0);
            qs.finish_batch(batch.tenant, batch.qos);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn higher_qos_lane_drains_first() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let ui = tenant(1, QosClass::Interactive);
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&ui, 4, 1.0));
        let first = take(&mut qs, 4).unwrap();
        assert_eq!(first.tenant, TenantId(1));
        assert_eq!(first.qos, QosClass::Interactive);
        qs.finish_batch(first.tenant, first.qos);
        let second = take(&mut qs, 4).unwrap();
        assert_eq!(second.tenant, TenantId(0));
    }

    #[test]
    fn batch_takes_only_the_contiguous_same_shape_prefix() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        qs.push(job_for(&t, 4, 1.0));
        qs.push(job_for(&t, 4, 1.0));
        qs.push(job_for(&t, 8, 1.0)); // shape change stops the batch
        qs.push(job_for(&t, 4, 1.0));
        let b = take(&mut qs, 16).unwrap();
        assert_eq!(b.jobs.len(), 2, "prefix stops at the shape change");
        qs.finish_batch(b.tenant, b.qos);
        let b = take(&mut qs, 16).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].key.1, Dims::d3(8, 8, 8));
        qs.finish_batch(b.tenant, b.qos);
        let b = take(&mut qs, 16).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].key.1, Dims::d3(4, 4, 4));
    }

    #[test]
    fn in_flight_tenant_yields_no_second_batch_until_finished() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        for _ in 0..4 {
            qs.push(job_for(&t, 4, 1.0));
        }
        let b = take(&mut qs, 2).unwrap();
        assert_eq!(b.jobs.len(), 2);
        assert!(!qs.is_empty());
        assert!(take(&mut qs, 2).is_none(), "tenant is in flight");
        assert!(qs.tenant_busy(TenantId(0), QosClass::Standard));
        qs.finish_batch(b.tenant, b.qos);
        assert_eq!(take(&mut qs, 2).unwrap().jobs.len(), 2);
    }

    #[test]
    fn max_batch_caps_a_turn_and_backlog_tracks() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        for _ in 0..5 {
            qs.push(job_for(&t, 4, 1.0));
        }
        assert_eq!(qs.queued(), 5);
        assert!((qs.backlog_secs() - 5.0).abs() < 1e-12);
        let b = take(&mut qs, 2).unwrap();
        assert_eq!(b.jobs.len(), 2);
        assert_eq!(qs.queued(), 3);
        assert!((qs.backlog_secs() - 3.0).abs() < 1e-12);
        qs.drain_all();
        assert!(qs.is_empty());
        assert_eq!(qs.backlog_secs(), 0.0);
    }

    #[test]
    fn batch_floor_holds_tiny_batches_until_full_heavy_or_expired() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        let floor = 1.0;
        let hold = Duration::from_secs(60);

        // Under the floor, under max_batch, freshly queued: held, with a
        // wake-up hint no longer than the hold, and nothing consumed.
        qs.push(job_for(&t, 4, 1e-6));
        qs.push(job_for(&t, 4, 1e-6));
        match qs.take_batch(8, floor, hold) {
            Take::Hold(d) => assert!(d <= hold),
            _ => panic!("tiny fresh batch must be held"),
        }
        assert_eq!(qs.queued(), 2, "holding must not consume jobs");

        // A held tenant does not block a takeable peer in the same lane.
        let heavy = tenant(1, QosClass::Standard);
        qs.push(job_for(&heavy, 8, 5.0));
        match qs.take_batch(8, floor, hold) {
            Take::Batch(b) => {
                assert_eq!(b.tenant, TenantId(1));
                qs.finish_batch(b.tenant, b.qos);
            }
            _ => panic!("above-floor peer must be served around the held tenant"),
        }

        // A full batch takes regardless of predicted seconds.
        match qs.take_batch(2, floor, hold) {
            Take::Batch(b) => {
                assert_eq!(b.jobs.len(), 2);
                qs.finish_batch(b.tenant, b.qos);
            }
            _ => panic!("full batch must not be held"),
        }

        // An expired hold is served no matter how small the batch.
        let mut stale = job_for(&t, 4, 1e-6);
        stale.enqueued_at = Instant::now() - Duration::from_millis(50);
        qs.push(stale);
        match qs.take_batch(8, floor, Duration::from_millis(1)) {
            Take::Batch(b) => assert_eq!(b.jobs.len(), 1),
            _ => panic!("expired hold must be served"),
        }
    }

    #[test]
    fn expire_due_sweeps_only_dead_jobs_and_keeps_order() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        let now = Instant::now();
        let mut dead = job_for(&t, 4, 1.0);
        dead.deadline = Some(now - Duration::from_millis(1));
        let mut live = job_for(&t, 8, 1.0);
        live.deadline = Some(now + Duration::from_secs(60));
        let undated = job_for(&t, 16, 1.0);
        qs.push(job_for(&t, 2, 1.0)); // undated head survives in place
        qs.push(dead);
        qs.push(live);
        qs.push(undated);
        let expired = qs.expire_due(Instant::now());
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].key.1, Dims::d3(4, 4, 4));
        assert_eq!(qs.queued(), 3);
        // Survivors keep submission order around the hole.
        let dims: Vec<Dims> = std::iter::from_fn(|| {
            take(&mut qs, 1).map(|b| {
                let d = b.jobs[0].key.1;
                qs.finish_batch(b.tenant, b.qos);
                d
            })
        })
        .collect();
        assert_eq!(
            dims,
            vec![Dims::d3(2, 2, 2), Dims::d3(8, 8, 8), Dims::d3(16, 16, 16)]
        );
    }

    #[test]
    fn drain_rehome_skips_in_flight_tenants() {
        let mut qs = LaneQueues::default();
        let (a, b) = (tenant(0, QosClass::Standard), tenant(1, QosClass::Standard));
        for _ in 0..3 {
            qs.push(job_for(&a, 4, 1.0));
        }
        for m in [2, 8] {
            qs.push(job_for(&b, m, 1.0));
        }
        // Tenant a has a batch in the air: its queued jobs must stay.
        let airborne = take(&mut qs, 1).unwrap();
        assert_eq!(airborne.tenant, TenantId(0));
        let moved = qs.drain_rehome();
        assert_eq!(moved.len(), 2, "only the idle tenant's jobs move");
        assert!(moved.iter().all(|j| j.tenant.id == TenantId(1)));
        // FIFO order of the moved tenant survives the drain.
        assert_eq!(moved[0].key.1, Dims::d3(2, 2, 2));
        assert_eq!(moved[1].key.1, Dims::d3(8, 8, 8));
        assert_eq!(qs.queued(), 2);
        qs.finish_batch(airborne.tenant, airborne.qos);
        assert_eq!(take(&mut qs, 8).unwrap().jobs.len(), 2);
    }

    #[test]
    fn drain_lane_empties_exactly_one_class() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let ui = tenant(1, QosClass::Interactive);
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&ui, 4, 2.0));
        let shed = qs.drain_lane(QosClass::Batch);
        assert_eq!(shed.len(), 2);
        assert_eq!(qs.queued(), 1);
        assert!((qs.backlog_secs() - 2.0).abs() < 1e-12);
        assert_eq!(take(&mut qs, 1).unwrap().tenant, TenantId(1));
    }

    #[test]
    fn shed_picks_the_cheapest_tail_of_the_lowest_class() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let std_t = tenant(1, QosClass::Standard);
        qs.push(job_for(&bulk, 4, 3.0));
        qs.push(job_for(&bulk, 4, 0.5)); // cheapest batch-class tail
        qs.push(job_for(&std_t, 4, 0.1));
        // An interactive submission may shed standard and batch work; the
        // batch lane is strictly lower, so it goes first despite the
        // standard job being cheaper.
        let peek = qs.peek_shed(QosClass::Interactive).unwrap();
        assert_eq!(peek.qos, QosClass::Batch);
        assert!((peek.predicted_secs - 0.5).abs() < 1e-12);
        let shed = qs.shed_one(QosClass::Interactive).unwrap();
        assert!((shed.predicted_secs - 0.5).abs() < 1e-12);
        // A standard submission may only shed the batch lane.
        let peek = qs.peek_shed(QosClass::Standard).unwrap();
        assert_eq!(peek.qos, QosClass::Batch);
        assert!((peek.predicted_secs - 3.0).abs() < 1e-12);
        // A batch submission has nothing strictly below it.
        assert!(qs.peek_shed(QosClass::Batch).is_none());
        assert_eq!(qs.queued(), 2);
    }
}
