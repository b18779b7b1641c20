//! The non-blocking completion frontend: one settlement slot per admitted
//! job, consumed through a [`Ticket`] as a blocking wait, a poll, a
//! callback, or a [`CompletionQueue`] an event loop can drain.
//!
//! The old frontend was an mpsc channel per job, which forced a
//! thread-per-waiter pattern: the only way to learn a job finished was to
//! park a thread in [`Ticket::wait`]. The slot keeps `wait` (now a
//! condvar park) but adds [`Ticket::poll`] for cooperative loops,
//! [`Ticket::on_complete`] to run a closure on the scheduler cell that
//! finished the job, and [`Ticket::forward_to`] to fan many jobs into one
//! [`CompletionQueue`] that a single consumer (or async executor shim)
//! drains.
//!
//! Callbacks run on cell scheduler threads with **no locks held**, and a
//! panicking callback is caught and counted
//! ([`crate::ShardStats::callback_panics`]) rather than allowed to wedge
//! the cell.

use crate::job::{Completed, ServeError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The closure form accepted by [`Ticket::on_complete`].
pub type CompletionCallback = Box<dyn FnOnce(Result<Completed, ServeError>) + Send + 'static>;

/// Phase constants of the abstract armed→settled slot protocol.
///
/// These number the `SlotState` lifecycle (`SETTLING` is the transient
/// exclusivity phase a lock-free settler holds while publishing; the
/// mutex-backed slot here passes through it implicitly, under its lock).
/// They exist for two consumers: the lock-free advisory `phase` word on
/// `CompletionSlot` that lets [`Ticket::poll`] short-circuit without
/// taking the lock, and the chaos model of this protocol
/// (`adsala_blas3::chaos::models`, the `SlotModel`), which mirrors the
/// same constants — a serve-side test asserts the two sets stay equal,
/// so a protocol change on either side breaks loudly.
pub mod protocol {
    /// No outcome and no callback yet.
    pub const PENDING: u64 = 0;
    /// A callback is armed, waiting for the outcome.
    pub const ARMED: u64 = 1;
    /// A settler holds exclusivity and is publishing the outcome.
    pub const SETTLING: u64 = 2;
    /// The outcome is published and unclaimed.
    pub const READY: u64 = 3;
    /// The outcome has been delivered; terminal.
    pub const CLAIMED: u64 = 4;
}

/// Lifecycle of one job's settlement slot.
// The slot always lives behind an `Arc<CompletionSlot>`, so the large
// `Ready` variant is already heap-resident; boxing it would only add an
// allocation per settled job.
#[allow(clippy::large_enum_variant)]
enum SlotState {
    /// Job still in flight; nobody asked for a callback yet.
    Pending,
    /// Job still in flight; run this when it settles.
    Armed(CompletionCallback),
    /// Job settled; outcome waiting for `wait`/`poll` to take it.
    Ready(Result<Completed, ServeError>),
    /// Outcome already delivered (taken by a waiter or fed to a callback).
    Claimed,
}

/// Shared settlement slot between a job and its [`Ticket`].
pub(crate) struct CompletionSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Advisory mirror of `state`'s [`protocol`] phase, written under the
    /// lock, read lock-free by [`Ticket::poll`]'s fast path. Advisory
    /// means a stale read is always safe: the fast path only
    /// short-circuits the "still in flight" answer, every claiming step
    /// re-checks under the lock.
    phase: AtomicU64,
}

impl CompletionSlot {
    pub fn new() -> Arc<CompletionSlot> {
        Arc::new(CompletionSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
            phase: AtomicU64::new(protocol::PENDING),
        })
    }

    /// Settle the job. Runs any armed callback on the *calling* thread with
    /// no locks held; a panic in the callback is caught. Returns `true` if
    /// a callback panicked (the caller counts it against its shard).
    pub fn complete(&self, outcome: Result<Completed, ServeError>) -> bool {
        let callback = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Armed(cb) => {
                    // ORDER: Release — the settle publication: a lock-free
                    // phase reader must also observe everything that led
                    // here. The chaos `SlotModel` regression proves the
                    // checker catches this weakened to Relaxed.
                    self.phase.store(protocol::CLAIMED, Ordering::Release);
                    Some((cb, outcome))
                }
                SlotState::Pending => {
                    *st = SlotState::Ready(outcome);
                    // ORDER: Release — the settle publication (see above).
                    self.phase.store(protocol::READY, Ordering::Release);
                    None
                }
                // Double-complete cannot happen (each job settles once);
                // treat defensively as already delivered.
                prev => {
                    *st = prev;
                    None
                }
            }
        };
        match callback {
            Some((cb, outcome)) => {
                self.cv.notify_all();
                catch_unwind(AssertUnwindSafe(move || cb(outcome))).is_err()
            }
            None => {
                self.cv.notify_all();
                false
            }
        }
    }
}

/// Handle to one submitted job's outcome.
///
/// Exactly one delivery happens per ticket: through [`Ticket::wait`],
/// a successful [`Ticket::poll`], an [`Ticket::on_complete`] callback, or
/// a [`CompletionQueue`] entry. Dropping a ticket abandons the outcome
/// without blocking the service.
pub struct Ticket {
    slot: Arc<CompletionSlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    pub(crate) fn new(slot: Arc<CompletionSlot>) -> Ticket {
        Ticket { slot }
    }

    /// Block until the job settles and return its outcome.
    ///
    /// `Err(ServeError::ServiceStopped)` means the service shut down (or
    /// shed the job — see [`ServeError::Shed`]) before running it.
    pub fn wait(self) -> Result<Completed, ServeError> {
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Ready(outcome) => {
                    // ORDER: Release — the claim is visible to lock-free
                    // phase readers along with everything before it.
                    self.slot.phase.store(protocol::CLAIMED, Ordering::Release);
                    return outcome;
                }
                SlotState::Claimed => return Err(ServeError::ServiceStopped),
                prev => {
                    *st = prev;
                    st = self.slot.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    /// [`Ticket::wait`] with a patience bound: block until the job
    /// settles or `timeout` elapses, whichever comes first.
    ///
    /// On timeout the ticket is consumed and the outcome settles as
    /// `Err(ServeError::DeadlineExceeded)` — the job itself may still run
    /// to completion inside the service (nobody is listening any more),
    /// exactly like dropping the ticket. A service shutdown while waiting
    /// still settles as the underlying outcome delivers it (typically
    /// [`ServeError::ServiceStopped`]), not as a timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Completed, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Ready(outcome) => {
                    // ORDER: Release — the claim is visible to lock-free
                    // phase readers along with everything before it.
                    self.slot.phase.store(protocol::CLAIMED, Ordering::Release);
                    return outcome;
                }
                SlotState::Claimed => return Err(ServeError::ServiceStopped),
                prev => {
                    *st = prev;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    let (guard, _) = self
                        .slot
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Non-blocking check: `Ok(Some(..))` once when the job has settled,
    /// `Ok(None)` while it is still in flight, `Err` if the outcome can no
    /// longer arrive on this ticket (service stopped, job shed, or the
    /// outcome was already delivered).
    pub fn poll(&self) -> Result<Option<Completed>, ServeError> {
        // Lock-free fast path on the advisory phase word: while the job
        // is in flight a poll loop never touches the slot mutex (and so
        // never contends with the cell thread settling the job). A stale
        // PENDING/ARMED read just answers "in flight" one extra time.
        // ORDER: Acquire — pairs with the Release settle publication, so
        // a non-short-circuited poll observes the settled state below.
        let phase = self.slot.phase.load(Ordering::Acquire);
        if phase == protocol::PENDING || phase == protocol::ARMED {
            return Ok(None);
        }
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        match std::mem::replace(&mut *st, SlotState::Claimed) {
            SlotState::Ready(outcome) => {
                // ORDER: Release — the claim is visible to lock-free
                // phase readers along with everything before it.
                self.slot.phase.store(protocol::CLAIMED, Ordering::Release);
                match outcome {
                    Ok(done) => Ok(Some(done)),
                    Err(e) => Err(e),
                }
            }
            SlotState::Claimed => Err(ServeError::ServiceStopped),
            prev => {
                *st = prev;
                Ok(None)
            }
        }
    }

    /// Compatibility alias for [`Ticket::poll`] (the pre-shard frontend
    /// called this `try_wait`).
    pub fn try_wait(&self) -> Result<Option<Completed>, ServeError> {
        self.poll()
    }

    /// Arm `f` to run when the job settles, consuming the ticket. If the
    /// job already settled, `f` runs immediately on the calling thread;
    /// otherwise it runs on the scheduler cell that finishes (or sheds)
    /// the job. `f` must not block: it executes inline on a cell thread.
    pub fn on_complete<F>(self, f: F)
    where
        F: FnOnce(Result<Completed, ServeError>) + Send + 'static,
    {
        // The match arms are exclusive, so `f` moves into exactly one of
        // them: either armed in the slot or returned to run after the
        // lock drops (callbacks never run under the slot lock).
        let run_now = {
            let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Pending => {
                    *st = SlotState::Armed(Box::new(f));
                    // ORDER: Release — publishes the arming to lock-free
                    // phase readers (poll keeps short-circuiting).
                    self.slot.phase.store(protocol::ARMED, Ordering::Release);
                    None
                }
                SlotState::Ready(outcome) => {
                    // ORDER: Release — the inline claim (the "run now"
                    // path) is a delivery like any other.
                    self.slot.phase.store(protocol::CLAIMED, Ordering::Release);
                    Some((outcome, f))
                }
                // Outcome already delivered elsewhere (e.g. a successful
                // `poll`): report as stopped, matching `wait` on a spent
                // ticket.
                SlotState::Claimed => Some((Err(ServeError::ServiceStopped), f)),
                // Arming consumes the ticket by value, so a second arming
                // cannot be reached; if it ever were, keep the armed
                // callback and treat this one like a spent ticket rather
                // than panicking on a cell thread.
                SlotState::Armed(prev) => {
                    *st = SlotState::Armed(prev);
                    Some((Err(ServeError::ServiceStopped), f))
                }
            }
        };
        if let Some((outcome, f)) = run_now {
            f(outcome);
        }
    }

    /// Route this job's outcome into `queue`, tagged with `token` so the
    /// consumer can tell jobs apart. Sugar over [`Ticket::on_complete`].
    pub fn forward_to(self, queue: &CompletionQueue, token: u64) {
        let inner = Arc::clone(&queue.inner);
        self.on_complete(move |outcome| inner.push(token, outcome));
    }
}

struct QueueInner {
    entries: Mutex<VecDeque<(u64, Result<Completed, ServeError>)>>,
    cv: Condvar,
}

impl QueueInner {
    fn push(&self, token: u64, outcome: Result<Completed, ServeError>) {
        let mut q = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back((token, outcome));
        drop(q);
        self.cv.notify_one();
    }
}

/// A multi-producer completion mailbox: forward any number of tickets into
/// it ([`Ticket::forward_to`]) and drain settled jobs from one place —
/// the shape an async executor's reactor or an event loop wants, with no
/// thread parked per job.
///
/// Cloning is cheap and shares the mailbox.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<QueueInner>,
}

impl Default for CompletionQueue {
    fn default() -> CompletionQueue {
        CompletionQueue::new()
    }
}

impl CompletionQueue {
    /// An empty mailbox.
    pub fn new() -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(QueueInner {
                entries: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Pop the oldest settled job, if any, without blocking.
    pub fn try_recv(&self) -> Option<(u64, Result<Completed, ServeError>)> {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front()
    }

    /// Pop the oldest settled job, waiting up to `timeout` for one to
    /// arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, Result<Completed, ServeError>)> {
        let deadline = Instant::now() + timeout;
        let mut q = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(entry) = q.pop_front() {
                return Some(entry);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
        }
    }

    /// Number of settled jobs waiting to be drained.
    pub fn len(&self) -> usize {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Whether no settled jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AnyOp, JobStats};
    use crate::router::TenantId;
    use adsala_blas3::{Matrix, OwnedOp, Transpose};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn done() -> Completed {
        let op: AnyOp = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(2, 2),
            b: Matrix::<f64>::zeros(2, 2),
            beta: 0.0,
            c: Matrix::<f64>::zeros(2, 2),
        }
        .into();
        Completed {
            op,
            stats: JobStats {
                tenant: TenantId(0),
                shard: 0,
                nt: 1,
                admitted_nt: 1,
                predicted_secs: 1e-6,
                model_backed: false,
                epoch: 0,
                observed_secs: 1e-6,
                batch_size: 1,
            },
            result: Ok(()),
        }
    }

    #[test]
    fn poll_sees_pending_then_ready_then_spent() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(matches!(ticket.poll(), Ok(None)));
        assert!(!slot.complete(Ok(done())));
        assert!(matches!(ticket.poll(), Ok(Some(_))));
        // Outcome delivered: the ticket is spent.
        assert!(matches!(ticket.poll(), Err(ServeError::ServiceStopped)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn wait_blocks_until_completed_from_another_thread() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let settler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete(Ok(done()));
        });
        assert!(ticket.wait().is_ok());
        settler.join().unwrap();
    }

    #[test]
    fn wait_timeout_settles_as_deadline_exceeded() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let outcome = ticket.wait_timeout(Duration::from_millis(5));
        assert!(matches!(outcome, Err(ServeError::DeadlineExceeded)));
        // The timed-out waiter claimed nothing: a late settle still works
        // (nobody listens, like a dropped ticket).
        assert!(!slot.complete(Ok(done())));
    }

    #[test]
    fn wait_timeout_returns_an_already_ready_outcome_immediately() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Ok(done()));
        assert!(ticket.wait_timeout(Duration::ZERO).is_ok());
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn wait_timeout_sees_a_shutdown_settle_not_a_timeout() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let settler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete(Err(ServeError::ServiceStopped));
        });
        let outcome = ticket.wait_timeout(Duration::from_secs(30));
        assert!(matches!(outcome, Err(ServeError::ServiceStopped)));
        settler.join().unwrap();
    }

    #[test]
    fn callback_armed_before_completion_runs_on_settling_thread() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        ticket.on_complete(move |outcome| {
            assert!(outcome.is_ok());
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert!(!slot.complete(Ok(done())));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn callback_armed_after_completion_runs_inline() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Err(ServeError::Shed));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        ticket.on_complete(move |outcome| {
            assert!(matches!(outcome, Err(ServeError::Shed)));
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_callback_is_caught_and_reported() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        ticket.on_complete(|_| panic!("listener bug"));
        assert!(slot.complete(Ok(done())), "panic should be reported");
        // The slot is still usable state-wise (claimed), not poisoned.
        assert!(slot.state.lock().is_ok());
    }

    #[test]
    fn completion_queue_fans_in_many_tickets() {
        let q = CompletionQueue::new();
        let slots: Vec<_> = (0..4).map(|_| CompletionSlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            Ticket::new(Arc::clone(slot)).forward_to(&q, i as u64);
        }
        assert!(q.try_recv().is_none());
        for slot in slots.iter().rev() {
            slot.complete(Ok(done()));
        }
        let mut tokens: Vec<u64> = (0..4)
            .map(|_| q.recv_timeout(Duration::from_secs(1)).unwrap().0)
            .collect();
        // Arrival order is completion order (reverse of forwarding here).
        assert_eq!(tokens, vec![3, 2, 1, 0]);
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn dropping_a_ticket_does_not_block_completion() {
        let slot = CompletionSlot::new();
        drop(Ticket::new(Arc::clone(&slot)));
        assert!(!slot.complete(Ok(done())));
    }
}
