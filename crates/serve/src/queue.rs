//! Bounded admission queue with explicit backpressure.
//!
//! The queue is the server's only buffer: requests wait here between
//! [`submit`](crate::Server::submit) and batch formation. It is bounded
//! by *request count*, and overflow is an explicit, typed event — either
//! the submitter is refused on the spot ([`Backpressure::Reject`]) or it
//! blocks until space frees ([`Backpressure::Block`]). Nothing is
//! silently dropped: every admitted item is handed to the dispatcher
//! exactly once by [`take_batch`](AdmissionQueue::take_batch), and a
//! closed queue drains rather than discards.
//!
//! This module never reads a clock and holds no batching policy:
//! timestamps ride in on the items (server nanos assigned by the
//! submitter), [`partial_batch`](AdmissionQueue::partial_batch) hands the
//! dispatcher what the flush rule reads in one lock acquisition, and how
//! long to wait comes back in as a [`Duration`].

use crate::request::{ScoreRequest, Slot, SubmitError};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// What to do with a submission when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Refuse immediately with [`SubmitError::QueueFull`] — the shape an
    /// open-loop front-end wants, because blocking would stall the
    /// accept path and grow an invisible queue upstream.
    #[default]
    Reject,
    /// Block the submitting thread until space frees or the server
    /// starts draining.
    Block,
}

/// One admitted request, timestamped and carrying its completion slot.
#[derive(Debug)]
pub struct Admitted {
    /// Trace id assigned at submission (1-based; 0 is reserved for
    /// synthetic spans), tying this request's queue/batch/dispatch spans
    /// together in the observability plane.
    pub id: u64,
    /// Documents in this request.
    pub docs: usize,
    /// The request (features + relative deadline, kept for accounting).
    pub request: ScoreRequest,
    /// Absolute deadline in server nanos, when the request has one.
    pub deadline_nanos: Option<u64>,
    /// Admission timestamp in server nanos.
    pub queued_nanos: u64,
    /// Where the response must be delivered.
    pub slot: Arc<Slot>,
}

/// Queue state behind the mutex.
struct State {
    items: VecDeque<Admitted>,
    /// Total documents across queued items (the batcher's flush unit).
    queued_docs: usize,
    /// Set once by [`AdmissionQueue::close`]; admission stops, draining
    /// continues.
    closed: bool,
}

/// What the dispatcher learned from waiting on the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// At least one item is queued.
    Items,
    /// The queue is closed and empty — the drain is complete.
    Drained,
}

/// What the flush rule reads of a batch still short of its target, from
/// one look under the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialBatch {
    /// Total documents across queued items.
    pub docs: usize,
    /// Admission timestamp of the oldest queued item.
    pub oldest_queued_nanos: u64,
    /// The earliest absolute deadline any queued item carries.
    pub tightest_deadline_nanos: Option<u64>,
}

/// The earliest absolute deadline among `items`, if any carries one.
pub(crate) fn tightest_deadline_nanos<'a>(
    items: impl IntoIterator<Item = &'a Admitted>,
) -> Option<u64> {
    items.into_iter().filter_map(|i| i.deadline_nanos).min()
}

/// A bounded MPSC queue: many submitters, one dispatcher.
pub struct AdmissionQueue {
    state: Mutex<State>,
    /// Submitters blocked under [`Backpressure::Block`] wait here.
    not_full: Condvar,
    /// The dispatcher waits here for work (or more work).
    not_empty: Condvar,
    capacity: usize,
}

/// Lock the queue state, recovering from poison: every critical section
/// here only moves items and adjusts counters, so a poisoned lock is
/// still consistent and recovering beats a second panic on the serving
/// path.
fn lock(queue: &AdmissionQueue) -> MutexGuard<'_, State> {
    queue.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` requests (clamped to ≥ 1).
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                queued_docs: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum queued requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admit `item`, applying the backpressure policy when full. `gate`
    /// runs under the queue lock with the currently queued document count
    /// once space is available — the admission-control shed decision —
    /// and its error refuses the item without enqueueing it.
    ///
    /// On success, returns the queue depth (requests, documents) *after*
    /// the push, so the caller can maintain high-water gauges without a
    /// second lock round-trip.
    pub fn admit(
        &self,
        item: Admitted,
        policy: Backpressure,
        gate: impl FnOnce(usize) -> Result<(), SubmitError>,
    ) -> Result<(usize, usize), SubmitError> {
        let mut state = lock(self);
        loop {
            if state.closed {
                return Err(SubmitError::ShuttingDown);
            }
            if state.items.len() < self.capacity {
                break;
            }
            match policy {
                Backpressure::Reject => return Err(SubmitError::QueueFull),
                Backpressure::Block => {
                    state = self
                        .not_full
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        gate(state.queued_docs)?;
        state.queued_docs += item.docs;
        state.items.push_back(item);
        let depth = (state.items.len(), state.queued_docs);
        drop(state);
        self.not_empty.notify_all();
        Ok(depth)
    }

    /// Stop admission; queued items remain for the dispatcher to drain.
    pub fn close(&self) {
        let mut state = lock(self);
        state.closed = true;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Block until at least one item is queued, or the queue is closed
    /// and empty (drain complete).
    pub fn wait_nonempty(&self) -> Ready {
        let mut state = lock(self);
        loop {
            if !state.items.is_empty() {
                return Ready::Items;
            }
            if state.closed {
                return Ready::Drained;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The batch the dispatcher could wait on, in one lock acquisition
    /// (it decides each coalescing turn from this instead of contending
    /// with every submitter once per field). `None` when there is nothing
    /// to wait for: `target_docs` documents are already queued, the queue
    /// is closed (a drain flushes immediately), or it is empty. The
    /// deadline scan is therefore over fewer than `target_docs` requests.
    pub fn partial_batch(&self, target_docs: usize) -> Option<PartialBatch> {
        let state = lock(self);
        if state.queued_docs >= target_docs || state.closed {
            return None;
        }
        Some(PartialBatch {
            docs: state.queued_docs,
            oldest_queued_nanos: state.items.front()?.queued_nanos,
            tightest_deadline_nanos: tightest_deadline_nanos(&state.items),
        })
    }

    /// Wait (one condvar round) for more work: returns immediately when
    /// `target_docs` documents are already queued, the queue is closed
    /// (a drain flushes immediately), or `timeout` is zero; otherwise
    /// blocks until the next admission/close wake or the timeout. Any
    /// wake returns — the dispatcher re-derives its flush deadline from
    /// [`partial_batch`](Self::partial_batch) and the clock and calls
    /// again, so a trickle of admissions can never postpone a time-based
    /// flush.
    /// Returns the queued document count seen last.
    pub fn wait_docs_or_timeout(&self, target_docs: usize, timeout: Duration) -> usize {
        let state = lock(self);
        if state.queued_docs >= target_docs || state.closed || timeout.is_zero() {
            return state.queued_docs;
        }
        let (state, _waited) = self
            .not_empty
            .wait_timeout(state, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        state.queued_docs
    }

    /// Pop a batch: the oldest item unconditionally (an oversized request
    /// becomes its own oversized batch), then following items while the
    /// running document total stays within `max_docs`. Frees queue space
    /// and wakes blocked submitters.
    pub fn take_batch(&self, max_docs: usize) -> Vec<Admitted> {
        let mut state = lock(self);
        let mut batch = Vec::new();
        let mut docs = 0usize;
        while let Some(front) = state.items.front() {
            if !batch.is_empty() && docs + front.docs > max_docs {
                break;
            }
            docs += front.docs;
            state.queued_docs -= front.docs;
            if let Some(item) = state.items.pop_front() {
                batch.push(item);
            }
            if docs >= max_docs {
                break;
            }
        }
        drop(state);
        if !batch.is_empty() {
            self.not_full.notify_all();
        }
        batch
    }

    /// Current depth: (queued requests, queued documents).
    pub fn depth(&self) -> (usize, usize) {
        let state = lock(self);
        (state.items.len(), state.queued_docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(docs: usize, queued_nanos: u64) -> Admitted {
        Admitted {
            id: queued_nanos + 1,
            docs,
            request: ScoreRequest::new(vec![0.0; docs]),
            deadline_nanos: None,
            queued_nanos,
            slot: Arc::new(Slot::default()),
        }
    }

    fn admit_ok(q: &AdmissionQueue, i: Admitted) {
        q.admit(i, Backpressure::Reject, |_| Ok(())).expect("admit");
    }

    #[test]
    fn reject_policy_refuses_when_full() {
        let q = AdmissionQueue::new(2);
        admit_ok(&q, item(1, 0));
        admit_ok(&q, item(1, 1));
        let err = q
            .admit(item(1, 2), Backpressure::Reject, |_| Ok(()))
            .expect_err("full");
        assert_eq!(err, SubmitError::QueueFull);
        assert_eq!(q.depth(), (2, 2));
    }

    #[test]
    fn gate_runs_under_the_lock_and_can_shed() {
        let q = AdmissionQueue::new(8);
        admit_ok(&q, item(5, 0));
        let err = q
            .admit(item(3, 1), Backpressure::Reject, |queued_docs| {
                assert_eq!(queued_docs, 5);
                Err(SubmitError::Shed {
                    predicted: Duration::from_micros(10),
                    budget: Duration::from_micros(5),
                })
            })
            .expect_err("shed");
        assert!(matches!(err, SubmitError::Shed { .. }));
        // A shed item was never enqueued.
        assert_eq!(q.depth(), (1, 5));
    }

    #[test]
    fn take_batch_respects_max_docs_but_never_starves_oversized() {
        let q = AdmissionQueue::new(8);
        admit_ok(&q, item(3, 0));
        admit_ok(&q, item(3, 1));
        admit_ok(&q, item(3, 2));
        let b = q.take_batch(6);
        assert_eq!(b.iter().map(|i| i.docs).sum::<usize>(), 6);
        assert_eq!(b.len(), 2);
        // Oversized request forms its own batch.
        let q = AdmissionQueue::new(8);
        admit_ok(&q, item(100, 0));
        admit_ok(&q, item(1, 1));
        let b = q.take_batch(6);
        assert_eq!(b.len(), 1);
        assert_eq!(b.first().map(|i| i.docs), Some(100));
        assert_eq!(q.depth(), (1, 1));
    }

    #[test]
    fn closed_queue_refuses_admission_but_drains() {
        let q = AdmissionQueue::new(4);
        admit_ok(&q, item(2, 0));
        q.close();
        // A drain flushes at once: there is no partial batch to wait on.
        assert_eq!(q.partial_batch(16), None);
        let err = q
            .admit(item(1, 1), Backpressure::Block, |_| Ok(()))
            .expect_err("closed");
        assert_eq!(err, SubmitError::ShuttingDown);
        assert_eq!(q.wait_nonempty(), Ready::Items);
        assert_eq!(q.take_batch(16).len(), 1);
        assert_eq!(q.wait_nonempty(), Ready::Drained);
    }

    #[test]
    fn block_policy_waits_for_space() {
        let q = Arc::new(AdmissionQueue::new(1));
        admit_ok(&q, item(1, 0));
        let submitter = std::thread::spawn({
            let q = Arc::clone(&q);
            move || {
                q.admit(item(1, 1), Backpressure::Block, |_| Ok(()))
                    .expect("admitted after space frees")
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!submitter.is_finished(), "submitter must be blocked");
        assert_eq!(q.take_batch(16).len(), 1);
        submitter.join().expect("blocked submitter");
        assert_eq!(q.depth(), (1, 1));
    }

    #[test]
    fn wait_docs_or_timeout_returns_on_target_close_or_timeout() {
        let q = AdmissionQueue::new(8);
        admit_ok(&q, item(2, 0));
        // Target already met: returns immediately.
        assert_eq!(q.wait_docs_or_timeout(2, Duration::from_secs(5)), 2);
        // Timeout path.
        assert_eq!(q.wait_docs_or_timeout(10, Duration::from_millis(5)), 2);
        // Close wakes the waiter.
        let q = Arc::new(AdmissionQueue::new(8));
        let waiter = std::thread::spawn({
            let q = Arc::clone(&q);
            move || q.wait_docs_or_timeout(10, Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(waiter.join().expect("waiter"), 0);
    }

    #[test]
    fn partial_batch_reads_docs_front_and_tightest_deadline_at_once() {
        let q = AdmissionQueue::new(4);
        assert_eq!(q.partial_batch(8), None, "empty: nothing to wait on");
        admit_ok(&q, item(2, 42));
        for (docs, queued_nanos, deadline) in [(1, 77, 900), (3, 80, 500)] {
            admit_ok(
                &q,
                Admitted {
                    deadline_nanos: Some(deadline),
                    ..item(docs, queued_nanos)
                },
            );
        }
        let all = PartialBatch {
            docs: 6,
            oldest_queued_nanos: 42,
            tightest_deadline_nanos: Some(500),
        };
        assert_eq!(q.partial_batch(8), Some(all));
        assert_eq!(q.partial_batch(6), None, "target met: flush, no wait");
        q.take_batch(2);
        let rest = PartialBatch {
            docs: 4,
            oldest_queued_nanos: 77,
            ..all
        };
        assert_eq!(q.partial_batch(8), Some(rest));
        assert_eq!(q.capacity(), 4);
    }
}
