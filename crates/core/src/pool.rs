//! A dependency-free chunked work-pool for batch scoring.
//!
//! The container this library targets has no registry access, so no rayon:
//! this is a minimal, purpose-built pool for the one parallel shape the
//! scoring engine needs — *run the same kernel over `chunks` disjoint
//! pieces of one batch, then return*. Design points:
//!
//! * **Persistent workers.** `threads - 1` OS threads are spawned once at
//!   construction and parked on a condvar between jobs; the calling thread
//!   is the remaining worker. Dispatching a job costs one mutex round-trip
//!   and a wake, not a `thread::spawn`.
//! * **Channel-free job slots.** A job is published by bumping a
//!   generation counter under a mutex; workers compare generations instead
//!   of draining a queue. There is exactly one job in flight at a time, so
//!   no queue, no channel, no allocation per dispatch.
//! * **Deterministic chunk → worker assignment.** Chunk `c` is always
//!   executed by worker `c % threads` (the caller is worker 0). Because
//!   chunks own disjoint output ranges and each chunk runs the identical
//!   serial kernel code, parallel output is **bit-identical** to a serial
//!   run of the same chunks in any order — the property the equivalence
//!   tests assert.
//! * **Panic containment.** A panicking worker marks the job and the error
//!   surfaces as [`PoolError::WorkerPanicked`] from [`WorkPool::run`]; the
//!   pool remains usable. A panic on the *calling* thread is resumed after
//!   all workers finish, so the borrowed closure never dangles.
//!
//! The `unsafe` here is confined to two places with the same
//! justification: the caller of [`WorkPool::run`] blocks until every
//! worker has finished the job, so the type-erased closure pointer handed
//! to the workers never outlives the closure itself; and
//! [`WorkPool::run_chunks`] hands each chunk index a disjoint sub-slice of
//! one output buffer, so no two workers alias.

use crate::sync::thread::JoinHandle;
use crate::sync::{thread, Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

/// Typed failures of a pool dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// At least one worker panicked while executing its chunks. The
    /// panicking chunk's output range is unspecified; all other chunks
    /// completed normally and the pool remains usable.
    WorkerPanicked,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked => write!(f, "a work-pool worker panicked"),
        }
    }
}

impl std::error::Error for PoolError {}

/// One published job: a type-erased `Fn(usize)` plus the chunk count and
/// the stride of the round-robin assignment.
#[derive(Clone, Copy)]
struct Job {
    /// Monomorphized trampoline that downcasts `data` and calls it.
    call: unsafe fn(*const (), usize),
    /// Borrowed closure, valid until `remaining` hits zero.
    data: *const (),
    chunks: usize,
    stride: usize,
}

// SAFETY: `data` points at a closure that is `Sync` (enforced by the
// bound on `run`) and outlives the job (the publisher blocks until
// `remaining == 0` before returning).
unsafe impl Send for Job {}

/// Trampoline instantiated per closure type by [`WorkPool::run`].
///
/// # Safety
/// `data` must point at a live `F`.
unsafe fn call_chunk<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
    (*(data as *const F))(chunk);
}

/// The mutex-guarded job slot workers park on.
struct Slot {
    /// Bumped once per dispatched job; workers run a job exactly once by
    /// comparing against the last generation they executed.
    generation: u64,
    job: Option<Job>,
    /// Spawned workers still executing the current job.
    remaining: usize,
    /// Set by any worker that panicked during the current job.
    panicked: bool,
    /// Tells workers to exit (set once, by `Drop`).
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new generation (or shutdown).
    work_cv: Condvar,
    /// The publisher waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// Lock the job slot, recovering from poison. A poisoned slot is still
/// consistent: every write to it is a single field store, and a worker
/// panic is already reported through `Slot::panicked`, so recovering the
/// guard is strictly better than propagating a second panic out of the
/// scoring hot path.
fn lock_slot(shared: &Shared) -> MutexGuard<'_, Slot> {
    shared.slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable pool of `threads` workers (including the calling thread).
/// See the module docs for the design.
pub struct WorkPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkPool {
    /// A pool of `threads` total workers. `threads <= 1` yields a pool
    /// that runs every job inline on the calling thread (still useful: the
    /// scoring engines take a `&WorkPool` unconditionally).
    pub fn new(threads: usize) -> WorkPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for index in 1..threads {
            let shared = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("dlr-pool-{index}"))
                .spawn(move || worker_loop(&shared, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                // Thread exhaustion degrades to a smaller (still correct)
                // pool instead of aborting construction mid-serve.
                Err(_) => break,
            }
        }
        let threads = handles.len() + 1;
        WorkPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total workers, including the calling thread.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(0..chunks)` across the pool. Chunk `c` runs on worker
    /// `c % threads()`; the call returns after **all** chunks finish.
    ///
    /// # Errors
    /// [`PoolError::WorkerPanicked`] when a spawned worker panicked; the
    /// pool stays usable. A panic on the calling thread's own chunks is
    /// resumed (after the workers drain) rather than converted.
    pub fn run<F: Fn(usize) + Sync>(&self, chunks: usize, f: F) -> Result<(), PoolError> {
        if chunks == 0 {
            return Ok(());
        }
        if self.handles.is_empty() || chunks == 1 {
            for c in 0..chunks {
                f(c);
            }
            return Ok(());
        }
        let stride = self.threads;
        let job = Job {
            call: call_chunk::<F>,
            data: &f as *const F as *const (),
            chunks,
            stride,
        };
        {
            let mut slot = lock_slot(&self.shared);
            debug_assert_eq!(slot.remaining, 0, "one job in flight at a time");
            slot.generation = slot.generation.wrapping_add(1);
            slot.job = Some(job);
            slot.remaining = self.handles.len();
            slot.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // The caller is worker 0: chunks 0, stride, 2·stride, …
        let own = catch_unwind(AssertUnwindSafe(|| {
            let mut c = 0;
            while c < chunks {
                f(c);
                c += stride;
            }
        }));
        // Always drain the workers before returning/unwinding: they hold a
        // raw pointer into `f`, which dies with this frame.
        let worker_panicked = {
            let mut slot = lock_slot(&self.shared);
            while slot.remaining != 0 {
                slot = self
                    .shared
                    .done_cv
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            slot.job = None;
            slot.panicked
        };
        match own {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => Err(PoolError::WorkerPanicked),
            Ok(()) => Ok(()),
        }
    }

    /// Split `out` into `ceil(out.len() / chunk_len)` consecutive chunks
    /// and run `f(chunk_index, start_element, chunk_slice)` for each
    /// across the pool. The chunk slices are disjoint, so workers never
    /// alias; assignment and determinism follow [`WorkPool::run`].
    ///
    /// # Errors
    /// See [`WorkPool::run`].
    ///
    /// # Panics
    /// Panics when `chunk_len == 0` and `out` is non-empty.
    pub fn run_chunks<T, F>(&self, out: &mut [T], chunk_len: usize, f: F) -> Result<(), PoolError>
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        if out.is_empty() {
            return Ok(());
        }
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = out.len();
        let chunks = len.div_ceil(chunk_len);
        let base = SendPtr(out.as_mut_ptr());
        self.run(chunks, move |c| {
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk `c` owns exactly `[start, end)`; ranges of
            // distinct chunks are disjoint and within `out`, and `out` is
            // mutably borrowed for the whole call.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(c, start, slice);
        })
    }

    /// [`run_chunks`](Self::run_chunks) with an additional per-worker
    /// scratch value: `scratch` is grown to `threads()` entries with
    /// `init`, and chunk `c` borrows entry `c % threads()` mutably —
    /// sound because that is precisely the worker executing it. Kernels
    /// use this to reuse packing buffers across chunks without allocating
    /// inside the hot loop.
    ///
    /// # Errors
    /// See [`WorkPool::run`].
    ///
    /// # Panics
    /// Panics when `chunk_len == 0` and `out` is non-empty.
    pub fn run_chunks_with<T, S, F>(
        &self,
        out: &mut [T],
        chunk_len: usize,
        scratch: &mut Vec<S>,
        init: impl FnMut() -> S,
        f: F,
    ) -> Result<(), PoolError>
    where
        T: Send,
        S: Send,
        F: Fn(usize, usize, &mut [T], &mut S) + Sync,
    {
        scratch.resize_with(self.threads, init);
        let sbase = SendPtr(scratch.as_mut_ptr());
        let stride = self.threads;
        self.run_chunks(out, chunk_len, move |c, start, slice| {
            // SAFETY: worker `c % stride` is the only executor of chunks
            // with this residue, so entry `c % stride` is never borrowed
            // by two workers at once; `scratch` outlives the dispatch.
            let s = unsafe { &mut *sbase.get().add(c % stride) };
            f(c, start, slice, s);
        })
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut slot = lock_slot(&self.shared);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked outside catch_unwind would surface
            // here; join errors are ignored so Drop never panics.
            let _ = h.join();
        }
    }
}

/// Raw pointer wrapper the chunk closures capture; Send/Sync because every
/// access is to a provably disjoint region (see the call sites). Access
/// goes through [`SendPtr::get`] so 2021-edition closures capture the
/// `Sync` wrapper, not the raw pointer field.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: a SendPtr crosses threads only inside pool dispatches whose
// callers hand each worker a provably disjoint region (see the call
// sites), so moving the pointer to another thread cannot create aliasing.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to SendPtr only ever read the pointer value
// via `get`; dereferencing it is a separate `unsafe` audited at each call
// site against the same disjointness argument as `Send`.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock_slot(shared);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation != seen {
                    if let Some(job) = slot.job {
                        seen = slot.generation;
                        break job;
                    }
                    // A generation bump always publishes a job; if the
                    // invariant ever broke, waiting again is safe (the
                    // publisher times nothing on this worker until it has
                    // taken a job).
                    debug_assert!(slot.job.is_some(), "generation advanced without a job");
                }
                slot = shared
                    .work_cv
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut c = index;
            while c < job.chunks {
                // SAFETY: the publisher keeps the closure alive until
                // `remaining == 0`, which this worker contributes to only
                // after finishing.
                unsafe { (job.call)(job.data, c) };
                c += job.stride;
            }
        }));
        let mut slot = lock_slot(shared);
        if outcome.is_err() {
            slot.panicked = true;
        }
        slot.remaining = slot.remaining.saturating_sub(1);
        if slot.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = WorkPool::new(4);
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        pool.run(37, |c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        for (c, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {c}");
        }
    }

    #[test]
    fn run_chunks_covers_the_buffer_disjointly() {
        let pool = WorkPool::new(3);
        let mut out = vec![0u32; 101];
        pool.run_chunks(&mut out, 7, |c, start, slice| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (c * 1000 + start + i) as u32;
            }
        })
        .unwrap();
        for (i, &v) in out.iter().enumerate() {
            let c = i / 7;
            assert_eq!(v as usize, c * 1000 + i);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0u8; 10];
        pool.run_chunks(&mut out, 3, |_, _, s| s.fill(1)).unwrap();
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn empty_and_zero_chunk_jobs_are_noops() {
        let pool = WorkPool::new(2);
        pool.run(0, |_| panic!("must not run")).unwrap();
        let mut empty: [u8; 0] = [];
        pool.run_chunks(&mut empty, 4, |_, _, _| panic!("must not run"))
            .unwrap();
    }

    #[test]
    fn per_worker_scratch_is_reused_not_shared() {
        let pool = WorkPool::new(4);
        let mut out = vec![0usize; 64];
        let mut scratch: Vec<Vec<usize>> = Vec::new();
        pool.run_chunks_with(
            &mut out,
            1,
            &mut scratch,
            Vec::new,
            |c, _, slice, s: &mut Vec<usize>| {
                s.push(c);
                slice[0] = c;
            },
        )
        .unwrap();
        assert_eq!(scratch.len(), 4);
        // Every chunk landed in the scratch of its assigned worker.
        for (w, s) in scratch.iter().enumerate() {
            assert!(s.iter().all(|&c| c % 4 == w), "worker {w} got {s:?}");
        }
        let total: usize = scratch.iter().map(Vec::len).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn worker_panic_surfaces_as_error_and_pool_survives() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkPool::new(4);
        // Panic on a chunk assigned to a spawned worker (1 % 4 = worker 1).
        let got = pool.run(8, |c| {
            if c == 1 {
                panic!("injected worker panic");
            }
        });
        assert_eq!(got, Err(PoolError::WorkerPanicked));
        std::panic::set_hook(prev);
        // No deadlock, and the next job runs cleanly.
        let done = AtomicUsize::new(0);
        pool.run(16, |_| {
            done.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(
            PoolError::WorkerPanicked.to_string(),
            "a work-pool worker panicked"
        );
    }

    #[test]
    fn caller_thread_panic_is_resumed_after_workers_drain() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkPool::new(2);
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.run(8, |c| {
                if c == 0 {
                    panic!("injected caller panic");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "caller panic must propagate");
        // Worker 1's chunks (all odd ones) completed despite the caller
        // panicking: 1, 3, 5, 7.
        assert_eq!(finished.load(Ordering::Relaxed), 4);
        // Pool is still alive.
        pool.run(3, |_| {}).unwrap();
    }

    #[test]
    fn shutdown_joins_workers_without_deadlock() {
        let pool = WorkPool::new(8);
        pool.run(64, |_| {}).unwrap();
        drop(pool); // must not hang
    }

    #[test]
    fn deterministic_assignment_is_round_robin() {
        let pool = WorkPool::new(3);
        let owner: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.run(12, |c| {
            // Identify the executor by its round-robin residue: chunk c is
            // documented to run on worker c % threads.
            owner[c].store(c % 3, Ordering::Relaxed);
        })
        .unwrap();
        for (c, o) in owner.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), c % 3);
        }
    }
}
