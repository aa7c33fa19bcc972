//! A small index-ordered worker pool over `std::thread`.
//!
//! [`ordered`] is the engine's one parallel primitive. It runs a closure
//! over the index range `0..n` on a fixed number of worker threads and
//! hands each result to the caller **by index**, so every caller is
//! deterministic by construction regardless of `jobs`: workers race for
//! indices, never for result slots. Its caller steers the work while it
//! runs:
//!
//! * a **fence** bounds how far ahead of the caller the workers may go —
//!   they take indices in ascending order, but none at or past the fence
//!   until [`Ordered::advance`] moves it;
//! * [`Ordered::cancel`] withdraws an index, so a worker that has not
//!   started it never will;
//! * [`Ordered::get`] blocks until an index's result is ready.
//!
//! [`scatter`] is the plain case — the fence at `n` from the start and
//! nothing cancelled. The online executor moves the fence with its
//! admission loop and cancels what its virtual server sheds.
//!
//! `jobs == 1` starts no threads: [`Ordered::get`] runs the closure
//! inline on the calling thread, so an index is computed only if it is
//! asked for, and single-threaded runs stay easy to profile.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Where one index stands.
enum Slot<R> {
    /// Not started; a worker may take it once the fence passes it.
    Pending,
    /// A worker is computing it.
    Running,
    Done(R),
    /// The closure panicked; [`Ordered::get`] re-raises the payload.
    Panicked(Box<dyn Any + Send>),
    /// Withdrawn by [`Ordered::cancel`]; a late result is dropped.
    Cancelled,
    /// Handed to the caller by [`Ordered::get`].
    Taken,
}

struct State<R> {
    slots: Vec<Slot<R>>,
    /// Every index below `next` has left [`Slot::Pending`].
    next: usize,
    /// Workers take no index at or past this one.
    fence: usize,
    /// Set once the caller is done; idle workers exit.
    closed: bool,
}

struct Shared<R> {
    state: Mutex<State<R>>,
    /// Signalled when the fence moves or the pool closes.
    work: Condvar,
    /// Signalled when a worker stores a result.
    done: Condvar,
}

impl<R> Shared<R> {
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        // Results are stored whole under the lock and closures run
        // outside it, so a poisoned lock still holds consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The caller's handle on a running [`ordered`] pool.
pub struct Ordered<'a, R> {
    f: &'a (dyn Fn(usize) -> R + Sync),
    shared: &'a Shared<R>,
    /// Whether worker threads run (`jobs > 1`); otherwise `get` computes.
    threaded: bool,
}

impl<R> Ordered<'_, R> {
    /// Lets workers take indices below `fence` (clamped to `n`). The
    /// fence only moves forward; a lower value is ignored.
    pub fn advance(&self, fence: usize) {
        let mut st = self.shared.lock();
        let fence = fence.min(st.slots.len());
        if fence > st.fence {
            st.fence = fence;
            drop(st);
            self.shared.work.notify_all();
        }
    }

    /// Withdraws index `i`: no worker starts it from now on, and a
    /// result already computed or still running is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `i` was already taken by [`Ordered::get`].
    pub fn cancel(&self, i: usize) {
        let mut st = self.shared.lock();
        assert!(
            !matches!(st.slots[i], Slot::Taken),
            "pool: index {i} cancelled after it was taken"
        );
        st.slots[i] = Slot::Cancelled;
    }

    /// The result of index `i`, computing it inline when the pool has no
    /// workers and otherwise waiting for the worker that takes it. Moves
    /// the fence past `i` first, so a `get` never waits on a fenced-off
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `i` was cancelled or already taken, and re-raises a
    /// panic of the closure on `i` (the pool does not attempt recovery:
    /// a panicking scheduler is a bug, not a scheduling failure).
    pub fn get(&self, i: usize) -> R {
        let taken = |i: usize| -> ! { panic!("pool: index {i} was cancelled or already taken") };
        if !self.threaded {
            let slot = std::mem::replace(&mut self.shared.lock().slots[i], Slot::Taken);
            if !matches!(slot, Slot::Pending) {
                taken(i);
            }
            return (self.f)(i);
        }
        self.advance(i + 1);
        let mut st = self.shared.lock();
        loop {
            match std::mem::replace(&mut st.slots[i], Slot::Taken) {
                Slot::Done(r) => return r,
                Slot::Panicked(payload) => {
                    drop(st);
                    panic::resume_unwind(payload)
                }
                waiting @ (Slot::Pending | Slot::Running) => {
                    st.slots[i] = waiting;
                    st = self
                        .shared
                        .done
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Slot::Cancelled | Slot::Taken => taken(i),
            }
        }
    }
}

/// One worker: take the lowest pending index below the fence, compute
/// it outside the lock, store the result; sleep while the fence blocks;
/// exit once every index is taken or cancelled, or the pool closes.
fn work<R>(shared: &Shared<R>, f: &(dyn Fn(usize) -> R + Sync)) {
    let mut st = shared.lock();
    loop {
        while st.next < st.fence && !matches!(st.slots[st.next], Slot::Pending) {
            st.next += 1;
        }
        if st.closed || st.next == st.slots.len() {
            return;
        }
        if st.next == st.fence {
            st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let i = st.next;
        st.next += 1;
        st.slots[i] = Slot::Running;
        drop(st);
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
        st = shared.lock();
        if matches!(st.slots[i], Slot::Running) {
            st.slots[i] = match result {
                Ok(r) => Slot::Done(r),
                Err(payload) => Slot::Panicked(payload),
            };
        }
        shared.done.notify_all();
    }
}

/// Closes the pool when the caller's body returns or unwinds, so idle
/// workers exit and the thread scope can join them.
struct CloseOnDrop<'a, R>(&'a Shared<R>);

impl<R> Drop for CloseOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.work.notify_all();
    }
}

/// Runs `body` against a pool that computes `f(i)` for `i in 0..n` on
/// `jobs` worker threads, taking indices in ascending order below a
/// fence that starts at `fence` (see the module docs). Returns what
/// `body` returns; indices `body` never asked for may or may not have
/// been computed, and their results are dropped.
///
/// Work is distributed dynamically, so long and short items mix freely.
/// `jobs == 1` starts no threads and computes each index inside
/// [`Ordered::get`].
pub fn ordered<R, F, T>(
    n: usize,
    jobs: usize,
    fence: usize,
    f: F,
    body: impl FnOnce(&Ordered<'_, R>) -> T,
) -> T
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let shared = Shared {
        state: Mutex::new(State {
            slots: (0..n).map(|_| Slot::Pending).collect(),
            next: 0,
            fence: fence.min(n),
            closed: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    let jobs = jobs.max(1).min(n.max(1));
    let pool = Ordered {
        f: &f,
        shared: &shared,
        threaded: jobs > 1,
    };
    if jobs == 1 {
        return body(&pool);
    }
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| work(&shared, &f));
        }
        let _close = CloseOnDrop(&shared);
        body(&pool)
    })
}

/// Runs `f(i)` for every `i in 0..n` on `jobs` worker threads and returns
/// the results in index order: an [`ordered`] pool with the fence at `n`
/// and nothing cancelled.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn scatter<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ordered(n, jobs, n, f, |pool| (0..n).map(|i| pool.get(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn preserves_order_and_covers_all_indices() {
        for jobs in [1, 2, 8, 64] {
            let out = scatter(100, jobs, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_degenerate_inputs() {
        assert_eq!(scatter(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(scatter(1, 0, |i| i + 1), vec![1]);
        assert_eq!(scatter(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_and_serial_agree_on_shared_state_free_work() {
        let serial = scatter(250, 1, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let parallel = scatter(250, 8, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(serial, parallel);
    }

    /// Runs `body` against a pool over `0..n` whose closure records
    /// which indices it computed; returns that record.
    fn computed(
        n: usize,
        jobs: usize,
        fence: usize,
        body: impl FnOnce(&Ordered<'_, usize>),
    ) -> Vec<bool> {
        let ran: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        ordered(
            n,
            jobs,
            fence,
            |i| {
                ran[i].store(true, Ordering::Relaxed);
                i
            },
            body,
        );
        ran.iter().map(|r| r.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn workers_never_pass_the_fence() {
        for jobs in [1, 4] {
            let ran = computed(64, jobs, 0, |pool| {
                assert_eq!(pool.get(5), 5);
                pool.advance(3); // behind the fence `get` set: ignored
                assert_eq!(pool.get(2), 2);
            });
            assert!(ran[2] && ran[5]);
            assert!(
                ran[6..].iter().all(|r| !r),
                "jobs={jobs}: an index past the fence ran"
            );
        }
    }

    #[test]
    fn cancelled_indices_never_run() {
        for jobs in [1, 4] {
            let ran = computed(40, jobs, 0, |pool| {
                for i in (1..40).step_by(2) {
                    pool.cancel(i);
                }
                for i in (0..40).step_by(2) {
                    assert_eq!(pool.get(i), i);
                }
            });
            let expected: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
            assert_eq!(ran, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn serial_pool_computes_only_what_is_asked_for() {
        let ran = computed(10, 1, 10, |pool| {
            assert_eq!(pool.get(7), 7);
        });
        let expected: Vec<bool> = (0..10).map(|i| i == 7).collect();
        assert_eq!(ran, expected);
    }

    #[test]
    #[should_panic(expected = "cancelled or already taken")]
    fn getting_a_cancelled_index_panics() {
        ordered(
            4,
            2,
            4,
            |i| i,
            |pool| {
                pool.cancel(1);
                pool.get(1)
            },
        );
    }

    #[test]
    #[should_panic(expected = "boom at 3")]
    fn a_worker_panic_reaches_the_caller() {
        scatter(8, 4, |i| {
            assert!(i != 3, "boom at {i}");
            i
        });
    }
}
