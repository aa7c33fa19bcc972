//! Long-lived submission pool: the engine side of `vcsched serve`.
//!
//! [`pool::scatter`](crate::pool::scatter) fans a *known* corpus over
//! short-lived scoped threads; a service instead admits problems
//! continuously. [`SubmitPool`] owns a fixed set of worker threads and a
//! **bounded admission queue** in front of them:
//!
//! * [`SubmitPool::try_submit`] enqueues one scheduling [`Problem`] or
//!   fails immediately with [`SubmitError::Saturated`] (carrying a
//!   suggested retry delay) when the queue is full — the backpressure
//!   signal `vcsched serve` forwards to clients as `retry_after_ms`.
//!   The refusal ([`Rejected`]) hands the problem back, so a retry
//!   resubmits the same allocation;
//! * [`SubmitPool::submit`] blocks for queue space instead (used for
//!   service-side batch fan-out, where the caller *is* the backpressure);
//! * [`SubmitPool::try_submit_with`] / [`SubmitPool::submit_with`] /
//!   [`SubmitPool::probe_with`] take a completion callback invoked on the
//!   worker thread instead of handing back a [`Ticket`] — the service
//!   reactor's path, where no thread may park per request;
//! * [`SubmitPool::probe`] runs a no-op (optionally delayed) job through
//!   the same queue and workers, measuring true end-to-end service time —
//!   and giving tests a deterministic way to hold workers busy;
//! * [`SubmitPool::set_completion_hook`] installs a pool-wide observer
//!   invoked on the worker after *every* finished task (ticket or
//!   callback form) — the service reactor uses it to re-drain its
//!   per-connection fair queues the moment capacity frees up;
//! * [`SubmitPool::shutdown`] closes admission, drains every already
//!   accepted job, and joins the workers — in-flight work is never
//!   dropped.
//!
//! Every solve goes through the shared sharded [`ScheduleCache`], so a
//! repeated request is answered from memory and counted as a hit.
//!
//! The pool is the one home of its own figures: the admission counters
//! ([`SubmitPool::counters`]), queue depth, busy workers, and the
//! queue-wait and solve-latency histograms. `vcsched serve` renders its
//! `stats` reply and its `engine_pool_*`, `engine_queue_*` and
//! `engine_solve_us` series from these accessors.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::Superblock;
use vcsched_obs::Histogram;

use crate::cache::ScheduleCache;
use crate::portfolio::{BlockOutcome, PolicyOptions};

/// One scheduling problem in canonical form.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The superblock to schedule.
    pub block: Superblock,
    /// Target machine.
    pub machine: MachineConfig,
    /// Live-in home clusters (same contract as
    /// [`schedule_block`](crate::schedule_block)).
    pub homes: Vec<ClusterId>,
    /// Policy options (deduction-step budget, portfolio widening).
    pub options: PolicyOptions,
    /// Optional wall-clock backstop: the worker arms a
    /// [`DeadlineTimer`](crate::DeadlineTimer) that preempts the race's
    /// sealed bound when it expires, returning best-so-far; a preempted
    /// result is not cached. `None` keeps the fully deterministic path.
    pub deadline: Option<Duration>,
}

/// A solved problem: the policy outcome plus whether the cache answered.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Winner, AWCT, VC accounting and the schedule itself.
    pub outcome: BlockOutcome,
    /// Whether the answer came from the schedule cache.
    pub cached: bool,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; retry after the suggested delay.
    Saturated {
        /// Queue capacity that was exhausted.
        queue_capacity: usize,
        /// Suggested client backoff, in milliseconds.
        retry_after_ms: u64,
    },
    /// The pool has been shut down and admits nothing.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated {
                queue_capacity,
                retry_after_ms,
            } => write!(
                f,
                "admission queue full (capacity {queue_capacity}); \
                 retry in ~{retry_after_ms} ms"
            ),
            SubmitError::ShutDown => f.write_str("pool is shut down"),
        }
    }
}

/// A refused [`SubmitPool::try_submit`] or [`SubmitPool::try_submit_with`]:
/// why, plus the problem handed back as submitted, so a caller that parks
/// the request and retries keeps its one copy instead of submitting
/// clones.
#[derive(Debug)]
pub struct Rejected {
    /// Why the pool refused.
    pub error: SubmitError,
    /// The problem, unchanged.
    pub problem: Box<Problem>,
}

/// Turns a refused solve dispatch back into its problem.
fn rejected_solve((error, kind): (SubmitError, TaskKind)) -> Rejected {
    let TaskKind::Solve { problem, .. } = kind else {
        unreachable!("a solve dispatch hands back its solve task")
    };
    Rejected { error, problem }
}

/// A claim on one submitted job's eventual result.
#[derive(Debug)]
pub struct Ticket<T>(Receiver<T>);

impl<T> Ticket<T> {
    /// Blocks until the job completes. Only errors if the pool died
    /// without running the job — which [`SubmitPool::shutdown`]'s drain
    /// guarantee rules out for accepted jobs.
    pub fn wait(self) -> Result<T, String> {
        self.0
            .recv()
            .map_err(|_| "submission pool dropped the job".to_owned())
    }
}

/// How a finished task hands back its result: a channel behind a
/// [`Ticket`] for blocking callers, or a callback invoked on the worker
/// thread for readiness-driven callers (the service reactor) that must
/// never park a thread per request.
enum Reply<T> {
    Channel(mpsc::Sender<T>),
    Callback(Box<dyn FnOnce(T) + Send>),
}

impl<T> Reply<T> {
    fn complete(self, value: T) {
        match self {
            // A dropped ticket just means nobody is waiting anymore; the
            // work (and its cache entry) still happened.
            Reply::Channel(tx) => drop(tx.send(value)),
            Reply::Callback(f) => f(value),
        }
    }
}

enum TaskKind {
    Solve {
        // Boxed: a Problem is an order of magnitude larger than the
        // Probe variant, and tasks move through a channel by value.
        problem: Box<Problem>,
        reply: Reply<Solved>,
    },
    Probe {
        delay: Duration,
        reply: Reply<Duration>,
    },
}

struct Task {
    kind: TaskKind,
    /// When the task entered the admission queue — the worker records the
    /// elapsed wait into the pool's queue-wait histogram on pickup.
    enqueued: Instant,
}

/// Folds one solve into the pool's per-policy lifetime counters.
fn record_policy_totals(totals: &Mutex<Vec<PolicyTotals>>, outcome: &BlockOutcome, cached: bool) {
    let mut totals = totals.lock().unwrap();
    let index_of = |totals: &mut Vec<PolicyTotals>, name: &str| -> usize {
        match totals.iter().position(|t| t.policy == name) {
            Some(i) => i,
            None => {
                totals.push(PolicyTotals {
                    policy: name.to_owned(),
                    ..PolicyTotals::default()
                });
                totals.len() - 1
            }
        }
    };
    let i = index_of(&mut totals, &outcome.winner);
    totals[i].wins += 1;
    if !cached {
        for stat in &outcome.policy_stats {
            let i = index_of(&mut totals, &stat.policy);
            totals[i].steps += stat.steps;
            if stat.gave_up() {
                totals[i].fallbacks += 1;
            }
        }
    }
}

/// Per-policy lifetime counters, surfaced through `vcsched serve`'s
/// `stats` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyTotals {
    /// Policy name (registry identity).
    pub policy: String,
    /// Requests this policy won (cached answers included: the remembered
    /// winner still won).
    pub wins: u64,
    /// Deduction steps actually spent by this pool's workers — cache
    /// hits do no work, so they add nothing here.
    pub steps: u64,
    /// Fresh solves where the policy abandoned (budget, beaten, gave
    /// up).
    pub fallbacks: u64,
}

/// Long-lived worker pool with a bounded admission queue (see the module
/// docs).
pub struct SubmitPool {
    tx: Mutex<Option<SyncSender<Task>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    cache: Arc<ScheduleCache>,
    queue_capacity: usize,
    jobs: usize,
    depth: Arc<AtomicUsize>,
    busy: Arc<AtomicUsize>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: Arc<AtomicU64>,
    queue_wait: Histogram,
    solve_latency: Histogram,
    policy_totals: Arc<Mutex<Vec<PolicyTotals>>>,
    completion_hook: Arc<Mutex<Option<CompletionHook>>>,
}

/// Pool-wide completion observer (see
/// [`SubmitPool::set_completion_hook`]).
type CompletionHook = Arc<dyn Fn() + Send + Sync>;

impl SubmitPool {
    /// Spawns `jobs` workers behind a queue admitting at most
    /// `queue_capacity` waiting jobs, all solving through `cache`.
    pub fn new(jobs: usize, queue_capacity: usize, cache: Arc<ScheduleCache>) -> SubmitPool {
        let jobs = jobs.max(1);
        let queue_capacity = queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel::<Task>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let busy = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicU64::new(0));
        let queue_wait = Histogram::new();
        let solve_latency = Histogram::new();
        let policy_totals: Arc<Mutex<Vec<PolicyTotals>>> = Arc::new(Mutex::new(Vec::new()));
        let completion_hook: Arc<Mutex<Option<CompletionHook>>> = Arc::new(Mutex::new(None));
        let workers = (0..jobs)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let depth = Arc::clone(&depth);
                let busy = Arc::clone(&busy);
                let completed = Arc::clone(&completed);
                let queue_wait = queue_wait.clone();
                let solve_latency = solve_latency.clone();
                let policy_totals = Arc::clone(&policy_totals);
                let completion_hook = Arc::clone(&completion_hook);
                std::thread::spawn(move || loop {
                    // Holding the lock across the blocking recv is the
                    // standard std worker-pool pattern: pickup is quick
                    // when tasks exist, and an idle holder blocks inside
                    // recv, not on useful work.
                    let task = match rx.lock().unwrap().recv() {
                        Ok(task) => task,
                        Err(_) => break, // admission closed and queue drained
                    };
                    depth.fetch_sub(1, Ordering::Relaxed);
                    queue_wait.record_duration(task.enqueued.elapsed());
                    busy.fetch_add(1, Ordering::Relaxed);
                    // Counted before the reply, so a caller that has its
                    // answer also sees it in the pool's counters.
                    let done = || {
                        busy.fetch_sub(1, Ordering::Relaxed);
                        completed.fetch_add(1, Ordering::Relaxed);
                    };
                    match task.kind {
                        TaskKind::Solve { problem, reply } => {
                            let solve_start = Instant::now();
                            let (outcome, cached) = crate::solve_through_cache(
                                crate::PolicyRegistry::builtin(),
                                &problem.block,
                                &problem.machine,
                                &problem.homes,
                                &problem.options,
                                &cache,
                                problem.deadline,
                            );
                            solve_latency.record_duration(solve_start.elapsed());
                            record_policy_totals(&policy_totals, &outcome, cached);
                            done();
                            reply.complete(Solved { outcome, cached });
                        }
                        TaskKind::Probe { delay, reply } => {
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                            done();
                            reply.complete(delay);
                        }
                    }
                    // Clone out of the lock so a slow hook never blocks
                    // hook (re-)installation or other workers.
                    let hook = completion_hook.lock().unwrap().clone();
                    if let Some(hook) = hook {
                        hook();
                    }
                })
            })
            .collect();
        SubmitPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            cache,
            queue_capacity,
            jobs,
            depth,
            busy,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed,
            queue_wait,
            solve_latency,
            policy_totals,
            completion_hook,
        }
    }

    /// Installs a pool-wide observer called on the worker thread after
    /// *every* finished task — solve or probe, ticket or callback form —
    /// once its result has been delivered and the completion counters
    /// bumped. The service reactor hangs its fair-queue re-drain here:
    /// a completion is the signal that admission capacity is about to
    /// free up, so ring-parked work gets another shot without polling.
    /// The hook must hand off quickly; the worker is busy while it runs.
    /// Installing replaces any previous hook.
    pub fn set_completion_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.completion_hook.lock().unwrap() = Some(Arc::new(hook));
    }

    /// The shared schedule cache the workers solve through.
    pub fn cache(&self) -> &Arc<ScheduleCache> {
        &self.cache
    }

    /// Worker thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Admission queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Jobs currently waiting in the admission queue (not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Workers currently running a task.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Time each task waited in the admission queue before a worker
    /// picked it up, in microseconds.
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Wall time of each solve on a worker (cache hit or fresh race), in
    /// microseconds. Probes are not solves and record nothing here.
    pub fn solve_latency(&self) -> &Histogram {
        &self.solve_latency
    }

    /// Per-policy lifetime counters, in first-encounter order. Wins count
    /// every solved request (the cache remembers who won); steps and
    /// fallbacks count only fresh solves — work this pool actually did.
    pub fn policy_totals(&self) -> Vec<PolicyTotals> {
        self.policy_totals.lock().unwrap().clone()
    }

    /// Lifetime counters: (accepted, rejected, completed).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.accepted.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
        )
    }

    /// Suggested client backoff when saturated: proportional to how much
    /// work is stacked per worker, clamped to a sane band.
    fn retry_after_ms(&self) -> u64 {
        let backlog = self.queue_depth() as u64 + 1;
        (25 * backlog / self.jobs as u64).clamp(25, 2_000)
    }

    /// Queues one task. A refusal hands the task back with its reason.
    fn dispatch(
        &self,
        kind: TaskKind,
        block_for_space: bool,
    ) -> Result<(), (SubmitError, TaskKind)> {
        let task = Task {
            kind,
            enqueued: Instant::now(),
        };
        // Clone the sender and release the lock before sending: a
        // blocking send that waited for queue space while holding the
        // mutex would stall every concurrent try_submit behind it,
        // turning fail-fast backpressure into head-of-line blocking.
        let Some(tx) = self.tx.lock().unwrap().clone() else {
            return Err((SubmitError::ShutDown, task.kind));
        };
        // Count the slot before sending so a racing depth reader never
        // sees fewer waiters than the channel holds.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let result = if block_for_space {
            tx.send(task).map_err(|e| (SubmitError::ShutDown, e.0.kind))
        } else {
            tx.try_send(task).map_err(|e| match e {
                TrySendError::Full(task) => (
                    SubmitError::Saturated {
                        queue_capacity: self.queue_capacity,
                        retry_after_ms: self.retry_after_ms(),
                    },
                    task.kind,
                ),
                TrySendError::Disconnected(task) => (SubmitError::ShutDown, task.kind),
            })
        };
        match result {
            Ok(()) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Admits a problem if the queue has space, else fails immediately
    /// with the backpressure signal and hands the problem back.
    pub fn try_submit(&self, problem: impl Into<Box<Problem>>) -> Result<Ticket<Solved>, Rejected> {
        let (reply, rx) = mpsc::channel();
        self.dispatch(
            TaskKind::Solve {
                problem: problem.into(),
                reply: Reply::Channel(reply),
            },
            false,
        )
        .map_err(rejected_solve)?;
        Ok(Ticket(rx))
    }

    /// Admits a problem, waiting for queue space if necessary. Only fails
    /// once the pool is shut down.
    pub fn submit(&self, problem: Problem) -> Result<Ticket<Solved>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        self.dispatch(
            TaskKind::Solve {
                problem: Box::new(problem),
                reply: Reply::Channel(reply),
            },
            true,
        )
        .map_err(|(e, _)| e)?;
        Ok(Ticket(rx))
    }

    /// [`SubmitPool::try_submit`], completion-callback form: `notify`
    /// runs on the worker thread the moment the solve finishes, instead
    /// of a caller thread parking in [`Ticket::wait`]. This is the
    /// readiness-driven service core's submission path — one reactor
    /// thread can keep thousands of requests in flight with no thread
    /// per request. The callback should hand off quickly (push to a
    /// completion queue, wake an event loop); the worker is busy for as
    /// long as it runs. A refusal drops `notify` and hands the problem
    /// back, as [`SubmitPool::try_submit`] does.
    pub fn try_submit_with(
        &self,
        problem: impl Into<Box<Problem>>,
        notify: impl FnOnce(Solved) + Send + 'static,
    ) -> Result<(), Rejected> {
        self.dispatch(
            TaskKind::Solve {
                problem: problem.into(),
                reply: Reply::Callback(Box::new(notify)),
            },
            false,
        )
        .map_err(rejected_solve)
    }

    /// [`SubmitPool::submit`], completion-callback form (blocks for
    /// queue space; see [`SubmitPool::try_submit_with`] for the callback
    /// contract).
    pub fn submit_with(
        &self,
        problem: Problem,
        notify: impl FnOnce(Solved) + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.dispatch(
            TaskKind::Solve {
                problem: Box::new(problem),
                reply: Reply::Callback(Box::new(notify)),
            },
            true,
        )
        .map_err(|(e, _)| e)
    }

    /// Runs a no-op job (sleeping `delay_ms` on the worker) through the
    /// full queue + pool path. The ticket resolves when the worker is
    /// done, so `wait` measures true end-to-end service latency.
    pub fn probe(&self, delay_ms: u64) -> Result<Ticket<Duration>, SubmitError> {
        let (reply, rx) = mpsc::channel();
        self.dispatch(
            TaskKind::Probe {
                delay: Duration::from_millis(delay_ms),
                reply: Reply::Channel(reply),
            },
            false,
        )
        .map_err(|(e, _)| e)?;
        Ok(Ticket(rx))
    }

    /// [`SubmitPool::probe`], completion-callback form (see
    /// [`SubmitPool::try_submit_with`] for the callback contract).
    pub fn probe_with(
        &self,
        delay_ms: u64,
        notify: impl FnOnce(Duration) + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.dispatch(
            TaskKind::Probe {
                delay: Duration::from_millis(delay_ms),
                reply: Reply::Callback(Box::new(notify)),
            },
            false,
        )
        .map_err(|(e, _)| e)
    }

    /// Closes admission, drains every accepted job, and joins the
    /// workers. Idempotent; concurrent submitters get
    /// [`SubmitError::ShutDown`].
    pub fn shutdown(&self) {
        // Dropping the sender disconnects the channel once the queue is
        // empty; workers finish what was admitted, then exit.
        drop(self.tx.lock().unwrap().take());
        let workers: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in workers {
            let _ = handle.join();
        }
        self.cache.flush();
    }
}

impl Drop for SubmitPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsched_workload::{benchmark, generate_block, live_in_placement, InputSet};

    fn problem(index: u64) -> Problem {
        let spec = benchmark("130.li").expect("known benchmark");
        let block = generate_block(&spec, 13, index, InputSet::Ref);
        let machine = MachineConfig::paper_2c_8w();
        let homes = live_in_placement(&block, machine.cluster_count(), index);
        Problem {
            block,
            machine,
            homes,
            options: PolicyOptions {
                max_dp_steps: crate::STEPS_1S,
                ..PolicyOptions::default()
            },
            deadline: None,
        }
    }

    #[test]
    fn solves_and_caches_repeated_problems() {
        let pool = SubmitPool::new(2, 8, Arc::new(ScheduleCache::in_memory_sharded(64, 4)));
        let first = pool
            .try_submit(problem(0))
            .expect("accepted")
            .wait()
            .expect("solved");
        assert!(!first.cached);
        let again = pool
            .try_submit(problem(0))
            .expect("accepted")
            .wait()
            .expect("solved");
        assert!(again.cached, "identical problem must be served from cache");
        assert_eq!(again.outcome, first.outcome);
        assert_eq!(pool.cache().stats().hits, 1);
        let (accepted, rejected, completed) = pool.counters();
        assert_eq!((accepted, rejected), (2, 0));
        assert_eq!(completed, 2);
    }

    #[test]
    fn saturated_queue_rejects_with_retry_hint() {
        let pool = SubmitPool::new(1, 1, Arc::new(ScheduleCache::in_memory(8)));
        // Occupy the single worker, then fill the single queue slot.
        let busy = pool.probe(400).expect("worker probe accepted");
        std::thread::sleep(Duration::from_millis(50));
        let queued = pool.probe(0).expect("queue slot accepted");
        let rejected = (0..8)
            .filter(|_| matches!(pool.probe(0), Err(SubmitError::Saturated { .. })))
            .count();
        assert!(rejected > 0, "a full queue must reject");
        if let Err(SubmitError::Saturated { retry_after_ms, .. }) = pool.probe(0) {
            assert!(retry_after_ms >= 25);
        }
        busy.wait().expect("busy probe completes");
        queued.wait().expect("queued probe completes");
        assert!(pool.counters().1 > 0);
    }

    /// A refused submission hands back the problem's own allocation, so
    /// a caller that retries never needs a copy.
    #[test]
    fn a_refused_problem_comes_back_as_the_same_allocation() {
        let pool = SubmitPool::new(1, 1, Arc::new(ScheduleCache::in_memory(8)));
        let busy = pool.probe(500).expect("worker probe accepted");
        let queued = loop {
            match pool.probe(0) {
                Ok(ticket) => break ticket,
                Err(SubmitError::Saturated { .. }) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("probe failed: {e}"),
            }
        };
        let mut problem = Box::new(problem(0));
        let at = (&*problem as *const Problem, problem.block.insts().as_ptr());
        for _ in 0..8 {
            problem = match pool.try_submit_with(problem, |_| {}) {
                Err(Rejected {
                    error: SubmitError::Saturated { .. },
                    problem,
                }) => problem,
                other => panic!("expected a saturation refusal, got {other:?}"),
            };
            assert_eq!(
                (&*problem as *const Problem, problem.block.insts().as_ptr()),
                at
            );
            problem = match pool.try_submit(problem) {
                Err(Rejected { problem, .. }) => problem,
                Ok(_) => panic!("a saturated pool admitted a solve"),
            };
            assert_eq!(
                (&*problem as *const Problem, problem.block.insts().as_ptr()),
                at
            );
        }
        busy.wait().expect("busy probe completes");
        queued.wait().expect("queued probe completes");
    }

    #[test]
    fn blocking_submit_does_not_stall_try_submit() {
        let pool = Arc::new(SubmitPool::new(1, 1, Arc::new(ScheduleCache::in_memory(8))));
        // Worker busy + queue full, then a blocking submit parks waiting
        // for space.
        let busy = pool.probe(800).expect("worker occupied");
        std::thread::sleep(Duration::from_millis(50));
        let queued = pool.probe(0).expect("queue filled");
        let blocker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.submit(problem(3)).expect("eventually admitted"))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Fail-fast backpressure must stay fail-fast: the parked
        // blocking submit may not hold a lock that serializes this.
        let t0 = std::time::Instant::now();
        assert!(matches!(pool.probe(0), Err(SubmitError::Saturated { .. })));
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "try-path dispatch stalled {}ms behind a blocking submit",
            t0.elapsed().as_millis()
        );
        busy.wait().expect("busy");
        queued.wait().expect("queued");
        blocker
            .join()
            .expect("blocker thread")
            .wait()
            .expect("blocked submit completes");
    }

    #[test]
    fn callback_completions_fire_on_the_worker() {
        let pool = SubmitPool::new(2, 8, Arc::new(ScheduleCache::in_memory_sharded(64, 4)));
        let (tx, rx) = mpsc::channel();
        let probe_tx = tx.clone();
        pool.probe_with(0, move |delay| {
            probe_tx
                .send(format!("probe:{}", delay.as_millis()))
                .unwrap();
        })
        .expect("probe accepted");
        pool.try_submit_with(problem(0), move |solved| {
            tx.send(format!("solve:{}", solved.outcome.winner)).unwrap();
        })
        .expect("solve accepted");
        let mut got: Vec<String> = (0..2).map(|_| rx.recv().expect("completion")).collect();
        got.sort();
        assert_eq!(got[0], "probe:0");
        assert!(got[1].starts_with("solve:"), "{got:?}");
        // Callback completions hit the same counters as ticket waits.
        let (accepted, rejected, _) = pool.counters();
        assert_eq!((accepted, rejected), (2, 0));
        pool.shutdown();
        assert_eq!(pool.counters().2, 2, "both callback jobs completed");
        // After shutdown the callback paths refuse like the ticket ones.
        assert!(matches!(
            pool.try_submit_with(problem(1), |_| {}),
            Err(Rejected {
                error: SubmitError::ShutDown,
                ..
            })
        ));
        assert!(matches!(
            pool.probe_with(0, |_| {}),
            Err(SubmitError::ShutDown)
        ));
    }

    #[test]
    fn completion_hook_fires_after_every_task() {
        let pool = SubmitPool::new(1, 4, Arc::new(ScheduleCache::in_memory(8)));
        let fired = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&fired);
        pool.set_completion_hook(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        // One ticket probe, one callback probe, one ticket solve: the
        // hook must fire for each delivery form.
        pool.probe(0).expect("accepted").wait().expect("probe");
        let (tx, rx) = mpsc::channel();
        pool.probe_with(0, move |_| tx.send(()).unwrap())
            .expect("accepted");
        rx.recv().expect("callback completion");
        pool.try_submit(problem(0))
            .expect("accepted")
            .wait()
            .expect("solved");
        pool.shutdown();
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let pool = SubmitPool::new(1, 4, Arc::new(ScheduleCache::in_memory(8)));
        let slow = pool.probe(200).expect("accepted");
        let queued = pool.probe(0).expect("accepted");
        pool.shutdown();
        // Both jobs were admitted before shutdown: both must complete.
        assert!(slow.wait().is_ok());
        assert!(queued.wait().is_ok());
        assert!(matches!(pool.probe(0), Err(SubmitError::ShutDown)));
        assert!(matches!(
            pool.try_submit(problem(1)),
            Err(Rejected {
                error: SubmitError::ShutDown,
                ..
            })
        ));
    }
}
