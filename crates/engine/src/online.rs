//! Online scheduling path: streaming arrivals, deadline-aware budgets,
//! preemptible races.
//!
//! The offline engine answers "schedule this corpus as fast as
//! possible"; the online executor answers "survive this corpus
//! *arriving*". [`run_trace`] drives a synthesized arrival trace (see
//! [`vcsched_workload::trace`]) through a single virtual server:
//!
//! 1. **Price** — each event's deadline slack is converted into a
//!    deduction-step budget (`slack_ms × steps_per_ms`, clamped to
//!    `[step_floor, base_steps]`). Slack is trace-static, so pricing is
//!    a pure function of the event — no wall clock involved.
//! 2. **Admit** — the server replays the arrivals in virtual time, in
//!    arrival order. When the waiting queue is full, admission sheds by
//!    priority: the incoming event is dropped unless it strictly
//!    outranks the lowest-priority waiter, which is evicted instead.
//! 3. **Race on service** — an event's block races its portfolio under
//!    [`PolicyOptions::deadline_steps`] only when the server serves it;
//!    a shed or evicted event is never raced. A race whose priced
//!    budget fires returns its best-so-far *validated* schedule tagged
//!    [`PolicyFallback::Deadline`] (the implicit CARS fallback runs on
//!    a fresh budget, so a schedule always exists). Service cost is the
//!    race's consumed deduction steps at the same `steps_per_ms`
//!    exchange rate, and a served block whose virtual finish lands past
//!    its deadline is a **miss**.
//!
//! With `jobs > 1`, workers of an [`ordered`] pool race ahead of the
//! server in arrival order, but no further than `queue_capacity`
//! arrivals past the one being admitted, and skip every event the
//! server has already shed. A race is a pure function of its event and
//! the options, so every [`BlockResult`] is byte-identical at any
//! `--jobs`; only how many shed events were raced in vain varies.
//!
//! "Deadline fired" (the race was preempted and returned best-so-far)
//! and "missed" (the queue delivered late) are deliberately distinct:
//! the first is the engine degrading gracefully, the second is the
//! workload exceeding capacity.
//! Both, and the shed count, are reported in the returned
//! [`OnlineSummary`] only: a replay records nothing into the series of
//! a live server.
//!
//! [`DeadlineTimer`] is the *wall-clock* counterpart used by the live
//! service path: it arms a watchdog thread that fires
//! [`AwctBound::preempt`] into a sealed in-flight race. `run_trace`
//! never uses it — virtual time keeps replays deterministic.
//!
//! [`PolicyFallback::Deadline`]: vcsched_policy::PolicyFallback::Deadline

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use vcsched_arch::MachineConfig;
use vcsched_policy::AwctBound;
use vcsched_workload::live_in_placement;
use vcsched_workload::trace::TraceEvent;

use crate::pool::{ordered, Ordered};
use crate::registry::PolicySet;
use crate::{schedule_block, PolicyOptions, STEPS_1M};

/// Options of one online replay.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOptions {
    /// Machine the blocks schedule onto.
    pub machine: MachineConfig,
    /// Policy set every event races.
    pub policies: PolicySet,
    /// Ceiling step budget (an event with generous slack gets at most
    /// this; pricing at or above it leaves the race un-deadlined).
    pub base_steps: u64,
    /// Exchange rate between virtual milliseconds and deduction steps —
    /// both for pricing slack into budgets and for costing service time
    /// out of consumed steps.
    pub steps_per_ms: u64,
    /// Floor of the priced budget: even a nearly-expired event gets
    /// this many steps before its race is abandoned to best-so-far.
    pub step_floor: u64,
    /// Waiting-queue capacity of the virtual server; admissions beyond
    /// it shed by priority. It also bounds how many arrivals past the
    /// one being admitted the workers may race ahead.
    pub queue_capacity: usize,
    /// Worker threads that race events ahead of the virtual server
    /// (never changes results).
    pub jobs: usize,
    /// Salt for live-in home placement, XORed with the event position.
    pub placement_seed: u64,
    /// Optional trail-byte budget forwarded to every race.
    pub max_trail_bytes: Option<u64>,
    /// Forwarded to every race.
    pub early_cancel: bool,
}

impl Default for OnlineOptions {
    fn default() -> OnlineOptions {
        OnlineOptions {
            machine: MachineConfig::paper_2c_8w(),
            policies: PolicySet::full(),
            base_steps: STEPS_1M,
            // STEPS_1S = 5_000 steps model one second of compile time
            // (§6.1), so the virtual exchange rate is 5 steps/ms.
            steps_per_ms: 5,
            step_floor: 1_000,
            queue_capacity: 8,
            jobs: 1,
            placement_seed: 0xC60_2007,
            max_trail_bytes: None,
            early_cancel: false,
        }
    }
}

impl OnlineOptions {
    /// Prices an event's slack into a deduction-step budget:
    /// `clamp(slack_ms × steps_per_ms, step_floor, base_steps)`.
    fn price_steps(&self, slack_ms: u64) -> u64 {
        slack_ms
            .saturating_mul(self.steps_per_ms)
            .clamp(self.step_floor.min(self.base_steps), self.base_steps)
    }

    /// The [`PolicyOptions::deadline_steps`] for an event with this
    /// slack — `None` when the priced budget reaches the ceiling (the
    /// deadline cannot fire before the ordinary budget would).
    pub fn deadline_steps(&self, slack_ms: u64) -> Option<u64> {
        let priced = self.price_steps(slack_ms);
        if priced >= self.base_steps {
            None
        } else {
            Some(priced)
        }
    }
}

/// Outcome of one trace event through the online executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockResult {
    /// Position within the replayed trace (arrival order).
    pub index: u64,
    /// Event priority (0 sheds first).
    pub priority: u8,
    /// Virtual arrival time, milliseconds.
    pub arrival_ms: u64,
    /// Absolute virtual deadline, milliseconds.
    pub deadline_ms: u64,
    /// Priced deduction-step budget of this event's race.
    pub priced_steps: u64,
    /// Whether admission shed this event (never raced: the fields below
    /// stay empty).
    pub shed: bool,
    /// Winning policy (empty when shed).
    pub winner: String,
    /// Validated AWCT of the winning schedule (0 when shed).
    pub awct: f64,
    /// Deduction steps VC consumed (0 when shed or VC not in set).
    pub vc_steps: u64,
    /// Whether the priced deadline fired mid-race and this is the
    /// best-so-far validated schedule.
    pub deadline_fired: bool,
    /// Whether the virtual finish landed past the deadline.
    pub missed: bool,
    /// Virtual completion time, milliseconds (0 when shed).
    pub finish_ms: u64,
}

/// Per-priority latency and outcome breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorityLatency {
    /// The priority band (0..=[`vcsched_workload::trace::MAX_PRIORITY`]).
    pub priority: u8,
    /// Events served at this priority.
    pub served: usize,
    /// Events shed at this priority.
    pub shed: usize,
    /// Deadline misses at this priority.
    pub misses: usize,
    /// Median virtual latency (arrival → finish), milliseconds.
    pub p50_ms: u64,
    /// 99th-percentile virtual latency, milliseconds.
    pub p99_ms: u64,
    /// 99.9th-percentile virtual latency, milliseconds.
    pub p999_ms: u64,
}

/// Aggregate outcome of one replayed trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineSummary {
    /// Events in the trace.
    pub events: usize,
    /// Events served (solved and completed in virtual time).
    pub served: usize,
    /// Events shed at admission.
    pub shed: usize,
    /// Served events whose virtual finish missed the deadline.
    pub misses: usize,
    /// Served events whose race was preempted by its priced budget.
    pub deadline_fired: usize,
    /// `misses / served` (0 when nothing was served).
    pub miss_rate: f64,
    /// `shed / events` (0 on an empty trace).
    pub shed_rate: f64,
    /// Median virtual latency (arrival → finish) over served events.
    pub virt_p50_ms: u64,
    /// 99th-percentile virtual latency.
    pub virt_p99_ms: u64,
    /// 99.9th-percentile virtual latency.
    pub virt_p999_ms: u64,
    /// Median wall race latency over served events, microseconds
    /// (bench-only; wall readings are *not* deterministic, unlike
    /// everything above).
    pub wall_p50_us: u64,
    /// 99th-percentile wall race latency, microseconds.
    pub wall_p99_us: u64,
    /// 99.9th-percentile wall race latency, microseconds.
    pub wall_p999_us: u64,
    /// Wall time of the whole replay, milliseconds.
    pub wall_ms: u64,
    /// Throughput over the whole replay (events / wall second).
    pub blocks_per_sec: f64,
    /// Outcomes and latency quantiles per priority band.
    pub per_priority: Vec<PriorityLatency>,
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A waiting entry in the virtual server's admission queue.
struct Waiting {
    /// Index into the trace.
    event: usize,
    priority: u8,
}

/// What the virtual server reads of one event's race.
struct Race {
    winner: String,
    awct: f64,
    vc_steps: u64,
    deadline_fired: bool,
    /// Wall time of the race, microseconds.
    wall_us: u64,
}

#[cfg(test)]
thread_local! {
    /// Races run on this thread (at `jobs == 1`, every race of a replay).
    static RACES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Queued events evicted by a stronger arrival on this thread.
    static EVICTIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Races event `i`'s block under its priced deadline.
fn race(events: &[TraceEvent], options: &OnlineOptions, i: usize) -> Race {
    #[cfg(test)]
    RACES.with(|c| c.set(c.get() + 1));
    let e = &events[i];
    let machine = &options.machine;
    let sb = e.block();
    let homes = live_in_placement(
        &sb,
        machine.cluster_count(),
        options.placement_seed ^ i as u64,
    );
    let policy_options = PolicyOptions {
        max_dp_steps: options.base_steps,
        max_trail_bytes: options.max_trail_bytes,
        policies: options.policies.clone(),
        early_cancel: options.early_cancel,
        deadline_steps: options.deadline_steps(e.slack_ms()),
    };
    let start = Instant::now();
    let mut span = vcsched_obs::span!("engine_solve", insts = sb.len());
    let outcome = schedule_block(&sb, machine, &homes, &policy_options);
    span.field("cached", false);
    span.field("winner", outcome.winner.as_str());
    Race {
        deadline_fired: outcome.deadline_fired(),
        winner: outcome.winner,
        awct: outcome.awct,
        vc_steps: outcome.vc_steps,
        wall_us: start.elapsed().as_micros() as u64,
    }
}

/// Replays a trace through the online executor. Returns the aggregate
/// summary plus one [`BlockResult`] per event, in arrival order.
///
/// Everything except the wall-clock fields of the summary is a pure
/// function of `(events, options)` — `jobs` never changes a byte.
pub fn run_trace(
    events: &[TraceEvent],
    options: &OnlineOptions,
) -> (OnlineSummary, Vec<BlockResult>) {
    let t0 = Instant::now();
    let mut results: Vec<BlockResult> = events
        .iter()
        .enumerate()
        .map(|(i, e)| BlockResult {
            index: i as u64,
            priority: e.priority,
            arrival_ms: e.arrival_ms,
            deadline_ms: e.deadline_ms,
            priced_steps: options.price_steps(e.slack_ms()),
            shed: false,
            winner: String::new(),
            awct: 0.0,
            vc_steps: 0,
            deadline_fired: false,
            missed: false,
            finish_ms: 0,
        })
        .collect();
    // The server moves the workers' fence as it admits arrivals.
    let mut wall = ordered(
        events.len(),
        options.jobs,
        0,
        |i| race(events, options, i),
        |races| admit_and_serve(events, options, races, &mut results),
    );

    // Aggregate.
    let mut virt: Vec<u64> = Vec::new();
    let mut by_priority: Vec<(usize, usize, usize, Vec<u64>)> = (0
        ..=vcsched_workload::trace::MAX_PRIORITY)
        .map(|_| (0, 0, 0, Vec::new()))
        .collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut misses = 0usize;
    let mut fired = 0usize;
    for r in &results {
        let band = &mut by_priority[r.priority.min(vcsched_workload::trace::MAX_PRIORITY) as usize];
        if r.shed {
            shed += 1;
            band.1 += 1;
            continue;
        }
        served += 1;
        band.0 += 1;
        let latency = r.finish_ms.saturating_sub(r.arrival_ms);
        virt.push(latency);
        band.3.push(latency);
        if r.missed {
            misses += 1;
            band.2 += 1;
        }
        if r.deadline_fired {
            fired += 1;
        }
    }
    virt.sort_unstable();
    let per_priority = by_priority
        .into_iter()
        .enumerate()
        .map(|(p, (served, shed, misses, mut lat))| {
            lat.sort_unstable();
            PriorityLatency {
                priority: p as u8,
                served,
                shed,
                misses,
                p50_ms: quantile(&lat, 0.50),
                p99_ms: quantile(&lat, 0.99),
                p999_ms: quantile(&lat, 0.999),
            }
        })
        .collect();
    wall.sort_unstable();
    let wall_ms = t0.elapsed().as_millis() as u64;
    let summary = OnlineSummary {
        events: events.len(),
        served,
        shed,
        misses,
        deadline_fired: fired,
        miss_rate: misses as f64 / served.max(1) as f64,
        shed_rate: shed as f64 / events.len().max(1) as f64,
        virt_p50_ms: quantile(&virt, 0.50),
        virt_p99_ms: quantile(&virt, 0.99),
        virt_p999_ms: quantile(&virt, 0.999),
        wall_p50_us: quantile(&wall, 0.50),
        wall_p99_us: quantile(&wall, 0.99),
        wall_p999_us: quantile(&wall, 0.999),
        wall_ms,
        blocks_per_sec: events.len() as f64 / (wall_ms.max(1) as f64 / 1_000.0),
        per_priority,
    };
    (summary, results)
}

/// The virtual server: admits arrivals in order, serves its queue FIFO,
/// and takes a race from `races` only for an event it serves; every
/// shed or evicted event is cancelled there. Fills `results` and
/// returns the wall time of each served event's race.
fn admit_and_serve(
    events: &[TraceEvent],
    options: &OnlineOptions,
    races: &Ordered<'_, Race>,
    results: &mut [BlockResult],
) -> Vec<u64> {
    let mut wall = Vec::new();
    let mut serve = |i: usize, start: u64, results: &mut [BlockResult]| -> u64 {
        let race = races.get(i);
        let service_ms = (race.vc_steps / options.steps_per_ms.max(1)).max(1);
        let r = &mut results[i];
        let done = start.max(r.arrival_ms) + service_ms;
        r.winner = race.winner;
        r.awct = race.awct;
        r.vc_steps = race.vc_steps;
        r.deadline_fired = race.deadline_fired;
        r.finish_ms = done;
        r.missed = done > r.deadline_ms;
        wall.push(race.wall_us);
        done
    };
    // One server, FIFO service order; priority decides only who sheds
    // when the waiting queue saturates.
    let mut queue: Vec<Waiting> = Vec::new();
    let mut server_free_at: u64 = 0;
    for (i, e) in events.iter().enumerate() {
        // Workers may race this arrival and up to `queue_capacity`
        // beyond it while the server decides its fate.
        races.advance(i + 1 + options.queue_capacity);
        let now = e.arrival_ms;
        // Serve everyone whose turn comes before this arrival.
        while !queue.is_empty() && server_free_at <= now {
            let head = queue.remove(0);
            server_free_at = serve(head.event, server_free_at, results);
        }
        if queue.len() < options.queue_capacity {
            queue.push(Waiting {
                event: i,
                priority: e.priority,
            });
            continue;
        }
        // Saturated: shed by priority. The incoming event is dropped
        // unless it strictly outranks the weakest waiter; ties favour
        // the earlier arrival (evict the most recent weakest). A queue
        // of capacity 0 has no waiter, so every arrival is dropped.
        let weakest = queue
            .iter()
            .enumerate()
            .min_by_key(|(pos, w)| (w.priority, usize::MAX - pos))
            .map(|(pos, w)| (pos, w.priority));
        let dropped = match weakest {
            Some((pos, priority)) if e.priority > priority => {
                let evicted = queue.remove(pos);
                #[cfg(test)]
                EVICTIONS.with(|c| c.set(c.get() + 1));
                queue.push(Waiting {
                    event: i,
                    priority: e.priority,
                });
                evicted.event
            }
            _ => i,
        };
        results[dropped].shed = true;
        races.cancel(dropped);
    }
    while !queue.is_empty() {
        let head = queue.remove(0);
        server_free_at = serve(head.event, server_free_at, results);
    }
    wall
}

/// A wall-clock deadline watchdog for live (service-path) races.
///
/// Arms a thread that fires [`AwctBound::preempt`] into the sealed
/// bound once the duration elapses; every racing search observes the
/// sticky flag on its next deduction step and abandons to best-so-far
/// with [`vcsched_policy::PolicyFallback::Deadline`]. Dropping the
/// timer first cancels the watchdog — a race that finishes in time is
/// never preempted.
#[derive(Debug)]
pub struct DeadlineTimer {
    cancel: Arc<AtomicBool>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineTimer {
    /// Arms a watchdog that preempts `bound` after `after`.
    pub fn arm(bound: &AwctBound, after: Duration) -> DeadlineTimer {
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let bound = bound.clone();
        let watchdog = std::thread::spawn(move || {
            let fire_at = Instant::now() + after;
            loop {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let now = Instant::now();
                if now >= fire_at {
                    bound.preempt();
                    return;
                }
                std::thread::sleep((fire_at - now).min(Duration::from_millis(2)));
            }
        });
        DeadlineTimer {
            cancel,
            watchdog: Some(watchdog),
        }
    }

    /// Whether the watchdog already fired (the bound is preempted).
    pub fn fired(&self) -> bool {
        self.watchdog
            .as_ref()
            .is_some_and(|w| w.is_finished() && !self.cancel.load(Ordering::Relaxed))
    }
}

impl Drop for DeadlineTimer {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        if let Some(w) = self.watchdog.take() {
            // The watchdog sleeps at most 2ms per wakeup, so this join
            // cannot stall the caller noticeably.
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use vcsched_workload::trace::{synthesize_trace, ArrivalProfile, TraceOptions};

    fn small_trace(mean_slack_ms: u64) -> Vec<TraceEvent> {
        synthesize_trace(&TraceOptions {
            profile: ArrivalProfile::PoissonBurst,
            events: 16,
            seed: 7,
            horizon_ms: 4_000,
            mean_slack_ms,
        })
    }

    fn fast_options(jobs: usize) -> OnlineOptions {
        OnlineOptions {
            base_steps: 20_000,
            jobs,
            ..OnlineOptions::default()
        }
    }

    #[test]
    fn pricing_clamps_between_floor_and_base() {
        let o = OnlineOptions::default();
        assert_eq!(o.price_steps(0), o.step_floor);
        assert_eq!(o.price_steps(1), o.step_floor);
        assert_eq!(o.price_steps(1_000), 5_000);
        assert_eq!(o.price_steps(u64::MAX), o.base_steps);
        assert_eq!(o.deadline_steps(u64::MAX), None, "ceiling ⇒ no deadline");
        assert_eq!(o.deadline_steps(400), Some(2_000));
    }

    #[test]
    fn replay_is_deterministic_across_jobs() {
        let events = small_trace(400);
        let (_, a) = run_trace(&events, &fast_options(1));
        let (_, b) = run_trace(&events, &fast_options(4));
        let a_json = serde_json::to_string(&a).expect("results serialize");
        let b_json = serde_json::to_string(&b).expect("results serialize");
        assert_eq!(a_json, b_json, "jobs must never change a byte");
    }

    #[test]
    fn every_served_event_has_a_validated_schedule() {
        // Near-zero slack prices every race down to the floor: deadlines
        // fire, yet best-so-far (the CARS fallback's fresh budget) must
        // always deliver a validated schedule.
        let events = small_trace(1);
        let (summary, results) = run_trace(&events, &fast_options(2));
        assert!(summary.deadline_fired > 0, "floor budgets must fire");
        for r in &results {
            if r.shed {
                assert!(r.winner.is_empty() && r.finish_ms == 0);
            } else {
                assert!(!r.winner.is_empty(), "served ⇒ a winner");
                assert!(r.awct > 0.0, "served ⇒ validated AWCT");
                assert!(r.finish_ms >= r.arrival_ms);
            }
        }
        assert_eq!(summary.served + summary.shed, summary.events);
    }

    #[test]
    fn saturation_sheds_by_priority() {
        // Eight simultaneous arrivals into a queue of two. The FIFO
        // head enters service immediately (in-service work cannot be
        // shed); of the rest, only the strongest priorities keep a
        // queue slot — everyone weaker sheds.
        let base = small_trace(400);
        let events: Vec<TraceEvent> = (0..8)
            .map(|i| TraceEvent {
                arrival_ms: 0,
                priority: (i % 4) as u8,
                deadline_ms: 10_000,
                ..base[0].clone()
            })
            .collect();
        let options = OnlineOptions {
            queue_capacity: 2,
            ..fast_options(1)
        };
        let (summary, results) = run_trace(&events, &options);
        assert_eq!((summary.served, summary.shed), (3, 5));
        let mut survivors: Vec<(u64, u8)> = results
            .iter()
            .filter(|r| !r.shed)
            .map(|r| (r.index, r.priority))
            .collect();
        survivors.sort_unstable();
        assert_eq!(
            survivors,
            vec![(0, 0), (3, 3), (7, 3)],
            "the in-service head plus the two priority-3 waiters survive"
        );
    }

    /// Replays `events` at `jobs == 1`; returns the summary with the
    /// races run and the queued events evicted.
    fn counted_replay(events: &[TraceEvent], options: &OnlineOptions) -> (OnlineSummary, u64, u64) {
        assert_eq!(
            options.jobs, 1,
            "races run on the calling thread only serially"
        );
        let read = || (RACES.with(Cell::get), EVICTIONS.with(Cell::get));
        let before = read();
        let (summary, _) = run_trace(events, options);
        let after = read();
        (summary, after.0 - before.0, after.1 - before.1)
    }

    #[test]
    fn only_served_events_are_raced() {
        for mean_slack_ms in [1, 400] {
            let (summary, races, _) = counted_replay(&small_trace(mean_slack_ms), &fast_options(1));
            assert_eq!(races, summary.served as u64);
        }
        // A saturating adversarial spike into a queue of two: arrivals
        // shed and queued events are evicted, and neither is raced.
        let events = synthesize_trace(&TraceOptions {
            profile: ArrivalProfile::AdversarialSpike,
            events: 48,
            seed: 7,
            horizon_ms: 6_000,
            mean_slack_ms: 400,
        });
        let options = OnlineOptions {
            queue_capacity: 2,
            ..fast_options(1)
        };
        let (summary, races, evictions) = counted_replay(&events, &options);
        assert!(evictions > 0, "the spike must evict a queued event");
        assert!(summary.shed > evictions as usize, "and shed arrivals");
        assert_eq!(races, summary.served as u64, "a shed event was raced");
        // No waiting room at all: every arrival sheds, nothing races.
        let options = OnlineOptions {
            queue_capacity: 0,
            ..fast_options(1)
        };
        let (summary, races, _) = counted_replay(&events, &options);
        assert_eq!((summary.shed, races), (events.len(), 0));
    }

    #[test]
    fn deadline_timer_preempts_and_cancels() {
        let bound = AwctBound::new();
        {
            let _t = DeadlineTimer::arm(&bound, Duration::from_secs(60));
        }
        assert!(!bound.preempted(), "dropped timer must not fire");
        let bound = AwctBound::new();
        let t = DeadlineTimer::arm(&bound, Duration::from_millis(1));
        while !bound.preempted() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t.fired());
    }
}
