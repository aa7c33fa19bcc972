//! `vcsched-engine` — a parallel batch-scheduling engine.
//!
//! The paper's evaluation schedules thousands of superblocks per benchmark
//! under compile-time thresholds with CARS fallback (§6.1). This crate
//! turns that methodology into a throughput system:
//!
//! * a [`pool`] of worker threads (`std::thread` + channels) fans a corpus
//!   of superblocks out over all cores, returning results in corpus order
//!   so every run is deterministic regardless of `--jobs`;
//! * [`portfolio`] races an arbitrary [`PolicySet`] of registered
//!   [`SchedulePolicy`] implementations per block — the default `vc,cars`
//!   pair is the paper's §6.1 policy (the virtual-cluster scheduler under
//!   a deduction-step budget with CARS fallback), `vc,cars,uas,two-phase`
//!   the full portfolio. Single-pass members run in set order on the
//!   solving thread, every candidate is validated by `vcsched-sim`, ties
//!   break by the set's canonical order, and a shared best-AWCT bound
//!   lets a provably beaten exhaustive search abandon its work early;
//! * a [`registry`] owns the canonical name → constructor table
//!   ([`PolicyRegistry`]), so CLI flags, wire requests and cache keys all
//!   resolve policies the same way and a new policy is a one-file
//!   addition;
//! * a content-addressed [`cache`] memoizes schedules by a stable FNV
//!   hash of the canonical problem (superblock JSON + machine + policy
//!   set + budget + live-in placement), with a hash-sharded in-memory LRU
//!   (one lock per shard, per-shard counters) and an optional on-disk
//!   JSONL journal, so repeated corpus runs are near-instant;
//! * a [`submit`] pool keeps workers resident behind a bounded admission
//!   queue with backpressure — the engine side of `vcsched serve`;
//! * [`corpus`] streams superblocks from JSONL files or synthesizes them
//!   via `vcsched-workload`.
//!
//! # Entry points
//!
//! * [`schedule_block`] — the one public uncached race of one block;
//! * [`solve_one`] — the one cached solve: key the problem, answer a hit,
//!   otherwise race and remember (the [`SubmitPool`] workers share its
//!   body);
//! * [`BatchPlan`] — the one batch pipeline: each block's homes and the
//!   batch's one [`PolicyOptions`], then the fold of the outcomes into a
//!   [`BatchResult`]. [`run_batch`] drives it from a [`BatchConfig`]
//!   (corpus and cache), [`run_batch_on`] over caller-held blocks and
//!   cache, and `vcsched serve`'s `batch` verb through its fair queue;
//! * [`run_trace`] — the online executor, in virtual time.
//!
//! A [`PolicySet`] carries the [`PolicyRegistry`] it was validated
//! against, so none of these takes a registry beside the set.
//!
//! Every figure lives in the instance that produces it: a
//! [`SubmitPool`] counts its admissions, times its queue waits and
//! solves, and folds the VC attempts of its fresh solves into its `vc_*`
//! series; a [`ScheduleCache`] counts hits, misses, insertions and
//! evictions per shard; and an [`OnlineSummary`] carries a replay's
//! misses and shed. `vcsched serve` renders its metrics from these
//! instances.
//!
//! The crate also owns the deduction-step analogues of the paper's
//! compile-time buckets ([`STEPS_1S`], [`STEPS_1M`], [`STEPS_4M`]);
//! `vcsched-bench` re-exports them and drives its figure corpora through
//! [`pool::scatter`].
//!
//! # Example
//!
//! ```
//! use vcsched_engine::{run_batch, BatchConfig, CorpusSource};
//!
//! let summary = run_batch(&BatchConfig {
//!     source: CorpusSource::Synth { bench: "130.li".into(), count: 4, seed: 7 },
//!     jobs: 2,
//!     ..BatchConfig::default()
//! }).unwrap().summary;
//! assert_eq!(summary.blocks, 4);
//! assert_eq!(summary.wins.total(), 4);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod corpus;
pub mod online;
pub mod pool;
pub mod portfolio;
pub mod registry;
pub mod submit;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Serialize;
use vcsched_arch::{ClusterId, MachineConfig};
use vcsched_ir::Superblock;
use vcsched_workload::live_in_placement;

pub use cache::{CacheEntry, CacheStats, ScheduleCache, ShardStats};
pub use corpus::CorpusSource;
pub use online::{
    price_deadline_steps, run_trace, BlockResult, DeadlineTimer, OnlineOptions, OnlineSummary,
    PriorityLatency, DEADLINE_FLOOR_STEPS,
};
pub use pool::{default_jobs, scatter};
pub use portfolio::{schedule_block, BlockOutcome, PolicyOptions, PolicyStat};
pub use registry::{PolicyRegistry, PolicySet};
pub use submit::{PolicyTotals, Problem, Rejected, Solved, SubmitError, SubmitPool, Ticket};
pub use vcsched_policy::{AwctBound, PolicyBudget, PolicyFallback, PolicyOutcome, SchedulePolicy};

/// Deduction-step analogue of the paper's "1 second" bucket (§6.1).
pub const STEPS_1S: u64 = 5_000;
/// Deduction-step analogue of the paper's "1 minute" threshold.
pub const STEPS_1M: u64 = 300_000;
/// Deduction-step analogue of the paper's "4 minute" threshold.
pub const STEPS_4M: u64 = 1_200_000;

/// Configuration of one batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Where the superblocks come from.
    pub source: CorpusSource,
    /// Target machine.
    pub machine: MachineConfig,
    /// Worker threads (0 or 1 = serial).
    pub jobs: usize,
    /// The policies raced per block (default: the §6.1 pair `vc,cars`;
    /// [`PolicySet::full`] is the four-scheduler portfolio).
    pub policies: PolicySet,
    /// Cooperative early-cancel for exhaustive policies (see
    /// [`PolicyOptions::early_cancel`]).
    pub early_cancel: bool,
    /// VC deduction-step budget per block.
    pub max_dp_steps: u64,
    /// Optional VC trail-work budget per block, in bytes of state touched
    /// by deduction mutations (`--budget-bytes`).
    pub max_trail_bytes: Option<u64>,
    /// Seed for the per-block live-in placements (§6.1 randomizes these
    /// but hands every scheduler the same assignment).
    pub placement_seed: u64,
    /// Persist the schedule cache in this directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// In-memory cache capacity (schedules).
    pub cache_capacity: usize,
    /// Shards the cache's key space is partitioned over (one lock
    /// each). Capacity is split evenly across shards, so as long as the
    /// working set fits in [`BatchConfig::cache_capacity`] the shard
    /// count only changes lock granularity, never results.
    pub cache_shards: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            source: CorpusSource::Synth {
                bench: "099.go".to_owned(),
                count: 100,
                seed: 0xC60_2007,
            },
            machine: MachineConfig::paper_2c_8w(),
            jobs: default_jobs(),
            policies: PolicySet::single(),
            early_cancel: false,
            max_dp_steps: STEPS_1M,
            max_trail_bytes: None,
            placement_seed: 0xC60_2007,
            cache_dir: None,
            cache_capacity: 1 << 16,
            cache_shards: 8,
        }
    }
}

/// Win counts per portfolio member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Wins {
    /// Blocks won by the virtual-cluster scheduler.
    pub vc: usize,
    /// Blocks won by CARS (including fallback wins).
    pub cars: usize,
    /// Blocks won by UAS (portfolio mode only).
    pub uas: usize,
    /// Blocks won by two-phase (portfolio mode only).
    pub two_phase: usize,
}

impl Wins {
    /// Counts one win by built-in policy name. Custom policies are
    /// tallied in the per-policy table ([`BatchSummary::policies`]) only;
    /// this struct keeps the fixed §6.1 shape of the JSON summary.
    fn add(&mut self, winner: &str) {
        match winner {
            "vc" => self.vc += 1,
            "cars" => self.cars += 1,
            "uas" => self.uas += 1,
            "two-phase" => self.two_phase += 1,
            _ => {}
        }
    }

    /// Total built-in wins (equals the number of blocks scheduled when
    /// only built-in policies race).
    pub fn total(&self) -> usize {
        self.vc + self.cars + self.uas + self.two_phase
    }
}

/// Per-policy aggregates over one batch — the authoritative win/step
/// table ([`Wins`] keeps the four fixed legacy fields). Rows appear in
/// policy-set order, followed by any policy that only entered as the
/// implicit §6.1 fallback.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PolicySummary {
    /// Policy name (registry identity).
    pub policy: String,
    /// Blocks this policy won.
    pub wins: usize,
    /// Total deduction steps it reported (cached blocks contribute the
    /// steps recorded when they were first scheduled). A `vc` give-up
    /// (burnt budget or bump limit) counts the legacy `max_dp_steps + 1`,
    /// not the steps it spent, as [`PolicyStat::steps`] does.
    pub steps: u64,
    /// Blocks where it abandoned (budget, beaten, or gave up).
    pub fallbacks: usize,
}

/// Cache accounting in the JSON summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CacheSummary {
    /// Blocks answered from the cache.
    pub hits: u64,
    /// Blocks that were scheduled.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// Result of one block within a batch (kept small; the schedule itself
/// lives in [`BatchResult::outcomes`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BlockLine {
    /// Block name (`bench#index`).
    pub name: String,
    /// Winning policy name.
    pub winner: String,
    /// Validated AWCT.
    pub awct: f64,
    /// Profile execution count.
    pub weight: u64,
    /// Whether this block was served from the cache.
    pub cached: bool,
}

/// The JSON summary a batch run reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchSummary {
    /// Corpus description.
    pub corpus: String,
    /// Machine name.
    pub machine: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Legacy §6.1 flag: whether the full four-scheduler portfolio
    /// raced (`policies == PolicySet::full()`).
    pub portfolio: bool,
    /// VC deduction-step budget.
    pub steps: u64,
    /// Number of blocks scheduled.
    pub blocks: usize,
    /// Per-scheduler win counts.
    pub wins: Wins,
    /// Blocks where VC exhausted its budget (CARS fallback).
    pub vc_timeouts: usize,
    /// Weighted mean AWCT: `Σ AWCT·T / Σ T`.
    pub aggregate_awct: f64,
    /// Total weighted cycles `Σ AWCT·T` (the paper's TC).
    pub total_weighted_cycles: f64,
    /// Cache accounting.
    pub cache: CacheSummary,
    /// Wall-clock of the batch from its [`BatchPlan`] to this summary
    /// (the race and the fold), in milliseconds. Zero this field before
    /// comparing summaries across runs.
    pub wall_ms: u64,
    /// Per-policy win counts, step totals and fallback counts, in
    /// policy-set order (the authoritative table; [`Wins`] keeps the
    /// fixed legacy shape).
    pub policies: Vec<PolicySummary>,
}

/// Full result of a batch run: the summary plus every block's outcome (in
/// corpus order).
#[derive(Debug)]
pub struct BatchResult {
    /// Aggregated summary (what `vcsched batch` prints as JSON).
    pub summary: BatchSummary,
    /// Per-block lines, in corpus order.
    pub lines: Vec<BlockLine>,
    /// Per-block outcomes (winner, AWCT, schedule), in corpus order.
    pub outcomes: Vec<BlockOutcome>,
}

/// One scheduling problem's cache key plus the independent verification
/// hash checked on lookup. A missed [`SubmitPool::answer_cached`] hands
/// it back, and the caller submits it with the problem, so the solve that
/// follows the miss does not print the block again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemKey {
    key: u64,
    check: u64,
}

/// Hashes one scheduling problem into its [`ProblemKey`].
///
/// The composite covers the *entire* policy configuration — the
/// **version-qualified** policy-set spelling (each member as
/// `name@algorithm_version`, resolved through the set's registry), the
/// step budget and the early-cancel switch — so identical blocks
/// scheduled under different portfolios never alias: a `vc`-only entry
/// can never answer a full-portfolio request (whose winner could
/// differ), telemetry-changing knobs (`early_cancel`) separate entries,
/// and bumping one policy's [`SchedulePolicy::algorithm_version`]
/// invalidates exactly that policy's entries — sets not containing it
/// keep hitting.
fn problem_key(
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    options: &PolicyOptions,
) -> ProblemKey {
    use std::fmt::Write as _;
    thread_local! {
        /// The composite's buffer, reused so a warm key allocates nothing.
        static COMPOSITE: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
    }
    COMPOSITE.with(|composite| {
        let mut composite = composite.borrow_mut();
        composite.clear();
        // The block's compact JSON, then the machine's Debug form (which
        // covers every field), the homes and the options:
        // `{block}|{machine:?}|{homes:?}|steps=..|bytes=..|policies=..|early_cancel=..`.
        serde::Serialize::write_json(sb, &mut composite);
        let _ = write!(
            composite,
            "|{machine:?}|{homes:?}|steps={}|bytes={:?}|policies=",
            options.max_dp_steps, options.max_trail_bytes,
        );
        options.policies.write_versioned_key(&mut composite);
        let _ = write!(composite, "|early_cancel={}", options.early_cancel);
        // Appended only when armed, so every offline key is byte-identical
        // to what it was before deadlines existed.
        if let Some(deadline) = options.deadline_steps {
            let _ = write!(composite, "|deadline_steps={deadline}");
        }
        let (key, check) = cache::fnv1a_pair(composite.as_bytes());
        ProblemKey { key, check }
    })
}

/// Schedules one block through the cache: serve a remembered schedule if
/// the canonical problem is known, otherwise race the policy set and
/// remember the outcome. Returns the outcome and whether it came from
/// the cache.
///
/// This is the one cached solve: every batch block goes through it, and
/// the service's [`SubmitPool`] workers share its body. [`run_trace`]
/// races without a cache: it salts each event's live-in homes with the
/// event's index, so a trace does not repeat a problem (a per-trace
/// cache hit 0 of 7,200 `online-deadline` events).
pub fn solve_one(
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    options: &PolicyOptions,
    cache: &ScheduleCache,
) -> (BlockOutcome, bool) {
    solve_through_cache(sb, machine, homes, options, cache, None, None)
}

/// The one solve body behind [`solve_one`] and the [`SubmitPool`]
/// workers: key the canonical problem (unless the caller carries its
/// `key` already), answer a hit from the cache, otherwise race the
/// portfolio and remember the outcome.
///
/// With a wall-clock `deadline`, the race runs against a sealed
/// [`AwctBound`] watched by a [`DeadlineTimer`]; if the timer fires
/// first, every racing search abandons to best-so-far and the outcome
/// is tagged [`vcsched_policy::PolicyFallback::Deadline`]. Such a result
/// is **never written back**: wall time is not part of the problem key,
/// and a preempted race must not masquerade as the full race's answer
/// for the next caller.
pub(crate) fn solve_through_cache(
    sb: &Superblock,
    machine: &MachineConfig,
    homes: &[ClusterId],
    options: &PolicyOptions,
    cache: &ScheduleCache,
    key: Option<ProblemKey>,
    deadline: Option<Duration>,
) -> (BlockOutcome, bool) {
    let mut span = vcsched_obs::span!("engine_solve", insts = sb.len());
    let ProblemKey { key, check } = key.unwrap_or_else(|| problem_key(sb, machine, homes, options));
    if let Some(outcome) = cache.get(key, check) {
        span.field("cached", true);
        return (outcome, true);
    }
    let bound = AwctBound::new();
    let outcome = {
        let _timer = deadline.map(|wall| DeadlineTimer::arm(&bound, wall));
        portfolio::schedule_block_bound(sb, machine, homes, options, &bound)
    };
    span.field("cached", false);
    span.field("winner", outcome.winner.as_str());
    if bound.preempted() {
        span.field("preempted", true);
    } else {
        cache.put(
            key,
            CacheEntry {
                key: format!("{key:016x}"),
                check: format!("{check:016x}"),
                winner: outcome.winner.clone(),
                awct: outcome.awct,
                vc_steps: outcome.vc_steps,
                vc_timed_out: outcome.vc_timed_out,
                schedule: outcome.schedule.clone(),
                stats: outcome.policy_stats.clone(),
            },
        );
    }
    (outcome, false)
}

/// Runs a whole batch: load the corpus, open the cache the config asks
/// for, race every block through [`run_batch_on`], flush the cache.
pub fn run_batch(config: &BatchConfig) -> Result<BatchResult, String> {
    let blocks = config.source.load()?;
    let cache = ScheduleCache::open(
        config.cache_dir.as_deref(),
        config.cache_capacity,
        config.cache_shards,
    )?;
    let result = run_batch_on(config, &blocks, &cache);
    cache.flush();
    Ok(result)
}

/// Races `blocks` under `config` against a caller-managed cache (one
/// cache can serve many batches in a long-lived process), fanning the
/// blocks over [`BatchConfig::jobs`] workers.
pub fn run_batch_on(
    config: &BatchConfig,
    blocks: &[Superblock],
    cache: &ScheduleCache,
) -> BatchResult {
    let plan = BatchPlan::new(config, blocks);
    let options = plan.options();
    let per_block = scatter(blocks.len(), config.jobs, |i| {
        solve_one(
            &blocks[i],
            &config.machine,
            &plan.homes(i, &blocks[i]),
            options,
            cache,
        )
    });
    plan.finish(per_block)
}

/// One batch's plan: each block's live-in homes and the policy options
/// every block races under, fixed before any block races, and the fold
/// of the outcomes into a [`BatchResult`]. [`run_batch_on`] and the
/// service's `batch` verb both race through it, so the same problems
/// yield the same summary. It keeps only each block's name and weight,
/// so a caller that owns the blocks can move them into its problems.
pub struct BatchPlan<'a> {
    config: &'a BatchConfig,
    /// Each block's name and weight, in corpus order.
    blocks: Vec<(String, u64)>,
    options: PolicyOptions,
    /// When the plan was made: the summary's `wall_ms` runs from here.
    t0: Instant,
}

impl<'a> BatchPlan<'a> {
    /// Plans `blocks` under `config`.
    pub fn new(config: &'a BatchConfig, blocks: &[Superblock]) -> BatchPlan<'a> {
        BatchPlan {
            config,
            blocks: blocks
                .iter()
                .map(|sb| (sb.name().to_owned(), sb.weight()))
                .collect(),
            options: PolicyOptions {
                max_dp_steps: config.max_dp_steps,
                max_trail_bytes: config.max_trail_bytes,
                policies: config.policies.clone(),
                early_cancel: config.early_cancel,
                deadline_steps: None,
            },
            t0: Instant::now(),
        }
    }

    /// Block `i`'s live-in homes, given the block: the seeded §6.1
    /// placement every racer of the block shares.
    pub fn homes(&self, i: usize, block: &Superblock) -> Vec<ClusterId> {
        live_in_placement(
            block,
            self.config.machine.cluster_count(),
            self.config.placement_seed ^ i as u64,
        )
    }

    /// The policy options every block races under: the configured set
    /// and budgets.
    pub fn options(&self) -> &PolicyOptions {
        &self.options
    }

    /// Folds the per-block outcomes (in corpus order, with whether the
    /// cache answered each) into the batch's result. Cache accounting
    /// comes from the per-block flags, so a shared long-lived cache
    /// serving other traffic concurrently (the service case) cannot skew
    /// this batch's hit rate.
    pub fn finish(self, per_block: Vec<(BlockOutcome, bool)>) -> BatchResult {
        let config = self.config;
        let mut wins = Wins::default();
        let mut vc_timeouts = 0usize;
        let mut weighted_cycles = 0.0f64;
        let mut total_weight = 0u64;
        let mut hits = 0u64;
        let mut lines = Vec::with_capacity(per_block.len());
        let mut outcomes = Vec::with_capacity(per_block.len());
        // Per-policy aggregation: rows for the configured set up front (so
        // they appear even with zero blocks), extras (the implicit fallback)
        // appended in first-encounter order.
        let mut policies: Vec<PolicySummary> = config
            .policies
            .names()
            .iter()
            .map(|name| PolicySummary {
                policy: name.clone(),
                wins: 0,
                steps: 0,
                fallbacks: 0,
            })
            .collect();
        let tally = |policies: &mut Vec<PolicySummary>, name: &str| -> usize {
            match policies.iter().position(|p| p.policy == name) {
                Some(i) => i,
                None => {
                    policies.push(PolicySummary {
                        policy: name.to_owned(),
                        wins: 0,
                        steps: 0,
                        fallbacks: 0,
                    });
                    policies.len() - 1
                }
            }
        };
        let blocks = self.blocks.len();
        for ((name, weight), (outcome, cached)) in self.blocks.into_iter().zip(per_block) {
            wins.add(&outcome.winner);
            let i = tally(&mut policies, &outcome.winner);
            policies[i].wins += 1;
            for stat in &outcome.policy_stats {
                let i = tally(&mut policies, &stat.policy);
                policies[i].steps += stat.steps;
                if stat.gave_up() {
                    policies[i].fallbacks += 1;
                }
            }
            if outcome.vc_timed_out {
                vc_timeouts += 1;
            }
            if cached {
                hits += 1;
            }
            weighted_cycles += outcome.awct * weight as f64;
            total_weight += weight;
            lines.push(BlockLine {
                name,
                winner: outcome.winner.clone(),
                awct: outcome.awct,
                weight,
                cached,
            });
            outcomes.push(outcome);
        }

        let stats = CacheStats {
            hits,
            misses: blocks as u64 - hits,
        };
        let summary = BatchSummary {
            corpus: config.source.describe(),
            machine: config.machine.name().to_owned(),
            jobs: config.jobs.max(1),
            portfolio: config.policies == PolicySet::full(),
            steps: config.max_dp_steps,
            blocks,
            wins,
            vc_timeouts,
            aggregate_awct: if total_weight == 0 {
                0.0
            } else {
                weighted_cycles / total_weight as f64
            },
            total_weighted_cycles: weighted_cycles,
            cache: CacheSummary {
                hits: stats.hits,
                misses: stats.misses,
                hit_rate: stats.hit_rate(),
            },
            wall_ms: self.t0.elapsed().as_millis() as u64,
            policies,
        };
        BatchResult {
            summary,
            lines,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_aggregates_are_consistent() {
        let result = run_batch(&BatchConfig {
            source: CorpusSource::Synth {
                bench: "130.li".to_owned(),
                count: 8,
                seed: 3,
            },
            jobs: 4,
            max_dp_steps: STEPS_1S,
            ..BatchConfig::default()
        })
        .expect("batch runs");
        let s = &result.summary;
        assert_eq!(s.blocks, 8);
        assert_eq!(s.wins.total(), 8);
        assert_eq!(result.lines.len(), 8);
        assert_eq!(result.outcomes.len(), 8);
        assert_eq!(s.cache.hits + s.cache.misses, 8);
        assert!(s.aggregate_awct > 0.0);
        let recomputed: f64 = result.lines.iter().map(|l| l.awct * l.weight as f64).sum();
        assert!((recomputed - s.total_weighted_cycles).abs() < 1e-6);
    }

    #[test]
    fn identical_problems_share_one_cache_entry() {
        // Two batches over the same corpus against one shared cache: the
        // second batch must be answered entirely from memory.
        let config = BatchConfig {
            source: CorpusSource::Synth {
                bench: "099.go".to_owned(),
                count: 6,
                seed: 5,
            },
            jobs: 2,
            max_dp_steps: STEPS_1S,
            ..BatchConfig::default()
        };
        let blocks = config.source.load().unwrap();
        let cache = ScheduleCache::in_memory(64);
        let first = run_batch_on(&config, &blocks, &cache);
        assert_eq!(first.summary.cache.hits, 0);
        assert_eq!(first.summary.cache.misses, 6);
        let second = run_batch_on(&config, &blocks, &cache);
        assert_eq!(second.summary.cache.hits, 6);
        assert_eq!(
            second.summary.cache.misses, 0,
            "the summary reports this batch's delta, not cumulative counters"
        );
        assert_eq!(
            first.lines,
            second
                .lines
                .iter()
                .map(|l| BlockLine {
                    cached: false,
                    ..l.clone()
                })
                .collect::<Vec<_>>()
        );
    }

    /// The key streamed into one buffer hashes exactly the composite the
    /// engine has always keyed on, so persisted journals keep hitting.
    #[test]
    fn problem_key_hashes_the_documented_composite() {
        let spec = vcsched_workload::benchmark("g721dec").expect("known benchmark");
        let sb = vcsched_workload::generate_block(&spec, 3, 1, vcsched_workload::InputSet::Ref);
        // A name that needs escaping exercises the direct JSON writer.
        let sb: vcsched_ir::Superblock = serde_json::from_str(
            &serde_json::to_string(&sb)
                .unwrap()
                .replacen(sb.name(), r#"q\"uo\\te\ttab é"#, 1),
        )
        .unwrap();
        assert_eq!(sb.name(), "q\"uo\\te\ttab é");
        let machine = MachineConfig::paper_4c_16w_lat2();
        let homes = live_in_placement(&sb, machine.cluster_count(), 3);
        for (policies, deadline_steps, max_trail_bytes) in [
            (PolicySet::single(), None, None),
            (PolicySet::full(), Some(1234), Some(99)),
        ] {
            let options = PolicyOptions {
                max_dp_steps: STEPS_1S,
                max_trail_bytes,
                policies,
                early_cancel: deadline_steps.is_some(),
                deadline_steps,
            };
            let sb_json = serde_json::to_string(&sb).unwrap();
            let mut composite = format!(
                "{sb_json}|{machine:?}|{homes:?}|steps={}|bytes={:?}|policies={}|early_cancel={}",
                options.max_dp_steps,
                options.max_trail_bytes,
                options.policies.versioned_key(),
                options.early_cancel
            );
            if let Some(deadline) = options.deadline_steps {
                composite.push_str(&format!("|deadline_steps={deadline}"));
            }
            assert_eq!(
                problem_key(&sb, &machine, &homes, &options),
                ProblemKey {
                    key: cache::fnv1a(composite.as_bytes()),
                    check: cache::fnv1a_check(composite.as_bytes())
                },
                "deadline_steps {deadline_steps:?}"
            );
        }
    }

    #[test]
    fn deadline_fired_outcome_never_reaches_the_cache() {
        // The largest block the generator makes, raced under a budget far
        // beyond what a 0 ms wall deadline lets it spend.
        let spec = vcsched_workload::BenchmarkSpec {
            size_mu: 6.0,
            ..vcsched_workload::benchmark("mpeg2enc").expect("known benchmark")
        };
        let sb = vcsched_workload::generate_block(&spec, 7, 0, vcsched_workload::InputSet::Ref);
        let machine = MachineConfig::paper_4c_16w_lat2();
        let homes = live_in_placement(&sb, machine.cluster_count(), 7);
        let options = PolicyOptions {
            max_dp_steps: STEPS_4M,
            ..PolicyOptions::default()
        };
        let cache = ScheduleCache::in_memory(8);
        let solve = || {
            solve_through_cache(
                &sb,
                &machine,
                &homes,
                &options,
                &cache,
                None,
                Some(Duration::ZERO),
            )
        };
        let (outcome, cached) = solve();
        assert!(!cached);
        assert!(outcome.deadline_fired(), "{:?}", outcome.policy_stats);
        assert_eq!(cache.len(), 0, "a preempted race must not be remembered");
        let (_, cached) = solve();
        assert!(
            !cached,
            "the repeat must race again, not hit a preempted entry"
        );
    }
}
