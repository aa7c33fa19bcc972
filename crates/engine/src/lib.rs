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
//! Every figure lives in the instance that produces it: a
//! [`SubmitPool`] counts its admissions and times its queue waits and
//! solves, a [`ScheduleCache`] counts hits, misses, insertions and
//! evictions per shard, and an [`OnlineSummary`] carries a replay's
//! misses and shed. Nothing here records into the process-global
//! `vcsched_obs` registry; `vcsched serve` renders its metrics from
//! these instances.
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

pub mod adaptive;
pub mod cache;
pub mod corpus;
pub mod online;
pub mod pool;
pub mod portfolio;
pub mod registry;
pub mod submit;

use std::path::PathBuf;

use serde::Serialize;
use vcsched_arch::MachineConfig;
use vcsched_workload::live_in_placement;

pub use adaptive::{AdaptiveOptions, AdaptiveSummary, BlockClass, SelectorTable, SELECTOR_FILE};
pub use cache::{CacheEntry, CacheStats, ScheduleCache, ShardStats};
pub use corpus::CorpusSource;
pub use online::{
    run_trace, BlockResult, DeadlineTimer, OnlineOptions, OnlineSummary, PriorityLatency,
};
pub use pool::{default_jobs, scatter};
pub use portfolio::{
    schedule_block, schedule_block_bound, schedule_block_with, BlockOutcome, PolicyOptions,
    PolicyStat,
};
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
    /// Adaptive portfolio selection: `Some` narrows each block's race to
    /// the top policies its class has been won by (see [`adaptive`]),
    /// falling back to the full configured set for unseen classes.
    /// `None` (the default) races the configured set on every block.
    pub adaptive: Option<AdaptiveOptions>,
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
            adaptive: None,
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
    /// Total deduction steps it consumed (cached blocks contribute the
    /// steps recorded when they were first scheduled).
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
    /// Wall-clock of the whole batch, in milliseconds. Zero this field
    /// before comparing summaries across runs.
    pub wall_ms: u64,
    /// Per-policy win counts, step totals and fallback counts, in
    /// policy-set order (the authoritative table; [`Wins`] keeps the
    /// fixed legacy shape).
    pub policies: Vec<PolicySummary>,
    /// Selector accounting when the batch ran adaptively (`None` for a
    /// plain full race).
    pub adaptive: Option<AdaptiveSummary>,
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

/// Hashes one scheduling problem into its cache key plus the independent
/// verification hash checked on lookup.
///
/// The composite covers the *entire* policy configuration — the
/// **version-qualified** policy-set spelling (each member as
/// `name@algorithm_version`), the step budget and the early-cancel
/// switch — so identical blocks scheduled under different portfolios
/// never alias: a `vc`-only entry can never answer a full-portfolio
/// request (whose winner could differ), telemetry-changing knobs
/// (`early_cancel`) separate entries, and bumping one policy's
/// [`SchedulePolicy::algorithm_version`] invalidates exactly that
/// policy's entries — sets not containing it keep hitting.
fn problem_key(
    registry: &PolicyRegistry,
    sb: &vcsched_ir::Superblock,
    machine: &MachineConfig,
    homes: &[vcsched_arch::ClusterId],
    options: &PolicyOptions,
) -> (u64, u64) {
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
        options
            .policies
            .write_versioned_key_with(registry, &mut composite);
        let _ = write!(composite, "|early_cancel={}", options.early_cancel);
        // Appended only when armed, so every offline key is byte-identical
        // to what it was before deadlines existed.
        if let Some(deadline) = options.deadline_steps {
            let _ = write!(composite, "|deadline_steps={deadline}");
        }
        cache::fnv1a_pair(composite.as_bytes())
    })
}

/// Schedules one block through the cache: serve a remembered schedule if
/// the canonical problem is known, otherwise run the policy and remember
/// the outcome. Returns the outcome and whether it came from the cache.
///
/// This is the per-problem step of [`run_batch_with_cache`]; the
/// service's [`SubmitPool`] workers share its body. [`run_trace`] races
/// without a cache: it salts each event's live-in homes with the event's
/// index, so a trace does not repeat a problem (a per-trace cache hit 0
/// of 7,200 `online-deadline` events).
pub fn solve_one(
    sb: &vcsched_ir::Superblock,
    machine: &MachineConfig,
    homes: &[vcsched_arch::ClusterId],
    options: &PolicyOptions,
    cache: &ScheduleCache,
) -> (BlockOutcome, bool) {
    solve_one_with(
        PolicyRegistry::builtin(),
        sb,
        machine,
        homes,
        options,
        cache,
    )
}

/// [`solve_one`] against an explicit registry: policy construction *and*
/// the cache key's version qualifiers both resolve through `registry`,
/// so custom policies participate in content addressing exactly like the
/// built-ins.
pub fn solve_one_with(
    registry: &PolicyRegistry,
    sb: &vcsched_ir::Superblock,
    machine: &MachineConfig,
    homes: &[vcsched_arch::ClusterId],
    options: &PolicyOptions,
    cache: &ScheduleCache,
) -> (BlockOutcome, bool) {
    solve_through_cache(registry, sb, machine, homes, options, cache, None)
}

/// The one solve body behind [`solve_one`], [`solve_one_with`] and the
/// [`SubmitPool`] workers: key the canonical problem, answer a hit from
/// the cache, otherwise race the portfolio and remember the outcome.
///
/// With a wall-clock `deadline`, the race runs against a sealed
/// [`AwctBound`] watched by a [`DeadlineTimer`]; if the timer fires
/// first, every racing search abandons to best-so-far and the outcome
/// is tagged [`vcsched_policy::PolicyFallback::Deadline`]. Such a result
/// is **never written back**: wall time is not part of the problem key,
/// and a preempted race must not masquerade as the full race's answer
/// for the next caller.
pub(crate) fn solve_through_cache(
    registry: &PolicyRegistry,
    sb: &vcsched_ir::Superblock,
    machine: &MachineConfig,
    homes: &[vcsched_arch::ClusterId],
    options: &PolicyOptions,
    cache: &ScheduleCache,
    deadline: Option<std::time::Duration>,
) -> (BlockOutcome, bool) {
    let mut span = vcsched_obs::span!("engine_solve", insts = sb.len());
    let (key, check) = problem_key(registry, sb, machine, homes, options);
    if let Some(entry) = cache.get(key, check) {
        span.field("cached", true);
        return (
            BlockOutcome {
                winner: entry.winner,
                awct: entry.awct,
                vc_steps: entry.vc_steps,
                vc_timed_out: entry.vc_timed_out,
                schedule: entry.schedule,
                policy_stats: entry.stats,
            },
            true,
        );
    }
    let bound = AwctBound::new();
    let outcome = {
        let _timer = deadline.map(|wall| DeadlineTimer::arm(&bound, wall));
        portfolio::schedule_block_bound(registry, sb, machine, homes, options, &bound)
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

/// Builds the cache a [`BatchConfig`] asks for (persistent or in-memory,
/// sharded as configured).
pub fn open_cache(config: &BatchConfig) -> Result<ScheduleCache, String> {
    match &config.cache_dir {
        Some(dir) => {
            ScheduleCache::persistent_sharded(dir, config.cache_capacity, config.cache_shards)
        }
        None => Ok(ScheduleCache::in_memory_sharded(
            config.cache_capacity,
            config.cache_shards,
        )),
    }
}

/// The path the selector table persists at for a [`BatchConfig`] with a
/// cache directory (next to the schedule cache's journal).
pub fn selector_path(cache_dir: &std::path::Path) -> PathBuf {
    cache_dir.join(SELECTOR_FILE)
}

/// Runs a whole batch: load corpus, fan out over the pool, schedule each
/// block under the policy (through the cache), aggregate.
///
/// With [`BatchConfig::adaptive`] set, the selector table is loaded from
/// (and saved back to) [`selector_path`] when the cache is persistent,
/// so successive runs keep learning. Without a cache directory the table
/// starts cold and is discarded at the end — and since the plan is fixed
/// *before* any observation folds in, such a run can never narrow: it is
/// a full race plus bookkeeping. Callers that want within-process
/// learning across batches hold their own table and call
/// [`run_batch_with_selector`].
pub fn run_batch(config: &BatchConfig) -> Result<BatchResult, String> {
    let t0 = std::time::Instant::now();
    let blocks = config.source.load()?;
    let cache = open_cache(config)?;
    let result = if config.adaptive.is_some() {
        let table_path = config.cache_dir.as_deref().map(selector_path);
        let mut selector = table_path
            .as_deref()
            .map(SelectorTable::load)
            .unwrap_or_default();
        let result = run_batch_with_selector(config, &blocks, &cache, &mut selector, t0)?;
        if let Some(path) = &table_path {
            selector.save(path)?;
        }
        result
    } else {
        run_batch_with_cache(config, &blocks, &cache, t0)?
    };
    cache.flush();
    Ok(result)
}

/// [`run_batch`] against a caller-managed cache (lets one cache serve many
/// batches in a long-lived process). `t0` anchors the summary's wall
/// clock. Ignores [`BatchConfig::adaptive`] — use
/// [`run_batch_with_selector`] to race adaptively.
pub fn run_batch_with_cache(
    config: &BatchConfig,
    blocks: &[vcsched_ir::Superblock],
    cache: &ScheduleCache,
    t0: std::time::Instant,
) -> Result<BatchResult, String> {
    let options = PolicyOptions {
        max_dp_steps: config.max_dp_steps,
        max_trail_bytes: config.max_trail_bytes,
        policies: config.policies.clone(),
        early_cancel: config.early_cancel,
        deadline_steps: None,
    };
    let machine = &config.machine;
    let per_block: Vec<(BlockOutcome, bool)> = scatter(blocks.len(), config.jobs, |i| {
        let sb = &blocks[i];
        let homes = live_in_placement(
            sb,
            machine.cluster_count(),
            config.placement_seed ^ i as u64,
        );
        solve_one(sb, machine, &homes, &options, cache)
    });
    Ok(aggregate_batch(config, blocks, per_block, t0))
}

/// Adaptive variant of [`run_batch_with_cache`]: plans each block's
/// policy set against the `selector` snapshot taken at batch start,
/// races the plan, then folds every outcome back into `selector` in
/// corpus order — so the run (and the table it leaves behind) is
/// deterministic at any `--jobs` value.
pub fn run_batch_with_selector(
    config: &BatchConfig,
    blocks: &[vcsched_ir::Superblock],
    cache: &ScheduleCache,
    selector: &mut SelectorTable,
    t0: std::time::Instant,
) -> Result<BatchResult, String> {
    let adaptive = config
        .adaptive
        .clone()
        .ok_or("run_batch_with_selector needs BatchConfig::adaptive")?;
    let machine = &config.machine;
    let classes_known = selector.classes.len();
    let decisions = selector.plan(blocks, machine, &config.policies, &adaptive);
    let per_block: Vec<(BlockOutcome, bool)> = scatter(blocks.len(), config.jobs, |i| {
        let sb = &blocks[i];
        let homes = live_in_placement(
            sb,
            machine.cluster_count(),
            config.placement_seed ^ i as u64,
        );
        let options = PolicyOptions {
            max_dp_steps: config.max_dp_steps,
            max_trail_bytes: config.max_trail_bytes,
            policies: decisions[i].policies.clone(),
            early_cancel: config.early_cancel,
            deadline_steps: None,
        };
        solve_one(sb, machine, &homes, &options, cache)
    });
    for (decision, (outcome, _)) in decisions.iter().zip(&per_block) {
        selector.observe(&decision.class, outcome);
    }
    let mut result = aggregate_batch(config, blocks, per_block, t0);
    result.summary.adaptive = Some(adaptive::summarize(
        &decisions,
        &config.policies,
        adaptive.seed,
        classes_known,
    ));
    Ok(result)
}

/// Aggregates per-block outcomes (in corpus order) into a
/// [`BatchResult`]. Cache accounting comes from the per-block
/// cached flags, so a shared long-lived cache serving other traffic
/// concurrently (the service case) cannot skew this batch's hit rate.
pub fn aggregate_batch(
    config: &BatchConfig,
    blocks: &[vcsched_ir::Superblock],
    per_block: Vec<(BlockOutcome, bool)>,
    t0: std::time::Instant,
) -> BatchResult {
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
    for (sb, (outcome, cached)) in blocks.iter().zip(per_block) {
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
        weighted_cycles += outcome.awct * sb.weight() as f64;
        total_weight += sb.weight();
        lines.push(BlockLine {
            name: sb.name().to_owned(),
            winner: outcome.winner.clone(),
            awct: outcome.awct,
            weight: sb.weight(),
            cached,
        });
        outcomes.push(outcome);
    }

    let stats = CacheStats {
        hits,
        misses: blocks.len() as u64 - hits,
    };
    let summary = BatchSummary {
        corpus: config.source.describe(),
        machine: config.machine.name().to_owned(),
        jobs: config.jobs.max(1),
        portfolio: config.policies == PolicySet::full(),
        steps: config.max_dp_steps,
        blocks: blocks.len(),
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
        wall_ms: t0.elapsed().as_millis() as u64,
        policies,
        adaptive: None,
    };
    BatchResult {
        summary,
        lines,
        outcomes,
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
        let t0 = std::time::Instant::now();
        let first = run_batch_with_cache(&config, &blocks, &cache, t0).unwrap();
        assert_eq!(first.summary.cache.hits, 0);
        assert_eq!(first.summary.cache.misses, 6);
        let second = run_batch_with_cache(&config, &blocks, &cache, t0).unwrap();
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
        let registry = PolicyRegistry::builtin();
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
                options.policies.versioned_key_with(registry),
                options.early_cancel
            );
            if let Some(deadline) = options.deadline_steps {
                composite.push_str(&format!("|deadline_steps={deadline}"));
            }
            assert_eq!(
                problem_key(registry, &sb, &machine, &homes, &options),
                (
                    cache::fnv1a(composite.as_bytes()),
                    cache::fnv1a_check(composite.as_bytes())
                ),
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
            let registry = PolicyRegistry::builtin();
            let deadline = Some(std::time::Duration::ZERO);
            solve_through_cache(registry, &sb, &machine, &homes, &options, &cache, deadline)
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
