//! Adaptive-portfolio regression tests over the golden corpus.
//!
//! Two contracts pin the feature:
//!
//! * **Determinism** — an adaptive run is a pure function of (corpus,
//!   configuration, selector snapshot, seed). Two identical runs at
//!   `jobs=1` and `jobs=8` must produce byte-identical normalized
//!   summaries *and* leave behind identical selector tables.
//! * **AWCT parity** — narrowing only removes provably losing work. On
//!   classes the selector has already observed, an adaptive run must
//!   reproduce the full race's aggregate AWCT exactly (same winners,
//!   same per-block AWCTs) while spending strictly fewer deduction
//!   steps.

use std::path::PathBuf;

use serde::Value;
use vcsched::arch::{ClusterId, MachineConfig};
use vcsched::engine::adaptive::DecisionKind;
use vcsched::engine::{
    run_batch, run_batch_on, schedule_block, selector_path, AdaptiveOptions, BatchConfig,
    BatchResult, BlockClass, CorpusSource, PolicyBudget, PolicyOptions, PolicyOutcome,
    PolicyRegistry, PolicySet, ScheduleCache, SchedulePolicy, SelectorTable, STEPS_1S,
};
use vcsched::ir::Superblock;

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_corpus.jsonl")
}

fn config(jobs: usize, adaptive: Option<AdaptiveOptions>) -> BatchConfig {
    BatchConfig {
        source: CorpusSource::Jsonl(corpus_path()),
        machine: MachineConfig::paper_2c_8w(),
        jobs,
        policies: PolicySet::full(),
        max_dp_steps: STEPS_1S,
        adaptive,
        ..BatchConfig::default()
    }
}

/// Exploitation-only options: no exploration, narrow after a single
/// observation — the configuration under which adaptive must reproduce
/// the full race exactly on replayed classes.
fn greedy() -> AdaptiveOptions {
    AdaptiveOptions {
        epsilon: 0.0,
        min_observations: 1,
        ..AdaptiveOptions::default()
    }
}

fn run(config: &BatchConfig, selector: &mut SelectorTable) -> BatchResult {
    let blocks = config.source.load().expect("fixture corpus loads");
    let cache = ScheduleCache::in_memory_sharded(config.cache_capacity, config.cache_shards);
    run_batch_on(config, &blocks, &cache, Some(selector))
}

/// The summary as compact JSON with the run-variable fields pinned.
fn normalized(summary: &vcsched::engine::BatchSummary) -> String {
    let mut v = serde_json::to_value(summary);
    if let Value::Object(entries) = &mut v {
        for (k, val) in entries.iter_mut() {
            if k == "jobs" || k == "wall_ms" {
                *val = Value::UInt(0);
            }
        }
    }
    serde_json::to_string(&v).expect("summary serializes")
}

fn total_steps(summary: &vcsched::engine::BatchSummary) -> u64 {
    summary.policies.iter().map(|p| p.steps).sum()
}

#[test]
fn adaptive_runs_are_deterministic_across_worker_counts() {
    // Cold start: every class is unseen, so both runs full-race every
    // block — and must still agree byte-for-byte, table included.
    let mut table_serial = SelectorTable::new();
    let mut table_parallel = SelectorTable::new();
    let cold_serial = run(
        &config(1, Some(AdaptiveOptions::default())),
        &mut table_serial,
    );
    let cold_parallel = run(
        &config(8, Some(AdaptiveOptions::default())),
        &mut table_parallel,
    );
    assert_eq!(
        normalized(&cold_serial.summary),
        normalized(&cold_parallel.summary)
    );
    assert_eq!(table_serial, table_parallel, "learned tables must match");
    assert!(table_serial.blocks_observed() == 24);

    // Warm start: the trained table narrows; decisions (including the
    // seeded exploration schedule) must not depend on the worker count.
    let mut warm_serial = table_serial.clone();
    let mut warm_parallel = table_serial.clone();
    let second_serial = run(
        &config(1, Some(AdaptiveOptions::default())),
        &mut warm_serial,
    );
    let second_parallel = run(
        &config(8, Some(AdaptiveOptions::default())),
        &mut warm_parallel,
    );
    assert_eq!(
        normalized(&second_serial.summary),
        normalized(&second_parallel.summary)
    );
    assert_eq!(warm_serial, warm_parallel);
    let adaptive = second_serial
        .summary
        .adaptive
        .as_ref()
        .expect("adaptive runs report selector stats");
    assert!(
        adaptive.narrowed > 0,
        "a trained table must narrow some blocks: {adaptive:?}"
    );
    assert_eq!(
        adaptive.narrowed + adaptive.full_unseen + adaptive.full_explore,
        24
    );
}

#[test]
fn adaptive_matches_full_race_awct_with_fewer_steps() {
    // The full race, as `vcsched batch --portfolio` runs it.
    let full_config = config(4, None);
    let blocks = full_config.source.load().expect("fixture corpus loads");
    let cache = ScheduleCache::in_memory(1 << 16);
    let full = run_batch_on(&full_config, &blocks, &cache, None);

    // Train the selector on one pass, then replay greedily: every class
    // is now observed, so every block may be narrowed.
    let mut table = SelectorTable::new();
    let _training = run(&config(4, Some(greedy())), &mut table);
    let adaptive = run(&config(4, Some(greedy())), &mut table);

    // Exact parity, block by block: same winners, bit-identical AWCTs.
    assert_eq!(full.lines.len(), adaptive.lines.len());
    for (f, a) in full.lines.iter().zip(&adaptive.lines) {
        assert_eq!(f.name, a.name);
        assert_eq!(
            f.winner, a.winner,
            "{}: adaptive changed the winner",
            f.name
        );
        assert_eq!(
            f.awct.to_bits(),
            a.awct.to_bits(),
            "{}: adaptive changed the AWCT ({} vs {})",
            f.name,
            f.awct,
            a.awct
        );
    }
    assert_eq!(
        full.summary.aggregate_awct.to_bits(),
        adaptive.summary.aggregate_awct.to_bits(),
        "aggregate AWCT must match the full race exactly"
    );
    assert_eq!(full.summary.wins, adaptive.summary.wins);

    // ...and the match must be *cheaper*: narrowed races drop the
    // exhaustive policy from classes it never wins, so total deduction
    // steps strictly decrease.
    let stats = adaptive.summary.adaptive.as_ref().expect("selector stats");
    assert!(stats.narrowed > 0, "nothing narrowed: {stats:?}");
    assert_eq!(stats.full_explore, 0, "ε=0 must never explore");
    assert!(
        total_steps(&adaptive.summary) < total_steps(&full.summary),
        "adaptive must spend fewer deduction steps ({} vs {})",
        total_steps(&adaptive.summary),
        total_steps(&full.summary)
    );
}

#[test]
fn selector_table_persists_next_to_the_schedule_cache() {
    let dir = std::env::temp_dir().join(format!(
        "vcsched-adaptive-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = BatchConfig {
        cache_dir: Some(dir.clone()),
        ..config(2, Some(greedy()))
    };

    // First run: cold table, learned and persisted.
    let first = run_batch(&persistent).expect("first adaptive run");
    assert_eq!(
        first.summary.adaptive.as_ref().map(|a| a.classes_known),
        Some(0)
    );
    let table = SelectorTable::load(&selector_path(&dir));
    assert_eq!(table.blocks_observed(), 24, "first run persisted the table");

    // Second run: resumes from the persisted table and narrows (the
    // schedule cache cannot answer narrowed races — their policy sets
    // are new keys — so this exercises fresh solves under narrowing).
    let second = run_batch(&persistent).expect("second adaptive run");
    let stats = second.summary.adaptive.expect("selector stats");
    assert!(stats.classes_known > 0, "table was reloaded");
    assert!(stats.narrowed > 0, "persisted table must narrow");
    let grown = SelectorTable::load(&selector_path(&dir));
    assert_eq!(grown.blocks_observed(), 48, "second run folded in too");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A custom policy: CARS under another name, registered beside the
/// built-ins.
struct EchoCars;

impl SchedulePolicy for EchoCars {
    fn name(&self) -> &'static str {
        "echo-cars"
    }

    fn schedule(
        &self,
        block: &Superblock,
        machine: &MachineConfig,
        homes: &[ClusterId],
        budget: &PolicyBudget,
    ) -> PolicyOutcome {
        vcsched::cars::CarsPolicy.schedule(block, machine, homes, budget)
    }
}

/// Narrowing a set built against a custom registry keeps that registry:
/// once a custom member has a recorded win, the selector narrows to it
/// and the narrowed set still races through the registry that knows it.
#[test]
fn narrowing_keeps_a_custom_registry() {
    let mut registry = PolicyRegistry::with_builtins();
    registry
        .register("echo-cars", "test double of CARS", || Box::new(EchoCars))
        .expect("fresh name registers");
    let registry: &'static PolicyRegistry = Box::leak(Box::new(registry));
    let configured = PolicySet::parse_with("vc,echo-cars", registry).expect("custom set");
    let echo_only = PolicySet::parse_with("echo-cars", registry).expect("custom set");

    let machine = MachineConfig::paper_2c_8w();
    let sb = config(1, None).source.load().expect("fixture corpus loads")[0].clone();
    let homes = vcsched::workload::live_in_placement(&sb, machine.cluster_count(), 0);
    let race = |policies: PolicySet| {
        schedule_block(
            &sb,
            &machine,
            &homes,
            &PolicyOptions {
                max_dp_steps: STEPS_1S,
                policies,
                ..PolicyOptions::default()
            },
        )
    };
    let won = race(echo_only.clone());
    assert_eq!(won.winner, "echo-cars");

    let class = BlockClass::of(&sb, &machine);
    let mut table = SelectorTable::new();
    table.observe(&class, &won);
    let (kind, narrowed) = table.select(&class, &configured, &greedy(), 0.5);
    assert_eq!(kind, DecisionKind::Narrowed);
    assert_eq!(narrowed, echo_only, "narrowed to the custom winner");
    assert_eq!(narrowed.versioned_key(), "echo-cars@1");
    assert_eq!(race(narrowed).winner, "echo-cars");
}
