//! Golden-corpus regression test.
//!
//! `tests/fixtures/golden_corpus.jsonl` is a checked-in superblock corpus
//! (three benchmarks, eight blocks each); `golden_expected.json` holds
//! the batch summary and per-block lines the engine produced when the
//! fixture was recorded. The test re-schedules the corpus — across cache
//! shard counts 1/4/8 and several worker counts — and fails on **any**
//! drift: a changed winner, a changed AWCT, a changed win count. Every
//! batch summary must be byte-identical after normalizing the fields
//! that legitimately vary (wall-clock, worker count, fixture path).
//!
//! If a scheduler change intentionally shifts results, regenerate with:
//!
//! ```console
//! $ cargo test --test golden_corpus regenerate -- --ignored
//! ```
//!
//! and justify the diff in the PR — that is the "explained" in
//! "unexplained AWCT drift".

use std::path::PathBuf;

use serde::Value;
use vcsched::engine::{run_batch_on, BatchConfig, CorpusSource, ScheduleCache, STEPS_1S};
use vcsched::ir::Superblock;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn corpus_path() -> PathBuf {
    fixture_dir().join("golden_corpus.jsonl")
}

fn expected_path() -> PathBuf {
    fixture_dir().join("golden_expected.json")
}

fn golden_config(jobs: usize, cache_shards: usize) -> BatchConfig {
    BatchConfig {
        source: CorpusSource::Jsonl(corpus_path()),
        machine: vcsched::arch::MachineConfig::paper_2c_8w(),
        jobs,
        policies: vcsched::engine::PolicySet::full(),
        max_dp_steps: STEPS_1S,
        cache_shards,
        ..BatchConfig::default()
    }
}

/// Sets one field of a JSON object value.
fn patch(value: &mut Value, field: &str, replacement: Value) {
    if let Value::Object(entries) = value {
        for (k, v) in entries.iter_mut() {
            if k == field {
                *v = replacement;
                return;
            }
        }
    }
}

/// Removes one field of a JSON object value entirely.
fn strip(value: &mut Value, field: &str) {
    if let Value::Object(entries) = value {
        entries.retain(|(k, _)| k != field);
    }
}

/// The summary with run-variable fields (wall clock, worker count,
/// fixture path) pinned, as a compact JSON string.
///
/// The per-policy telemetry table (`policies`, added after the fixture
/// was recorded) is stripped rather than re-recorded: keeping the
/// checked-in fixture byte-identical proves the refactors changed no
/// scheduling result. The telemetry's own consistency is covered by
/// `golden_corpus_policy_telemetry_is_consistent`.
fn normalized_summary(summary: &vcsched::engine::BatchSummary) -> String {
    let mut v = serde_json::to_value(summary);
    patch(
        &mut v,
        "corpus",
        Value::String("golden_corpus.jsonl".into()),
    );
    patch(&mut v, "jobs", Value::UInt(0));
    patch(&mut v, "wall_ms", Value::UInt(0));
    strip(&mut v, "policies");
    serde_json::to_string(&v).expect("summary serializes")
}

fn lines_json(lines: &[vcsched::engine::BlockLine]) -> String {
    serde_json::to_string(&lines.to_vec()).expect("lines serialize")
}

/// Worker counts to sweep: 1 and 4 always, plus `VCSCHED_JOBS` when CI
/// overrides it (the workflow runs the suite under 1 and 8).
fn jobs_sweep() -> Vec<usize> {
    let mut jobs = vec![1, 4];
    if let Some(j) = std::env::var("VCSCHED_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !jobs.contains(&j) && j > 0 {
            jobs.push(j);
        }
    }
    jobs
}

fn run_golden(jobs: usize, cache_shards: usize) -> vcsched::engine::BatchResult {
    let config = golden_config(jobs, cache_shards);
    let blocks = config.source.load().expect("fixture corpus loads");
    assert_eq!(blocks.len(), 24, "fixture must hold 24 blocks");
    let cache = ScheduleCache::in_memory_sharded(config.cache_capacity, cache_shards);
    run_batch_on(&config, &blocks, &cache)
}

/// Explains a drift block-by-block, then fails.
fn report_drift(kind: &str, expected: &Value, got: &vcsched::engine::BatchResult) -> String {
    let mut report = format!("golden corpus drift in {kind}:\n");
    let expected_lines = expected
        .get("lines")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    for (i, line) in got.lines.iter().enumerate() {
        let want = expected_lines.get(i);
        let want_awct = want
            .and_then(|w| w.get("awct"))
            .and_then(f64::try_from_value);
        let want_winner = want
            .and_then(|w| w.get("winner"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        let drifted =
            want_awct.is_none_or(|a| (a - line.awct).abs() > 1e-12) || want_winner != line.winner;
        if drifted {
            report.push_str(&format!(
                "  {}: expected winner {want_winner} AWCT {want_awct:?}, \
                 got winner {} AWCT {}\n",
                line.name, line.winner, line.awct
            ));
        }
    }
    report.push_str(
        "unexplained AWCT drift — if this change is intentional, regenerate the \
         fixture (see tests/golden_corpus.rs) and justify the diff",
    );
    report
}

/// Small helper because `f64::from_value` needs the trait in scope.
trait TryFromValue {
    fn try_from_value(v: &Value) -> Option<f64>;
}

impl TryFromValue for f64 {
    fn try_from_value(v: &Value) -> Option<f64> {
        use serde::Deserialize;
        f64::from_value(v).ok()
    }
}

#[test]
fn golden_corpus_has_no_unexplained_drift() {
    let expected_raw =
        std::fs::read_to_string(expected_path()).expect("golden_expected.json present");
    let expected: Value = serde_json::from_str(&expected_raw).expect("expected JSON parses");
    let expected_summary =
        serde_json::to_string(expected.get("summary").expect("expected has summary")).unwrap();
    let expected_lines =
        serde_json::to_string(expected.get("lines").expect("expected has lines")).unwrap();

    // Sweep shard counts and worker counts; every run must match the
    // recorded fixture byte-for-byte after normalization.
    for cache_shards in [1usize, 4, 8] {
        for jobs in jobs_sweep() {
            let got = run_golden(jobs, cache_shards);
            let summary = normalized_summary(&got.summary);
            if summary != expected_summary {
                panic!(
                    "{}\nexpected summary: {expected_summary}\ngot summary:      {summary}",
                    report_drift(
                        &format!("summary (shards={cache_shards}, jobs={jobs})"),
                        &expected,
                        &got
                    )
                );
            }
            let lines = lines_json(&got.lines);
            assert_eq!(
                lines,
                expected_lines,
                "{}",
                report_drift(
                    &format!("per-block lines (shards={cache_shards}, jobs={jobs})"),
                    &expected,
                    &got
                )
            );
            // A cold cache answers nothing; every block was scheduled.
            assert_eq!(got.summary.cache.hits, 0);
            assert_eq!(got.summary.cache.misses, 24);
        }
    }
}

#[test]
fn golden_corpus_warm_cache_is_all_hits_at_every_shard_count() {
    for cache_shards in [1usize, 4, 8] {
        let config = golden_config(2, cache_shards);
        let blocks = config.source.load().expect("fixture corpus loads");
        let cache = ScheduleCache::in_memory_sharded(config.cache_capacity, cache_shards);
        let cold = run_batch_on(&config, &blocks, &cache);
        let warm = run_batch_on(&config, &blocks, &cache);
        assert_eq!(warm.summary.cache.hits, 24, "shards={cache_shards}");
        assert_eq!(warm.summary.cache.misses, 0, "shards={cache_shards}");
        // Identical scheduling results, cached or not (everything but
        // the cache accounting itself).
        let sans_cache = |summary: &vcsched::engine::BatchSummary| {
            let mut v: Value =
                serde_json::from_str(&normalized_summary(summary)).expect("normalized parses");
            patch(&mut v, "cache", Value::Null);
            serde_json::to_string(&v).unwrap()
        };
        assert_eq!(sans_cache(&cold.summary), sans_cache(&warm.summary));
    }
}

/// The per-policy telemetry stripped from the byte-compare must still be
/// internally consistent with the legacy summary fields, and identical
/// across worker counts.
#[test]
fn golden_corpus_policy_telemetry_is_consistent() {
    let serial = run_golden(1, 1);
    let parallel = run_golden(4, 4);
    assert_eq!(serial.summary.policies, parallel.summary.policies);
    let s = &serial.summary;
    let names: Vec<&str> = s.policies.iter().map(|p| p.policy.as_str()).collect();
    assert_eq!(names, vec!["vc", "cars", "uas", "two-phase"]);
    let by_name = |n: &str| s.policies.iter().find(|p| p.policy == n).unwrap();
    assert_eq!(by_name("vc").wins, s.wins.vc);
    assert_eq!(by_name("cars").wins, s.wins.cars);
    assert_eq!(by_name("uas").wins, s.wins.uas);
    assert_eq!(by_name("two-phase").wins, s.wins.two_phase);
    assert_eq!(by_name("vc").fallbacks, s.vc_timeouts);
    let total_wins: usize = s.policies.iter().map(|p| p.wins).sum();
    assert_eq!(total_wins, s.blocks);
    // Legacy vc accounting survives in per-block outcomes.
    for outcome in &serial.outcomes {
        let vc = outcome
            .policy_stats
            .iter()
            .find(|st| st.policy == "vc")
            .expect("vc raced every block");
        assert_eq!(vc.steps, outcome.vc_steps);
    }
}

/// Observability must be results-neutral: racing the corpus with span
/// tracing enabled — unsampled and sampled — must reproduce the recorded
/// fixture byte-for-byte, while still recording spans. The metrics
/// registry is always on (dual-write), so every golden run in this file
/// already proves counters don't perturb schedules; this test closes the
/// tracing half of the contract.
#[test]
fn golden_corpus_is_byte_identical_with_tracing_enabled() {
    let expected_raw =
        std::fs::read_to_string(expected_path()).expect("golden_expected.json present");
    let expected: Value = serde_json::from_str(&expected_raw).expect("expected JSON parses");
    let expected_summary =
        serde_json::to_string(expected.get("summary").expect("expected has summary")).unwrap();
    let expected_lines =
        serde_json::to_string(expected.get("lines").expect("expected has lines")).unwrap();

    let tracer = vcsched::obs::tracer();
    for sample in [1u64, 3] {
        tracer.set_sampling(sample);
        tracer.set_enabled(true);
        let got = run_golden(2, 4);
        tracer.set_enabled(false);
        let events = tracer.drain();
        assert!(
            !events.is_empty(),
            "tracing enabled (sample={sample}) must record spans"
        );
        assert_eq!(
            normalized_summary(&got.summary),
            expected_summary,
            "{}",
            report_drift(
                &format!("summary (tracing on, sample={sample})"),
                &expected,
                &got
            )
        );
        assert_eq!(
            lines_json(&got.lines),
            expected_lines,
            "{}",
            report_drift(
                &format!("per-block lines (tracing on, sample={sample})"),
                &expected,
                &got
            )
        );
    }
    tracer.set_sampling(1);
}

/// Regenerates both fixture files. Run explicitly, review the diff, and
/// explain it in the PR:
///
/// ```console
/// $ cargo test --test golden_corpus regenerate -- --ignored
/// ```
#[test]
#[ignore = "regenerates the golden fixture; run on intentional scheduler changes only"]
fn regenerate() {
    use vcsched::workload::{benchmark, generate_block, InputSet};

    let mut blocks: Vec<Superblock> = Vec::new();
    for bench in ["099.go", "130.li", "mpeg2enc"] {
        let spec = benchmark(bench).expect("known benchmark");
        for i in 0..8u64 {
            blocks.push(generate_block(&spec, 0xC60_2007, i, InputSet::Ref));
        }
    }
    std::fs::create_dir_all(fixture_dir()).expect("fixture dir");
    vcsched::engine::corpus::write_jsonl(&corpus_path(), &blocks).expect("write corpus");

    let got = run_golden(1, 1);
    let summary: Value =
        serde_json::from_str(&normalized_summary(&got.summary)).expect("normalized parses");
    let lines: Value = serde_json::from_str(&lines_json(&got.lines)).expect("lines parse");
    let expected = Value::Object(vec![
        ("summary".to_owned(), summary),
        ("lines".to_owned(), lines),
    ]);
    std::fs::write(
        expected_path(),
        serde_json::to_string_pretty(&expected).expect("pretty") + "\n",
    )
    .expect("write expected");
    eprintln!(
        "regenerated {} and {}",
        corpus_path().display(),
        expected_path().display()
    );
}
