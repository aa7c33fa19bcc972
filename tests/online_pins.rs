//! Output pins for the online executor.
//!
//! `tests/online_determinism.rs` checks that a replay is the same at
//! every worker count; it cannot see a change that moves every count
//! alike. These pins fix the bytes themselves: for each arrival profile,
//! two admission-queue capacities and two worker counts, one digest of
//! the full per-event `Vec<BlockResult>` and one of the summary's
//! virtual (non-wall-clock) fields.
//!
//! `tests/fixtures/online_pins.txt` holds one `label digest` line per
//! output. If a change is meant to move these outputs, regenerate with:
//!
//! ```console
//! $ cargo test --test online_pins regenerate -- --ignored
//! ```
//!
//! and justify the diff in the change description.

use std::path::PathBuf;

use vcsched::engine::{run_trace, OnlineOptions, OnlineSummary};
use vcsched::workload::{synthesize_trace, ArrivalProfile, TraceOptions};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/online_pins.txt")
}

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every field of the summary that virtual time decides.
fn summary_text(s: &OnlineSummary) -> String {
    format!(
        "events={};served={};shed={};misses={};fired={};miss_rate={:016x};shed_rate={:016x};\
         virt={},{},{};per_priority={:?}",
        s.events,
        s.served,
        s.shed,
        s.misses,
        s.deadline_fired,
        s.miss_rate.to_bits(),
        s.shed_rate.to_bits(),
        s.virt_p50_ms,
        s.virt_p99_ms,
        s.virt_p999_ms,
        s.per_priority
    )
}

/// Every labelled digest, in fixture order.
fn pins() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for profile in ArrivalProfile::all() {
        let trace = synthesize_trace(&TraceOptions {
            profile,
            events: 48,
            // 2.5x the default arrival rate: every profile sheds at
            // queue 2, so admission's shed and evict paths are pinned.
            horizon_ms: 24_000,
            ..TraceOptions::default()
        });
        for queue_capacity in [2, 8] {
            for jobs in [1, 4] {
                let options = OnlineOptions {
                    base_steps: 5_000,
                    steps_per_ms: 10,
                    queue_capacity,
                    jobs,
                    ..OnlineOptions::default()
                };
                let (summary, results) = run_trace(&trace, &options);
                let label = format!("{}/q{queue_capacity}/j{jobs}", profile.name());
                let results = serde_json::to_string(&results).expect("results serialize");
                out.push((format!("{label}/results"), fnv(results.as_bytes())));
                out.push((
                    format!("{label}/summary"),
                    fnv(summary_text(&summary).as_bytes()),
                ));
            }
        }
    }
    out
}

fn render(pins: &[(String, u64)]) -> String {
    pins.iter()
        .map(|(label, digest)| format!("{label} {digest:016x}\n"))
        .collect()
}

#[test]
fn online_replays_match_the_pins() {
    let expected = std::fs::read_to_string(fixture_path()).expect("pin fixture");
    let actual = render(&pins());
    let labels = |text: &str| -> Vec<String> {
        text.lines()
            .map(|line| {
                line.rsplit_once(' ')
                    .expect("`label digest` line")
                    .0
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(
        labels(&actual),
        labels(&expected),
        "the pinned label set changed"
    );
    let moved: Vec<&str> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a)
        .collect();
    assert!(
        moved.is_empty(),
        "{} pinned outputs moved: {moved:?}",
        moved.len()
    );
}

#[test]
#[ignore = "rewrites the pin fixture"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&pins())).expect("write pin fixture");
}
