//! A schedule journal written by an earlier build stays warm.
//!
//! `tests/fixtures/warm_journal.jsonl` is the `schedules.jsonl` a cold
//! `vcsched batch --bench 099.go --count 20 --portfolio --steps 5000
//! --cache <dir>` wrote before the cache key was streamed into one
//! buffer. Rerunning that batch against a copy must answer every block
//! from it: the key bytes and the journal format are unchanged.

use std::process::Command;

#[test]
fn a_recorded_journal_answers_every_block() {
    let dir = std::env::temp_dir().join(format!("vcsched-warm-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/warm_journal.jsonl"
    );
    std::fs::copy(fixture, dir.join("schedules.jsonl")).expect("copy the journal");
    let out = Command::new(env!("CARGO_BIN_EXE_vcsched"))
        .args(["batch", "--bench", "099.go", "--count", "20", "--portfolio"])
        .args(["--steps", "5000", "--cache"])
        .arg(&dir)
        .output()
        .expect("vcsched runs");
    let journal_after = std::fs::read(dir.join("schedules.jsonl")).expect("journal");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("\"hit_rate\": 1.0"),
        "not all hits:\n{stdout}"
    );
    assert_eq!(
        journal_after,
        std::fs::read(fixture).expect("fixture"),
        "an all-hit batch appends nothing to the journal"
    );
}
