//! Output and work pins for the virtual-cluster scheduler alone.
//!
//! The golden corpus pins each block's race winner and AWCT, and
//! `tests/baseline_pins.rs` pins the single-pass baselines. Neither sees
//! a change to VC's own work: how many deduction steps a search takes,
//! what the speculation trail records, or where a budget cuts it. The
//! step count is part of VC's behaviour (the §6.1 thresholds, online
//! deadlines), so a change meant only to make deduction cheaper must
//! leave all of it bit-identical.
//!
//! For every golden-corpus block and every block of a seeded corpus of
//! large generated blocks, on every paper evaluation machine plus the
//! heterogeneous one, under four budgets (10k steps, 200k steps, a trail
//! byte cap, a deterministic step deadline), two lines are pinned:
//!
//! * `.../out`: the outcome kind, and for a schedule its cycles,
//!   clusters, copies, AWCT, minimum AWCT and bump count;
//! * `.../work`: deduction steps and the `SpecStats` trail and adoption
//!   fields. The minAWCT probes and per-stage steps and dead ends that
//!   `SpecStats` also carries are in neither line (the bump count is in
//!   `/out`); `vc_series_fold_each_fresh_attempt_once` in
//!   `crates/engine/src/submit.rs` and the service's obs tests check
//!   them.
//!
//! `tests/fixtures/vc_pins.txt` holds one `label digest` line per output.
//! If a change is meant to move these outputs, regenerate with:
//!
//! ```console
//! $ cargo test --release --test vc_pins regenerate -- --ignored
//! ```
//!
//! and justify the diff in the change description.

use std::path::PathBuf;

use vcsched::arch::{ClusterId, MachineConfig};
use vcsched::core::{VcAttempt, VcOptions, VcScheduler};
use vcsched::ir::Superblock;
use vcsched::workload::{generate_block, live_in_placement, BenchmarkSpec, InputSet, Suite};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/vc_pins.txt")
}

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_blocks() -> Vec<Superblock> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_corpus.jsonl");
    std::fs::read_to_string(path)
        .expect("golden corpus")
        .lines()
        .map(|line| serde_json::from_str(line).expect("corpus block"))
        .collect()
}

/// The benchmark harness's `large` spec: MediaBench-shaped blocks of
/// about 36 ops, up to the generator's 96-op cap.
fn large_blocks() -> Vec<Superblock> {
    let spec = BenchmarkSpec {
        name: "large",
        suite: Suite::MediaBench,
        size_mu: 3.6,
        size_sigma: 0.25,
        ilp_width: 3.4,
        mem_frac: 0.35,
        fp_frac: 0.05,
        max_side_exits: 3,
        max_live_ins: 6,
        seed_salt: 0x1A4E,
    };
    (0..12)
        .map(|i| generate_block(&spec, 0x5EED, i, InputSet::Ref))
        .collect()
}

fn machines() -> Vec<MachineConfig> {
    let mut all = MachineConfig::paper_eval_configs();
    all.push(MachineConfig::hetero_2c());
    all
}

/// The budgets every block runs under: plain step caps at the batch
/// engine's 10k and a generous 200k, a trail-work byte cap, and a
/// deterministic step deadline (the online executor's budget form).
fn variants() -> Vec<(&'static str, VcOptions)> {
    let steps = |max_dp_steps| VcOptions {
        max_dp_steps,
        ..VcOptions::default()
    };
    vec![
        ("10k", steps(10_000)),
        ("200k", steps(200_000)),
        (
            "bytes",
            VcOptions {
                max_trail_bytes: Some(96 << 10),
                ..steps(200_000)
            },
        ),
        (
            "deadline",
            VcOptions {
                deadline_steps: Some(4_000),
                ..steps(200_000)
            },
        ),
    ]
}

fn outcome_text(attempt: &VcAttempt) -> String {
    match &attempt.result {
        Ok(out) => format!(
            "ok;{};{:016x};{:016x};{}",
            serde_json::to_string(&out.schedule).expect("schedule serializes"),
            out.awct.to_bits(),
            out.stats.min_awct.to_bits(),
            out.stats.spec.awct_bumps
        ),
        Err(e) => format!("err;{e:?}"),
    }
}

fn work_text(attempt: &VcAttempt) -> String {
    let s = &attempt.spec;
    format!(
        "steps={};entries={};rollbacks={};peak={};not_cloned={};adoptions={};adopted_bytes={}",
        s.dp_steps,
        s.trail_entries,
        s.rollbacks,
        s.peak_trail_depth,
        s.bytes_not_cloned,
        s.redo_replays,
        s.redo_bytes_replayed
    )
}

/// Every pin of `corpus` on one machine.
fn machine_pins(corpus: &str, blocks: &[Superblock], m: &MachineConfig) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, options) in variants() {
        let vc = VcScheduler::with_options(m.clone(), options);
        for (i, sb) in blocks.iter().enumerate() {
            let homes: Vec<ClusterId> = live_in_placement(sb, m.cluster_count(), i as u64);
            let attempt = vc.try_schedule_with_live_ins(sb, &homes);
            let label = format!("{corpus}/{i:02}/{}/{name}", m.name());
            out.push((
                format!("{label}/out"),
                fnv(outcome_text(&attempt).as_bytes()),
            ));
            out.push((format!("{label}/work"), fnv(work_text(&attempt).as_bytes())));
        }
    }
    out
}

/// Every pin of `corpus`, machines in order; each machine's searches run
/// on a thread of their own (the 200k-step budgets dominate the run).
fn corpus_pins(corpus: &str, blocks: &[Superblock], out: &mut Vec<(String, u64)>) {
    let machines = machines();
    std::thread::scope(|s| {
        let runs: Vec<_> = machines
            .iter()
            .map(|m| s.spawn(move || machine_pins(corpus, blocks, m)))
            .collect();
        for run in runs {
            out.extend(run.join().expect("pin thread"));
        }
    });
}

/// Every labelled digest, in fixture order.
fn pins() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    corpus_pins("golden", &golden_blocks(), &mut out);
    corpus_pins("large", &large_blocks(), &mut out);
    out
}

fn render(pins: &[(String, u64)]) -> String {
    pins.iter()
        .map(|(label, digest)| format!("{label} {digest:016x}\n"))
        .collect()
}

#[test]
fn vc_outputs_and_work_match_the_pins() {
    let expected = std::fs::read_to_string(fixture_path()).expect("pin fixture");
    let expected: Vec<(&str, &str)> = expected
        .lines()
        .map(|line| line.rsplit_once(' ').expect("`label digest` line"))
        .collect();
    let actual = render(&pins());
    let actual: Vec<(&str, &str)> = actual
        .lines()
        .map(|line| line.rsplit_once(' ').expect("rendered line"))
        .collect();
    assert!(
        actual.iter().map(|p| p.0).eq(expected.iter().map(|p| p.0)),
        "the pinned label set changed"
    );
    let moved: Vec<&str> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.1 != e.1)
        .map(|(a, _)| a.0)
        .collect();
    assert!(
        moved.is_empty(),
        "{} pinned outputs moved, first: {:?}",
        moved.len(),
        &moved[..moved.len().min(20)]
    );
}

#[test]
#[ignore = "rewrites the pin fixture"]
fn regenerate() {
    std::fs::write(fixture_path(), render(&pins())).expect("write pin fixture");
}
