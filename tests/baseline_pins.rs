//! Output pins for the single-pass baselines and the block generators.
//!
//! The golden corpus pins each block's winner and AWCT, but a baseline
//! whose schedule changes while it still loses to VC passes it. This
//! test pins the full output instead: every schedule (cycles, clusters,
//! copies) of `cars`, `uas` under every cluster order, `two-phase` and
//! `two-phase-balance`, on the golden corpus and on a seeded corpus of
//! large generated blocks, for every paper evaluation machine plus the
//! heterogeneous one; the JSON of `generate_blocks` for every benchmark
//! at two seeds and both inputs; and the blocks of one synthesized
//! trace per arrival profile.
//!
//! `tests/fixtures/baseline_pins.txt` holds one `label digest` line per
//! output, so a mismatch names the block, machine and scheduler. If a
//! change is meant to move these outputs, regenerate with:
//!
//! ```console
//! $ cargo test --test baseline_pins regenerate -- --ignored
//! ```
//!
//! and justify the diff in the change description.

use std::path::PathBuf;

use vcsched::arch::{ClusterId, MachineConfig};
use vcsched::baselines::{ClusterOrder, TwoPhaseScheduler, UasScheduler, BALANCE_WEIGHT};
use vcsched::cars::CarsScheduler;
use vcsched::ir::{Schedule, Superblock};
use vcsched::workload::{
    benchmarks, generate_block, generate_blocks, live_in_placement, synthesize_trace,
    ArrivalProfile, BenchmarkSpec, GenOptions, InputSet, Suite, TraceOptions,
};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/baseline_pins.txt")
}

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn schedule_digest(schedule: &Schedule, awct: f64) -> u64 {
    let mut text = serde_json::to_string(schedule).expect("schedule serializes");
    text.push_str(&format!(";{:016x}", awct.to_bits()));
    fnv(text.as_bytes())
}

fn golden_blocks() -> Vec<Superblock> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_corpus.jsonl");
    std::fs::read_to_string(path)
        .expect("golden corpus")
        .lines()
        .map(|line| serde_json::from_str(line).expect("corpus block"))
        .collect()
}

/// MediaBench-shaped blocks with a larger mean size (about 36 ops, up to
/// the generator's 96-op cap).
fn large_spec() -> BenchmarkSpec {
    BenchmarkSpec {
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
    }
}

fn large_blocks() -> Vec<Superblock> {
    let spec = large_spec();
    (0..12)
        .map(|i| generate_block(&spec, 0x5EED, i, InputSet::Ref))
        .collect()
}

fn machines() -> Vec<MachineConfig> {
    let mut all = MachineConfig::paper_eval_configs();
    all.push(MachineConfig::hetero_2c());
    all
}

/// Every baseline schedule of every block of `corpus` on every machine.
fn schedule_pins(corpus: &str, blocks: &[Superblock], out: &mut Vec<(String, u64)>) {
    for m in machines() {
        for (i, sb) in blocks.iter().enumerate() {
            let homes: Vec<ClusterId> = live_in_placement(sb, m.cluster_count(), i as u64);
            let label = |policy: &str| format!("{corpus}/{i:02}/{}/{policy}", m.name());
            let cars = CarsScheduler::new(m.clone()).schedule_with_live_ins(sb, &homes);
            out.push((label("cars"), schedule_digest(&cars.schedule, cars.awct)));
            for (name, order) in [
                ("uas", ClusterOrder::Cwp),
                ("uas-mwp", ClusterOrder::Mwp),
                ("uas-none", ClusterOrder::None),
                ("uas-balance", ClusterOrder::LoadBalance),
            ] {
                let uas = UasScheduler::new(m.clone(), order).schedule_with_live_ins(sb, &homes);
                out.push((label(name), schedule_digest(&uas.schedule, uas.awct)));
            }
            let two = TwoPhaseScheduler::new(m.clone()).schedule_with_live_ins(sb, &homes);
            out.push((label("two-phase"), schedule_digest(&two.schedule, two.awct)));
            let bal = TwoPhaseScheduler::new(m.clone())
                .with_balance_weight(BALANCE_WEIGHT)
                .schedule_with_live_ins(sb, &homes);
            out.push((
                label("two-phase-balance"),
                schedule_digest(&bal.schedule, bal.awct),
            ));
        }
    }
}

fn block_digest(sb: &Superblock) -> u64 {
    fnv(serde_json::to_string(sb)
        .expect("block serializes")
        .as_bytes())
}

/// Every labelled digest, in fixture order.
fn pins() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    schedule_pins("golden", &golden_blocks(), &mut out);
    schedule_pins("large", &large_blocks(), &mut out);
    for spec in benchmarks() {
        for seed in [7, 0xC60_2007] {
            for (input, tag) in [(InputSet::Ref, "ref"), (InputSet::Train, "train")] {
                let opts = GenOptions { blocks: 6, seed };
                for (i, sb) in generate_blocks(&spec, &opts, input).iter().enumerate() {
                    let label = format!("gen/{}/{seed}/{tag}/{i}", spec.name);
                    out.push((label, block_digest(sb)));
                }
            }
        }
    }
    for profile in ArrivalProfile::all() {
        let opts = TraceOptions {
            profile,
            events: 40,
            seed: 11,
            ..TraceOptions::default()
        };
        for (i, event) in synthesize_trace(&opts).iter().enumerate() {
            let label = format!("trace/{}/{i:02}", profile.name());
            out.push((label, block_digest(&event.block())));
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
fn baseline_and_generator_outputs_match_the_pins() {
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
