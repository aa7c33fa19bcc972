//! `speculation_bench` — the two candidate-study engines raced over the
//! golden corpus.
//!
//! Runs the virtual-cluster scheduler over every corpus block twice: with
//! the legacy clone-and-discard study engine (`Tuning::clone_study`,
//! compiled here via the `clone-study` feature) and with the production
//! trail engine (delta/rollback studies, winners adopted by
//! re-deduction). Both are byte-identical by contract — same schedules,
//! same AWCT, same deduction-step counts — so this driver is both the
//! perf gate (blocks/sec, steps/sec, trail and adoption stats, estimated
//! clone bytes avoided) and the drift gate: it **exits non-zero** if any
//! block's AWCT, schedule or step count differs between the engines.
//!
//! Writes one stable-schema JSON document (`BENCH_speculation.json` by
//! default); CI uploads it as an artifact, so the repository accumulates
//! a perf trajectory over time. The headline `speedup` is the trail
//! engine's wall-clock advantage over the clone baseline, measured
//! **paired**: within each repeat the engines run back-to-back and the
//! speedup is the median of the per-repeat wall ratios, so shared-box
//! scheduling noise cancels instead of polluting the comparison.
//!
//! With `--history FILE` the run also appends one timestamped
//! `vcsched-bench-history/v1` row (see [`vcsched_bench::history`]) to a
//! rolling JSONL trajectory, and `--baseline FILE` gates the trail
//! engine's blocks/sec against the baseline's most recent `speculation`
//! row — exiting non-zero on a >10% regression (tolerance overridable
//! via `VCSCHED_BENCH_TOLERANCE`).
//!
//! ```console
//! $ speculation_bench [--corpus FILE] [--out FILE] [--machine M]
//!                     [--steps N] [--jobs N] [--repeats N]
//!                     [--history FILE] [--baseline FILE]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;
use vcsched_arch::MachineConfig;
use vcsched_core::{Tuning, VcAttempt, VcOptions, VcScheduler};
use vcsched_engine::{scatter, CorpusSource};
use vcsched_ir::Superblock;
use vcsched_workload::live_in_placement;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Which candidate-study engine a pass runs.
#[derive(Clone, Copy)]
enum Engine {
    /// Legacy clone-and-discard reference (`Tuning::clone_study`).
    Clone,
    /// Trail study, winner adopted by re-deducing the decision (the
    /// production engine).
    Trail,
}

impl Engine {
    fn tuning(self) -> Tuning {
        Tuning {
            clone_study: matches!(self, Engine::Clone),
            ..Tuning::default()
        }
    }
}

/// One engine's pass over the corpus.
struct EnginePass {
    attempts: Vec<VcAttempt>,
    /// Wall clock per repeat, nanoseconds (paired across engines).
    walls_ns: Vec<u64>,
    wall_ms: u64,
}

/// Races both engines with **paired** timing: within each repeat the
/// engines run back-to-back over the whole corpus, so every repeat's
/// ratio compares walls measured under the same machine conditions. The
/// headline speedup is then a median over these paired ratios — robust
/// against the scheduling noise a loaded box injects into any single
/// pass, which an unpaired pass-per-engine layout soaks up directly.
fn run_race(
    blocks: &[Superblock],
    machine: &MachineConfig,
    steps: u64,
    jobs: usize,
    repeats: u64,
) -> [EnginePass; 2] {
    const ENGINES: [Engine; 2] = [Engine::Clone, Engine::Trail];
    let mut passes = ENGINES.map(|_| EnginePass {
        attempts: Vec::new(),
        walls_ns: Vec::new(),
        wall_ms: 0,
    });
    for _ in 0..repeats {
        for (slot, engine) in ENGINES.iter().enumerate() {
            let t0 = std::time::Instant::now();
            passes[slot].attempts = scatter(blocks.len(), jobs, |i| {
                let sb = &blocks[i];
                let homes = live_in_placement(sb, machine.cluster_count(), 0xC60_2007 ^ i as u64);
                VcScheduler::with_options(
                    machine.clone(),
                    VcOptions {
                        max_dp_steps: steps,
                        tuning: engine.tuning(),
                        ..VcOptions::default()
                    },
                )
                .try_schedule_with_live_ins(sb, &homes)
            });
            passes[slot].walls_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    for pass in &mut passes {
        pass.wall_ms = pass.walls_ns.iter().sum::<u64>() / 1_000_000;
    }
    passes
}

/// Median of the per-repeat paired wall ratios `num[i] / den[i]`.
fn median_paired_ratio(num: &[u64], den: &[u64]) -> f64 {
    let mut ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(&n, &d)| n.max(1) as f64 / d.max(1) as f64)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let k = ratios.len();
    if k % 2 == 1 {
        ratios[k / 2]
    } else {
        (ratios[k / 2 - 1] + ratios[k / 2]) / 2.0
    }
}

/// Weighted aggregate AWCT over the solved blocks (the failures are
/// engine-invariant too, so both passes aggregate the same set).
fn aggregate_awct(blocks: &[Superblock], pass: &EnginePass) -> f64 {
    let mut cycles = 0.0f64;
    let mut weight = 0u64;
    for (sb, a) in blocks.iter().zip(&pass.attempts) {
        if let Ok(out) = &a.result {
            cycles += out.awct * sb.weight() as f64;
            weight += sb.weight();
        }
    }
    if weight == 0 {
        0.0
    } else {
        cycles / weight as f64
    }
}

fn total_steps(pass: &EnginePass) -> u64 {
    pass.attempts.iter().map(|a| a.dp_steps).sum()
}

fn mode_report(
    blocks: usize,
    repeats: u64,
    pass: &EnginePass,
    awct: f64,
) -> Vec<(&'static str, Value)> {
    let secs = pass.wall_ms.max(1) as f64 / 1_000.0;
    vec![
        ("wall_ms", Value::UInt(pass.wall_ms)),
        (
            "blocks_per_sec",
            Value::Float(blocks as f64 * repeats as f64 / secs),
        ),
        (
            "steps_per_sec",
            Value::Float(total_steps(pass) as f64 * repeats as f64 / secs),
        ),
        ("total_steps", Value::UInt(total_steps(pass))),
        ("solved", {
            let n = pass.attempts.iter().filter(|a| a.result.is_ok()).count();
            Value::UInt(n as u64)
        }),
        ("aggregate_awct", Value::Float(awct)),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("speculation_bench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let corpus =
        PathBuf::from(flag(args, "--corpus").unwrap_or("tests/fixtures/golden_corpus.jsonl"));
    let out = PathBuf::from(flag(args, "--out").unwrap_or("BENCH_speculation.json"));
    let machine_key = flag(args, "--machine").unwrap_or("2c");
    let machine = MachineConfig::preset(machine_key)
        .ok_or_else(|| format!("unknown machine preset `{machine_key}`"))?;
    let steps: u64 = flag(args, "--steps")
        .unwrap_or("5000")
        .parse()
        .map_err(|e| format!("--steps: {e}"))?;
    let jobs: usize = match flag(args, "--jobs") {
        Some(n) => n.parse().map_err(|e| format!("--jobs: {e}"))?,
        None => vcsched_engine::default_jobs(),
    };
    let repeats: u64 = flag(args, "--repeats")
        .unwrap_or("5")
        .parse::<u64>()
        .map_err(|e| format!("--repeats: {e}"))?
        .max(1);
    let blocks = CorpusSource::Jsonl(corpus.clone()).load()?;

    let [clone_pass, trail_pass] = run_race(&blocks, &machine, steps, jobs, repeats);

    // Drift gate: per-block results must be bit-identical between the
    // engines, with the clone engine as the reference.
    let mut drift = 0usize;
    for (i, (c, t)) in clone_pass
        .attempts
        .iter()
        .zip(&trail_pass.attempts)
        .enumerate()
    {
        let same = c.dp_steps == t.dp_steps
            && match (&c.result, &t.result) {
                (Ok(a), Ok(b)) => {
                    a.awct == b.awct
                        && a.schedule == b.schedule
                        && a.stats.awct_bumps == b.stats.awct_bumps
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
        if !same {
            drift += 1;
            eprintln!(
                "speculation_bench: DRIFT on block {} ({}): clone steps {} vs trail steps {}",
                i,
                blocks[i].name(),
                c.dp_steps,
                t.dp_steps
            );
        }
    }
    let clone_awct = aggregate_awct(&blocks, &clone_pass);
    let trail_awct = aggregate_awct(&blocks, &trail_pass);
    let awct_match = clone_awct.to_bits() == trail_awct.to_bits() && drift == 0;

    let spec_total = |f: fn(&VcAttempt) -> u64| -> u64 { trail_pass.attempts.iter().map(f).sum() };
    let trail_entries = spec_total(|a| a.spec.trail_entries);
    let rollbacks = spec_total(|a| a.spec.rollbacks);
    let bytes_not_cloned = spec_total(|a| a.spec.bytes_not_cloned);
    let adoptions = spec_total(|a| a.spec.redo_replays);
    let adopted_bytes = spec_total(|a| a.spec.redo_bytes_replayed);
    let peak_depth = trail_pass
        .attempts
        .iter()
        .map(|a| a.spec.peak_trail_depth)
        .max()
        .unwrap_or(0);
    let speedup = median_paired_ratio(&clone_pass.walls_ns, &trail_pass.walls_ns);

    let report = obj(vec![
        (
            "schema",
            Value::String("vcsched-bench-speculation/v3".into()),
        ),
        ("corpus", Value::String(corpus.display().to_string())),
        ("machine", Value::String(machine_key.to_owned())),
        ("blocks", Value::UInt(blocks.len() as u64)),
        ("steps_budget", Value::UInt(steps)),
        ("jobs", Value::UInt(jobs.max(1) as u64)),
        ("repeats", Value::UInt(repeats)),
        (
            "clone",
            obj(mode_report(blocks.len(), repeats, &clone_pass, clone_awct)),
        ),
        (
            "trail",
            obj({
                let mut fields = mode_report(blocks.len(), repeats, &trail_pass, trail_awct);
                fields.push(("trail_entries", Value::UInt(trail_entries)));
                fields.push(("rollbacks", Value::UInt(rollbacks)));
                fields.push(("peak_trail_depth", Value::UInt(peak_depth)));
                fields.push(("bytes_not_cloned", Value::UInt(bytes_not_cloned)));
                fields.push(("adoptions", Value::UInt(adoptions)));
                fields.push(("adopted_bytes", Value::UInt(adopted_bytes)));
                fields
            }),
        ),
        ("awct_match", Value::Bool(awct_match)),
        ("speedup", Value::Float(speedup)),
    ]);
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())? + "\n";
    std::fs::write(&out, &text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{text}");
    eprintln!(
        "speculation_bench: wrote {} ({} blocks x {repeats}; awct_match={awct_match}, \
         speedup={speedup:.2}x, {rollbacks} rollbacks, {:.1} MB not cloned)",
        out.display(),
        blocks.len(),
        bytes_not_cloned as f64 / 1e6,
    );
    if !awct_match {
        eprintln!(
            "speculation_bench: FAIL — engines drifted ({drift} blocks; clone AWCT {clone_awct} \
             vs trail AWCT {trail_awct})"
        );
    }

    // Trajectory history and the regression gate. The gate reads the
    // baseline *before* the history append, so --baseline and --history
    // may name the same rolling file; the row is appended even on a
    // regression so the trajectory records the bad run.
    let total_blocks = blocks.len() as u64 * repeats;
    let trail_bps = total_blocks as f64 / (trail_pass.wall_ms.max(1) as f64 / 1_000.0);
    let clone_bps = total_blocks as f64 / (clone_pass.wall_ms.max(1) as f64 / 1_000.0);
    let gate = match flag(args, "--baseline") {
        Some(baseline) => {
            vcsched_bench::history::check_regression(Path::new(baseline), "speculation", trail_bps)
        }
        None => Ok(()),
    };
    if let Some(history) = flag(args, "--history") {
        let row = vcsched_bench::history::row(
            "speculation",
            machine_key,
            blocks.len() as u64,
            repeats,
            jobs.max(1) as u64,
            trail_bps,
            vec![
                ("clone_blocks_per_sec", Value::Float(clone_bps)),
                ("speedup", Value::Float(speedup)),
                ("awct_match", Value::Bool(awct_match)),
            ],
        );
        vcsched_bench::history::append(Path::new(history), &row)?;
        eprintln!("speculation_bench: appended history row to {history}");
    }
    gate?;
    Ok(awct_match)
}
