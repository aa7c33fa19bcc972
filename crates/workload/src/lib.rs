//! Synthetic superblock corpus modelled on SpecInt95 and MediaBench.
//!
//! The paper evaluates on >60,000 superblocks extracted by the IMPACT
//! compiler from 7 SpecInt95 and 7 MediaBench applications, with profile
//! data from complete `ref`-input runs (§6.1). Neither IMPACT nor those
//! binaries are available here, so this crate generates *statistically
//! shaped* superblocks per application:
//!
//! * **SpecInt95** programs (`099.go`, …) produce many small, control-dense
//!   blocks — narrow dependence graphs, several early exits, little
//!   floating point;
//! * **MediaBench** programs (`epicdec`, …) produce larger, wider blocks —
//!   more instruction-level parallelism, more memory traffic, some floating
//!   point, few exits.
//!
//! Every draw is seeded, so a corpus is a pure function of
//! `(benchmark, seed, input set)`. Two [`InputSet`]s model the paper's
//! "different inputs to profile and execute" study (Fig. 12): `Train`
//! redraws exit probabilities and execution counts with correlated noise
//! around the `Ref` values.
//!
//! # Example
//!
//! ```
//! use vcsched_workload::{benchmarks, generate_blocks, GenOptions, InputSet};
//!
//! let spec = &benchmarks()[0];
//! assert_eq!(spec.name, "099.go");
//! let blocks = generate_blocks(spec, &GenOptions { blocks: 5, ..GenOptions::default() }, InputSet::Ref);
//! assert_eq!(blocks.len(), 5);
//! assert!(blocks.iter().all(|b| b.exits().count() >= 1));
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcsched_arch::{ClusterId, OpClass};
use vcsched_ir::{Superblock, SuperblockBuilder};

pub mod trace;

pub use trace::{
    synthesize_trace, trace_from_jsonl, trace_to_jsonl, ArrivalProfile, TraceEvent, TraceOptions,
    MAX_PRIORITY, TRACE_SCHEMA,
};

/// Benchmark suite of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint95.
    SpecInt95,
    /// MediaBench.
    MediaBench,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::SpecInt95 => f.write_str("SpecInt95"),
            Suite::MediaBench => f.write_str("MediaBench"),
        }
    }
}

/// Which program input produced the profile (Fig. 12 reproduces results
/// when the profiling and execution inputs differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The reference input: the canonical profile.
    Ref,
    /// An alternative input: correlated drift on probabilities and counts.
    Train,
}

/// Statistical profile of one application's superblocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Application name as it appears on the paper's figures.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Mean of the log-normal block-size distribution (ops per block).
    pub size_mu: f64,
    /// Dispersion of the block-size distribution.
    pub size_sigma: f64,
    /// Target dependence-graph width (parallel ops per level).
    pub ilp_width: f64,
    /// Fraction of memory operations.
    pub mem_frac: f64,
    /// Fraction of floating-point operations.
    pub fp_frac: f64,
    /// Maximum side exits per block (plus the mandatory final exit).
    pub max_side_exits: usize,
    /// Maximum live-in values.
    pub max_live_ins: usize,
    /// Default seed component (keeps corpora distinct across apps).
    pub seed_salt: u64,
}

const fn spec(
    name: &'static str,
    salt: u64,
    size_mu: f64,
    ilp: f64,
    exits: usize,
) -> BenchmarkSpec {
    BenchmarkSpec {
        name,
        suite: Suite::SpecInt95,
        size_mu,
        size_sigma: 0.55,
        ilp_width: ilp,
        mem_frac: 0.30,
        fp_frac: 0.01,
        max_side_exits: exits,
        max_live_ins: 4,
        seed_salt: salt,
    }
}

const fn media(name: &'static str, salt: u64, size_mu: f64, ilp: f64, fp: f64) -> BenchmarkSpec {
    BenchmarkSpec {
        name,
        suite: Suite::MediaBench,
        size_mu,
        size_sigma: 0.65,
        ilp_width: ilp,
        mem_frac: 0.35,
        fp_frac: fp,
        max_side_exits: 2,
        max_live_ins: 6,
        seed_salt: salt,
    }
}

/// The paper's 14 applications, in [`benchmarks`] order.
const BENCHMARKS: [BenchmarkSpec; 14] = [
    spec("099.go", 11, 2.5, 2.2, 3),
    spec("124.m88ksim", 12, 2.3, 1.9, 3),
    spec("129.compress", 13, 2.4, 2.1, 2),
    spec("130.li", 14, 2.2, 1.8, 3),
    spec("132.ijpeg", 15, 2.8, 2.8, 2),
    spec("134.perl", 16, 2.4, 2.0, 3),
    spec("147.vortex", 17, 2.5, 1.9, 3),
    media("epicdec", 21, 2.9, 3.2, 0.10),
    media("epicenc", 22, 3.0, 3.4, 0.12),
    media("g721dec", 23, 2.6, 2.4, 0.02),
    media("g721enc", 24, 2.6, 2.5, 0.02),
    media("mpeg2dec", 25, 3.0, 3.3, 0.05),
    media("mpeg2enc", 26, 3.1, 3.6, 0.08),
    media("rasta", 27, 2.8, 2.7, 0.25),
];

/// The paper's 14 applications (7 SpecInt95 + 7 MediaBench), §6.1.
pub fn benchmarks() -> Vec<BenchmarkSpec> {
    BENCHMARKS.to_vec()
}

/// Look up a benchmark by name.
pub fn benchmark(name: &str) -> Option<BenchmarkSpec> {
    BENCHMARKS.iter().find(|b| b.name == name).cloned()
}

/// Corpus generation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOptions {
    /// Blocks to generate per application. The paper's corpus averages
    /// ~4,300 blocks per application; scale to taste.
    pub blocks: usize,
    /// Base seed combined with the per-application salt.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            blocks: 120,
            seed: 0xC60_2007,
        }
    }
}

fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    // Box–Muller; `rand` 0.8 has no lognormal without rand_distr.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

/// Generates the superblock corpus for one application.
///
/// Block structure (sizes, dependences, op mix) depends only on
/// `(spec, seed)`; the [`InputSet`] perturbs exit probabilities and
/// execution weights, modelling a different program input under the same
/// binary.
pub fn generate_blocks(
    spec: &BenchmarkSpec,
    opts: &GenOptions,
    input: InputSet,
) -> Vec<Superblock> {
    (0..opts.blocks)
        .map(|i| generate_block(spec, opts.seed, i as u64, input))
        .collect()
}

/// Generates block number `index` of the corpus.
pub fn generate_block(spec: &BenchmarkSpec, seed: u64, index: u64, input: InputSet) -> Superblock {
    let mut rng = StdRng::seed_from_u64(
        seed ^ spec.seed_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xD134_2543_DE82_EF95),
    );
    let n_ops = (lognormal(&mut rng, spec.size_mu, spec.size_sigma).round() as usize).clamp(3, 96);
    let side_exits = if n_ops >= 8 {
        rng.gen_range(0..=spec.max_side_exits.min(n_ops / 6))
    } else {
        0
    };
    let live_ins = rng.gen_range(0..=spec.max_live_ins.min(2 + n_ops / 8));

    let mut b = SuperblockBuilder::new(&format!("{}#{index}", spec.name));

    // Live-in pseudo-instructions first (ids 0..live_ins).
    let li_ids: Vec<_> = (0..live_ins).map(|_| b.live_in()).collect();

    // Ops in levels of ~ilp_width parallel instructions. Each op consumes
    // one or two earlier values with recency bias.
    let mut producers: Vec<(vcsched_ir::InstId, u32)> = Vec::new(); // (id, latency)
    let mut all_values: Vec<vcsched_ir::InstId> = li_ids.clone();
    let mut emitted = 0usize;
    let mut exit_slots: Vec<usize> = (0..side_exits)
        .map(|k| (n_ops * (k + 1)) / (side_exits + 1))
        .collect();
    exit_slots.dedup();
    let mut exit_probs = stick_breaking(&mut rng, exit_slots.len() + 1);
    // Program inputs drift the profile (Fig. 12 study) — through a separate
    // RNG so the block *structure* stays identical across inputs.
    let mut drift_rng = StdRng::seed_from_u64(
        seed ^ spec.seed_salt.rotate_left(17) ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D),
    );
    if input == InputSet::Train {
        drift_probs(&mut drift_rng, &mut exit_probs);
    }
    let mut prob_iter = exit_probs.into_iter();
    let mut exits_emitted = 0;
    while emitted < n_ops {
        let width = (lognormal(&mut rng, spec.ilp_width.ln(), 0.35).round() as usize).max(1);
        for _ in 0..width.min(n_ops - emitted) {
            let class = pick_class(&mut rng, spec);
            let latency = latency_of(&mut rng, class);
            let id = b.inst(class, latency);
            // 1–2 producers, biased toward recent values.
            let n_deps = if all_values.is_empty() {
                0
            } else {
                1 + usize::from(rng.gen_bool(0.45))
            };
            for _ in 0..n_deps {
                let pick = biased_pick(&mut rng, all_values.len());
                let p = all_values[pick];
                if p != id {
                    b.data_dep(p, id);
                }
            }
            all_values.push(id);
            producers.push((id, latency));
            emitted += 1;
            // Side exit due at this point?
            if exits_emitted < exit_slots.len() && emitted >= exit_slots[exits_emitted] {
                let p = prob_iter.next().expect("stick-breaking covers all exits");
                let ex = b.exit(branch_latency(&mut rng), p);
                // The branch tests a recently computed value.
                let pick = biased_pick(&mut rng, all_values.len());
                b.data_dep(all_values[pick], ex);
                exits_emitted += 1;
            }
        }
    }
    // Final (fall-through) exit takes the remaining probability and
    // depends on a couple of late values so the critical path is real.
    let p_last = prob_iter.next().expect("one probability per exit");
    let last = b.exit(branch_latency(&mut rng), p_last);
    for _ in 0..2 {
        let pick = biased_pick(&mut rng, all_values.len());
        b.data_dep(all_values[pick], last);
    }

    // Execution weight: Zipf-ish over block index, drifted per input.
    let rank = index + 1;
    let base = (1_000_000.0 / (rank as f64).powf(1.1)).max(1.0);
    let jitter: f64 = rng.gen_range(0.5..1.5);
    let drift: f64 = if input == InputSet::Train {
        drift_rng.gen_range(0.6..1.6)
    } else {
        1.0
    };
    b.weight((base * jitter * drift) as u64 + 1);

    match b.build() {
        Ok(sb) => sb,
        Err(vcsched_ir::BuildError::DeadInstruction(_)) => {
            // Rare: an op chain missed every exit. Wire each dead op to
            // the final exit. One pass suffices: a new edge `id → last`
            // revives only `id` and ops reaching it, which have lower ids
            // and so were live or already wired.
            for id in b.dead_instructions() {
                b.data_dep(id, last);
            }
            b.build()
                .expect("wiring dead ops to the final exit revives them")
        }
        Err(e) => unreachable!("generator emits well-formed blocks: {e}"),
    }
}

fn pick_class(rng: &mut StdRng, spec: &BenchmarkSpec) -> OpClass {
    let r: f64 = rng.gen();
    if r < spec.mem_frac {
        OpClass::Mem
    } else if r < spec.mem_frac + spec.fp_frac {
        OpClass::Fp
    } else {
        OpClass::Int
    }
}

fn latency_of(rng: &mut StdRng, class: OpClass) -> u32 {
    match class {
        OpClass::Int => {
            if rng.gen_bool(0.12) {
                3 // multiply-like
            } else {
                1
            }
        }
        OpClass::Mem => 2,
        OpClass::Fp => 3,
        OpClass::Branch | OpClass::Copy => 1,
    }
}

fn branch_latency(rng: &mut StdRng) -> u32 {
    if rng.gen_bool(0.3) {
        2
    } else {
        1
    }
}

/// Stick-breaking exit probabilities: later exits carry more mass (most
/// superblock executions fall through).
fn stick_breaking(rng: &mut StdRng, n_exits: usize) -> Vec<f64> {
    let mut rest = 1.0;
    let mut out = Vec::with_capacity(n_exits);
    for _ in 0..n_exits.saturating_sub(1) {
        let p = rest * rng.gen_range(0.02..0.35);
        out.push(p);
        rest -= p;
    }
    out.push(rest);
    out
}

fn drift_probs(rng: &mut StdRng, probs: &mut [f64]) {
    let mut sum = 0.0;
    for p in probs.iter_mut() {
        *p *= (rng.gen_range(-0.5..0.5_f64)).exp();
        sum += *p;
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

fn biased_pick(rng: &mut StdRng, len: usize) -> usize {
    debug_assert!(len > 0);
    // Squared uniform biases toward the end (recent values).
    let u: f64 = rng.gen();
    let x = 1.0 - u * u;
    ((x * len as f64) as usize).min(len - 1)
}

/// Randomly distributes a block's live-ins over `clusters` register files —
/// the paper fixes one assignment and hands it to *both* schedulers (§6.1).
pub fn live_in_placement(sb: &Superblock, clusters: usize, seed: u64) -> Vec<ClusterId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    sb.live_ins()
        .map(|_| ClusterId(rng.gen_range(0..clusters.max(1)) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks() {
        let b = benchmarks();
        assert_eq!(b.len(), 14);
        assert_eq!(b.iter().filter(|s| s.suite == Suite::SpecInt95).count(), 7);
        assert_eq!(b.iter().filter(|s| s.suite == Suite::MediaBench).count(), 7);
        assert!(benchmark("134.perl").is_some());
        assert!(benchmark("nonesuch").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = benchmark("099.go").unwrap();
        let a = generate_block(&spec, 42, 7, InputSet::Ref);
        let b = generate_block(&spec, 42, 7, InputSet::Ref);
        assert_eq!(a, b);
    }

    #[test]
    fn input_sets_share_structure_but_differ_in_profile() {
        let spec = benchmark("132.ijpeg").unwrap();
        let r = generate_block(&spec, 42, 3, InputSet::Ref);
        let t = generate_block(&spec, 42, 3, InputSet::Train);
        assert_eq!(r.len(), t.len());
        assert_eq!(r.deps(), t.deps());
        // Profiles differ (probabilities or weights).
        let rp: Vec<f64> = r.exits().map(|(_, p)| p).collect();
        let tp: Vec<f64> = t.exits().map(|(_, p)| p).collect();
        assert!(rp != tp || r.weight() != t.weight());
    }

    #[test]
    fn blocks_are_valid_superblocks() {
        for spec in benchmarks() {
            for i in 0..30 {
                let sb = generate_block(&spec, 1, i, InputSet::Ref);
                let total: f64 = sb.exits().map(|(_, p)| p).sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "{}: probs sum {total}",
                    sb.name()
                );
                assert!(sb.exits().count() >= 1);
                assert!(sb.op_count() >= 3);
            }
        }
    }

    #[test]
    fn media_blocks_are_bigger_on_average() {
        let go = benchmark("099.go").unwrap();
        let mpeg = benchmark("mpeg2enc").unwrap();
        let avg = |spec: &BenchmarkSpec| -> f64 {
            let blocks = generate_blocks(
                spec,
                &GenOptions {
                    blocks: 60,
                    seed: 9,
                },
                InputSet::Ref,
            );
            blocks.iter().map(|b| b.op_count() as f64).sum::<f64>() / 60.0
        };
        assert!(
            avg(&mpeg) > avg(&go) * 1.2,
            "MediaBench blocks should be larger"
        );
    }

    #[test]
    fn live_in_placement_is_deterministic_and_in_range() {
        let spec = benchmark("epicdec").unwrap();
        let sb = generate_block(&spec, 5, 0, InputSet::Ref);
        let a = live_in_placement(&sb, 4, 99);
        let b = live_in_placement(&sb, 4, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), sb.live_ins().count());
        assert!(a.iter().all(|c| c.0 < 4));
    }

    #[test]
    fn weights_follow_rank_skew() {
        let spec = benchmark("130.li").unwrap();
        let first = generate_block(&spec, 3, 0, InputSet::Ref);
        let late = generate_block(&spec, 3, 100, InputSet::Ref);
        assert!(first.weight() > late.weight());
    }
}
