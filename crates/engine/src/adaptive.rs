//! Adaptive portfolio selection: learn, per block class, which policies
//! are worth racing — the algorithm-selection framing of Casanova et al.
//! applied to the paper's §6.1 portfolio.
//!
//! The full race runs every configured policy on every block. The
//! per-policy win/step telemetry shows wins are strongly predicted by a
//! coarse *block class* — op-count bucket × exit count × machine — so a
//! selector that remembers which policies win each class can race a
//! narrowed set and skip work that predictably loses:
//!
//! * [`BlockClass`] featurizes a block into its class key;
//! * [`SelectorTable`] holds per-class, per-policy win/step/race counts.
//!   It is seeded from the same telemetry the batch summary reports,
//!   persists as versioned JSON ([`SELECTOR_FILE`]) next to the schedule
//!   cache, and replays losslessly;
//! * [`SelectorTable::select`] narrows a configured [`PolicySet`] to the
//!   class's top-K winners (every policy with a recorded win survives up
//!   to the cap; ranking ties break by the set's canonical order), keeps
//!   the **full** set for unseen or under-observed classes, and
//!   re-races the full set on a fixed ε-exploration schedule driven by a
//!   seeded xoshiro stream ([`explore_draw`]) so narrowing can never
//!   freeze a stale table;
//! * [`SelectorTable::plan`] precomputes one [`Decision`] per corpus
//!   block **by corpus index**, so a parallel batch makes exactly the
//!   decisions a serial one would — adaptive runs stay byte-identical
//!   at any `--jobs`.
//!
//! Determinism contract: selection reads a table snapshot fixed at batch
//! start, exploration draws depend only on `(seed, block index)`, and
//! observations fold back in corpus order after the race. Because every
//! policy is itself deterministic, a narrowed set that contains a
//! block's recorded winner reproduces the full race's AWCT exactly —
//! the selector only removes provably losing work, mirroring the
//! early-cancel guarantee one level up.

use rand::{rngs::StdRng, Rng, RngCore as _, SeedableRng};
use serde::{Deserialize, Serialize};
use vcsched_arch::MachineConfig;
use vcsched_ir::Superblock;

use crate::portfolio::BlockOutcome;
use crate::registry::PolicySet;

/// On-disk format version of [`SelectorTable`]; a loaded table with any
/// other version is discarded (the selector restarts cold — a perf
/// regression, never a correctness one).
pub const SELECTOR_VERSION: u32 = 1;

/// File name of the persisted selector table, stored next to the
/// schedule cache's journal (`selector.json` in the `--cache` dir).
pub const SELECTOR_FILE: &str = "selector.json";

/// Tuning knobs of the adaptive selector.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Maximum policies a narrowed set may race (the "K" of top-K).
    pub top_k: usize,
    /// Probability of re-racing the full set on a class the selector
    /// would narrow (the ε of ε-greedy exploration).
    pub epsilon: f64,
    /// Blocks a class must have been observed on before the selector
    /// narrows it; younger classes race the full set.
    pub min_observations: u64,
    /// Seed of the xoshiro exploration stream ([`explore_draw`]). Same
    /// seed + same corpus order = same exploration schedule.
    pub seed: u64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            top_k: 3,
            epsilon: 1.0 / 16.0,
            min_observations: 3,
            seed: 0xADA_2007,
        }
    }
}

/// The class key of one scheduling problem: machine identity × op-count
/// bucket × exit count. Coarse on purpose — classes must repeat for the
/// selector to learn anything.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockClass(String);

impl BlockClass {
    /// Featurizes one block for one machine.
    pub fn of(sb: &Superblock, machine: &MachineConfig) -> BlockClass {
        let ops = sb.op_count();
        let bucket = match ops {
            0..=7 => "ops0-7",
            8..=15 => "ops8-15",
            16..=31 => "ops16-31",
            32..=63 => "ops32-63",
            64..=127 => "ops64-127",
            _ => "ops128+",
        };
        let exits = sb.exits().count();
        BlockClass(format!("{}|{bucket}|exits{exits}", machine.name()))
    }

    /// The stable string key (also the JSON identity).
    pub fn key(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for BlockClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One policy's record within one class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyClassStats {
    /// Policy name (registry identity).
    pub policy: String,
    /// Blocks of this class the policy won.
    pub wins: u64,
    /// Deduction steps it spent on this class.
    pub steps: u64,
    /// Blocks of this class it raced on.
    pub races: u64,
}

/// Everything the selector knows about one block class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassStats {
    /// The class key ([`BlockClass::key`]).
    pub class: String,
    /// Blocks of this class observed.
    pub blocks: u64,
    /// Per-policy records, sorted by policy name (deterministic JSON).
    pub policies: Vec<PolicyClassStats>,
}

impl ClassStats {
    /// The record for `policy`, creating it (sorted into place) if new.
    fn policy_mut(&mut self, policy: &str) -> &mut PolicyClassStats {
        let i = match self
            .policies
            .binary_search_by(|p| p.policy.as_str().cmp(policy))
        {
            Ok(i) => i,
            Err(i) => {
                self.policies.insert(
                    i,
                    PolicyClassStats {
                        policy: policy.to_owned(),
                        wins: 0,
                        steps: 0,
                        races: 0,
                    },
                );
                i
            }
        };
        &mut self.policies[i]
    }
}

/// The learned per-class statistics table (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectorTable {
    /// On-disk format version ([`SELECTOR_VERSION`]).
    pub version: u32,
    /// Per-class records, sorted by class key (deterministic JSON).
    pub classes: Vec<ClassStats>,
}

impl Default for SelectorTable {
    fn default() -> Self {
        SelectorTable::new()
    }
}

/// What [`SelectorTable::select`] decided for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Full set: the class is unseen or under-observed.
    FullUnseen,
    /// Full set: the ε-exploration schedule fired.
    FullExplore,
    /// A narrowed set of the class's recorded winners.
    Narrowed,
}

impl DecisionKind {
    /// Stable lower-case name (used in JSON telemetry).
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::FullUnseen => "full-unseen",
            DecisionKind::FullExplore => "full-explore",
            DecisionKind::Narrowed => "narrowed",
        }
    }
}

/// One block's planned race: its class, how the set was chosen, and the
/// set itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The block's class.
    pub class: BlockClass,
    /// How the policy set was chosen.
    pub kind: DecisionKind,
    /// The set to race (always a subset of the configured set).
    pub policies: PolicySet,
}

/// The `i`-th value of the seeded ε-exploration stream, in `[0, 1)`.
///
/// Each index seeds its own xoshiro256++ state (through the SplitMix64
/// expansion), so the draw for block `i` is independent of evaluation
/// order — a parallel batch explores exactly the blocks a serial one
/// would.
pub fn explore_draw(seed: u64, index: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // One warm-up step decorrelates neighbouring indices beyond what the
    // seeding expansion already does.
    let _ = rng.next_u64();
    rng.gen::<f64>()
}

impl SelectorTable {
    /// An empty table at the current version.
    pub fn new() -> SelectorTable {
        SelectorTable {
            version: SELECTOR_VERSION,
            classes: Vec::new(),
        }
    }

    /// The stats for `class`, if observed.
    pub fn class(&self, class: &BlockClass) -> Option<&ClassStats> {
        self.classes
            .binary_search_by(|c| c.class.as_str().cmp(class.key()))
            .ok()
            .map(|i| &self.classes[i])
    }

    fn class_mut(&mut self, class: &BlockClass) -> &mut ClassStats {
        let i = match self
            .classes
            .binary_search_by(|c| c.class.as_str().cmp(class.key()))
        {
            Ok(i) => i,
            Err(i) => {
                self.classes.insert(
                    i,
                    ClassStats {
                        class: class.key().to_owned(),
                        blocks: 0,
                        policies: Vec::new(),
                    },
                );
                i
            }
        };
        &mut self.classes[i]
    }

    /// Total blocks observed, over all classes.
    pub fn blocks_observed(&self) -> u64 {
        self.classes.iter().map(|c| c.blocks).sum()
    }

    /// Folds one block's race result into the table: the winner gets a
    /// win, every raced policy gets its race and step counts. Cached
    /// answers fold too — the remembered race is still evidence.
    pub fn observe(&mut self, class: &BlockClass, outcome: &BlockOutcome) {
        let stats = self.class_mut(class);
        stats.blocks += 1;
        for stat in &outcome.policy_stats {
            let p = stats.policy_mut(&stat.policy);
            p.races += 1;
            p.steps += stat.steps;
        }
        stats.policy_mut(&outcome.winner).wins += 1;
    }

    /// Chooses the policy set for one block of `class` out of
    /// `configured`. `draw` is the block's exploration value
    /// ([`explore_draw`]); the decision is a pure function of
    /// `(table, class, configured, options, draw)`.
    ///
    /// Narrowing keeps every configured policy with a recorded win in the
    /// class, ranked by wins (ties toward the configured set's canonical
    /// order — the same tie-break the race itself uses) and capped at
    /// [`AdaptiveOptions::top_k`]. Classes with no recorded winner inside
    /// `configured` (e.g. every observed win came from the implicit CARS
    /// fallback) race the full set.
    pub fn select(
        &self,
        class: &BlockClass,
        configured: &PolicySet,
        options: &AdaptiveOptions,
        draw: f64,
    ) -> (DecisionKind, PolicySet) {
        let full = || configured.clone();
        let Some(stats) = self.class(class) else {
            return (DecisionKind::FullUnseen, full());
        };
        if stats.blocks < options.min_observations {
            return (DecisionKind::FullUnseen, full());
        }
        if draw < options.epsilon {
            return (DecisionKind::FullExplore, full());
        }
        // Winners inside the configured set, ranked by (wins desc,
        // canonical order asc).
        let mut winners: Vec<(usize, u64, &str)> = configured
            .names()
            .iter()
            .enumerate()
            .filter_map(|(canon, name)| {
                stats
                    .policies
                    .iter()
                    .find(|p| p.policy == *name && p.wins > 0)
                    .map(|p| (canon, p.wins, name.as_str()))
            })
            .collect();
        if winners.is_empty() {
            return (DecisionKind::FullUnseen, full());
        }
        winners.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        winners.truncate(options.top_k.max(1));
        // Filtering the configured set keeps its canonical order and the
        // registry it was validated against.
        let narrowed = configured.filtered(|name| winners.iter().any(|w| w.2 == name));
        (DecisionKind::Narrowed, narrowed)
    }

    /// Plans one [`Decision`] per corpus block against a fixed table
    /// snapshot. Decisions depend only on the block's corpus index, so a
    /// parallel batch makes the same plan a serial one would.
    pub fn plan(
        &self,
        blocks: &[Superblock],
        machine: &MachineConfig,
        configured: &PolicySet,
        options: &AdaptiveOptions,
    ) -> Vec<Decision> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, sb)| {
                let class = BlockClass::of(sb, machine);
                let draw = explore_draw(options.seed, i as u64);
                let (kind, policies) = self.select(&class, configured, options, draw);
                Decision {
                    class,
                    kind,
                    policies,
                }
            })
            .collect()
    }

    /// Serializes the table as pretty JSON (the [`SELECTOR_FILE`]
    /// format). Classes and per-class policies are kept sorted, so the
    /// bytes are a deterministic function of the observations.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("selector tables serialize")
    }

    /// Parses a persisted table. A malformed document or a version
    /// mismatch yields `None` — callers restart with a cold table.
    fn from_json(text: &str) -> Option<SelectorTable> {
        let table: SelectorTable = serde_json::from_str(text).ok()?;
        (table.version == SELECTOR_VERSION).then_some(table)
    }

    /// Loads the table persisted at `path`, or a cold table when the
    /// file is absent, unreadable, or from another format version.
    pub fn load(path: &std::path::Path) -> SelectorTable {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| SelectorTable::from_json(&text))
            .unwrap_or_default()
    }

    /// Persists the table at `path` (atomically, via a sibling temp file,
    /// so a killed run can tear the temp copy but never the table).
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json() + "\n")
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Selector accounting for one adaptive batch, reported in the batch
/// summary (and aggregated by `vcsched serve`'s `stats`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptiveSummary {
    /// Exploration seed the run used.
    pub seed: u64,
    /// Classes the table knew when the batch started.
    pub classes_known: usize,
    /// Blocks raced with a narrowed set (the selector "hits").
    pub narrowed: usize,
    /// Blocks raced full because their class was unseen/under-observed.
    pub full_unseen: usize,
    /// Blocks raced full on the ε-exploration schedule.
    pub full_explore: usize,
    /// `narrowed / blocks` — the selector hit rate.
    pub narrow_rate: f64,
    /// Policy slots the narrowing skipped (Σ configured−raced over
    /// narrowed blocks): the work adaptive mode did not do.
    pub policies_skipped: u64,
}

/// Builds the batch-level [`AdaptiveSummary`] from the planned
/// decisions.
pub fn summarize(
    decisions: &[Decision],
    configured: &PolicySet,
    seed: u64,
    classes_known: usize,
) -> AdaptiveSummary {
    let mut narrowed = 0usize;
    let mut full_unseen = 0usize;
    let mut full_explore = 0usize;
    let mut skipped = 0u64;
    for d in decisions {
        match d.kind {
            DecisionKind::Narrowed => {
                narrowed += 1;
                skipped += (configured.names().len() - d.policies.names().len()) as u64;
            }
            DecisionKind::FullUnseen => full_unseen += 1,
            DecisionKind::FullExplore => full_explore += 1,
        }
    }
    AdaptiveSummary {
        seed,
        classes_known,
        narrowed,
        full_unseen,
        full_explore,
        narrow_rate: if decisions.is_empty() {
            0.0
        } else {
            narrowed as f64 / decisions.len() as f64
        },
        policies_skipped: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::PolicyStat;
    use vcsched_arch::OpClass;
    use vcsched_ir::{Schedule, SuperblockBuilder};
    use vcsched_policy::PolicyFallback;

    fn block(ops: usize) -> Superblock {
        let mut b = SuperblockBuilder::new("t");
        let mut prev = b.inst(OpClass::Int, 1);
        for _ in 1..ops {
            let next = b.inst(OpClass::Int, 1);
            b.data_dep(prev, next);
            prev = next;
        }
        let x = b.exit(1, 1.0);
        b.data_dep(prev, x);
        b.build().unwrap()
    }

    fn outcome(winner: &str, raced: &[(&str, u64)]) -> BlockOutcome {
        BlockOutcome {
            winner: winner.to_owned(),
            awct: 1.0,
            vc_steps: 0,
            vc_timed_out: false,
            schedule: Schedule {
                cycles: vec![0],
                clusters: vec![vcsched_arch::ClusterId(0)],
                copies: vec![],
            },
            policy_stats: raced
                .iter()
                .map(|&(p, steps)| PolicyStat {
                    policy: p.to_owned(),
                    steps,
                    awct: Some(1.0),
                    fallback: PolicyFallback::None,
                    wall_ms: 0,
                })
                .collect(),
            vc_spec: Default::default(),
        }
    }

    fn opts(min_obs: u64, epsilon: f64, top_k: usize) -> AdaptiveOptions {
        AdaptiveOptions {
            top_k,
            epsilon,
            min_observations: min_obs,
            seed: 7,
        }
    }

    #[test]
    fn classes_bucket_ops_and_count_exits() {
        let m = MachineConfig::paper_2c_8w();
        let small = BlockClass::of(&block(4), &m);
        let also_small = BlockClass::of(&block(6), &m);
        let bigger = BlockClass::of(&block(20), &m);
        assert_eq!(small, also_small, "same bucket, same class");
        assert_ne!(small, bigger);
        assert!(small.key().contains("ops0-7"), "{small}");
        assert!(bigger.key().contains("ops16-31"), "{bigger}");
        assert!(small.key().contains("exits1"), "{small}");
        assert!(
            small.key().starts_with(m.name()),
            "class must be machine-specific: {small}"
        );
    }

    #[test]
    fn unseen_and_underobserved_classes_race_full() {
        let table = SelectorTable::new();
        let class = BlockClass("x".into());
        let full = PolicySet::full();
        let (kind, set) = table.select(&class, &full, &opts(1, 0.0, 3), 0.9);
        assert_eq!(kind, DecisionKind::FullUnseen);
        assert_eq!(set, full);

        let mut table = SelectorTable::new();
        table.observe(&class, &outcome("vc", &[("vc", 10), ("cars", 0)]));
        let (kind, _) = table.select(&class, &full, &opts(2, 0.0, 3), 0.9);
        assert_eq!(kind, DecisionKind::FullUnseen, "one observation < min 2");
        let (kind, set) = table.select(&class, &full, &opts(1, 0.0, 3), 0.9);
        assert_eq!(kind, DecisionKind::Narrowed);
        assert_eq!(set.key(), "vc");
    }

    #[test]
    fn exploration_draw_races_full() {
        let mut table = SelectorTable::new();
        let class = BlockClass("x".into());
        table.observe(&class, &outcome("cars", &[("vc", 10), ("cars", 0)]));
        let full = PolicySet::full();
        let (kind, set) = table.select(&class, &full, &opts(1, 0.5, 3), 0.25);
        assert_eq!(kind, DecisionKind::FullExplore);
        assert_eq!(set, full);
        let (kind, set) = table.select(&class, &full, &opts(1, 0.5, 3), 0.75);
        assert_eq!(kind, DecisionKind::Narrowed);
        assert_eq!(set.key(), "cars");
    }

    #[test]
    fn narrowing_ranks_by_wins_and_caps_at_top_k() {
        let mut table = SelectorTable::new();
        let class = BlockClass("x".into());
        for _ in 0..3 {
            table.observe(&class, &outcome("uas", &[("vc", 5), ("uas", 0)]));
        }
        table.observe(&class, &outcome("vc", &[("vc", 5), ("uas", 0)]));
        table.observe(&class, &outcome("two-phase", &[("two-phase", 0)]));
        let full = PolicySet::full();
        // uas (3 wins) > vc (1) = two-phase (1); canonical order puts vc
        // before two-phase on the tie; top-2 keeps uas,vc.
        let (kind, set) = table.select(&class, &full, &opts(1, 0.0, 2), 0.9);
        assert_eq!(kind, DecisionKind::Narrowed);
        assert_eq!(set.key(), "vc,uas", "canonical spelling of {{uas,vc}}");
        // top-3 admits the tie loser too.
        let (_, set) = table.select(&class, &full, &opts(1, 0.0, 3), 0.9);
        assert_eq!(set.key(), "vc,uas,two-phase");
    }

    #[test]
    fn fallback_only_classes_stay_full() {
        // Every win went to the implicit CARS fallback, which is outside
        // the configured vc-only set: nothing to narrow to.
        let mut table = SelectorTable::new();
        let class = BlockClass("x".into());
        table.observe(&class, &outcome("cars", &[("vc", 9), ("cars", 0)]));
        let vc_only = PolicySet::parse("vc").unwrap();
        let (kind, set) = table.select(&class, &vc_only, &opts(1, 0.0, 3), 0.9);
        assert_eq!(kind, DecisionKind::FullUnseen);
        assert_eq!(set, vc_only);
    }

    #[test]
    fn observe_accumulates_and_json_roundtrips() {
        let mut table = SelectorTable::new();
        let m = MachineConfig::paper_2c_8w();
        let class = BlockClass::of(&block(10), &m);
        table.observe(&class, &outcome("vc", &[("vc", 100), ("cars", 0)]));
        table.observe(&class, &outcome("cars", &[("vc", 50), ("cars", 0)]));
        assert_eq!(table.blocks_observed(), 2);
        let stats = table.class(&class).expect("observed");
        assert_eq!(stats.blocks, 2);
        let vc = stats.policies.iter().find(|p| p.policy == "vc").unwrap();
        assert_eq!((vc.wins, vc.steps, vc.races), (1, 150, 2));

        let back = SelectorTable::from_json(&table.to_json()).expect("roundtrip");
        assert_eq!(back, table);
        // A future version is ignored, not misread.
        let future = table
            .to_json()
            .replace("\"version\": 1", "\"version\": 999");
        assert!(SelectorTable::from_json(&future).is_none());
    }

    #[test]
    fn save_load_roundtrip_and_cold_start() {
        let dir = std::env::temp_dir().join(format!("vcsched-selector-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SELECTOR_FILE);
        assert_eq!(SelectorTable::load(&path), SelectorTable::new());
        let mut table = SelectorTable::new();
        table.observe(&BlockClass("x".into()), &outcome("vc", &[("vc", 3)]));
        table.save(&path).expect("saves");
        assert_eq!(SelectorTable::load(&path), table);
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(SelectorTable::load(&path), SelectorTable::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_draws_are_deterministic_and_in_range() {
        for i in 0..256u64 {
            let a = explore_draw(42, i);
            assert_eq!(a, explore_draw(42, i));
            assert!((0.0..1.0).contains(&a));
        }
        // The stream actually varies by index and by seed.
        assert_ne!(explore_draw(42, 0), explore_draw(42, 1));
        assert_ne!(explore_draw(42, 0), explore_draw(43, 0));
        // ε = 1/16 fires in roughly that proportion.
        let fired = (0..4096)
            .filter(|&i| explore_draw(9, i) < 1.0 / 16.0)
            .count();
        assert!((100..420).contains(&fired), "ε schedule fired {fired}/4096");
    }

    #[test]
    fn plan_is_a_pure_function_of_the_snapshot() {
        let m = MachineConfig::paper_2c_8w();
        let blocks: Vec<Superblock> = (3..11).map(block).collect();
        let mut table = SelectorTable::new();
        for sb in &blocks {
            table.observe(
                &BlockClass::of(sb, &m),
                &outcome("cars", &[("vc", 10), ("cars", 0)]),
            );
        }
        let options = opts(1, 0.25, 2);
        let a = table.plan(&blocks, &m, &PolicySet::full(), &options);
        let b = table.plan(&blocks, &m, &PolicySet::full(), &options);
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.kind == DecisionKind::Narrowed));
        let summary = summarize(&a, &PolicySet::full(), options.seed, table.classes.len());
        assert_eq!(
            summary.narrowed + summary.full_unseen + summary.full_explore,
            blocks.len()
        );
        assert!(summary.policies_skipped >= summary.narrowed as u64 * 3);
    }
}
