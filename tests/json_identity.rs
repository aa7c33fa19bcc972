//! Byte identity of the direct JSON writers.
//!
//! `serde_json::to_string` prints derived structs, newtypes, unit-only
//! enums and the std types straight from the typed value
//! (`Serialize::write_json`). The oracle is the tree printer:
//! `serde::json::write_value(&x.to_value())`, the path every value took
//! before the direct writers existed. Every wire, journal and cache-key
//! byte depends on the two agreeing, so each seeded case draws values
//! with strings that need escapes and with non-finite floats.

use proptest::prelude::*;
use serde::{Serialize, Value};
use vcsched::arch::ClusterId;
use vcsched::engine::cache::CacheEntry;
use vcsched::engine::portfolio::PolicyStat;
use vcsched::engine::{
    run_batch, AdaptiveOptions, BatchConfig, BatchSummary, CorpusSource, PolicySet, STEPS_1S,
};
use vcsched::ir::{CopyOp, InstId, Schedule, Superblock};
use vcsched::policy::PolicyFallback;
use vcsched::service::protocol::{
    response_line, BlockReply, CacheReply, LatencyReply, PolicyTotalsReply, PriorityLatencyReply,
    Request, Response, ScheduleMode, ScheduleReply, SelectorStatsReply, ShardReply, StatsReply,
};
use vcsched::workload::{benchmarks, generate_block, InputSet};

/// SplitMix64: the cases' own generator, seeded by proptest.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.flip() {
            Some(f(self))
        } else {
            None
        }
    }

    /// A string mixing plain text, every character JSON escapes
    /// specially, other control characters and multi-byte UTF-8.
    fn string(&mut self) -> String {
        const PALETTE: &[char] = &[
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
            '\u{c}', '\u{1f}', '\u{7f}', 'é', '✓', '𝄞',
        ];
        let len = self.below(12);
        (0..len)
            .map(|_| PALETTE[self.below(PALETTE.len() as u64) as usize])
            .collect()
    }

    /// A float: ordinary, integral, tiny, huge, or non-finite.
    fn float(&mut self) -> f64 {
        match self.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => self.below(1000) as f64,
            4 => -1e-300 * self.below(7) as f64,
            5 => 1e300,
            _ => f64::from_bits(self.next() >> 2) * if self.flip() { 1.0 } else { -1.0 },
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(3) {
            0 => self.below(10),
            1 => u64::MAX - self.below(10),
            _ => self.next(),
        }
    }

    fn u8(&mut self) -> u8 {
        self.next() as u8
    }

    fn names(&mut self) -> Vec<String> {
        (0..self.below(4)).map(|_| self.string()).collect()
    }

    /// A generated block renamed to an escape-heavy name.
    fn block(&mut self) -> Superblock {
        let specs = benchmarks();
        let spec = &specs[self.below(specs.len() as u64) as usize];
        let sb = generate_block(spec, self.below(50), self.below(20), InputSet::Ref);
        let Value::Object(mut fields) = sb.to_value() else {
            panic!("a superblock is an object")
        };
        fields[0] = ("name".to_owned(), Value::String(self.string()));
        serde_json::from_value(&Value::Object(fields)).expect("a renamed block is valid")
    }

    fn schedule(&mut self) -> Schedule {
        let n = self.below(6) as usize;
        Schedule {
            cycles: (0..n).map(|_| self.next() as i64).collect(),
            clusters: (0..n).map(|_| ClusterId(self.u8())).collect(),
            copies: (0..self.below(3))
                .map(|_| CopyOp {
                    value: InstId(self.next() as u32),
                    from: ClusterId(self.u8()),
                    to: ClusterId(self.u8()),
                    cycle: self.next() as i64,
                })
                .collect(),
        }
    }

    fn policy_stat(&mut self) -> PolicyStat {
        const FALLBACKS: [PolicyFallback; 5] = [
            PolicyFallback::None,
            PolicyFallback::Budget,
            PolicyFallback::Beaten,
            PolicyFallback::GaveUp,
            PolicyFallback::Deadline,
        ];
        PolicyStat {
            policy: self.string(),
            steps: self.u64(),
            awct: self.maybe(Gen::float),
            fallback: FALLBACKS[self.below(5) as usize],
            wall_ms: self.u64(),
        }
    }

    fn policy_stats(&mut self) -> Vec<PolicyStat> {
        (0..self.below(4)).map(|_| self.policy_stat()).collect()
    }

    /// An arbitrary value tree, the payload of `batch` and `metrics`
    /// replies.
    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.flip()),
            2 => Value::Int(self.next() as i64),
            3 => Value::UInt(self.u64()),
            4 => Value::Float(self.float()),
            5 => Value::String(self.string()),
            6 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

/// The tree printer's compact output: the oracle.
fn tree_printed<T: Serialize>(x: &T) -> String {
    let mut out = String::new();
    serde::json::write_value(&x.to_value(), &mut out, None, 0);
    out
}

fn assert_direct_matches_tree<T: Serialize + std::fmt::Debug>(x: &T) -> Result<(), String> {
    let direct = serde_json::to_string(x).expect("printing is infallible");
    let tree = tree_printed(x);
    if direct == tree {
        Ok(())
    } else {
        Err(format!(
            "direct writer and tree printer disagree on {x:?}:\n{direct}\n{tree}"
        ))
    }
}

fn requests(g: &mut Gen) -> Vec<Request> {
    const MODES: [ScheduleMode; 2] = [ScheduleMode::Single, ScheduleMode::Portfolio];
    vec![
        Request::Schedule {
            block: g.block(),
            machine: g.string(),
            policies: g.maybe(Gen::names),
            mode: g.maybe(|g| MODES[g.below(2) as usize]),
            steps: g.maybe(Gen::u64),
            budget_bytes: g.maybe(Gen::u64),
            early_cancel: g.maybe(Gen::flip),
            adaptive: g.maybe(Gen::flip),
            placement_seed: g.maybe(Gen::u64),
            return_schedule: g.flip(),
            deadline_ms: g.maybe(Gen::u64),
            priority: g.maybe(Gen::u8),
        },
        Request::Batch {
            bench: g.string(),
            count: g.next() as usize,
            seed: g.u64(),
            machine: g.string(),
            policies: g.maybe(Gen::names),
            portfolio: g.maybe(Gen::flip),
            steps: g.maybe(Gen::u64),
            budget_bytes: g.maybe(Gen::u64),
            early_cancel: g.maybe(Gen::flip),
            adaptive: g.maybe(Gen::flip),
            stream: g.flip(),
            deadline_ms: g.maybe(Gen::u64),
            priority: g.maybe(Gen::u8),
        },
        Request::Stats,
        Request::Metrics,
        Request::Ping {
            delay_ms: g.u64(),
            priority: g.maybe(Gen::u8),
        },
        Request::Shutdown,
    ]
}

fn schedule_reply(g: &mut Gen) -> ScheduleReply {
    ScheduleReply {
        winner: g.string(),
        awct: g.float(),
        vc_steps: g.u64(),
        vc_timed_out: g.flip(),
        cached: g.flip(),
        copies: g.next() as usize,
        policies: g.policy_stats(),
        schedule: g.maybe(Gen::schedule),
        deadline_fired: g.flip(),
    }
}

fn stats_reply(g: &mut Gen) -> StatsReply {
    StatsReply {
        jobs: g.next() as usize,
        queue_capacity: g.next() as usize,
        queue_depth: g.next() as usize,
        accepted: g.u64(),
        rejected: g.u64(),
        completed: g.u64(),
        connections_open: g.u64(),
        connections_total: g.u64(),
        policies: (0..g.below(3))
            .map(|_| PolicyTotalsReply {
                policy: g.string(),
                wins: g.u64(),
                steps: g.u64(),
                fallbacks: g.u64(),
            })
            .collect(),
        cache: CacheReply {
            hits: g.u64(),
            misses: g.u64(),
            hit_rate: g.float(),
            len: g.next() as usize,
            shards: (0..g.below(3))
                .map(|_| ShardReply {
                    hits: g.u64(),
                    misses: g.u64(),
                    insertions: g.u64(),
                    evictions: g.u64(),
                    len: g.next() as usize,
                })
                .collect(),
        },
        adaptive: g.maybe(|g| SelectorStatsReply {
            classes: g.next() as usize,
            blocks_observed: g.u64(),
            narrowed: g.u64(),
            full_unseen: g.u64(),
            full_explore: g.u64(),
        }),
        uptime_ms: g.u64(),
        latency: (0..g.below(3))
            .map(|_| LatencyReply {
                request: g.string(),
                count: g.u64(),
                p50_us: g.u64(),
                p90_us: g.u64(),
                p99_us: g.u64(),
                p999_us: g.u64(),
                by_priority: (0..g.below(3))
                    .map(|_| PriorityLatencyReply {
                        priority: g.u8(),
                        count: g.u64(),
                        p50_us: g.u64(),
                        p90_us: g.u64(),
                        p99_us: g.u64(),
                        p999_us: g.u64(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn responses(g: &mut Gen) -> Vec<Response> {
    vec![
        Response::Schedule(schedule_reply(g)),
        Response::Batch {
            summary: g.value(3),
        },
        Response::Block(BlockReply {
            index: g.next() as usize,
            winner: g.string(),
            awct: g.float(),
            cached: g.flip(),
            copies: g.next() as usize,
        }),
        Response::Stats(stats_reply(g)),
        Response::Metrics {
            metrics: g.value(3),
        },
        Response::Pong { delay_ms: g.u64() },
        Response::Bye,
        Response::Error {
            error: g.string(),
            retry_after_ms: g.maybe(Gen::u64),
        },
    ]
}

fn cache_entry(g: &mut Gen) -> CacheEntry {
    CacheEntry {
        key: g.string(),
        check: g.string(),
        winner: g.string(),
        awct: g.float(),
        vc_steps: g.u64(),
        vc_timed_out: g.flip(),
        schedule: g.schedule(),
        stats: g.policy_stats(),
    }
}

/// Summaries of two small real batches, one full race and one
/// adaptive, so every nested summary type is present.
fn real_summaries() -> &'static [BatchSummary; 2] {
    static SUMMARIES: std::sync::OnceLock<[BatchSummary; 2]> = std::sync::OnceLock::new();
    SUMMARIES.get_or_init(|| {
        let run = |adaptive: Option<AdaptiveOptions>| {
            run_batch(&BatchConfig {
                source: CorpusSource::Synth {
                    bench: "130.li".to_owned(),
                    count: 3,
                    seed: 5,
                },
                jobs: 1,
                max_dp_steps: STEPS_1S,
                policies: PolicySet::full(),
                adaptive,
                ..BatchConfig::default()
            })
            .expect("batch runs")
            .summary
        };
        [run(None), run(Some(AdaptiveOptions::default()))]
    })
}

fn batch_summary(g: &mut Gen) -> BatchSummary {
    let mut s = real_summaries()[g.below(2) as usize].clone();
    s.corpus = g.string();
    s.machine = g.string();
    s.aggregate_awct = g.float();
    s.total_weighted_cycles = g.float();
    s.wall_ms = g.u64();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn direct_json_equals_the_tree_printer(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let sb = g.block();
        assert_direct_matches_tree(&sb)?;
        for request in requests(&mut g) {
            assert_direct_matches_tree(&request)?;
        }
        for response in responses(&mut g) {
            assert_direct_matches_tree(&response)?;
            // The reply line the server writes, with and without an id.
            for id in [None, Some(g.u64())] {
                let line = response_line(&response, id);
                let mut value = response.to_value();
                if let (Some(id), Value::Object(fields)) = (id, &mut value) {
                    let at = fields.iter().position(|(k, _)| k == "type").map_or(0, |i| i + 1);
                    fields.insert(at, ("id".to_owned(), Value::UInt(id)));
                }
                prop_assert_eq!(line, tree_printed(&value));
            }
        }
        assert_direct_matches_tree(&schedule_reply(&mut g))?;
        assert_direct_matches_tree(&stats_reply(&mut g))?;
        assert_direct_matches_tree(&cache_entry(&mut g))?;
        assert_direct_matches_tree(&batch_summary(&mut g))?;
        assert_direct_matches_tree(&g.value(4))?;
        assert_direct_matches_tree(&(0..g.below(4)).map(|_| g.maybe(Gen::float)).collect::<Vec<_>>())?;
        assert_direct_matches_tree(&g.string())?;
        assert_direct_matches_tree(&(g.next() as i64))?;
        assert_direct_matches_tree(&(g.next() as f32))?;
    }
}
