//! Concurrency stress tests for the sharded schedule cache, plus the
//! truncated-journal recovery path.
//!
//! Many threads hammer `get`/`put` on overlapping keys and the test then
//! audits the books: no accepted insert may be lost (while capacity
//! allows), every lookup must be counted exactly once as a hit or a
//! miss, and the per-shard counters must sum to the totals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vcsched_engine::cache::{CacheEntry, ScheduleCache};
use vcsched_ir::Schedule;

/// Stress entries use `check == key` so any key can be looked up.
fn entry(key: u64, awct: f64) -> CacheEntry {
    CacheEntry {
        key: format!("{key:016x}"),
        check: format!("{key:016x}"),
        winner: "cars".to_owned(),
        awct,
        vc_steps: 0,
        vc_timed_out: false,
        schedule: Schedule {
            cycles: vec![0],
            clusters: vec![vcsched_arch::ClusterId(0)],
            copies: vec![],
        },
        stats: Vec::new(),
    }
}

/// All threads write deterministic values per key, so whatever copy wins
/// a racing double-insert is indistinguishable — the invariant is that
/// *some* copy with the right payload survives.
fn value_of(key: u64) -> f64 {
    (key * 7 + 1) as f64
}

#[test]
fn concurrent_overlapping_traffic_loses_nothing() {
    const THREADS: usize = 8;
    const OPS: usize = 2_000;
    const KEYS: u64 = 64;

    for shards in [1usize, 4, 8] {
        // Capacity far above the live set: nothing may ever be evicted.
        let cache = Arc::new(ScheduleCache::in_memory_sharded(1024, shards));
        let gets = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let gets = Arc::clone(&gets);
                std::thread::spawn(move || {
                    // Each thread walks the shared key space from its own
                    // offset so lookups and inserts overlap heavily.
                    for i in 0..OPS {
                        let key = ((t * 13 + i * 7) as u64) % KEYS;
                        gets.fetch_add(1, Ordering::Relaxed);
                        match cache.get(key, key) {
                            Some(hit) => assert_eq!(
                                hit.awct,
                                value_of(key),
                                "hit on key {key} returned another problem's payload"
                            ),
                            None => cache.put(key, entry(key, value_of(key))),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress thread");
        }

        // No lost inserts: every key that was ever put must be resident
        // (capacity 1024 >> 64 live keys rules out eviction).
        for key in 0..KEYS {
            let hit = cache
                .get(key, key)
                .unwrap_or_else(|| panic!("key {key} lost (shards={shards})"));
            assert_eq!(hit.awct, value_of(key));
        }
        assert_eq!(cache.len(), KEYS as usize, "shards={shards}");

        // Stable accounting: every stress-loop get counted exactly once,
        // plus the KEYS audit hits above; shard counters sum to totals.
        let totals = cache.stats();
        assert_eq!(
            totals.hits + totals.misses,
            gets.load(Ordering::Relaxed) + KEYS,
            "every lookup must be booked exactly once (shards={shards})"
        );
        let shard_stats = cache.shard_stats();
        assert_eq!(shard_stats.len(), shards);
        assert_eq!(shard_stats.iter().map(|s| s.hits).sum::<u64>(), totals.hits);
        assert_eq!(
            shard_stats.iter().map(|s| s.misses).sum::<u64>(),
            totals.misses
        );
        assert_eq!(
            shard_stats.iter().map(|s| s.len).sum::<usize>(),
            cache.len()
        );
        // Nothing was evicted, so insertions == resident entries +
        // racing duplicates, and duplicates never exceed total puts.
        let insertions: u64 = shard_stats.iter().map(|s| s.insertions).sum();
        assert_eq!(shard_stats.iter().map(|s| s.evictions).sum::<u64>(), 0);
        assert!(insertions >= KEYS, "at least one insert per key");
        assert_eq!(insertions, totals.misses, "one put per counted miss");
    }
}

#[test]
fn eviction_accounting_balances_under_pressure() {
    let cache = ScheduleCache::in_memory_sharded(32, 4);
    // Single-threaded pressure is enough here: the concurrency is covered
    // above; this test pins the books under forced eviction.
    for key in 0..1_000u64 {
        cache.put(key, entry(key, value_of(key)));
    }
    let shard_stats = cache.shard_stats();
    let insertions: u64 = shard_stats.iter().map(|s| s.insertions).sum();
    let evictions: u64 = shard_stats.iter().map(|s| s.evictions).sum();
    assert_eq!(insertions, 1_000);
    assert_eq!(
        insertions - evictions,
        cache.len() as u64,
        "inserted minus evicted must equal resident"
    );
    // Per-shard capacity is ceil(32/4) = 8.
    for (i, s) in shard_stats.iter().enumerate() {
        assert!(s.len <= 8, "shard {i} holds {} > 8 entries", s.len);
    }
}

#[test]
fn truncated_journal_line_recovers_to_a_miss() {
    let dir =
        std::env::temp_dir().join(format!("vcsched-journal-truncation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = ScheduleCache::open(Some(&dir), 64, 4).expect("open");
        for key in 0..10u64 {
            cache.put(key, entry(key, value_of(key)));
        }
        cache.flush();
    }

    // Simulate a crash mid-append: chop the journal in the middle of its
    // last line.
    let journal = dir.join("schedules.jsonl");
    let bytes = std::fs::read(&journal).expect("journal exists");
    let last_line_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    let cut = last_line_start + (bytes.len() - last_line_start) / 2;
    std::fs::write(&journal, &bytes[..cut]).expect("truncate");

    // Reopen: the nine intact lines replay, the torn line degrades to a
    // miss — never an error, never a wrong schedule.
    let cache = ScheduleCache::open(Some(&dir), 64, 4).expect("reopen after truncation");
    assert_eq!(cache.len(), 9, "intact journal lines must replay");
    for key in 0..9u64 {
        assert_eq!(
            cache.get(key, key).expect("intact entry").awct,
            value_of(key)
        );
    }
    assert!(
        cache.get(9, 9).is_none(),
        "the torn entry must fall out as a miss"
    );

    // The recovered cache keeps journaling: re-insert the lost entry and
    // reopen once more — everything is back.
    cache.put(9, entry(9, value_of(9)));
    cache.flush();
    drop(cache);
    let cache = ScheduleCache::open(Some(&dir), 64, 1).expect("reopen again");
    assert_eq!(cache.len(), 10);
    for key in 0..10u64 {
        assert!(cache.get(key, key).is_some(), "key {key} after recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
