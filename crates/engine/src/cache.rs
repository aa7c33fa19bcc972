//! Content-addressed, memoizing schedule cache — hash-sharded for
//! concurrent access.
//!
//! The cache key is a stable FNV-1a/64 hash over the *canonical scheduling
//! problem*: the superblock's compact JSON, the machine configuration, the
//! live-in placement and the scheduler options. Identical problems —
//! across runs, processes, and `--jobs` settings — therefore hit the same
//! entry.
//!
//! Three layers:
//!
//! * an in-memory LRU map **partitioned into N shards by key hash**, one
//!   lock per shard, so concurrent lookups/inserts from the worker pool or
//!   the service front end stop serializing on a single cache lock;
//! * per-shard hit / miss / insertion / eviction counters ([`ShardStats`]),
//!   kept under the shard lock — the only count of them: `vcsched
//!   serve` renders both its `stats` reply and its `engine_cache_*`
//!   series from [`ScheduleCache::shard_stats`];
//! * an optional on-disk JSONL journal (`schedules.jsonl` in the cache
//!   directory, guarded by its own lock): entries are appended as they are
//!   produced and replayed into memory when the cache is opened, so a
//!   second corpus run is served entirely from cache.
//!
//! Sharding changes which lock guards an entry, never what a lookup
//! returns for a resident entry. Total capacity is split evenly across
//! shards, so under capacity pressure eviction boundaries are per-shard
//! and an unlucky key skew can evict earlier than a single-shard cache
//! would; when the working set fits in capacity (the intended sizing,
//! and the golden-corpus case) batch summaries are byte-identical at any
//! shard count — the regression test pins this at 1, 4, and 8 shards.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use vcsched_ir::Schedule;

use crate::portfolio::{BlockOutcome, PolicyStat};

/// Stable FNV-1a over bytes; the cache's content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a with a shifted basis: the independent second hash used to
/// verify cache hits (two independent 64-bit hashes make an undetected
/// collision astronomically unlikely; one alone would silently serve a
/// colliding problem another block's schedule).
pub fn fnv1a_check(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x5bd1_e995_7b12_6699;
    for &b in bytes {
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= u64::from(b);
    }
    h
}

/// [`fnv1a`] and [`fnv1a_check`] of the same bytes, in one pass.
pub fn fnv1a_pair(bytes: &[u8]) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut c: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x5bd1_e995_7b12_6699;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        c = c.wrapping_mul(0x0000_0100_0000_01b3);
        c ^= u64::from(b);
    }
    (h, c)
}

/// Whether a journal file is non-empty and missing its trailing newline
/// (the signature of a line torn by a killed writer).
fn journal_ends_mid_line(path: &Path) -> bool {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let Ok(mut file) = std::fs::File::open(path) else {
        return false;
    };
    let Ok(len) = file.metadata().map(|m| m.len()) else {
        return false;
    };
    if len == 0 {
        return false;
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::End(-1)).is_ok() && file.read_exact(&mut last).is_ok() && last[0] != b'\n'
}

/// What the cache remembers for one scheduling problem.
///
/// Journals written before per-policy telemetry existed still replay:
/// `stats` is `#[serde(default)]`, so a line without it (or with `null`)
/// decodes with it empty instead of failing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Hex form of the problem hash (the JSONL join key).
    pub key: String,
    /// Hex form of the independent verification hash ([`fnv1a_check`]);
    /// checked on every lookup so a primary-hash collision degrades to a
    /// miss instead of returning the wrong schedule.
    pub check: String,
    /// Name of the policy that produced the winning schedule.
    pub winner: String,
    /// Validated AWCT of the winning schedule.
    pub awct: f64,
    /// Deduction steps the VC scheduler spent (0 if VC was not run).
    pub vc_steps: u64,
    /// Whether VC exhausted its budget (CARS fallback was used).
    pub vc_timed_out: bool,
    /// The winning schedule itself.
    pub schedule: Schedule,
    /// Per-policy telemetry of the run that produced this entry.
    #[serde(default)]
    pub stats: Vec<PolicyStat>,
}

/// Hit/miss counters, snapshotted into the batch summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Problems answered from memory or disk.
    pub hits: u64,
    /// Problems that had to be scheduled.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 for an empty cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shard accounting, surfaced through the service's `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Lookups answered by this shard.
    pub hits: u64,
    /// Lookups this shard could not answer.
    pub misses: u64,
    /// Entries inserted (journal replay included).
    pub insertions: u64,
    /// Entries evicted by the shard's LRU policy.
    pub evictions: u64,
    /// Schedules currently held by this shard.
    pub len: usize,
}

/// One remembered problem: the outcome a hit answers with, the entry's
/// verification hash, and the tick of its latest touch.
struct Slot {
    outcome: BlockOutcome,
    check: u64,
    last: u64,
}

/// Splits an entry into its verification hash and the outcome a hit
/// answers with. `None` when the check text is not hex: such an entry
/// could never answer, so it is not kept.
fn slot_parts(entry: CacheEntry) -> Option<(u64, BlockOutcome)> {
    let check = u64::from_str_radix(&entry.check, 16).ok()?;
    Some((
        check,
        BlockOutcome {
            winner: entry.winner,
            awct: entry.awct,
            vc_steps: entry.vc_steps,
            vc_timed_out: entry.vc_timed_out,
            schedule: entry.schedule,
            policy_stats: entry.stats,
            vc_spec: Default::default(),
        },
    ))
}

struct Shard {
    map: HashMap<u64, Slot>,
    /// Lazy LRU recency queue: keys are re-pushed on every touch and
    /// validated against the entry's tick when evicting.
    recency: VecDeque<(u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    fn insert(&mut self, capacity: usize, key: u64, check: u64, outcome: BlockOutcome) {
        self.tick += 1;
        let tick = self.tick;
        self.insertions += 1;
        self.map.insert(
            key,
            Slot {
                outcome,
                check,
                last: tick,
            },
        );
        self.recency.push_back((key, tick));
        while self.map.len() > capacity {
            match self.recency.pop_front() {
                Some((old_key, old_tick)) => {
                    // Only evict if this queue entry is the key's latest
                    // touch; otherwise it is a stale duplicate.
                    if self
                        .map
                        .get(&old_key)
                        .is_some_and(|slot| slot.last == old_tick)
                    {
                        self.map.remove(&old_key);
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
        self.drain_stale();
    }

    /// Keeps the lazy-LRU recency queue bounded: pop stale duplicates off
    /// the front, and if hit traffic has still outgrown the live set
    /// (every live key holds exactly one current tuple; the rest are
    /// stale), rebuild the queue from the map. Without this a
    /// hit-dominated steady state would grow the queue forever.
    fn drain_stale(&mut self) {
        while let Some(&(key, tick)) = self.recency.front() {
            if self.map.get(&key).is_some_and(|slot| slot.last == tick) {
                break;
            }
            self.recency.pop_front();
        }
        if self.recency.len() > 2 * self.map.len() + 64 {
            let mut live: Vec<(u64, u64)> =
                self.map.iter().map(|(k, slot)| (*k, slot.last)).collect();
            live.sort_by_key(|&(_, t)| t);
            self.recency = live.into();
        }
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            len: self.map.len(),
        }
    }
}

/// The memoizing schedule cache: a sharded in-memory LRU plus an optional
/// disk journal.
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard LRU capacity (total capacity split evenly across shards).
    shard_capacity: usize,
    journal: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    dir: Option<PathBuf>,
}

impl ScheduleCache {
    /// A single-shard in-memory cache holding at most `capacity`
    /// schedules (see [`ScheduleCache::in_memory_sharded`]).
    pub fn in_memory(capacity: usize) -> ScheduleCache {
        ScheduleCache::in_memory_sharded(capacity, 1)
    }

    /// An in-memory cache holding at most `capacity` schedules total,
    /// hash-partitioned over `shards` independently locked shards.
    pub fn in_memory_sharded(capacity: usize, shards: usize) -> ScheduleCache {
        let shards = shards.max(1);
        ScheduleCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: capacity.max(1).div_ceil(shards).max(1),
            journal: None,
            dir: None,
        }
    }

    /// Opens the cache a run asks for: in-memory when `dir` is `None`,
    /// otherwise persistent under `dir` (created if missing), replaying
    /// any existing `schedules.jsonl` into memory. Either way it holds at
    /// most `capacity` schedules over `shards` shards.
    ///
    /// Unparseable journal lines (e.g. a tail truncated by a killed run)
    /// are skipped with a warning rather than failing the open: a cache
    /// miss costs a recomputation, never correctness.
    pub fn open(
        dir: Option<&Path>,
        capacity: usize,
        shards: usize,
    ) -> Result<ScheduleCache, String> {
        let mut cache = ScheduleCache::in_memory_sharded(capacity, shards);
        let Some(dir) = dir else {
            return Ok(cache);
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("schedules.jsonl");
        cache.dir = Some(dir.to_path_buf());
        if path.exists() {
            let file =
                std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut skipped = 0usize;
            for line in std::io::BufReader::new(file).lines() {
                let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = serde_json::from_str::<CacheEntry>(&line)
                    .ok()
                    .and_then(|entry| {
                        let key = u64::from_str_radix(&entry.key, 16).ok()?;
                        Some((key, slot_parts(entry)?))
                    });
                match parsed {
                    Some((key, (check, outcome))) => cache.insert(key, check, outcome),
                    None => skipped += 1,
                }
            }
            if skipped > 0 {
                eprintln!(
                    "warning: {}: skipped {skipped} corrupt cache line(s); \
                     affected blocks will be rescheduled",
                    path.display()
                );
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // A crash can tear the journal's last line, leaving no trailing
        // newline; appending the next entry right after the torn tail
        // would corrupt that entry as well. Start on a fresh line.
        if journal_ends_mid_line(&path) {
            use std::io::Write as _;
            let _ = file.write_all(b"\n");
        }
        cache.journal = Some(Mutex::new(std::io::BufWriter::new(file)));
        Ok(cache)
    }

    /// The cache directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The shard a key lives in. FNV output is uniform, so a plain
    /// modulus spreads keys evenly.
    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks up a problem hash, counting a hit or miss on its shard; a
    /// hit answers with a copy of the remembered outcome. `check` is the
    /// problem's [`fnv1a_check`] hash; an entry whose stored check hash
    /// differs is a primary-hash collision and is treated as a miss.
    pub fn get(&self, key: u64, check: u64) -> Option<BlockOutcome> {
        self.lookup(key, check, true)
    }

    /// Looks up a problem hash like [`ScheduleCache::get`], but counts
    /// only a hit. For a caller that answers hits itself and hands a
    /// miss to a solver, which looks the key up again with
    /// [`ScheduleCache::get`]: the miss is counted once, there.
    pub fn probe(&self, key: u64, check: u64) -> Option<BlockOutcome> {
        self.lookup(key, check, false)
    }

    fn lookup(&self, key: u64, check: u64, count_miss: bool) -> Option<BlockOutcome> {
        let mut shard = self.shard_of(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        let hit = match shard.map.get_mut(&key) {
            Some(slot) if slot.check == check => {
                slot.last = tick;
                let outcome = slot.outcome.clone();
                shard.recency.push_back((key, tick));
                shard.hits += 1;
                Some(outcome)
            }
            _ => {
                shard.misses += u64::from(count_miss);
                None
            }
        };
        shard.drain_stale();
        hit
    }

    /// Stores a freshly computed entry, journaling it if persistent. The
    /// journal lock and the shard lock are taken one after the other,
    /// never nested, so writers on different shards only contend on the
    /// (I/O-bound) append itself.
    pub fn put(&self, key: u64, entry: CacheEntry) {
        if let Some(journal) = &self.journal {
            // One JSON object per line; the compact printer never emits
            // newlines.
            if let Ok(line) = serde_json::to_string(&entry) {
                let _ = writeln!(journal.lock().unwrap(), "{line}");
            }
        }
        if let Some((check, outcome)) = slot_parts(entry) {
            self.insert(key, check, outcome);
        }
    }

    /// Inserts into the key's shard without journaling.
    fn insert(&self, key: u64, check: u64, outcome: BlockOutcome) {
        self.shard_of(key)
            .lock()
            .unwrap()
            .insert(self.shard_capacity, key, check, outcome);
    }

    /// Flushes the disk journal (no-op for in-memory caches).
    pub fn flush(&self) {
        if let Some(journal) = &self.journal {
            let _ = journal.lock().unwrap().flush();
        }
    }

    /// Snapshot of the hit/miss counters, summed over shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().stats())
            .collect()
    }

    /// Number of schedules currently held in memory (all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for ScheduleCache {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test entries use `check == key` for brevity.
    fn entry(key: u64, awct: f64) -> CacheEntry {
        CacheEntry {
            key: format!("{key:016x}"),
            check: format!("{key:016x}"),
            winner: "cars".to_owned(),
            awct,
            vc_steps: 0,
            vc_timed_out: false,
            schedule: Schedule {
                cycles: vec![0, 1],
                clusters: vec![vcsched_arch::ClusterId(0); 2],
                copies: vec![],
            },
            stats: Vec::new(),
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        // The check hash is independent of the primary.
        assert_ne!(fnv1a_check(b"foobar"), fnv1a(b"foobar"));
        assert_ne!(fnv1a_check(b"a"), fnv1a_check(b"b"));
        for bytes in [&b""[..], b"a", b"foobar", "é|x".as_bytes()] {
            assert_eq!(fnv1a_pair(bytes), (fnv1a(bytes), fnv1a_check(bytes)));
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = ScheduleCache::in_memory(8);
        assert!(c.get(1, 1).is_none());
        c.put(1, entry(1, 5.0));
        let hit = c.get(1, 1).expect("hit");
        assert_eq!(hit.awct, 5.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn primary_hash_collision_degrades_to_miss() {
        let c = ScheduleCache::in_memory(8);
        c.put(1, entry(1, 5.0));
        // Same primary key, different verification hash: another problem
        // colliding under FNV must not be served this entry's schedule.
        assert!(c.get(1, 999).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    /// Lookups compare the check hash as a number; an entry whose check
    /// is not hex is not kept, so it never answers.
    #[test]
    fn check_hashes_compare_as_numbers() {
        let c = ScheduleCache::in_memory(8);
        c.put(1, entry(1, 5.0));
        c.put(
            2,
            CacheEntry {
                check: "not hex".to_owned(),
                ..entry(2, 5.0)
            },
        );
        assert!(c.get(1, 1).is_some());
        assert!(c.get(2, 2).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = ScheduleCache::in_memory(2);
        c.put(1, entry(1, 1.0));
        c.put(2, entry(2, 2.0));
        assert!(c.get(1, 1).is_some()); // touch 1: now 2 is LRU
        c.put(3, entry(3, 3.0)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(2, 2).is_none());
        assert!(c.get(1, 1).is_some());
        assert!(c.get(3, 3).is_some());
        let shard = &c.shard_stats()[0];
        assert_eq!(shard.insertions, 3);
        assert_eq!(shard.evictions, 1);
        assert_eq!(shard.len, 2);
    }

    #[test]
    fn recency_queue_stays_bounded_under_hit_traffic() {
        let c = ScheduleCache::in_memory(4);
        for k in 0..4 {
            c.put(k, entry(k, 1.0));
        }
        for _ in 0..10_000 {
            for k in 0..4 {
                assert!(c.get(k, k).is_some());
            }
        }
        let shard = c.shards[0].lock().unwrap();
        assert!(
            shard.recency.len() <= 2 * shard.map.len() + 64,
            "recency queue grew to {} entries",
            shard.recency.len()
        );
    }

    #[test]
    fn shards_partition_the_key_space() {
        let c = ScheduleCache::in_memory_sharded(64, 4);
        assert_eq!(c.shard_stats().len(), 4);
        for k in 0..32u64 {
            c.put(k, entry(k, k as f64));
        }
        for k in 0..32u64 {
            assert_eq!(c.get(k, k).expect("present").awct, k as f64);
        }
        let shards = c.shard_stats();
        // key % 4 places exactly 8 keys on each shard.
        assert!(shards.iter().all(|s| s.len == 8 && s.insertions == 8));
        let total: u64 = shards.iter().map(|s| s.hits).sum();
        assert_eq!(total, 32);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 32,
                misses: 0
            }
        );
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn shard_count_does_not_change_contents() {
        // The same traffic against 1 and 8 shards yields identical
        // entries and identical aggregate accounting.
        let results: Vec<(Vec<f64>, CacheStats)> = [1usize, 8]
            .into_iter()
            .map(|n| {
                let c = ScheduleCache::in_memory_sharded(256, n);
                for k in 0..40u64 {
                    assert!(c.get(k, k).is_none());
                    c.put(k, entry(k, (k * 3) as f64));
                }
                let values = (0..40u64)
                    .map(|k| c.get(k, k).expect("present").awct)
                    .collect();
                (values, c.stats())
            })
            .collect();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn persistent_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vcsched-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ScheduleCache::open(Some(&dir), 64, 1).expect("open");
            c.put(42, entry(42, 7.5));
            c.flush();
        }
        // Replaying under a different shard count still finds the entry.
        let c = ScheduleCache::open(Some(&dir), 64, 4).expect("reopen");
        let hit = c.get(42, 42).expect("replayed from disk");
        assert_eq!(hit.awct, 7.5);
        assert_eq!(hit.winner, "cars");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_without_stats_still_replay() {
        // A journal written before per-policy telemetry existed: the
        // entry must replay with empty stats, not be skipped as corrupt.
        let legacy = serde_json::to_string(&entry(9, 2.5)).unwrap();
        let legacy = legacy.replace(",\"stats\":[]", "");
        assert!(!legacy.contains("stats"), "{legacy}");
        let parsed: CacheEntry = serde_json::from_str(&legacy).expect("legacy line parses");
        assert_eq!(parsed, entry(9, 2.5));
    }
}
