//! A shared, content-addressed lex cache.
//!
//! Network configurations within a role repeat the same line *shapes*
//! thousands of times (`vlan 251` on thirty devices, `no shutdown` on
//! every interface). Re-running the maximal-munch scanner on each
//! occurrence dominates dataset construction, so [`LexCache`] memoizes
//! the result of lexing one embedded line — the typed pattern plus the
//! bound parameters — keyed by the full embedded content (parent context
//! and original text). Each distinct line shape is lexed exactly once per
//! cache, no matter how many configurations contain it.
//!
//! The cache is sharded and internally synchronized, so the parallel
//! dataset builder shares one cache across all worker threads. Hits and
//! misses are counted with relaxed atomics and surface in the pipeline
//! statistics (`concord-cli --stats`).
//!
//! A cache can be *bounded* ([`LexCache::with_capacity`]): each shard
//! evicts with a second-chance (clock) policy once it reaches its share
//! of the capacity, so a long-lived resident process (`concord serve`)
//! holds the hot working set without growing memory without limit.
//! Evictions only ever cost a re-scan on the next occurrence of the
//! evicted shape — hit/miss counters stay exact, and an eviction is
//! counted separately.
//!
//! A cache memoizes the output of *one* token-definition set: reusing a
//! cache with a lexer built from different custom tokens returns stale
//! patterns. Callers that switch lexers must switch caches.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::Param;

/// Number of independently locked shards. A small power of two keeps
/// contention negligible at the parallelism levels the pipeline uses.
const SHARDS: usize = 16;

/// One memoized lexing result.
#[derive(Debug, Clone)]
struct CachedLine {
    pattern: String,
    params: Vec<Param>,
    /// Second-chance bit: set on every hit, cleared by one clock sweep.
    hot: bool,
}

/// One independently locked portion of the cache.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<std::sync::Arc<str>, CachedLine>,
    /// Clock order over the keys of `map` (shared allocations). Keys are
    /// only removed by eviction, which pops from here in the same step,
    /// so the queue and the map always hold the same key set.
    clock: VecDeque<std::sync::Arc<str>>,
}

/// Hit/miss/eviction counts observed by a [`LexCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the scanner.
    pub misses: u64,
    /// Entries evicted to stay under the configured capacity (0 for an
    /// unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A thread-safe memo table from embedded line content to lexing result.
#[derive(Debug, Default)]
pub struct LexCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap; 0 means unbounded.
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl LexCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> LexCache {
        Self::with_capacity(0)
    }

    /// Creates an empty cache holding at most `capacity` entries across
    /// all shards (`0` = unbounded). Once a shard reaches its share of
    /// the capacity it evicts with a second-chance (clock) policy: a
    /// shape hit since the last sweep gets one more round, everything
    /// else is dropped in insertion order.
    pub fn with_capacity(capacity: usize) -> LexCache {
        LexCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            // Round up so SHARDS * shard_cap >= capacity; a tiny bound
            // still caches at least one entry per shard.
            shard_cap: if capacity == 0 {
                0
            } else {
                capacity.div_ceil(SHARDS)
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured total capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.shard_cap * SHARDS
    }

    /// Builds the content-address of an embedded line. Parents are single
    /// lines (no `'\n'`), so newline-joining is unambiguous, and `'\x00'`
    /// separates context from original text.
    pub(crate) fn key(parents: &[String], original: &str) -> String {
        let mut key = String::with_capacity(
            parents.iter().map(|p| p.len() + 1).sum::<usize>() + original.len() + 1,
        );
        for parent in parents {
            key.push_str(parent);
            key.push('\n');
        }
        key.push('\x00');
        key.push_str(original);
        key
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up a memoized result, counting the hit or miss.
    pub(crate) fn lookup(&self, key: &str) -> Option<(String, Vec<Param>)> {
        let mut guard = self.shard(key).lock().expect("lex cache shard poisoned");
        match guard.map.get_mut(key) {
            Some(entry) => {
                entry.hot = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.pattern.clone(), entry.params.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a freshly lexed line, evicting with the clock policy when
    /// the shard is at capacity.
    ///
    /// A caller that finds the key already present lost a race: another
    /// worker missed on the same shape and inserted it first. The first
    /// write wins, and the caller's miss is recounted as a hit, so an
    /// unbounded cache counts exactly one miss per distinct shape
    /// whatever the interleaving.
    pub(crate) fn insert(&self, key: String, pattern: &str, params: &[Param]) {
        let mut guard = self.shard(&key).lock().expect("lex cache shard poisoned");
        if let Some(entry) = guard.map.get_mut(key.as_str()) {
            entry.hot = true;
            self.misses.fetch_sub(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.shard_cap > 0 {
            while guard.map.len() >= self.shard_cap {
                let Some(victim) = guard.clock.pop_front() else {
                    break; // defensive: clock and map always match.
                };
                let give_second_chance = guard
                    .map
                    .get_mut(victim.as_ref())
                    .is_some_and(|entry| std::mem::take(&mut entry.hot));
                if give_second_chance {
                    guard.clock.push_back(victim);
                } else {
                    guard.map.remove(victim.as_ref());
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let key: std::sync::Arc<str> = key.into();
        guard.clock.push_back(key.clone());
        guard.map.insert(
            key,
            CachedLine {
                pattern: pattern.to_string(),
                params: params.to_vec(),
                hot: false,
            },
        );
    }

    /// Returns the number of distinct line shapes cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lex cache shard poisoned").map.len())
            .sum()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the hit/miss/eviction counts observed so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lexer;

    #[test]
    fn second_lookup_hits() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let parents = vec!["router bgp 65015".to_string()];
        let first = lexer.lex_line_cached(&cache, &parents, "vlan 251", 3);
        let second = lexer.lex_line_cached(&cache, &parents, "vlan 251", 9);
        assert_eq!(first.pattern, second.pattern);
        assert_eq!(first.params, second.params);
        // line_no stays per-occurrence, outside the cache.
        assert_eq!(first.line_no, 3);
        assert_eq!(second.line_no, 9);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_lost_insert_race_counts_as_a_hit() {
        let cache = LexCache::new();
        let key = LexCache::key(&[], "vlan 251");
        // Two workers miss on the same shape before either inserts.
        assert!(cache.lookup(&key).is_none());
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), "vlan <num>", &[]);
        cache.insert(key, "vlan <num>", &[]);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_result_matches_uncached() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let parents = vec!["interface Port-Channel110".to_string()];
        let line = "route-target import 00:00:0c:d3:00:6e";
        let direct = lexer.lex_line(&parents, line, 8);
        lexer.lex_line_cached(&cache, &parents, line, 8); // prime
        let cached = lexer.lex_line_cached(&cache, &parents, line, 8);
        assert_eq!(cached, direct);
    }

    #[test]
    fn distinct_context_is_a_distinct_entry() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let a = lexer.lex_line_cached(&cache, &["vlan 10".to_string()], "name X", 1);
        let b = lexer.lex_line_cached(&cache, &["vlan 20".to_string()], "name X", 1);
        // Same pattern text (context lexes anonymously) but both shapes
        // were real misses: the key includes the raw parent text.
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn key_is_unambiguous() {
        // (parents ["a"], "b") must differ from (parents [], "a\nb")-style
        // concatenations.
        let k1 = LexCache::key(&["a".to_string()], "b");
        let k2 = LexCache::key(&[], "a\nb");
        assert_ne!(k1, k2);
    }

    #[test]
    fn hit_rate_arithmetic() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        let lexer = Lexer::standard();
        // SHARDS * 2 entries max, with keys spread across shards.
        let cache = LexCache::with_capacity(32);
        for i in 0..2000 {
            lexer.lex_line_cached(&cache, &[], &format!("vlan {i} mode trunk-{i}"), 1);
        }
        assert!(
            cache.len() <= cache.capacity(),
            "cache holds {} entries over capacity {}",
            cache.len(),
            cache.capacity()
        );
        let stats = cache.stats();
        assert!(stats.evictions > 0, "overflow must evict: {stats:?}");
        // Every distinct shape was scanned at least once: all misses.
        assert_eq!(stats.misses, 2000);
    }

    #[test]
    fn evicted_entry_is_a_miss_then_reusable_again() {
        let lexer = Lexer::standard();
        let cache = LexCache::with_capacity(16); // one entry per shard
        lexer.lex_line_cached(&cache, &[], "hostname ALPHA", 1);
        // Flood with distinct shapes to force ALPHA out of its shard.
        for i in 0..500 {
            lexer.lex_line_cached(&cache, &[], &format!("ip route 10.0.{i}.0/24 drop"), 1);
        }
        let before = cache.stats();
        let relex = lexer.lex_line_cached(&cache, &[], "hostname ALPHA", 2);
        let after = cache.stats();
        // Whether ALPHA survived depends on clock order; either way the
        // counters stay exact and the result is correct.
        assert_eq!(after.lookups(), before.lookups() + 1);
        assert_eq!(
            relex.pattern,
            lexer.lex_line(&[], "hostname ALPHA", 2).pattern
        );
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn second_chance_keeps_hot_entries() {
        let lexer = Lexer::standard();
        let cache = LexCache::with_capacity(16); // one entry per shard
        lexer.lex_line_cached(&cache, &[], "hostname KEEP", 1);
        for i in 0..200 {
            // Re-touch the hot entry between floods of cold shapes.
            lexer.lex_line_cached(&cache, &[], "hostname KEEP", 1);
            lexer.lex_line_cached(&cache, &[], &format!("vlan {i}"), 1);
        }
        let hits = cache.stats().hits;
        assert!(
            hits >= 150,
            "a constantly re-touched shape should mostly survive eviction, hits={hits}"
        );
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = LexCache::with_capacity(0);
        assert_eq!(cache.capacity(), 0);
        let lexer = Lexer::standard();
        for i in 0..300 {
            lexer.lex_line_cached(&cache, &[], &format!("vlan {i}"), 1);
        }
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.stats().evictions, 0);
    }
}
