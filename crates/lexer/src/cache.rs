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
//! The cache is sharded and internally synchronized, so one cache can be
//! shared across threads and across the builds and edits of a resident
//! engine. Hits and misses are counted with relaxed atomics and surface
//! in the pipeline statistics (`concord-cli --stats`). A dataset build
//! looks each distinct shape up once and counts the shape's repeats
//! within the build as hits ([`LexCache::count_hits`]), so an unbounded
//! cache reports the counts a lookup per line would.
//!
//! A cache can be *bounded* ([`LexCache::with_capacity`]): each shard
//! evicts with a second-chance (clock) policy once it reaches its share
//! of the capacity, so a long-lived resident process (`concord serve`)
//! holds the hot working set without growing memory without limit.
//! Evictions only ever cost a re-scan on the next lookup of the evicted
//! shape (a later build or edit; a build does not look a shape up
//! twice) — hit/miss counters stay exact, and an eviction is counted
//! separately.
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
    /// Clock order over the keys of `map` (shared allocations), kept
    /// only by a bounded cache. Keys are only removed by eviction, which
    /// pops from here in the same step, so in a bounded cache the queue
    /// and the map always hold the same key set.
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

    /// Answers one lookup of the shape `key`. A hit replays the memoized
    /// pattern and parameters into `pattern` and `params`; a miss runs
    /// `lex` into them and memoizes the result, evicting with the clock
    /// policy when the shard is at capacity. The shard stays locked for
    /// the whole call, so threads that look one new shape up together
    /// scan it once and count one miss between them.
    pub(crate) fn lex_through(
        &self,
        key: String,
        pattern: &mut String,
        params: &mut Vec<Param>,
        lex: impl FnOnce(&mut String, &mut Vec<Param>),
    ) {
        let mut guard = self.shard(&key).lock().expect("lex cache shard poisoned");
        let shard = &mut *guard;
        if let Some(entry) = shard.map.get_mut(key.as_str()) {
            entry.hot = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            pattern.clone_from(&entry.pattern);
            params.clone_from(&entry.params);
            return;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        lex(pattern, params);
        let key: std::sync::Arc<str> = key.into();
        if self.shard_cap > 0 {
            while shard.map.len() >= self.shard_cap {
                let Some(victim) = shard.clock.pop_front() else {
                    break; // defensive: clock and map always match.
                };
                let give_second_chance = shard
                    .map
                    .get_mut(victim.as_ref())
                    .is_some_and(|entry| std::mem::take(&mut entry.hot));
                if give_second_chance {
                    shard.clock.push_back(victim);
                } else {
                    shard.map.remove(victim.as_ref());
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.clock.push_back(key.clone());
        }
        shard.map.insert(
            key,
            CachedLine {
                pattern: pattern.clone(),
                params: params.clone(),
                hot: false,
            },
        );
    }

    /// Counts `n` hits that never reached the cache: lookups of shapes a
    /// dataset build already looked up once, and answers itself.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
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

    /// Lexes one embedded line through `cache`.
    fn lex(lexer: &Lexer, cache: &LexCache, parents: &[String], original: &str) -> String {
        let (mut pattern, mut params) = (String::new(), Vec::new());
        lexer.lex_into_cached(cache, parents, original, &mut pattern, &mut params);
        pattern
    }

    #[test]
    fn second_lookup_hits() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let parents = vec!["router bgp 65015".to_string()];
        let (mut pattern, mut params) = (String::new(), Vec::new());
        lexer.lex_into_cached(&cache, &parents, "vlan 251", &mut pattern, &mut params);
        let first = (pattern.clone(), params.clone());
        lexer.lex_into_cached(&cache, &parents, "vlan 251", &mut pattern, &mut params);
        assert_eq!(first, (pattern, params));
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
    fn threads_missing_on_one_shape_count_one_miss() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    lex(&lexer, &cache, &[], "vlan 251")
                });
            }
        });
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 3,
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
        let (mut pattern, mut params) = (String::new(), Vec::new());
        for _ in 0..2 {
            // The first call primes the cache, the second replays it.
            lexer.lex_into_cached(&cache, &parents, line, &mut pattern, &mut params);
            assert_eq!((&pattern, &params), (&direct.pattern, &direct.params));
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn distinct_context_is_a_distinct_entry() {
        let lexer = Lexer::standard();
        let cache = LexCache::new();
        let a = lex(&lexer, &cache, &["vlan 10".to_string()], "name X");
        let b = lex(&lexer, &cache, &["vlan 20".to_string()], "name X");
        // Same pattern text (context lexes anonymously) but both shapes
        // were real misses: the key includes the raw parent text.
        assert_eq!(a, b);
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
    fn counted_hits_add_to_the_hit_count() {
        let cache = LexCache::new();
        cache.count_hits(3);
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().lookups(), 3);
        assert!(cache.is_empty());
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
            lex(&lexer, &cache, &[], &format!("vlan {i} mode trunk-{i}"));
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
        lex(&lexer, &cache, &[], "hostname ALPHA");
        // Flood with distinct shapes to force ALPHA out of its shard.
        for i in 0..500 {
            lex(&lexer, &cache, &[], &format!("ip route 10.0.{i}.0/24 drop"));
        }
        let before = cache.stats();
        let relex = lex(&lexer, &cache, &[], "hostname ALPHA");
        let after = cache.stats();
        // Whether ALPHA survived depends on clock order; either way the
        // counters stay exact and the result is correct.
        assert_eq!(after.lookups(), before.lookups() + 1);
        assert_eq!(relex, lexer.lex_line(&[], "hostname ALPHA", 2).pattern);
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn second_chance_keeps_hot_entries() {
        let lexer = Lexer::standard();
        let cache = LexCache::with_capacity(16); // one entry per shard
        lex(&lexer, &cache, &[], "hostname KEEP");
        for i in 0..200 {
            // Re-touch the hot entry between floods of cold shapes.
            lex(&lexer, &cache, &[], "hostname KEEP");
            lex(&lexer, &cache, &[], &format!("vlan {i}"));
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
            lex(&lexer, &cache, &[], &format!("vlan {i}"));
        }
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.stats().evictions, 0);
    }
}
