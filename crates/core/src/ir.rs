//! The intermediate representation shared by learning and checking.
//!
//! A [`Dataset`] holds one [`ConfigIr`] per configuration file plus the
//! shared interning state, three instances of one [`Interner`]: a
//! [`PatternTable`] for embedded patterns, a [`StrArena`] for original
//! line texts and configuration names, and a [`ParamArena`]
//! deduplicating identical parameter slices. Every content
//! line is stored structure-of-arrays — parallel `u32` columns (pattern
//! id, param-slice id, line number, original-text id) instead of a
//! per-line record fanning out into `Arc` allocations — and read back
//! through lightweight [`LineRef`] views. Two lines with the same text
//! anywhere in the corpus share one arena entry, so resident memory
//! scales with *distinct* content, not line count.
//!
//! Metadata files (§3.7) are lexed once, prefixed with `@meta`, and
//! appended to every configuration so the miners discover config↔metadata
//! relationships with no special cases. Because metadata lines are always
//! appended *after* a configuration's own lines, the own/meta split is a
//! single boundary index per configuration (`is_meta(li)` ⇔
//! `li >= own_len`) rather than a per-line flag, which also makes
//! [`ConfigIr::own_line_count`] O(1).
//!
//! Datasets are also *mutable*: [`Dataset::upsert_config`] and
//! [`Dataset::remove_config`] absorb single-file edits without rebuilding
//! the corpus, and all interners grow append-only so existing ids stay
//! stable across edits. Given the text a configuration was last built
//! from, an upsert re-embeds and re-lexes (through the shared
//! [`LexCache`]) only the lines the edit can change
//! ([`concord_formats::embed_edit`]) and splices them into the columns.
//! Arena entries orphaned by an edit stay interned (they are
//! deduplicated, so repeated edit churn over similar content does not
//! grow the arena). This is the foundation the resident `concord-engine`
//! snapshot builds on.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

use concord_formats::{
    detect_format, embed_auto, embed_edit, EditWindow, EmbeddedLine, FormatCategory,
};
use concord_lexer::{LexCache, LexedLine, Lexer, Param};

use crate::fxhash::FxHasher;
use crate::parallel;
use crate::stats::BuildStats;

/// A dense identifier for an interned pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

/// A dense identifier for a string interned in a [`StrArena`]
/// (original line texts and configuration names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// A dense identifier for a parameter slice interned in a [`ParamArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamSliceId(pub u32);

/// The dense id type of one [`Interner`]: a value's index in
/// first-interned order.
pub trait InternId: Copy {
    /// The id of the value at index `raw`.
    fn from_raw(raw: u32) -> Self;
    /// The index this id stands for.
    fn index(self) -> usize;
}

macro_rules! intern_id {
    ($($id:ident),*) => {$(
        impl InternId for $id {
            #[inline]
            fn from_raw(raw: u32) -> Self {
                $id(raw)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }
    )*};
}

intern_id!(PatternId, StrId, ParamSliceId);

/// The buffer an [`Interner`] stores its values in, end to end: a
/// `String` for `str` values, a `Vec<Param>` for parameter slices.
pub trait InternBuf: Default {
    /// The interned value type.
    type Value: ?Sized + PartialEq;
    /// The Fx hash of `value`.
    fn hash_value(value: &Self::Value) -> u64;
    /// Appends `value`, returning the range it occupies.
    fn push_value(&mut self, value: &Self::Value) -> Range<usize>;
    /// The value stored at `range`.
    fn value_at(&self, range: Range<usize>) -> &Self::Value;
    /// Heap bytes held by the buffer.
    fn heap_bytes(&self) -> usize;
}

impl InternBuf for String {
    type Value = str;

    #[inline]
    fn hash_value(text: &str) -> u64 {
        let mut h = FxHasher::default();
        h.write(text.as_bytes());
        h.finish()
    }

    fn push_value(&mut self, text: &str) -> Range<usize> {
        let start = self.len();
        self.push_str(text);
        start..self.len()
    }

    #[inline]
    fn value_at(&self, range: Range<usize>) -> &str {
        &self[range]
    }

    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl InternBuf for Vec<Param> {
    type Value = [Param];

    #[inline]
    fn hash_value(params: &[Param]) -> u64 {
        let mut h = FxHasher::default();
        for p in params {
            p.hash(&mut h);
        }
        h.finish()
    }

    fn push_value(&mut self, params: &[Param]) -> Range<usize> {
        let start = self.len();
        self.extend_from_slice(params);
        start..self.len()
    }

    #[inline]
    fn value_at(&self, range: Range<usize>) -> &[Param] {
        &self[range]
    }

    /// Flattened parameters: the structs plus their name strings.
    /// `Value` heap payloads are not walked.
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Param>()
            + self.iter().map(|p| p.name.capacity()).sum::<usize>()
    }
}

/// Empty bucket sentinel of the interners' probe tables.
const EMPTY: u32 = u32::MAX;

/// Interns values into one contiguous buffer `B`, returning dense ids
/// of type `I` in first-interned order.
///
/// Fx-hashed open addressing with linear probing: one probe walk serves
/// both hit and miss, so [`Interner::intern`] touches the table once
/// per call. Values live end to end in one buffer addressed by
/// `(offset, len)` spans: no per-value allocation, no per-value
/// refcount. Ids are append-only: interning never invalidates an id
/// already returned, which is what allows datasets to be edited in
/// place.
///
/// A [`Dataset`] holds three: a [`PatternTable`], a [`StrArena`] and a
/// [`ParamArena`].
#[derive(Debug, Clone)]
pub struct Interner<B, I> {
    /// All interned values, end to end.
    buf: B,
    /// `(offset, len)` of each interned value, indexed by id.
    spans: Vec<(u32, u32)>,
    /// Cached hash per value (growth re-buckets without re-hashing).
    hashes: Vec<u64>,
    /// Open-addressing probe table over ids; power-of-two length.
    buckets: Vec<u32>,
    ids: PhantomData<I>,
}

/// Interns original line texts and configuration names.
pub type StrArena = Interner<String, StrId>;

/// Interns embedded pattern texts. Pattern ids and string ids are
/// separate id spaces (a [`PatternId`] indexes this table, a [`StrId`]
/// the dataset's text arena), so they cannot be confused at type-check
/// time.
pub type PatternTable = Interner<String, PatternId>;

/// Interns parameter slices: two lines binding the same values anywhere
/// in the corpus (e.g. every `vlan 10` line) share one entry. Identical
/// slices have the same names, types and values, in order.
pub type ParamArena = Interner<Vec<Param>, ParamSliceId>;

impl<B: InternBuf, I> Default for Interner<B, I> {
    fn default() -> Self {
        Interner {
            buf: B::default(),
            spans: Vec::new(),
            hashes: Vec::new(),
            buckets: vec![EMPTY; 16],
            ids: PhantomData,
        }
    }
}

impl<B: InternBuf, I: InternId> Interner<B, I> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn value(&self, i: usize) -> &B::Value {
        let (off, len) = self.spans[i];
        let off = off as usize;
        self.buf.value_at(off..off + len as usize)
    }

    /// The probe walk: the id of `value` if it is interned, else the
    /// empty slot its insert takes.
    #[inline]
    fn probe(&self, value: &B::Value, hash: u64) -> Result<u32, usize> {
        let mask = self.buckets.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let entry = self.buckets[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            let i = entry as usize;
            if self.hashes[i] == hash && self.value(i) == value {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `value`, returning its id: an existing entry's id from
    /// the same probe walk that would otherwise find the insertion slot.
    pub fn intern(&mut self, value: &B::Value) -> I {
        let hash = B::hash_value(value);
        let slot = match self.probe(value, hash) {
            Ok(id) => return I::from_raw(id),
            Err(slot) => slot,
        };
        let id = u32::try_from(self.spans.len()).expect("interner fits u32 ids");
        let range = self.buf.push_value(value);
        let off = u32::try_from(range.start).expect("interner fits u32 offsets");
        let len = u32::try_from(range.len()).expect("interned value fits u32 length");
        self.spans.push((off, len));
        self.hashes.push(hash);
        self.buckets[slot] = id;
        // Keep load under 7/8 so probe chains stay short.
        if (self.spans.len() + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
        }
        I::from_raw(id)
    }

    /// Doubles the probe table and re-buckets every id from its cached
    /// hash (values are never re-hashed).
    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mask = new_len - 1;
        let mut buckets = vec![EMPTY; new_len];
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while buckets[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = i as u32;
        }
        self.buckets = buckets;
    }

    /// Looks up an already-interned value.
    pub fn get(&self, value: &B::Value) -> Option<I> {
        self.probe(value, B::hash_value(value))
            .ok()
            .map(I::from_raw)
    }

    /// Returns the number of interned (distinct) values.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over all `(id, value)` pairs, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &B::Value)> {
        (0..self.spans.len()).map(|i| (I::from_raw(i as u32), self.value(i)))
    }

    /// Heap bytes held by the interner: the buffer plus index overhead.
    pub fn heap_bytes(&self) -> usize {
        self.buf.heap_bytes()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.buckets.capacity() * std::mem::size_of::<u32>()
    }
}

impl<I: InternId> Interner<String, I> {
    /// Returns the text of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[inline]
    pub fn text(&self, id: I) -> &str {
        self.value(id.index())
    }
}

impl ParamArena {
    /// Returns the slice of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    #[inline]
    pub fn slice(&self, id: ParamSliceId) -> &[Param] {
        self.value(id.index())
    }
}

/// The shared interning arenas of a [`Dataset`]: line/name texts and
/// parameter slices. (Patterns keep their own table for id-space
/// separation.)
#[derive(Debug, Clone, Default)]
pub struct Arenas {
    /// Original line texts and configuration names.
    pub strings: StrArena,
    /// Deduplicated parameter slices.
    pub params: ParamArena,
}

/// A lightweight view of one configuration line, resolved against the
/// dataset's arenas. Borrowed fields point into arena storage; the view
/// itself is `Copy` and does not borrow the [`ConfigIr`].
#[derive(Debug, Clone, Copy)]
pub struct LineRef<'a> {
    /// The interned pattern id of the full embedded line.
    pub pattern: PatternId,
    /// 1-based line number in the source file.
    pub line_no: u32,
    /// `true` when the line came from an appended metadata file.
    pub is_meta: bool,
    /// The trimmed original line text.
    pub original: &'a str,
    /// Parameters bound from the original line text, in order.
    pub params: &'a [Param],
}

/// One configuration file after the full front-end pipeline, stored
/// structure-of-arrays: parallel `u32`-id columns per line, resolved
/// through the dataset's [`Arenas`] via [`ConfigIr::line`].
#[derive(Debug, Clone)]
pub struct ConfigIr {
    /// The configuration's name (usually the file name / device name),
    /// interned in the dataset's string arena.
    pub name: StrId,
    /// The inferred format category.
    pub format: FormatCategory,
    /// Per-line pattern ids, in source order (metadata lines appended
    /// last).
    patterns: Vec<PatternId>,
    /// Per-line parameter-slice ids.
    params: Vec<ParamSliceId>,
    /// Per-line 1-based source line numbers.
    line_nos: Vec<u32>,
    /// Per-line original-text ids.
    originals: Vec<StrId>,
    /// Boundary between own lines (`..own_len`) and appended metadata
    /// lines (`own_len..`). Valid because metadata is always appended
    /// after every own line.
    own_len: u32,
}

impl ConfigIr {
    /// Total number of lines, including appended metadata.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` when the configuration has no lines at all.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Returns the number of non-metadata lines. O(1): the own/meta
    /// boundary is stored, not recounted.
    #[inline]
    pub fn own_line_count(&self) -> usize {
        self.own_len as usize
    }

    /// The pattern id of line `li`.
    #[inline]
    pub fn pattern(&self, li: usize) -> PatternId {
        self.patterns[li]
    }

    /// All per-line pattern ids, in source order.
    #[inline]
    pub fn patterns(&self) -> &[PatternId] {
        &self.patterns
    }

    /// The parameter-slice id of line `li`.
    #[inline]
    pub fn params_id(&self, li: usize) -> ParamSliceId {
        self.params[li]
    }

    /// The original-text id of line `li`.
    #[inline]
    pub fn original_id(&self, li: usize) -> StrId {
        self.originals[li]
    }

    /// The 1-based source line number of line `li`.
    #[inline]
    pub fn line_no(&self, li: usize) -> u32 {
        self.line_nos[li]
    }

    /// Whether line `li` came from an appended metadata file.
    #[inline]
    pub fn is_meta(&self, li: usize) -> bool {
        li >= self.own_len as usize
    }

    /// Resolves line `li` against `arenas` into a [`LineRef`] view.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of bounds or `arenas` is not the dataset's
    /// arena set.
    #[inline]
    pub fn line<'a>(&self, arenas: &'a Arenas, li: usize) -> LineRef<'a> {
        LineRef {
            pattern: self.patterns[li],
            line_no: self.line_nos[li],
            is_meta: self.is_meta(li),
            original: arenas.strings.text(self.originals[li]),
            params: arenas.params.slice(self.params[li]),
        }
    }

    /// Iterates [`LineRef`] views over every line.
    pub fn lines<'a>(&'a self, arenas: &'a Arenas) -> impl Iterator<Item = LineRef<'a>> + 'a {
        (0..self.len()).map(move |li| self.line(arenas, li))
    }

    /// Removes line `li` from the configuration (test/oracle support —
    /// production edits replace whole configurations). Callers editing a
    /// dataset in place should go through [`Dataset::remove_line`] so the
    /// cached total stays correct.
    pub fn remove_line(&mut self, li: usize) {
        self.patterns.remove(li);
        self.params.remove(li);
        self.line_nos.remove(li);
        self.originals.remove(li);
        if li < self.own_len as usize {
            self.own_len -= 1;
        }
    }

    /// Heap bytes held by the SoA columns.
    pub fn heap_bytes(&self) -> usize {
        self.patterns.capacity() * std::mem::size_of::<PatternId>()
            + self.params.capacity() * std::mem::size_of::<ParamSliceId>()
            + self.line_nos.capacity() * std::mem::size_of::<u32>()
            + self.originals.capacity() * std::mem::size_of::<StrId>()
    }
}

/// The four per-line id columns of a run of interned lines: a spliced
/// window, or the shared metadata lines appended to every configuration
/// (only ids are copied per configuration; the underlying text/param
/// storage lives once in the arenas).
#[derive(Debug, Clone, Default)]
struct Columns {
    patterns: Vec<PatternId>,
    params: Vec<ParamSliceId>,
    line_nos: Vec<u32>,
    originals: Vec<StrId>,
}

/// A set of configurations sharing one pattern table and one arena set.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The shared pattern interner.
    pub table: PatternTable,
    /// The shared string/parameter arenas.
    pub arenas: Arenas,
    /// The configurations.
    pub configs: Vec<ConfigIr>,
    /// Lexed metadata files, kept so edits can append metadata to newly
    /// upserted configurations.
    meta_lexed: Vec<Vec<LexedLine>>,
    /// The shared metadata columns (interned lazily so id assignment
    /// matches the batch build order: first config's own lines, then
    /// metadata). `None` until the first configuration needs them.
    meta_cols: Option<Columns>,
    /// Cached total of non-metadata lines across all configurations,
    /// maintained on every edit so [`Dataset::total_lines`] is O(1).
    total_own: usize,
}

/// Error constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A user-supplied custom token definition failed to compile.
    BadTokenDef(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::BadTokenDef(msg) => write!(f, "bad token definition: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset from `(name, text)` configuration pairs with the
    /// standard lexer and automatic format detection.
    ///
    /// `metadata` files are embedded/lexed with an `@meta` pattern prefix
    /// and appended to every configuration (§3.7).
    pub fn from_named_texts(
        configs: &[(String, String)],
        metadata: &[(String, String)],
    ) -> Result<Dataset, DatasetError> {
        Self::build(configs, metadata, &Lexer::standard(), true, 1)
    }

    /// Builds a dataset with full control over the lexer, context
    /// embedding, and parallelism.
    ///
    /// With `embed_context = false` every line is treated as flat text —
    /// the "Baseline" configuration of Figure 7.
    ///
    /// Lexing goes through a fresh [`LexCache`], so each distinct line
    /// shape across all configurations is scanned exactly once. Use
    /// [`Dataset::build_with_stats`] to share a cache across builds, to
    /// disable caching, or to observe timing and hit counts.
    pub fn build(
        configs: &[(String, String)],
        metadata: &[(String, String)],
        lexer: &Lexer,
        embed_context: bool,
        parallelism: usize,
    ) -> Result<Dataset, DatasetError> {
        let cache = LexCache::new();
        Self::build_with_stats(
            configs,
            metadata,
            lexer,
            embed_context,
            parallelism,
            Some(&cache),
        )
        .map(|(dataset, _)| dataset)
    }

    /// Like [`Dataset::build`], with explicit control over the lex cache
    /// (`None` disables caching entirely) and reporting [`BuildStats`]
    /// for the run: lexing/interning time and the cache hit/miss deltas
    /// this build contributed.
    pub fn build_with_stats<N, T>(
        configs: &[(N, T)],
        metadata: &[(String, String)],
        lexer: &Lexer,
        embed_context: bool,
        parallelism: usize,
        cache: Option<&LexCache>,
    ) -> Result<(Dataset, BuildStats), DatasetError>
    where
        N: AsRef<str> + Sync,
        T: AsRef<str> + Sync,
    {
        let cache_before = cache.map(|c| c.stats());

        let lex_start = Instant::now();
        // Metadata is lexed once and shared across configs.
        let meta_lexed: Vec<Vec<LexedLine>> = metadata
            .iter()
            .map(|(_, text)| lex_text(text, lexer, embed_context, cache).1)
            .collect();

        // Lex configs (possibly in parallel), then intern sequentially so
        // ids are deterministic regardless of thread count.
        let lexed: Vec<(FormatCategory, Vec<LexedLine>)> = parallel::map(
            configs,
            |(_, text)| lex_text(text.as_ref(), lexer, embed_context, cache),
            parallelism,
        );
        let lex_time = lex_start.elapsed();

        let intern_start = Instant::now();
        let mut dataset = Dataset {
            table: PatternTable::new(),
            arenas: Arenas::default(),
            configs: Vec::with_capacity(configs.len()),
            meta_lexed,
            meta_cols: None,
            total_own: 0,
        };
        for ((name, _), (format, lines)) in configs.iter().zip(lexed) {
            let config = dataset.make_config(name.as_ref(), format, &lines);
            dataset.total_own += config.own_line_count();
            dataset.configs.push(config);
        }
        let intern_time = intern_start.elapsed();

        let (cache_hits, cache_misses) = match (cache_before, cache.map(|c| c.stats())) {
            (Some(before), Some(after)) => (after.hits - before.hits, after.misses - before.misses),
            _ => (0, 0),
        };
        let stats = BuildStats {
            configs: dataset.configs.len(),
            lines: dataset.configs.iter().map(ConfigIr::len).sum(),
            patterns: dataset.table.len(),
            lex_time,
            intern_time,
            cache_enabled: cache.is_some(),
            cache_hits,
            cache_misses,
        };
        Ok((dataset, stats))
    }

    /// Interns one lexed configuration into SoA columns and appends the
    /// shared metadata columns.
    fn make_config(&mut self, name: &str, format: FormatCategory, lines: &[LexedLine]) -> ConfigIr {
        let Columns {
            mut patterns,
            mut params,
            mut line_nos,
            mut originals,
        } = self.intern_lines(lines);
        let own_len = u32::try_from(patterns.len()).expect("config line count fits u32");
        let meta = self.shared_meta_cols();
        patterns.extend_from_slice(&meta.patterns);
        params.extend_from_slice(&meta.params);
        line_nos.extend_from_slice(&meta.line_nos);
        originals.extend_from_slice(&meta.originals);
        let name = self.arenas.strings.intern(name);
        ConfigIr {
            name,
            format,
            patterns,
            params,
            line_nos,
            originals,
            own_len,
        }
    }

    /// Interns lexed lines in order into their id columns.
    fn intern_lines(&mut self, lines: &[LexedLine]) -> Columns {
        let mut cols = Columns {
            patterns: Vec::with_capacity(lines.len()),
            params: Vec::with_capacity(lines.len()),
            line_nos: Vec::with_capacity(lines.len()),
            originals: Vec::with_capacity(lines.len()),
        };
        for l in lines {
            cols.patterns.push(self.table.intern(&l.pattern));
            cols.params.push(self.arenas.params.intern(&l.params));
            cols.line_nos.push(l.line_no);
            cols.originals.push(self.arenas.strings.intern(&l.original));
        }
        cols
    }

    /// Returns the shared metadata columns, interning their patterns on
    /// first use (after the first configuration's own lines, matching the
    /// batch interning order).
    fn shared_meta_cols(&mut self) -> &Columns {
        if self.meta_cols.is_none() {
            let mut cols = Columns::default();
            // Move the lexed metadata out while interning to appease the
            // borrow checker, then put it back.
            let meta_lexed = std::mem::take(&mut self.meta_lexed);
            for l in meta_lexed.iter().flat_map(|lines| lines.iter()) {
                cols.patterns
                    .push(self.table.intern(&format!("@meta{}", l.pattern)));
                cols.params.push(self.arenas.params.intern(&l.params));
                cols.line_nos.push(l.line_no);
                cols.originals.push(self.arenas.strings.intern(&l.original));
            }
            self.meta_lexed = meta_lexed;
            self.meta_cols = Some(cols);
        }
        self.meta_cols.as_ref().expect("just populated")
    }

    /// The name of configuration `config`, resolved against the string
    /// arena.
    #[inline]
    pub fn name_of(&self, config: &ConfigIr) -> &str {
        self.arenas.strings.text(config.name)
    }

    /// The name of the configuration at index `ci`.
    #[inline]
    pub fn config_name(&self, ci: usize) -> &str {
        self.name_of(&self.configs[ci])
    }

    /// Resolves line `li` of configuration `config` into a [`LineRef`].
    #[inline]
    pub fn line<'a>(&'a self, config: &ConfigIr, li: usize) -> LineRef<'a> {
        config.line(&self.arenas, li)
    }

    /// Inserts or replaces the configuration named `name` with `text`.
    /// Returns the configuration's index and the edit's churn: the own
    /// lines it removed plus the own lines it inserted (a new
    /// configuration removes none; a whole-text window removes them
    /// all).
    ///
    /// `previous` is the text the held configuration was built from, if
    /// the caller kept it. When it was embedded in the format `text` is
    /// detected as, only the window of lines the edit can change is
    /// re-embedded, re-lexed and interned, in text order, and spliced
    /// into the configuration's columns; the lines after it keep their
    /// ids and move by the change in line count. Otherwise (no previous
    /// text, a new configuration, JSON or YAML, or a changed format) the
    /// window is the whole text. Both give the same columns and intern
    /// the same new ids, because every line outside the window keeps its
    /// embedding and was interned when the held text was built.
    ///
    /// An existing configuration is replaced in place (its position is
    /// preserved); a new one is inserted at its name-sorted position, the
    /// order [`Dataset::from_named_texts`] produces when callers pass
    /// name-sorted corpora (the CLI always does). All interners are
    /// append-only: entries no longer referenced by any line simply stay
    /// interned, which never changes check output (violations carry
    /// texts, not ids).
    pub fn upsert_config(
        &mut self,
        name: &str,
        text: &str,
        previous: Option<&str>,
        lexer: &Lexer,
        embed_context: bool,
        cache: Option<&LexCache>,
    ) -> (usize, usize) {
        let format = if embed_context {
            detect_format(text)
        } else {
            FormatCategory::Flat
        };
        let held = self.config_index(name);
        let previous = previous.filter(|_| held.is_some_and(|i| self.configs[i].format == format));
        let (window, embedded) = embed_edit(previous, text, format);
        let lines = lex_embedded(&embedded, lexer, cache);
        match held {
            Some(i) => (i, self.splice(i, format, window, &lines)),
            None => {
                let config = self.make_config(name, format, &lines);
                let i = {
                    let strings = &self.arenas.strings;
                    self.configs
                        .partition_point(|c| strings.text(c.name) < name)
                };
                let added = config.own_line_count();
                self.total_own += added;
                self.configs.insert(i, config);
                (i, added)
            }
        }
    }

    /// Replaces the own lines of configuration `ci` that `window` covers
    /// with `lines` (the window's lexed lines, interned here in text
    /// order), and moves the own lines after the window by its change in
    /// line count. Metadata lines stay as they are. Returns the number of
    /// rows removed plus the number inserted.
    fn splice(
        &mut self,
        ci: usize,
        format: FormatCategory,
        window: EditWindow,
        lines: &[LexedLine],
    ) -> usize {
        let cols = self.intern_lines(lines);
        let config = &mut self.configs[ci];
        let own = config.own_len as usize;
        let (rows, old_end, new_end) = match window {
            EditWindow::Whole => (0..own, 0, 0),
            EditWindow::Lines {
                start,
                old_end,
                new_end,
            } => {
                // Own rows are in source-line order: row `r` holds line
                // `line_nos[r]`, 1-based.
                let line_nos = &config.line_nos[..own];
                let first = line_nos.partition_point(|&n| n as usize <= start);
                let end = line_nos.partition_point(|&n| n as usize <= old_end);
                (first..end, old_end, new_end)
            }
        };
        let (removed, added) = (rows.len(), cols.patterns.len());
        config.patterns.splice(rows.clone(), cols.patterns);
        config.params.splice(rows.clone(), cols.params);
        config.line_nos.splice(rows.clone(), cols.line_nos);
        config.originals.splice(rows.clone(), cols.originals);
        let own = own - removed + added;
        for n in &mut config.line_nos[rows.start + added..own] {
            // Every moved line lies past `old_end`, so this cannot wrap.
            *n = *n - old_end as u32 + new_end as u32;
        }
        config.own_len = u32::try_from(own).expect("config line count fits u32");
        config.format = format;
        self.total_own = self.total_own - removed + added;
        removed + added
    }

    /// Removes the configuration named `name`, returning its former index
    /// (`None` when no such configuration exists). The interners are left
    /// untouched.
    pub fn remove_config(&mut self, name: &str) -> Option<usize> {
        let i = self.config_index(name)?;
        self.total_own -= self.configs[i].own_line_count();
        self.configs.remove(i);
        Some(i)
    }

    /// Removes line `li` of configuration `ci`, keeping the cached line
    /// total correct (test/oracle support).
    pub fn remove_line(&mut self, ci: usize, li: usize) {
        if !self.configs[ci].is_meta(li) {
            self.total_own -= 1;
        }
        self.configs[ci].remove_line(li);
    }

    /// Returns the index of the configuration named `name`. Datasets
    /// built from name-sorted corpora (the CLI always sorts, and upsert
    /// preserves the order) resolve in O(log n); a dataset holding an
    /// unsorted input order falls back to the linear scan, so the
    /// answer is the same either way. The engine resolves every edit,
    /// read by name and sketch import here; its checkpoint does not,
    /// because it walks the image and the dataset index-aligned.
    pub fn config_index(&self, name: &str) -> Option<usize> {
        let strings = &self.arenas.strings;
        let i = self
            .configs
            .partition_point(|c| strings.text(c.name) < name);
        if self
            .configs
            .get(i)
            .is_some_and(|c| strings.text(c.name) == name)
        {
            return Some(i);
        }
        self.configs
            .iter()
            .position(|c| strings.text(c.name) == name)
    }

    /// Returns the total number of configuration lines (excluding
    /// metadata). O(1): the total is maintained across edits.
    pub fn total_lines(&self) -> usize {
        self.total_own
    }

    /// Returns the number of distinct patterns.
    pub fn pattern_count(&self) -> usize {
        self.table.len()
    }

    /// Returns the number of distinct `(pattern, parameter)` pairs
    /// (the "Parameters" column of Table 3).
    pub fn parameter_count(&self) -> usize {
        let mut seen = HashSet::new();
        for config in &self.configs {
            for li in 0..config.len() {
                let arity = self.arenas.params.slice(config.params_id(li)).len();
                for i in 0..arity {
                    seen.insert((config.pattern(li), i as u16));
                }
            }
        }
        seen.len()
    }

    /// Arena and column memory accounting (the v9 `memory` stats object):
    /// `(string-arena bytes, param-arena bytes, pattern-table bytes,
    /// SoA column bytes)`.
    pub fn arena_bytes(&self) -> (usize, usize, usize, usize) {
        let columns = self.configs.iter().map(ConfigIr::heap_bytes).sum();
        (
            self.arenas.strings.heap_bytes(),
            self.arenas.params.heap_bytes(),
            self.table.heap_bytes(),
            columns,
        )
    }

    /// Number of strings interned across the text arena (line texts and
    /// names).
    pub fn interned_strings(&self) -> usize {
        self.arenas.strings.len()
    }

    /// Number of distinct parameter slices interned.
    pub fn interned_param_slices(&self) -> usize {
        self.arenas.params.len()
    }
}

/// Runs embedding and lexing for one file.
pub(crate) fn lex_text(
    text: &str,
    lexer: &Lexer,
    embed_context: bool,
    cache: Option<&LexCache>,
) -> (FormatCategory, Vec<LexedLine>) {
    let (format, embedded) = if embed_context {
        embed_auto(text)
    } else {
        (
            FormatCategory::Flat,
            concord_formats::embed(text, FormatCategory::Flat),
        )
    };
    (format, lex_embedded(&embedded, lexer, cache))
}

/// Lexes embedded lines, through `cache` when there is one.
fn lex_embedded(
    embedded: &[EmbeddedLine],
    lexer: &Lexer,
    cache: Option<&LexCache>,
) -> Vec<LexedLine> {
    embedded
        .iter()
        .map(|e| match cache {
            Some(cache) => lexer.lex_line_cached(cache, &e.parents, &e.original, e.line_no),
            None => lexer.lex_line(&e.parents, &e.original, e.line_no),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_rng::{prop, Rng, StdRng};
    use concord_types::{BigNum, Value, ValueType};
    use std::borrow::Borrow;
    use std::collections::HashMap;

    fn cfgs(texts: &[&str]) -> Vec<(String, String)> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.to_string()))
            .collect()
    }

    #[test]
    fn pattern_table_interning() {
        let mut table = PatternTable::new();
        let a = table.intern("x [a:num]");
        let b = table.intern("y [a:num]");
        let a2 = table.intern("x [a:num]");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(table.text(a), "x [a:num]");
        assert_eq!(table.len(), 2);
        assert_eq!(table.get("y [a:num]"), Some(b));
        assert_eq!(table.get("missing"), None);
    }

    #[test]
    fn pattern_table_survives_growth() {
        // Push well past several grow() doublings and verify every id and
        // lookup stays correct.
        let mut table = PatternTable::new();
        let ids: Vec<PatternId> = (0..1000).map(|i| table.intern(&format!("p{i}"))).collect();
        assert_eq!(table.len(), 1000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(table.text(*id), format!("p{i}"));
            assert_eq!(table.get(&format!("p{i}")), Some(*id));
            assert_eq!(table.intern(&format!("p{i}")), *id, "re-intern is a hit");
        }
        assert_eq!(table.get("p1000"), None);
        let collected: Vec<(PatternId, String)> =
            table.iter().map(|(id, t)| (id, t.to_string())).collect();
        assert_eq!(collected.len(), 1000);
        assert_eq!(collected[7], (PatternId(7), "p7".to_string()));
    }

    /// Interns `values` in order into a fresh `Interner<B, I>`, checking
    /// it against a `HashMap` model after every call.
    fn check_against_model<B, I, V>(values: &[V])
    where
        B: InternBuf,
        B::Value: fmt::Debug,
        I: InternId,
        V: Borrow<B::Value> + Clone + Eq + Hash,
    {
        let mut interner = Interner::<B, I>::new();
        let mut model: HashMap<V, usize> = HashMap::new();
        let mut first_seen: Vec<&V> = Vec::new();
        for v in values {
            let value: &B::Value = v.borrow();
            let known = model.get::<V>(v).copied();
            assert_eq!(interner.get(value).map(I::index), known);
            let want = known.unwrap_or_else(|| {
                first_seen.push(v);
                model.insert(v.clone(), model.len());
                model.len() - 1
            });
            assert_eq!(interner.intern(value).index(), want, "first-seen ids");
            assert_eq!(interner.len(), model.len());
        }
        assert_eq!(interner.iter().count(), first_seen.len());
        for ((id, stored), v) in interner.iter().zip(&first_seen) {
            let value: &B::Value = (*v).borrow();
            assert_eq!(stored, value, "the stored value round-trips");
            assert_eq!(interner.get(value).map(I::index), Some(id.index()));
        }
        for (i, v) in first_seen.iter().enumerate() {
            let value: &B::Value = (*v).borrow();
            assert_eq!(interner.intern(value).index(), i, "re-intern hit");
        }
        assert_eq!(interner.len(), model.len(), "re-interning adds nothing");
    }

    /// A sequence of up to 600 values, about three in ten of them
    /// repeats of earlier ones; `fresh` draws a new (possibly empty)
    /// value. Several hundred distinct values grow the 16-bucket table
    /// about five times.
    fn sequence<V: Clone>(rng: &mut StdRng, fresh: impl Fn(&mut StdRng) -> V) -> Vec<V> {
        let n = rng.gen_range(0..=600usize);
        let mut out: Vec<V> = Vec::with_capacity(n);
        for _ in 0..n {
            let value = if !out.is_empty() && rng.gen_bool(0.3) {
                prop::pick(rng, &out).clone()
            } else {
                fresh(rng)
            };
            out.push(value);
        }
        out
    }

    #[test]
    fn interners_match_a_hashmap_model() {
        prop::check("interners_match_a_hashmap_model", 64, |rng| {
            let text = |rng: &mut StdRng| prop::string_of(rng, "ab1 :", 0..=5);
            let texts = sequence(rng, text);
            check_against_model::<String, StrId, String>(&texts);
            check_against_model::<String, PatternId, String>(&texts);
            let param = |rng: &mut StdRng| Param {
                name: prop::pick(rng, &["a", "b", "c"]).to_string(),
                ty: ValueType::Num,
                value: Value::Num(BigNum::from(rng.gen_range(0..4u64))),
            };
            let slices = sequence(rng, |rng| {
                let len = rng.gen_range(0..=3usize);
                (0..len).map(|_| param(rng)).collect::<Vec<Param>>()
            });
            check_against_model::<Vec<Param>, ParamSliceId, Vec<Param>>(&slices);
        });
    }

    #[test]
    fn str_arena_interns_and_dedups() {
        let mut arena = StrArena::new();
        let a = arena.intern("vlan 10");
        let b = arena.intern("vlan 20");
        assert_ne!(a, b);
        assert_eq!(arena.intern("vlan 10"), a, "re-intern is a hit");
        assert_eq!(arena.text(a), "vlan 10");
        assert_eq!(arena.get("vlan 20"), Some(b));
        assert_eq!(arena.get("vlan 30"), None);
        assert_eq!(arena.len(), 2);
        // Growth keeps ids and lookups stable.
        let ids: Vec<StrId> = (0..500).map(|i| arena.intern(&format!("s{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(arena.text(*id), format!("s{i}"));
            assert_eq!(arena.get(&format!("s{i}")), Some(*id));
        }
        assert_eq!(arena.text(a), "vlan 10");
    }

    #[test]
    fn param_arena_dedups_identical_slices() {
        let configs = cfgs(&["vlan 10\nvlan 10\nvlan 20\n", "vlan 10\n"]);
        let ds = Dataset::from_named_texts(&configs, &[]).unwrap();
        // Three `vlan 10` lines across two configs share one slice id.
        assert_eq!(
            ds.configs[0].params_id(0),
            ds.configs[0].params_id(1),
            "identical lines in one config share a param slice"
        );
        assert_eq!(
            ds.configs[0].params_id(0),
            ds.configs[1].params_id(0),
            "identical lines across configs share a param slice"
        );
        assert_ne!(ds.configs[0].params_id(0), ds.configs[0].params_id(2));
        // And the originals share one string id.
        assert_eq!(ds.configs[0].original_id(0), ds.configs[1].original_id(0));
    }

    #[test]
    fn builds_dataset_with_embedding() {
        let configs = cfgs(&["interface Loopback0\n ip address 10.0.0.1\n"]);
        let ds = Dataset::from_named_texts(&configs, &[]).unwrap();
        assert_eq!(ds.configs.len(), 1);
        let config = &ds.configs[0];
        assert_eq!(config.len(), 2);
        assert_eq!(
            ds.table.text(config.pattern(1)),
            "/interface Loopback[num]/ip address [a:ip4]"
        );
        assert_eq!(config.line_no(1), 2);
        let line = ds.line(config, 1);
        assert_eq!(line.original, "ip address 10.0.0.1");
        assert_eq!(line.params.len(), 1);
        assert!(!line.is_meta);
    }

    #[test]
    fn same_pattern_shares_id_across_configs() {
        let configs = cfgs(&["vlan 10\n", "vlan 20\n"]);
        let ds = Dataset::from_named_texts(&configs, &[]).unwrap();
        assert_eq!(ds.configs[0].pattern(0), ds.configs[1].pattern(0));
        assert_eq!(ds.pattern_count(), 1);
    }

    #[test]
    fn metadata_appended_with_prefix() {
        let configs = cfgs(&["vlan 10\n", "vlan 20\n"]);
        let metadata = vec![("meta.yaml".to_string(), "vlanId: 10\n".to_string())];
        let ds = Dataset::from_named_texts(&configs, &metadata).unwrap();
        for config in &ds.configs {
            let meta_lines: Vec<usize> =
                (0..config.len()).filter(|&li| config.is_meta(li)).collect();
            assert_eq!(meta_lines.len(), 1);
            assert!(ds
                .table
                .text(config.pattern(meta_lines[0]))
                .starts_with("@meta/"));
        }
        // Metadata lines are excluded from the own-line count.
        assert_eq!(ds.total_lines(), 2);
    }

    #[test]
    fn metadata_storage_is_shared_across_configs() {
        let configs = cfgs(&["vlan 10\n", "vlan 20\n", "vlan 30\n"]);
        let metadata = vec![(
            "meta.yaml".to_string(),
            "vlanId: 10\nsiteId: 4\n".to_string(),
        )];
        let ds = Dataset::from_named_texts(&configs, &metadata).unwrap();
        let meta_ids = |ci: usize| -> Vec<(StrId, ParamSliceId)> {
            let c = &ds.configs[ci];
            (0..c.len())
                .filter(|&li| c.is_meta(li))
                .map(|li| (c.original_id(li), c.params_id(li)))
                .collect()
        };
        let (a, b) = (meta_ids(0), meta_ids(1));
        assert_eq!(a.len(), 2);
        assert_eq!(
            a, b,
            "metadata text/param storage must be shared arena ids, not copies"
        );
        // The arena holds each metadata line once regardless of config
        // count: 3 own originals + 2 meta originals + 3 names.
        assert_eq!(ds.interned_strings(), 8);
    }

    #[test]
    fn no_embedding_flattens() {
        let configs = cfgs(&["interface Loopback0\n ip address 10.0.0.1\n"]);
        let lexer = Lexer::standard();
        let ds = Dataset::build(&configs, &[], &lexer, false, 1).unwrap();
        assert_eq!(
            ds.table.text(ds.configs[0].pattern(1)),
            "/ip address [a:ip4]"
        );
    }

    #[test]
    fn parameter_count_counts_pattern_param_pairs() {
        let configs = cfgs(&["rd 1.2.3.4:55\n", "rd 5.6.7.8:99\nvlan 3\n"]);
        let ds = Dataset::from_named_texts(&configs, &[]).unwrap();
        // `rd [a:ip4]:[b:num]` has 2 params, `vlan [a:num]` has 1.
        assert_eq!(ds.parameter_count(), 3);
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let configs = cfgs(&[
            "vlan 1\nvlan 2\n",
            "interface Et1\n mtu 9214\n",
            "router bgp 65000\n vlan 7\n",
            "hostname X1\n",
        ]);
        let lexer = Lexer::standard();
        let seq = Dataset::build(&configs, &[], &lexer, true, 1).unwrap();
        let par = Dataset::build(&configs, &[], &lexer, true, 4).unwrap();
        assert_eq!(seq.pattern_count(), par.pattern_count());
        for (a, b) in seq.configs.iter().zip(&par.configs) {
            assert_eq!(a.len(), b.len());
            for (la, lb) in a.lines(&seq.arenas).zip(b.lines(&par.arenas)) {
                assert_eq!(la.pattern, lb.pattern);
                assert_eq!(la.original, lb.original);
            }
        }
    }

    #[test]
    fn upsert_replaces_in_place_and_inserts_sorted() {
        let configs = cfgs(&["vlan 1\n", "vlan 2\n", "vlan 3\n"]);
        let lexer = Lexer::standard();
        let mut ds = Dataset::from_named_texts(&configs, &[]).unwrap();

        // Replace dev1 in place.
        let (i, churn) = ds.upsert_config(
            "dev1",
            "interface Et1\n mtu 9000\n",
            None,
            &lexer,
            true,
            None,
        );
        assert_eq!((i, churn), (1, 3), "one line out, two in");
        assert_eq!(ds.config_name(1), "dev1");
        assert_eq!(ds.configs[1].len(), 2);

        // Insert a new name at its sorted position.
        let (i, churn) = ds.upsert_config("dev15", "vlan 9\n", None, &lexer, true, None);
        assert_eq!((i, churn), (2, 1), "dev15 sorts between dev1 and dev2");
        let names: Vec<&str> = (0..ds.configs.len()).map(|i| ds.config_name(i)).collect();
        assert_eq!(names, ["dev0", "dev1", "dev15", "dev2"]);
    }

    #[test]
    fn upsert_matches_batch_build() {
        // An edited dataset must equal (up to id numbering) the batch
        // build of the edited corpus: same lines, same texts, same
        // pattern texts per line.
        let lexer = Lexer::standard();
        let metadata = vec![("meta.yaml".to_string(), "siteId: 9\n".to_string())];
        let mut corpus = cfgs(&["vlan 1\nvlan 2\n", "interface Et1\n mtu 9214\n"]);
        let mut ds = Dataset::from_named_texts(&corpus, &metadata).unwrap();

        // Edit dev0, add dev2, remove dev1.
        corpus[0].1 = "vlan 1\nvlan 7\nhostname A\n".to_string();
        ds.upsert_config("dev0", &corpus[0].1, None, &lexer, true, None);
        corpus.push((
            "dev2".to_string(),
            "router bgp 65000\n vlan 3\n".to_string(),
        ));
        ds.upsert_config("dev2", &corpus[2].1, None, &lexer, true, None);
        assert_eq!(ds.remove_config("dev1"), Some(1));
        assert_eq!(ds.remove_config("dev1"), None);
        corpus.remove(1);

        let batch = Dataset::from_named_texts(&corpus, &metadata).unwrap();
        assert_eq!(ds.configs.len(), batch.configs.len());
        assert_eq!(ds.total_lines(), batch.total_lines());
        for (a, b) in ds.configs.iter().zip(&batch.configs) {
            assert_eq!(ds.name_of(a), batch.name_of(b));
            assert_eq!(a.len(), b.len());
            for (la, lb) in a.lines(&ds.arenas).zip(b.lines(&batch.arenas)) {
                assert_eq!(ds.table.text(la.pattern), batch.table.text(lb.pattern));
                assert_eq!(la.original, lb.original);
                assert_eq!(la.params, lb.params);
                assert_eq!(la.is_meta, lb.is_meta);
            }
        }
    }

    #[test]
    fn upsert_into_empty_dataset_appends_metadata() {
        let lexer = Lexer::standard();
        let metadata = vec![("meta.yaml".to_string(), "siteId: 9\n".to_string())];
        let mut ds = Dataset::from_named_texts(&[], &metadata).unwrap();
        assert!(ds.configs.is_empty());
        ds.upsert_config("dev0", "vlan 4\n", None, &lexer, true, None);
        let batch = Dataset::from_named_texts(&cfgs(&["vlan 4\n"]), &metadata).unwrap();
        assert_eq!(ds.configs[0].len(), batch.configs[0].len());
        assert_eq!(ds.pattern_count(), batch.pattern_count());
        assert!((0..ds.configs[0].len()).any(|li| ds.configs[0].is_meta(li)));
    }

    #[test]
    fn cached_line_totals_track_edits() {
        let lexer = Lexer::standard();
        let metadata = vec![("meta.yaml".to_string(), "siteId: 9\n".to_string())];
        let configs = cfgs(&["vlan 1\nvlan 2\n", "vlan 3\n"]);
        let mut ds = Dataset::from_named_texts(&configs, &metadata).unwrap();
        let recount = |ds: &Dataset| -> usize {
            ds.configs
                .iter()
                .map(|c| (0..c.len()).filter(|&li| !c.is_meta(li)).count())
                .sum()
        };
        assert_eq!(ds.total_lines(), 3);
        assert_eq!(ds.total_lines(), recount(&ds));

        ds.upsert_config("dev0", "vlan 1\n", None, &lexer, true, None);
        assert_eq!(ds.total_lines(), 2);
        assert_eq!(ds.total_lines(), recount(&ds));

        ds.upsert_config("dev9", "vlan 4\nvlan 5\nvlan 6\n", None, &lexer, true, None);
        assert_eq!(ds.total_lines(), 5);
        assert_eq!(ds.total_lines(), recount(&ds));

        ds.remove_config("dev1");
        assert_eq!(ds.total_lines(), 4);
        assert_eq!(ds.total_lines(), recount(&ds));

        ds.remove_line(0, 0);
        assert_eq!(ds.total_lines(), 3);
        assert_eq!(ds.total_lines(), recount(&ds));
    }
}
