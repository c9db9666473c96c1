//! Golden figures for dataset builds.
//!
//! For every dataset the ten standard roles build (a training and a
//! held-out set, with their metadata, at parallelism 1 and 8), this test
//! records the length and FNV-1a hash of the pattern table, the string and
//! parameter arenas in id order, every configuration's four id columns,
//! and the build's lex cache hits and misses. It records the same figures
//! after a new-configuration upsert and after a splice of an edited
//! configuration. Any change to interning order, ids, columns or cache
//! counts changes a figure, so a rewrite of the build must leave
//! `tests/build_golden.txt` as it is.

use concord_core::{BuildStats, Dataset};
use concord_datagen::{generate_role, standard_roles};
use concord_lexer::{LexCache, Lexer};

/// Length and 64-bit FNV-1a hash of a byte stream.
struct Fnv {
    hash: u64,
    len: u64,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.len += bytes.len() as u64;
    }

    fn u32(&mut self, n: u32) {
        self.bytes(&n.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn render(&self) -> String {
        format!("{}/{:016x}", self.len, self.hash)
    }
}

/// One line of figures for `ds`.
fn digest(ds: &Dataset) -> String {
    let mut table = Fnv::new();
    for (_, text) in ds.table.iter() {
        table.text(text);
    }
    let mut strings = Fnv::new();
    for (_, text) in ds.arenas.strings.iter() {
        strings.text(text);
    }
    let mut params = Fnv::new();
    for (_, slice) in ds.arenas.params.iter() {
        params.u32(slice.len() as u32);
        for p in slice {
            params.text(&format!("{p:?}"));
        }
    }
    let mut configs = Fnv::new();
    let mut columns = [Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new()];
    for c in &ds.configs {
        configs.u32(c.name.0);
        configs.text(&format!("{:?}", c.format));
        configs.u32(c.own_line_count() as u32);
        configs.u32(c.len() as u32);
        for li in 0..c.len() {
            columns[0].u32(c.pattern(li).0);
            columns[1].u32(c.params_id(li).0);
            columns[2].u32(c.line_no(li));
            columns[3].u32(c.original_id(li).0);
        }
    }
    let columns: Vec<String> = columns.iter().map(Fnv::render).collect();
    format!(
        "table {} strings {} params {} configs {} columns {}",
        table.render(),
        strings.render(),
        params.render(),
        configs.render(),
        columns.join(" "),
    )
}

fn counts(stats: &BuildStats) -> String {
    format!(
        "lines={} patterns={} hits={} misses={}",
        stats.lines, stats.patterns, stats.cache_hits, stats.cache_misses
    )
}

/// Inserts a line after the tenth line and drops the twentieth, so the
/// splice has a window of lines to re-embed.
fn edited(text: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i == 19 {
            continue;
        }
        out.push_str(line);
        out.push('\n');
        if i == 9 {
            out.push_str("description golden edit 10.9.8.7/24 true\n");
        }
    }
    out
}

fn figures() -> Vec<String> {
    let lexer = Lexer::standard();
    let mut out = Vec::new();
    for spec in standard_roles(0.5) {
        let train = generate_role(&spec, 1);
        let held = generate_role(&spec, 2);
        for (set, role) in [("train", &train), ("held", &held)] {
            for parallelism in [1usize, 8] {
                let cache = LexCache::new();
                let (ds, stats) = Dataset::build_with_stats(
                    &role.configs,
                    &role.metadata,
                    &lexer,
                    true,
                    parallelism,
                    Some(&cache),
                )
                .expect("generated corpora build");
                out.push(format!(
                    "{} {set} p{parallelism}: {} {}",
                    spec.name,
                    counts(&stats),
                    digest(&ds)
                ));
            }
        }

        // A new configuration, then a splice of an edited one, through
        // the cache the build used.
        let cache = LexCache::new();
        let (mut ds, _) = Dataset::build_with_stats(
            &train.configs,
            &train.metadata,
            &lexer,
            true,
            2,
            Some(&cache),
        )
        .expect("generated corpora build");
        let before = cache.stats();
        let new = ds.upsert_config(
            "golden-new",
            &held.configs[0].1,
            None,
            &lexer,
            true,
            Some(&cache),
        );
        let after = cache.stats();
        out.push(format!(
            "{} upsert new: {new:?} hits={} misses={} {}",
            spec.name,
            after.hits - before.hits,
            after.misses - before.misses,
            digest(&ds)
        ));
        let (name, text) = &train.configs[train.configs.len() / 2];
        let before = cache.stats();
        let splice = ds.upsert_config(name, &edited(text), Some(text), &lexer, true, Some(&cache));
        let after = cache.stats();
        out.push(format!(
            "{} upsert splice: {splice:?} hits={} misses={} {}",
            spec.name,
            after.hits - before.hits,
            after.misses - before.misses,
            digest(&ds)
        ));
        let uncached = ds.upsert_config(name, text, None, &lexer, true, None);
        out.push(format!(
            "{} upsert whole: {uncached:?} {}",
            spec.name,
            digest(&ds)
        ));
    }
    out
}

#[test]
fn builds_match_the_recorded_figures() {
    let got = figures().join("\n");
    let want = include_str!("build_golden.txt").trim_end();
    assert!(
        got == want,
        "build figures changed; got:\n{got}\n\nwant:\n{want}"
    );
}
