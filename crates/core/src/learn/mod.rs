//! Contract learning (§3.3–§3.7).
//!
//! Every miner is a per-configuration pass followed by a global
//! aggregation, so learning is one path: [`sketch_config`] sketches each
//! configuration, a [`Fold`] folds the sketches in config order into
//! every miner's accumulation, and [`Fold::finish`] emits the
//! [`ContractSet`]. [`learn_with_stats`] sketches the configs `CHUNK`
//! at a time in parallel and folds each chunk before sketching the
//! next; the incremental engine re-sketches only edited configs and
//! folds its cached sketches with the same [`Fold`], as does
//! [`finalize_sketches`].

mod minimize;
mod ordering;
mod present;
mod range;
#[cfg(any(test, feature = "reference-learn"))]
mod reference;
mod relational;
mod sequence;
mod sketch;
mod typing;
mod unique;

pub(crate) mod indexes;

pub(crate) use sequence::is_sequential as sequence_is_sequential;
pub use sketch::{
    finalize_sketches, sketch_config, sketch_params_fingerprint, ConfigSketch, Fold,
    SKETCH_FORMAT_VERSION,
};

use crate::contract::ContractSet;
use crate::ir::Dataset;
use crate::params::LearnParams;

/// Heap bytes of `v`'s buffer: its capacity, not its length.
pub(crate) fn buffer_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Statistics from a learning run: per-miner durations and relational
/// minimization counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearnStats {
    /// Per-miner time, one entry per enabled miner in canonical order
    /// (present, ordering, type, sequence, unique, range, relational).
    /// Each entry is the miner's sketch section summed over the configs
    /// sketched, plus its fold and emit. Sketch sections are timed on
    /// whichever thread ran them and summed, so the entries are CPU
    /// time while threads do not outnumber cores, and may add up to
    /// more than the wall-clock time of the learn.
    pub miner_times: Vec<(String, std::time::Duration)>,
    /// The relational miner's entry of `miner_times`.
    pub relational_time: std::time::Duration,
    /// Time spent folding per-config relational runs into the global
    /// accumulation (a part of `relational_time`).
    pub relational_merge_time: std::time::Duration,
    /// Time spent in contract minimization (§3.6).
    pub minimize_time: std::time::Duration,
    /// Relational contracts before minimization (§3.6).
    pub relational_before_minimization: usize,
    /// Relational contracts after minimization.
    pub relational_after_minimization: usize,
    /// Witness records dropped by the relational per-instance fan-out
    /// guard — nonzero means pathological fan-out trimmed candidates.
    pub fanout_truncations: u64,
}

/// Configurations a batch learn sketches before folding them. Only one
/// chunk of sketches is alive at a time: a config's sketch (its
/// relational run above all) is several times the config's own size,
/// and sketching every config before folding raised `concord learn`'s
/// peak RSS from 36 to 53 MiB on a 1000-device fleet.
const CHUNK: usize = 64;

/// Learns a contract set from `dataset` under `params`.
///
/// The returned contracts are sorted into a stable order (category, then
/// rendered text) so learning is deterministic across runs and parallelism
/// levels.
pub fn learn(dataset: &Dataset, params: &LearnParams) -> ContractSet {
    learn_with_stats(dataset, params).0
}

/// Like [`learn`], additionally reporting per-miner timing statistics.
pub fn learn_with_stats(dataset: &Dataset, params: &LearnParams) -> (ContractSet, LearnStats) {
    let mut fold = Fold::new(dataset, params);
    let indices: Vec<usize> = (0..dataset.configs.len()).collect();
    for chunk in indices.chunks(CHUNK) {
        let sketches = fold.sketch(chunk, params.parallelism);
        let refs: Vec<&ConfigSketch> = sketches.iter().collect();
        fold.add(&refs);
    }
    fold.finish()
}

/// The pre-parallelization, pre-hashing-rework reference learner: the
/// learn engine exactly as it stood before this optimization pass (the
/// private `reference` module holds the verbatim pre-optimization
/// implementation). Every parallel path in [`learn`] is pinned
/// byte-identical to this oracle by the equivalence suite; it is
/// compiled only for tests and the `reference-learn` feature (the
/// `learn_scaling` benchmark's baseline).
#[cfg(any(test, feature = "reference-learn"))]
pub fn learn_reference(dataset: &Dataset, params: &LearnParams) -> ContractSet {
    reference::learn(dataset, params)
}

/// Reconstructs a line's canonical text by substituting parameter values
/// back into the holes of its pattern (used by constant learning).
pub(crate) fn fill_pattern(pattern: &str, params: &[concord_lexer::Param]) -> String {
    let mut out = String::with_capacity(pattern.len());
    fill_pattern_into(&mut out, pattern, params);
    out
}

/// [`fill_pattern`] into a caller-owned buffer, so a per-line loop can
/// reuse one allocation across the whole pass.
pub(crate) fn fill_pattern_into(out: &mut String, pattern: &str, params: &[concord_lexer::Param]) {
    let mut values = params.iter();
    let bytes = pattern.as_bytes();
    let mut pos = 0;
    while pos < pattern.len() {
        if bytes[pos] == b'[' {
            if let Some(end_rel) = pattern[pos + 1..].find(']') {
                let inner = &pattern[pos + 1..pos + 1 + end_rel];
                let is_hole = !inner.is_empty()
                    && inner.chars().all(|c| c.is_ascii_alphanumeric() || c == ':');
                if is_hole {
                    // A bound hole consumes and substitutes the next
                    // value; an anonymous (context) hole — or a bound
                    // hole with no value left — is kept as-is, written
                    // directly into `out` (no per-hole format!).
                    let value = if inner.contains(':') {
                        values.next()
                    } else {
                        None
                    };
                    match value {
                        Some(p) => p.value.render_into(out),
                        None => {
                            out.push('[');
                            out.push_str(inner);
                            out.push(']');
                        }
                    }
                    pos += end_rel + 2;
                    continue;
                }
            }
        }
        let c = pattern[pos..].chars().next().expect("in-bounds");
        out.push(c);
        pos += c.len_utf8();
    }
}

/// `params` with every miner off except those `enable` switches back on.
#[cfg(test)]
pub(crate) fn only(params: &LearnParams, enable: fn(&mut LearnParams)) -> LearnParams {
    let mut only = LearnParams {
        enable_present: false,
        enable_ordering: false,
        enable_type: false,
        enable_sequence: false,
        enable_unique: false,
        enable_range: false,
        enable_relational: false,
        ..params.clone()
    };
    enable(&mut only);
    only
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use crate::ir::Dataset;

    fn dataset(texts: &[&str]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.to_string()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    #[test]
    fn patterns_count_once_per_config() {
        // `vlan` has five lines but sits in four of five configs: 80% is
        // below the confidence bar, though five lines would clear it.
        let ds = dataset(&[
            "vlan 1\nvlan 2\n",
            "vlan 3\n",
            "vlan 4\n",
            "vlan 5\n",
            "other\n",
        ]);
        let params = LearnParams {
            support: 1,
            ..LearnParams::default()
        };
        let learned = learn(&ds, &params);
        assert!(!learned.contracts.contains(&Contract::Present {
            pattern: "/vlan [a:num]".to_string()
        }));
        assert!(!learned.is_empty());
    }

    #[test]
    fn learn_is_deterministic() {
        let texts: Vec<String> = (0..8)
            .map(|i| format!("hostname DEV{i}\nrouter bgp 65000\n vlan {}\n", 100 + i))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        let params = LearnParams::default();
        let a = learn(&ds, &params);
        let b = learn(&ds, &params);
        assert_eq!(a.contracts, b.contracts);
        assert!(!a.is_empty());
    }

    #[test]
    fn learn_matches_reference_at_all_parallelism_levels() {
        // The full pipeline (parallel sketching, the fold, parallel
        // minimization) must be byte-identical to the sequential
        // reference learner at every parallelism level.
        let texts: Vec<String> = (0..9)
            .map(|i| {
                format!(
                    "hostname DEV{i}\ninterface Loopback0\n ip address 10.14.14.{i}\n\
                     ip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n\
                     vlan {}\n rd 10.0.0.1:10{}\nvni {}\n",
                    250 + i,
                    250 + i,
                    250 + i
                )
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        for parallelism in [1, 3, 8] {
            let params = LearnParams {
                parallelism,
                learn_constants: true,
                ..LearnParams::default()
            };
            let optimized = learn(&ds, &params);
            let reference = learn_reference(&ds, &params);
            assert_eq!(
                optimized.contracts, reference.contracts,
                "optimized learner diverges from reference at parallelism {parallelism}"
            );
            assert!(!optimized.is_empty());
        }
    }

    #[test]
    fn disabled_categories_do_not_emit() {
        let texts: Vec<String> = (0..8).map(|i| format!("hostname DEV{i}\n")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let ds = dataset(&refs);
        let params = LearnParams {
            enable_present: false,
            enable_ordering: false,
            enable_type: false,
            enable_sequence: false,
            enable_unique: false,
            enable_relational: false,
            ..LearnParams::default()
        };
        assert!(learn(&ds, &params).is_empty());
    }

    #[test]
    fn fill_pattern_substitutes_bound_holes() {
        let ds = dataset(&["rd 1.2.3.4:55\n"]);
        let line = ds.configs[0].line(&ds.arenas, 0);
        let pattern = ds.table.text(line.pattern);
        assert_eq!(fill_pattern(pattern, line.params), "/rd 1.2.3.4:55");
    }

    #[test]
    fn fill_pattern_keeps_anonymous_holes() {
        let ds = dataset(&["interface Loopback0\n ip address 10.0.0.1\n"]);
        let line = ds.configs[0].line(&ds.arenas, 1);
        let pattern = ds.table.text(line.pattern);
        assert_eq!(
            fill_pattern(pattern, line.params),
            "/interface Loopback[num]/ip address 10.0.0.1"
        );
    }
}
