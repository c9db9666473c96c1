//! Contract learning (§3.3–§3.7).
//!
//! [`learn`] runs one miner per contract category over a [`Dataset`] and
//! assembles the results into a [`ContractSet`]. All miners share a
//! precomputed [`DatasetView`] (per-config pattern occurrence maps and
//! global pattern→config counts), so each miner is a single pass over the
//! data it needs.

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
    finalize_sketches, sketch_config, sketch_params_fingerprint, ConfigSketch,
    SKETCH_FORMAT_VERSION,
};

use crate::contract::{Contract, ContractSet};
use crate::fxhash::FxHashMap;
use crate::ir::{Dataset, PatternId};
use crate::parallel;
use crate::params::LearnParams;

/// Heap bytes of `v`'s buffer: its capacity, not its length.
pub(crate) fn buffer_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Statistics from a learning run: per-phase wall-clock durations and
/// relational-minimization counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LearnStats {
    /// Time spent building the occurrence view.
    pub view_time: std::time::Duration,
    /// Per-miner wall-clock time, in execution order (one entry per
    /// enabled miner, including `relational`). Each miner measures its
    /// own task, so the entries stay meaningful when miners run
    /// concurrently.
    pub miner_times: Vec<(String, std::time::Duration)>,
    /// Wall-clock time of the concurrent simple-miner phase (all
    /// non-relational miners together).
    pub simple_miners_time: std::time::Duration,
    /// Worker threads used to run the simple miners concurrently.
    pub miner_parallelism: usize,
    /// Time spent mining relational candidates.
    pub relational_time: std::time::Duration,
    /// Time spent tree-merging per-config relational partial results
    /// (a sub-phase of `relational_time`).
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

/// Precomputed occurrence data shared by the miners.
pub(crate) struct DatasetView<'a> {
    /// The dataset being learned from.
    pub dataset: &'a Dataset,
    /// For each config: pattern id → indices of lines with that pattern.
    pub lines_by_pattern: Vec<FxHashMap<PatternId, Vec<usize>>>,
    /// For each pattern id: number of configs containing it.
    pub config_count: Vec<u32>,
}

impl<'a> DatasetView<'a> {
    pub fn new(dataset: &'a Dataset) -> Self {
        let mut lines_by_pattern = Vec::with_capacity(dataset.configs.len());
        let mut config_count = vec![0u32; dataset.table.len()];
        for config in &dataset.configs {
            let mut map: FxHashMap<PatternId, Vec<usize>> = FxHashMap::default();
            for (i, &pattern) in config.patterns().iter().enumerate() {
                map.entry(pattern).or_default().push(i);
            }
            for &pattern in map.keys() {
                config_count[pattern.0 as usize] += 1;
            }
            lines_by_pattern.push(map);
        }
        DatasetView {
            dataset,
            lines_by_pattern,
            config_count,
        }
    }

    /// Number of configurations containing `pattern`.
    #[cfg(test)]
    pub fn configs_with(&self, pattern: PatternId) -> usize {
        self.config_count[pattern.0 as usize] as usize
    }

    /// Total number of configurations.
    pub fn num_configs(&self) -> usize {
        self.dataset.configs.len()
    }
}

/// Learns a contract set from `dataset` under `params`.
///
/// The returned contracts are sorted into a stable order (category, then
/// rendered text) so learning is deterministic across runs and parallelism
/// levels.
pub fn learn(dataset: &Dataset, params: &LearnParams) -> ContractSet {
    learn_with_stats(dataset, params).0
}

/// The shared signature of the six simple (non-relational) miners.
type MinerFn = for<'a, 'b> fn(&'a DatasetView<'b>, &LearnParams) -> Vec<Contract>;

/// The simple miners in canonical execution order, with their enable
/// flags resolved against `params`.
fn enabled_miners(params: &LearnParams) -> Vec<(&'static str, MinerFn)> {
    let all: [(&'static str, bool, MinerFn); 6] = [
        ("present", params.enable_present, present::mine),
        ("ordering", params.enable_ordering, ordering::mine),
        ("type", params.enable_type, typing::mine),
        ("sequence", params.enable_sequence, sequence::mine),
        ("unique", params.enable_unique, unique::mine),
        ("range", params.enable_range, range::mine),
    ];
    all.into_iter()
        .filter(|&(_, enabled, _)| enabled)
        .map(|(name, _, mine)| (name, mine))
        .collect()
}

/// Like [`learn`], additionally reporting per-phase timing statistics.
pub fn learn_with_stats(dataset: &Dataset, params: &LearnParams) -> (ContractSet, LearnStats) {
    use std::time::Instant;
    let mut stats = LearnStats::default();

    let t = Instant::now();
    let view = DatasetView::new(dataset);
    stats.view_time = t.elapsed();

    // The simple miners are independent single passes over the shared
    // view: run them concurrently on the work-stealing pool. Each task
    // times itself, so miner_times survives the concurrency; results are
    // collected in canonical miner order regardless of completion order.
    let miners = enabled_miners(params);
    let t = Instant::now();
    let mined: Vec<(std::time::Duration, Vec<Contract>)> = parallel::map(
        &miners,
        |&(_, mine)| {
            let t = Instant::now();
            let contracts = mine(&view, params);
            (t.elapsed(), contracts)
        },
        params.parallelism,
    );
    stats.simple_miners_time = t.elapsed();
    stats.miner_parallelism = params.parallelism.clamp(1, miners.len().max(1));

    let mut contracts: Vec<Contract> = Vec::new();
    for (&(name, _), (elapsed, miner_contracts)) in miners.iter().zip(mined) {
        stats.miner_times.push((name.to_string(), elapsed));
        contracts.extend(miner_contracts);
    }

    let mut relational_before = 0;
    if params.enable_relational {
        let t = Instant::now();
        let outcome = relational::mine(&view, params);
        stats.relational_time = t.elapsed();
        stats.relational_merge_time = outcome.merge_time;
        stats.fanout_truncations = outcome.fanout_truncations;
        stats
            .miner_times
            .push(("relational".to_string(), stats.relational_time));
        relational_before = outcome.contracts.len();
        let t = Instant::now();
        let reduced = if params.minimize {
            minimize::minimize(outcome.contracts, params.parallelism)
        } else {
            outcome.contracts
        };
        stats.minimize_time = t.elapsed();
        stats.relational_after_minimization = reduced.len();
        contracts.extend(reduced.into_iter().map(Contract::Relational));
    }
    stats.relational_before_minimization = relational_before;

    contracts.sort_by(|a, b| (a.category(), a.describe()).cmp(&(b.category(), b.describe())));
    contracts.dedup();

    (
        ContractSet {
            contracts,
            relational_before_minimization: relational_before,
        },
        stats,
    )
}

/// The pre-parallelization, pre-hashing-rework reference learner: the
/// learn engine exactly as it stood before this optimization pass
/// ([`reference`] holds the verbatim pre-optimization implementation).
/// Every parallel path in [`learn`] is pinned byte-identical to this
/// oracle by the equivalence suite; it is compiled only for tests and
/// the `reference-learn` feature (the `learn_scaling` benchmark's
/// baseline).
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn view_counts_configs_per_pattern() {
        let ds = dataset(&["vlan 1\n", "vlan 2\nvlan 3\n", "other\n"]);
        let view = DatasetView::new(&ds);
        let vlan = ds.table.get("/vlan [a:num]").unwrap();
        assert_eq!(view.configs_with(vlan), 2);
        assert_eq!(view.num_configs(), 3);
        assert_eq!(view.lines_by_pattern[1][&vlan].len(), 2);
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
        // The full pipeline (concurrent miners + tree merge + parallel
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
