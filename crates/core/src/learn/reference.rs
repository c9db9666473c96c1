//! The pre-optimization learn engine, kept verbatim as the equivalence
//! oracle and benchmark baseline for the parallel learner (the same role
//! `check_naive` plays for the compiled check engine). Everything here is
//! the implementation as it stood before the concurrent-miner /
//! tree-merge / Fx-hashing rework: sequential miners on SipHash `std`
//! maps, a `DefaultHasher` witness fingerprint per antecedent value, a
//! `format!`-per-hole pattern filler, and a left-fold relational merge.
//! `crates/bench/tests/learn_equivalence.rs` pins the optimized learner
//! byte-identical to this module; `learn_scaling` times the two against
//! each other.
//!
//! Intentional duplication: sharing code with the live engine would let
//! an optimization bug change both sides in lockstep. Only the leaf data
//! structures with no accumulation semantics of their own (tries,
//! minimization) are shared.

use crate::contract::{Contract, ContractSet};
use crate::ir::{Dataset, PatternId};
use crate::learn::indexes::{RelationStructure, StrTrie};
use crate::params::LearnParams;
use concord_types::Value;

/// The pre-optimization learner: sequential miners in canonical order,
/// the left-fold relational merge, sequential minimization.
pub(crate) fn learn(dataset: &Dataset, params: &LearnParams) -> ContractSet {
    let view = DatasetView::new(dataset);
    let mut contracts: Vec<Contract> = Vec::new();
    if params.enable_present {
        contracts.extend(present::mine(&view, params));
    }
    if params.enable_ordering {
        contracts.extend(ordering::mine(&view, params));
    }
    if params.enable_type {
        contracts.extend(typing::mine(&view, params));
    }
    if params.enable_sequence {
        contracts.extend(sequence::mine(&view, params));
    }
    if params.enable_unique {
        contracts.extend(unique::mine(&view, params));
    }
    if params.enable_range {
        contracts.extend(range::mine(&view, params));
    }

    let mut relational_before = 0;
    if params.enable_relational {
        let (mined, _) = mine_relational(&view, params);
        relational_before = mined.len();
        let reduced = if params.minimize {
            super::minimize::minimize(mined, 1)
        } else {
            mined
        };
        contracts.extend(reduced.into_iter().map(Contract::Relational));
    }

    contracts.sort_by(|a, b| (a.category(), a.describe()).cmp(&(b.category(), b.describe())));
    contracts.dedup();

    ContractSet {
        contracts,
        relational_before_minimization: relational_before,
    }
}

/// The pre-optimization occurrence view: per-config pattern → line maps
/// and per-pattern config counts, on `std` SipHash maps.
pub(super) struct DatasetView<'a> {
    /// The dataset being learned from.
    pub dataset: &'a Dataset,
    /// For each config: pattern id → indices of lines with that pattern.
    pub lines_by_pattern: Vec<std::collections::HashMap<PatternId, Vec<usize>>>,
    /// For each pattern id: number of configs containing it.
    pub config_count: Vec<u32>,
}

impl<'a> DatasetView<'a> {
    pub fn new(dataset: &'a Dataset) -> Self {
        let mut lines_by_pattern = Vec::with_capacity(dataset.configs.len());
        let mut config_count = vec![0u32; dataset.table.len()];
        for config in &dataset.configs {
            let mut map: std::collections::HashMap<PatternId, Vec<usize>> =
                std::collections::HashMap::new();
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
    pub fn configs_with(&self, pattern: PatternId) -> usize {
        self.config_count[pattern.0 as usize] as usize
    }

    /// Total number of configurations.
    pub fn num_configs(&self) -> usize {
        self.dataset.configs.len()
    }
}

/// Reconstructs a line's canonical text by substituting parameter values
/// back into the holes of its pattern (used by constant learning).
pub(crate) fn fill_pattern(pattern: &str, params: &[concord_lexer::Param]) -> String {
    let mut values = params.iter();
    let mut out = String::with_capacity(pattern.len());
    let bytes = pattern.as_bytes();
    let mut pos = 0;
    while pos < pattern.len() {
        if bytes[pos] == b'[' {
            if let Some(end_rel) = pattern[pos + 1..].find(']') {
                let inner = &pattern[pos + 1..pos + 1 + end_rel];
                let is_hole = !inner.is_empty()
                    && inner.chars().all(|c| c.is_ascii_alphanumeric() || c == ':');
                if is_hole {
                    if inner.contains(':') {
                        // A bound hole: substitute the next value.
                        match values.next() {
                            Some(p) => out.push_str(&p.value.render()),
                            None => out.push_str(&format!("[{inner}]")),
                        }
                    } else {
                        // Anonymous (context) hole: keep as-is.
                        out.push_str(&format!("[{inner}]"));
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
    out
}

mod present {
    //! Present-contract mining (§3.4).
    //!
    //! `exists l ~ p`: Concord tracks every pattern used in each configuration
    //! and extracts those appearing in at least `C`% of the configurations
    //! (and at least `S` configurations). With constant learning enabled (§4),
    //! the same is additionally done over exact line text, which captures
    //! globally shared "magic constant" policies.

    use std::collections::HashMap;

    use super::DatasetView;
    use crate::contract::Contract;

    use super::fill_pattern;
    use crate::params::LearnParams;

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        let total = view.num_configs();
        let required = params.required_valid(total);
        let mut out = Vec::new();

        for (id, text) in view.dataset.table.iter() {
            let count = view.configs_with(id);
            if count >= params.support && count >= required {
                out.push(Contract::Present {
                    pattern: text.to_string(),
                });
            }
        }

        if params.learn_constants {
            // Count exact filled-line occurrences per config (set semantics:
            // a line appearing twice in one config counts once).
            let mut line_configs: HashMap<String, u32> = HashMap::new();
            for config in &view.dataset.configs {
                let mut seen = std::collections::HashSet::new();
                for line in config.lines(&view.dataset.arenas) {
                    let filled = fill_pattern(view.dataset.table.text(line.pattern), line.params);
                    if seen.insert(filled.clone()) {
                        *line_configs.entry(filled).or_insert(0) += 1;
                    }
                }
            }
            for (line, count) in line_configs {
                let count = count as usize;
                if count >= params.support && count >= required {
                    // Skip lines whose pattern has no holes: the plain Present
                    // contract already covers them exactly.
                    if line.contains('[') || {
                        let pattern_id = view.dataset.table.get(&line);
                        pattern_id.is_none()
                    } {
                        out.push(Contract::PresentExact { line });
                    } else {
                        continue;
                    }
                }
            }
        }
        out
    }
}

mod ordering {
    //! Ordering-contract mining (§3.4).
    //!
    //! Ordering contracts only relate *immediate* successor lines: whenever a
    //! line matches `p1`, the next line must match `p2`. Restricting to
    //! adjacent pairs keeps learning fast and lets contracts chain into blocks
    //! of lines that must appear together.

    use std::collections::HashMap;

    use super::DatasetView;
    use crate::contract::Contract;
    use crate::ir::PatternId;
    use crate::params::LearnParams;

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        // (p1 -> p2) -> number of configs in which EVERY p1 line is
        // immediately followed by a p2 line.
        let mut valid: HashMap<(PatternId, PatternId), u32> = HashMap::new();

        for config in &view.dataset.configs {
            // For each p1 in this config, the set of follower patterns; `None`
            // marks an occurrence with no valid follower (end of file or a
            // metadata boundary).
            let mut followers: HashMap<PatternId, Option<PatternId>> = HashMap::new();
            let mut conflicted: std::collections::HashSet<PatternId> =
                std::collections::HashSet::new();
            for i in 0..config.len() {
                let pattern = config.pattern(i);
                let follower = if i + 1 < config.len() && config.is_meta(i + 1) == config.is_meta(i)
                {
                    Some(config.pattern(i + 1))
                } else {
                    None
                };
                match followers.entry(pattern) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(follower);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != follower {
                            conflicted.insert(pattern);
                        }
                    }
                }
            }
            for (p1, follower) in followers {
                if conflicted.contains(&p1) {
                    continue;
                }
                if let Some(p2) = follower {
                    *valid.entry((p1, p2)).or_insert(0) += 1;
                }
            }
        }

        let mut out = Vec::new();
        for (&(p1, p2), &valid_count) in &valid {
            let support = view.configs_with(p1);
            if view.configs_with(p2) < params.support {
                continue;
            }
            if params.accept(valid_count as usize, support) {
                out.push(Contract::Ordering {
                    first: view.dataset.table.text(p1).to_string(),
                    second: view.dataset.table.text(p2).to_string(),
                });
            }
        }
        out
    }
}

mod typing {
    //! Type-contract mining (§3.4).
    //!
    //! Misconfigurations often manifest as type errors (an IPv4 prefix where an
    //! address belongs). Concord rewrites every pattern to a type-agnostic
    //! form (`ip address [a:ip4]` → `ip address [?]`), tallies the concrete
    //! types used at each hole, and deems a type invalid when it appears in
    //! fewer than `(100 − C)%` of uses. The learned contract records the
    //! *valid* types, so checking also flags types never seen in training.
    //!
    //! A contract is only emitted for holes where at least two distinct types
    //! were observed — a hole that only ever held one type generates no
    //! evidence of a type *choice*, and emitting a contract per pattern hole
    //! would drown the output.

    use std::collections::HashMap;

    use concord_lexer::type_agnostic_pattern;
    use concord_types::ValueType;

    use super::DatasetView;
    use crate::contract::Contract;
    use crate::params::LearnParams;

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        // agnostic pattern -> per-hole type usage counts, plus config support.
        struct Group {
            hole_types: Vec<HashMap<ValueType, u64>>,
            configs: std::collections::HashSet<usize>,
        }
        let mut groups: HashMap<String, Group> = HashMap::new();

        for (ci, config) in view.dataset.configs.iter().enumerate() {
            for line in config.lines(&view.dataset.arenas) {
                if line.params.is_empty() {
                    continue;
                }
                let agnostic = type_agnostic_pattern(view.dataset.table.text(line.pattern));
                let group = groups.entry(agnostic).or_insert_with(|| Group {
                    hole_types: Vec::new(),
                    configs: std::collections::HashSet::new(),
                });
                group.configs.insert(ci);
                // Holes of the *bound* parameters: anonymous context holes are
                // part of the agnostic text too, so index bound holes by
                // their position among bound params only.
                if group.hole_types.len() < line.params.len() {
                    group
                        .hole_types
                        .resize_with(line.params.len(), HashMap::new);
                }
                for (i, param) in line.params.iter().enumerate() {
                    *group.hole_types[i].entry(param.ty.clone()).or_insert(0) += 1;
                }
            }
        }

        let mut out = Vec::new();
        for (agnostic, group) in groups {
            if group.configs.len() < params.support {
                continue;
            }
            for (hole, types) in group.hole_types.iter().enumerate() {
                if types.len() < 2 {
                    continue;
                }
                let total: u64 = types.values().sum();
                let min_freq = (1.0 - params.confidence) * total as f64;
                let mut valid: Vec<ValueType> = types
                    .iter()
                    .filter(|&(_, &count)| count as f64 >= min_freq)
                    .map(|(ty, _)| ty.clone())
                    .collect();
                if valid.is_empty() || valid.len() == types.len() {
                    // Either everything is rare (degenerate) or nothing is:
                    // no restriction to enforce.
                    continue;
                }
                valid.sort();
                out.push(Contract::Type {
                    pattern: agnostic.clone(),
                    hole: hole as u16,
                    valid,
                });
            }
        }
        out
    }
}

mod sequence {
    //! Sequence-contract mining (§3.4).
    //!
    //! Sequence contracts apply to numeric parameters whose values within each
    //! configuration form an equidistant, strictly increasing progression
    //! (e.g. `seq 10`, `seq 20`, `seq 30`). They catch missing or reordered
    //! sequence elements.

    use std::collections::HashMap;

    use concord_types::BigNum;

    use super::DatasetView;
    use crate::contract::Contract;
    use crate::ir::PatternId;
    use crate::params::LearnParams;

    /// Returns `true` when `values` (in order of appearance) are strictly
    /// increasing and equidistant with a positive common difference.
    pub(crate) fn is_sequential(values: &[&BigNum]) -> bool {
        if values.len() < 2 {
            return false;
        }
        let mut step: Option<BigNum> = None;
        for pair in values.windows(2) {
            if pair[1] <= pair[0] {
                return false;
            }
            let diff = pair[1].sub(pair[0]);
            match &step {
                None => step = Some(diff),
                Some(s) if *s == diff => {}
                Some(_) => return false,
            }
        }
        true
    }

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        // (pattern, param) -> (configs with >= 2 instances, sequential configs).
        let mut stats: HashMap<(PatternId, u16), (u32, u32)> = HashMap::new();

        for (ci, config) in view.dataset.configs.iter().enumerate() {
            for (&pattern, line_idxs) in &view.lines_by_pattern[ci] {
                if line_idxs.len() < 2 {
                    continue;
                }
                let arenas = &view.dataset.arenas;
                let first = config.line(arenas, line_idxs[0]);
                for (pi, param) in first.params.iter().enumerate() {
                    if param.value.as_num().is_none() {
                        continue;
                    }
                    let values: Vec<&BigNum> = line_idxs
                        .iter()
                        .filter_map(|&li| config.line(arenas, li).params.get(pi))
                        .filter_map(|p| p.value.as_num())
                        .collect();
                    if values.len() != line_idxs.len() {
                        continue;
                    }
                    let entry = stats.entry((pattern, pi as u16)).or_insert((0, 0));
                    entry.0 += 1;
                    if is_sequential(&values) {
                        entry.1 += 1;
                    }
                }
            }
        }

        let mut out = Vec::new();
        for (&(pattern, param), &(support, sequential)) in &stats {
            if params.accept(sequential as usize, support as usize) {
                out.push(Contract::Sequence {
                    pattern: view.dataset.table.text(pattern).to_string(),
                    param,
                });
            }
        }
        out
    }
}

mod unique {
    //! Unique-contract mining (§3.4).
    //!
    //! Unique contracts capture parameters whose values are globally distinct
    //! across all configurations (hostnames, router ids, interface addresses).
    //! They catch copy-paste errors and resource reuse. To avoid learning
    //! "unique" from handfuls of coincidentally distinct small numbers, the
    //! aggregate informativeness of the observed values must clear the score
    //! threshold (§3.5).

    use std::collections::{HashMap, HashSet};

    use concord_types::score::value_score;

    use super::DatasetView;
    use crate::contract::Contract;
    use crate::ir::PatternId;
    use crate::params::LearnParams;

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        struct Acc {
            values: HashSet<String>,
            instances: u64,
            duplicate: bool,
            score: f64,
            configs: u32,
            once_per_config: bool,
        }
        let mut stats: HashMap<(PatternId, u16), Acc> = HashMap::new();

        for (ci, _) in view.dataset.configs.iter().enumerate() {
            for (&pattern, line_idxs) in &view.lines_by_pattern[ci] {
                let config = &view.dataset.configs[ci];
                let arenas = &view.dataset.arenas;
                let first = config.line(arenas, line_idxs[0]);
                for pi in 0..first.params.len() {
                    let acc = stats.entry((pattern, pi as u16)).or_insert_with(|| Acc {
                        values: HashSet::new(),
                        instances: 0,
                        duplicate: false,
                        score: 0.0,
                        configs: 0,
                        once_per_config: true,
                    });
                    acc.configs += 1;
                    if line_idxs.len() != 1 {
                        acc.once_per_config = false;
                    }
                    for &li in line_idxs {
                        let Some(param) = config.line(arenas, li).params.get(pi) else {
                            continue;
                        };
                        acc.instances += 1;
                        let rendered = param.value.render();
                        if acc.values.contains(&rendered) {
                            acc.duplicate = true;
                        } else {
                            if acc.values.len() < params.max_score_witnesses {
                                acc.score += value_score(&param.value);
                            }
                            acc.values.insert(rendered);
                        }
                    }
                }
            }
        }

        let mut out = Vec::new();
        for (&(pattern, param), acc) in &stats {
            if acc.duplicate
                || (acc.configs as usize) < params.support
                || acc.instances < 2
                || acc.score < params.score_threshold
            {
                continue;
            }
            out.push(Contract::Unique {
                pattern: view.dataset.table.text(pattern).to_string(),
                param,
                // "Exactly once per configuration" only holds as a fleet-wide
                // rule when every configuration (not just those containing
                // the pattern) has exactly one instance — otherwise a
                // role-specific pattern would be demanded of foreign roles.
                once_per_config: acc.once_per_config && acc.configs as usize == view.num_configs(),
            });
        }
        out
    }
}

mod range {
    //! Range-contract mining (an extension category).
    //!
    //! §3.4 notes that Concord "is easy to extend ... to incorporate new
    //! categories"; range contracts demonstrate the extension point. A range
    //! contract asserts that a numeric parameter stays within the interval
    //! observed during training (e.g. `mtu` between 1500 and 9214) — the rule
    //! family that key–value learners like ConfigV center on.
    //!
    //! Ranges generalize poorly for identifier-like parameters (VLAN ids,
    //! sequence numbers), so they are **disabled by default**
    //! ([`crate::LearnParams::enable_range`]) and only learned for parameters
    //! whose observed values repeat across configurations (set-like usage,
    //! not identifier-like usage).

    use std::collections::HashMap;

    use concord_types::BigNum;

    use super::DatasetView;
    use crate::contract::Contract;
    use crate::ir::PatternId;
    use crate::params::LearnParams;

    pub(crate) fn mine(view: &DatasetView<'_>, params: &LearnParams) -> Vec<Contract> {
        struct Acc {
            min: BigNum,
            max: BigNum,
            instances: u64,
            distinct: std::collections::HashSet<BigNum>,
            configs: u32,
        }
        let mut stats: HashMap<(PatternId, u16), Acc> = HashMap::new();

        for (ci, config) in view.dataset.configs.iter().enumerate() {
            for (&pattern, line_idxs) in &view.lines_by_pattern[ci] {
                let arenas = &view.dataset.arenas;
                let first = config.line(arenas, line_idxs[0]);
                for (pi, param) in first.params.iter().enumerate() {
                    if param.value.as_num().is_none() {
                        continue;
                    }
                    let values: Vec<&BigNum> = line_idxs
                        .iter()
                        .filter_map(|&li| config.line(arenas, li).params.get(pi))
                        .filter_map(|p| p.value.as_num())
                        .collect();
                    if values.is_empty() {
                        continue;
                    }
                    let acc = stats.entry((pattern, pi as u16)).or_insert_with(|| Acc {
                        min: values[0].clone(),
                        max: values[0].clone(),
                        instances: 0,
                        distinct: std::collections::HashSet::new(),
                        configs: 0,
                    });
                    acc.configs += 1;
                    for v in values {
                        acc.instances += 1;
                        if *v < acc.min {
                            acc.min = v.clone();
                        }
                        if *v > acc.max {
                            acc.max = v.clone();
                        }
                        if acc.distinct.len() < 64 {
                            acc.distinct.insert(v.clone());
                        }
                    }
                }
            }
        }

        let mut out = Vec::new();
        for (&(pattern, param), acc) in &stats {
            if (acc.configs as usize) < params.support || acc.instances < 4 {
                continue;
            }
            // Identifier-like parameters have nearly as many distinct values
            // as instances; set-like parameters repeat. Only the latter form
            // meaningful ranges.
            if (acc.distinct.len() as u64) * 2 > acc.instances {
                continue;
            }
            out.push(Contract::Range {
                pattern: view.dataset.table.text(pattern).to_string(),
                param,
                min: acc.min.clone(),
                max: acc.max.clone(),
            });
        }
        out
    }
}

/// Pre-optimization equality structure: the same value → entries table as
/// [`crate::learn::indexes::EqualityStructure`], on the `std` SipHash map
/// it used before the Fx swap.
#[derive(Debug, Default)]
struct StdEqualityStructure {
    map: std::collections::HashMap<concord_types::Value, Vec<u32>>,
}

impl crate::learn::indexes::RelationStructure for StdEqualityStructure {
    fn relation(&self) -> crate::contract::RelationKind {
        crate::contract::RelationKind::Equals
    }

    fn insert(&mut self, value: &concord_types::Value, entry: u32) {
        self.map.entry(value.clone()).or_default().push(entry);
    }

    fn query(&self, value: &concord_types::Value, out: &mut Vec<u32>) -> bool {
        if let Some(entries) = self.map.get(value) {
            out.extend_from_slice(entries);
        }
        true
    }
}

/// The pre-optimization affix structure, verbatim: per-entry string
/// lengths in a sorted pair list probed by binary search (the live
/// [`AffixStructure`](crate::learn::indexes::AffixStructure) now uses a
/// dense O(1) table). A character trie over string forms, forward for `startswith`
/// or reversed for `endswith`. Strings of equal length are excluded —
/// exact equality is [`EqualityStructure`]'s business — by recording each
/// string's length alongside its entry id.
#[derive(Debug)]
pub struct ReferenceAffixStructure {
    trie: StrTrie,
    lengths: Vec<(u32, u32)>,
    reverse: bool,
    cap: usize,
}

impl ReferenceAffixStructure {
    /// Creates an affix structure; `reverse = true` matches suffixes
    /// (`endswith`), `false` matches prefixes (`startswith`). Queries
    /// whose subtree exceeds `cap` entries report "too unspecific".
    pub fn new(reverse: bool, cap: usize) -> Self {
        ReferenceAffixStructure {
            trie: StrTrie::default(),
            lengths: Vec::new(),
            reverse,
            cap,
        }
    }

    fn len_of(&self, entry: u32) -> Option<u32> {
        self.lengths
            .binary_search_by_key(&entry, |&(e, _)| e)
            .ok()
            .map(|i| self.lengths[i].1)
    }
}

impl RelationStructure for ReferenceAffixStructure {
    fn relation(&self) -> crate::contract::RelationKind {
        if self.reverse {
            crate::contract::RelationKind::EndsWith
        } else {
            crate::contract::RelationKind::StartsWith
        }
    }

    fn insert(&mut self, value: &Value, entry: u32) {
        if let Value::Str(s) = value {
            if self.reverse {
                self.trie.insert(s.chars().rev(), entry);
            } else {
                self.trie.insert(s.chars(), entry);
            }
            self.lengths.push((entry, s.len() as u32));
        }
    }

    fn query(&self, value: &Value, out: &mut Vec<u32>) -> bool {
        let Some(s) = value.as_str() else {
            return true;
        };
        if s.len() < 2 {
            return false;
        }
        let complete = if self.reverse {
            self.trie
                .subtree_with_prefix(s.chars().rev(), self.cap, out)
        } else {
            self.trie.subtree_with_prefix(s.chars(), self.cap, out)
        };
        if !complete {
            out.clear();
            return false;
        }
        // Drop exact-equal strings: those are equality's business.
        out.retain(|&i| self.len_of(i).is_some_and(|len| len as usize > s.len()));
        true
    }
}

/// The pre-optimization [`ValueIndex`]: std-hashed equality plus the
/// shared trie-backed containment/affix structures, in the same
/// registration order as [`ValueIndex::new`].
fn reference_index(affix_cap: usize) -> crate::learn::indexes::ValueIndex {
    use crate::learn::indexes::{ContainsStructure, ValueIndex};
    ValueIndex {
        entries: Vec::new(),
        structures: vec![
            Box::new(StdEqualityStructure::default()),
            Box::new(ContainsStructure::default()),
            Box::new(ReferenceAffixStructure::new(false, affix_cap)),
            Box::new(ReferenceAffixStructure::new(true, affix_cap)),
        ],
    }
}

/// [`mine_relational`] over `dataset`'s own view: the oracle the
/// relational miner's unit tests compare against.
#[cfg(test)]
pub(crate) fn relational(
    dataset: &Dataset,
    params: &LearnParams,
) -> (Vec<crate::contract::RelationalContract>, u64) {
    mine_relational(&DatasetView::new(dataset), params)
}

/// The pre-optimization relational miner: per-config mining on SipHash
/// `std` maps with a `DefaultHasher` witness fingerprint per antecedent,
/// configs processed strictly sequentially, and the per-config results
/// combined by a sequential left fold into a running-sum global map —
/// the semantics the chunked sketch fold must reproduce bit-for-bit.
/// Returns the contracts, sorted, and the witness records the fan-out
/// guard dropped.
pub(crate) fn mine_relational(
    view: &DatasetView<'_>,
    params: &LearnParams,
) -> (Vec<crate::contract::RelationalContract>, u64) {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{HashMap, HashSet};
    use std::hash::{Hash, Hasher};

    use concord_types::score::value_score;
    use concord_types::Transform;

    use crate::contract::RelationKind;
    use crate::learn::indexes::{Entry, NodeKey, TransformTag, ValueIndex};
    use crate::learn::relational::{finalize_scored, CandKey};

    struct LocalResult {
        /// Candidate → (satisfied instance count, witness (hash, score)
        /// per instance).
        candidates: HashMap<CandKey, (u32, Vec<(u64, f64)>)>,
        /// Node → number of instances (entries) in this configuration.
        node_instances: HashMap<NodeKey, u32>,
        truncations: u64,
    }

    fn record_reference(
        index: &ValueIndex,
        a_idx: usize,
        c_idx: u32,
        relation: RelationKind,
        satisfied: &mut HashMap<CandKey, f64>,
        params: &LearnParams,
        truncations: &mut u64,
    ) {
        let a = &index.entries[a_idx];
        let c = &index.entries[c_idx as usize];
        if a.node == c.node {
            return;
        }
        if satisfied.len() >= params.max_witnesses_per_instance * 8 {
            *truncations += 1;
            return;
        }
        let key = CandKey {
            antecedent: a.node,
            relation,
            consequent: c.node,
        };
        let score = a.score.min(c.score);
        satisfied
            .entry(key)
            .and_modify(|best| *best = best.max(score))
            .or_insert(score);
    }

    fn mine_config_reference(
        view: &DatasetView<'_>,
        ci: usize,
        params: &LearnParams,
    ) -> LocalResult {
        let config = &view.dataset.configs[ci];
        let mut index = reference_index(params.max_affix_fanout);
        let mut node_instances: HashMap<NodeKey, u32> = HashMap::new();

        for line in config.lines(&view.dataset.arenas) {
            for (pi, param) in line.params.iter().enumerate() {
                let base_score = value_score(&param.value);
                for transform in Transform::enumerate_for(&param.value) {
                    let Some(value) = transform.apply(&param.value) else {
                        continue;
                    };
                    let node = NodeKey {
                        pattern: line.pattern,
                        param: pi as u16,
                        transform_tag: TransformTag::from_transform(&transform),
                    };
                    *node_instances.entry(node).or_insert(0) += 1;
                    index.insert(Entry {
                        node,
                        value,
                        score: base_score * transform.score_discount(),
                    });
                }
            }
        }

        let mut candidates: HashMap<CandKey, (u32, Vec<(u64, f64)>)> = HashMap::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut satisfied: HashMap<CandKey, f64> = HashMap::new();
        let mut truncations = 0u64;

        for a_idx in 0..index.entries.len() {
            satisfied.clear();
            for structure in &index.structures {
                scratch.clear();
                if structure.query(&index.entries[a_idx].value, &mut scratch) {
                    let relation = structure.relation();
                    for &c_idx in &scratch {
                        record_reference(
                            &index,
                            a_idx,
                            c_idx,
                            relation,
                            &mut satisfied,
                            params,
                            &mut truncations,
                        );
                    }
                }
            }

            let a_hash = {
                let mut h = DefaultHasher::new();
                index.entries[a_idx].value.hash(&mut h);
                h.finish()
            };
            for (&key, &score) in &satisfied {
                let slot = candidates.entry(key).or_insert_with(|| (0, Vec::new()));
                slot.0 += 1;
                slot.1.push((a_hash, score));
            }
        }

        LocalResult {
            candidates,
            node_instances,
            truncations,
        }
    }

    let locals: Vec<LocalResult> = (0..view.num_configs())
        .map(|ci| mine_config_reference(view, ci, params))
        .collect();
    let fanout_truncations = locals.iter().map(|l| l.truncations).sum();

    // Merge: valid-config counts and diversity-aggregated running-sum
    // scores, strictly in config order.
    struct Global {
        valid: u32,
        score: f64,
        seen: HashSet<u64>,
    }
    let mut global: HashMap<CandKey, Global> = HashMap::new();
    for local in locals {
        for (key, (count, witnesses)) in local.candidates {
            let instances = local
                .node_instances
                .get(&key.antecedent)
                .copied()
                .unwrap_or(0);
            let entry = global.entry(key).or_insert_with(|| Global {
                valid: 0,
                score: 0.0,
                seen: HashSet::new(),
            });
            if count == instances && instances > 0 {
                entry.valid += 1;
            }
            for (hash, score) in witnesses {
                if entry.seen.len() < params.max_score_witnesses && entry.seen.insert(hash) {
                    entry.score += score;
                }
            }
        }
    }
    let scored = global.into_iter().map(|(key, g)| (key, g.valid, g.score));
    (
        finalize_scored(scored, view.dataset, &view.config_count, params),
        fanout_truncations,
    )
}
