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

use concord_types::BigNum;

use crate::contract::Contract;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ir::PatternId;
use crate::params::LearnParams;

/// One `(pattern, param)` pair's numeric evidence within a single
/// config.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParamSketch {
    /// Smallest value in this config.
    pub(crate) min: BigNum,
    /// Largest value in this config.
    pub(crate) max: BigNum,
    /// Total numeric instances in this config.
    pub(crate) instances: u64,
    /// Distinct values in first-occurrence order (uncapped per config;
    /// the global 64-value cap is applied at fold time, replaying the
    /// reference accumulation's insertion sequence).
    pub(crate) distinct: Vec<BigNum>,
}

/// Per-config range sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sketch {
    /// `((pattern, param), evidence)` for each numeric pair present in
    /// the config.
    pub(crate) entries: Vec<((PatternId, u16), ParamSketch)>,
}

/// Accumulates one config's numeric evidence.
pub(crate) fn sketch_config(
    dataset: &crate::ir::Dataset,
    ci: usize,
    lines_by_pattern: &FxHashMap<PatternId, Vec<usize>>,
) -> Sketch {
    let config = &dataset.configs[ci];
    let arenas = &dataset.arenas;
    let mut entries = Vec::new();
    for (&pattern, line_idxs) in lines_by_pattern {
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
            let mut ps = ParamSketch {
                min: values[0].clone(),
                max: values[0].clone(),
                instances: 0,
                distinct: Vec::new(),
            };
            let mut seen: FxHashSet<&BigNum> = FxHashSet::default();
            for v in values {
                ps.instances += 1;
                if *v < ps.min {
                    ps.min = v.clone();
                }
                if *v > ps.max {
                    ps.max = v.clone();
                }
                if seen.insert(v) {
                    ps.distinct.push(v.clone());
                }
            }
            entries.push(((pattern, pi as u16), ps));
        }
    }
    Sketch { entries }
}

/// One `(pattern, param)` pair's folded accumulation.
#[derive(Debug)]
struct AccEntry {
    min: BigNum,
    max: BigNum,
    instances: u64,
    distinct: FxHashSet<BigNum>,
    configs: u32,
}

/// Global accumulation folded from per-config sketches in config order.
#[derive(Debug, Default)]
pub(crate) struct Acc {
    stats: FxHashMap<(PatternId, u16), AccEntry>,
}

/// Folds one config's sketch into the accumulation.
pub(crate) fn fold(acc: &mut Acc, sketch: &Sketch) {
    for ((pattern, param), ps) in &sketch.entries {
        let entry = acc
            .stats
            .entry((*pattern, *param))
            .or_insert_with(|| AccEntry {
                min: ps.min.clone(),
                max: ps.max.clone(),
                instances: 0,
                distinct: FxHashSet::default(),
                configs: 0,
            });
        entry.configs += 1;
        entry.instances += ps.instances;
        if ps.min < entry.min {
            entry.min = ps.min.clone();
        }
        if ps.max > entry.max {
            entry.max = ps.max.clone();
        }
        for v in &ps.distinct {
            if entry.distinct.len() < 64 {
                entry.distinct.insert(v.clone());
            }
        }
    }
}

/// Applies the support and set-likeness bars and renders contracts.
pub(crate) fn emit(acc: Acc, dataset: &crate::ir::Dataset, params: &LearnParams) -> Vec<Contract> {
    let mut out = Vec::new();
    for (&(pattern, param), entry) in &acc.stats {
        if (entry.configs as usize) < params.support || entry.instances < 4 {
            continue;
        }
        // Identifier-like parameters have nearly as many distinct values
        // as instances; set-like parameters repeat. Only the latter form
        // meaningful ranges.
        if (entry.distinct.len() as u64) * 2 > entry.instances {
            continue;
        }
        out.push(Contract::Range {
            pattern: dataset.table.text(pattern).to_string(),
            param,
            min: entry.min.clone(),
            max: entry.max.clone(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dataset;

    fn learn_alone(ds: &Dataset, params: &LearnParams) -> Vec<Contract> {
        crate::learn::learn(ds, &crate::learn::only(params, |p| p.enable_range = true)).contracts
    }

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn params() -> LearnParams {
        LearnParams {
            enable_range: true,
            ..LearnParams::default()
        }
    }

    #[test]
    fn learns_mtu_range() {
        // MTU takes one of two values across devices: a set-like range.
        let texts: Vec<String> = (0..8)
            .map(|i| format!("mtu {}\n", if i % 2 == 0 { 1500 } else { 9214 }))
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &params());
        assert_eq!(contracts.len(), 1);
        match &contracts[0] {
            Contract::Range { min, max, .. } => {
                assert_eq!(min, &BigNum::from(1500u64));
                assert_eq!(max, &BigNum::from(9214u64));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identifier_like_values_skipped() {
        // Every device has a distinct id: a range over it is meaningless.
        let texts: Vec<String> = (0..8).map(|i| format!("vlan {}\n", 100 + i)).collect();
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &params()).is_empty());
    }

    #[test]
    fn support_threshold_applies() {
        let texts: Vec<String> = (0..3).map(|_| "mtu 1500\n".to_string()).collect();
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &params()).is_empty());
    }
}
