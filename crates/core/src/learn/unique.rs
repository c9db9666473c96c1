//! Unique-contract mining (§3.4).
//!
//! Unique contracts capture parameters whose values are globally distinct
//! across all configurations (hostnames, router ids, interface addresses).
//! They catch copy-paste errors and resource reuse. To avoid learning
//! "unique" from handfuls of coincidentally distinct small numbers, the
//! aggregate informativeness of the observed values must clear the score
//! threshold (§3.5).

use concord_types::score::value_score;

use crate::contract::Contract;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ir::PatternId;
use crate::params::LearnParams;

/// One `(pattern, param)` pair's evidence within a single config.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ParamSketch {
    /// Distinct rendered values in first-occurrence order, each with the
    /// informativeness score of its first instance.
    pub(crate) distinct: Vec<(String, f64)>,
    /// Total instances (including repeats) in this config.
    pub(crate) instances: u64,
    /// A value repeated *within* this config.
    pub(crate) intra_dup: bool,
    /// The pattern has more than one line in this config.
    pub(crate) multi: bool,
}

/// Per-config unique sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sketch {
    /// `((pattern, param), evidence)` for each pair present in the
    /// config.
    pub(crate) entries: Vec<((PatternId, u16), ParamSketch)>,
}

/// Accumulates one config's uniqueness evidence.
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
        for pi in 0..first.params.len() {
            let mut ps = ParamSketch {
                multi: line_idxs.len() != 1,
                ..ParamSketch::default()
            };
            let mut seen: FxHashSet<String> = FxHashSet::default();
            for &li in line_idxs {
                let Some(param) = config.line(arenas, li).params.get(pi) else {
                    continue;
                };
                ps.instances += 1;
                let rendered = param.value.render();
                if seen.contains(rendered.as_str()) {
                    ps.intra_dup = true;
                } else {
                    seen.insert(rendered.clone());
                    ps.distinct.push((rendered, value_score(&param.value)));
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
    values: FxHashSet<String>,
    instances: u64,
    duplicate: bool,
    score: f64,
    configs: u32,
    once_per_config: bool,
}

/// Global accumulation folded from per-config sketches *in config
/// order* — the score accrual cap makes the fold order-sensitive, and
/// config order is the order the reference accumulation used.
#[derive(Debug, Default)]
pub(crate) struct Acc {
    stats: FxHashMap<(PatternId, u16), AccEntry>,
}

/// Folds one config's sketch into the accumulation.
pub(crate) fn fold(acc: &mut Acc, sketch: &Sketch, params: &LearnParams) {
    for ((pattern, param), ps) in &sketch.entries {
        let entry = acc
            .stats
            .entry((*pattern, *param))
            .or_insert_with(|| AccEntry {
                values: FxHashSet::default(),
                instances: 0,
                duplicate: false,
                score: 0.0,
                configs: 0,
                once_per_config: true,
            });
        entry.configs += 1;
        if ps.multi {
            entry.once_per_config = false;
        }
        entry.instances += ps.instances;
        if ps.intra_dup {
            entry.duplicate = true;
        }
        for (rendered, score) in &ps.distinct {
            if entry.values.contains(rendered.as_str()) {
                entry.duplicate = true;
            } else {
                if entry.values.len() < params.max_score_witnesses {
                    entry.score += score;
                }
                entry.values.insert(rendered.clone());
            }
        }
    }
}

/// Applies the support/score bars and renders contracts.
pub(crate) fn emit(
    acc: Acc,
    dataset: &crate::ir::Dataset,
    num_configs: usize,
    params: &LearnParams,
) -> Vec<Contract> {
    let mut out = Vec::new();
    for (&(pattern, param), entry) in &acc.stats {
        if entry.duplicate
            || (entry.configs as usize) < params.support
            || entry.instances < 2
            || entry.score < params.score_threshold
        {
            continue;
        }
        out.push(Contract::Unique {
            pattern: dataset.table.text(pattern).to_string(),
            param,
            // "Exactly once per configuration" only holds as a fleet-wide
            // rule when every configuration (not just those containing
            // the pattern) has exactly one instance — otherwise a
            // role-specific pattern would be demanded of foreign roles.
            once_per_config: entry.once_per_config && entry.configs as usize == num_configs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dataset;

    fn learn_alone(ds: &Dataset, params: &LearnParams) -> Vec<Contract> {
        crate::learn::learn(ds, &crate::learn::only(params, |p| p.enable_unique = true)).contracts
    }

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn uniques(contracts: &[Contract]) -> Vec<(&str, u16, bool)> {
        contracts
            .iter()
            .filter_map(|c| match c {
                Contract::Unique {
                    pattern,
                    param,
                    once_per_config,
                } => Some((pattern.as_str(), *param, *once_per_config)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn learns_unique_hostnames() {
        let texts: Vec<String> = (0..8)
            .map(|i| format!("hostname DEV{}\n", 1000 + i))
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        let u = uniques(&contracts);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0], ("/hostname DEV[a:num]", 0, true));
    }

    #[test]
    fn duplicate_values_block_learning() {
        let mut texts: Vec<String> = (0..7)
            .map(|i| format!("hostname DEV{}\n", 1000 + i))
            .collect();
        texts.push("hostname DEV1000\n".to_string());
        let ds = dataset(&texts);
        assert!(uniques(&learn_alone(&ds, &LearnParams::default())).is_empty());
    }

    #[test]
    fn multiple_instances_clear_once_flag() {
        let texts: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "interface Et1\n ip address 10.{i}.0.1\ninterface Et2\n ip address 10.{i}.0.2\n"
                )
            })
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        let u = uniques(&contracts);
        assert_eq!(u.len(), 1);
        assert!(u[0].0.ends_with("ip address [a:ip4]"));
        assert!(!u[0].2, "multiple instances per config");
    }

    #[test]
    fn low_information_values_filtered() {
        // Distinct but tiny numbers (0..7): each scores ~0.1, total < 1.0
        // threshold is not met... 8 values around 0.15 sum to ~1.1, so use
        // a higher threshold to demonstrate the knob.
        let texts: Vec<String> = (0..6).map(|i| format!("unit {i}\n")).collect();
        let ds = dataset(&texts);
        let params = LearnParams {
            score_threshold: 2.0,
            ..LearnParams::default()
        };
        assert!(uniques(&learn_alone(&ds, &params)).is_empty());
    }

    #[test]
    fn support_threshold() {
        let texts: Vec<String> = (0..3)
            .map(|i| format!("hostname DEV{}\n", 1000 + i))
            .collect();
        let ds = dataset(&texts);
        assert!(uniques(&learn_alone(&ds, &LearnParams::default())).is_empty());
    }
}
