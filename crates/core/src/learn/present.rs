//! Present-contract mining (§3.4).
//!
//! `exists l ~ p`: Concord tracks every pattern used in each configuration
//! and extracts those appearing in at least `C`% of the configurations
//! (and at least `S` configurations). With constant learning enabled (§4),
//! the same is additionally done over exact line text, which captures
//! globally shared "magic constant" policies.

use crate::contract::Contract;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ir::Dataset;
use crate::learn::fill_pattern_into;
use crate::params::LearnParams;

/// Per-config present sketch. The pattern-occurrence half of present
/// mining folds from [`crate::learn::sketch::ConfigSketch::patterns`];
/// this sketch carries only the constant-learning half: the config's
/// distinct filled-line texts (set semantics — a line appearing twice in
/// one config counts once).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sketch {
    /// Distinct filled lines of this config, in first-occurrence order.
    pub(crate) constants: Vec<String>,
}

/// Accumulates one config's present sketch (constant learning only; the
/// sketch is empty when `learn_constants` is off).
pub(crate) fn sketch_config(dataset: &Dataset, ci: usize, params: &LearnParams) -> Sketch {
    let mut constants = Vec::new();
    if params.learn_constants {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        let mut buf = String::new();
        for line in dataset.configs[ci].lines(&dataset.arenas) {
            buf.clear();
            fill_pattern_into(&mut buf, dataset.table.text(line.pattern), line.params);
            if !seen.contains(buf.as_str()) {
                seen.insert(buf.clone());
                constants.push(buf.clone());
            }
        }
    }
    Sketch { constants }
}

/// Global accumulation folded from per-config sketches in config order.
#[derive(Debug, Default)]
pub(crate) struct Acc {
    /// Filled line → number of configs containing it.
    line_configs: FxHashMap<String, u32>,
}

/// Folds one config's sketch into the accumulation.
pub(crate) fn fold(acc: &mut Acc, sketch: &Sketch) {
    for line in &sketch.constants {
        match acc.line_configs.get_mut(line.as_str()) {
            Some(count) => *count += 1,
            None => {
                acc.line_configs.insert(line.clone(), 1);
            }
        }
    }
}

/// Applies the support/confidence bars and renders contracts.
pub(crate) fn emit(
    acc: Acc,
    dataset: &Dataset,
    config_count: &[u32],
    num_configs: usize,
    params: &LearnParams,
) -> Vec<Contract> {
    let required = params.required_valid(num_configs);
    let mut out = Vec::new();

    for (id, text) in dataset.table.iter() {
        let count = config_count[id.0 as usize] as usize;
        if count >= params.support && count >= required {
            out.push(Contract::Present {
                pattern: text.to_string(),
            });
        }
    }

    for (line, count) in acc.line_configs {
        let count = count as usize;
        if count >= params.support && count >= required {
            // Skip lines whose pattern has no holes: the plain Present
            // contract already covers them exactly.
            if line.contains('[') || {
                let pattern_id = dataset.table.get(&line);
                pattern_id.is_none()
            } {
                out.push(Contract::PresentExact { line });
            } else {
                continue;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dataset;

    fn learn_alone(ds: &Dataset, params: &LearnParams) -> Vec<Contract> {
        crate::learn::learn(ds, &crate::learn::only(params, |p| p.enable_present = true)).contracts
    }

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn present_patterns(contracts: &[Contract]) -> Vec<&str> {
        contracts
            .iter()
            .filter_map(|c| match c {
                Contract::Present { pattern } => Some(pattern.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn learns_universal_pattern() {
        let texts: Vec<String> = (0..6).map(|i| format!("router bgp 6500{i}\n")).collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert_eq!(present_patterns(&contracts), vec!["/router bgp [a:num]"]);
    }

    #[test]
    fn respects_support_threshold() {
        // Only 4 configs: below the default support of 5.
        let texts: Vec<String> = (0..4).map(|i| format!("vlan {i}\n")).collect();
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &LearnParams::default()).is_empty());
    }

    #[test]
    fn respects_confidence_threshold() {
        // Pattern present in 5 of 6 configs: 83% < 96%.
        let mut texts: Vec<String> = (0..5).map(|i| format!("vlan {i}\n")).collect();
        texts.push("other line\n".to_string());
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert!(present_patterns(&contracts).is_empty());
    }

    #[test]
    fn tolerates_noise_within_confidence() {
        // Pattern in 25 of 25 configs, one config also has an extra line.
        let mut texts: Vec<String> = (0..24).map(|i| format!("vlan {i}\n")).collect();
        texts.push("vlan 99\nextra\n".to_string());
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        // `vlan` is universal; `extra` (1/25 = 4%) is not learned.
        assert_eq!(present_patterns(&contracts), vec!["/vlan [a:num]"]);
    }

    #[test]
    fn constant_learning_adds_exact_lines() {
        let texts: Vec<String> = (0..6)
            .map(|_| "seq 20 permit 0.0.0.0/0\n".to_string())
            .collect();
        let ds = dataset(&texts);
        let params = LearnParams {
            learn_constants: true,
            ..LearnParams::default()
        };
        let contracts = learn_alone(&ds, &params);
        assert!(contracts.iter().any(|c| matches!(
            c,
            Contract::PresentExact { line } if line == "/seq 20 permit 0.0.0.0/0"
        )));
    }

    #[test]
    fn constant_learning_skips_varying_lines() {
        let texts: Vec<String> = (0..6).map(|i| format!("hostname DEV{i}\n")).collect();
        let ds = dataset(&texts);
        let params = LearnParams {
            learn_constants: true,
            ..LearnParams::default()
        };
        let contracts = learn_alone(&ds, &params);
        assert!(!contracts
            .iter()
            .any(|c| matches!(c, Contract::PresentExact { .. })));
    }
}
