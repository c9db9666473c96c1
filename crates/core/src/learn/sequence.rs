//! Sequence-contract mining (§3.4).
//!
//! Sequence contracts apply to numeric parameters whose values within each
//! configuration form an equidistant, strictly increasing progression
//! (e.g. `seq 10`, `seq 20`, `seq 30`). They catch missing or reordered
//! sequence elements.

use concord_types::BigNum;

use crate::contract::Contract;
use crate::fxhash::FxHashMap;
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

/// Per-config sequence sketch: for each eligible `(pattern, param)` (at
/// least two numeric instances), whether the config's values form a
/// sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sketch {
    /// `(pattern, param, is_sequential)` for each eligible pair.
    pub(crate) entries: Vec<(PatternId, u16, bool)>,
}

/// Accumulates one config's sequence evidence. `lines_by_pattern` maps
/// pattern id → indices of the config's lines with that pattern.
pub(crate) fn sketch_config(
    dataset: &crate::ir::Dataset,
    ci: usize,
    lines_by_pattern: &FxHashMap<PatternId, Vec<usize>>,
) -> Sketch {
    let config = &dataset.configs[ci];
    let arenas = &dataset.arenas;
    let mut entries = Vec::new();
    for (&pattern, line_idxs) in lines_by_pattern {
        if line_idxs.len() < 2 {
            continue;
        }
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
            entries.push((pattern, pi as u16, is_sequential(&values)));
        }
    }
    Sketch { entries }
}

/// Global accumulation folded from per-config sketches.
#[derive(Debug, Default)]
pub(crate) struct Acc {
    /// (pattern, param) -> (configs with >= 2 instances, sequential
    /// configs).
    stats: FxHashMap<(PatternId, u16), (u32, u32)>,
}

/// Folds one config's sketch into the accumulation.
pub(crate) fn fold(acc: &mut Acc, sketch: &Sketch) {
    for &(pattern, param, sequential) in &sketch.entries {
        let entry = acc.stats.entry((pattern, param)).or_insert((0, 0));
        entry.0 += 1;
        if sequential {
            entry.1 += 1;
        }
    }
}

/// Applies the support/confidence bars and renders contracts.
pub(crate) fn emit(acc: Acc, dataset: &crate::ir::Dataset, params: &LearnParams) -> Vec<Contract> {
    let mut out = Vec::new();
    for (&(pattern, param), &(support, sequential)) in &acc.stats {
        if params.accept(sequential as usize, support as usize) {
            out.push(Contract::Sequence {
                pattern: dataset.table.text(pattern).to_string(),
                param,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dataset;

    fn learn_alone(ds: &Dataset, params: &LearnParams) -> Vec<Contract> {
        crate::learn::learn(
            ds,
            &crate::learn::only(params, |p| p.enable_sequence = true),
        )
        .contracts
    }

    fn num(v: u64) -> BigNum {
        BigNum::from(v)
    }

    #[test]
    fn sequential_detection() {
        let vals = [num(10), num(20), num(30)];
        let refs: Vec<&BigNum> = vals.iter().collect();
        assert!(is_sequential(&refs));

        let vals = [num(10), num(20), num(35)];
        let refs: Vec<&BigNum> = vals.iter().collect();
        assert!(!is_sequential(&refs));

        let vals = [num(10), num(10)];
        let refs: Vec<&BigNum> = vals.iter().collect();
        assert!(!is_sequential(&refs), "zero step is not a sequence");

        let vals = [num(30), num(20), num(10)];
        let refs: Vec<&BigNum> = vals.iter().collect();
        assert!(!is_sequential(&refs), "must be increasing");

        let vals = [num(5)];
        let refs: Vec<&BigNum> = vals.iter().collect();
        assert!(!is_sequential(&refs), "singletons carry no evidence");
    }

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    #[test]
    fn learns_prefix_list_sequence() {
        let texts: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "ip prefix-list lo\n seq 10 permit 10.0.{i}.0/24\n seq 20 permit 10.1.{i}.0/24\n seq 30 permit 10.2.{i}.0/24\n"
                )
            })
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert!(contracts.iter().any(|c| matches!(
            c,
            Contract::Sequence { pattern, param: 0 } if pattern.contains("seq [a:num] permit")
        )));
    }

    #[test]
    fn non_sequential_values_not_learned() {
        let texts: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "lst\n seq {} permit 10.0.0.0/8\n seq {} permit 10.1.0.0/16\n",
                    i * 7 + 3,
                    i * 31 + 1
                )
            })
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert!(!contracts
            .iter()
            .any(|c| matches!(c, Contract::Sequence { param: 0, .. })));
    }

    #[test]
    fn single_instance_configs_carry_no_support() {
        let texts: Vec<String> = (0..8)
            .map(|i| format!("seq {} permit 10.0.0.0/8\n", 10 * (i + 1)))
            .collect();
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &LearnParams::default()).is_empty());
    }

    #[test]
    fn different_steps_per_config_are_fine() {
        // One config steps by 10, another by 5: both are sequences.
        let mut texts: Vec<String> = (0..3)
            .map(|_| "l\n seq 10 permit 1.0.0.0/8\n seq 20 permit 2.0.0.0/8\n".to_string())
            .collect();
        texts.extend(
            (0..3).map(|_| "l\n seq 5 permit 1.0.0.0/8\n seq 10 permit 2.0.0.0/8\n".to_string()),
        );
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert!(contracts
            .iter()
            .any(|c| matches!(c, Contract::Sequence { param: 0, .. })));
    }
}
