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

use concord_lexer::type_agnostic_pattern;
use concord_types::ValueType;

use crate::contract::Contract;
use crate::fxhash::FxHashMap;
use crate::params::LearnParams;

/// Per-hole type usage: one `(type, count)` tally list per bound hole.
pub(crate) type HoleTypeCounts = Vec<Vec<(ValueType, u64)>>;

/// Per-config typing sketch: for each type-agnostic pattern appearing in
/// the config, per-hole type usage counts within this config.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Sketch {
    /// `(agnostic pattern, per-hole type counts)`.
    pub(crate) groups: Vec<(String, HoleTypeCounts)>,
}

/// Accumulates one config's type usage.
pub(crate) fn sketch_config(dataset: &crate::ir::Dataset, ci: usize) -> Sketch {
    let mut groups: FxHashMap<String, Vec<FxHashMap<ValueType, u64>>> = FxHashMap::default();
    for line in dataset.configs[ci].lines(&dataset.arenas) {
        if line.params.is_empty() {
            continue;
        }
        let agnostic = type_agnostic_pattern(dataset.table.text(line.pattern));
        let hole_types = groups.entry(agnostic).or_default();
        // Holes of the *bound* parameters: anonymous context holes are
        // part of the agnostic text too, so index bound holes by
        // their position among bound params only.
        if hole_types.len() < line.params.len() {
            hole_types.resize_with(line.params.len(), FxHashMap::default);
        }
        for (i, param) in line.params.iter().enumerate() {
            *hole_types[i].entry(param.ty.clone()).or_insert(0) += 1;
        }
    }
    Sketch {
        groups: groups
            .into_iter()
            .map(|(agnostic, holes)| {
                (
                    agnostic,
                    holes
                        .into_iter()
                        .map(|counts| counts.into_iter().collect())
                        .collect(),
                )
            })
            .collect(),
    }
}

/// One agnostic pattern's folded accumulation.
#[derive(Debug, Default)]
struct Group {
    hole_types: Vec<FxHashMap<ValueType, u64>>,
    configs: u32,
}

/// Global accumulation folded from per-config sketches.
#[derive(Debug, Default)]
pub(crate) struct Acc {
    /// agnostic pattern -> per-hole type usage counts, plus config
    /// support.
    groups: FxHashMap<String, Group>,
}

/// Folds one config's sketch into the accumulation.
pub(crate) fn fold(acc: &mut Acc, sketch: &Sketch) {
    for (agnostic, holes) in &sketch.groups {
        let group = match acc.groups.get_mut(agnostic.as_str()) {
            Some(group) => group,
            None => acc.groups.entry(agnostic.clone()).or_default(),
        };
        group.configs += 1;
        if group.hole_types.len() < holes.len() {
            group
                .hole_types
                .resize_with(holes.len(), FxHashMap::default);
        }
        for (i, counts) in holes.iter().enumerate() {
            for (ty, count) in counts {
                *group.hole_types[i].entry(ty.clone()).or_insert(0) += count;
            }
        }
    }
}

/// Applies the support/confidence bars and renders contracts.
pub(crate) fn emit(acc: Acc, params: &LearnParams) -> Vec<Contract> {
    let mut out = Vec::new();
    for (agnostic, group) in acc.groups {
        if (group.configs as usize) < params.support {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dataset;

    fn learn_alone(ds: &Dataset, params: &LearnParams) -> Vec<Contract> {
        crate::learn::learn(ds, &crate::learn::only(params, |p| p.enable_type = true)).contracts
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
    fn flags_rare_mistyped_value() {
        // 49 configs use an address, one uses a prefix by mistake.
        let mut texts: Vec<String> = (0..49)
            .map(|i| format!("ip address 10.0.0.{}\n", i + 1))
            .collect();
        texts.push("ip address 10.0.0.0/24\n".to_string());
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert_eq!(contracts.len(), 1);
        match &contracts[0] {
            Contract::Type {
                pattern,
                hole,
                valid,
            } => {
                assert_eq!(pattern, "/ip address [?]");
                assert_eq!(*hole, 0);
                assert_eq!(valid, &vec![ValueType::Ip4]);
            }
            other => panic!("unexpected contract {other:?}"),
        }
    }

    #[test]
    fn dual_stack_types_both_valid() {
        // Half v4, half v6: both types are frequent, nothing to flag, but
        // the contract still records the two valid types... and since
        // valid == observed, no restriction exists and nothing is emitted.
        let texts: Vec<String> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    format!("neighbor 10.0.0.{i} up\n")
                } else {
                    format!("neighbor fe80::{i:x} up\n")
                }
            })
            .collect();
        let ds = dataset(&texts);
        let contracts = learn_alone(&ds, &LearnParams::default());
        assert!(contracts.is_empty());
    }

    #[test]
    fn single_type_emits_nothing() {
        let texts: Vec<String> = (0..10).map(|i| format!("vlan {i}\n")).collect();
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &LearnParams::default()).is_empty());
    }

    #[test]
    fn support_threshold_applies() {
        let mut texts: Vec<String> = (0..3).map(|i| format!("x 10.0.0.{i}\n")).collect();
        texts.push("x 10.0.0.0/8\n".to_string());
        let ds = dataset(&texts);
        assert!(learn_alone(&ds, &LearnParams::default()).is_empty());
    }
}
