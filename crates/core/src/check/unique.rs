//! The unique pass (§3.4, Table 2): the only contracts checked across
//! configurations.
//!
//! A unique contract says a parameter's value is used at most once in
//! the whole corpus; a `once_per_config` one also says every
//! configuration has a line matching its pattern. Every other contract
//! is checked per configuration, so this is the one pass whose answer
//! for a configuration depends on the others.
//!
//! [`UniqueTable`] is one configuration's contribution: an event per
//! (unique contract, matching line), in line order. [`UniqueIndex`]
//! keeps every configuration's table resident, with each rendered
//! value's occurrences in (configuration, table position) order, so
//! replacing or removing one configuration's table touches only that
//! table's values. It lists its violations in time proportional to the
//! output: every occurrence of a value but its first is reused, and a
//! `once_per_config` contract with no event in a configuration is found
//! none. [`join_unique_indexes`] adds the violations that only the union
//! of several indexes over disjoint configurations shows, which is how a
//! sharded fleet recovers the one-engine answer.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::contract::{Contract, ContractSet};
use crate::fxhash::{FxHashMap, FxHashSet};

use super::Violation;

/// One configuration's contribution to the unique pass: an event per
/// (unique contract, matching line), in line order. Extracted by
/// [`CheckProgram::unique_table`](super::CheckProgram::unique_table)
/// and held by a [`UniqueIndex`].
#[derive(Debug, Clone, Default)]
pub struct UniqueTable {
    events: Vec<UniqueEvent>,
}

impl UniqueTable {
    /// Number of events in this table.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether this configuration contributes nothing to the unique pass.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends the event of unique contract `contract` on one line.
    pub(super) fn push(
        &mut self,
        contract: usize,
        line_no: u32,
        line: &str,
        rendered: Option<String>,
    ) {
        self.events.push(UniqueEvent {
            contract,
            line_no,
            line: Box::from(line),
            rendered: rendered.map(Arc::from),
        });
    }
}

/// One matching line of one unique contract.
#[derive(Debug, Clone)]
struct UniqueEvent {
    /// Contract index in the checked set.
    contract: usize,
    /// 1-based source line number. Metadata lines keep their metadata
    /// file's numbers, so two events of one table can share it.
    line_no: u32,
    /// The line's original text, copied out of the dataset so the table
    /// outlives it.
    line: Box<str>,
    /// The rendered parameter value, shared with the index's value map;
    /// `None` when the line lacks the contract's parameter (counts
    /// toward presence, contributes no value).
    rendered: Option<Arc<str>>,
}

/// Where a configuration sits in the unique pass's order: by rank, then
/// by name. A resident engine ranks every configuration 0, so name
/// order rules; the batch checker ranks by dataset position, the order
/// its caller chose.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ConfigKey {
    rank: usize,
    name: Arc<str>,
}

/// One occurrence of a value: its configuration and its event's
/// position in that configuration's table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Occurrence {
    config: ConfigKey,
    position: usize,
}

/// A resolved unique contract.
#[derive(Debug, Clone, Copy)]
struct UniqueSpec {
    index: usize,
    once_per_config: bool,
}

/// The unique pass's cross-configuration state over a set of
/// configurations: every configuration's [`UniqueTable`], and per
/// resolved unique contract, each rendered value's occurrences.
///
/// Built empty by
/// [`CheckProgram::unique_index`](super::CheckProgram::unique_index),
/// then filled one table at a time; valid for as long as the contract
/// resolution it was built under.
#[derive(Debug, Clone, Default)]
pub struct UniqueIndex {
    /// The resolved unique contracts, ascending by contract index.
    specs: Vec<UniqueSpec>,
    /// Every configuration's table, including empty ones.
    tables: BTreeMap<ConfigKey, UniqueTable>,
    /// Per spec: each rendered value's occurrences, in order.
    values: Vec<FxHashMap<Arc<str>, Vec<Occurrence>>>,
    /// Per spec: the values with more than one occurrence.
    reused: Vec<FxHashSet<Arc<str>>>,
    /// `(configuration, contract index)` of each `once_per_config`
    /// contract the configuration has no event for.
    missing: BTreeSet<(ConfigKey, usize)>,
}

impl UniqueIndex {
    /// An empty index over the unique contracts `resolved` (contract
    /// indices into `contracts`; anything else is skipped).
    pub(super) fn new(contracts: &ContractSet, resolved: impl Iterator<Item = usize>) -> Self {
        let mut specs: Vec<UniqueSpec> = resolved
            .filter_map(|index| match contracts.contracts.get(index) {
                Some(Contract::Unique {
                    once_per_config, ..
                }) => Some(UniqueSpec {
                    index,
                    once_per_config: *once_per_config,
                }),
                _ => None,
            })
            .collect();
        specs.sort_by_key(|s| s.index);
        specs.dedup_by_key(|s| s.index);
        UniqueIndex {
            values: vec![FxHashMap::default(); specs.len()],
            reused: vec![FxHashSet::default(); specs.len()],
            specs,
            tables: BTreeMap::new(),
            missing: BTreeSet::new(),
        }
    }

    /// Whether the index holds the configuration named `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&ConfigKey {
            rank: 0,
            name: Arc::from(name),
        })
    }

    /// Sets the table of the configuration named `name`, replacing the
    /// one it held. Touches only the two tables' values.
    pub fn insert(&mut self, name: &str, table: UniqueTable) {
        self.insert_ranked(0, name, table);
    }

    /// Drops the configuration named `name`, if held.
    pub fn remove(&mut self, name: &str) {
        self.remove_key(&ConfigKey {
            rank: 0,
            name: Arc::from(name),
        });
    }

    /// [`UniqueIndex::insert`] at an explicit rank (see [`ConfigKey`]).
    pub(super) fn insert_ranked(&mut self, rank: usize, name: &str, table: UniqueTable) {
        let key = ConfigKey {
            rank,
            name: Arc::from(name),
        };
        self.remove_key(&key);
        let mut counts = vec![0u32; self.specs.len()];
        for (position, event) in table.events.iter().enumerate() {
            // Tables and index come from one resolution, so every event's
            // contract has a slot.
            let Some(slot) = self.slot(event.contract) else {
                continue;
            };
            counts[slot] += 1;
            let Some(value) = &event.rendered else {
                continue;
            };
            let occurrence = Occurrence {
                config: key.clone(),
                position,
            };
            let occurrences = self.values[slot].entry(Arc::clone(value)).or_default();
            let at = occurrences
                .binary_search(&occurrence)
                .unwrap_or_else(|at| at);
            occurrences.insert(at, occurrence);
            if occurrences.len() == 2 {
                self.reused[slot].insert(Arc::clone(value));
            }
        }
        for (spec, &count) in self.specs.iter().zip(&counts) {
            if spec.once_per_config && count == 0 {
                self.missing.insert((key.clone(), spec.index));
            }
        }
        self.tables.insert(key, table);
    }

    fn remove_key(&mut self, key: &ConfigKey) {
        let Some(table) = self.tables.remove(key) else {
            return;
        };
        for (position, event) in table.events.iter().enumerate() {
            let (Some(slot), Some(value)) = (self.slot(event.contract), &event.rendered) else {
                continue;
            };
            let Some(occurrences) = self.values[slot].get_mut(&**value) else {
                continue;
            };
            if let Ok(at) =
                occurrences.binary_search_by(|o| (&o.config, o.position).cmp(&(key, position)))
            {
                occurrences.remove(at);
            }
            match occurrences.len() {
                0 => {
                    self.values[slot].remove(&**value);
                }
                1 => {
                    self.reused[slot].remove(&**value);
                }
                _ => {}
            }
        }
        for spec in &self.specs {
            if spec.once_per_config {
                self.missing.remove(&(key.clone(), spec.index));
            }
        }
    }

    /// The slot of contract `index` in `specs`.
    fn slot(&self, index: usize) -> Option<usize> {
        self.specs.binary_search_by_key(&index, |s| s.index).ok()
    }

    /// This index's unique-pass violations under `contracts` (the set it
    /// was built from), in [`UniqueViolation::order`].
    pub fn violations(&self, contracts: &ContractSet) -> Vec<UniqueViolation> {
        let mut out = Vec::new();
        for (slot, spec) in self.specs.iter().enumerate() {
            for value in &self.reused[slot] {
                let later = self.values[slot].get(value).into_iter().flatten().skip(1);
                for occurrence in later {
                    out.extend(self.reuse_row(contracts, spec.index, value, occurrence));
                }
            }
        }
        for (config, contract) in &self.missing {
            out.extend(found_none_row(contracts, *contract, config));
        }
        out.sort_by(UniqueViolation::order);
        out
    }

    /// The reuse violation of `value` at `occurrence`.
    fn reuse_row(
        &self,
        contracts: &ContractSet,
        contract: usize,
        value: &str,
        occurrence: &Occurrence,
    ) -> Option<UniqueViolation> {
        let event = self
            .tables
            .get(&occurrence.config)?
            .events
            .get(occurrence.position)?;
        let unique = contracts.contracts.get(contract)?;
        let Contract::Unique { pattern, param, .. } = unique else {
            return None;
        };
        Some(UniqueViolation {
            violation: Violation {
                contract_index: contract,
                category: unique.category().to_string(),
                config: occurrence.config.name.to_string(),
                line_no: Some(event.line_no),
                line: event.line.to_string(),
                message: format!("value {value} of param {param} of {pattern} is reused"),
            },
            rank: occurrence.config.rank,
            position: occurrence.position,
        })
    }
}

/// The found-none violation of `once_per_config` contract `contract` in
/// `config`.
fn found_none_row(
    contracts: &ContractSet,
    contract: usize,
    config: &ConfigKey,
) -> Option<UniqueViolation> {
    let unique = contracts.contracts.get(contract)?;
    let Contract::Unique { pattern, .. } = unique else {
        return None;
    };
    Some(UniqueViolation {
        violation: Violation {
            contract_index: contract,
            category: unique.category().to_string(),
            config: config.name.to_string(),
            line_no: None,
            line: pattern.clone(),
            message: format!("expected exactly one line matching {pattern}, found none"),
        },
        rank: config.rank,
        position: 0,
    })
}

/// A unique-pass violation, with the tie-break it sorts by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueViolation {
    /// The violation.
    pub violation: Violation,
    /// The configuration's rank (see [`UniqueIndex`]).
    rank: usize,
    /// The event's position in its configuration's table.
    position: usize,
}

impl UniqueViolation {
    /// The report's `(config, line_no, contract_index)` order, with ties
    /// broken by the configuration's rank and then by table position: the
    /// order in which a pass over the configurations, each table in line
    /// order, meets them. Table position, not `line_no`, is what breaks
    /// ties, because one configuration can hold two events at one
    /// `line_no`.
    pub fn order(a: &UniqueViolation, b: &UniqueViolation) -> Ordering {
        fn key(r: &UniqueViolation) -> (&str, Option<u32>, usize, usize, usize) {
            (
                &r.violation.config,
                r.violation.line_no,
                r.violation.contract_index,
                r.rank,
                r.position,
            )
        }
        key(a).cmp(&key(b))
    }
}

/// The unique-pass violations that only the union of `indexes` shows,
/// when each index holds its own configurations (a shard's) under
/// `contracts`:
///
/// - a value first held in more than one index: every index's first
///   occurrence but the earliest is reused;
/// - a `once_per_config` contract that some index resolved: every
///   configuration of an index that did not resolve it has found none.
///
/// Together with every index's own [`UniqueIndex::violations`], these
/// are the unique pass over the union of the configurations. Listed in
/// [`UniqueViolation::order`]; costs a hash probe per value outside the
/// largest index of each contract, plus the output.
pub fn join_unique_indexes(
    contracts: &ContractSet,
    indexes: &[&UniqueIndex],
) -> Vec<UniqueViolation> {
    let mut out = Vec::new();
    let mut resolved: Vec<usize> = indexes
        .iter()
        .flat_map(|i| i.specs.iter().map(|s| s.index))
        .collect();
    resolved.sort_unstable();
    resolved.dedup();
    for contract in resolved {
        let holders: Vec<(&UniqueIndex, usize)> = indexes
            .iter()
            .filter_map(|i| i.slot(contract).map(|slot| (*i, slot)))
            .collect();
        let once_per_config = matches!(
            contracts.contracts.get(contract),
            Some(Contract::Unique {
                once_per_config: true,
                ..
            })
        );
        if once_per_config {
            for index in indexes.iter().filter(|i| i.slot(contract).is_none()) {
                for config in index.tables.keys() {
                    out.extend(found_none_row(contracts, contract, config));
                }
            }
        }
        if holders.len() > 1 {
            join_values(contracts, contract, &holders, &mut out);
        }
    }
    out.sort_by(UniqueViolation::order);
    out
}

/// The cross-index reuse rows of one contract held by several indexes.
fn join_values(
    contracts: &ContractSet,
    contract: usize,
    holders: &[(&UniqueIndex, usize)],
    out: &mut Vec<UniqueViolation>,
) {
    let values = |h: usize| &holders[h].0.values[holders[h].1];
    // A value in two or more indexes is in one that is not the largest,
    // so walking the others finds every such value; a value already
    // walked in an earlier index is skipped.
    let largest = (0..holders.len())
        .max_by_key(|&h| values(h).len())
        .unwrap_or(0);
    let walked: Vec<usize> = (0..holders.len()).filter(|&h| h != largest).collect();
    for (w, &h) in walked.iter().enumerate() {
        for value in values(h).keys() {
            if walked[..w].iter().any(|&g| values(g).contains_key(value)) {
                continue;
            }
            let mut firsts: Vec<(&UniqueIndex, &Occurrence)> = holders
                .iter()
                .filter_map(|&(index, slot)| {
                    let first = index.values[slot].get(value)?.first()?;
                    Some((index, first))
                })
                .collect();
            if firsts.len() < 2 {
                continue;
            }
            let earliest = (0..firsts.len())
                .min_by(|&a, &b| firsts[a].1.cmp(firsts[b].1))
                .unwrap_or(0);
            firsts.remove(earliest);
            for (index, occurrence) in firsts {
                out.extend(index.reuse_row(contracts, contract, value, occurrence));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Contract 0: unique values; contract 1: unique and once per config.
    fn contracts() -> ContractSet {
        ContractSet {
            contracts: vec![
                Contract::Unique {
                    pattern: "vlan [num]".to_string(),
                    param: 0,
                    once_per_config: false,
                },
                Contract::Unique {
                    pattern: "hostname [word]".to_string(),
                    param: 0,
                    once_per_config: true,
                },
            ],
            relational_before_minimization: 0,
        }
    }

    fn index() -> UniqueIndex {
        UniqueIndex::new(&contracts(), [0, 1].into_iter())
    }

    /// A table of `(contract, line_no, value)` events.
    fn table(events: &[(usize, u32, &str)]) -> UniqueTable {
        let mut table = UniqueTable::default();
        for &(contract, line_no, value) in events {
            table.push(
                contract,
                line_no,
                &format!("line {value}"),
                Some(value.to_string()),
            );
        }
        table
    }

    /// `(config, line_no, contract)` of every listed violation.
    fn rows(index: &UniqueIndex) -> Vec<(String, Option<u32>, usize)> {
        index
            .violations(&contracts())
            .into_iter()
            .map(|r| {
                (
                    r.violation.config,
                    r.violation.line_no,
                    r.violation.contract_index,
                )
            })
            .collect()
    }

    fn row(config: &str, line_no: Option<u32>, contract: usize) -> (String, Option<u32>, usize) {
        (config.to_string(), line_no, contract)
    }

    #[test]
    fn every_occurrence_but_the_first_is_reused() {
        let mut index = index();
        index.insert("c", table(&[(0, 4, "10"), (1, 1, "C")]));
        index.insert("a", table(&[(0, 2, "10"), (1, 1, "A")]));
        index.insert("b", table(&[(0, 3, "10"), (0, 5, "10"), (1, 1, "B")]));
        assert_eq!(
            rows(&index),
            [
                row("b", Some(3), 0),
                row("b", Some(5), 0),
                row("c", Some(4), 0)
            ]
        );
    }

    #[test]
    fn replacing_or_removing_the_first_holder_passes_the_value_on() {
        let mut index = index();
        for name in ["a", "b", "c"] {
            index.insert(name, table(&[(0, 1, "10"), (1, 2, name)]));
        }
        index.insert("a", table(&[(0, 1, "11"), (1, 2, "a")]));
        assert_eq!(rows(&index), [row("c", Some(1), 0)]);
        index.remove("b");
        assert!(rows(&index).is_empty());
        assert!(!index.contains("b"));
        assert!(index.contains("a") && index.contains("c"));
    }

    #[test]
    fn found_none_follows_the_table() {
        let mut index = index();
        index.insert("a", table(&[(0, 1, "10")]));
        assert_eq!(rows(&index), [row("a", None, 1)]);
        index.insert("a", table(&[(0, 1, "10"), (1, 2, "A")]));
        assert!(rows(&index).is_empty());
        index.insert("a", UniqueTable::default());
        index.remove("a");
        assert!(rows(&index).is_empty());
        assert!(!index.contains("a"));
    }

    /// Two reused events at one `line_no` (metadata lines keep their
    /// file's numbers) list in table order, not value order.
    #[test]
    fn ties_at_one_line_no_break_by_table_position() {
        let mut index = UniqueIndex::new(&contracts(), [0].into_iter());
        index.insert("a", table(&[(0, 1, "20"), (0, 2, "10")]));
        index.insert("b", table(&[(0, 7, "20"), (0, 7, "10")]));
        let messages: Vec<String> = index
            .violations(&contracts())
            .into_iter()
            .map(|r| r.violation.message)
            .collect();
        assert_eq!(
            messages,
            [
                "value 20 of param 0 of vlan [num] is reused",
                "value 10 of param 0 of vlan [num] is reused",
            ]
        );
    }

    /// The batch checker ranks configurations by dataset position, so
    /// the first holder is the first in that order, not in name order.
    #[test]
    fn rank_orders_before_name() {
        let mut index = index();
        index.insert_ranked(0, "z", table(&[(0, 1, "10"), (1, 2, "Z")]));
        index.insert_ranked(1, "a", table(&[(0, 1, "10"), (1, 2, "A")]));
        assert_eq!(rows(&index), [row("a", Some(1), 0)]);
    }

    #[test]
    fn join_reports_what_only_the_union_shows() {
        let contracts = contracts();
        // Shard one resolves both contracts; shard two only the first.
        let mut one = index();
        one.insert("b", table(&[(0, 1, "10"), (1, 2, "B")]));
        one.insert("d", table(&[(0, 1, "30"), (1, 2, "D")]));
        let mut two = UniqueIndex::new(&contracts, [0].into_iter());
        two.insert("a", table(&[(0, 1, "10")]));
        two.insert("c", table(&[(0, 1, "10"), (0, 3, "30")]));

        let joined: Vec<_> = join_unique_indexes(&contracts, &[&one, &two])
            .into_iter()
            .map(|r| {
                (
                    r.violation.config,
                    r.violation.line_no,
                    r.violation.contract_index,
                )
            })
            .collect();
        // "10": a (two) is first, so b's first occurrence is reused; c's
        // is two's own. "30": c (two) precedes d (one).
        assert_eq!(
            joined,
            [
                row("a", None, 1),
                row("b", Some(1), 0),
                row("c", None, 1),
                row("d", Some(1), 0),
            ]
        );
        assert_eq!(rows(&two), [row("c", Some(1), 0)]);
    }
}
