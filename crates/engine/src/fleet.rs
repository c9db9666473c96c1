//! Merging per-shard check parts back into one fleet-wide answer.
//!
//! A sharded fleet holds each configuration in exactly one shard
//! engine (chosen by [`crate::ShardRouter`]), so a fleet-wide CHECK
//! runs [`Engine::check_parts`] on every shard and merges here. The
//! merge reproduces [`Engine::check_dirty`]'s report byte for byte:
//!
//! 1. **Global name order.** Every shard's parts arrive name-sorted
//!    (dataset order); names are disjoint across shards, so the shards'
//!    violation lists merge K-way into the order an unsharded engine
//!    over the union corpus would sort them into.
//! 2. **Per-config violations** come from each shard's cached outcomes,
//!    shared rather than copied. The checker leaves each configuration's
//!    violations in report order, so a shard's configurations, walked in
//!    name order, list the shard's violations sorted.
//! 3. **The unique pass joins the shards' indexes.** Each shard's
//!    resident [`UniqueIndex`](concord_core::UniqueIndex) already lists
//!    the violations its own configurations show. Per-shard programs
//!    resolve a unique contract only when some local line matches it,
//!    and the union of the shards' resolutions is the global one, so
//!    [`join_unique_indexes`] adds only what needs the union: a value
//!    whose first occurrences sit in more than one shard reports all but
//!    the earliest, and a `once_per_config` contract a shard did not
//!    resolve reports "found none" for each of that shard's
//!    configurations.
//! 4. **The same final order.** Unique rows sort by `(config, line_no,
//!    contract_index)` with ties broken by table position, and a
//!    per-config row precedes a unique row on a tie: exactly where the
//!    engine's stable sort of per-config rows followed by unique rows
//!    puts them.
//!
//! Coverage merges as integer sums (`covered_lines` / `total_lines`
//! per config), from which the renderer's fraction recomputes to the
//! identical `f64`. The serve layer sums the incremental counters
//! (`dirty` / `reused`) from each shard's parts — after one edit only
//! the owning shard reports dirty work, which is what makes fleet CHECK
//! scale: the recheck is O(edit), and the merge is O(violations) plus a
//! hash probe per unique value outside the largest shard.

use std::cmp::Ordering;

use concord_core::{join_unique_indexes, ContractSet, UniqueIndex, UniqueViolation, Violation};

use crate::CheckParts;

/// A fleet-wide CHECK answer assembled from per-shard
/// [`CheckParts`] — the same facts `Engine::check_dirty` reports,
/// minus the per-config coverage vector the serve layer never renders.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckReport {
    /// All violations, in the engine's final sorted order.
    pub violations: Vec<Violation>,
    /// Σ covered lines across every configuration.
    pub covered_lines: usize,
    /// Σ total lines across every configuration.
    pub total_lines: usize,
}

impl FleetCheckReport {
    /// Covered fraction of all lines — the [`CoverageSummary`] formula,
    /// recomputed from the merged integer sums.
    ///
    /// [`CoverageSummary`]: concord_core::CoverageSummary
    pub fn coverage_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.covered_lines as f64 / self.total_lines as f64
        }
    }
}

/// A shard's [`CheckParts`] plus the merge-ready facts a serve layer
/// caches per shard version: the unique violations the shard's own index
/// shows, and its integer coverage sums.
///
/// All are stable for as long as the shard itself is unchanged, so a
/// fleet CHECK after one edit re-aggregates only the owning shard and
/// merges the rest from cache.
#[derive(Debug, Clone)]
pub struct ShardCheckAggregate {
    /// The shard's per-config outcomes and unique index.
    pub parts: CheckParts,
    unique_violations: Vec<UniqueViolation>,
    covered_lines: usize,
    total_lines: usize,
}

impl ShardCheckAggregate {
    /// Lists the shard's unique violations and sums its coverage, once,
    /// at shard-recheck time.
    pub fn new(parts: CheckParts) -> ShardCheckAggregate {
        let coverage = || parts.configs.iter().map(|c| &c.coverage);
        ShardCheckAggregate {
            unique_violations: parts.unique.violations(&parts.contracts),
            covered_lines: coverage().map(|c| c.covered().len()).sum(),
            total_lines: coverage().map(|c| c.total_lines).sum(),
            parts,
        }
    }

    /// The shard's per-config violations in report order: its
    /// configurations in name order, each one's list as the checker
    /// ordered it.
    fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.parts.configs.iter().flat_map(|c| &c.violations)
    }
}

/// The engine's final violation order.
fn report_order(a: &Violation, b: &Violation) -> Ordering {
    (&a.config, a.line_no, a.contract_index).cmp(&(&b.config, b.line_no, b.contract_index))
}

/// Merges per-shard aggregates into the fleet-wide report, byte-identical
/// to one engine's [`Engine::check_dirty`](crate::Engine::check_dirty)
/// over the union of the shards' configurations. `contracts` must be the
/// set every shard checked under.
///
/// The per-config violations are a K-way merge of the shards' cached
/// per-config lists: config names are disjoint across shards, so equal
/// sort keys never cross shards. The unique violations are every shard's
/// own plus the [`join_unique_indexes`] rows, sorted; they merge in last,
/// so a per-config violation wins a tie, as in the batch checker's stable
/// sort.
pub fn merge_check_aggregates(
    contracts: &ContractSet,
    shards: &[&ShardCheckAggregate],
) -> FleetCheckReport {
    let indexes: Vec<&UniqueIndex> = shards.iter().map(|s| s.parts.unique.as_ref()).collect();
    let joined = join_unique_indexes(contracts, &indexes);
    let mut unique: Vec<&UniqueViolation> = shards
        .iter()
        .flat_map(|s| &s.unique_violations)
        .chain(&joined)
        .collect();
    unique.sort_by(|a, b| UniqueViolation::order(a, b));

    // K + 1 sorted lists, the unique rows last so they lose every tie.
    let unique_list: Box<dyn Iterator<Item = &Violation>> =
        Box::new(unique.iter().map(|row| &row.violation));
    let mut lists: Vec<_> = shards
        .iter()
        .map(|s| Box::new(s.violations()) as Box<dyn Iterator<Item = &Violation>>)
        .chain([unique_list])
        .map(Iterator::peekable)
        .collect();
    let mut violations: Vec<Violation> = Vec::new();
    loop {
        let mut best: Option<(usize, &Violation)> = None;
        for (list, head) in lists.iter_mut().enumerate() {
            let Some(&v) = head.peek() else {
                continue;
            };
            if best.is_none_or(|(_, b)| report_order(v, b) == Ordering::Less) {
                best = Some((list, v));
            }
        }
        let Some((list, v)) = best else {
            break;
        };
        violations.push(v.clone());
        lists[list].next();
    }
    FleetCheckReport {
        violations,
        covered_lines: shards.iter().map(|s| s.covered_lines).sum(),
        total_lines: shards.iter().map(|s| s.total_lines).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions, ShardRouter};

    fn corpus(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| {
                (
                    format!("dev{i}"),
                    format!(
                        "hostname DEV{}\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.0.{}\nvlan {}\n",
                        100 + i,
                        i + 1,
                        250 + i
                    ),
                )
            })
            .collect()
    }

    /// A fleet of per-shard engines over a router partition of `configs`,
    /// all loaded with the same contracts.
    fn fleet(
        configs: &[(String, String)],
        contracts: &ContractSet,
        shards: usize,
    ) -> (ShardRouter, Vec<Engine>) {
        let router = ShardRouter::new(shards);
        let mut partitions: Vec<Vec<(String, String)>> = vec![Vec::new(); shards];
        for (name, text) in configs {
            partitions[router.route(name)].push((name.clone(), text.clone()));
        }
        let engines = partitions
            .iter()
            .map(|part| {
                let mut engine =
                    Engine::from_corpus(part, &[], EngineOptions::default()).expect("shard engine");
                engine.set_contracts(contracts.clone());
                engine
            })
            .collect();
        (router, engines)
    }

    fn aggregates(engines: &mut [Engine]) -> Vec<ShardCheckAggregate> {
        engines
            .iter_mut()
            .map(|e| ShardCheckAggregate::new(e.check_parts().expect("check parts")))
            .collect()
    }

    fn merged(contracts: &ContractSet, engines: &mut [Engine]) -> FleetCheckReport {
        merged_with_counts(contracts, engines).0
    }

    /// The merged report plus the Σ dirty and Σ reused configurations
    /// of the parts it merged.
    fn merged_with_counts(
        contracts: &ContractSet,
        engines: &mut [Engine],
    ) -> (FleetCheckReport, usize, usize) {
        let aggregates = aggregates(engines);
        let report = merge_check_aggregates(contracts, &aggregates.iter().collect::<Vec<_>>());
        let dirty = aggregates.iter().map(|a| a.parts.dirty_configs).sum();
        let reused = aggregates.iter().map(|a| a.parts.reused_configs).sum();
        (report, dirty, reused)
    }

    /// A one-contract set: unique values of `line`'s first parameter.
    fn unique_contract(line: &str, once_per_config: bool) -> ContractSet {
        let probe = [("probe".to_string(), format!("{line}\n"))];
        let dataset = concord_core::Dataset::from_named_texts(&probe, &[]).expect("probe");
        let (_, pattern) = dataset.table.iter().next().expect("one pattern");
        ContractSet {
            contracts: vec![concord_core::Contract::Unique {
                pattern: pattern.to_string(),
                param: 0,
                once_per_config,
            }],
            relational_before_minimization: 0,
        }
    }

    /// Device names `dev0`, `dev1`, ... that `router` sends to `shard`.
    fn names_on(router: &ShardRouter, shard: usize, n: usize) -> Vec<String> {
        (0..)
            .map(|i| format!("dev{i}"))
            .filter(|name| router.route(name) == shard)
            .take(n)
            .collect()
    }

    #[test]
    fn merged_fleet_check_equals_single_engine_check() {
        let configs = corpus(12);
        let mut single =
            Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("single engine");
        single.relearn();
        let contracts = single.contracts().expect("learned").clone();

        for shards in [1usize, 2, 3, 5] {
            let (_, mut engines) = fleet(&configs, &contracts, shards);
            let (fleet_report, dirty, reused) = merged_with_counts(&contracts, &mut engines);
            let oracle = single.check_dirty().expect("oracle check");

            assert_eq!(
                fleet_report.violations, oracle.report.violations,
                "violations differ at {shards} shards"
            );
            let summary = oracle.report.coverage.summary();
            assert_eq!(fleet_report.total_lines, summary.total_lines);
            assert_eq!(fleet_report.covered_lines, summary.covered_lines);
            assert_eq!(fleet_report.coverage_fraction(), summary.fraction);
            assert_eq!(dirty + reused, configs.len());
        }
    }

    #[test]
    fn merged_fleet_check_tracks_edits_and_stays_identical() {
        let configs = corpus(10);
        let mut single =
            Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("single engine");
        single.relearn();
        let contracts = single.contracts().expect("learned").clone();
        let (router, mut engines) = fleet(&configs, &contracts, 3);
        merged(&contracts, &mut engines);
        single.check_dirty().expect("warm the oracle cache");

        // A duplicate vlan trips a unique contract across shard
        // boundaries; a dropped bgp line trips a presence contract. Both
        // edits reuse known line shapes, so no resolution invalidation.
        let edits = [
            ("dev1", "hostname DEV101\nrouter bgp 65000\ninterface Loopback0\n ip address 10.0.0.2\nvlan 255\n"),
            ("dev4", "hostname DEV104\ninterface Loopback0\n ip address 10.0.0.5\nvlan 254\n"),
        ];
        for (name, text) in edits {
            single.upsert_config(name, text);
            engines[router.route(name)].upsert_config(name, text);
        }

        let (fleet_report, dirty, reused) = merged_with_counts(&contracts, &mut engines);
        let oracle = single.check_dirty().expect("oracle check");
        assert_eq!(fleet_report.violations, oracle.report.violations);
        assert!(
            !fleet_report.violations.is_empty(),
            "edits were designed to violate"
        );
        let summary = oracle.report.coverage.summary();
        assert_eq!(fleet_report.covered_lines, summary.covered_lines);
        assert_eq!(fleet_report.total_lines, summary.total_lines);

        // Only the owning shards recheck: at most one dirty config per
        // edited shard, against the single engine's same total.
        assert_eq!(dirty, oracle.engine.dirty_configs);
        assert_eq!(reused, oracle.engine.reused_configs);

        // Removal drops dev1's values from its shard's unique index.
        single.remove_config("dev1");
        engines[router.route("dev1")].remove_config("dev1");
        let fleet_report = merged(&contracts, &mut engines);
        let oracle = single.check_dirty().expect("oracle check");
        assert_eq!(fleet_report.violations, oracle.report.violations);
    }

    /// A corpus without unique contracts (uniform: every value repeated
    /// fleet-wide) and one with them (distinct per-device values) both
    /// merge to the single engine's report.
    #[test]
    fn aggregate_merge_equals_single_engine_with_and_without_uniques() {
        let uniform: Vec<(String, String)> = (0..10)
            .map(|i| {
                (
                    format!("dev{i}"),
                    "hostname DEVX\nrouter bgp 65000\nvlan 250\n".to_string(),
                )
            })
            .collect();
        for configs in [uniform, corpus(10)] {
            let mut single =
                Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("single");
            single.relearn();
            let contracts = single.contracts().expect("learned").clone();
            let (router, mut engines) = fleet(&configs, &contracts, 3);
            // An edit that violates presence contracts keeps the merged
            // violation list non-trivial on the fast path too.
            let edit = ("dev2", "hostname DEVX\nvlan 9\n");
            single.upsert_config(edit.0, edit.1);
            engines[router.route(edit.0)].upsert_config(edit.0, edit.1);

            let merged = merged(&contracts, &mut engines);
            let oracle = single.check_dirty().expect("oracle");
            assert_eq!(merged.violations, oracle.report.violations);
            let summary = oracle.report.coverage.summary();
            assert_eq!(merged.covered_lines, summary.covered_lines);
            assert_eq!(merged.total_lines, summary.total_lines);
        }
    }

    #[test]
    fn empty_and_single_shard_merges_degenerate_cleanly() {
        let report = merge_check_aggregates(&ContractSet::default(), &[]);
        assert!(report.violations.is_empty());
        assert_eq!(report.total_lines, 0);
        assert_eq!(report.coverage_fraction(), 0.0);

        let configs = corpus(4);
        let mut single =
            Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("single engine");
        single.relearn();
        let contracts = single.contracts().expect("learned").clone();
        let one = ShardCheckAggregate::new(single.check_parts().expect("parts"));
        let merged_one = merge_check_aggregates(&contracts, &[&one]);
        let oracle = single.check_dirty().expect("oracle");
        assert_eq!(merged_one.violations, oracle.report.violations);
    }

    /// A `once_per_config` contract only shard 0 resolves: shard 1 never
    /// interned its pattern, yet each of its devices is found none.
    #[test]
    fn once_per_config_contract_unresolved_on_a_shard_reports_found_none() {
        let router = ShardRouter::new(2);
        let carriers = names_on(&router, 0, 3);
        let others = names_on(&router, 1, 2);
        let mut configs: Vec<(String, String)> = carriers
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n.clone(),
                    format!("snmp-server location SITE{i}\nvlan 10\n"),
                )
            })
            .collect();
        configs.extend(others.iter().map(|n| (n.clone(), "vlan 10\n".to_string())));
        let contracts = unique_contract("snmp-server location SITE0", true);
        let (_, mut engines) = fleet(&configs, &contracts, 2);

        let report = merged(&contracts, &mut engines);
        let mut found_none: Vec<&str> = report
            .violations
            .iter()
            .filter(|v| v.line_no.is_none() && v.message.ends_with("found none"))
            .map(|v| v.config.as_str())
            .collect();
        found_none.sort_unstable();
        let mut expected: Vec<&str> = others.iter().map(String::as_str).collect();
        expected.sort_unstable();
        assert_eq!(found_none, expected);
        assert_eq!(report.violations.len(), others.len());

        let mut single = Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("one");
        single.set_contracts(contracts.clone());
        let oracle = single.check_dirty().expect("oracle");
        assert_eq!(report.violations, oracle.report.violations);
    }

    /// A value held on both shards is reported at its later holder only
    /// while the earlier holder exists.
    #[test]
    fn removing_the_first_holder_clears_the_later_holders_reuse() {
        let router = ShardRouter::new(2);
        let mut pair = [
            names_on(&router, 0, 1).remove(0),
            names_on(&router, 1, 1).remove(0),
        ];
        pair.sort();
        let [first, later] = pair;
        let mut configs = vec![
            (first.clone(), "vlan 777\n".to_string()),
            (later.clone(), "vlan 777\n".to_string()),
        ];
        configs.extend(
            names_on(&router, 0, 4)
                .into_iter()
                .skip(1)
                .enumerate()
                .map(|(i, n)| (n, format!("vlan {}\n", 100 + i))),
        );
        let contracts = unique_contract("vlan 777", false);
        let (router, mut engines) = fleet(&configs, &contracts, 2);
        let mut single = Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("one");
        single.set_contracts(contracts.clone());

        let before = merged(&contracts, &mut engines);
        let reused: Vec<&str> = before
            .violations
            .iter()
            .map(|v| v.config.as_str())
            .collect();
        assert_eq!(reused, [later.as_str()], "only the later holder is reused");
        assert_eq!(
            before.violations,
            single.check_dirty().expect("oracle").report.violations
        );

        engines[router.route(&first)].remove_config(&first);
        single.remove_config(&first);
        let after = merged(&contracts, &mut engines);
        assert!(after.violations.is_empty(), "{:?}", after.violations);
        assert_eq!(
            after.violations,
            single.check_dirty().expect("oracle").report.violations
        );
    }
}
