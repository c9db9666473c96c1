//! Merging per-shard check parts back into one fleet-wide answer.
//!
//! A sharded fleet holds each configuration in exactly one shard
//! engine (chosen by [`crate::ShardRouter`]), so a fleet-wide CHECK
//! runs [`Engine::check_parts`] on every shard and merges here. The
//! merge reproduces [`Engine::check_dirty`]'s report byte for byte:
//!
//! 1. **Global name order.** Every shard's parts arrive name-sorted
//!    (dataset order); the merge interleaves them into one name-sorted
//!    sequence — exactly the dataset order an unsharded engine over
//!    the union corpus would hold, because shards partition the names.
//! 2. **Per-config violations concatenate** in that order, matching
//!    the unsharded assembly loop before its final sort.
//! 3. **The unique pass replays globally.** Per-shard programs resolve
//!    a unique contract only when some local line matches it, so the
//!    sorted union of the shards' resolved indices equals the global
//!    program's resolution (compiled order is ascending contract
//!    index), and [`replay_unique_tables`] over every config's event
//!    table — empty tables included, so `once_per_config` "found none"
//!    fires for configs whose shard resolved nothing — emits the exact
//!    violations the global unique pass would.
//! 4. **The same final stable sort** by `(config, line_no,
//!    contract_index)` lands every violation in the same place; ties
//!    arrive in the same pre-sort order by steps 2–3, so stability
//!    preserves byte identity.
//!
//! Coverage merges as integer sums (`covered_lines` / `total_lines`
//! per config), from which the renderer's fraction recomputes to the
//! identical `f64`. Incremental counters (`dirty` / `reused`) sum
//! across shards — after one edit only the owning shard reports dirty
//! work, which is what makes fleet CHECK scale: the merge is O(corpus)
//! concatenation but the *recheck* is O(corpus / shards).

use concord_core::{replay_unique_tables, ContractSet, Violation};

use crate::{CheckPartConfig, CheckParts, UniqueTable};

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
    /// Σ per-shard dirty (rechecked) configurations.
    pub dirty_configs: usize,
    /// Σ per-shard reused (cache-patched) configurations.
    pub reused_configs: usize,
    /// Whether any shard dropped its cache for a resolution change.
    pub resolution_invalidated: bool,
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
/// caches per shard version: the shard's violations flattened and
/// pre-sorted by the engine's final `(config, line_no, contract_index)`
/// key, and its integer coverage sums.
///
/// Both are stable for as long as the shard itself is unchanged, which
/// is what makes [`merge_check_aggregates`]'s fast path scale: a fleet
/// CHECK after one edit re-aggregates only the owning shard and merges
/// the rest from cache — O(shard + total violations) instead of
/// re-walking and re-sorting every configuration in the fleet.
#[derive(Debug, Clone)]
pub struct ShardCheckAggregate {
    /// The raw per-config parts (the slow-path / unique-replay input).
    pub parts: CheckParts,
    sorted_violations: Vec<Violation>,
    covered_lines: usize,
    total_lines: usize,
}

impl ShardCheckAggregate {
    /// Flattens and pre-sorts `parts` once, at shard-recheck time.
    pub fn new(parts: CheckParts) -> ShardCheckAggregate {
        let mut sorted_violations: Vec<Violation> = parts
            .configs
            .iter()
            .flat_map(|c| c.violations.iter().cloned())
            .collect();
        // Stable, like the engine's final sort: within a config (the
        // only place keys can tie) the pre-sort order survives.
        sorted_violations.sort_by(|a, b| {
            (&a.config, a.line_no, a.contract_index).cmp(&(&b.config, b.line_no, b.contract_index))
        });
        ShardCheckAggregate {
            sorted_violations,
            covered_lines: parts.configs.iter().map(|c| c.covered_lines).sum(),
            total_lines: parts.configs.iter().map(|c| c.total_lines).sum(),
            parts,
        }
    }
}

/// Merges per-shard aggregates into the fleet-wide report —
/// byte-identical to [`merge_check_parts`] over the same shards.
///
/// When no shard resolved a unique contract, the report needs no
/// per-config walk at all: coverage merges as K integer sums, and the
/// violations are a K-way merge of the cached per-shard sorted lists.
/// Config names are disjoint across shards, so equal sort keys never
/// cross shards and the merge reproduces the single engine's stable
/// sort exactly. Unique contracts replay over every config's event
/// table by construction, so that case falls back to the full merge.
pub fn merge_check_aggregates(
    contracts: &ContractSet,
    shards: &[&ShardCheckAggregate],
) -> FleetCheckReport {
    if shards.iter().any(|s| !s.parts.unique_indices.is_empty()) {
        let refs: Vec<&CheckParts> = shards.iter().map(|s| &s.parts).collect();
        return merge_check_parts(contracts, &refs);
    }
    let total: usize = shards.iter().map(|s| s.sorted_violations.len()).sum();
    let mut violations: Vec<Violation> = Vec::with_capacity(total);
    let mut heads = vec![0usize; shards.len()];
    while violations.len() < total {
        let mut best: Option<usize> = None;
        for (i, shard) in shards.iter().enumerate() {
            let Some(v) = shard.sorted_violations.get(heads[i]) else {
                continue;
            };
            best = match best {
                Some(b) => {
                    let bv = &shards[b].sorted_violations[heads[b]];
                    if (&v.config, v.line_no, v.contract_index)
                        < (&bv.config, bv.line_no, bv.contract_index)
                    {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
                None => Some(i),
            };
        }
        let i = best.expect("an unexhausted shard list remains");
        violations.push(shards[i].sorted_violations[heads[i]].clone());
        heads[i] += 1;
    }
    FleetCheckReport {
        violations,
        covered_lines: shards.iter().map(|s| s.covered_lines).sum(),
        total_lines: shards.iter().map(|s| s.total_lines).sum(),
        dirty_configs: shards.iter().map(|s| s.parts.dirty_configs).sum(),
        reused_configs: shards.iter().map(|s| s.parts.reused_configs).sum(),
        resolution_invalidated: shards.iter().any(|s| s.parts.resolution_invalidated),
    }
}

/// Merges every shard's [`CheckParts`] into the fleet-wide report.
/// `contracts` must be the contract set every shard checked under.
/// Takes references so a serve layer can merge straight out of its
/// per-shard parts cache without cloning clean shards' parts.
pub fn merge_check_parts(contracts: &ContractSet, shards: &[&CheckParts]) -> FleetCheckReport {
    // Interleave the shards' name-sorted config lists into global name
    // order. Names are disjoint across shards, so a plain sort of
    // (shard, index) handles any shard count; each shard's internal
    // order is already correct.
    let mut order: Vec<&CheckPartConfig> = shards.iter().flat_map(|p| p.configs.iter()).collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));

    let mut violations: Vec<Violation> = Vec::new();
    let mut covered_lines = 0usize;
    let mut total_lines = 0usize;
    for config in &order {
        violations.extend_from_slice(&config.violations);
        covered_lines += config.covered_lines;
        total_lines += config.total_lines;
    }

    // Sorted union of per-shard resolved unique indices = the global
    // program's unique set in compiled (ascending-index) order.
    let mut unique_indices: Vec<usize> = shards
        .iter()
        .flat_map(|p| p.unique_indices.iter().copied())
        .collect();
    unique_indices.sort_unstable();
    unique_indices.dedup();
    if !unique_indices.is_empty() {
        // Configs from shards that resolved no unique contract carry no
        // table; an empty one keeps them in the replay so their
        // "found none" violations still fire.
        let empty = UniqueTable::default();
        let tables: Vec<(&str, &UniqueTable)> = order
            .iter()
            .map(|c| (c.name.as_str(), c.unique.as_deref().unwrap_or(&empty)))
            .collect();
        violations.extend(replay_unique_tables(contracts, &unique_indices, &tables));
    }
    violations.sort_by(|a, b| {
        (&a.config, a.line_no, a.contract_index).cmp(&(&b.config, b.line_no, b.contract_index))
    });

    FleetCheckReport {
        violations,
        covered_lines,
        total_lines,
        dirty_configs: shards.iter().map(|p| p.dirty_configs).sum(),
        reused_configs: shards.iter().map(|p| p.reused_configs).sum(),
        resolution_invalidated: shards.iter().any(|p| p.resolution_invalidated),
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

    fn merged(contracts: &ContractSet, engines: &mut [Engine]) -> FleetCheckReport {
        let parts: Vec<CheckParts> = engines
            .iter_mut()
            .map(|e| e.check_parts().expect("check parts"))
            .collect();
        merge_check_parts(contracts, &parts.iter().collect::<Vec<_>>())
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
            let fleet_report = merged(&contracts, &mut engines);
            let oracle = single.check_dirty().expect("oracle check");

            assert_eq!(
                fleet_report.violations, oracle.report.violations,
                "violations differ at {shards} shards"
            );
            let summary = oracle.report.coverage.summary();
            assert_eq!(fleet_report.total_lines, summary.total_lines);
            assert_eq!(fleet_report.covered_lines, summary.covered_lines);
            assert_eq!(fleet_report.coverage_fraction(), summary.fraction);
            assert_eq!(
                fleet_report.dirty_configs + fleet_report.reused_configs,
                configs.len()
            );
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

        let fleet_report = merged(&contracts, &mut engines);
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
        assert_eq!(fleet_report.dirty_configs, oracle.engine.dirty_configs);
        assert_eq!(fleet_report.reused_configs, oracle.engine.reused_configs);

        // Removal replays the unique pass over the remaining tables.
        single.remove_config("dev1");
        engines[router.route("dev1")].remove_config("dev1");
        let fleet_report = merged(&contracts, &mut engines);
        let oracle = single.check_dirty().expect("oracle check");
        assert_eq!(fleet_report.violations, oracle.report.violations);
    }

    /// The aggregate fast path (no unique contracts: uniform corpus,
    /// every value repeated fleet-wide) and the unique-replay fallback
    /// (distinct per-device values) both reproduce the full merge.
    #[test]
    fn aggregate_merge_equals_full_merge_on_both_paths() {
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

            let parts: Vec<CheckParts> = engines
                .iter_mut()
                .map(|e| e.check_parts().expect("parts"))
                .collect();
            let full = merge_check_parts(&contracts, &parts.iter().collect::<Vec<_>>());
            let aggregates: Vec<ShardCheckAggregate> =
                parts.into_iter().map(ShardCheckAggregate::new).collect();
            let fast = merge_check_aggregates(&contracts, &aggregates.iter().collect::<Vec<_>>());
            assert_eq!(fast, full, "aggregate merge diverged from full merge");
            assert_eq!(
                fast.violations,
                single.check_dirty().expect("oracle").report.violations
            );
        }
    }

    #[test]
    fn empty_and_single_shard_merges_degenerate_cleanly() {
        let report = merge_check_parts(&ContractSet::default(), &[]);
        assert!(report.violations.is_empty());
        assert_eq!(report.total_lines, 0);
        assert_eq!(report.coverage_fraction(), 0.0);

        let configs = corpus(4);
        let mut single =
            Engine::from_corpus(&configs, &[], EngineOptions::default()).expect("single engine");
        single.relearn();
        let contracts = single.contracts().expect("learned").clone();
        let parts = single.check_parts().expect("parts");
        let merged_one = merge_check_parts(&contracts, &[&parts]);
        let oracle = single.check_dirty().expect("oracle");
        assert_eq!(merged_one.violations, oracle.report.violations);
    }
}
