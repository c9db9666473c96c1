#![warn(missing_docs)]

//! Concord's contract model, learning engine, and checking engine.
//!
//! This crate is the paper's primary contribution: given example network
//! configurations it *learns* lightweight configuration contracts (§3), and
//! given contracts it *checks* new or changed configurations, reporting
//! line-localized violations (§3.8) and configuration coverage (§3.9).
//!
//! The pipeline:
//!
//! ```text
//! text ──▶ format inference ──▶ context embedding ──▶ lexing ──▶ Dataset
//!            (concord-formats)                      (concord-lexer)
//! Dataset ──▶ learn(&Dataset, &LearnParams) ──▶ ContractSet
//! ContractSet + Dataset ──▶ check(..) ──▶ CheckReport { violations, coverage }
//! ```
//!
//! # Examples
//!
//! ```
//! use concord_core::{learn, check, Dataset, LearnParams};
//!
//! // Three tiny "devices" sharing an invariant: every loopback address is
//! // permitted by the prefix list.
//! let mk = |n: u8| {
//!     format!(
//!         "interface Loopback0\n ip address 10.0.0.{n}\nip prefix-list lo\n seq 10 permit 10.0.0.{n}/32\n"
//!     )
//! };
//! let configs: Vec<(String, String)> =
//!     (1..=6).map(|n| (format!("dev{n}"), mk(n))).collect();
//! let dataset = Dataset::from_named_texts(&configs, &[]).unwrap();
//!
//! let mut params = LearnParams::default();
//! params.support = 3;
//! let contracts = learn(&dataset, &params);
//! assert!(!contracts.is_empty());
//!
//! // A buggy device: loopback address missing from the prefix list.
//! let bad = vec![(
//!     "dev-bad".to_string(),
//!     "interface Loopback0\n ip address 10.0.0.9\nip prefix-list lo\n seq 10 permit 10.0.0.7/32\n".to_string(),
//! )];
//! let test = Dataset::from_named_texts(&bad, &[]).unwrap();
//! let report = check(&contracts, &test);
//! assert!(!report.violations.is_empty());
//! ```

mod check;
mod contract;
mod fxhash;
mod ir;
mod learn;
#[cfg(any(test, feature = "legacy-ir"))]
mod legacy;
pub mod parallel;
mod params;
mod stats;

pub use check::coverage::{ConfigCoverage, CoverageReport, CoverageSummary};
pub use check::{
    check, check_parallel, check_parallel_with_stats, join_unique_indexes, CheckCounters,
    CheckProgram, CheckReport, ConfigOutcome, UniqueIndex, UniqueTable, UniqueViolation, Violation,
};
#[cfg(any(test, feature = "naive-check"))]
pub use check::{check_naive, check_naive_parallel};
pub use contract::{Contract, ContractSet, PatternRef, RelationKind, RelationalContract};
pub use ir::{
    Arenas, ConfigIr, Dataset, DatasetError, LineRef, ParamArena, ParamSliceId, PatternId,
    PatternTable, StrArena, StrId,
};
pub use learn::indexes::{
    AffixStructure, ContainsStructure, Entry, EqualityStructure, NodeKey, PrefixTrie,
    RelationStructure, StrTrie, TransformTag, ValueIndex,
};
#[cfg(any(test, feature = "reference-learn"))]
pub use learn::learn_reference;
pub use learn::{
    finalize_sketches, learn, learn_with_stats, sketch_config, sketch_params_fingerprint,
    ConfigSketch, Fold, LearnStats, SKETCH_FORMAT_VERSION,
};
#[cfg(any(test, feature = "legacy-ir"))]
pub use legacy::{LegacyConfig, LegacyDataset, LegacyLineRecord};
pub use params::LearnParams;
pub use stats::{
    BuildStats, CheckStats, EngineCheckStats, EngineStats, FleetShardStats, FleetStats,
    FleetTotals, LearnDeltaStats, LexCacheStats, MemoryStats, PipelineStats, RobustnessStats,
    ServeTransportStats, StorageStats, STATS_SCHEMA,
};
