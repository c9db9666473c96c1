//! The pure-data mirror of an [`Engine`](crate::Engine) snapshot.
//!
//! An [`EngineImage`] holds everything needed to rebuild an engine that
//! is indistinguishable from the original: configuration texts in
//! dataset order with their stable ids and generations, the metadata
//! corpus, the contract set (kept as its exact JSON serialization so a
//! round trip is byte-preserving), and the lifetime counters. It is
//! deliberately *not* the engine itself — no interner, no caches, no
//! check outcomes — so it is trivially unwind-safe and serializable,
//! which is what both the crash-safe store and the panic-recovery path
//! need: a last-known-good state that a poisoned engine can never have
//! corrupted.
//!
//! The texts are shared, not copied: each configuration's text is one
//! `Arc<str>` that the image and the engine both hold (the engine keeps
//! it as the base its next upsert diffs against), so the corpus stays
//! one resident copy. The resilient layer builds the image first and the
//! engine over the image's texts, and after every write the engine
//! applies it records the engine's text handle with the id and
//! generation the engine assigned, the contract set the engine holds,
//! and the engine's counters.

use std::sync::Arc;

use concord_json::{push_number, push_string, Error as JsonError, FromJson, Json};

use crate::EngineCounters;

/// One configuration inside an [`EngineImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageConfig {
    /// Configuration name (unique; images keep configs name-sorted,
    /// matching engine dataset order).
    pub name: String,
    /// Full configuration text, shared with the engine that holds it.
    pub text: Arc<str>,
    /// Stable id ([`ConfigId`](crate::ConfigId) payload).
    pub id: u64,
    /// Edit generation.
    pub generation: u64,
    /// This configuration's learn sketch bundle, the JSON text
    /// [`Engine::export_sketch_for`](crate::Engine::export_sketch_for)
    /// writes, captured at checkpoint time and embedded in the segment
    /// as one escaped string. Purely derived state: `None` (or a
    /// stale/undecodable bundle) is simply re-mined by the next delta
    /// relearn. Keeping the sketch *per config* is what makes segmented
    /// checkpoints O(dirty): an unedited config's segment — text and
    /// sketch — never has to be re-serialized.
    pub sketch: Option<String>,
}

/// A serializable last-known-good snapshot of an engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineImage {
    /// Configurations in dataset (name-sorted) order.
    pub configs: Vec<ImageConfig>,
    /// Metadata corpus (name, text), as passed to the dataset builder.
    pub metadata: Vec<(String, String)>,
    /// The contract set's exact JSON serialization (`None` before any
    /// learn/load). Stored as a string so restore round-trips exactly.
    pub contracts: Option<String>,
    /// Lifetime counters, synced from the live engine after every
    /// successful operation.
    pub counters: EngineCounters,
    /// Sequence number of the last WAL record folded into this image.
    /// Replay skips records at or below this mark.
    pub applied_seq: u64,
}

/// Why an [`EngineImage`] could not be decoded or rebuilt.
#[derive(Debug)]
pub enum ImageError {
    /// The restored corpus failed to build a dataset.
    Dataset(concord_core::DatasetError),
    /// The stored contract JSON failed to parse.
    Contracts(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Dataset(e) => write!(f, "rebuilding dataset from image: {e}"),
            ImageError::Contracts(e) => write!(f, "bad contracts in image: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl EngineImage {
    /// Builds the image of a fresh engine over `configs` + `metadata` —
    /// the mirror of [`Engine::from_corpus`](crate::Engine::from_corpus):
    /// name-sorted, ids `0..n`, generation 0.
    pub fn from_corpus(configs: &[(String, String)], metadata: &[(String, String)]) -> EngineImage {
        let mut sorted: Vec<(String, String)> = configs.to_vec();
        sorted.sort();
        let configs: Vec<ImageConfig> = sorted
            .into_iter()
            .enumerate()
            .map(|(i, (name, text))| ImageConfig {
                name,
                text: text.into(),
                id: i as u64,
                generation: 0,
                sketch: None,
            })
            .collect();
        let next_id = configs.len() as u64;
        EngineImage {
            configs,
            metadata: metadata.to_vec(),
            contracts: None,
            counters: EngineCounters {
                next_id,
                ..EngineCounters::default()
            },
            applied_seq: 0,
        }
    }

    /// Inserts or replaces a configuration with the id and generation
    /// the engine assigned it
    /// ([`Engine::upsert_config`](crate::Engine::upsert_config)), at its
    /// name-sorted position. A replaced configuration's captured sketch
    /// is stale by generation, so it goes; the next checkpoint
    /// re-exports it. Pass the engine's own text handle
    /// ([`Engine::config_text`](crate::Engine::config_text)) to keep one
    /// copy of the text.
    pub fn upsert(&mut self, name: &str, text: impl Into<Arc<str>>, id: u64, generation: u64) {
        let config = ImageConfig {
            name: name.to_string(),
            text: text.into(),
            id,
            generation,
            sketch: None,
        };
        match self.configs.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => self.configs[i] = config,
            Err(i) => self.configs.insert(i, config),
        }
    }

    /// Removes a configuration, mirroring
    /// [`Engine::remove_config`](crate::Engine::remove_config). Returns
    /// `true` when the configuration existed.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.configs.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => {
                self.configs.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The configuration texts in image order, ready for
    /// [`Engine::from_corpus`](crate::Engine::from_corpus) — the
    /// from-scratch oracle the fault harness compares against.
    pub fn corpus(&self) -> Vec<(String, String)> {
        self.configs
            .iter()
            .map(|c| (c.name.clone(), c.text.to_string()))
            .collect()
    }
}

impl ImageConfig {
    /// Appends this configuration's segment payload,
    /// `{"name":…,"text":…,"id":…,"generation":…,"sketch":…}`, with the
    /// sketch bundle embedded as one JSON string (or `null`). Its
    /// [`FromJson`] reads the payload back.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_string(out, &self.name);
        out.push_str(",\"text\":");
        push_string(out, &self.text);
        out.push_str(",\"id\":");
        push_number(out, self.id as f64);
        out.push_str(",\"generation\":");
        push_number(out, self.generation as f64);
        out.push_str(",\"sketch\":");
        match &self.sketch {
            Some(bundle) => push_string(out, bundle),
            None => out.push_str("null"),
        }
        out.push('}');
    }
}

impl FromJson for ImageConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ImageConfig {
            name: req_str(value, "name")?,
            text: req_str(value, "text")?.into(),
            id: req_u64(value, "id")?,
            generation: req_u64(value, "generation")?,
            // Tolerant: sketches are derived state, so a missing field
            // (an old snapshot) or a non-string value loads as "no
            // sketch" rather than failing the config.
            sketch: value
                .get("sketch")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

impl EngineCounters {
    /// Appends the counters as the manifest's `counters` object; its
    /// [`FromJson`] reads them back.
    pub(crate) fn write_json(&self, out: &mut String) {
        let fields = [
            ("next_id", self.next_id),
            ("edits", self.edits),
            ("relearns", self.relearns),
            ("contracts_epoch", self.contracts_epoch),
            ("lines_at_last_learn", self.lines_at_last_learn as u64),
            (
                "changed_lines_since_learn",
                self.changed_lines_since_learn as u64,
            ),
            ("contracts_edits", self.contracts_edits),
        ];
        for (i, (key, value)) in fields.into_iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            push_string(out, key);
            out.push(':');
            push_number(out, value as f64);
        }
        out.push('}');
    }
}

impl FromJson for EngineCounters {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(EngineCounters {
            next_id: req_u64(value, "next_id")?,
            edits: req_u64(value, "edits")?,
            relearns: req_u64(value, "relearns")?,
            contracts_epoch: req_u64(value, "contracts_epoch")?,
            lines_at_last_learn: req_u64(value, "lines_at_last_learn")? as usize,
            changed_lines_since_learn: req_u64(value, "changed_lines_since_learn")? as usize,
            // Added with the incremental-learning work: absent in older
            // snapshots, where 0 ("contracts set before any edit") is
            // the conservative reading.
            contracts_edits: value
                .get("contracts_edits")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        })
    }
}

fn req_str(value: &Json, key: &str) -> Result<String, JsonError> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| JsonError::custom(format!("missing string field {key:?}")))
}

fn req_u64(value: &Json, key: &str) -> Result<u64, JsonError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| JsonError::custom(format!("missing integer field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions};

    fn corpus() -> Vec<(String, String)> {
        (0..4)
            .map(|i| (format!("dev{i}"), format!("vlan {}\nmtu 1500\n", 10 + i)))
            .collect()
    }

    #[test]
    fn rebuilt_engine_matches_original_report() {
        let mut engine =
            Engine::from_corpus(&corpus(), &[], EngineOptions::default()).expect("corpus builds");
        let mut image = EngineImage::from_corpus(&corpus(), &[]);
        engine.relearn();
        image.contracts = Some(engine.contracts().expect("just learned").to_json());
        let id = engine.upsert_config("dev9", "vlan 10\n");
        let generation = engine.config_generation("dev9").expect("just upserted");
        image.upsert("dev9", "vlan 10\n", id.0, generation);
        image.counters = engine.counters();
        let want = engine.check_dirty().expect("check runs").report;

        let mut rebuilt = Engine::from_image(
            &image,
            concord_lexer::Lexer::standard(),
            EngineOptions::default(),
        )
        .expect("image rebuilds");
        assert_eq!(rebuilt.counters(), engine.counters());
        assert_eq!(rebuilt.generations(), engine.generations());
        let got = rebuilt.check_dirty().expect("check runs").report;
        assert_eq!(want.violations, got.violations);
        assert_eq!(
            want.coverage.per_config.len(),
            got.coverage.per_config.len()
        );
    }
}
