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
//! The engine does not retain raw configuration texts (its [`Dataset`]
//! holds lexed lines only), so the image cannot be captured from a live
//! engine after the fact. Instead the resilient layer builds the image
//! from the same corpus the engine is built from and applies every
//! mutation to both, syncing the counters from the engine after each
//! successful operation.
//!
//! [`Dataset`]: concord_core::Dataset

use concord_json::{Error as JsonError, FromJson, Json, ToJson};

use crate::EngineCounters;

/// One configuration inside an [`EngineImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageConfig {
    /// Configuration name (unique; images keep configs name-sorted,
    /// matching engine dataset order).
    pub name: String,
    /// Full configuration text.
    pub text: String,
    /// Stable id ([`ConfigId`](crate::ConfigId) payload).
    pub id: u64,
    /// Edit generation.
    pub generation: u64,
    /// This configuration's learn sketch as rendered by
    /// [`Engine::export_sketch_for`](crate::Engine::export_sketch_for),
    /// captured at checkpoint time. Purely derived state: `None` (or a
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
    /// The image JSON did not have the expected shape.
    Decode(JsonError),
    /// The restored corpus failed to build a dataset.
    Dataset(concord_core::DatasetError),
    /// The stored contract JSON failed to parse.
    Contracts(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Decode(e) => write!(f, "bad engine image: {e}"),
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
                text,
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

    /// Inserts or replaces a configuration, mirroring
    /// [`Engine::upsert_config`](crate::Engine::upsert_config): replace
    /// in place keeps the id and bumps the generation; insert goes at
    /// the name-sorted position with a fresh id from `next_id`.
    ///
    /// Only the structural state (texts, ids, generations) is
    /// maintained here; the caller syncs [`EngineImage::counters`] from
    /// the live engine afterwards.
    pub fn upsert(&mut self, name: &str, text: &str) {
        match self.configs.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => {
                self.configs[i].text = text.to_string();
                self.configs[i].generation += 1;
                // The text changed, so any captured sketch is stale by
                // generation; the next checkpoint re-exports it.
                self.configs[i].sketch = None;
            }
            Err(i) => {
                self.configs.insert(
                    i,
                    ImageConfig {
                        name: name.to_string(),
                        text: text.to_string(),
                        id: self.counters.next_id,
                        generation: 0,
                        sketch: None,
                    },
                );
                self.counters.next_id += 1;
            }
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
            .map(|c| (c.name.clone(), c.text.clone()))
            .collect()
    }
}

impl ToJson for ImageConfig {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".to_string(), self.name.to_json()),
            ("text".to_string(), self.text.to_json()),
            ("id".to_string(), self.id.to_json()),
            ("generation".to_string(), self.generation.to_json()),
            (
                "sketch".to_string(),
                match &self.sketch {
                    Some(json) => Json::Str(json.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for ImageConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ImageConfig {
            name: req_str(value, "name")?,
            text: req_str(value, "text")?,
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

impl ToJson for EngineCounters {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("next_id".to_string(), self.next_id.to_json()),
            ("edits".to_string(), self.edits.to_json()),
            ("relearns".to_string(), self.relearns.to_json()),
            (
                "contracts_epoch".to_string(),
                self.contracts_epoch.to_json(),
            ),
            (
                "lines_at_last_learn".to_string(),
                self.lines_at_last_learn.to_json(),
            ),
            (
                "changed_lines_since_learn".to_string(),
                self.changed_lines_since_learn.to_json(),
            ),
            (
                "contracts_edits".to_string(),
                self.contracts_edits.to_json(),
            ),
        ])
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

impl ToJson for EngineImage {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "configs".to_string(),
                Json::Array(self.configs.iter().map(ToJson::to_json).collect()),
            ),
            (
                "metadata".to_string(),
                Json::Array(
                    self.metadata
                        .iter()
                        .map(|(n, t)| Json::Array(vec![n.to_json(), t.to_json()]))
                        .collect(),
                ),
            ),
            (
                "contracts".to_string(),
                match &self.contracts {
                    Some(json) => Json::Str(json.clone()),
                    None => Json::Null,
                },
            ),
            ("counters".to_string(), self.counters.to_json()),
            ("applied_seq".to_string(), self.applied_seq.to_json()),
        ])
    }
}

impl FromJson for EngineImage {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let configs = value
            .get("configs")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::custom("image missing configs array"))?
            .iter()
            .map(ImageConfig::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let metadata = value
            .get("metadata")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::custom("image missing metadata array"))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .ok_or_else(|| JsonError::custom("metadata entry is not a pair"))?;
                match pair {
                    [n, t] => Ok((
                        n.as_str()
                            .ok_or_else(|| JsonError::custom("metadata name is not a string"))?
                            .to_string(),
                        t.as_str()
                            .ok_or_else(|| JsonError::custom("metadata text is not a string"))?
                            .to_string(),
                    )),
                    _ => Err(JsonError::custom("metadata entry is not a pair")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let contracts = match value.get("contracts") {
            None => None,
            Some(Json::Null) => None,
            Some(j) => Some(
                j.as_str()
                    .ok_or_else(|| JsonError::custom("contracts is not a string"))?
                    .to_string(),
            ),
        };
        let counters = value
            .get("counters")
            .map(EngineCounters::from_json)
            .transpose()?
            .ok_or_else(|| JsonError::custom("image missing counters"))?;
        let applied_seq = value
            .get("applied_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError::custom("image missing applied_seq"))?;
        // Snapshots written before sketches moved into the per-config
        // segments also carry one top-level `sketches` bundle. It is in
        // sketch format 1, which import rejects, so it is ignored and the
        // next LEARN re-mines those configs.
        Ok(EngineImage {
            configs,
            metadata,
            contracts,
            counters,
            applied_seq,
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
    fn image_round_trips_through_json() {
        let mut image = EngineImage::from_corpus(&corpus(), &[]);
        image.upsert("dev1", "vlan 99\n");
        image.contracts = Some("{\"schema\": \"x\"}".to_string());
        image.configs[0].sketch = Some("{\"version\": 1}".to_string());
        image.counters.contracts_edits = 3;
        image.applied_seq = 7;
        let json = image.to_json().render();
        let back = EngineImage::from_json(&Json::parse(&json).expect("parses")).expect("decodes");
        assert_eq!(image, back);
    }

    #[test]
    fn old_images_without_sketches_still_decode() {
        // Snapshots written before the sketches field / contracts_edits
        // counter existed must keep loading.
        let mut image = EngineImage::from_corpus(&corpus(), &[]);
        image.contracts = Some("{\"schema\": \"x\"}".to_string());
        let json = image.to_json();
        let Json::Object(pairs) = json else {
            panic!("image serializes as an object")
        };
        let pruned = Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "counters" {
                        let Json::Object(counters) = v else {
                            panic!("counters serialize as an object")
                        };
                        (
                            k,
                            Json::Object(
                                counters
                                    .into_iter()
                                    .filter(|(ck, _)| ck != "contracts_edits")
                                    .collect(),
                            ),
                        )
                    } else {
                        (k, v)
                    }
                })
                .filter(|(k, _)| k != "sketches")
                .collect(),
        );
        let back = EngineImage::from_json(&pruned).expect("old shape decodes");
        assert!(back.configs.iter().all(|c| c.sketch.is_none()));
        assert_eq!(back.counters.contracts_edits, 0);
        assert_eq!(back.configs, image.configs);
    }

    #[test]
    fn legacy_monolithic_sketch_bundle_is_ignored() {
        // A pre-segmentation snapshot carried one top-level `sketches`
        // bundle in sketch format 1. It still decodes, without sketches.
        let image = EngineImage::from_corpus(&corpus(), &[]);
        let Json::Object(mut pairs) = image.to_json() else {
            panic!("image serializes as an object")
        };
        let bundle = concat!(
            "{\"version\": 1, \"params\": \"fp\", \"configs\": [",
            "{\"name\": \"dev2\", \"generation\": 0, \"sketch\": {}}]}",
        );
        pairs.push(("sketches".to_string(), Json::Str(bundle.to_string())));
        let back = EngineImage::from_json(&Json::Object(pairs)).expect("decodes");
        assert_eq!(back, image);
    }

    #[test]
    fn image_mirrors_engine_ids_and_generations() {
        let mut engine =
            Engine::from_corpus(&corpus(), &[], EngineOptions::default()).expect("corpus builds");
        let mut image = EngineImage::from_corpus(&corpus(), &[]);

        for (name, text) in [
            ("dev1", "vlan 77\n"),
            ("aaa", "vlan 1\n"),
            ("dev1", "vlan 78\n"),
        ] {
            engine.upsert_config(name, text);
            image.upsert(name, text);
        }
        engine.remove_config("dev3");
        assert!(image.remove("dev3"));
        assert!(!image.remove("dev3"));
        image.counters = engine.counters();

        let pairs: Vec<(String, u64)> = image
            .configs
            .iter()
            .map(|c| (c.name.clone(), c.generation))
            .collect();
        assert_eq!(pairs, engine.generations());
        for (i, c) in image.configs.iter().enumerate() {
            assert_eq!(Some(crate::ConfigId(c.id)), engine.id_at(i));
        }
    }

    #[test]
    fn rebuilt_engine_matches_original_report() {
        let mut engine =
            Engine::from_corpus(&corpus(), &[], EngineOptions::default()).expect("corpus builds");
        let mut image = EngineImage::from_corpus(&corpus(), &[]);
        engine.relearn();
        image.contracts = Some(engine.contracts().expect("just learned").to_json());
        engine.upsert_config("dev9", "vlan 10\n");
        image.upsert("dev9", "vlan 10\n");
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
