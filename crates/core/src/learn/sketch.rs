//! Per-configuration miner sketches and the fold that turns them into
//! contracts: the one way Concord learns.
//!
//! Every miner in this module's siblings is structured as three phases —
//! *sketch* one configuration, *fold* sketches in config order into a
//! global accumulation, *emit* contracts from the accumulation. A
//! [`ConfigSketch`] bundles one config's per-miner sketches (pattern
//! occurrence set, constant-line set, follower pairs, type histograms,
//! sequence/unique/range accumulators, and the relational candidate
//! run), and a [`Fold`] holds every miner's accumulation. Batch learning
//! ([`super::learn_with_stats`]) sketches the configs a chunk at a time
//! and folds each chunk as it goes; an engine that caches sketches
//! relearns after an edit by re-sketching only the changed configs and
//! folding every cached sketch through a [`Fold`] of its own (as
//! [`finalize_sketches`] does). Both run the same fold and emit code,
//! hence byte-identical contracts by construction.
//!
//! The relational section is the bulk of a sketch — hundreds to
//! thousands of candidates over a few dozen to a few hundred distinct
//! nodes and witnesses — and both of its forms store each node and
//! witness once:
//!
//! - **Resident.** An engine holds one sketch per config for as long as
//!   the config is unedited, so the section is a
//!   [`relational::CompactRun`]: a node table sorted by node code, a
//!   `(hash, score)` witness table in first-use order, and per-candidate
//!   parallel arrays (antecedent index, consequent index with the
//!   relation, valid count, end offset into one witness-reference pool).
//!   A [`Fold`] merges each run into its wide accumulation by reference,
//!   without cloning it.
//! - **JSON.** Sketches serialize against the dataset's [`PatternTable`]
//!   (pattern *text*, not ids, so they survive snapshot/restore where ids
//!   are reassigned). Witness hashes and diversity scores are stored as
//!   fixed-width hex bit-patterns: the JSON number type is an `f64` and
//!   cannot round-trip full-range `u64` hashes. The relational section is
//!   written as a table of distinct nodes in first-use order, the witness
//!   table as stored, and candidates that refer to both by index. Decoding
//!   re-encodes the nodes under the current table and re-sorts nodes and
//!   candidates, since reassigned ids can reorder them.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use concord_json::{push_array, push_number, push_string, FromJson, Json, ToJson};
use concord_types::{BigNum, Transform, ValueType};

use crate::contract::{Contract, ContractSet, RelationKind};
use crate::fxhash::FxHashMap;
use crate::ir::{Dataset, PatternId, PatternTable};
use crate::learn::indexes::{NodeKey, TransformTag};
use crate::learn::{buffer_bytes, LearnStats};
use crate::learn::{minimize, ordering, present, range, relational, sequence, typing, unique};
use crate::parallel;
use crate::params::LearnParams;

/// Format version of the serialized sketch; bump on any layout change
/// so stale persisted sketches are dropped instead of misread. Version 2
/// indexes the relational section's nodes and witnesses.
pub const SKETCH_FORMAT_VERSION: u64 = 2;

/// The miners in canonical order: the order of
/// [`LearnStats::miner_times`], and the index of each miner's slot in a
/// [`MinerTimes`] array.
const MINERS: [&str; 7] = [
    "present",
    "ordering",
    "type",
    "sequence",
    "unique",
    "range",
    "relational",
];
const PRESENT: usize = 0;
const ORDERING: usize = 1;
const TYPE: usize = 2;
const SEQUENCE: usize = 3;
const UNIQUE: usize = 4;
const RANGE: usize = 5;
const RELATIONAL: usize = 6;

/// One duration per miner, indexed like [`MINERS`].
type MinerTimes = [Duration; MINERS.len()];

/// Which miners `params` enables, indexed like [`MINERS`].
fn enabled(params: &LearnParams) -> [bool; MINERS.len()] {
    [
        params.enable_present,
        params.enable_ordering,
        params.enable_type,
        params.enable_sequence,
        params.enable_unique,
        params.enable_range,
        params.enable_relational,
    ]
}

/// Runs `f`, adding its wall-clock time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// One configuration's complete miner sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigSketch {
    /// Distinct pattern ids of the config — folds into the per-pattern
    /// config counts used by present, ordering, and relational emission.
    pub(crate) patterns: Vec<PatternId>,
    pub(crate) present: present::Sketch,
    pub(crate) ordering: ordering::Sketch,
    pub(crate) typing: typing::Sketch,
    pub(crate) sequence: sequence::Sketch,
    pub(crate) unique: unique::Sketch,
    pub(crate) range: range::Sketch,
    /// Relational run, in its compact resident form (see
    /// [`relational::CompactRun`]).
    pub(crate) relational: relational::CompactRun,
    /// Witness records this config's relational pass dropped to the
    /// fan-out guard.
    pub(crate) relational_truncations: u64,
}

/// Sketches one configuration under `params`. Only the categories
/// enabled by `params` are accumulated, so the params fingerprint
/// ([`sketch_params_fingerprint`]) must match before a sketch is reused.
pub fn sketch_config(dataset: &Dataset, ci: usize, params: &LearnParams) -> ConfigSketch {
    sketch_timed(dataset, ci, params).0
}

/// [`sketch_config`], also returning the time each miner's section took.
fn sketch_timed(dataset: &Dataset, ci: usize, params: &LearnParams) -> (ConfigSketch, MinerTimes) {
    let mut times = MinerTimes::default();
    let mut lines_by_pattern: FxHashMap<PatternId, Vec<usize>> = FxHashMap::default();
    for (i, &pattern) in dataset.configs[ci].patterns().iter().enumerate() {
        lines_by_pattern.entry(pattern).or_default().push(i);
    }
    let mut sketch = ConfigSketch {
        patterns: lines_by_pattern.keys().copied().collect(),
        ..ConfigSketch::default()
    };
    if params.enable_present {
        sketch.present = timed(&mut times[PRESENT], || {
            present::sketch_config(dataset, ci, params)
        });
    }
    if params.enable_ordering {
        sketch.ordering = timed(&mut times[ORDERING], || {
            ordering::sketch_config(dataset, ci)
        });
    }
    if params.enable_type {
        sketch.typing = timed(&mut times[TYPE], || typing::sketch_config(dataset, ci));
    }
    if params.enable_sequence {
        sketch.sequence = timed(&mut times[SEQUENCE], || {
            sequence::sketch_config(dataset, ci, &lines_by_pattern)
        });
    }
    if params.enable_unique {
        sketch.unique = timed(&mut times[UNIQUE], || {
            unique::sketch_config(dataset, ci, &lines_by_pattern)
        });
    }
    if params.enable_range {
        sketch.range = timed(&mut times[RANGE], || {
            range::sketch_config(dataset, ci, &lines_by_pattern)
        });
    }
    if params.enable_relational {
        (sketch.relational, sketch.relational_truncations) = timed(&mut times[RELATIONAL], || {
            let mined = relational::mine_config(dataset, ci, params);
            (mined.to_compact(), mined.truncations)
        });
    }
    (sketch, times)
}

/// Every miner's global accumulation, folded from per-config sketches in
/// config order and then emitted as one contract set.
///
/// The fold itself is sequential: several accumulations (unique's score
/// cap, relational's first-seen witness lists and their floating-point
/// score sums) depend on config order, and folding one config at a time
/// in that order is what makes the result independent of how the
/// sketches were produced.
pub struct Fold<'a> {
    dataset: &'a Dataset,
    params: &'a LearnParams,
    /// Configs folded so far.
    configs: usize,
    /// Pattern id → number of configs containing it, read by present,
    /// ordering and relational emission.
    config_count: Vec<u32>,
    present: present::Acc,
    ordering: ordering::Acc,
    typing: typing::Acc,
    sequence: sequence::Acc,
    unique: unique::Acc,
    range: range::Acc,
    relational: relational::PartialRun,
    truncations: u64,
    /// Each miner's sketch, fold and emit time so far.
    times: MinerTimes,
    /// The relational fold's share of `times`.
    merge_time: Duration,
}

impl<'a> Fold<'a> {
    /// An empty fold over `dataset`'s configs under `params`.
    pub fn new(dataset: &'a Dataset, params: &'a LearnParams) -> Fold<'a> {
        Fold {
            dataset,
            params,
            configs: 0,
            config_count: vec![0; dataset.table.len()],
            present: present::Acc::default(),
            ordering: ordering::Acc::default(),
            typing: typing::Acc::default(),
            sequence: sequence::Acc::default(),
            unique: unique::Acc::default(),
            range: range::Acc::default(),
            relational: relational::PartialRun::new(),
            truncations: 0,
            times: MinerTimes::default(),
            merge_time: Duration::ZERO,
        }
    }

    /// Sketches the configs at `indices` on up to `parallelism` threads
    /// and returns the sketches in the order of `indices`. Each miner's
    /// sketch time, summed over the configs, counts toward its entry in
    /// the [`LearnStats`] this fold finishes with.
    pub fn sketch(&mut self, indices: &[usize], parallelism: usize) -> Vec<ConfigSketch> {
        let (dataset, params) = (self.dataset, self.params);
        // The times are summed under a lock rather than returned beside
        // each sketch, so the sketches need no second, wider buffer.
        let totals = Mutex::new(&mut self.times);
        parallel::map(
            indices,
            |&ci| {
                let (sketch, times) = sketch_timed(dataset, ci, params);
                let mut totals = totals
                    .lock()
                    .expect("adding durations does not panic under the lock");
                for (total, t) in totals.iter_mut().zip(times) {
                    *total += t;
                }
                sketch
            },
            parallelism,
        )
    }

    /// Folds `sketches`, the next configs in config order, miner by
    /// miner.
    pub fn add(&mut self, sketches: &[&ConfigSketch]) {
        let params = self.params;
        self.configs += sketches.len();
        for sketch in sketches {
            for &pattern in &sketch.patterns {
                self.config_count[pattern.0 as usize] += 1;
            }
        }
        if params.enable_present {
            timed(&mut self.times[PRESENT], || {
                for sketch in sketches {
                    present::fold(&mut self.present, &sketch.present);
                }
            });
        }
        if params.enable_ordering {
            timed(&mut self.times[ORDERING], || {
                for sketch in sketches {
                    ordering::fold(&mut self.ordering, &sketch.ordering);
                }
            });
        }
        if params.enable_type {
            timed(&mut self.times[TYPE], || {
                for sketch in sketches {
                    typing::fold(&mut self.typing, &sketch.typing);
                }
            });
        }
        if params.enable_sequence {
            timed(&mut self.times[SEQUENCE], || {
                for sketch in sketches {
                    sequence::fold(&mut self.sequence, &sketch.sequence);
                }
            });
        }
        if params.enable_unique {
            timed(&mut self.times[UNIQUE], || {
                for sketch in sketches {
                    unique::fold(&mut self.unique, &sketch.unique, params);
                }
            });
        }
        if params.enable_range {
            timed(&mut self.times[RANGE], || {
                for sketch in sketches {
                    range::fold(&mut self.range, &sketch.range);
                }
            });
        }
        if params.enable_relational {
            let t = Instant::now();
            for sketch in sketches {
                self.truncations += sketch.relational_truncations;
                self.relational = relational::merge_compact(
                    std::mem::take(&mut self.relational),
                    &sketch.relational,
                    params.max_score_witnesses,
                );
            }
            let elapsed = t.elapsed();
            self.merge_time += elapsed;
            self.times[RELATIONAL] += elapsed;
        }
    }

    /// Emits the contract set. The fold must have seen every config of
    /// the dataset exactly once, in config order.
    ///
    /// The contracts are sorted into a stable order (category, then
    /// rendered text) so learning is deterministic across runs and
    /// parallelism levels.
    pub fn finish(self) -> (ContractSet, LearnStats) {
        let Fold {
            dataset,
            params,
            configs,
            config_count,
            present,
            ordering,
            typing,
            sequence,
            unique,
            range,
            relational,
            truncations,
            mut times,
            merge_time,
        } = self;
        let num_configs = dataset.configs.len();
        assert_eq!(configs, num_configs, "a fold must see every config once");
        let mut stats = LearnStats::default();
        let mut contracts: Vec<Contract> = Vec::new();
        if params.enable_present {
            contracts.extend(timed(&mut times[PRESENT], || {
                present::emit(present, dataset, &config_count, num_configs, params)
            }));
        }
        if params.enable_ordering {
            contracts.extend(timed(&mut times[ORDERING], || {
                ordering::emit(ordering, dataset, &config_count, params)
            }));
        }
        if params.enable_type {
            contracts.extend(timed(&mut times[TYPE], || typing::emit(typing, params)));
        }
        if params.enable_sequence {
            contracts.extend(timed(&mut times[SEQUENCE], || {
                sequence::emit(sequence, dataset, params)
            }));
        }
        if params.enable_unique {
            contracts.extend(timed(&mut times[UNIQUE], || {
                unique::emit(unique, dataset, num_configs, params)
            }));
        }
        if params.enable_range {
            contracts.extend(timed(&mut times[RANGE], || {
                range::emit(range, dataset, params)
            }));
        }
        if params.enable_relational {
            let mined = timed(&mut times[RELATIONAL], || {
                relational::finalize(relational, dataset, &config_count, params)
            });
            stats.relational_before_minimization = mined.len();
            let reduced = timed(&mut stats.minimize_time, || {
                if params.minimize {
                    minimize::minimize(mined, params.parallelism)
                } else {
                    mined
                }
            });
            stats.relational_after_minimization = reduced.len();
            contracts.extend(reduced.into_iter().map(Contract::Relational));
        }
        stats.miner_times = MINERS
            .iter()
            .zip(enabled(params))
            .zip(times)
            .filter(|&((_, on), _)| on)
            .map(|((name, _), time)| (name.to_string(), time))
            .collect();
        stats.relational_time = times[RELATIONAL];
        stats.relational_merge_time = merge_time;
        stats.fanout_truncations = truncations;

        contracts.sort_by(|a, b| (a.category(), a.describe()).cmp(&(b.category(), b.describe())));
        contracts.dedup();
        (
            ContractSet {
                contracts,
                relational_before_minimization: stats.relational_before_minimization,
            },
            stats,
        )
    }
}

/// Folds `sketches` (one per config, *in config order*) and emits the
/// contract set: one [`Fold`] over all of them. The result is
/// byte-identical to `learn_with_stats(dataset, params)` whenever every
/// sketch was produced by [`sketch_config`] under the same params. The
/// stats time the fold and emit only; [`Fold::sketch`] adds the time
/// spent sketching.
pub fn finalize_sketches(
    dataset: &Dataset,
    sketches: &[&ConfigSketch],
    params: &LearnParams,
) -> (ContractSet, LearnStats) {
    let mut fold = Fold::new(dataset, params);
    fold.add(sketches);
    fold.finish()
}

/// A deterministic fingerprint of every [`LearnParams`] field that can
/// change sketch contents or their interpretation. `parallelism` is
/// deliberately excluded: learning is pinned byte-identical across
/// parallelism levels, so sketches are reusable across it.
pub fn sketch_params_fingerprint(params: &LearnParams) -> String {
    format!(
        "v{SKETCH_FORMAT_VERSION};support={};confidence={:016x};score_threshold={:016x};\
         present={};ordering={};type={};sequence={};unique={};relational={};range={};\
         constants={};minimize={};max_witnesses_per_instance={};max_affix_fanout={};\
         max_score_witnesses={}",
        params.support,
        params.confidence.to_bits(),
        params.score_threshold.to_bits(),
        params.enable_present,
        params.enable_ordering,
        params.enable_type,
        params.enable_sequence,
        params.enable_unique,
        params.enable_relational,
        params.enable_range,
        params.learn_constants,
        params.minimize,
        params.max_witnesses_per_instance,
        params.max_affix_fanout,
        params.max_score_witnesses,
    )
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` as a JSON string of 16 lowercase hex digits: the
/// fixed-width bit pattern a witness hash or diversity score is stored
/// as.
fn push_hex64(out: &mut String, v: u64) {
    out.push('"');
    for shift in (0..16).rev() {
        out.push(char::from(HEX[((v >> (4 * shift)) & 0xf) as usize]));
    }
    out.push('"');
}

/// Appends `v` in lowercase hex without leading zeros.
fn push_hex(out: &mut String, v: u32) {
    let digits = (u32::BITS - (v | 1).leading_zeros()).div_ceil(4);
    for shift in (0..digits).rev() {
        out.push(char::from(HEX[((v >> (4 * shift)) & 0xf) as usize]));
    }
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

fn parse_hex64(json: &Json) -> Option<u64> {
    u64::from_str_radix(json.as_str()?, 16).ok()
}

fn parse_hex_f64(json: &Json) -> Option<f64> {
    Some(f64::from_bits(parse_hex64(json)?))
}

/// Appends a relational node as `{"pattern":…,"param":…,"transform":…}`.
fn write_node(node: NodeKey, table: &PatternTable, out: &mut String) {
    out.push_str("{\"pattern\":");
    push_string(out, table.text(node.pattern));
    out.push_str(",\"param\":");
    push_number(out, f64::from(node.param));
    out.push_str(",\"transform\":");
    node.transform_tag.to_transform().to_json().render_into(out);
    out.push('}');
}

fn node_from_json(json: &Json, table: &PatternTable) -> Option<NodeKey> {
    let pattern = table.get(json.get("pattern")?.as_str()?)?;
    let param = u16::from_json(json.get("param")?).ok()?;
    let transform = Transform::from_json(json.get("transform")?).ok()?;
    Some(NodeKey {
        pattern,
        param,
        transform_tag: TransformTag::from_transform(&transform),
    })
}

/// Appends a relational run as a table of its distinct nodes, a table
/// of its distinct `(hash, score)` witnesses, and one
/// `[antecedent, relation, consequent, valid, witnesses]` entry per
/// candidate, where the nodes are indices into the node table and
/// `witnesses` is one string of space-separated hex indices into the
/// witness table, in list order. Both tables are in first-use order:
/// the witness table and references are written as the run stores them,
/// and its code-sorted node table is renumbered in first-use order.
fn write_relational(run: &relational::CompactRun, table: &PatternTable, out: &mut String) {
    let mut renumbered = vec![u32::MAX; run.nodes.len()];
    let mut first_use = Vec::new();
    for i in 0..run.len() {
        for index in [run.antecedents[i], run.consequents[i] >> 2] {
            let slot = &mut renumbered[index as usize];
            if *slot == u32::MAX {
                *slot = first_use.len() as u32;
                first_use.push(index);
            }
        }
    }
    out.push_str("{\"nodes\":");
    push_array(out, first_use, |out, index| {
        write_node(
            relational::decode_node(run.nodes[index as usize]),
            table,
            out,
        );
    });
    out.push_str(",\"witnesses\":");
    push_array(out, &run.witnesses, |out, &(hash, score)| {
        out.push('[');
        push_hex64(out, hash);
        out.push(',');
        push_hex64(out, score.to_bits());
        out.push(']');
    });
    out.push_str(",\"candidates\":");
    push_array(out, 0..run.len(), |out, i| {
        out.push('[');
        push_number(out, f64::from(renumbered[run.antecedents[i] as usize]));
        out.push(',');
        run.relation(i).to_json().render_into(out);
        out.push(',');
        push_number(
            out,
            f64::from(renumbered[(run.consequents[i] >> 2) as usize]),
        );
        out.push(',');
        push_number(out, f64::from(run.valid[i]));
        out.push_str(",\"");
        for (k, &r) in run.refs(i).iter().enumerate() {
            if k > 0 {
                out.push(' ');
            }
            push_hex(out, r);
        }
        out.push_str("\"]");
    });
    out.push('}');
}

/// Inverts [`write_relational`], re-encoding nodes under `table`'s
/// current ids. Ids may have been reassigned since the sketch was
/// written, so the nodes and candidates are re-sorted and the witness
/// table renumbered in first-use order under the current encoding.
/// `None` on any shape mismatch, out-of-range integer, index outside its
/// table, or repeated candidate.
fn relational_from_json(json: &Json, table: &PatternTable) -> Option<relational::CompactRun> {
    let nodes = json
        .get("nodes")?
        .as_array()?
        .iter()
        .map(|node| node_from_json(node, table))
        .collect::<Option<Vec<NodeKey>>>()?;
    let witnesses = json
        .get("witnesses")?
        .as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [hash, score] => Some((parse_hex64(hash)?, parse_hex_f64(score)?)),
            _ => None,
        })
        .collect::<Option<Vec<(u64, f64)>>>()?;
    let node_at = |j: &Json| nodes.get(usize::try_from(j.as_u64()?).ok()?).copied();
    let mut candidates = Vec::new();
    let mut refs: Vec<usize> = Vec::new();
    for entry in json.get("candidates")?.as_array()? {
        let [antecedent, relation, consequent, valid, witness_refs] = entry.as_array()? else {
            return None;
        };
        let code = relational::cand_code(
            relational::node_code(node_at(antecedent)?),
            relational::consequent_code(
                RelationKind::from_json(relation).ok()?,
                node_at(consequent)?,
            ),
        );
        let start = refs.len();
        for r in witness_refs.as_str()?.split_ascii_whitespace() {
            let r = usize::from_str_radix(r, 16).ok()?;
            if r >= witnesses.len() {
                return None;
            }
            refs.push(r);
        }
        candidates.push((code, u32::from_json(valid).ok()?, start..refs.len()));
    }
    candidates.sort_unstable_by_key(|&(code, _, _)| code);
    if candidates.windows(2).any(|pair| pair[0].0 == pair[1].0) {
        return None;
    }
    let mut packer = relational::Packer::new(candidates.iter().map(|c| c.0), refs.len());
    for (code, valid, range) in candidates {
        packer.push(code, valid, refs[range].iter().map(|&r| witnesses[r]));
    }
    Some(packer.finish())
}

impl ConfigSketch {
    /// The heap this sketch owns, in bytes, computed from the capacities
    /// of its buffers — exactly what the allocator holds for it.
    pub fn heap_bytes(&self) -> usize {
        let typing: usize = self
            .typing
            .groups
            .iter()
            .map(|(agnostic, holes)| {
                let counts: usize = holes
                    .iter()
                    .map(|counts| {
                        let custom: usize = counts
                            .iter()
                            .map(|(ty, _)| match ty {
                                ValueType::Custom(name) => name.capacity(),
                                _ => 0,
                            })
                            .sum();
                        buffer_bytes(counts) + custom
                    })
                    .sum();
                agnostic.capacity() + buffer_bytes(holes) + counts
            })
            .sum();
        let unique: usize = self
            .unique
            .entries
            .iter()
            .map(|(_, ps)| {
                let rendered: usize = ps.distinct.iter().map(|(r, _)| r.capacity()).sum();
                buffer_bytes(&ps.distinct) + rendered
            })
            .sum();
        let range: usize = self
            .range
            .entries
            .iter()
            .map(|(_, ps)| {
                let distinct: usize = ps.distinct.iter().map(BigNum::heap_bytes).sum();
                ps.min.heap_bytes() + ps.max.heap_bytes() + buffer_bytes(&ps.distinct) + distinct
            })
            .sum();
        let constants: usize = self.present.constants.iter().map(String::capacity).sum();
        buffer_bytes(&self.patterns)
            + buffer_bytes(&self.present.constants)
            + constants
            + buffer_bytes(&self.ordering.pairs)
            + buffer_bytes(&self.typing.groups)
            + typing
            + buffer_bytes(&self.sequence.entries)
            + buffer_bytes(&self.unique.entries)
            + unique
            + buffer_bytes(&self.range.entries)
            + range
            + self.relational.heap_bytes()
    }

    /// Appends the sketch's JSON to `out`, written against `table` (the
    /// table the sketch's pattern ids refer to). Patterns are stored as
    /// text so the sketch survives table rebuilds that reassign ids;
    /// [`ConfigSketch::from_json`] reads it back.
    pub fn write_json(&self, table: &PatternTable, out: &mut String) {
        let pattern = |out: &mut String, p: PatternId| push_string(out, table.text(p));
        out.push_str("{\"patterns\":");
        push_array(out, &self.patterns, |out, &p| pattern(out, p));
        out.push_str(",\"constants\":");
        push_array(out, &self.present.constants, |out, line| {
            push_string(out, line);
        });
        out.push_str(",\"ordering\":");
        push_array(out, &self.ordering.pairs, |out, &(p1, p2)| {
            out.push('[');
            pattern(out, p1);
            out.push(',');
            pattern(out, p2);
            out.push(']');
        });
        out.push_str(",\"typing\":");
        push_array(out, &self.typing.groups, |out, (agnostic, holes)| {
            out.push('[');
            push_string(out, agnostic);
            out.push(',');
            push_array(out, holes, |out, counts| {
                push_array(out, counts, |out, (ty, count)| {
                    out.push('[');
                    ty.to_json().render_into(out);
                    out.push(',');
                    push_number(out, *count as f64);
                    out.push(']');
                });
            });
            out.push(']');
        });
        out.push_str(",\"sequence\":");
        push_array(
            out,
            &self.sequence.entries,
            |out, &(p, param, sequential)| {
                out.push('[');
                pattern(out, p);
                out.push(',');
                push_number(out, f64::from(param));
                out.push(',');
                push_bool(out, sequential);
                out.push(']');
            },
        );
        out.push_str(",\"unique\":");
        push_array(out, &self.unique.entries, |out, &((p, param), ref ps)| {
            out.push('[');
            pattern(out, p);
            out.push(',');
            push_number(out, f64::from(param));
            out.push_str(",{\"distinct\":");
            push_array(out, &ps.distinct, |out, (rendered, score)| {
                out.push('[');
                push_string(out, rendered);
                out.push(',');
                push_hex64(out, score.to_bits());
                out.push(']');
            });
            out.push_str(",\"instances\":");
            push_number(out, ps.instances as f64);
            out.push_str(",\"intra_dup\":");
            push_bool(out, ps.intra_dup);
            out.push_str(",\"multi\":");
            push_bool(out, ps.multi);
            out.push_str("}]");
        });
        out.push_str(",\"range\":");
        push_array(out, &self.range.entries, |out, &((p, param), ref ps)| {
            out.push('[');
            pattern(out, p);
            out.push(',');
            push_number(out, f64::from(param));
            out.push_str(",{\"min\":");
            ps.min.to_json().render_into(out);
            out.push_str(",\"max\":");
            ps.max.to_json().render_into(out);
            out.push_str(",\"instances\":");
            push_number(out, ps.instances as f64);
            out.push_str(",\"distinct\":");
            push_array(out, &ps.distinct, |out, value| {
                value.to_json().render_into(out);
            });
            out.push_str("}]");
        });
        out.push_str(",\"relational\":");
        write_relational(&self.relational, table, out);
        out.push_str(",\"truncations\":");
        push_number(out, self.relational_truncations as f64);
        out.push('}');
    }

    /// Decodes a sketch against `table`, re-encoding pattern texts into
    /// the table's current ids. Returns `None` on any shape mismatch, an
    /// integer outside its field's type, an index outside its table, or
    /// when a referenced pattern is no longer interned — callers treat
    /// that as "no sketch" and re-mine the config.
    pub fn from_json(json: &Json, table: &PatternTable) -> Option<ConfigSketch> {
        let pattern_of = |j: &Json| -> Option<PatternId> { table.get(j.as_str()?) };

        let mut patterns = Vec::new();
        for entry in json.get("patterns")?.as_array()? {
            patterns.push(pattern_of(entry)?);
        }
        let mut constants = Vec::new();
        for entry in json.get("constants")?.as_array()? {
            constants.push(entry.as_str()?.to_string());
        }
        let mut pairs = Vec::new();
        for entry in json.get("ordering")?.as_array()? {
            let [p1, p2] = entry.as_array()? else {
                return None;
            };
            pairs.push((pattern_of(p1)?, pattern_of(p2)?));
        }
        let mut groups = Vec::new();
        for entry in json.get("typing")?.as_array()? {
            let [agnostic, holes] = entry.as_array()? else {
                return None;
            };
            let mut hole_counts = Vec::new();
            for hole in holes.as_array()? {
                let mut counts = Vec::new();
                for pair in hole.as_array()? {
                    let [ty, count] = pair.as_array()? else {
                        return None;
                    };
                    counts.push((ValueType::from_json(ty).ok()?, count.as_u64()?));
                }
                hole_counts.push(counts);
            }
            groups.push((agnostic.as_str()?.to_string(), hole_counts));
        }
        let mut sequence_entries = Vec::new();
        for entry in json.get("sequence")?.as_array()? {
            let [pattern, param, sequential] = entry.as_array()? else {
                return None;
            };
            sequence_entries.push((
                pattern_of(pattern)?,
                u16::from_json(param).ok()?,
                sequential.as_bool()?,
            ));
        }
        let mut unique_entries = Vec::new();
        for entry in json.get("unique")?.as_array()? {
            let [pattern, param, body] = entry.as_array()? else {
                return None;
            };
            let mut distinct = Vec::new();
            for pair in body.get("distinct")?.as_array()? {
                let [rendered, score] = pair.as_array()? else {
                    return None;
                };
                distinct.push((rendered.as_str()?.to_string(), parse_hex_f64(score)?));
            }
            unique_entries.push((
                (pattern_of(pattern)?, u16::from_json(param).ok()?),
                unique::ParamSketch {
                    distinct,
                    instances: body.get("instances")?.as_u64()?,
                    intra_dup: body.get("intra_dup")?.as_bool()?,
                    multi: body.get("multi")?.as_bool()?,
                },
            ));
        }
        let mut range_entries = Vec::new();
        for entry in json.get("range")?.as_array()? {
            let [pattern, param, body] = entry.as_array()? else {
                return None;
            };
            let mut distinct = Vec::new();
            for value in body.get("distinct")?.as_array()? {
                distinct.push(BigNum::from_json(value).ok()?);
            }
            range_entries.push((
                (pattern_of(pattern)?, u16::from_json(param).ok()?),
                range::ParamSketch {
                    min: BigNum::from_json(body.get("min")?).ok()?,
                    max: BigNum::from_json(body.get("max")?).ok()?,
                    instances: body.get("instances")?.as_u64()?,
                    distinct,
                },
            ));
        }
        Some(ConfigSketch {
            patterns,
            present: present::Sketch { constants },
            ordering: ordering::Sketch { pairs },
            typing: typing::Sketch { groups },
            sequence: sequence::Sketch {
                entries: sequence_entries,
            },
            unique: unique::Sketch {
                entries: unique_entries,
            },
            range: range::Sketch {
                entries: range_entries,
            },
            relational: relational_from_json(json.get("relational")?, table)?,
            relational_truncations: json.get("truncations")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_with_stats;

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    fn rich_texts() -> Vec<String> {
        (0..9)
            .map(|i| {
                format!(
                    "hostname DEV{i}\ninterface Loopback0\n ip address 10.14.14.{i}\n\
                     ip prefix-list lo\n seq 10 permit 10.14.14.{i}/32\n\
                     vlan {}\n rd 10.0.0.1:10{}\nvni {}\nmtu {}\n",
                    250 + i,
                    250 + i,
                    250 + i,
                    if i % 2 == 0 { 1500 } else { 9214 },
                )
            })
            .collect()
    }

    #[test]
    fn finalize_sketches_matches_full_learn() {
        let ds = dataset(&rich_texts());
        for (learn_constants, enable_range) in [(false, false), (true, true)] {
            let params = LearnParams {
                learn_constants,
                enable_range,
                ..LearnParams::default()
            };
            let sketches: Vec<ConfigSketch> = (0..ds.configs.len())
                .map(|ci| sketch_config(&ds, ci, &params))
                .collect();
            let refs: Vec<&ConfigSketch> = sketches.iter().collect();
            let (delta, delta_stats) = finalize_sketches(&ds, &refs, &params);
            let (full, full_stats) = learn_with_stats(&ds, &params);
            assert_eq!(delta.contracts, full.contracts);
            assert_eq!(
                delta.relational_before_minimization,
                full.relational_before_minimization
            );
            assert_eq!(
                delta_stats.fanout_truncations,
                full_stats.fanout_truncations
            );
            assert!(!delta.is_empty());
        }
    }

    #[test]
    fn sketch_round_trips_through_json() {
        let ds = dataset(&rich_texts());
        let params = LearnParams {
            learn_constants: true,
            enable_range: true,
            ..LearnParams::default()
        };
        for ci in 0..ds.configs.len() {
            let sketch = sketch_config(&ds, ci, &params);
            let mut rendered = String::new();
            sketch.write_json(&ds.table, &mut rendered);
            let reparsed = Json::parse(&rendered).unwrap();
            let decoded = ConfigSketch::from_json(&reparsed, &ds.table).unwrap();
            assert_eq!(sketch, decoded, "sketch {ci} did not round-trip");
        }
    }

    /// The sketch's JSON, parsed back into a value to edit.
    fn sketch_json(sketch: &ConfigSketch, table: &PatternTable) -> Json {
        let mut rendered = String::new();
        sketch.write_json(table, &mut rendered);
        Json::parse(&rendered).expect("sketch JSON parses")
    }

    #[test]
    fn from_json_rejects_unknown_patterns() {
        let ds = dataset(&rich_texts());
        let params = LearnParams::default();
        let sketch = sketch_config(&ds, 0, &params);
        let json = sketch_json(&sketch, &ds.table);
        // Decode against a table that lacks the patterns.
        let other = dataset(&["completely different\n".to_string()]);
        assert!(ConfigSketch::from_json(&json, &other.table).is_none());
    }

    /// The value under `key` of a JSON object.
    fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Object(pairs) = json else {
            panic!("not an object: {json}")
        };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    fn items(json: &mut Json) -> &mut Vec<Json> {
        let Json::Array(items) = json else {
            panic!("not an array: {json}")
        };
        items
    }

    /// A sketch with non-empty sequence, unique, range and relational
    /// sections, and its JSON.
    fn full_sketch() -> (Dataset, ConfigSketch, Json) {
        let texts: Vec<String> = rich_texts()
            .into_iter()
            .map(|text| format!("{text}vlan 900\n"))
            .collect();
        let ds = dataset(&texts);
        let params = LearnParams {
            learn_constants: true,
            enable_range: true,
            ..LearnParams::default()
        };
        let sketch = sketch_config(&ds, 0, &params);
        assert!(!sketch.sequence.entries.is_empty());
        assert!(!sketch.unique.entries.is_empty());
        assert!(!sketch.range.entries.is_empty());
        assert!((0..sketch.relational.len()).any(|i| !sketch.relational.refs(i).is_empty()));
        let json = sketch_json(&sketch, &ds.table);
        (ds, sketch, json)
    }

    #[test]
    fn from_json_rejects_params_beyond_u16() {
        let (ds, sketch, json) = full_sketch();
        assert_eq!(ConfigSketch::from_json(&json, &ds.table), Some(sketch));
        // Raised by 2^16, every param would decode to itself if it were
        // truncated to 16 bits.
        for section in ["sequence", "unique", "range"] {
            let mut raised = json.clone();
            for entry in items(field(&mut raised, section)) {
                let param = &mut items(entry)[1];
                *param = (param.as_u64().expect("param") + 65_536).to_json();
            }
            assert!(
                ConfigSketch::from_json(&raised, &ds.table).is_none(),
                "{section}"
            );
        }
    }

    #[test]
    fn from_json_rejects_out_of_range_relational_entries() {
        let (ds, _, json) = full_sketch();
        let decodes = |edit: &dyn Fn(&mut Json)| {
            let mut edited = json.clone();
            edit(field(&mut edited, "relational"));
            ConfigSketch::from_json(&edited, &ds.table).is_some()
        };
        // A node index one past the node table.
        assert!(!decodes(&|relational| {
            let nodes = items(field(relational, "nodes")).len();
            items(&mut items(field(relational, "candidates"))[0])[0] = nodes.to_json();
        }));
        // A witness index one past the witness table.
        assert!(!decodes(&|relational| {
            let witnesses = items(field(relational, "witnesses")).len();
            items(&mut items(field(relational, "candidates"))[0])[4] =
                Json::Str(format!("0 {witnesses:x}"));
        }));
        // A node param and a valid count beyond their integer types.
        assert!(!decodes(&|relational| {
            *field(&mut items(field(relational, "nodes"))[0], "param") = 65_536u64.to_json();
        }));
        assert!(!decodes(&|relational| {
            items(&mut items(field(relational, "candidates"))[0])[3] = (1u64 << 32).to_json();
        }));
        // A candidate listed twice.
        assert!(!decodes(&|relational| {
            let candidates = items(field(relational, "candidates"));
            candidates.push(candidates[0].clone());
        }));
    }

    #[test]
    fn relational_section_indexes_distinct_nodes_and_witnesses() {
        let (_, sketch, json) = full_sketch();
        let relational = &json["relational"];
        let count = |key: &str| relational[key].as_array().expect(key).len();
        assert_eq!(count("candidates"), sketch.relational.len());
        let run = &sketch.relational;
        let mut witnesses: Vec<(u64, u64)> = (0..run.len())
            .flat_map(|i| run.witnesses_of(i).map(|(h, s)| (h, s.to_bits())))
            .collect();
        witnesses.sort_unstable();
        witnesses.dedup();
        assert_eq!(count("witnesses"), witnesses.len());
        let mut nodes: Vec<NodeKey> = (0..run.len())
            .flat_map(|i| {
                let key = relational::decode_cand(run.code(i));
                [key.antecedent, key.consequent]
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(count("nodes"), nodes.len());
    }

    #[test]
    fn fingerprint_tracks_semantic_params_only() {
        let base = LearnParams::default();
        let mut parallel = base.clone();
        parallel.parallelism = 8;
        assert_eq!(
            sketch_params_fingerprint(&base),
            sketch_params_fingerprint(&parallel)
        );
        let mut support = base.clone();
        support.support = 7;
        assert_ne!(
            sketch_params_fingerprint(&base),
            sketch_params_fingerprint(&support)
        );
    }
}
