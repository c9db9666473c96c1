//! Relational-contract mining (§3.5).
//!
//! For every pair of patterns `p1`, `p2`, parameter positions, and
//! transformations, the candidate contract
//!
//! ```text
//! forall l1 ~ p1, exists l2 ~ p2 such that F(t1(l1.x), t2(l2.y))
//! ```
//!
//! is *never enumerated directly*. Instead each configuration is indexed
//! once ([`super::indexes::ValueIndex`]) and each antecedent value queries
//! only the entries it actually relates to, so candidates materialize
//! exactly when witnessed. Per-candidate accounting then applies the
//! support/confidence bars and the informativeness/diversity score filter.

use concord_types::score::value_score;
use concord_types::Transform;

use crate::contract::{PatternRef, RelationKind, RelationalContract};
use crate::fxhash::{fx_hash_one, FxHashMap, FxHashSet};
use crate::learn::buffer_bytes;
use crate::learn::indexes::{Entry, NodeKey, TransformTag, ValueIndex};
use crate::params::LearnParams;

/// A candidate relational contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CandKey {
    pub antecedent: NodeKey,
    pub relation: RelationKind,
    pub consequent: NodeKey,
}

/// Per-candidate accumulation: valid-config count plus the first
/// [`LearnParams::max_score_witnesses`] distinct witnesses in config
/// order. The floating-point diversity score is summed over the list in
/// that order at finalization, so the fold must visit configs in config
/// order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Partial {
    pub(crate) valid: u32,
    pub(crate) witnesses: Vec<(u64, f64)>,
    /// Hash-membership mirror of `witnesses`, materialized lazily once
    /// the list outgrows [`SEEN_THRESHOLD`]: most candidates hold a
    /// handful of witnesses and a linear dedup scan is faster than any
    /// set, but a list approaching the witness cap would make the scan
    /// quadratic per candidate across the fold.
    pub(crate) seen: Option<Box<crate::fxhash::FxHashSet<u64>>>,
}

/// Witness-list length at which [`Partial::seen`] is materialized.
const SEEN_THRESHOLD: usize = 32;

/// Candidate → partial accumulation, the relational fold's global
/// state: a run sorted by packed [`cand_code`]. Folding a config's
/// code-sorted [`CompactRun`] into it is a linear two-pointer join with
/// no per-entry hashing, and the full [`CandKey`] is only reconstructed
/// once per surviving candidate at finalization.
pub(crate) type PartialRun = Vec<(u128, Partial)>;

/// One configuration's relational run in the layout a sketch holds it
/// in: its candidates, valid counts and witness lists in seven
/// allocations instead of one per candidate. A config's candidates
/// share a few dozen nodes and witnesses, so each is stored once in a
/// table and the per-candidate parallel arrays refer to it by index.
///
/// Invariants: `nodes` is sorted and distinct, so candidate order by
/// `(antecedents[i], consequents[i])` is [`cand_code`] order, and the
/// candidates are stored in that order with distinct codes; `witnesses`
/// is distinct by `(hash, score bits)` and in first-use order over the
/// candidates' lists; `ends` is non-decreasing and its last entry is
/// `refs.len()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CompactRun {
    /// Distinct [`node_code`]s the candidates refer to, ascending.
    pub(crate) nodes: Vec<u64>,
    /// Distinct `(hash, score)` witnesses, in first-use order.
    pub(crate) witnesses: Vec<(u64, f64)>,
    /// Per candidate: the antecedent's index into `nodes`.
    pub(crate) antecedents: Vec<u32>,
    /// Per candidate: the consequent's index into `nodes`, shifted left
    /// two bits over the [`RelationKind`] discriminant.
    pub(crate) consequents: Vec<u32>,
    /// Per candidate: the valid-config count.
    pub(crate) valid: Vec<u32>,
    /// Per candidate: the end offset of its witness list in `refs`.
    pub(crate) ends: Vec<u32>,
    /// Every candidate's witness list, in candidate order, as indices
    /// into `witnesses`.
    pub(crate) refs: Vec<u32>,
}

impl CompactRun {
    /// Number of candidates.
    pub(crate) fn len(&self) -> usize {
        self.valid.len()
    }

    /// Candidate `i`'s relation.
    pub(crate) fn relation(&self, i: usize) -> RelationKind {
        decode_relation(u64::from(self.consequents[i]))
    }

    /// Candidate `i`'s packed [`cand_code`].
    pub(crate) fn code(&self, i: usize) -> u128 {
        let consequent = self.consequents[i];
        cand_code(
            self.nodes[self.antecedents[i] as usize],
            (self.nodes[(consequent >> 2) as usize] << 2) | u64::from(consequent & 0b11),
        )
    }

    /// Candidate `i`'s witness list as indices into `witnesses`.
    pub(crate) fn refs(&self, i: usize) -> &[u32] {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.refs[start..self.ends[i] as usize]
    }

    /// Candidate `i`'s witness list.
    pub(crate) fn witnesses_of(&self, i: usize) -> impl ExactSizeIterator<Item = (u64, f64)> + '_ {
        self.refs(i).iter().map(|&r| self.witnesses[r as usize])
    }

    /// Heap bytes held by the run's buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        buffer_bytes(&self.nodes)
            + buffer_bytes(&self.witnesses)
            + buffer_bytes(&self.antecedents)
            + buffer_bytes(&self.consequents)
            + buffer_bytes(&self.valid)
            + buffer_bytes(&self.ends)
            + buffer_bytes(&self.refs)
    }
}

/// Builds a [`CompactRun`] from candidates pushed in ascending code
/// order, interning each witness on first use.
pub(crate) struct Packer {
    run: CompactRun,
    witness_ids: FxHashMap<(u64, u64), u32>,
}

impl Packer {
    /// A packer for the candidates whose codes `codes` yields, ascending;
    /// `refs` is the total length of their witness lists.
    pub(crate) fn new(codes: impl IntoIterator<Item = u128>, refs: usize) -> Packer {
        let mut nodes = Vec::new();
        for code in codes {
            let (antecedent, ccode) = split_cand(code);
            nodes.push(antecedent);
            nodes.push(ccode >> 2);
        }
        let candidates = nodes.len() / 2;
        nodes.sort_unstable();
        nodes.dedup();
        nodes.shrink_to_fit();
        assert!(nodes.len() < 1 << 30, "node index overflows its 30 bits");
        Packer {
            run: CompactRun {
                nodes,
                witnesses: Vec::new(),
                antecedents: Vec::with_capacity(candidates),
                consequents: Vec::with_capacity(candidates),
                valid: Vec::with_capacity(candidates),
                ends: Vec::with_capacity(candidates),
                refs: Vec::with_capacity(refs),
            },
            witness_ids: FxHashMap::default(),
        }
    }

    fn node_index(&self, node: u64) -> u32 {
        self.run
            .nodes
            .binary_search(&node)
            .expect("every candidate's nodes are in the table") as u32
    }

    /// Appends the candidate `code`, which must be greater than every
    /// code pushed before it.
    pub(crate) fn push(
        &mut self,
        code: u128,
        valid: u32,
        witnesses: impl IntoIterator<Item = (u64, f64)>,
    ) {
        let (antecedent, ccode) = split_cand(code);
        let antecedent = self.node_index(antecedent);
        let consequent = self.node_index(ccode >> 2);
        self.run.antecedents.push(antecedent);
        self.run
            .consequents
            .push((consequent << 2) | (ccode & 0b11) as u32);
        self.run.valid.push(valid);
        let table = &mut self.run.witnesses;
        for (hash, score) in witnesses {
            let next = u32::try_from(table.len()).expect("witness table overflows u32");
            let id = *self
                .witness_ids
                .entry((hash, score.to_bits()))
                .or_insert_with(|| {
                    table.push((hash, score));
                    next
                });
            self.run.refs.push(id);
        }
        let end = u32::try_from(self.run.refs.len()).expect("witness pool overflows u32");
        self.run.ends.push(end);
    }

    /// The packed run.
    pub(crate) fn finish(mut self) -> CompactRun {
        self.run.witnesses.shrink_to_fit();
        self.run.refs.shrink_to_fit();
        self.run
    }
}

/// Merges `leaf`, a later config's run, into the key-sorted run `left`
/// by reference, without materializing the leaf. Distinct candidates
/// pass through; a candidate in both adds the leaf's valid count and
/// appends the leaf's witnesses not already listed, up to `cap`. Only
/// candidates new to `left` get a witness list of their own.
pub(crate) fn merge_compact(left: PartialRun, leaf: &CompactRun, cap: usize) -> PartialRun {
    let mut out: PartialRun = Vec::with_capacity(left.len().max(leaf.len()));
    let mut l = left.into_iter().peekable();
    for i in 0..leaf.len() {
        let code = leaf.code(i);
        while let Some(held) = l.next_if(|(c, _)| *c < code) {
            out.push(held);
        }
        let partial = match l.next_if(|(c, _)| *c == code) {
            Some((_, held)) => merge_one(held, leaf.valid[i], leaf.witnesses_of(i), cap),
            None => Partial {
                valid: leaf.valid[i],
                witnesses: leaf.witnesses_of(i).collect(),
                seen: None,
            },
        };
        out.push((code, partial));
    }
    out.extend(l);
    out
}

/// Combines one candidate's accumulations; `held` precedes the incoming
/// `valid` count and witness list in config order.
fn merge_one(
    mut held: Partial,
    valid: u32,
    witnesses: impl IntoIterator<Item = (u64, f64)>,
    cap: usize,
) -> Partial {
    held.valid += valid;
    for (hash, score) in witnesses {
        if held.witnesses.len() >= cap {
            break;
        }
        let duplicate = match &held.seen {
            Some(set) => set.contains(&hash),
            None => held.witnesses.iter().any(|&(h, _)| h == hash),
        };
        if !duplicate {
            held.witnesses.push((hash, score));
            match &mut held.seen {
                Some(set) => {
                    set.insert(hash);
                }
                None if held.witnesses.len() >= SEEN_THRESHOLD => {
                    held.seen = Some(Box::new(held.witnesses.iter().map(|&(h, _)| h).collect()));
                }
                None => {}
            }
        }
    }
    held
}

/// Applies the support/confidence/score bars and renders contracts.
///
/// The diversity score is summed over each witness list in its stable
/// (config-order) sequence, reproducing the reference fold's running sum
/// bit-for-bit.
pub(crate) fn finalize(
    global: PartialRun,
    dataset: &crate::ir::Dataset,
    config_count: &[u32],
    params: &LearnParams,
) -> Vec<RelationalContract> {
    let scored = global.into_iter().map(|(code, stats)| {
        let score: f64 = stats.witnesses.iter().map(|&(_, s)| s).sum();
        (decode_cand(code), stats.valid, score)
    });
    finalize_scored(scored, dataset, config_count, params)
}

/// The shared tail of finalization: support/confidence/score bars, the
/// injective-transform subsumption filter, and the deterministic sort.
pub(crate) fn finalize_scored(
    scored: impl IntoIterator<Item = (CandKey, u32, f64)>,
    dataset: &crate::ir::Dataset,
    config_count: &[u32],
    params: &LearnParams,
) -> Vec<RelationalContract> {
    let mut out = Vec::new();
    for (key, valid, score) in scored {
        let support = config_count[key.antecedent.pattern.0 as usize] as usize;
        if (config_count[key.consequent.pattern.0 as usize] as usize) < params.support {
            continue;
        }
        if !params.accept(valid as usize, support) {
            continue;
        }
        if score < params.score_threshold {
            continue;
        }
        out.push(RelationalContract {
            antecedent: PatternRef {
                pattern: dataset.table.text(key.antecedent.pattern).to_string(),
                param: key.antecedent.param,
                transform: key.antecedent.transform_tag.to_transform(),
            },
            consequent: PatternRef {
                pattern: dataset.table.text(key.consequent.pattern).to_string(),
                param: key.consequent.param,
                transform: key.consequent.transform_tag.to_transform(),
            },
            relation: key.relation,
        });
    }
    // Drop equality contracts whose two sides apply the same *injective*
    // rendering transform: `equals(hex(l1.a), hex(l2.b))` holds exactly
    // when `equals(l1.a, l2.b)` does (hex is a bijection on numbers), so
    // the identity form subsumes it. `str` is injective per value type
    // but can bridge types (an address equals a string render), so it is
    // only dropped when its identity twin was also learned.
    let id_pairs: FxHashSet<(String, u16, String, u16)> = out
        .iter()
        .filter(|c| {
            c.relation == RelationKind::Equals
                && c.antecedent.transform == Transform::Id
                && c.consequent.transform == Transform::Id
        })
        .map(|c| {
            (
                c.antecedent.pattern.clone(),
                c.antecedent.param,
                c.consequent.pattern.clone(),
                c.consequent.param,
            )
        })
        .collect();
    out.retain(|c| {
        if c.relation != RelationKind::Equals || c.antecedent.transform != c.consequent.transform {
            return true;
        }
        match c.antecedent.transform {
            Transform::Hex => false,
            Transform::Str => !id_pairs.contains(&(
                c.antecedent.pattern.clone(),
                c.antecedent.param,
                c.consequent.pattern.clone(),
                c.consequent.param,
            )),
            _ => true,
        }
    });

    // The candidate map iterates in arbitrary order; sort so downstream
    // minimization (which picks representative contracts) and the final
    // contract set are deterministic across runs and parallelism levels.
    out.sort();
    out
}

/// A kept witness in [`Mined::pool`], linked to the next witness of the
/// same candidate.
struct Linked {
    hash: u64,
    score: f64,
    next: u32,
}

/// One mined candidate: its code, its instance count (its valid bit once
/// mining ends), and its witness chain in [`Mined::pool`].
struct MinedCand {
    code: u128,
    count: u32,
    kept: u32,
    head: u32,
    tail: u32,
}

/// End of a witness chain.
const NIL: u32 = u32::MAX;

/// The witnesses chained through `pool` from `head`.
fn chain(pool: &[Linked], head: u32) -> impl Iterator<Item = &Linked> {
    let mut at = head;
    std::iter::from_fn(move || {
        let link = pool.get(at as usize)?;
        at = link.next;
        Some(link)
    })
}

/// One configuration's mined candidates in code order, each with its
/// witness list chained through one shared pool, so mining allocates
/// nothing per candidate; [`Mined::to_compact`] packs it into a
/// sketch's [`CompactRun`].
pub(crate) struct Mined {
    cands: Vec<MinedCand>,
    pool: Vec<Linked>,
    /// Witness records dropped by the pathological fan-out guard.
    pub(crate) truncations: u64,
}

impl Mined {
    fn witnesses(&self, cand: &MinedCand) -> impl Iterator<Item = (u64, f64)> + '_ {
        chain(&self.pool, cand.head).map(|link| (link.hash, link.score))
    }

    /// The run in a sketch's form.
    pub(crate) fn to_compact(&self) -> CompactRun {
        let mut packer = Packer::new(self.cands.iter().map(|c| c.code), self.pool.len());
        for cand in &self.cands {
            packer.push(cand.code, cand.count, self.witnesses(cand));
        }
        packer.finish()
    }
}

/// Builds the per-configuration index and runs the query pass. Only the
/// configuration itself is consulted — no cross-config state — which is
/// what makes the result a per-config *sketch* the incremental engine
/// can persist and re-merge.
pub(crate) fn mine_config(dataset: &crate::ir::Dataset, ci: usize, params: &LearnParams) -> Mined {
    let config = &dataset.configs[ci];
    let mut index = ValueIndex::new(params.max_affix_fanout);
    let mut node_instances: FxHashMap<u64, u32> = FxHashMap::default();

    let mut transforms: Vec<Transform> = Vec::new();
    for line in config.lines(&dataset.arenas) {
        for (pi, param) in line.params.iter().enumerate() {
            let base_score = value_score(&param.value);
            Transform::enumerate_into(&param.value, &mut transforms);
            for transform in &transforms {
                let Some(value) = transform.apply(&param.value) else {
                    continue;
                };
                let node = NodeKey {
                    pattern: line.pattern,
                    param: pi as u16,
                    transform_tag: TransformTag::from_transform(transform),
                };
                *node_instances.entry(node_code(node)).or_insert(0) += 1;
                index.insert(Entry {
                    node,
                    value,
                    score: base_score * transform.score_discount(),
                });
            }
        }
    }

    // Group entries by (node, value). Entries sharing both produce an
    // identical query pass — same witnesses, same score, same fingerprint
    // — so a value repeated across a config's blocks (a constant mask on
    // every interface, say) would re-run it once per occurrence for zero
    // new information. One representative entry per group runs the
    // queries and the per-instance counters scale by the group's
    // multiplicity; groups are visited in first-occurrence entry order,
    // so the deduplicated witness stream is unchanged.
    let mut group_of: FxHashMap<(NodeKey, &concord_types::Value), u32> = FxHashMap::default();
    group_of.reserve(index.entries.len());
    let mut reps: Vec<(usize, u32)> = Vec::new();
    for (a_idx, entry) in index.entries.iter().enumerate() {
        match group_of.entry((entry.node, &entry.value)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                reps[*slot.get() as usize].1 += 1;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(reps.len() as u32);
                reps.push((a_idx, 1));
            }
        }
    }

    // Candidate accumulation, already in mergeable form: instance count
    // plus the first `max_score_witnesses` distinct witnesses in rep
    // (= entry) order, chained through one pool. A candidate's witnesses
    // all come from earlier reps of its antecedent node, each with a
    // distinct value, so a rep's hash can already be on the chain only
    // if it collides with an earlier rep of the same node; the chain is
    // scanned only then.
    let mut slot_of: FxHashMap<u128, u32> = FxHashMap::default();
    let mut cands: Vec<MinedCand> = Vec::new();
    let mut pool: Vec<Linked> = Vec::new();
    let mut rep_hashes: FxHashSet<(u64, u64)> = FxHashSet::default();
    let mut scratch: Vec<u32> = Vec::new();
    // Per-rep dedup keyed by the packed (relation, consequent) code — the
    // antecedent is fixed within a rep, so the 61-bit code identifies the
    // candidate. A rep satisfies ~10 candidates in practice, so a
    // linear-scanned list beats a hash map: no hashing on insert, and the
    // flush below walks it contiguously. The fan-out guard bounds the
    // scan at `fanout_cap` entries even on pathological values.
    let mut satisfied: Vec<(u64, f64)> = Vec::new();
    let mut truncations = 0u64;
    let fanout_cap = params.max_witnesses_per_instance * 8;
    // Query results depend only on the probed *value* — never on the
    // probing node — and EDGE/WAN-style fleets repeat each value across
    // several nodes (~3-4 reps per distinct value in practice). Cache
    // each value's witnesses so trie walks run once per value, and
    // pre-merge them by packed (relation, consequent) code with the max
    // consequent score: `min(a, max_c) == max_c min(a, c)`, so a rep
    // recovers its exact per-candidate score from the merged entry, and
    // the merged codes are unique, so the per-rep satisfied list needs
    // no dedup scan. The one behavior the merged form cannot replay is
    // the fan-out guard (it drops raw witnesses in scan order once the
    // satisfied list hits the cap), so a value whose merged fan-out
    // could trip it falls back to replaying the raw lists. Reps are
    // still visited in first-occurrence order, so the witness stream
    // (and hence every downstream byte) is unchanged.
    enum CachedQueries {
        /// Distinct (relation, consequent) codes with max consequent
        /// score; proven unable to trip the fan-out guard.
        Merged(Vec<(u64, f64)>),
        /// Raw per-structure witness lists, replayed with the guard.
        Raw(Vec<(RelationKind, Vec<u32>)>),
    }
    let mut query_cache: FxHashMap<&concord_types::Value, u32> = FxHashMap::default();
    let mut cached_queries: Vec<CachedQueries> = Vec::new();

    for &(a_idx, mult) in &reps {
        satisfied.clear();
        let a = &index.entries[a_idx];
        let a_node = a.node;
        let a_code = node_code(a_node);
        let a_score = a.score;

        // Ask every registered relation structure for this value's
        // witnesses (§3.5; structures are pluggable via the
        // `RelationStructure` trait) — through the by-value cache.
        let qi = match query_cache.entry(&a.value) {
            std::collections::hash_map::Entry::Occupied(slot) => *slot.get(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut lists = Vec::new();
                for structure in &index.structures {
                    scratch.clear();
                    if structure.query(&a.value, &mut scratch) && !scratch.is_empty() {
                        lists.push((structure.relation(), scratch.clone()));
                    }
                }
                let mut merged: Vec<(u64, f64)> = Vec::new();
                for (relation, list) in &lists {
                    for &c_idx in list {
                        let c = &index.entries[c_idx as usize];
                        let code = consequent_code(*relation, c.node);
                        match merged.iter_mut().find(|(k, _)| *k == code) {
                            Some((_, best)) => *best = best.max(c.score),
                            None => merged.push((code, c.score)),
                        }
                    }
                }
                // With fewer than `fanout_cap` distinct codes the
                // satisfied list can never reach the cap mid-scan, so
                // the guard provably never fires for ANY rep of this
                // value and the merged form is exact.
                let qi = cached_queries.len() as u32;
                cached_queries.push(if merged.len() < fanout_cap {
                    CachedQueries::Merged(merged)
                } else {
                    CachedQueries::Raw(lists)
                });
                slot.insert(qi);
                qi
            }
        };
        match &cached_queries[qi as usize] {
            CachedQueries::Merged(merged) => {
                for &(ccode, cscore) in merged {
                    // `ccode >> 2` recovers the consequent's node code;
                    // node_code is injective, so this is the same-node
                    // skip without touching `entries`.
                    if ccode >> 2 == a_code {
                        continue;
                    }
                    satisfied.push((ccode, a_score.min(cscore)));
                }
            }
            CachedQueries::Raw(lists) => {
                for (relation, list) in lists {
                    for &c_idx in list {
                        let c = &index.entries[c_idx as usize];
                        if a_node == c.node {
                            continue;
                        }
                        if satisfied.len() >= fanout_cap {
                            // Pathological fan-out guard; candidates
                            // beyond this are noise — but the drop is
                            // counted, not silent (LearnStats surfaces
                            // it).
                            truncations += u64::from(mult);
                            continue;
                        }
                        let code = consequent_code(*relation, c.node);
                        let score = a_score.min(c.score);
                        match satisfied.iter_mut().find(|(k, _)| *k == code) {
                            Some((_, best)) => *best = best.max(score),
                            None => satisfied.push((code, score)),
                        }
                    }
                }
            }
        }

        let a_hash = fx_hash_one(&a.value);
        let collided = !rep_hashes.insert((a_code, a_hash));
        for &(ccode, score) in &satisfied {
            let code = cand_code(a_code, ccode);
            let slot = *slot_of.entry(code).or_insert_with(|| {
                cands.push(MinedCand {
                    code,
                    count: 0,
                    kept: 0,
                    head: NIL,
                    tail: NIL,
                });
                u32::try_from(cands.len() - 1).expect("candidate count overflows u32")
            });
            let cand = &mut cands[slot as usize];
            cand.count += mult;
            if (cand.kept as usize) >= params.max_score_witnesses {
                continue;
            }
            if collided && chain(&pool, cand.head).any(|link| link.hash == a_hash) {
                continue;
            }
            let at = u32::try_from(pool.len()).expect("witness pool overflows u32");
            pool.push(Linked {
                hash: a_hash,
                score,
                next: NIL,
            });
            match cand.tail {
                NIL => cand.head = at,
                tail => pool[tail as usize].next = at,
            }
            cand.tail = at;
            cand.kept += 1;
        }
    }

    // Resolve each candidate's valid bit (every antecedent instance in
    // this config satisfied); the witness lists are already deduplicated
    // and capped.
    for cand in &mut cands {
        let (antecedent, _) = split_cand(cand.code);
        let instances = node_instances.get(&antecedent).copied().unwrap_or(0);
        cand.count = u32::from(cand.count == instances && instances > 0);
    }
    cands.sort_unstable_by_key(|cand| cand.code);

    Mined {
        cands,
        pool,
        truncations,
    }
}

/// Packs a [`NodeKey`] into an injective 59-bit code: transform tag
/// (11 bits: 3-bit discriminant + 8-bit payload), parameter index
/// (16 bits), pattern id (32 bits).
pub(crate) fn node_code(node: NodeKey) -> u64 {
    let (d, payload) = match node.transform_tag {
        TransformTag::Id => (0u64, 0u64),
        TransformTag::Hex => (1, 0),
        TransformTag::Str => (2, 0),
        TransformTag::Segment(n) => (3, u64::from(n)),
        TransformTag::Octet(n) => (4, u64::from(n)),
        TransformTag::PrefixAddr => (5, 0),
        TransformTag::PrefixLen => (6, 0),
        TransformTag::Lower => (7, 0),
    };
    (d | (payload << 3)) | (u64::from(node.param) << 11) | (u64::from(node.pattern.0) << 27)
}

/// Inverts [`node_code`].
pub(crate) fn decode_node(code: u64) -> NodeKey {
    let payload = ((code >> 3) & 0xff) as u8;
    let transform_tag = match code & 0b111 {
        0 => TransformTag::Id,
        1 => TransformTag::Hex,
        2 => TransformTag::Str,
        3 => TransformTag::Segment(payload),
        4 => TransformTag::Octet(payload),
        5 => TransformTag::PrefixAddr,
        6 => TransformTag::PrefixLen,
        _ => TransformTag::Lower,
    };
    NodeKey {
        pattern: crate::ir::PatternId((code >> 27) as u32),
        param: ((code >> 11) & 0xffff) as u16,
        transform_tag,
    }
}

/// Packs a candidate's varying half — the relation plus the consequent
/// node — into an injective 61-bit code. Within one antecedent rep this
/// code identifies the candidate, so the per-rep dedup map hashes one
/// `u64` instead of a multi-field `CandKey`.
pub(crate) fn consequent_code(relation: RelationKind, node: NodeKey) -> u64 {
    (relation as u64) | (node_code(node) << 2)
}

/// Packs a full candidate — antecedent node (59 bits) over the
/// relation + consequent code (61 bits) — into an injective 120-bit
/// code, the key of every map on the accumulate/merge path.
pub(crate) fn cand_code(antecedent: u64, consequent: u64) -> u128 {
    (u128::from(antecedent) << 61) | u128::from(consequent)
}

/// The relation held in the low two bits of a [`consequent_code`].
fn decode_relation(bits: u64) -> RelationKind {
    match bits & 0b11 {
        0 => RelationKind::Equals,
        1 => RelationKind::Contains,
        2 => RelationKind::StartsWith,
        _ => RelationKind::EndsWith,
    }
}

/// Splits a [`cand_code`] back into its antecedent node code and its
/// [`consequent_code`].
fn split_cand(code: u128) -> (u64, u64) {
    ((code >> 61) as u64, (code as u64) & ((1 << 61) - 1))
}

/// Inverts [`cand_code`] back into the full [`CandKey`].
pub(crate) fn decode_cand(code: u128) -> CandKey {
    let (antecedent, ccode) = split_cand(code);
    CandKey {
        antecedent: decode_node(antecedent),
        relation: decode_relation(ccode),
        consequent: decode_node(ccode >> 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use crate::ir::Dataset;

    fn dataset(texts: &[String]) -> Dataset {
        let configs: Vec<(String, String)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("dev{i}"), t.clone()))
            .collect();
        Dataset::from_named_texts(&configs, &[]).unwrap()
    }

    /// Learns relational contracts alone, without minimization: the
    /// miner's contracts in finalization order, and its fan-out
    /// truncations.
    fn learn_alone(ds: &Dataset, params: &LearnParams) -> (Vec<RelationalContract>, u64) {
        let params = LearnParams {
            minimize: false,
            ..crate::learn::only(params, |p| p.enable_relational = true)
        };
        let (set, stats) = crate::learn::learn_with_stats(ds, &params);
        let mut contracts: Vec<RelationalContract> = set
            .contracts
            .into_iter()
            .map(|c| match c {
                Contract::Relational(r) => r,
                other => panic!("relational-only learn emitted {other:?}"),
            })
            .collect();
        contracts.sort();
        (contracts, stats.fanout_truncations)
    }

    fn mine_texts(texts: &[String], params: &LearnParams) -> Vec<RelationalContract> {
        learn_alone(&dataset(texts), params).0
    }

    /// The value config `i` of a fleet of more than two learn chunks
    /// carries: two low-scoring values alternating in the first chunk,
    /// then a distinct high-scoring value per config. With two witnesses
    /// per candidate the first chunk's pair scores 0.1, below the bar, so
    /// folding any later chunk first would learn contracts the in-order
    /// fold rejects.
    fn chunked_value(i: usize) -> usize {
        if i < crate::learn::CHUNK {
            i % 2
        } else {
            2000 + i
        }
    }

    fn has_contract(
        contracts: &[RelationalContract],
        relation: RelationKind,
        antecedent_contains: &str,
        consequent_contains: &str,
    ) -> bool {
        contracts.iter().any(|c| {
            c.relation == relation
                && c.antecedent.pattern.contains(antecedent_contains)
                && c.consequent.pattern.contains(consequent_contains)
        })
    }

    #[test]
    fn learns_loopback_prefix_contains() {
        // Figure 1 contract 2: every interface address is permitted by a
        // prefix-list entry.
        let texts: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "interface Loopback0\n ip address 10.14.14.{i}\nip prefix-list loopback\n seq 10 permit 10.14.14.{i}/32\n"
                )
            })
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(
            has_contract(&contracts, RelationKind::Contains, "ip address", "permit"),
            "missing contains contract in {contracts:#?}"
        );
    }

    #[test]
    fn learns_port_channel_mac_segment_equality() {
        // Figure 1 contract 1: hex(port channel number) equals the last
        // MAC segment.
        let texts: Vec<String> = (0..8)
            .map(|i| {
                let n = 100 + i * 7;
                format!(
                    "interface Port-Channel{n}\n evpn ether-segment\n  route-target import 00:00:0c:d3:00:{:02x}\n",
                    n
                )
            })
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        let found = contracts.iter().any(|c| {
            c.relation == RelationKind::Equals
                && c.antecedent.pattern.contains("Port-Channel[a:num]")
                && c.antecedent.transform == Transform::Hex
                && c.consequent.pattern.contains("route-target import")
                && c.consequent.transform == Transform::Segment(6)
        });
        assert!(found, "missing hex/segment equality in {contracts:#?}");
    }

    #[test]
    fn learns_vlan_rd_endswith() {
        // Figure 1 contract 3: the route distinguisher's number ends with
        // the VLAN id.
        let texts: Vec<String> = (0..8)
            .map(|i| {
                let vlan = 251 + i;
                format!("router bgp 65015\n vlan {vlan}\n  rd 10.14.14.117:10{vlan}\n")
            })
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(
            has_contract(&contracts, RelationKind::EndsWith, "vlan [a:num]", "rd "),
            "missing endswith contract in {contracts:#?}"
        );
    }

    #[test]
    fn spurious_default_route_relation_rejected() {
        // The default route 0.0.0.0/0 "contains" the RD address in every
        // config, but its informativeness is zero, so no contract should
        // relate the RD address to the catch-all prefix entry.
        let texts: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "plist\n seq 20 permit 0.0.0.0/0\nrouter bgp 65015\n vlan 251\n  rd 10.14.14.{i}:10251\n"
                )
            })
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(
            !has_contract(&contracts, RelationKind::Contains, "rd ", "permit"),
            "spurious contains contract learned: {contracts:#?}"
        );
    }

    #[test]
    fn confidence_tolerates_minority_violation() {
        let mut texts: Vec<String> = (0..30).map(|i| format!("vlan {i}\nvni {i}\n")).collect();
        // One config violates the equality.
        texts.push("vlan 77\nvni 99\n".to_string());
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(
            has_contract(&contracts, RelationKind::Equals, "vlan", "vni"),
            "equality should survive 1/31 noise: {contracts:#?}"
        );
    }

    #[test]
    fn below_confidence_rejected() {
        let texts: Vec<String> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    format!("vlan {i}\nvni {i}\n")
                } else {
                    format!("vlan {i}\nvni {}\n", i + 100)
                }
            })
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(!has_contract(
            &contracts,
            RelationKind::Equals,
            "vlan",
            "vni"
        ));
    }

    #[test]
    fn forall_requires_every_instance() {
        // Each config has two vlans but only one matching vni: the forall
        // fails in every config.
        let texts: Vec<String> = (0..8)
            .map(|i| format!("vlan {}\nvlan {}\nvni {}\n", 100 + i, 200 + i, 100 + i))
            .collect();
        let contracts = mine_texts(&texts, &LearnParams::default());
        assert!(!has_contract(
            &contracts,
            RelationKind::Equals,
            "vlan",
            "vni"
        ));
        // The reverse direction (every vni has a vlan) does hold.
        assert!(has_contract(
            &contracts,
            RelationKind::Equals,
            "vni",
            "vlan"
        ));
    }

    #[test]
    fn parallel_matches_sequential() {
        let texts: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    "vlan {}\n rd 10.0.0.1:10{}\nvni {}\n",
                    250 + i,
                    250 + i,
                    250 + i
                )
            })
            .collect();
        let seq = mine_texts(&texts, &LearnParams::default());
        let par = mine_texts(
            &texts,
            &LearnParams {
                parallelism: 4,
                ..LearnParams::default()
            },
        );
        let norm = |mut v: Vec<RelationalContract>| {
            v.sort_by_key(|c| format!("{c:?}"));
            v
        };
        assert_eq!(norm(seq), norm(par));
    }

    #[test]
    fn chunk_boundaries_match_reference_fold() {
        // More than two chunks of configs, with witnesses shared across
        // configs: the chunked fold must equal the reference's one
        // config-order fold at every parallelism level, both with a
        // tight witness cap (where fold order decides which witnesses
        // count) and with the default one. The `area`/`zone` pair holds
        // one value through the first chunk and low-scoring values
        // through the second, so folding the last chunk before the
        // second also changes what is learned.
        let configs = 2 * crate::learn::CHUNK + 22;
        let texts: Vec<String> = (0..configs)
            .map(|i| {
                let area = match i / crate::learn::CHUNK {
                    0 => 1,
                    1 => 2 + i % 9,
                    _ => 3000 + i,
                };
                let v = chunked_value(i);
                format!("vlan {v}\n rd 10.0.0.1:10{v}\nvni {v}\narea {area}\nzone {area}\n")
            })
            .collect();
        let ds = dataset(&texts);
        for max_score_witnesses in [2, 128] {
            let mut learned = false;
            for parallelism in [1, 2, 8] {
                let params = LearnParams {
                    parallelism,
                    max_score_witnesses,
                    minimize: false,
                    ..LearnParams::default()
                };
                let chunked = learn_alone(&ds, &params);
                assert_eq!(
                    chunked,
                    crate::learn::reference::relational(&ds, &params),
                    "chunked fold diverges from the reference at p={parallelism}, \
                     cap={max_score_witnesses}"
                );
                learned |= has_contract(&chunked.0, RelationKind::Equals, "vlan", "vni");
            }
            // The default cap reaches the high-scoring chunks; the tight
            // one stops at the first chunk's low scores.
            assert_eq!(learned, max_score_witnesses == 128);
        }
    }

    #[test]
    fn guard_replay_matches_reference_fold() {
        // One value shared by 14 keyword patterns: every instance
        // satisfies ~13 equality candidates, so `max_witnesses_per_instance: 1`
        // (fan-out guard = 8) trips mid-scan. That forces the by-value
        // query cache off its pre-merged fast path into the raw replay,
        // which must reproduce the guard's scan-order drops — counted
        // and witnessed — exactly as the reference fold does, across
        // more than two chunks of configs.
        const KEYWORDS: [&str; 14] = [
            "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
            "juliet", "kilo", "lima", "mike", "november",
        ];
        let texts: Vec<String> = (0..2 * crate::learn::CHUNK + 1)
            .map(|i| {
                KEYWORDS
                    .iter()
                    .map(|k| format!("{k} {}\n", chunked_value(i)))
                    .collect::<String>()
            })
            .collect();
        let ds = dataset(&texts);
        for max_score_witnesses in [2, 128] {
            for parallelism in [1, 2, 8] {
                let params = LearnParams {
                    parallelism,
                    max_score_witnesses,
                    max_witnesses_per_instance: 1,
                    minimize: false,
                    ..LearnParams::default()
                };
                let chunked = learn_alone(&ds, &params);
                assert_eq!(
                    chunked,
                    crate::learn::reference::relational(&ds, &params),
                    "guard replay diverges from the reference at p={parallelism}, \
                     cap={max_score_witnesses}"
                );
                assert!(
                    chunked.1 > 0,
                    "the tight guard must actually truncate, or the raw replay path is untested"
                );
                assert_eq!(chunked.0.is_empty(), max_score_witnesses == 2);
            }
        }
    }

    #[test]
    fn fanout_guard_truncations_are_counted() {
        let texts: Vec<String> = (0..8)
            .map(|i| format!("vlan {}\nvni {}\n", 100 + i, 100 + i))
            .collect();
        let ds = dataset(&texts);
        // Default guard: nothing pathological here, nothing truncated.
        let (relaxed, relaxed_truncations) = learn_alone(&ds, &LearnParams::default());
        assert_eq!(relaxed_truncations, 0);
        assert!(!relaxed.is_empty());
        // A zero-width guard drops every witness record — and says so.
        let (strangled, strangled_truncations) = learn_alone(
            &ds,
            &LearnParams {
                max_witnesses_per_instance: 0,
                ..LearnParams::default()
            },
        );
        assert!(strangled.is_empty());
        assert!(strangled_truncations > 0);
    }
}
