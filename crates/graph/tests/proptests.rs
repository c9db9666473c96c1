//! Property tests for the graph algorithms, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).

use concord_graph::DiGraph;
use concord_rng::prop;
use concord_rng::{Rng, StdRng};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 256;

/// A random directed graph of 1 to `max_n` nodes and fewer than three
/// edges per node, self-loops and repeats included.
fn any_graph(rng: &mut StdRng, max_n: usize) -> DiGraph {
    let n = rng.gen_range(1..=max_n);
    let mut g = DiGraph::new(n);
    for _ in 0..rng.gen_range(0..n * 3) {
        g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
    }
    g
}

/// A random DAG of 2 to `max_n` nodes: the edges of a random graph that
/// run from a lower to a higher index.
fn any_dag(rng: &mut StdRng, max_n: usize) -> DiGraph {
    let n = rng.gen_range(2..=max_n);
    let mut g = DiGraph::new(n);
    for _ in 0..rng.gen_range(0..n * 3) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u < v {
            g.add_edge(u, v);
        }
    }
    g
}

/// SCCs partition the node set.
#[test]
fn scc_is_a_partition() {
    prop::check("scc_is_a_partition", CASES, |rng| {
        let g = any_graph(rng, 24);
        let mut seen = vec![false; g.num_nodes()];
        for comp in &g.scc() {
            for &node in comp {
                assert!(!seen[node], "node {node} in two components");
                seen[node] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    });
}

/// Two nodes share an SCC iff they reach each other.
#[test]
fn scc_matches_mutual_reachability() {
    prop::check("scc_matches_mutual_reachability", CASES, |rng| {
        let g = any_graph(rng, 12);
        let comps = g.scc();
        let comp_of = |x: usize| {
            comps
                .iter()
                .position(|c| c.contains(&x))
                .expect("every node is in a component")
        };
        for u in 0..g.num_nodes() {
            let ru = g.reachable_from(u);
            for v in 0..g.num_nodes() {
                if u == v {
                    continue;
                }
                let rv = g.reachable_from(v);
                let mutual = ru.contains(v) && rv.contains(u);
                assert_eq!(mutual, comp_of(u) == comp_of(v), "nodes {u} and {v}");
            }
        }
    });
}

/// The condensation is acyclic.
#[test]
fn condensation_is_dag() {
    prop::check("condensation_is_dag", CASES, |rng| {
        let (dag, _) = any_graph(rng, 24).condensation();
        assert!(dag.topological_order().is_some());
    });
}

/// Transitive reduction preserves reachability exactly.
#[test]
fn reduction_preserves_reachability() {
    prop::check("reduction_preserves_reachability", CASES, |rng| {
        let g = any_dag(rng, 16);
        let r = g.transitive_reduction();
        for u in 0..g.num_nodes() {
            let before = g.reachable_from(u);
            let after = r.reachable_from(u);
            for v in 0..g.num_nodes() {
                assert_eq!(
                    before.contains(v),
                    after.contains(v),
                    "reachability {u}->{v} changed"
                );
            }
        }
    });
}

/// Transitive reduction never adds edges and is idempotent.
#[test]
fn reduction_shrinks_and_is_idempotent() {
    prop::check("reduction_shrinks_and_is_idempotent", CASES, |rng| {
        let g = any_dag(rng, 16);
        let r = g.transitive_reduction();
        assert!(r.num_edges() <= g.num_edges());
        for (u, v) in r.edges() {
            assert!(g.has_edge(u, v), "reduction invented edge {u}->{v}");
        }
        assert_eq!(r.transitive_reduction().num_edges(), r.num_edges());
    });
}

/// Every surviving edge is essential: removing it changes reachability.
#[test]
fn reduction_is_minimal() {
    prop::check("reduction_is_minimal", CASES, |rng| {
        let r = any_dag(rng, 10).transitive_reduction();
        for (u, v) in r.edges() {
            let mut without = DiGraph::new(r.num_nodes());
            for (a, b) in r.edges() {
                if (a, b) != (u, v) {
                    without.add_edge(a, b);
                }
            }
            assert!(
                !without.reachable_from(u).contains(v),
                "edge {u}->{v} was redundant"
            );
        }
    });
}
