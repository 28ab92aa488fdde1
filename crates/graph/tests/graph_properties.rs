//! Property-based and scenario tests for the graph model: text round-trips,
//! classification, unpacking of compressed graphs, and deltas against an
//! independent model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_graph::generate::{sample_from_shape, GraphGen};
use shapex_graph::{parse_graph, write_graph, DeltaReport, Graph, GraphDelta, GraphKind, NodeId};
use shapex_rbe::Interval;

/// One delta operation `(add, source, label, target)` over pools of six
/// names and three labels, so duplicate adds, self-loops, removals of
/// present and absent edges, and removals that swap the last edge into the
/// freed slot all occur.
fn arb_op() -> impl Strategy<Value = (bool, usize, usize, usize)> {
    (0u8..5, 0usize..6, 0usize..3, 0usize..6).prop_map(|(kind, s, p, t)| (kind < 3, s, p, t))
}

/// What a graph must hold after a sequence of deltas, kept without any of
/// the graph's code: node names in creation order and the edges as a
/// multiset of name triples.
#[derive(Default)]
struct DeltaModel {
    names: Vec<String>,
    edges: BTreeMap<(String, String, String), usize>,
}

impl DeltaModel {
    fn id(&self, name: &str) -> Option<NodeId> {
        let index = self.names.iter().position(|n| n == name)?;
        Some(NodeId(index as u32))
    }

    /// Apply one batch and return the report `apply_delta` must give.
    fn apply(&mut self, ops: &[(bool, String, String, String)]) -> DeltaReport {
        let mut report = DeltaReport::default();
        let mut dirty = BTreeSet::new();
        for (add, s, p, t) in ops {
            let key = (s.clone(), p.clone(), t.clone());
            if *add {
                for name in [s, t] {
                    if self.id(name).is_none() {
                        self.names.push(name.clone());
                        report.added_nodes += 1;
                        dirty.insert(self.id(name).unwrap());
                    }
                }
                *self.edges.entry(key).or_default() += 1;
                report.added_edges += 1;
                dirty.insert(self.id(s).unwrap());
            } else if let Some(count) = self.edges.get_mut(&key).filter(|c| **c > 0) {
                *count -= 1;
                report.removed_edges += 1;
                dirty.insert(self.id(s).unwrap());
            } else {
                report.missing_removals += 1;
            }
        }
        report.dirty = dirty.into_iter().collect();
        report
    }

    /// The model's `(label, other end)` multiset of `node`'s out-edges
    /// (`outgoing`) or in-edges.
    fn adjacent(&self, node: &str, outgoing: bool) -> Vec<(String, String)> {
        let mut adjacent = Vec::new();
        for ((s, p, t), &count) in &self.edges {
            let (end, other) = if outgoing { (s, t) } else { (t, s) };
            if end == node {
                adjacent.extend(std::iter::repeat((p.clone(), other.clone())).take(count));
            }
        }
        adjacent.sort();
        adjacent
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_simple_graphs_roundtrip_through_text(seed in 0u64..10_000, nodes in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = GraphGen::new(nodes, 3).out_degree(1.5).simple(&mut rng);
        let text = write_graph(&g);
        let back = parse_graph(&text).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert!(back.is_simple());
        // Every edge survives with its label and endpoints.
        for e in g.edges() {
            let src = g.node_name(g.source(e));
            let dst = g.node_name(g.target(e));
            let found = back.edges().any(|f| {
                back.node_name(back.source(f)) == src
                    && back.node_name(back.target(f)) == dst
                    && back.label(f) == g.label(e)
            });
            prop_assert!(found, "missing edge {src} -{}-> {dst}", g.label(e));
        }
    }

    #[test]
    fn shape_graph_samples_embed_structurally(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = GraphGen::new(5, 3).out_degree(2.0).shape(&mut rng);
        prop_assert!(shape.is_shape_graph());
        let sample = sample_from_shape(&mut rng, &shape, 40);
        prop_assert!(sample.is_simple());
        prop_assert!(sample.node_count() <= 40);
    }

    #[test]
    fn unpacking_preserves_edge_totals(multiplicities in proptest::collection::vec(1u64..5, 1..4)) {
        // A chain hub -p[k1]-> n1 -p[k2]-> n2 ... unpacks into a tree whose
        // edge count equals the sum over prefixes of products.
        let mut g = Graph::new();
        let mut prev = g.node("n0");
        for (i, &k) in multiplicities.iter().enumerate() {
            let next = g.node(&format!("n{}", i + 1));
            g.add_edge_with(prev, "p", Interval::exactly(k), next);
            prev = next;
        }
        prop_assert!(g.is_compressed(), "a chain of [k;k] edges is a compressed graph");
        let unpacked = g.unpack(100_000).unwrap();
        prop_assert!(unpacked.is_simple());
        let mut expected_edges = 0u64;
        let mut copies = 1u64;
        for &k in &multiplicities {
            expected_edges += copies * k;
            copies *= k;
        }
        prop_assert_eq!(unpacked.edge_count() as u64, expected_edges);
        // Each non-root node receives exactly one incoming edge.
        prop_assert_eq!(unpacked.edge_count(), unpacked.node_count() - 1);
    }

    #[test]
    fn deltas_agree_with_a_multiset_model(
        batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..12), 1..6)
    ) {
        let mut graph = Graph::new();
        let mut model = DeltaModel::default();
        for batch in batches {
            let ops: Vec<(bool, String, String, String)> = batch
                .iter()
                .map(|&(add, s, p, t)| (add, format!("n{s}"), format!("p{p}"), format!("n{t}")))
                .collect();
            let mut delta = GraphDelta::new();
            for (add, s, p, t) in &ops {
                if *add {
                    delta.add_edge(s.as_str(), p, t.as_str());
                } else {
                    delta.remove_edge(s.as_str(), p, t.as_str());
                }
            }
            let report = graph.apply_delta(&delta);
            prop_assert_eq!(report, model.apply(&ops));
            prop_assert_eq!(graph.node_count(), model.names.len());
            prop_assert_eq!(graph.edge_count(), model.edges.values().sum::<usize>());
            for v in graph.nodes() {
                let name = graph.node_name(v);
                prop_assert_eq!(name, model.names[v.index()].as_str());
                prop_assert_eq!(graph.find_node(name), Some(v));
                for (outgoing, edges) in [(true, graph.out(v)), (false, graph.ins(v))] {
                    let distinct: BTreeSet<_> = edges.iter().collect();
                    prop_assert_eq!(distinct.len(), edges.len(), "an edge listed twice");
                    let mut adjacent = Vec::new();
                    for &e in edges {
                        let (end, other) = if outgoing {
                            (graph.source(e), graph.target(e))
                        } else {
                            (graph.target(e), graph.source(e))
                        };
                        prop_assert_eq!(end, v);
                        let other = graph.node_name(other).to_string();
                        adjacent.push((graph.label(e).to_string(), other));
                    }
                    adjacent.sort();
                    prop_assert_eq!(adjacent, model.adjacent(name, outgoing));
                }
            }
            for e in graph.edges() {
                prop_assert_eq!(graph.label(e), graph.label_of(graph.label_id(e)));
            }
        }
    }
}

#[test]
fn kind_is_stable_under_isolated_nodes() {
    let mut g = parse_graph("a -p-> b\n").unwrap();
    assert_eq!(g.kind(), GraphKind::Simple);
    g.add_named_node("isolated");
    assert_eq!(g.kind(), GraphKind::Simple);
}

#[test]
fn labels_are_sorted_and_deduplicated() {
    let g = parse_graph("a -z-> b\na -m-> b\nb -z-> a\n").unwrap();
    let labels = g.labels();
    assert_eq!(labels.len(), 2);
    assert_eq!(labels[0].as_str(), "m");
    assert_eq!(labels[1].as_str(), "z");
}

#[test]
fn out_bags_reflect_parallel_labels() {
    let g = parse_graph("hub -p-> a\nhub -p-> b\nhub -q-> a\n").unwrap();
    let hub = g.find_node("hub").unwrap();
    let bag = g.out_bag(hub);
    assert_eq!(bag.total(), 3);
    assert_eq!(bag.distinct(), 3, "distinct (label, target) pairs");
}
