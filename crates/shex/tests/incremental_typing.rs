//! The incremental revalidation soundness property: after any sequence of
//! random deltas, an [`IncrementalTyping`] repaired from the dirty sets
//! equals the maximal typing recomputed from scratch — incrementality is an
//! optimisation, never a semantics change.
//!
//! [`maximal_typing`] runs the repair's own worklist, so both are also
//! compared with [`reference_typing`], a plain round-robin fixpoint that
//! shares nothing with them but the public [`neighbourhood_satisfies`].

use std::collections::BTreeSet;

use proptest::prelude::*;

use shapex_graph::{Graph, GraphDelta};
use shapex_shex::typing::{neighbourhood_satisfies, EdgeSummary, Typing};
use shapex_shex::{maximal_typing, parse_schema, IncrementalTyping, Schema, TypeId};

const NODES: u32 = 8;
const LABELS: u32 = 3;
const TYPES: u32 = 3;

/// A random flat ShEx₀ schema over `TYPES` types and `LABELS` predicates:
/// each definition is a comma list of cardinality-annotated atoms (or
/// `EMPTY`), exercising exact, optional, starred, and plus occurrences.
fn arb_schema() -> impl Strategy<Value = Schema> {
    let atom = (0u32..LABELS, 0u32..TYPES, 0usize..4).prop_map(|(p, t, card)| {
        let card = ["", "?", "*", "+"][card];
        format!("p{p}::T{t}{card}")
    });
    proptest::collection::vec(proptest::collection::vec(atom, 0..3), TYPES as usize).prop_map(
        |defs| {
            let text: String = defs
                .iter()
                .enumerate()
                .map(|(i, atoms)| {
                    let def = if atoms.is_empty() {
                        "EMPTY".to_string()
                    } else {
                        atoms.join(", ")
                    };
                    format!("T{i} -> {def}\n")
                })
                .collect();
            parse_schema(&text).expect("generated schema text parses")
        },
    )
}

/// The maximal typing by round-robin refinement: start every node at every
/// type, and sweep all nodes, dropping each type whose definition the
/// node's neighbourhood no longer satisfies, until a sweep drops nothing.
fn reference_typing(graph: &Graph, schema: &Schema) -> Vec<BTreeSet<TypeId>> {
    let mut sets: Vec<BTreeSet<TypeId>> = vec![schema.types().collect(); graph.node_count()];
    loop {
        let mut changed = false;
        for n in graph.nodes() {
            for t in sets[n.index()].clone() {
                let edges: Vec<EdgeSummary> = graph
                    .out(n)
                    .iter()
                    .map(|&e| EdgeSummary {
                        label: graph.label(e).clone(),
                        target_types: sets[graph.target(e).index()].clone(),
                        multiplicity: graph.occur(e).singleton().expect("a simple graph"),
                    })
                    .collect();
                if !neighbourhood_satisfies(&edges, schema.def(t)) {
                    sets[n.index()].remove(&t);
                    changed = true;
                }
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// A typing's rows as plain sets, comparable with [`reference_typing`].
fn rows(graph: &Graph, typing: &Typing) -> Vec<BTreeSet<TypeId>> {
    graph
        .nodes()
        .map(|n| typing.types_of(n).iter().collect())
        .collect()
}

/// One random edge-level operation over the bounded node/label universe.
/// Removals may miss (the graph applies them as no-ops).
fn arb_op() -> impl Strategy<Value = (bool, u32, u32, u32)> {
    (0u32..2, 0u32..NODES, 0u32..LABELS, 0u32..NODES).prop_map(|(add, s, p, t)| (add == 0, s, p, t))
}

/// A batch sequence: each inner vector becomes one [`GraphDelta`].
fn arb_batches() -> impl Strategy<Value = Vec<Vec<(bool, u32, u32, u32)>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..5), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_apply_equals_scratch_recomputation(
        schema in arb_schema(),
        initial in proptest::collection::vec(arb_op(), 0..10),
        batches in arb_batches(),
    ) {
        // Seed the graph with the initial additions only.
        let mut graph = Graph::new();
        let mut seed = GraphDelta::new();
        for &(_, s, p, t) in &initial {
            seed.add_edge(format!("n{s}"), format!("p{p}"), format!("n{t}"));
        }
        graph.apply_delta(&seed);
        let mut typing = IncrementalTyping::new(&graph, &schema);
        prop_assert_eq!(typing.typing(), &maximal_typing(&graph, &schema));
        for batch in batches {
            let mut delta = GraphDelta::new();
            for (add, s, p, t) in batch {
                let (s, p, t) = (format!("n{s}"), format!("p{p}"), format!("n{t}"));
                if add {
                    delta.add_edge(s, &p, t);
                } else {
                    delta.remove_edge(s, &p, t);
                }
            }
            let report = graph.apply_delta(&delta);
            typing.apply(&graph, &schema, &report.dirty);
            prop_assert_eq!(
                typing.typing(),
                &maximal_typing(&graph, &schema),
                "incremental repair diverged from the from-scratch typing"
            );
            prop_assert_eq!(typing.is_total(), maximal_typing(&graph, &schema).is_total());
            let reference = reference_typing(&graph, &schema);
            prop_assert_eq!(
                rows(&graph, &maximal_typing(&graph, &schema)),
                reference.clone(),
                "the from-scratch typing diverged from the round-robin reference"
            );
            prop_assert_eq!(
                rows(&graph, typing.typing()),
                reference,
                "the repaired typing diverged from the round-robin reference"
            );
        }
    }

    #[test]
    fn empty_dirty_set_is_a_no_op(schema in arb_schema(), ops in proptest::collection::vec(arb_op(), 0..10)) {
        let mut graph = Graph::new();
        let mut seed = GraphDelta::new();
        for &(_, s, p, t) in &ops {
            seed.add_edge(format!("n{s}"), format!("p{p}"), format!("n{t}"));
        }
        graph.apply_delta(&seed);
        let mut typing = IncrementalTyping::new(&graph, &schema);
        let before = typing.typing().clone();
        let affected = typing.apply(&graph, &schema, &[]);
        prop_assert_eq!(affected, 0);
        prop_assert_eq!(typing.typing(), &before);
    }
}
