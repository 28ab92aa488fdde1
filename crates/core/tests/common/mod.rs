//! Scaffolding shared by the `engine_session`, `engine_concurrency`, and
//! `arena_search` suites: the tiny search budget, structural witness
//! comparison, and the memo-free ShEx₀ oracle assembled from the retained
//! baseline pieces and the type-set fixpoint.

// Each suite uses its own subset of these helpers; unused ones in a given
// test binary are expected.
#![allow(dead_code)]

use shapex_core::baseline::search_counter_example_baseline;
use shapex_core::det::characterizing_graph;
use shapex_core::embedding::embeds;
use shapex_core::fixpoint::{self, FixpointOutcome};
use shapex_core::unfold::SearchOptions;
use shapex_core::Containment;
use shapex_graph::Graph;
use shapex_shex::Schema;

/// A small budget keeping each random case fast; equivalence must hold for
/// any budget, so tightness costs no coverage.
pub fn tiny() -> SearchOptions {
    SearchOptions {
        max_depth: 2,
        max_bags: 6,
        max_trees: 8,
        max_graph_nodes: 40,
        max_candidates: 120,
    }
}

/// The choice-group schema of the `disjunct` gadgets, `Root -> (a1::L |
/// b1::L)[1;2], …` over `groups` groups. It is outside RBE₀, and from four
/// groups on its definition has more bags than the sufficient check
/// enumerates, so checking it against itself goes to the bounded search,
/// which exhausts its budget without a witness.
pub fn choice_groups(groups: usize) -> Schema {
    let parts: Vec<String> = (1..=groups)
        .map(|i| format!("(a{i}::L | b{i}::L)[1;2]"))
        .collect();
    shapex_shex::parse_schema(&format!("Root -> {}\n", parts.join(", "))).unwrap()
}

/// A structural rendering for witness comparison (node names are irrelevant
/// to validation, but the engine must return the *identical* candidate, so
/// names are included).
pub fn graph_key(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for n in g.nodes() {
        let _ = writeln!(s, "{}", g.node_name(n));
    }
    for e in g.edges() {
        let _ = writeln!(
            s,
            "{} -{}-> {}",
            g.node_name(g.source(e)),
            g.label(e),
            g.node_name(g.target(e))
        );
    }
    s
}

/// Verdict equality with exact-witness comparison for `NotContained`.
pub fn same_answer(a: &Containment, b: &Containment) -> bool {
    match (a, b) {
        (Containment::Contained, Containment::Contained) => true,
        (Containment::NotContained(x), Containment::NotContained(y)) => {
            graph_key(x) == graph_key(y)
        }
        (Containment::Unknown(x), Containment::Unknown(y)) => x == y,
        _ => false,
    }
}

/// The ShEx₀ pipeline exactly as the engine runs it, over the memo-free
/// baseline search: embedding, the `DetShEx₀⁻` shortcut, the type-set
/// fixpoint, and the baseline search only for pairs the fixpoint does not
/// decide. Unknown answers carry a dummy reason — the oracle does not model
/// engine-side budget accounting, so callers compare Unknowns by variant
/// only.
pub fn shex0_oracle(h: &Schema, k: &Schema, options: &SearchOptions) -> Containment {
    assert!(h.is_rbe0() && k.is_rbe0(), "oracle is for ShEx0 pairs");
    let hg = h.to_shape_graph().expect("RBE0 schema has a shape graph");
    let kg = k.to_shape_graph().expect("RBE0 schema has a shape graph");
    if embeds(&hg, &kg).is_some() {
        return Containment::Contained;
    }
    if h.is_det_shex0_minus() && k.is_det_shex0_minus() {
        let witness = characterizing_graph(h).expect("checked DetShEx0-");
        return Containment::not_contained(witness);
    }
    match fixpoint::decide(h, k, None) {
        FixpointOutcome::Contained => Containment::Contained,
        FixpointOutcome::NotContained(witness) => Containment::NotContained(witness),
        FixpointOutcome::OverBudget | FixpointOutcome::Cancelled => {
            match search_counter_example_baseline(h, k, options) {
                Some(witness) => Containment::not_contained(witness),
                None => Containment::budget_exhausted(0, 0),
            }
        }
    }
}
