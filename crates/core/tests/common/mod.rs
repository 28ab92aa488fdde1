//! Scaffolding shared by the engine suites: the tiny search budget, schemas
//! outside ShEx₀ that reach the bounded search, structural witness
//! comparison and certification, and the memo-free ShEx₀ oracle assembled
//! from the retained baseline pieces and the type-set fixpoint.

// Each suite uses its own subset of these helpers; unused ones in a given
// test binary are expected.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_core::baseline::search_counter_example_baseline;
use shapex_core::det::characterizing_graph;
use shapex_core::embedding::embeds;
use shapex_core::fixpoint;
use shapex_core::unfold::SearchOptions;
use shapex_core::Containment;
use shapex_graph::generate::GraphGen;
use shapex_graph::Graph;
use shapex_shex::typing::validates;
use shapex_shex::{parse_schema, Schema};

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
    parse_schema(&format!("Root -> {}\n", parts.join(", "))).unwrap()
}

/// A random RBE₀ schema via a random shape graph (Proposition 3.2): the
/// round-trip gives the full basic-interval mix (`1 ? * +`), many schemas
/// outside `DetShEx₀⁻`.
pub fn random_schema(rng: &mut StdRng, nodes: usize, labels: usize) -> Schema {
    Schema::from_shape_graph(&GraphGen::new(nodes, labels).out_degree(2.0).shape(rng))
}

/// `count` random RBE₀ schemas over four types and three labels, drawn
/// from `seed`.
pub fn random_family(seed: u64, count: usize) -> Vec<Schema> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_schema(&mut rng, 4, 3)).collect()
}

/// [`random_family`] followed by two [`beyond_shex0`] schemas drawn from the
/// same generator: the RBE₀ pairs meet the memo-free oracle, and the pairs
/// with a schema outside ShEx₀ reach the bounded search.
pub fn mixed_family(seed: u64, count: usize) -> Vec<Schema> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut family: Vec<Schema> = (0..count).map(|_| random_schema(&mut rng, 4, 3)).collect();
    family.push(beyond_shex0(&mut rng));
    family.push(beyond_shex0(&mut rng));
    family
}

/// A schema outside ShEx₀: choice groups `(aᵢ::L | bᵢ::L)[1;2]` over one to
/// four groups, an atom-only root with a non-basic interval (ShEx₀ allows
/// only `1 ? * +`), or a repeated concatenation. The type-set fixpoint
/// decides every ShEx₀ pair, so a family needs such schemas for its pairs
/// to reach the sufficient check and the bounded search.
pub fn beyond_shex0(rng: &mut StdRng) -> Schema {
    match rng.gen_range(0..3) {
        0 => choice_groups(rng.gen_range(1..=4)),
        1 => parse_schema("Root -> p::A[2;3], q::L?\nA -> a::L?\nL -> EMPTY\n").unwrap(),
        _ => parse_schema("Root -> (a::L, b::L)*\nL -> EMPTY\n").unwrap(),
    }
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

/// Certify a `NotContained` witness: it belongs to `L(h)` and not to `L(k)`.
pub fn certified(answer: &Containment, h: &Schema, k: &Schema) -> bool {
    match answer {
        Containment::NotContained(witness) => validates(witness, h) && !validates(witness, k),
        _ => true,
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
    fixpoint::decide(h, k, None).unwrap_or_else(|| {
        match search_counter_example_baseline(h, k, options) {
            Some(witness) => Containment::not_contained(witness),
            None => Containment::budget_exhausted(0, 0),
        }
    })
}
