//! Shared workload builders for the benchmark harness.
//!
//! Each bench target in `benches/` regenerates one figure or theorem-level
//! claim of the paper (see `EXPERIMENTS.md` at the workspace root for the
//! mapping and the measured outcomes). The helpers here construct the
//! parameterized workloads so that the criterion targets stay small.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_gadgets::generate::{restrict_schema, SchemaGen};
use shapex_graph::Graph;
use shapex_rbe::Interval;
use shapex_shex::{parse_schema, Schema};

pub mod throughput;

/// A deterministic RNG for workload construction (benchmarks must be
/// reproducible run to run).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A pair `(H, K)` of `DetShEx₀⁻` schemas with `L(H) ⊆ L(K)` by construction
/// (`H` is a restriction of `K`), parameterized by the number of types.
///
/// Restricting a schema does not always stay inside `DetShEx₀⁻` (dropping a
/// `*` reference can orphan a `?`-using type), so restrictions are retried
/// until one is in the class, falling back to `H = K`.
pub fn contained_det_pair(types: usize, seed: u64) -> (Schema, Schema) {
    let mut r = rng(seed);
    let k = SchemaGen::new(types, 3).det_shex0_minus(&mut r);
    for _ in 0..20 {
        let h = restrict_schema(&mut r, &k);
        if h.is_det_shex0_minus() {
            return (h, k);
        }
    }
    (k.clone(), k)
}

/// A pair `(H, K)` of (generally non-deterministic) `ShEx₀` schemas with
/// `L(H) ⊆ L(K)` by construction.
pub fn contained_shex0_pair(types: usize, seed: u64) -> (Schema, Schema) {
    let mut r = rng(seed);
    let k = SchemaGen::new(types, 3).shex0(&mut r, false);
    let h = restrict_schema(&mut r, &k);
    (h, k)
}

/// An evolving family of `n` bug-tracker schema revisions for the batch
/// (N×N matrix) containment workload of the `batch_matrix` bench and the
/// `fig7_summary` binary.
///
/// The variants toggle the user's email (`?` / mandatory / absent) and the
/// multiplicity of `related` (`*` / `?`), and every fourth revision splits
/// `related` into two same-label atoms (non-deterministic). That mix spreads
/// the pairs across all the procedure's paths: embedding fast-path,
/// `DetShEx₀⁻` characterizing shortcut, and — for the non-embedding
/// `DetShEx₀`/`ShEx₀` pairs — the budgeted counter-example search whose
/// unfolding pools the `ContainmentEngine` amortizes across partners.
pub fn evolution_family(n: usize) -> Vec<Schema> {
    (0..n)
        .map(|i| {
            let email = match i % 3 {
                0 => ", email::Literal?",
                1 => ", email::Literal",
                _ => "",
            };
            let related = if i % 2 == 0 {
                "related::Bug*"
            } else {
                "related::Bug?"
            };
            let split = if i % 4 == 3 { ", related::Bug*" } else { "" };
            let text = format!(
                "Bug -> descr::Literal, reportedBy::User, {related}{split}\n\
                 User -> name::Literal{email}\n\
                 Literal -> EMPTY\n"
            );
            parse_schema(&text).expect("family member parses")
        })
        .collect()
}

/// A compressed "hub and spokes" graph: one hub node with a single compressed
/// edge of multiplicity `spokes` to a rim node, plus the schema that accepts
/// hubs with between 1 and `spokes` spokes.
pub fn compressed_hub(spokes: u64) -> (Graph, Schema) {
    let mut g = Graph::new();
    let hub = g.node("hub");
    let rim = g.node("rim");
    g.add_edge_with(hub, "spoke", Interval::exactly(spokes), rim);
    let schema = parse_schema(&format!("Hub -> spoke::Rim[1;{spokes}]\nRim -> EMPTY\n"))
        .expect("hub schema parses");
    (g, schema)
}

/// A compressed hub together with a *disjunctive* schema (full ShEx) that
/// accepts an even number of spokes only — exercises the Presburger-backed
/// validation of Proposition 6.2.
pub fn compressed_hub_disjunctive(spokes: u64) -> (Graph, Schema) {
    let (g, _) = compressed_hub(spokes);
    let schema = parse_schema("Hub -> (spoke::Rim, spoke::Rim)*\nRim -> EMPTY\n")
        .expect("disjunctive hub schema parses");
    (g, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_core::embedding::embeds;
    use shapex_shex::typing::validates;

    #[test]
    fn contained_pairs_really_embed() {
        for types in [3, 6, 16, 32, 64] {
            let (h, k) = contained_det_pair(types, 1);
            assert!(h.is_det_shex0_minus());
            assert!(k.is_det_shex0_minus());
            let hg = h.to_shape_graph().unwrap();
            let kg = k.to_shape_graph().unwrap();
            assert!(embeds(&hg, &kg).is_some());
            let (h2, k2) = contained_shex0_pair(types, 2);
            let hg2 = h2.to_shape_graph().unwrap();
            let kg2 = k2.to_shape_graph().unwrap();
            assert!(embeds(&hg2, &kg2).is_some());
        }
    }

    #[test]
    fn evolution_family_spans_the_fragments() {
        use shapex_shex::SchemaClass;
        let family = evolution_family(8);
        let classes: std::collections::BTreeSet<SchemaClass> =
            family.iter().map(|s| s.classify()).collect();
        assert!(
            classes.contains(&SchemaClass::DetShEx0Minus),
            "need embedding/characterizing fast-path pairs"
        );
        assert!(
            classes.contains(&SchemaClass::ShEx0),
            "need non-deterministic search-path pairs"
        );
        assert!(classes.len() >= 3, "got {classes:?}");
    }

    #[test]
    fn compressed_hub_workloads_validate_as_expected() {
        let (g, schema) = compressed_hub(64);
        assert!(validates(&g, &schema));
        let (even, disjunctive) = compressed_hub_disjunctive(10);
        assert!(validates(&even, &disjunctive));
        let (odd, disjunctive) = compressed_hub_disjunctive(9);
        assert!(!validates(&odd, &disjunctive));
    }
}
