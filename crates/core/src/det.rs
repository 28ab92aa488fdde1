//! Containment for the tractable fragment `DetShEx₀⁻` (Section 4).
//!
//! For deterministic shape graphs without `+` whose `?`-using types are only
//! referenced through `*`-closed references, an embedding between the shape
//! graphs is not only sufficient but also necessary for containment
//! (Corollary 4.3), so containment is decidable in polynomial time
//! (Corollary 4.4). The key tool is the *characterizing graph* of Lemma 4.2: a
//! polynomial-size simple graph `G ∈ L(H)` such that `G ≼ K` implies `H ≼ K`
//! for every `K ∈ DetShEx₀⁻`.
//!
//! The exact construction of Lemma 4.2 lives in the paper's appendix; the
//! construction below follows the sketch in Section 4 (duplicated children
//! under `*`-edges, present/absent variants for `?`-edges propagated up
//! through non-`*` references) and is validated by the test suites of this
//! crate and of the workspace integration tests.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use shapex_graph::{Graph, Label, NodeId};
use shapex_rbe::Interval;
use shapex_shex::{Schema, TypeId};

use crate::Containment;

/// Error returned when an input schema is outside `DetShEx₀⁻`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotDetShex0Minus {
    /// Human-readable reasons, one per violated condition.
    pub violations: Vec<String>,
}

impl fmt::Display for NotDetShex0Minus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schema is not in DetShEx0-: {}",
            self.violations.join("; ")
        )
    }
}

impl std::error::Error for NotDetShex0Minus {}

fn require_det_minus(schema: &Schema) -> Result<(), NotDetShex0Minus> {
    let violations = schema.det_shex0_minus_violations();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(NotDetShex0Minus { violations })
    }
}

/// Decide `L(H) ⊆ L(K)` for schemas in `DetShEx₀⁻` in polynomial time
/// (Corollary 4.4): containment holds iff the shape graph of `H` embeds in
/// the shape graph of `K`.
///
/// When containment fails, the certified counter-example is the
/// characterizing graph of `H` (it belongs to `L(H)` by construction and
/// cannot embed in `K`, otherwise `H ≼ K` would hold by Lemma 4.2).
///
/// This is the one-shot entry point: it runs through a throwaway
/// [`crate::engine::ContainmentEngine`]; callers issuing many queries over
/// the same schemas should hold an engine so the shape graphs,
/// characterizing graphs, and embedding verdicts are computed once.
pub fn det_containment(h: &Schema, k: &Schema) -> Result<Containment, NotDetShex0Minus> {
    crate::engine::ContainmentEngine::new().det(h, k)
}

/// Construct the characterizing graph of a `DetShEx₀⁻` schema `H`
/// (Lemma 4.2): a simple graph `G ∈ L(H)` of size polynomial in `H` such that
/// for every `K ∈ DetShEx₀⁻`, `G ≼ K` implies `H ≼ K`.
///
/// For every type `t`, the graph contains two "full" instance nodes and one
/// variant node per `?`-edge `q` whose omission must be visible below `t`
/// (the owner of `q` and every type reaching the owner through non-`*`
/// references). Under a `*`-edge, an instance points to *all* instance nodes
/// of the target type (at least two, forcing the corresponding interval of a
/// simulating schema to be `*`); under a `1`/`?`-edge it points to the single
/// appropriate variant.
pub fn characterizing_graph(h: &Schema) -> Result<Graph, NotDetShex0Minus> {
    require_det_minus(h)?;

    // All ?-edges of the schema: (owner type, label, target type), plus an
    // index from the triple back to its position so the wiring loop below
    // can resolve "which ?-edge is this atom" with one map lookup instead of
    // rebuilding a `String` and scanning the list for every edge of every
    // node (which made the construction quadratic in the schema size).
    let mut opt_edges: Vec<(TypeId, Label, TypeId)> = Vec::new();
    let mut opt_index: BTreeMap<(TypeId, Label, TypeId), usize> = BTreeMap::new();
    for t in h.types() {
        let rbe0 = h.def(t).to_rbe0().expect("DetShEx0- is RBE0");
        for (atom, interval) in rbe0.atoms() {
            if *interval == Interval::OPT {
                let key = (t, atom.label.clone(), atom.target);
                opt_index.insert(key.clone(), opt_edges.len());
                opt_edges.push((t, atom.label.clone(), atom.target));
            }
        }
    }

    // needs_variant[q] = set of types that must come in a with/without-q
    // variant: the owner of q, propagated backwards through non-* references.
    let mut needs_variant: Vec<BTreeSet<TypeId>> = Vec::with_capacity(opt_edges.len());
    for (owner, _, _) in &opt_edges {
        let mut set = BTreeSet::new();
        set.insert(*owner);
        loop {
            let mut changed = false;
            for t in h.types() {
                if set.contains(&t) {
                    continue;
                }
                let rbe0 = h.def(t).to_rbe0().expect("DetShEx0- is RBE0");
                let reaches = rbe0.atoms().iter().any(|(atom, interval)| {
                    *interval != Interval::STAR && set.contains(&atom.target)
                });
                if reaches {
                    set.insert(t);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        needs_variant.push(set);
    }

    // Node inventory: for each type, two full copies plus the applicable
    // variants. `variant = None` is a full copy; `variant = Some(q)` omits the
    // ?-edge q somewhere below.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        t: TypeId,
        copy: u8,
        variant: Option<usize>,
    }
    let mut graph = Graph::new();
    let mut ids: BTreeMap<Key, NodeId> = BTreeMap::new();
    let mut keys_per_type: BTreeMap<TypeId, Vec<Key>> = BTreeMap::new();
    for t in h.types() {
        let mut keys = vec![
            Key {
                t,
                copy: 0,
                variant: None,
            },
            Key {
                t,
                copy: 1,
                variant: None,
            },
        ];
        for (q, set) in needs_variant.iter().enumerate() {
            if set.contains(&t) {
                keys.push(Key {
                    t,
                    copy: 0,
                    variant: Some(q),
                });
            }
        }
        for key in &keys {
            let name = h.type_name(t);
            let id = match key.variant {
                None => graph.add_named_node(format_args!("{name}@full{}", key.copy)),
                Some(q) => graph.add_named_node(format_args!("{name}@omit{q}")),
            };
            ids.insert(*key, id);
        }
        keys_per_type.insert(t, keys);
    }

    // Wire the outbound neighbourhoods.
    for (key, &node) in &ids {
        let rbe0 = h.def(key.t).to_rbe0().expect("DetShEx0- is RBE0");
        for (atom, interval) in rbe0.atoms() {
            let target = atom.target;
            let label = atom.label.clone();
            match *interval {
                i if i == Interval::STAR => {
                    // Point to every instance node of the target type.
                    for child_key in &keys_per_type[&target] {
                        graph.add_edge(node, label.clone(), ids[child_key]);
                    }
                }
                i if i == Interval::OPT => {
                    // Omit the edge exactly in the variant node of this
                    // ?-edge; keep it (pointing to the matching child) in
                    // every other node.
                    let q_here = opt_index.get(&(key.t, atom.label.clone(), target)).copied();
                    if key.variant.is_some() && key.variant == q_here {
                        continue;
                    }
                    let child = child_key_for(key, target, &needs_variant, &keys_per_type);
                    graph.add_edge(node, label.clone(), ids[&child]);
                }
                _ => {
                    // Interval 1 (DetShEx0- has no + and no general intervals).
                    let child = child_key_for(key, target, &needs_variant, &keys_per_type);
                    graph.add_edge(node, label.clone(), ids[&child]);
                }
            }
        }
    }

    fn child_key_for(
        parent: &Key,
        target: TypeId,
        needs_variant: &[BTreeSet<TypeId>],
        keys_per_type: &BTreeMap<TypeId, Vec<Key>>,
    ) -> Key {
        // A variant node propagates its omission to children that also need
        // the variant; all other edges point to the first full copy.
        if let Some(q) = parent.variant {
            if needs_variant[q].contains(&target) {
                return Key {
                    t: target,
                    copy: 0,
                    variant: Some(q),
                };
            }
        }
        keys_per_type[&target][0]
    }

    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::embeds;
    use shapex_shex::parse_schema;
    use shapex_shex::typing::validates;

    const FIG1: &str = "\
Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*
User -> name::Literal, email::Literal?
Employee -> name::Literal, email::Literal
";

    /// The refactored schema from the introduction: `User` split into `User1`
    /// (no email) and `User2` (with email); equivalent to Figure 1's schema.
    const FIG1_SPLIT: &str = "\
Bug1 -> descr::Literal, reportedBy::User1, reproducedBy::Employee?, related::Bug1*, related::Bug2*
Bug2 -> descr::Literal, reportedBy::User2, reproducedBy::Employee?, related::Bug1*, related::Bug2*
User1 -> name::Literal
User2 -> name::Literal, email::Literal
Employee -> name::Literal, email::Literal
";

    #[test]
    fn self_containment() {
        let s = parse_schema(FIG1).unwrap();
        assert!(det_containment(&s, &s).unwrap().is_contained());
    }

    #[test]
    fn relaxation_is_contained_but_not_conversely() {
        let strict = parse_schema(FIG1).unwrap();
        // Relaxed: email and reproducedBy dropped entirely, related unchanged.
        let relaxed = parse_schema(
            "Bug -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal?\n",
        )
        .unwrap();
        // Every Employee of the strict schema is an Employee of the relaxed
        // one (email? accepts email), so strict ⊆ relaxed.
        assert!(det_containment(&strict, &relaxed).unwrap().is_contained());
        // The converse fails: a relaxed Employee without email is not a strict
        // Employee... but it *is* a strict User, and the only reference to
        // Employee is through reproducedBy?, so we need a genuine distinction:
        let narrowed = parse_schema(
            "Bug -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal\n\
             Employee -> name::Literal, email::Literal\n",
        )
        .unwrap();
        // strict ⊄ narrowed: a User with an email satisfies strict but not
        // narrowed (narrowed User forbids email, Employee requires it *and*
        // nothing else changes... the User type in narrowed has no email).
        let result = det_containment(&strict, &narrowed).unwrap();
        assert!(result.is_not_contained());
        let witness = result.counter_example().unwrap().clone();
        let strict_graph = strict.to_shape_graph().unwrap();
        assert!(
            embeds(&witness, &strict_graph).is_some(),
            "witness ∈ L(strict)"
        );
        let narrowed_graph = narrowed.to_shape_graph().unwrap();
        assert!(
            embeds(&witness, &narrowed_graph).is_none(),
            "witness ∉ L(narrowed)"
        );
    }

    #[test]
    fn characterizing_graph_belongs_to_language() {
        for text in [FIG1, FIG1_SPLIT] {
            let schema = parse_schema(text).unwrap();
            if !schema.is_det_shex0_minus() {
                continue; // FIG1_SPLIT is not deterministic; skip it here.
            }
            let g = characterizing_graph(&schema).unwrap();
            assert!(g.is_simple());
            let shape = schema.to_shape_graph().unwrap();
            assert!(embeds(&g, &shape).is_some(), "G ≼ H");
            assert!(validates(&g, &schema), "G ⊨ H via the validation semantics");
            // Polynomial size: at most (2 + #?-edges) nodes per type, with
            // the ?-edge count taken from the schema itself rather than a
            // magic constant, so the bound is asserted per-schema.
            let opt_edges = schema
                .types()
                .map(|t| {
                    schema
                        .def(t)
                        .to_rbe0()
                        .expect("DetShEx0- is RBE0")
                        .atoms()
                        .iter()
                        .filter(|(_, i)| *i == Interval::OPT)
                        .count()
                })
                .sum::<usize>();
            assert!(g.node_count() <= schema.type_count() * (2 + opt_edges));
        }
    }

    #[test]
    fn characterizing_graph_detects_non_containment() {
        let h = parse_schema(FIG1).unwrap();
        // K forbids the descr edge entirely (still DetShEx0-: the ?-using
        // types Bug and User remain referenced through related::Bug*).
        let k = parse_schema(
            "Bug -> reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal\n",
        )
        .unwrap();
        let result = det_containment(&h, &k).unwrap();
        assert!(result.is_not_contained());
        let g = result.counter_example().unwrap();
        assert!(validates(g, &h));
        assert!(!validates(g, &k));
    }

    #[test]
    fn lemma_4_2_on_fig1_vs_split_schema() {
        // The split schema is equivalent to Figure 1's but is not
        // deterministic, so det_containment rejects it...
        let h = parse_schema(FIG1).unwrap();
        let split = parse_schema(FIG1_SPLIT).unwrap();
        assert!(det_containment(&h, &split).is_err());
        // ...but the characterizing graph of H still certifies H ⊆ split at
        // the instance level: it validates against the split schema.
        let g = characterizing_graph(&h).unwrap();
        assert!(validates(&g, &h));
        assert!(validates(&g, &split));
    }

    #[test]
    fn rejects_schemas_outside_the_fragment() {
        let with_plus = parse_schema("A -> p::B+\nB -> EMPTY\n").unwrap();
        let plain = parse_schema("A -> p::B\nB -> EMPTY\n").unwrap();
        assert!(det_containment(&with_plus, &plain).is_err());
        assert!(det_containment(&plain, &with_plus).is_err());
        assert!(characterizing_graph(&with_plus).is_err());
        let err = det_containment(&with_plus, &plain).unwrap_err();
        assert!(err.to_string().contains("+"));
    }

    #[test]
    fn opt_edge_variants_force_optionality() {
        // H: Root -children*-> Item, Item -tag?-> Leaf.
        // K1: like H but tag is mandatory; K2: like H but tag is forbidden.
        // Neither contains H, and H is contained in the version with tag?.
        let h =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf?\nLeaf -> EMPTY\n").unwrap();
        let k_mandatory =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf\nLeaf -> EMPTY\n").unwrap();
        let k_forbidden =
            parse_schema("Root -> children::Item*\nItem -> EMPTY\nLeaf -> EMPTY\n").unwrap();
        let k_star =
            parse_schema("Root -> children::Item*\nItem -> tag::Leaf*\nLeaf -> EMPTY\n").unwrap();
        assert!(det_containment(&h, &k_mandatory)
            .unwrap()
            .is_not_contained());
        assert!(det_containment(&h, &k_forbidden)
            .unwrap()
            .is_not_contained());
        assert!(det_containment(&h, &k_star).unwrap().is_contained());
        assert!(det_containment(&k_mandatory, &h).unwrap().is_contained());
        assert!(det_containment(&k_forbidden, &h).unwrap().is_contained());
        assert!(det_containment(&k_star, &h).unwrap().is_not_contained());
        // The characterizing graph of H contains both an Item with a tag and
        // an Item without one.
        let g = characterizing_graph(&h).unwrap();
        assert!(validates(&g, &h));
        assert!(!validates(&g, &k_mandatory));
        assert!(!validates(&g, &k_forbidden));
        assert!(validates(&g, &k_star));
    }
}
