//! Containment for arbitrary shape expression schemas (Section 6 of the
//! paper).
//!
//! Full ShEx containment is coNEXP-hard and only known to be in
//! co2NEXP^NP (Proposition 6.5 and Corollary 6.6); a minimal counter-example
//! may be double-exponential even in compressed form (Theorem 6.4). The
//! procedure here is therefore a budgeted semi-decision procedure that is
//! sound in both directions:
//!
//! * `Contained` is only reported when a syntactic per-type implication holds
//!   (every type of `H` is simulated by a type of `K` under a greatest
//!   fixpoint that uses language inclusion of the candidate neighbourhood
//!   bags) — a sufficient condition in the spirit of embeddings;
//! * `NotContained` is only reported with a counter-example that has been
//!   re-validated against both schemas (using the Presburger-backed
//!   validation of `shapex-shex`);
//! * everything else is `Unknown`.

use std::collections::BTreeSet;

use shapex_rbe::Bag;
use shapex_shex::typing::{neighbourhood_satisfies_with, EdgeSummary, SolverTelemetry};
use shapex_shex::{Atom, Schema, TypeId};

use crate::unfold::{all_bags, SearchOptions};
use crate::Containment;

/// Number of neighbourhood bags per type definition beyond which the
/// sufficient containment check gives up (and the procedure falls through to
/// counter-example search).
const EXHAUSTIVE_BAG_LIMIT: usize = 512;

/// Budget options for [`general_containment`].
pub type GeneralOptions = SearchOptions;

/// Decide `L(H) ⊆ L(K)` for arbitrary ShEx schemas (best effort).
///
/// Delegates to the ShEx₀ procedure when both schemas are RBE₀. This is the
/// one-shot entry point: it runs through a throwaway
/// [`crate::engine::ContainmentEngine`]; callers issuing many queries over
/// the same schemas should hold an engine (or use
/// [`crate::engine::ContainmentEngine::check_matrix`]) so shape graphs,
/// unfolded candidates, and answers are shared across queries.
pub fn general_containment(h: &Schema, k: &Schema, options: &GeneralOptions) -> Containment {
    crate::engine::ContainmentEngine::with_search(options.clone()).check(h, k)
}

/// The exhaustive per-type bag enumeration backing the sufficient check:
/// `Some(bags)` with one complete `L(δ_H(t))` listing per type, or `None`
/// when some definition's language is infinite or larger than
/// [`EXHAUSTIVE_BAG_LIMIT`] (the check is then not attempted).
pub(crate) fn exhaustive_bags(h: &Schema) -> Option<Vec<Vec<Bag<Atom>>>> {
    h.types()
        .map(|t| all_bags(h.def(t), EXHAUSTIVE_BAG_LIMIT))
        .collect()
}

/// A sufficient condition for containment generalizing embeddings to
/// arbitrary shape expressions: a greatest-fixpoint relation `R ⊆ Γ_H × Γ_K`
/// such that for every `(t, s) ∈ R`, every neighbourhood bag in `L(δ_H(t))`
/// can be retyped along `R` so that it satisfies `δ_K(s)`, and such that
/// every type of `H` is related to some type of `K`.
///
/// When this holds, any graph valid w.r.t. `H` can have its `H`-typing
/// translated through `R` into a `K`-typing, so `L(H) ⊆ L(K)`. The condition
/// is not necessary (like embeddings, Figure 4). Soundness requires
/// `bags_per_type` to be the *exhaustive* enumeration produced by
/// [`exhaustive_bags`] for `h` — the engine caches that enumeration per
/// schema so a batch of `K`-partners shares one computation.
pub(crate) fn type_simulation_with_bags(
    h: &Schema,
    bags_per_type: &[Vec<Bag<Atom>>],
    k: &Schema,
    telemetry: Option<&SolverTelemetry>,
) -> bool {
    let mut relation: Vec<BTreeSet<TypeId>> = h
        .types()
        .map(|_| k.types().collect::<BTreeSet<TypeId>>())
        .collect();
    loop {
        let mut changed = false;
        for t in h.types() {
            let candidates: Vec<TypeId> = relation[t.index()].iter().copied().collect();
            for s in candidates {
                if !pair_consistent(&bags_per_type[t.index()], k, s, &relation, telemetry) {
                    relation[t.index()].remove(&s);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    h.types().all(|t| !relation[t.index()].is_empty())
}

fn pair_consistent(
    h_bags: &[Bag<Atom>],
    k: &Schema,
    s: TypeId,
    relation: &[BTreeSet<TypeId>],
    telemetry: Option<&SolverTelemetry>,
) -> bool {
    // Every neighbourhood of t must be acceptable for s once the target types
    // are translated through the relation.
    for bag in h_bags {
        let edges: Vec<EdgeSummary> = bag
            .iter()
            .map(|(atom, count)| EdgeSummary {
                label: atom.label.clone(),
                target_types: relation[atom.target.index()].clone(),
                multiplicity: count,
            })
            .collect();
        // Without a token the check always answers.
        if neighbourhood_satisfies_with(&edges, k.def(s), telemetry, None) != Some(true) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;
    use shapex_shex::typing::validates;

    fn quick() -> GeneralOptions {
        GeneralOptions::quick()
    }

    #[test]
    fn disjunction_widening_is_contained() {
        // H fixes the p-target to A; K allows A or B.
        let h = parse_schema("Root -> p::A\nA -> a::L?\nB -> b::L\nL -> EMPTY\n").unwrap();
        let k = parse_schema("Root -> p::A | p::B\nA -> a::L?\nB -> b::L\nL -> EMPTY\n").unwrap();
        assert!(general_containment(&h, &k, &quick()).is_contained());
        // The converse fails: a Root whose child is a B-node is valid for K
        // but not for H.
        let result = general_containment(&k, &h, &quick());
        let witness = result.counter_example().expect("not contained");
        assert!(validates(witness, &k) && !validates(witness, &h));
    }

    #[test]
    fn interval_refinement_with_disjunction() {
        // H: exactly two q-children. K: one or two q-children (via
        // disjunction). H ⊆ K holds; K ⊄ H.
        let h = parse_schema("T -> q::L[2;2]\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> q::L | (q::L, q::L)\nL -> EMPTY\n").unwrap();
        assert!(general_containment(&h, &k, &quick()).is_contained());
        let reverse = general_containment(&k, &h, &quick());
        let witness = reverse.counter_example().expect("not contained");
        assert!(validates(witness, &k) && !validates(witness, &h));
    }

    #[test]
    fn rbe0_inputs_delegate_to_shex0() {
        // h requires exactly two p-children, k any number; h ⊆ k but a node
        // with a single p-child separates the other direction.
        let h = parse_schema("T -> p::L, p::L\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
        assert!(general_containment(&h, &k, &quick()).is_contained());
        assert!(general_containment(&k, &h, &quick()).is_not_contained());
    }

    #[test]
    fn unbounded_repetition_disables_the_sufficient_check() {
        // Both schemas use `*`, so the type-simulation check is not trusted;
        // the identical pair is still recognised as contained through the
        // RBE0/embedding path... unless the expression is genuinely non-RBE0,
        // in which case the procedure may answer Unknown — but never a wrong
        // NotContained.
        let h = parse_schema("T -> (p::L, q::L)*\nL -> EMPTY\n").unwrap();
        let result = general_containment(&h, &h, &quick());
        assert!(!result.is_not_contained());
    }

    #[test]
    fn nested_group_non_containment() {
        // H: pairs of (p, q) children, zero or one pair. K: at most one p and
        // at most one q but also requires r. Counter-example: a node with a
        // (p, q) pair and no r.
        let h = parse_schema("T -> (p::L, q::L)?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> p::L?, q::L?, r::L\nL -> EMPTY\n").unwrap();
        let result = general_containment(&h, &k, &quick());
        let witness = result.counter_example().expect("not contained");
        assert!(validates(witness, &h) && !validates(witness, &k));
    }
}
