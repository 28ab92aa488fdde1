//! Containment for `ShEx₀` — schemas whose definitions are RBE₀, equivalently
//! shape graphs (Section 5 of the paper).
//!
//! Containment for this class is EXP-hard and in coNEXP (Theorems 5.3 and
//! 5.4), and a minimal counter-example can be exponentially large
//! (Lemma 5.1). [`shex0_containment`] is sound in both directions and
//! complete in the following cases:
//!
//! 1. the embedding `H ≼ K` holds (then containment holds, Lemma 3.3);
//! 2. both schemas are in `DetShEx₀⁻` (then embedding is also necessary,
//!    Corollary 4.3, and the characterizing graph of Lemma 4.2 is returned as
//!    the counter-example when it fails);
//! 3. the type-set fixpoint of [`crate::fixpoint`] stays within its
//!    constant evaluation budget — it decides containment exactly, with a
//!    certified counter-example when it fails. No pair of the benchmark's
//!    corpus comes near that budget;
//! 4. for a pair over that budget, a counter-example exists within the
//!    systematic unfolding budget (it is returned, certified by
//!    re-validation).
//!
//! Otherwise (a pair over the fixpoint's budget that the bounded search
//! cannot refute) the procedure reports [`Containment::Unknown`].

use shapex_shex::Schema;

use crate::unfold::SearchOptions;
use crate::Containment;

/// Budget options for [`shex0_containment`].
pub type Shex0Options = SearchOptions;

/// Decide `L(H) ⊆ L(K)` for `ShEx₀` schemas (best effort; see the module
/// documentation for the exact completeness guarantees).
///
/// Falls back to the general procedure when either schema is not RBE₀.
///
/// This is the one-shot entry point: it runs through a throwaway
/// [`crate::engine::ContainmentEngine`] (embedding between the cached shape
/// graphs first, then the `DetShEx₀⁻` characterizing-graph shortcut, then
/// the type-set fixpoint, and the pooled systematic search only for a pair
/// over the fixpoint's budget). Callers issuing many queries over the same
/// schemas should hold an engine so those caches — the shape graphs, the
/// embedding verdicts and the fixpoint's outcomes — survive across calls.
pub fn shex0_containment(h: &Schema, k: &Schema, options: &Shex0Options) -> Containment {
    crate::engine::ContainmentEngine::with_search(options.clone()).check(h, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;
    use shapex_shex::typing::validates;

    fn quick() -> Shex0Options {
        Shex0Options::quick()
    }

    #[test]
    fn equivalent_schemas_are_mutually_contained() {
        // Figure 1's schema vs. the User1/User2 split from the introduction.
        let original = parse_schema(
            "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal\n",
        )
        .unwrap();
        let split = parse_schema(
            "Bug1 -> descr::Literal, reportedBy::User1, reproducedBy::Employee?, related::Bug1*, related::Bug2*\n\
             Bug2 -> descr::Literal, reportedBy::User2, reproducedBy::Employee?, related::Bug1*, related::Bug2*\n\
             User1 -> name::Literal\n\
             User2 -> name::Literal, email::Literal\n\
             Employee -> name::Literal, email::Literal\n",
        )
        .unwrap();
        // split ⊆ original: every Bug1/Bug2 node is a Bug, every User1/User2 a
        // User. This direction is visible to the embedding check.
        assert!(shex0_containment(&split, &original, &quick()).is_contained());
        // original ⊆ split also holds semantically (the intro's argument), but
        // no embedding exists because `User` is only covered by the *union* of
        // User1 and User2, and the split schema is outside DetShEx0-: the
        // type-set fixpoint proves it.
        let forward = shex0_containment(&original, &split, &quick());
        assert!(
            forward.is_contained(),
            "the paper's equivalence claim, proven by the fixpoint: {forward}"
        );
    }

    #[test]
    fn non_containment_with_certificate() {
        let h = parse_schema("Bug -> descr::Literal, related::Bug*\nLiteral -> EMPTY\n").unwrap();
        let k = parse_schema("Bug -> descr::Literal, related::Bug?\nLiteral -> EMPTY\n").unwrap();
        // h allows arbitrarily many related bugs, k at most one.
        let result = shex0_containment(&h, &k, &quick());
        let witness = result.counter_example().expect("not contained");
        assert!(validates(witness, &h));
        assert!(!validates(witness, &k));
        // The converse holds.
        assert!(shex0_containment(&k, &h, &quick()).is_contained());
    }

    #[test]
    fn non_deterministic_schemas_still_find_counter_examples() {
        // H uses the same label twice (not deterministic): a node needs one
        // `p` to an A-node and one `p` to a B-node; K requires both targets to
        // be A-nodes.
        let h = parse_schema("Root -> p::A, p::B\nA -> mark_a::L?\nB -> mark_b::L\nL -> EMPTY\n")
            .unwrap();
        let k = parse_schema("Root -> p::A, p::A\nA -> mark_a::L?\nB -> mark_b::L\nL -> EMPTY\n")
            .unwrap();
        let result = shex0_containment(&h, &k, &quick());
        let witness = result.counter_example().expect("not contained");
        assert!(validates(witness, &h) && !validates(witness, &k));
    }

    #[test]
    fn figure_4_star_unfolding() {
        // L(G) = L(H) where H enumerates b* as (no b | one b | b plus more),
        // expressed with three root types. The direction H ⊆ G is found via
        // embedding; G ⊆ H has no embedding (Figure 4), and the type-set
        // fixpoint proves it.
        let g = parse_schema("G -> a::Leaf*, b::Leaf*\nLeaf -> EMPTY\n").unwrap();
        let h = parse_schema(
            "H0 -> a::Leaf*\n\
             H1 -> a::Leaf*, b::Leaf\n\
             H2 -> a::Leaf*, b::Leaf, b::Leaf*\n\
             Leaf -> EMPTY\n",
        )
        .unwrap();
        assert!(shex0_containment(&h, &g, &quick()).is_contained());
        let forward = shex0_containment(&g, &h, &quick());
        assert!(forward.is_contained(), "{forward}");
    }

    #[test]
    fn empty_language_schema_is_contained_in_everything() {
        // A type with an unsatisfiable mandatory cycle has an empty language
        // of rooted unfoldings... but other types (Literal) still admit
        // instances, so containment questions remain meaningful. Here both
        // schemas accept exactly the single-node graphs, so containment holds
        // in both directions via embedding.
        let h = parse_schema("Loop -> next::Loop\n").unwrap();
        let k = parse_schema("Loop -> next::Loop?\n").unwrap();
        assert!(shex0_containment(&h, &k, &quick()).is_contained());
        // k ⊆ h fails: a single node with no edges satisfies k (next? absent)
        // but not h (next is mandatory).
        let result = shex0_containment(&k, &h, &quick());
        let witness = result.counter_example().expect("not contained");
        assert!(validates(witness, &k) && !validates(witness, &h));
    }
}
