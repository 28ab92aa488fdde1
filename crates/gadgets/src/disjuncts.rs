//! Disjunct-heavy general-containment gadgets.
//!
//! The reductions of [`crate::reductions`] resolve in well under a
//! millisecond, which makes them useless for measuring solver-level
//! optimisations. The pairs here are built so that the §6 procedure spends
//! its time inside the Presburger solver: every schema `K` in the family
//! defines its root as an unordered concatenation of *choice groups*
//!
//! ```text
//! Root -> (a1::L | b1::L)[1;2] || … || (ag::L | bg::L)[1;2]
//! ```
//!
//! The definition is not RBE₀ (disjunction under repetition), so every
//! neighbourhood check — in the sufficient type-simulation and in the
//! candidate filtering of the counter-example search — takes the ψ
//! translation into the bounded solver, and every group contributes an
//! independent branch point. On the Unsat side the solver must refute every
//! branch combination.

use shapex_rbe::{Interval, Rbe};
use shapex_shex::{Atom, Schema, TypeId};

/// The choice-group definition `(a1::L | b1::L)[1;2] || …` over `groups`
/// groups.
fn choice_groups(groups: usize, leaf: TypeId) -> Rbe<Atom> {
    let parts: Vec<Rbe<Atom>> = (1..=groups)
        .map(|i| {
            Rbe::repeat(
                Rbe::disj(vec![
                    Rbe::symbol(Atom::new(format!("a{i}"), leaf)),
                    Rbe::symbol(Atom::new(format!("b{i}"), leaf)),
                ]),
                Interval::bounded(1, 2),
            )
        })
        .collect();
    Rbe::concat(parts)
}

/// A contained pair `(H, K)` with `groups` choice groups: `H` commits to the
/// `aᵢ` alternative of every group exactly once, so `L(H) ⊆ L(K)` — and the
/// sufficient check must prove it through one satisfiable-but-branchy solver
/// query per candidate type pair.
pub fn disjunct_choice_pair(groups: usize) -> (Schema, Schema) {
    let mut h = Schema::new();
    let root = h.add_type("Root");
    let leaf = h.add_type("L");
    let atoms: Vec<(String, TypeId, Interval)> = (1..=groups)
        .map(|i| (format!("a{i}"), leaf, Interval::ONE))
        .collect();
    let atom_refs: Vec<(&str, TypeId, Interval)> =
        atoms.iter().map(|(l, t, i)| (l.as_str(), *t, *i)).collect();
    h.define_rbe0(root, &atom_refs);
    h.define(leaf, Rbe::Epsilon);

    let k = choice_schema(groups);
    (h, k)
}

/// A non-contained pair `(H, K)` with `groups` choice groups: `H` demands
/// three copies of `a1`, one more than group 1 can supply, so `L(H) ⊄ L(K)`
/// and every solver query on the way to the verdict is unsatisfiable — the
/// solver explores the full branch tree of every group.
pub fn disjunct_mismatch_pair(groups: usize) -> (Schema, Schema) {
    let mut h = Schema::new();
    let root = h.add_type("Root");
    let leaf = h.add_type("L");
    let mut atoms: Vec<(String, TypeId, Interval)> =
        vec![("a1".to_string(), leaf, Interval::exactly(3))];
    for i in 2..=groups {
        atoms.push((format!("a{i}"), leaf, Interval::ONE));
    }
    let atom_refs: Vec<(&str, TypeId, Interval)> =
        atoms.iter().map(|(l, t, i)| (l.as_str(), *t, *i)).collect();
    h.define_rbe0(root, &atom_refs);
    h.define(leaf, Rbe::Epsilon);

    let k = choice_schema(groups);
    (h, k)
}

/// The `K` schema shared by the pairs of this family.
fn choice_schema(groups: usize) -> Schema {
    let mut k = Schema::new();
    let root = k.add_type("Root");
    let leaf = k.add_type("L");
    let def = choice_groups(groups, leaf);
    k.define(root, def);
    k.define(leaf, Rbe::Epsilon);
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_core::general::{general_containment, GeneralOptions};
    use shapex_core::Containment;

    #[test]
    fn the_k_schema_is_genuinely_non_rbe0() {
        let (_, k) = disjunct_choice_pair(3);
        let root = k.find_type("Root").expect("root exists");
        assert!(
            k.def(root).to_rbe0().is_none(),
            "the family must dodge the RBE0 flow fast path to reach the solver"
        );
    }

    #[test]
    fn choice_pairs_are_contained() {
        for groups in [1, 2, 4] {
            let (h, k) = disjunct_choice_pair(groups);
            let verdict = general_containment(&h, &k, &GeneralOptions::quick());
            assert!(
                verdict.is_contained(),
                "H commits to one alternative per group, so H ⊆ K (groups={groups})"
            );
        }
    }

    #[test]
    fn mismatch_pairs_are_not_contained() {
        for groups in [1, 2, 4] {
            let (h, k) = disjunct_mismatch_pair(groups);
            let verdict = general_containment(&h, &k, &GeneralOptions::quick());
            match verdict {
                Containment::NotContained { .. } => {}
                other => panic!("three a1 copies exceed group 1 (groups={groups}): {other:?}"),
            }
        }
    }

    #[test]
    fn the_family_reaches_the_presburger_solver() {
        use shapex_core::engine::ContainmentEngine;
        let (h, k) = disjunct_choice_pair(3);
        let engine = ContainmentEngine::with_search(shapex_core::unfold::SearchOptions::quick());
        let hid = engine.register(&h);
        let kid = engine.register(&k);
        let _ = engine.check_ids(hid, kid, None);
        let stats = engine.stats();
        assert!(
            stats.solver_calls > 0,
            "the gadget must exercise the solver path: {stats}"
        );
    }

    #[test]
    fn candidate_validation_counts_its_solver_calls() {
        use shapex_core::engine::ContainmentEngine;
        // H has no finite language, so the sufficient check gives up before
        // the solver; only validating the search's candidates against K's
        // choice-group root reaches it.
        let h = shapex_shex::parse_schema("Root -> a1::L*\nL -> EMPTY\n").unwrap();
        let (_, k) = disjunct_choice_pair(1);
        let engine = ContainmentEngine::with_search(shapex_core::unfold::SearchOptions::quick());
        let (hid, kid) = (engine.register(&h), engine.register(&k));
        let _ = engine.check_ids(hid, kid, None);
        let stats = engine.stats();
        assert!(stats.validate_misses > 0, "{stats}");
        assert!(
            stats.solver_calls >= stats.validate_misses,
            "every validation runs the solver on the root: {stats}"
        );
    }
}
