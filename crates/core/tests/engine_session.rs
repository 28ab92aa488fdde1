//! Session-equivalence property suite: the memoising
//! `ContainmentEngine` must answer exactly like the stateless paper
//! pipeline on random schema pairs — same verdicts *and* same witnesses —
//! whether the engine is cold, warm (second identical query), or queried
//! under a cancellation token; and `check_matrix` must equal the N²
//! individual calls.
//!
//! The oracle is built from the retained memo-free pieces: `embeds` between
//! shape graphs, the `DetShEx₀⁻` characterizing-graph shortcut,
//! `fixpoint::decide`, and `baseline::search_counter_example_baseline` (the
//! pooling-free search) for pairs the fixpoint leaves open — the pipeline
//! `shex0_containment` runs, without the engine's caches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_core::baseline::search_counter_example_baseline;
use shapex_core::engine::ContainmentEngine;
use shapex_core::general::general_containment;
use shapex_core::shex0::shex0_containment;
use shapex_core::UnknownReason;
use shapex_core::{CancelToken, Containment};
use shapex_shex::{parse_schema, Schema};

mod common;
use common::{choice_groups, graph_key, random_schema, same_answer, shex0_oracle, tiny};

/// Assert every engine configuration agrees with the oracle on a pair.
fn engines_agree(h: &Schema, k: &Schema) {
    let opts = tiny();
    let oracle = shex0_oracle(h, k, &opts);
    let one_shot = shex0_containment(h, k, &opts);

    // One-shot wrapper (throwaway engine) vs. the memo-free pipeline: the
    // verdict and, for NotContained, the exact witness must match. Unknown
    // reasons are engine-side information the oracle does not model, so they
    // are compared by variant only.
    match (&oracle, &one_shot) {
        (Containment::Unknown(_), Containment::Unknown(_)) => {}
        _ => assert!(
            same_answer(&oracle, &one_shot),
            "one-shot disagrees with the memo-free oracle:\n  oracle: {oracle}\n  engine: {one_shot}"
        ),
    }

    // A shared session answering the query twice: the warm pass is a memo
    // hit and must answer identically.
    let session = ContainmentEngine::with_search(opts.clone());
    let cold = session.check(h, k);
    let misses_after_cold = session.stats().validate_misses;
    let warm = session.check(h, k);
    assert!(same_answer(&cold, &warm), "warm session changed its answer");
    assert_eq!(
        session.stats().validate_misses,
        misses_after_cold,
        "warm session re-validated a candidate"
    );
    assert!(
        same_answer(&one_shot, &cold),
        "session disagrees with one-shot"
    );

    // The token route: a token that never fires makes a fresh engine skip
    // coalescing, and it must still answer like the coalesced route.
    let tokened = ContainmentEngine::with_search(opts);
    let (hid, kid) = (tokened.register(h), tokened.register(k));
    let via_token = tokened.check_ids(hid, kid, Some(&CancelToken::new()));
    assert!(
        same_answer(&cold, &via_token),
        "the token route disagrees with the coalesced route"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_oracle_on_random_pairs(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_schema(&mut rng, 5, 3);
        let k = random_schema(&mut rng, 4, 3);
        engines_agree(&h, &k);
        engines_agree(&k, &h);
        // Reflexive pairs resolve via embedding — the memoised fast path.
        engines_agree(&h, &h);
    }

    #[test]
    fn pooled_search_matches_baseline_search(seed in 0u64..100_000) {
        // The raw search entry point: same witness (or same absence), not
        // just the same verdict.
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_schema(&mut rng, 4, 2);
        let k = random_schema(&mut rng, 4, 2);
        let opts = tiny();
        let baseline = search_counter_example_baseline(&h, &k, &opts);
        let pooled = ContainmentEngine::with_search(opts.clone()).counter_example(&h, &k);
        match (&baseline, &pooled) {
            (None, None) => {}
            (Some(b), Some(p)) => prop_assert_eq!(graph_key(b), graph_key(p)),
            _ => prop_assert!(false, "baseline {:?} vs pooled {:?}", baseline.is_some(), pooled.is_some()),
        }
    }
}

#[test]
fn check_matrix_equals_individual_calls() {
    // A mixed family: DetShEx0-, plain ShEx0 (+ intervals), non-deterministic
    // ShEx0, and full ShEx (disjunction) — every dispatch route of `check`.
    let texts = [
        "T -> p::L?\nL -> EMPTY\n",
        "T -> p::L*\nL -> EMPTY\n",
        "T -> p::L+\nL -> EMPTY\n",
        "T -> p::L, p::L?\nL -> EMPTY\n",
        "T -> p::L | (p::L, p::L)\nL -> EMPTY\n",
    ];
    let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
    let opts = tiny();
    let matrix = ContainmentEngine::with_search(opts.clone()).check_matrix(&schemas);
    assert_eq!(matrix.len(), schemas.len());
    for (i, row) in matrix.iter().enumerate() {
        assert_eq!(row.len(), schemas.len());
        for (j, cell) in row.iter().enumerate() {
            // N² individual calls through fresh sessions...
            let fresh =
                ContainmentEngine::with_search(opts.clone()).check(&schemas[i], &schemas[j]);
            assert!(
                same_answer(cell, &fresh),
                "matrix[{i}][{j}] = {cell} but a fresh session answers {fresh}"
            );
            // ...and through the public one-shot function.
            let one_shot = general_containment(&schemas[i], &schemas[j], &opts);
            assert!(
                same_answer(cell, &one_shot),
                "matrix[{i}][{j}] = {cell} but general_containment answers {one_shot}"
            );
        }
    }
}

#[test]
fn unknown_reasons_distinguish_exhaustion_from_unexplorable_inputs() {
    let opts = tiny();
    // A choice-group schema against itself: contained, outside RBE₀, with
    // too many bags for the sufficient check, and every candidate validates
    // against itself, so the budget runs dry with a positive count.
    let groups = choice_groups(4);
    let exhausted = general_containment(&groups, &groups, &opts);
    match exhausted.unknown_reason() {
        Some(UnknownReason::BudgetExhausted { candidates, depth }) => {
            assert!(*candidates > 0);
            assert_eq!(*depth, opts.max_depth);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // Mandatory cycles everywhere (and a disjunction keeping the pair off
    // the RBE₀ procedures): no type has a finite unfolding, so the search
    // inspects zero candidates. (`L(looped)` still contains cyclic graphs
    // the unfolding search cannot reach, hence Unknown rather than
    // Contained.)
    let looped = parse_schema("T -> (p::T, p::U) | (r::T, p::U)\nU -> q::T\n").unwrap();
    let incomparable = parse_schema("T -> z::T\n").unwrap();
    let unexplorable = general_containment(&looped, &incomparable, &opts);
    assert_eq!(
        unexplorable.unknown_reason(),
        Some(&UnknownReason::NotSupported),
        "a searchless give-up must say NotSupported, got {unexplorable}"
    );
}

#[test]
fn session_reuses_pools_across_partners() {
    // The batch-workload claim behind check_matrix: h's unfolder enumerates
    // its pools for the first partner and already holds them for the
    // second. The pairs are outside RBE₀ and the sufficient check gives up
    // on h's many bags, so both go to the bounded search. Against itself h
    // exhausts the budget, walking every pool; the five-group schema
    // refutes it.
    let h = choice_groups(4);
    let k1 = choice_groups(4);
    let k2 = choice_groups(5);
    let session = ContainmentEngine::with_search(tiny());
    let _ = session.check(&h, &k1);
    let built_after_first = session.stats().pools_built;
    assert!(built_after_first > 0);
    let _ = session.check(&h, &k2);
    assert_eq!(
        session.stats().pools_built,
        built_after_first,
        "the second partner must reuse h's pools"
    );
}
