//! Arena-equivalence suite: the arena-backed, deduplicating candidate
//! pipeline must be observationally identical to the retained memo-free
//! baseline — same witnesses node/edge-for-edge on random schema pairs, and
//! dedup/caps must interact exactly like the historical enumeration
//! (deduplication shares storage; it never drops a candidate the budget
//! would have admitted).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_core::baseline::search_counter_example_baseline;
use shapex_core::engine::ContainmentEngine;
use shapex_core::unfold::{enumerate_members, search_counter_example, SearchOptions, Unfolder};
use shapex_shex::parse_schema;
use shapex_shex::typing::validates;

mod common;
use common::{graph_key, random_schema, tiny};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: the arena-backed search (one-shot wrapper and
    /// warm engine alike) returns the *identical* witness graph —
    /// node-for-node, edge-for-edge, including node names — as the retained
    /// baseline, or agrees that none exists within the budget.
    #[test]
    fn arena_search_returns_the_baseline_witness(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_schema(&mut rng, 5, 3);
        let k = random_schema(&mut rng, 4, 3);
        let opts = tiny();
        for (a, b) in [(&h, &k), (&k, &h)] {
            let baseline = search_counter_example_baseline(a, b, &opts);
            let arena = search_counter_example(a, b, &opts);
            match (&baseline, &arena) {
                (None, None) => {}
                (Some(base), Some(found)) => {
                    prop_assert_eq!(graph_key(base), graph_key(found));
                    prop_assert!(validates(found, a));
                    prop_assert!(!validates(found, b));
                }
                _ => prop_assert!(
                    false,
                    "baseline found={} arena found={}",
                    baseline.is_some(),
                    arena.is_some()
                ),
            }
            // A warm engine (a second identical search over the unfolders
            // the first one filled) must return the same witness again.
            let engine = ContainmentEngine::with_search(opts.clone());
            let cold = engine.counter_example(a, b);
            let warm = engine.counter_example(a, b);
            prop_assert_eq!(
                cold.as_ref().map(graph_key),
                baseline.as_ref().map(graph_key)
            );
            prop_assert_eq!(
                warm.as_ref().map(graph_key),
                baseline.as_ref().map(graph_key)
            );
        }
    }

    /// Every enumerated pool member is a real member of `L(schema)` — the
    /// certified-by-construction fast path may never admit a non-member.
    #[test]
    fn enumerated_members_all_validate(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng, 5, 3);
        let opts = tiny();
        for root in schema.types() {
            for graph in enumerate_members(&schema, root, &opts) {
                prop_assert!(validates(&graph, &schema));
            }
        }
    }
}

/// Dedup shares storage between structurally identical subtrees; it must not
/// change *which* candidates a budget admits. With `max_candidates = M`, the
/// enumeration returns exactly the first `M` candidates of the uncapped
/// order — in particular the M-th (last) one is present, not dropped.
#[test]
fn dedup_never_drops_the_last_candidate_below_max_candidates() {
    // Four optional edges → 16 distinct member graphs of depth 1.
    let schema = parse_schema("Root -> a::L?, b::L?, c::L?, d::L?\nL -> EMPTY\n").unwrap();
    let root = schema.find_type("Root").unwrap();
    let uncapped = SearchOptions {
        max_depth: 2,
        max_candidates: 1_000,
        ..SearchOptions::default()
    };
    let full = enumerate_members(&schema, root, &uncapped);
    assert!(full.len() >= 16, "expected a rich pool, got {}", full.len());
    // Every candidate is distinct (the arena interns structurally identical
    // trees, so duplicates would collapse — there must be none to begin
    // with).
    let keys: Vec<String> = full.iter().map(graph_key).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), keys.len(), "enumeration produced duplicates");
    for cap in [1usize, 7, 15, 16] {
        let capped = enumerate_members(
            &schema,
            root,
            &SearchOptions {
                max_candidates: cap,
                ..uncapped.clone()
            },
        );
        assert_eq!(capped.len(), cap, "cap {cap} must be filled exactly");
        for (i, graph) in capped.iter().enumerate() {
            assert_eq!(
                graph_key(graph),
                keys[i],
                "candidate {i} under cap {cap} diverged from the uncapped order"
            );
        }
    }
}

/// The unfolder's memoisation is transparent: re-enumerating any
/// `(root, depth)` through a shared unfolder yields the same members as a
/// fresh one, and the shared arena grows only on first encounter.
#[test]
fn shared_unfolder_is_transparent_across_depths() {
    let schema = parse_schema("Root -> child::Mid*\nMid -> leaf::Leaf?\nLeaf -> EMPTY\n").unwrap();
    let root = schema.find_type("Root").unwrap();
    let mut shared = Unfolder::new();
    for depth in 1..=3usize {
        let opts = SearchOptions {
            max_depth: depth,
            ..SearchOptions::quick()
        };
        let from_shared: Vec<String> = shared
            .members(&schema, root, &opts, None)
            .expect("no token")
            .iter()
            .map(|g| graph_key(g))
            .collect();
        let from_fresh: Vec<String> = enumerate_members(&schema, root, &opts)
            .iter()
            .map(graph_key)
            .collect();
        assert_eq!(from_shared, from_fresh, "depth {depth} members diverge");
    }
    let after_enumeration = shared.arena().len();
    // Asking for the deepest pool again must not intern anything new.
    let opts = SearchOptions {
        max_depth: 3,
        ..SearchOptions::quick()
    };
    let _ = shared.members(&schema, root, &opts, None);
    assert_eq!(shared.arena().len(), after_enumeration);
}
