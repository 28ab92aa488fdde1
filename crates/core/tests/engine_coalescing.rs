//! Single-flight coalescing suite: duplicate concurrent `(h, k)` checks must
//! collapse onto one computation — provably, via the engine's own counters —
//! and coalesced verdicts must be indistinguishable from the ones a fresh,
//! uncontended engine computes.
//!
//! Run in release in CI (`cargo test -p shapex-core --release --test
//! engine_coalescing`) so the hammer exercises real interleavings rather
//! than debug-build lockstep.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shapex_core::engine::ContainmentEngine;
use shapex_core::unfold::SearchOptions;
use shapex_core::Containment;
use shapex_graph::generate::GraphGen;
use shapex_shex::Schema;

mod common;
use common::{choice_groups, same_answer, shex0_oracle, tiny};

/// A search budget big enough that checking a choice-group schema against
/// itself exhausts it over tens of milliseconds (it budget-exhausts at any
/// size — no counter-example exists, and the sufficient check gives up on
/// the schema's many bags). The computation must take long enough that
/// every hammer thread reaches the in-flight table while the leader's search
/// is still running, even under scheduler noise; with a microsecond-fast
/// check the followers could miss the flight and the counter assertions
/// below would flake.
fn heavy() -> SearchOptions {
    SearchOptions {
        max_candidates: 20_000,
        ..SearchOptions::default()
    }
}

/// Eight threads issue the identical check simultaneously; the engine's own
/// counters prove exactly one search ran: seven queries coalesced, and the
/// hammered engine did precisely the pool builds and validation misses of a
/// fresh engine answering the check once.
#[test]
fn eight_identical_checks_run_one_search() {
    let h = choice_groups(6);
    let k = h.clone();

    // The uncontended reference: one engine, one check.
    let reference_engine = ContainmentEngine::with_search(heavy());
    let (rh, rk) = (reference_engine.register(&h), reference_engine.register(&k));
    let reference = reference_engine.check_ids(rh, rk, None);
    let reference_stats = reference_engine.stats();
    assert_eq!(reference_stats.coalesced_queries, 0, "no concurrency yet");
    assert!(
        matches!(reference, Containment::Unknown(_)),
        "no counter-example exists and no sufficient check applies; the search must exhaust its budget"
    );

    const THREADS: usize = 8;
    let engine = Arc::new(ContainmentEngine::with_search(heavy()));
    let ids = (engine.register(&h), engine.register(&k));
    let barrier = Barrier::new(THREADS);
    let verdicts: Vec<Containment> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = &engine;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.check_ids(ids.0, ids.1, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|t| t.join().expect("hammer thread panicked"))
            .collect()
    });

    for verdict in &verdicts {
        assert!(
            same_answer(verdict, &reference),
            "coalesced verdict diverged: {verdict} vs {reference}"
        );
    }
    let stats = engine.stats();
    assert_eq!(
        stats.coalesced_queries,
        THREADS as u64 - 1,
        "every follower must share the leader's flight: {stats}"
    );
    assert_eq!(
        stats.pools_built, reference_stats.pools_built,
        "eight concurrent checks must build pools exactly once: {stats}"
    );
    assert_eq!(
        stats.validate_misses, reference_stats.validate_misses,
        "eight concurrent checks must validate like a single check: {stats}"
    );
}

/// Random ShEx₀ pairs via the shape-graph round-trip, as in the concurrency
/// suite: the full basic-interval mix, many outside `DetShEx₀⁻`.
fn random_pair(seed: u64) -> (Schema, Schema) {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Schema::from_shape_graph(&GraphGen::new(4, 3).out_degree(2.0).shape(&mut rng));
    let k = Schema::from_shape_graph(&GraphGen::new(4, 3).out_degree(2.0).shape(&mut rng));
    (h, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Four threads racing the identical random check through one coalescing
    /// engine answer exactly what a fresh serial engine answers — and both
    /// match the memo-free oracle (Unknown compared by variant: the oracle
    /// does not model engine-side budget accounting).
    #[test]
    fn coalesced_verdicts_equal_fresh_engine_verdicts(seed in 0u64..100_000) {
        let (h, k) = random_pair(seed);
        let opts = tiny();
        let fresh = ContainmentEngine::with_search(opts.clone()).check(&h, &k);

        let engine = Arc::new(ContainmentEngine::with_search(opts.clone()));
        let ids = (engine.register(&h), engine.register(&k));
        let barrier = Barrier::new(4);
        let verdicts: Vec<Containment> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = &engine;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        engine.check_ids(ids.0, ids.1, None)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|t| t.join().expect("racer panicked"))
                .collect()
        });

        for verdict in &verdicts {
            prop_assert!(
                same_answer(verdict, &fresh),
                "seed {}: coalesced {} vs fresh {}",
                seed, verdict, fresh
            );
        }
        let oracle = shex0_oracle(&h, &k, &opts);
        match (&fresh, &oracle) {
            (Containment::Unknown(_), Containment::Unknown(_)) => {}
            _ => prop_assert!(
                same_answer(&fresh, &oracle),
                "seed {}: engine {} vs oracle {}",
                seed, fresh, oracle
            ),
        }
    }
}
