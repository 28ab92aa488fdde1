//! Bounded-memory equivalence suite: a `ContainmentEngine` running under a
//! deliberately tiny cache budget must be *observationally identical* to the
//! unbounded engine and to the memo-free oracle — same verdicts, same
//! witnesses — while its accounted evictable bytes respect the budget at
//! every query exit. Eviction may only ever cost recomputation, never
//! change an answer.
//!
//! The suite also pins the accounting itself: a deterministic workload that
//! provably overflows a small budget must report evictions, sweeps, freed
//! bytes, and pinned (non-evictable) residency through `EngineStats`.
//!
//! Random shape-graph schemas are ShEx₀, so the type-set fixpoint decides
//! all of their pairs; every family here therefore also holds schemas
//! outside ShEx₀, whose pairs reach the sufficient check and the bounded
//! search, and each test asserts that its run built search pools.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_core::engine::{ContainmentEngine, EngineOptions};
use shapex_core::Containment;
use shapex_shex::{parse_schema, Schema};

mod common;
use common::{certified, mixed_family, same_answer, shex0_oracle, tiny};

/// A budget far below what even one warm pair needs, so sweeps fire on
/// nearly every query.
const TINY_BUDGET: u64 = 512;

fn budgeted(budget: u64) -> ContainmentEngine {
    ContainmentEngine::with_options(
        EngineOptions::builder()
            .search(tiny())
            .cache_budget(budget)
            .build(),
    )
}

/// The core invariant: over a whole session of queries (every ordered pair,
/// twice, so warm hits and evicted-then-rebuilt paths both occur), the
/// tiny-budget engine answers exactly like the unbounded engine — and, for
/// RBE₀ pairs, like the memo-free oracle — every witness is certified, and
/// no query finishes with more accounted evictable bytes than the budget.
#[test]
fn tiny_budget_is_observationally_invisible() {
    let mut seeds = StdRng::seed_from_u64(0xE71C7);
    let mut pools_built = 0;
    for _case in 0..16 {
        let seed = seeds.gen_range(0u64..100_000);
        let family = mixed_family(seed, 3);
        let opts = tiny();
        let unbounded = ContainmentEngine::with_search(opts.clone());
        let squeezed = budgeted(TINY_BUDGET);

        for round in 0..2usize {
            for (i, h) in family.iter().enumerate() {
                for (j, k) in family.iter().enumerate() {
                    let free = unbounded.check(h, k);
                    let tight = squeezed.check(h, k);
                    assert!(
                        same_answer(&free, &tight),
                        "seed {seed} round {round} pair [{i}][{j}]: unbounded {free} vs budgeted {tight}"
                    );
                    assert!(
                        certified(&tight, h, k),
                        "seed {seed} pair [{i}][{j}]: uncertified witness {tight}"
                    );
                    // Oracle agreement (Unknown compared by variant: the
                    // oracle does not model engine-side reasons).
                    if h.is_rbe0() && k.is_rbe0() {
                        let oracle = shex0_oracle(h, k, &opts);
                        match (&tight, &oracle) {
                            (Containment::Unknown(_), Containment::Unknown(_)) => {}
                            _ => assert!(
                                same_answer(&tight, &oracle),
                                "seed {seed} pair [{i}][{j}]: budgeted {tight} vs oracle {oracle}"
                            ),
                        }
                    }
                    // The budget invariant holds at every query exit, not
                    // just at the end of the session.
                    let stats = squeezed.stats();
                    assert!(
                        stats.evictable_bytes() <= TINY_BUDGET,
                        "evictable bytes exceed the budget mid-session: {stats}"
                    );
                }
            }
        }

        // The unbounded control never sweeps; the squeezed engine did real
        // work under pressure and its ledger stayed coherent.
        assert_eq!(unbounded.stats().evictions, 0);
        let stats = squeezed.stats();
        assert!(stats.pinned_bytes > 0, "registered schemas are pinned");
        assert_eq!(stats.cache_budget, Some(TINY_BUDGET));
        pools_built += stats.pools_built;
    }
    assert!(pools_built > 0, "no pair reached the bounded search");
}

/// A deterministic workload that provably overflows a 512-byte budget: the
/// stats surface must show the sweeps happening and the freed bytes flowing
/// back, and a warm re-query must still match a fresh unbounded engine.
#[test]
fn eviction_counters_report_real_sweeps() {
    let texts = [
        "T -> p::L?\nL -> EMPTY\n",
        "T -> p::L*\nL -> EMPTY\n",
        "T -> p::L+\nL -> EMPTY\n",
        "T -> p::L, p::L?\nL -> EMPTY\n",
        "Root -> p::A, p::B\nA -> a::L?\nB -> b::L\nL -> EMPTY\n",
    ];
    let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
    let reference = ContainmentEngine::with_search(tiny()).check_matrix(&schemas);

    let engine = budgeted(TINY_BUDGET);
    for round in 0..3usize {
        let matrix = engine.check_matrix(&schemas);
        for (i, (row, row_r)) in matrix.iter().zip(&reference).enumerate() {
            for (j, (cell, r)) in row.iter().zip(row_r).enumerate() {
                assert!(
                    same_answer(cell, r),
                    "round {round} cell [{i}][{j}]: budgeted {cell} vs unbounded {r}"
                );
            }
        }
        let stats = engine.stats();
        assert!(
            stats.evictable_bytes() <= TINY_BUDGET,
            "budget violated after round {round}: {stats}"
        );
    }

    let stats = engine.stats();
    assert!(stats.evictions > 0, "a 512 B budget must evict: {stats}");
    assert!(stats.sweeps > 0, "evictions happen inside sweeps: {stats}");
    assert!(
        stats.evicted_bytes > 0,
        "sweeps free accounted bytes: {stats}"
    );
    assert!(stats.pinned_bytes > 0, "schemas stay pinned: {stats}");
    // The Display line surfaces the bounded-memory counters.
    let line = format!("{stats}");
    assert!(line.contains("evictable"), "{line}");
    assert!(line.contains("budget 512 B"), "{line}");
}

/// Budget zero is legal: everything evictable is swept at every exit, the
/// engine degrades to recomputation, and answers still match.
#[test]
fn zero_budget_still_answers_correctly() {
    let mut pools_built = 0;
    for seed in [0xD1CE, 0xD1CF, 0xD1D0, 0xD1D1] {
        let family = mixed_family(seed, 3);
        let unbounded = ContainmentEngine::with_search(tiny());
        let stateless = budgeted(0);
        for h in &family {
            for k in &family {
                let free = unbounded.check(h, k);
                let bare = stateless.check(h, k);
                assert!(
                    same_answer(&free, &bare),
                    "seed {seed}: zero-budget divergence: {free} vs {bare}"
                );
                assert!(
                    certified(&bare, h, k),
                    "seed {seed}: uncertified witness {bare}"
                );
                assert_eq!(
                    stateless.stats().evictable_bytes(),
                    0,
                    "a zero budget leaves nothing evictable resident"
                );
            }
        }
        pools_built += stateless.stats().pools_built;
    }
    assert!(pools_built > 0, "no pair reached the bounded search");
}
