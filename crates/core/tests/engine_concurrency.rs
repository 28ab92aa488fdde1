//! Concurrency suite for the shared-state `ContainmentEngine`: the `&self`
//! refactor must be observationally invisible. `check_matrix` must return
//! the verdicts of the memo-free oracle assembled from
//! `baseline::search_counter_example_baseline` on ShEx₀ pairs, and a fresh
//! engine's verdicts, with certified witnesses, on pairs that reach the
//! bounded search; many threads hammering one `Arc<ContainmentEngine>` must
//! each see exactly the answers a serial session computes; and racing
//! registrations must agree on one handle and share one allocation per
//! predicate label. The hammer runs twice: on an unbounded engine, and under
//! a 4 KiB cache budget so eviction sweeps race live queries.
//!
//! Run in release in CI (`cargo test -p shapex-core --release --test
//! engine_concurrency`) so the hammer test exercises real interleavings
//! rather than debug-build lockstep.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_core::engine::{ContainmentEngine, EngineOptions, SchemaId};
use shapex_core::Containment;
use shapex_graph::Label;
use shapex_shex::{parse_schema, Schema};

mod common;
use common::{certified, mixed_family, same_answer, shex0_oracle, tiny};

/// Every cell of an engine's matrix agrees with its reference: the
/// memo-free oracle on a ShEx₀ pair, a fresh engine otherwise, with every
/// witness certified. Summed over the cases, the matrices built search
/// pools, so the unfolders and their memos ran.
#[test]
fn matrix_matches_oracle() {
    let mut seeds = StdRng::seed_from_u64(0x0AC1E);
    let mut pools_built = 0;
    for _case in 0..12 {
        let seed = seeds.gen_range(0u64..100_000);
        let family = mixed_family(seed, 4);
        let opts = tiny();
        let engine = ContainmentEngine::with_search(opts.clone());
        let matrix = engine.check_matrix(&family);

        for (i, row) in matrix.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let (h, k) = (&family[i], &family[j]);
                assert!(
                    certified(cell, h, k),
                    "seed {seed} matrix[{i}][{j}]: uncertified witness {cell}"
                );
                if h.is_rbe0() && k.is_rbe0() {
                    // Unknown is compared by variant: the oracle does not
                    // model engine-side reasons.
                    let oracle = shex0_oracle(h, k, &opts);
                    match (cell, &oracle) {
                        (Containment::Unknown(_), Containment::Unknown(_)) => {}
                        _ => assert!(
                            same_answer(cell, &oracle),
                            "seed {seed} matrix[{i}][{j}]: engine {cell} vs oracle {oracle}"
                        ),
                    }
                } else {
                    let fresh = ContainmentEngine::with_search(opts.clone()).check(h, k);
                    assert!(
                        same_answer(cell, &fresh),
                        "seed {seed} matrix[{i}][{j}]: engine {cell} vs fresh engine {fresh}"
                    );
                }
            }
        }
        pools_built += engine.stats().pools_built;
    }
    assert!(pools_built > 0, "no pair reached the bounded search");
}

/// Many threads share one `Arc<ContainmentEngine>` and interleave queries,
/// registrations, matrix slices, and stats reads; every answer must equal
/// the serial reference, and the shared caches must stay coherent across
/// rounds.
#[test]
fn hammer_shared_engine_from_many_threads() {
    hammer(None);
}

/// The hammer under a deliberately tiny cache budget, so concurrent queries
/// race the eviction sweeps as well.
#[test]
fn hammer_shared_engine_under_a_tiny_cache_budget() {
    hammer(Some(4096));
}

/// Eight threads query one engine with the given cache budget (`None` =
/// unbounded) against the serial reference matrix.
fn hammer(cache_budget: Option<u64>) {
    // A mixed family: DetShEx0-, plain ShEx0 (+ / duplicate labels), and
    // full ShEx (disjunction) — every dispatch route under contention.
    let texts = [
        "T -> p::L?\nL -> EMPTY\n",
        "T -> p::L*\nL -> EMPTY\n",
        "T -> p::L+\nL -> EMPTY\n",
        "T -> p::L, p::L?\nL -> EMPTY\n",
        "T -> p::L | (p::L, p::L)\nL -> EMPTY\n",
        "Root -> p::A, p::B\nA -> a::L?\nB -> b::L\nL -> EMPTY\n",
    ];
    let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
    let opts = tiny();
    let reference = ContainmentEngine::with_search(opts.clone()).check_matrix(&schemas);

    let mut builder = EngineOptions::builder().search(opts);
    if let Some(budget) = cache_budget {
        builder = builder.cache_budget(budget);
    }
    let engine = Arc::new(ContainmentEngine::with_options(builder.build()));
    let ids: Vec<SchemaId> = schemas.iter().map(|s| engine.register(s)).collect();
    let n = schemas.len();

    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let engine = &engine;
            let schemas = &schemas;
            let reference = &reference;
            let ids = &ids;
            scope.spawn(move || {
                for round in 0..3usize {
                    // Each worker sweeps all pairs from a different offset,
                    // so different cells are in flight simultaneously.
                    for step in 0..n * n {
                        let cell = (step + worker * 7 + round * 13) % (n * n);
                        let (i, j) = (cell / n, cell % n);
                        let answer = engine.check_ids(ids[i], ids[j], None);
                        assert!(
                            same_answer(&answer, &reference[i][j]),
                            "worker {worker} round {round}: cell [{i}][{j}] answered {answer}, \
                             expected {}",
                            reference[i][j]
                        );
                    }
                    // Re-registration mid-flight must return the pinned ids.
                    for (s, &id) in schemas.iter().zip(ids) {
                        assert_eq!(engine.register(s), id);
                    }
                    // Stats snapshots must never tear below what a single
                    // completed query implies.
                    let stats = engine.stats();
                    assert_eq!(stats.schemas, n);
                }
            });
        }
    });

    // After the storm: the warmed shared engine still computes the exact
    // reference matrix, by schemas and by handles.
    let warm = engine.check_matrix(&schemas);
    for (row_w, row_r) in warm.iter().zip(&reference) {
        for (w, r) in row_w.iter().zip(row_r) {
            assert!(same_answer(w, r), "warm matrix diverged: {w} vs {r}");
        }
    }
    let misses_before = engine.stats().validate_misses;
    let by_ids = engine.check_matrix_ids(&ids, None);
    match cache_budget {
        // With a tiny budget the sweeps evict memos by design, so the
        // zero-recomputation claim only holds for the unbounded default.
        None => assert_eq!(
            engine.stats().validate_misses,
            misses_before,
            "a fully warmed engine must answer matrices from the memo"
        ),
        // The accounted evictable bytes must respect the budget at every
        // query exit, including after the storm.
        Some(budget) => {
            let stats = engine.stats();
            assert!(
                stats.evictable_bytes() <= budget,
                "evictable bytes exceed the configured budget: {stats}"
            );
        }
    }
    for (row_p, row_r) in by_ids.iter().zip(&reference) {
        for (p, r) in row_p.iter().zip(row_r) {
            assert!(same_answer(p, r), "warm id-matrix diverged: {p} vs {r}");
        }
    }
}

/// One-shot calls through throwaway engines agree with a long-lived shared
/// session queried from multiple threads at once — the service scenario.
#[test]
fn shared_session_matches_one_shot_calls_under_concurrency() {
    let family = mixed_family(0xBEEF, 5);
    let opts = tiny();
    let engine = Arc::new(ContainmentEngine::with_search(opts.clone()));
    std::thread::scope(|scope| {
        for (i, h) in family.iter().enumerate() {
            let engine = &engine;
            let family = &family;
            let opts = &opts;
            scope.spawn(move || {
                for (j, k) in family.iter().enumerate() {
                    let shared = engine.check(h, k);
                    let one_shot = ContainmentEngine::with_search(opts.clone()).check(h, k);
                    // A ShEx₀ pair compares Unknown by variant; a pair that
                    // reaches the bounded search must match exactly.
                    match (&shared, &one_shot) {
                        (Containment::Unknown(_), Containment::Unknown(_))
                            if h.is_rbe0() && k.is_rbe0() => {}
                        _ => assert!(
                            same_answer(&shared, &one_shot),
                            "pair [{i}][{j}]: shared {shared} vs one-shot {one_shot}"
                        ),
                    }
                    assert!(
                        certified(&shared, h, k),
                        "pair [{i}][{j}]: uncertified witness {shared}"
                    );
                }
            });
        }
    });
    let stats = engine.stats();
    assert!(
        stats.pools_built > 0,
        "no pair reached the bounded search: {stats}"
    );
}

/// Eight threads register distinct schemas at once, each over a window of
/// 16 predicates that overlaps the other threads' windows. Every registered
/// copy's atoms must then use one label allocation per predicate name,
/// however the registrations interleaved.
#[test]
fn concurrent_registration_shares_one_allocation_per_label() {
    const THREADS: usize = 8;
    const PREDICATES: usize = 24;
    let engine = ContainmentEngine::new();
    let start = Barrier::new(THREADS);
    let ids: Vec<SchemaId> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    // Each thread parses its own schemas, so every label
                    // starts as a fresh allocation.
                    let schemas: Vec<Schema> = (0..4)
                        .map(|round| {
                            let atoms: Vec<String> = (0..16)
                                .map(|i| format!("p{}::L?", (2 * thread + round + i) % PREDICATES))
                                .collect();
                            let text =
                                format!("T{thread}_{round} -> {}\nL -> EMPTY\n", atoms.join(", "));
                            parse_schema(&text).unwrap()
                        })
                        .collect();
                    start.wait();
                    schemas
                        .iter()
                        .map(|s| engine.register(s))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        engine.schema_count(),
        THREADS * 4,
        "the schemas are distinct"
    );

    let mut canonical: HashMap<String, Label> = HashMap::new();
    for id in ids {
        let schema = engine.schema(id);
        for t in schema.types() {
            for atom in schema.def(t).alphabet() {
                let first = canonical
                    .entry(atom.label.as_str().to_owned())
                    .or_insert_with(|| atom.label.clone());
                assert!(
                    first.ptr_eq(&atom.label),
                    "schema {id:?} holds a second allocation of `{}`",
                    atom.label
                );
            }
        }
    }
    assert_eq!(canonical.len(), PREDICATES);
}
