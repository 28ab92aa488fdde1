//! Deterministic chaos suite for the engine, compiled only under
//! `--features failpoints`.
//!
//! A seeded [`FaultPlan`] arms panics and delays at the engine's
//! instrumented sites (pre-sweep, solver-branch, …); the suite then drives
//! containment queries through the armed engine and pins the two robustness
//! invariants the fault registry exists to prove:
//!
//! 1. **Completed verdicts are never wrong.** Any query that runs to
//!    completion — before, between, or after injected failures — answers
//!    exactly like a fresh, fault-free engine (witnesses compared
//!    structurally). Interrupted queries may leave completed sub-results in
//!    the caches, but never partial ones, so survivors are unaffected.
//! 2. **The engine keeps serving.** After every injected panic (which
//!    poisons whatever locks the dying query held), the same engine answers
//!    the full workload identically: poisoned-lock recovery plus the
//!    no-partial-memoisation rule make a crashed query observationally
//!    invisible.
//!
//! Plans are pure functions of their seed, so a failing case replays
//! exactly from the printed inputs.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use shapex_core::engine::{ContainmentEngine, EngineOptions};
use shapex_core::faults::{self, site, FaultAction, FaultPlan};
use shapex_core::{CancelToken, Containment, UnknownReason};
use shapex_shex::{parse_schema, Schema};

mod common;
use common::{choice_groups, random_family, same_answer, tiny};

/// The fault registry is process-global; every test here serialises on it.
static GATE: Mutex<()> = Mutex::new(());

/// RAII disarm: clears the registry even when an assertion unwinds, so a
/// failing case never leaves faults armed for the next one.
struct Armed;

impl Armed {
    fn install(plan: FaultPlan) -> Armed {
        faults::install(plan);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        faults::clear();
    }
}

/// Tiny search budget plus a deliberately small cache budget, so eviction
/// sweeps run constantly and the `pre-sweep` site actually fires.
fn chaos_options() -> EngineOptions {
    EngineOptions::builder()
        .search(tiny())
        .cache_budget(4096)
        .build()
}

/// Fault-free per-pair verdicts from fresh engines: no cache carries over
/// from any earlier query, so this is the memo-free reference answer.
fn oracle(family: &[Schema]) -> Vec<Containment> {
    let mut verdicts = Vec::new();
    for h in family {
        for k in family {
            let engine = ContainmentEngine::with_options(chaos_options());
            verdicts.push(engine.check(h, k));
        }
    }
    verdicts
}

fn chaos_case(seed: u64, panics: usize, delays: usize) {
    let family = random_family(seed, 3);
    let reference = oracle(&family);

    let engine = ContainmentEngine::with_options(chaos_options());
    let armed = Armed::install(FaultPlan::seeded(seed, panics, delays));
    let mut injected = 0;
    for (i, (h, k)) in pairs(&family).enumerate() {
        // A panic here is an injected fault escaping to the caller — that
        // query is lost, but nothing else may be.
        match catch_unwind(AssertUnwindSafe(|| engine.check(h, k))) {
            Ok(verdict) => assert!(
                same_answer(&verdict, &reference[i]),
                "completed verdict diverged under faults (seed {seed}, pair {i}):\n\
                 got      {verdict:?}\nexpected {:?}",
                reference[i]
            ),
            Err(_) => injected += 1,
        }
    }
    drop(armed);

    // The same engine — poisoned locks, interrupted searches and all — must
    // now answer the entire workload exactly like the fault-free reference.
    for (i, (h, k)) in pairs(&family).enumerate() {
        let verdict = engine.check(h, k);
        assert!(
            same_answer(&verdict, &reference[i]),
            "post-fault verdict diverged (seed {seed}, pair {i}, {injected} faults injected):\n\
             got      {verdict:?}\nexpected {:?}",
            reference[i]
        );
    }
}

/// Ordered pairs of the family, in oracle order.
fn pairs(family: &[Schema]) -> impl Iterator<Item = (&Schema, &Schema)> {
    family
        .iter()
        .flat_map(move |h| family.iter().map(move |k| (h, k)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seeded_fault_schedules_never_change_completed_verdicts(
        seed in 0u64..100_000,
        panics in 0usize..4,
        delays in 0usize..3,
    ) {
        let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        chaos_case(seed, panics, delays);
    }
}

#[test]
fn delay_faults_widen_race_windows_without_changing_verdicts() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let family = random_family(0xD31A7, 3);
    let reference = oracle(&family);
    let engine = Arc::new(ContainmentEngine::with_options(chaos_options()));
    // Delay-only schedule: stalls queries at sweep and branch checkpoints
    // while other threads hammer the same caches and evict underneath them.
    let _armed = Armed::install(FaultPlan::seeded(0xD31A7, 0, 6));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let engine = Arc::clone(&engine);
            let family = &family;
            let reference = &reference;
            scope.spawn(move || {
                for (i, (h, k)) in pairs(family).enumerate() {
                    let verdict = engine.check(h, k);
                    assert!(
                        same_answer(&verdict, &reference[i]),
                        "delayed verdict diverged (pair {i}): got {verdict:?}"
                    );
                }
            });
        }
    });
}

#[test]
fn deadlines_under_armed_faults_stay_typed() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let family = random_family(7, 2);
    let engine = ContainmentEngine::with_options(chaos_options());
    let h = engine.register(&family[0]);
    let k = engine.register(&family[1]);
    let reference = engine.check_ids(h, k, None);
    // Delays at the solver-branch checkpoint sit exactly where deadline
    // polling happens; the verdicts must stay typed either way.
    let _armed = Armed::install(FaultPlan::seeded(7, 0, 4));
    let expired = engine.check_ids(h, k, Some(&CancelToken::with_timeout(Duration::ZERO)));
    assert!(
        matches!(
            expired.unknown_reason(),
            Some(UnknownReason::DeadlineExceeded { .. })
        ),
        "zero deadline must expire, got {expired:?}"
    );
    let hour = CancelToken::with_timeout(Duration::from_secs(3600));
    let generous = engine.check_ids(h, k, Some(&hour));
    assert!(
        same_answer(&generous, &reference),
        "a generous deadline answers identically, got {generous:?}"
    );
}

/// Spin until the armed `solver-branch` site has been reached: the check
/// that reached it is inside its search, computing its pair.
fn await_first_checkpoint() {
    while faults::hits(site::SOLVER_BRANCH) == 0 {
        std::thread::yield_now();
    }
}

#[test]
fn a_panicking_first_check_hands_the_pair_to_a_waiting_one() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let groups = choice_groups(4);
    let fresh = ContainmentEngine::with_search(tiny());
    let reference = fresh.check(&groups, &groups);
    let engine = ContainmentEngine::with_search(tiny());
    let id = engine.register(&groups);
    // Hit 0 holds the first check at its first candidate while the second
    // arrives and waits on it; hit 1 then kills the first check.
    let _armed = Armed::install(
        FaultPlan::new()
            .inject(
                site::SOLVER_BRANCH,
                0,
                FaultAction::Delay(Duration::from_millis(300)),
            )
            .inject(site::SOLVER_BRANCH, 1, FaultAction::Panic),
    );
    std::thread::scope(|scope| {
        let first = scope.spawn(|| engine.check_ids(id, id, None));
        await_first_checkpoint();
        let second = engine.check_ids(id, id, None);
        assert!(first.join().is_err(), "the first check dies at hit 1");
        assert!(
            same_answer(&second, &reference),
            "the waiting check answers the pair itself: {second} vs {reference}"
        );
    });
    assert_eq!(
        engine.stats().pair_bytes,
        fresh.stats().pair_bytes,
        "the waiting check's answer is memoised once"
    );
}

#[test]
fn a_check_with_a_token_never_waits_on_a_running_first_check() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let groups = choice_groups(4);
    let fresh = ContainmentEngine::with_search(tiny());
    let reference = fresh.check(&groups, &groups);
    let engine = ContainmentEngine::with_search(tiny());
    let id = engine.register(&groups);
    let _armed = Armed::install(FaultPlan::new().inject(
        site::SOLVER_BRANCH,
        0,
        FaultAction::Delay(Duration::from_secs(2)),
    ));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| engine.check_ids(id, id, None));
        await_first_checkpoint();
        let started = Instant::now();
        let token = CancelToken::with_timeout(Duration::from_secs(1));
        let bounded = engine.check_ids(id, id, Some(&token));
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the check with a token waited {waited:?} on the stalled first check"
        );
        assert!(
            same_answer(&bounded, &reference),
            "{bounded} vs {reference}"
        );
        let first = first.join().expect("the stalled first check completes");
        assert!(same_answer(&first, &reference), "{first} vs {reference}");
    });
    assert_eq!(
        engine.stats().pair_bytes,
        fresh.stats().pair_bytes,
        "the pair is charged once"
    );
}

#[test]
fn a_token_that_fires_inside_the_fixpoint_answers_deadline_exceeded() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    // The introduction's refactoring of Figure 1: equal languages, no
    // embedding, split outside DetShEx0-, so only the type-set fixpoint
    // decides `original ⊆ split`.
    let original = parse_schema(
        "Bug  -> descr::Literal, reportedBy::User, related::Bug*\n\
         User -> name::Literal, email::Literal?\n",
    )
    .unwrap();
    let split = parse_schema(
        "Bug1 -> descr::Literal, reportedBy::User1, related::Bug1*, related::Bug2*\n\
         Bug2 -> descr::Literal, reportedBy::User2, related::Bug1*, related::Bug2*\n\
         User1 -> name::Literal\n\
         User2 -> name::Literal, email::Literal\n",
    )
    .unwrap();
    let engine = ContainmentEngine::with_search(tiny());
    let (h, k) = (engine.register(&original), engine.register(&split));
    // The fixpoint's first enumeration step is the query's first
    // `solver-branch` hit: hold it there past the token's deadline.
    let _armed = Armed::install(FaultPlan::new().inject(
        site::SOLVER_BRANCH,
        0,
        FaultAction::Delay(Duration::from_millis(500)),
    ));
    let token = CancelToken::with_timeout(Duration::from_millis(50));
    let answer = engine.check_ids(h, k, Some(&token));
    assert!(
        matches!(
            answer.unknown_reason(),
            Some(UnknownReason::DeadlineExceeded { .. })
        ),
        "{answer}"
    );
    assert_eq!(faults::hits(site::SOLVER_BRANCH), 1);
    let stats = engine.stats();
    assert_eq!(stats.deadline_exceeded, 1, "{stats}");
    assert_eq!(stats.cancelled_branches, 1, "{stats}");
    assert_eq!(stats.fixpoint_decided, 0, "{stats}");
    assert_eq!(stats.pools_built, 0, "no search ran: {stats}");
    assert_eq!(stats.pair_bytes, 0, "a deadline is never memoised: {stats}");
    let again = engine.check_ids(h, k, None);
    let fresh = ContainmentEngine::with_search(tiny()).check(&original, &split);
    assert!(again.is_contained(), "{again}");
    assert!(same_answer(&again, &fresh), "{again} vs {fresh}");
}
