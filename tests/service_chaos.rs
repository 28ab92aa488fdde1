//! Pool-worker-kill hammer, compiled only under `--features failpoints`.
//!
//! A seeded fault schedule panics workers at the `worker-dispatch` seam
//! while four client threads hammer a shared [`ServicePool`] with checks
//! and stats probes. The suite pins the workers' panic contract end to end:
//!
//! - **No caller ever hangs.** Every request completes within its
//!   [`PoolClient::call_timeout`] bound with a typed outcome — an answer,
//!   [`ServiceError::Internal`] (its worker was killed mid-dispatch), or a
//!   deadline/overload refusal. Nothing else, and never a stuck thread.
//! - **No verdict is ever wrong.** Every containment answer that does come
//!   back matches the fault-free verdict.
//! - **Every kill is counted.** [`ServiceStats::worker_restarts`] equals
//!   the number of `Internal` errors the callers observed: one per
//!   injected panic, none invented, none lost.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use shapex::service::{
    ContainmentService, ServiceError, ServiceRequest, ServiceResponse, TenantId,
};
use shapex_core::engine::EngineOptions;
use shapex_core::faults::{self, site, FaultAction, FaultPlan};
use shapex_shex::parse_schema;

/// Dispatch hit-indices that panic: front-loaded then spread out, so kills
/// land both while every client is cold and while the pool is warm.
const KILL_HITS: &[u64] = &[0, 3, 7, 12, 18, 25];

const CLIENTS: usize = 4;
const CALLS_PER_CLIENT: usize = 20;

#[test]
fn worker_kills_yield_typed_errors_correct_verdicts_and_counted_restarts() {
    // A tiny cache budget, as in `engine_chaos`, so eviction sweeps race
    // the injected kills too.
    let service =
        ContainmentService::with_options(EngineOptions::builder().cache_budget(4096).build());
    let pool = service.pool(4, 8);

    // Register the pair and take the fault-free verdict before arming.
    faults::clear();
    let register = |text: &str| {
        let client = pool.client(TenantId::DEFAULT);
        match client.call_blocking(ServiceRequest::Register(Box::new(
            parse_schema(text).unwrap(),
        ))) {
            Ok(ServiceResponse::Registered(id)) => id,
            other => panic!("register failed: {other:?}"),
        }
    };
    let h = register("T -> p::L?\nL -> EMPTY\n");
    let k = register("T -> p::L*\nL -> EMPTY\n");
    let oracle = match pool
        .client(TenantId::DEFAULT)
        .call_blocking(ServiceRequest::Check { h, k })
    {
        Ok(ServiceResponse::Answer(answer)) => answer,
        other => panic!("oracle check failed: {other:?}"),
    };
    assert!(oracle.is_contained(), "p::L? ⊑ p::L* must hold");

    let mut plan = FaultPlan::new();
    for &hit in KILL_HITS {
        plan = plan.inject(site::WORKER_DISPATCH, hit, FaultAction::Panic);
    }
    faults::install(plan);

    // The hammer: every call bounded, every outcome classified.
    let internals: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = pool.client(TenantId::DEFAULT);
                let oracle = &oracle;
                scope.spawn(move || {
                    let mut internals = 0u64;
                    for call in 0..CALLS_PER_CLIENT {
                        let request = if call % 2 == 0 {
                            ServiceRequest::Check { h, k }
                        } else {
                            ServiceRequest::Stats
                        };
                        match client.call_timeout(request, Duration::from_secs(60)) {
                            Ok(ServiceResponse::Answer(answer)) => {
                                assert_eq!(
                                    answer.is_contained(),
                                    oracle.is_contained(),
                                    "verdict diverged under worker kills: {answer:?}"
                                );
                            }
                            Ok(ServiceResponse::Stats(_)) => {}
                            Err(ServiceError::Internal) => internals += 1,
                            // Bounded queues under churn may refuse; both are
                            // typed, prompt outcomes — never a hang.
                            Err(ServiceError::Overloaded | ServiceError::DeadlineExceeded) => {}
                            other => panic!("untyped outcome under faults: {other:?}"),
                        }
                    }
                    internals
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    faults::clear();

    assert_eq!(
        internals,
        KILL_HITS.len() as u64,
        "each scheduled kill surfaces as exactly one Internal error"
    );

    // A worker counts a panic before it answers the caller.
    assert_eq!(
        service.stats().worker_restarts,
        internals,
        "worker_restarts must equal the observed Internal count"
    );

    // The workers drain the pool cleanly: join must not hang.
    pool.join();
}
