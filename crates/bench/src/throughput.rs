//! The corpus-scale service throughput harness behind the
//! `service_throughput` bench and the `fig7_summary` rows.
//!
//! One drive builds a fresh [`ContainmentService`] (so every run starts with
//! cold caches), registers the seeded gadget corpus plus a heavy anchor
//! schema, spawns a [`ServicePool`] of workers, and hammers it with
//! closed-loop client threads: each client blocks on one request at a time
//! and immediately issues the next, the standard closed-loop load model.
//!
//! The request mix is *duplicate-heavy by design*: every client walks the
//! same seeded plan, so at any instant the fleet concentrates on one hot
//! `(h, k)` pair — the traffic shape of a production deployment where many
//! tenants audit the same popular schema revision, and exactly the shape
//! the engine's single-flight coalescing absorbs.

use std::time::{Duration, Instant};

use shapex::prelude::*;
use shapex::service::{ContainmentService, ServiceRequest, ServiceResponse, TenantId};
use shapex_gadgets::corpus::{Corpus, CorpusOptions};
use shapex_gadgets::disjuncts::disjunct_choice_pair;

/// Parameters of one throughput drive.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Worker threads in the [`ServicePool`].
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Per-worker queue capacity.
    pub queue_capacity: usize,
    /// Corpus seed (same seed ⇒ identical corpus and plan).
    pub seed: u64,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            workers: 8,
            clients: 4,
            requests_per_client: 64,
            queue_capacity: 32,
            seed: 0xFEED,
        }
    }
}

/// The outcome of one drive: wall-clock throughput plus the service's own
/// latency histogram.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Requests answered across all clients.
    pub requests: u64,
    /// Wall-clock time from first request to last response.
    pub elapsed: Duration,
    /// The service's latency distribution over those requests.
    pub latency: LatencySnapshot,
    /// Duplicate concurrent queries absorbed by single-flight coalescing.
    pub coalesced_queries: u64,
}

impl ThroughputReport {
    /// Requests per second over the drive's wall clock.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// Register the corpus and the heavy anchor schema, returning the seeded
/// request plan every client walks: three in four requests hit the hot
/// check, the rest walk the corpus's evolution pairs.
///
/// The hot check is the six-group choice schema of the `disjunct` gadgets
/// against itself. It is outside RBE₀ and has more bags than the sufficient
/// check enumerates, so the bounded search answers it, exhausting its
/// budget without a witness, and the engine memoises no such verdict. The
/// first, cold check builds the pools and validates every candidate, which
/// takes long enough that the whole fleet's first requests pile up behind
/// it and coalesce; later checks re-walk the warm pools and memos and
/// coalesce whenever they overlap.
fn plan(service: &ContainmentService, options: &DriveOptions) -> Vec<(SchemaId, SchemaId)> {
    let register = |schema: Schema| -> SchemaId {
        match service.handle(
            TenantId::DEFAULT,
            ServiceRequest::Register(Box::new(schema)),
        ) {
            Ok(ServiceResponse::Registered(id)) => id,
            other => panic!("corpus registration failed: {other:?}"),
        }
    };
    let choice = register(disjunct_choice_pair(6).1);
    // A compact corpus: the evolution pairs are the diverse background
    // traffic, not the hot set, and every distinct pair's cold check is
    // uncoalescible floor time.
    let corpus = Corpus::generate(&CorpusOptions {
        families: 2,
        revisions: 4,
        seed: options.seed,
        ..CorpusOptions::default()
    });
    let ids: Vec<SchemaId> = corpus.schemas().cloned().map(register).collect();
    let pairs = corpus.evolution_pairs();
    (0..options.requests_per_client)
        .map(|i| {
            if i % 4 != 3 {
                (choice, choice)
            } else {
                let (h, k) = pairs[i % pairs.len()];
                (ids[h], ids[k])
            }
        })
        .collect()
}

/// Run one closed-loop drive against a fresh service and pool.
pub fn drive(options: &DriveOptions) -> ThroughputReport {
    let service = ContainmentService::new();
    let plan = plan(&service, options);
    let pool = service.pool(options.workers, options.queue_capacity);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..options.clients.max(1) {
            let client = pool.client(TenantId::DEFAULT);
            let plan = &plan;
            scope.spawn(move || {
                for &(h, k) in plan {
                    match client.call_blocking(ServiceRequest::Check { h, k }) {
                        Ok(ServiceResponse::Answer(_)) => {}
                        other => panic!("throughput check failed: {other:?}"),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    pool.join();
    let stats = service.stats();
    let check_requests = (options.clients.max(1) * options.requests_per_client) as u64;
    ThroughputReport {
        requests: check_requests,
        elapsed,
        latency: stats.latency,
        coalesced_queries: stats.engine.coalesced_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_drive_answers_every_request() {
        let report = drive(&DriveOptions {
            workers: 2,
            clients: 2,
            requests_per_client: 8,
            ..DriveOptions::default()
        });
        assert_eq!(report.requests, 16);
        // The histogram also saw the registrations, so it is a superset.
        assert!(report.latency.count() >= 16);
        assert!(report.requests_per_sec() > 0.0);
        assert!(report.latency.p99() >= report.latency.p50());
    }
}
