//! The corpus-scale service throughput harness behind the
//! `service_throughput` bench and the `fig7_summary` rows.
//!
//! One drive builds a fresh [`ContainmentService`] (so every run starts with
//! cold caches), registers the seeded gadget corpus plus a pair of heavy
//! anchor schemas, spawns a [`ServicePool`] of workers, and hammers it with
//! closed-loop client threads: each client blocks on one request at a time
//! and immediately issues the next, the standard closed-loop load model.
//!
//! The request mix is *duplicate-heavy by design*: every client walks the
//! same seeded plan, so at any instant the fleet concentrates on a handful
//! of hot `(h, k)` pairs — the traffic shape of a production deployment
//! where many tenants audit the same popular schema revisions, and exactly
//! the shape the engine's single-flight coalescing absorbs. Driving with
//! [`DriveOptions::coalesce`] off measures the uncoalesced path for the
//! on/off ratio the acceptance gate watches.

use std::time::{Duration, Instant};

use shapex::prelude::*;
use shapex::service::{ContainmentService, ServiceRequest, ServiceResponse, TenantId};
use shapex_core::unfold::SearchOptions;
use shapex_gadgets::corpus::{Corpus, CorpusOptions};
use shapex_gadgets::figures;

/// Parameters of one throughput drive.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Worker threads in the [`ServicePool`].
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Whether the engine coalesces duplicate concurrent queries.
    pub coalesce: bool,
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
            coalesce: true,
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

/// Build the drive's service with the coalescing knob set.
///
/// The search budget is deliberately large: the first check of each
/// direction of the hot anchor pair walks the whole systematic search
/// before the type-set fixpoint proves it contained, so that cold check
/// takes milliseconds — the window in which duplicate concurrent checks
/// genuinely overlap (even on a single core, where overlap comes from
/// preemption) and single-flight coalescing has work to absorb. The
/// fixpoint's outcome is memoised, so every later check of the pair is a
/// memo hit; the corpus pairs the systematic search refutes re-walk their
/// warm pools on every check.
fn service(coalesce: bool) -> ContainmentService {
    let search = SearchOptions {
        max_candidates: 80_000,
        random_samples: 8_000,
        ..SearchOptions::default()
    };
    ContainmentService::with_options(
        EngineOptions::builder()
            .search(search)
            .coalesce(coalesce)
            .build(),
    )
}

/// Register the corpus and the heavy anchor pair, returning the seeded
/// request plan every client walks: three in four requests hit the hot
/// anchor pair (the Figure 1 bug tracker against its non-deterministic
/// split — equal languages, which only the type-set fixpoint proves, after
/// a full systematic search on the first check), the rest walk the corpus's
/// evolution pairs.
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
    let original = register(figures::bug_tracker_schema());
    let split = register(figures::bug_tracker_split_schema());
    // A compact corpus: the evolution pairs are the diverse background
    // traffic, not the hot set, and every distinct pair's cold check is
    // uncoalescible floor time shared by the coalesced and uncoalesced arms.
    let corpus = Corpus::generate(&CorpusOptions {
        families: 2,
        revisions: 4,
        seed: options.seed,
        ..CorpusOptions::default()
    });
    let ids: Vec<SchemaId> = corpus.schemas().cloned().map(register).collect();
    let pairs = corpus.evolution_pairs();
    // Hot requests come in blocks of eight per direction: clients drift a
    // little relative to each other, and blocks keep drifted clients on the
    // *same* hot pair so their checks actually coincide.
    let hot = [(original, split), (split, original)];
    (0..options.requests_per_client)
        .map(|i| {
            if i % 4 != 3 {
                hot[(i / 8) % hot.len()]
            } else {
                let (h, k) = pairs[i % pairs.len()];
                (ids[h], ids[k])
            }
        })
        .collect()
}

/// Run one closed-loop drive against a fresh service and pool.
pub fn drive(options: &DriveOptions) -> ThroughputReport {
    let service = service(options.coalesce);
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

    #[test]
    fn uncoalesced_drives_never_report_coalesced_queries() {
        let report = drive(&DriveOptions {
            workers: 2,
            clients: 2,
            requests_per_client: 8,
            coalesce: false,
            ..DriveOptions::default()
        });
        assert_eq!(report.coalesced_queries, 0);
    }
}
