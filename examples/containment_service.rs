//! A long-lived, multi-tenant containment service: one shared
//! bounded-memory engine behind a pool of workers, several tenants, and
//! the metrics line.
//!
//! [`ContainmentService::pool`] spawns the serve loops over one shared
//! bounded queue, so a slow request occupies one worker while the others
//! take the next requests. Three tenant threads
//! register the bug-tracker schema family (the upload endpoint — identical
//! submissions intern onto one engine entry across tenants, but each tenant
//! can only query handles it registered itself), then check their own
//! upgrade paths; the main thread fetches the full matrix through the pool
//! and prints the service stats: engine cache/memory counters (the engine
//! runs under a cache budget, so evictions and resident bytes are live
//! numbers), tenants, rejections, and the request-latency histogram. A pool
//! whose queue stays full answers
//! [`PoolClient::call_timeout`](shapex::service::PoolClient::call_timeout)
//! with [`ServiceError::Overloaded`](shapex::service::ServiceError::Overloaded)
//! instead of queuing unboundedly.
//!
//! Run with `cargo run --example containment_service`.

use std::thread;

use shapex::containment::engine::EngineOptions;
use shapex::service::{ContainmentService, ServiceRequest, ServiceResponse, TenantId};
use shapex::shex::parse_schema;

/// The schema versions every tenant knows about (a real deployment would
/// upload these from different sources; interning makes that free).
const VERSIONS: [(&str, &str); 3] = [
    (
        "v1",
        "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
         User -> name::Literal, email::Literal?\n\
         Employee -> name::Literal, email::Literal\n",
    ),
    (
        "v2-relaxed",
        "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
         User -> name::Literal, email::Literal?\n\
         Employee -> name::Literal, email::Literal?\n",
    ),
    (
        "v2-strict",
        "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
         User -> name::Literal, email::Literal\n\
         Employee -> name::Literal, email::Literal\n",
    ),
];

fn main() {
    // Production shape: a byte budget on the evictable caches — a long-lived
    // service must not grow without bound.
    let options = EngineOptions::builder()
        .cache_budget(8 << 20) // 8 MiB across the answer memo and the unfolders
        .build();
    let service = ContainmentService::with_options(options);

    // One tenant per client organisation; the main thread stays on the
    // default tenant.
    let tenants: Vec<TenantId> = (0..3).map(|_| service.create_tenant()).collect();

    // The servers: a pool of serve loops over the shared engine, draining
    // one bounded queue, so one slow request cannot head-of-line-block
    // every tenant while another worker is idle.
    let pool = service.pool(2, 64);
    let client = pool.client(TenantId::DEFAULT);

    thread::scope(|scope| {
        // Three tenants, each registering the whole family (the engine
        // interns duplicates across tenants) and checking its own upgrade
        // path. Each drives the service directly through `handle` — the
        // typed-API path; the queue below is the transport path.
        for (t, &tenant) in tenants.iter().enumerate() {
            let service = service.clone();
            scope.spawn(move || {
                let mut ids = Vec::new();
                for (name, text) in VERSIONS {
                    let schema = parse_schema(text).unwrap_or_else(|e| panic!("{name}: {e}"));
                    match service.handle(tenant, ServiceRequest::Register(Box::new(schema))) {
                        Ok(ServiceResponse::Registered(id)) => ids.push(id),
                        other => panic!("register: unexpected {other:?}"),
                    }
                }
                let candidate = t % VERSIONS.len();
                match service.handle(
                    tenant,
                    ServiceRequest::Check {
                        h: ids[0],
                        k: ids[candidate],
                    },
                ) {
                    Ok(ServiceResponse::Answer(answer)) => {
                        println!("{tenant}: v1 ⊆ {:<10} — {answer}", VERSIONS[candidate].0)
                    }
                    other => panic!("check: unexpected {other:?}"),
                }
            });
        }

        // The main thread talks through the pool's queues: register (free —
        // interned), then fetch the full matrix.
        let ids: Vec<_> = VERSIONS
            .iter()
            .map(|(_, text)| {
                let schema = Box::new(parse_schema(text).unwrap());
                match client.call_blocking(ServiceRequest::Register(schema)) {
                    Ok(ServiceResponse::Registered(id)) => id,
                    other => panic!("register: unexpected {other:?}"),
                }
            })
            .collect();
        let matrix = match client.call_blocking(ServiceRequest::Matrix(ids)) {
            Ok(ServiceResponse::Matrix(matrix)) => matrix,
            other => panic!("matrix: unexpected {other:?}"),
        };
        println!("\ncontainment matrix (row ⊆ column?):");
        print!("{:>12}", "");
        for (name, _) in VERSIONS {
            print!(" {name:>12}");
        }
        println!();
        for (i, row) in matrix.iter().enumerate() {
            print!("{:>12}", VERSIONS[i].0);
            for cell in row {
                let mark = if cell.is_contained() {
                    "yes"
                } else if cell.is_not_contained() {
                    "NO"
                } else {
                    "?"
                };
                print!(" {mark:>12}");
            }
            println!();
        }

        match client.call_blocking(ServiceRequest::Stats) {
            Ok(ServiceResponse::Stats(stats)) => println!("\nservice metrics: {stats}"),
            other => panic!("stats: unexpected {other:?}"),
        }
    });

    drop(client); // hang up: the worker loops drain and return
    pool.join();

    // The service handle still works without the loop (pure dispatch).
    let direct = service.handle(TenantId::DEFAULT, ServiceRequest::Stats);
    if let Ok(ServiceResponse::Stats(stats)) = direct {
        assert_eq!(
            stats.engine.schemas, 3,
            "all tenants interned onto one family"
        );
        assert_eq!(stats.tenants, 4, "default + three minted");
    }
}
