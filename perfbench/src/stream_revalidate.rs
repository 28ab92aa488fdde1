//! `stream_revalidate`: a data pipeline that writes beside reads.
//!
//! Two tenants, each with its own graph and closed-loop client, share one
//! single-worker pool. Each client streams about 100k bug-tracker triples
//! (users, bugs, `related` chains) as 64 KiB `LoadTriples` chunks, then
//! loops seeded `ApplyDelta` batches, each followed by `Revalidate` against
//! a lenient and a strict schema. A batch removes `email` from 1, 16 or 256
//! users, and the next batch restores it. Under the strict schema a removal
//! invalidates the user's bugs and, through `related::Bug*`, every bug
//! whose chain reaches them; the restore types them all again. The
//! N-Triples parser, `apply_delta` and the incremental typing do the work;
//! the containment engine does none.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use shapex::containment::engine::{EngineOptions, SchemaId};
use shapex::containment::Containment;
use shapex::graph::{graph_from_ntriples, Graph, GraphDelta};
use shapex::service::{
    ContainmentService, GraphId, PoolClient, ServiceRequest, ServiceResponse, TenantId,
};
use shapex::shex::{maximal_typing, parse_schema, IncrementalTyping};

use crate::common::{
    certified, median, ms, peak_rss_mb, quantile, us, Args, Event, Failures, Figures, Fnv, Outcome,
    ServiceWork, Spans,
};
use crate::replay::{apply, parse_chunks, repair, replay_pairs, LayerWork};
use crate::stream_seed;

const USERS: usize = 8_000;
const BUGS: usize = 28_000;
/// Longest `related` chain; lengths are drawn uniformly from 1 to this.
const MAX_CHAIN: usize = 40;
const CHUNK_BYTES: usize = 64 << 10;
/// Users per edit batch, in a fixed cycle per tenant: mostly batches of 1,
/// some of 16 and one of 256. Every run edits in the same rhythm; the seed
/// picks the users. The single worker serves the two clients in strict
/// alternation, which locks their iterations together; cycle lengths of 10
/// and 11 make their heavy batches meet in every alignment equally often,
/// whatever offset a run starts with.
const BATCH_CYCLES: [&[usize]; 2] = [
    &[1, 16, 1, 1, 256, 1, 16, 1, 1, 16],
    &[1, 16, 1, 1, 256, 1, 1, 16, 1, 1, 16],
];
/// Width of the windows the end-to-end figures are taken over.
const WINDOW_S: f64 = 2.0;
const WORKERS: usize = 1;
const QUEUE_CAPACITY: usize = 4;
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Iterations of each client whose verdicts enter the digest; every run
/// completes at least this many.
const DIGEST_ITERATIONS: usize = 24;
/// Delta batches the traced run replays through the graph and typing
/// layers.
const REPLAY_BATCHES: usize = 64;

const LENIENT: &str = "Bug -> descr::Literal, reportedBy::User, related::Bug*\n\
                       User -> name::Literal, email::Literal?\n\
                       Literal -> EMPTY\n";
/// `email+` keeps the strict schema outside DetShEx₀⁻, so the set-up's
/// audit of the two schemas takes the search path.
const STRICT: &str = "Bug -> descr::Literal, reportedBy::User, related::Bug*\n\
                      User -> name::Literal, email::Literal+\n\
                      Literal -> EMPTY\n";

fn email(user: usize) -> String {
    format!("\"u{user}@example.org\"")
}

/// One tenant's generated input: the N-Triples document and the seed of
/// its delta plan.
struct TenantInput {
    doc: Vec<u8>,
    plan_seed: u64,
    cycle: &'static [usize],
}

fn tenant_input(seed: u64, cycle: &'static [usize]) -> TenantInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::with_capacity(6 << 20);
    for u in 0..USERS {
        let _ = writeln!(doc, "<u{u}> <name> \"user {u}\" .");
        let _ = writeln!(doc, "<u{u}> <email> {} .", email(u));
    }
    let mut b = 0;
    while b < BUGS {
        let len = rng.gen_range(1..=MAX_CHAIN).min(BUGS - b);
        for j in b..b + len {
            let _ = writeln!(doc, "<b{j}> <descr> \"bug {j}\" .");
            let _ = writeln!(doc, "<b{j}> <reportedBy> <u{}> .", rng.gen_range(0..USERS));
            if j + 1 < b + len {
                let _ = writeln!(doc, "<b{j}> <related> <b{}> .", j + 1);
            }
        }
        b += len;
    }
    TenantInput {
        doc: doc.into_bytes(),
        plan_seed: rng.next_u64(),
        cycle,
    }
}

/// The seeded edit plan: batch `2i` removes `email` from a random set of
/// users, sized by the tenant's cycle in [`BATCH_CYCLES`]; batch `2i + 1` restores exactly those.
struct Plan {
    rng: StdRng,
    cycle: &'static [usize],
    pending: Vec<usize>,
    batches: usize,
}

impl Plan {
    fn new(input: &TenantInput) -> Plan {
        Plan {
            rng: StdRng::seed_from_u64(input.plan_seed),
            cycle: input.cycle,
            pending: Vec::new(),
            batches: 0,
        }
    }

    /// The next batch and whether, after it, every user has an email.
    fn next(&mut self) -> (GraphDelta, bool) {
        let mut delta = GraphDelta::new();
        if self.pending.is_empty() {
            let size = self.cycle[self.batches % self.cycle.len()];
            self.batches += 1;
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < size {
                chosen.insert(self.rng.gen_range(0..USERS));
            }
            self.pending = chosen.into_iter().collect();
            for &u in &self.pending {
                delta.remove_edge(format!("u{u}"), "email", email(u));
            }
            (delta, false)
        } else {
            for u in std::mem::take(&mut self.pending) {
                delta.add_edge(format!("u{u}"), "email", email(u));
            }
            (delta, true)
        }
    }
}

/// What one tenant's client saw.
#[derive(Default)]
struct ClientLog {
    events: Vec<Event>,
    reads_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    requests: u64,
    verdicts: u64,
    triples: u64,
    iterations: usize,
    /// Seconds into the phase when the ingest ended.
    ingested_at: f64,
    /// Digest of the ingest and the first `DIGEST_ITERATIONS` iterations.
    digest: Fnv,
    /// The final verdicts, for the from-scratch oracle.
    last_lenient: Option<bool>,
    last_strict: Option<bool>,
    failures: Failures,
    work: ServiceWork,
}

struct Tenant {
    tenant: TenantId,
    lenient: SchemaId,
    strict: SchemaId,
    input: TenantInput,
}

fn revalidate(
    client: &PoolClient,
    graph: GraphId,
    schema: SchemaId,
    log: &mut ClientLog,
    spans: &mut Spans,
    epoch: Instant,
) -> Option<(bool, usize)> {
    let t0 = Instant::now();
    let response = client.call_timeout(ServiceRequest::Revalidate { graph, schema }, CALL_TIMEOUT);
    let t1 = Instant::now();
    spans.record("service.revalidate", t0, t1, None);
    log.requests += 1;
    log.work.roundtrip_us.push(us(t1 - t0));
    log.reads_ms.push(ms(t1 - t0));
    log.events.push(Event {
        at: (t1 - epoch).as_secs_f64(),
        verdicts: 1,
        read_ms: Some(ms(t1 - t0)),
    });
    match response {
        Ok(ServiceResponse::Validation {
            valid, affected, ..
        }) => {
            log.verdicts += 1;
            Some((valid, affected))
        }
        other => {
            log.failures.miss(format!("revalidate answered {other:?}"));
            None
        }
    }
}

fn client_loop(
    client: &PoolClient,
    t: &Tenant,
    epoch: Instant,
    deadline: Instant,
    spans: &mut Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    let write =
        |log: &mut ClientLog, spans: &mut Spans, name: &'static str, request: ServiceRequest| {
            let t0 = Instant::now();
            let response = client.call_timeout(request, CALL_TIMEOUT);
            let t1 = Instant::now();
            spans.record(name, t0, t1, None);
            log.requests += 1;
            log.work.roundtrip_us.push(us(t1 - t0));
            log.events.push(Event {
                at: (t1 - epoch).as_secs_f64(),
                verdicts: 0,
                read_ms: None,
            });
            (response, ms(t1 - t0))
        };

    // Ingest: 64 KiB chunks cut anywhere, then the empty flush chunk.
    let mut graph: Option<GraphId> = None;
    let chunks = t
        .input
        .doc
        .chunks(CHUNK_BYTES)
        .chain(std::iter::once(&[][..]));
    for chunk in chunks {
        let request = ServiceRequest::LoadTriples {
            graph,
            chunk: chunk.to_vec(),
        };
        let (response, took) = write(&mut log, spans, "service.load_triples", request);
        log.ingest_ms.push(took);
        match response {
            Ok(ServiceResponse::Loaded {
                graph: id, triples, ..
            }) => {
                graph = Some(id);
                log.triples = triples;
            }
            other => {
                log.failures.miss(format!("load answered {other:?}"));
                return log;
            }
        }
    }
    let graph = graph.expect("at least one chunk was loaded");
    log.digest.u64(log.triples);
    log.ingested_at = epoch.elapsed().as_secs_f64();

    let mut plan = Plan::new(&t.input);
    let mut strict_expected = true;
    loop {
        for (schema, expected, lenient) in
            [(t.lenient, true, true), (t.strict, strict_expected, false)]
        {
            let Some((valid, affected)) = revalidate(client, graph, schema, &mut log, spans, epoch)
            else {
                return log;
            };
            if valid != expected {
                log.failures.miss(format!(
                    "iteration {}: {} schema answered valid={valid}, expected {expected}",
                    log.iterations,
                    if lenient { "lenient" } else { "strict" }
                ));
            }
            if log.iterations <= DIGEST_ITERATIONS {
                log.digest.u64(u64::from(valid));
                log.digest.u64(affected as u64);
            }
            if lenient {
                log.last_lenient = Some(valid);
            } else {
                log.last_strict = Some(valid);
            }
        }
        if Instant::now() >= deadline && log.iterations >= DIGEST_ITERATIONS {
            break;
        }
        let (delta, complete) = plan.next();
        strict_expected = complete;
        let (response, took) = write(
            &mut log,
            spans,
            "service.apply_delta",
            ServiceRequest::ApplyDelta {
                graph,
                delta: Box::new(delta),
            },
        );
        log.delta_ms.push(took);
        match response {
            Ok(ServiceResponse::Applied { report, .. }) if report.missing_removals == 0 => {}
            other => {
                log.failures.miss(format!("apply answered {other:?}"));
                return log;
            }
        }
        log.iterations += 1;
    }
    log
}

/// A fresh service with two tenants, each holding both schemas.
fn setup(
    seed: u64,
    work: &mut ServiceWork,
    failures: &mut Failures,
) -> (ContainmentService, Vec<Tenant>) {
    let service = ContainmentService::with_options(EngineOptions::builder().build());
    let schemas = [parse_schema(LENIENT), parse_schema(STRICT)];
    let [Ok(lenient), Ok(strict)] = schemas else {
        failures.miss("the stream schemas do not parse");
        return (service, Vec::new());
    };
    let mut tenants = Vec::new();
    for (c, cycle) in BATCH_CYCLES.iter().enumerate() {
        let tenant = if c == 0 {
            TenantId::DEFAULT
        } else {
            service.create_tenant()
        };
        let mut ids = Vec::new();
        for schema in [&lenient, &strict] {
            let t0 = Instant::now();
            let response =
                service.handle(tenant, ServiceRequest::Register(Box::new(schema.clone())));
            work.register_us.push(us(t0.elapsed()));
            match response {
                Ok(ServiceResponse::Registered(id)) => ids.push(id),
                other => failures.miss(format!("register answered {other:?}")),
            }
        }
        if ids.len() == 2 {
            tenants.push(Tenant {
                tenant,
                lenient: ids[0],
                strict: ids[1],
                input: tenant_input(stream_seed(seed, 40 + c as u64), cycle),
            });
        }
    }
    (service, tenants)
}

/// The pipeline's schema audit: does either schema refine the other?
/// Asked once, before the measured phase.
fn schema_audit(
    service: &ContainmentService,
    t: &Tenant,
    failures: &mut Failures,
) -> Vec<Containment> {
    [(t.strict, t.lenient), (t.lenient, t.strict)]
        .into_iter()
        .map(
            |(h, k)| match service.handle(t.tenant, ServiceRequest::Check { h, k }) {
                Ok(ServiceResponse::Answer(answer)) => answer,
                other => {
                    failures.miss(format!("schema audit answered {other:?}"));
                    Containment::not_supported()
                }
            },
        )
        .collect()
}

fn drive(
    service: &ContainmentService,
    tenants: &[Tenant],
    seconds: f64,
    tracing: bool,
) -> (Vec<ClientLog>, Vec<Spans>, f64) {
    let pool = service.pool(WORKERS, QUEUE_CAPACITY);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let results: Vec<(ClientLog, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| {
                let client = pool.client(t.tenant);
                scope.spawn(move || {
                    let mut spans = Spans::new(tracing, epoch);
                    let log = client_loop(&client, t, epoch, deadline, &mut spans);
                    (log, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    pool.join();
    let (logs, spans) = results.into_iter().unzip();
    (logs, spans, elapsed)
}

/// The from-scratch oracle: rebuild each tenant's graph from its document
/// and the same deltas, and compare the final verdicts with the maximal
/// typing of the mirror.
fn verify(tenants: &[Tenant], logs: &[ClientLog], failures: &mut Failures) {
    let (Ok(lenient), Ok(strict)) = (parse_schema(LENIENT), parse_schema(STRICT)) else {
        return;
    };
    for (t, log) in tenants.iter().zip(logs) {
        let Ok(mut mirror) = graph_from_ntriples(&t.input.doc) else {
            failures.miss("the generated document does not parse");
            continue;
        };
        let mut plan = Plan::new(&t.input);
        for _ in 0..log.iterations {
            mirror.apply_delta(&plan.next().0);
        }
        for (schema, last, name) in [
            (&lenient, log.last_lenient, "lenient"),
            (&strict, log.last_strict, "strict"),
        ] {
            let expected = maximal_typing(&mirror, schema).is_total();
            if last != Some(expected) {
                failures.miss(format!(
                    "final {name} verdict {last:?}, the mirror's maximal typing says {expected}"
                ));
            }
        }
        if log.iterations < DIGEST_ITERATIONS {
            failures.miss("fewer iterations than the verdict digest covers");
        }
    }
}

/// Per-layer replay of tenant 0's input: its chunks through the parser,
/// the ingest and the first edit batches through `apply_delta`, and every
/// batch through the incremental typing of both schemas.
fn replay(t: &Tenant, audit: &[Containment], spans: &mut Spans, work: &mut LayerWork) {
    let (Ok(lenient), Ok(strict)) = (parse_schema(LENIENT), parse_schema(STRICT)) else {
        return;
    };
    let start = Instant::now();
    let Some(ingest) = parse_chunks(t.input.doc.chunks(CHUNK_BYTES), spans, None, work) else {
        return;
    };
    let mut graph = Graph::new();
    apply(&mut graph, &ingest, spans, None, work);
    let mut typings = [
        IncrementalTyping::new(&graph, &lenient),
        IncrementalTyping::new(&graph, &strict),
    ];
    let mut plan = Plan::new(&t.input);
    for _ in 0..REPLAY_BATCHES {
        let dirty = apply(&mut graph, &plan.next().0, spans, None, work);
        for (typing, schema) in typings.iter_mut().zip([&lenient, &strict]) {
            repair(typing, &graph, schema, &dirty, spans, None, work);
        }
    }
    let schemas = [strict, lenient];
    replay_pairs(&schemas, &[(0, 1), (1, 0)], Some(audit), spans, None, work);
    spans.record("replay", start, Instant::now(), None);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut failures = Failures::default();
    let mut setup_work = ServiceWork::default();

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..5 {
        drop(built.take());
        let t0 = Instant::now();
        let (service, tenants) = setup(args.seed, &mut setup_work, &mut failures);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((service, tenants));
    }
    let (service, tenants) = built.expect("set-up ran");
    if tenants.len() != BATCH_CYCLES.len() {
        out.failures.absorb(failures);
        return out;
    }
    let audit = schema_audit(&service, &tenants[0], &mut failures);
    let (Ok(lenient), Ok(strict)) = (parse_schema(LENIENT), parse_schema(STRICT)) else {
        unreachable!("set-up parsed both schemas");
    };
    // Neither schema refines the other: a user may have two emails under
    // the strict one and none under the lenient one.
    for (answer, h, k) in [
        (&audit[0], &strict, &lenient),
        (&audit[1], &lenient, &strict),
    ] {
        match answer.counter_example() {
            Some(w) if certified(w, h, k) => {}
            _ => failures.miss(format!(
                "schema audit answered {answer}, expected a certified refutation"
            )),
        }
    }

    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut logs, _, elapsed) = drive(&service, &tenants, half, false);
    drop(service);
    verify(&tenants, &logs, &mut failures);
    let mut digest = Fnv::default();
    for log in &logs {
        digest.u64(log.digest.0);
    }
    out.digest = digest.0;
    out.attempted = logs.iter().map(|l| l.requests).sum::<u64>() + 2;
    for log in &mut logs {
        failures.absorb(std::mem::take(&mut log.failures));
    }
    // The end-to-end figures cover the edit loop, once both ingests ended.
    let figures = |logs: &[ClientLog], elapsed: f64| {
        let events: Vec<Event> = logs.iter().flat_map(|l| l.events.iter().copied()).collect();
        let loop_start = logs.iter().map(|l| l.ingested_at).fold(0.0, f64::max);
        Figures::windowed(&events, loop_start, elapsed, WINDOW_S)
    };
    let (base, window_rates) = figures(&logs, elapsed);

    if args.trace {
        // The traced half needs a graph of its own: a fresh set-up.
        let (service, tenants) = setup(args.seed, &mut setup_work, &mut failures);
        let before = service.stats();
        let (traced_logs, spans_list, traced_elapsed) = drive(&service, &tenants, half, true);
        let after = service.stats();
        verify(&tenants, &traced_logs, &mut failures);
        let (traced, _) = figures(&traced_logs, traced_elapsed);
        out.attempted += traced_logs.iter().map(|l| l.requests).sum::<u64>();
        let mut work = ServiceWork::default();
        work.add_stats(&before, &after);
        work.register_us = setup_work.register_us.clone();
        let mut spans = Spans::new(true, spans_list[0].epoch);
        for (log, client_spans) in traced_logs.into_iter().zip(spans_list) {
            failures.absorb(log.failures);
            work.absorb(log.work);
            spans.absorb(client_spans);
        }
        work.report(&mut out);
        let mut layers = LayerWork::default();
        replay(&tenants[0], &audit, &mut spans, &mut layers);
        layers.report(&mut out);
        out.push(
            "trace.overhead_pct",
            100.0 * (base.requests_per_s - traced.requests_per_s) / base.requests_per_s,
            "%",
        );
        out.push("trace.spans", spans.spans.len() as f64, "count");
        crate::write_trace(args, &spans);
    } else {
        let reads: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.reads_ms.iter().copied())
            .collect();
        let deltas: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.delta_ms.iter().copied())
            .collect();
        let ingest_s: f64 = logs
            .iter()
            .map(|l| l.ingest_ms.iter().sum::<f64>())
            .sum::<f64>()
            / 1e3;
        let triples: u64 = logs.iter().map(|l| l.triples).sum();
        out.push("setup_s", median(&setup_s), "s");
        base.report(&mut out);
        let rates: Vec<String> = window_rates.iter().map(|r| format!("{r:.0}")).collect();
        out.details.push(format!(
            "requests/s per {WINDOW_S} s window: {}",
            rates.join(" ")
        ));
        // Validation always decides: every verdict is valid or invalid.
        out.push("decided_share", 1.0, "share");
        out.push(
            "ok_share",
            1.0 - failures.count as f64 / out.attempted as f64,
            "share",
        );
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        out.details.push(format!(
            "stream_revalidate: ingest {:.0} triples/s ({triples} triples); delta p50 {:.4} ms over {}; \
             revalidate p50 {:.4} ms / p99 {:.3} ms over {}; {} iterations",
            triples as f64 / ingest_s,
            quantile(&deltas, 0.5),
            deltas.len(),
            quantile(&reads, 0.5),
            quantile(&reads, 0.99),
            reads.len(),
            logs.iter().map(|l| l.iterations).sum::<usize>()
        ));
    }
    out.failures.absorb(failures);
    out
}
