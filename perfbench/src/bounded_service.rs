//! `bounded_service`: a long-lived registry service whose cache budget is
//! smaller than its working set.
//!
//! Set-up registers an 8×8 evolution corpus plus the Figure 1 anchor pair
//! and warms the service with one pass over the corpus's evolution pairs.
//! The measured phase is a one-worker `ServicePool` under a 16 MiB cache
//! budget, driven by two closed-loop clients that each walk a seeded plan:
//! 70% `Check` skewed toward a hot set of evolution pairs, 10% `Check` on
//! the budget-exhausting anchor pair, 8% `Matrix` over one family, 7%
//! `Register` of a freshly evolved revision followed by its `Check`, and 5%
//! `Stats`. The service layer, memo hits and epoch-LRU eviction dominate;
//! cold search is the minority.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex::containment::engine::{EngineOptions, SchemaId};
use shapex::containment::Containment;
use shapex::gadgets::corpus::{evolve, Corpus, CorpusOptions};
use shapex::gadgets::figures;
use shapex::graph::Graph;
use shapex::service::{
    ContainmentService, PoolClient, ServicePool, ServiceRequest, ServiceResponse, TenantId,
};
use shapex::shex::Schema;

use crate::common::{
    certified, median, ms, peak_rss_mb, quantile, renamed, seed_tag, us, verdict_code, Args, Event,
    Failures, Figures, Fnv, Outcome, ServiceWork, Spans,
};
use crate::replay::{replay_pairs, witness_roundtrip, LayerWork};
use crate::stream_seed;

/// The evictable-cache budget. The traffic's evictable working set is
/// several times larger, so the epoch-LRU sweeps run continuously; at
/// 4 MiB the same traffic thrashes (see README.md).
const CACHE_BUDGET: u64 = 16 << 20;
const FAMILIES: usize = 8;
/// The structure of the corpus and its hot set.
const CORPUS_SEED: u64 = 0xb0_5eed;
const REVISIONS: usize = 8;
/// Evolution pairs in the hot set the skewed checks favour.
const HOT_PAIRS: usize = 16;
const CLIENTS: usize = 2;
/// Width of the windows the end-to-end figures are taken over.
const WINDOW_S: f64 = 2.0;
const WORKERS: usize = 1;
const QUEUE_CAPACITY: usize = 4;
/// Client-side bound on one round trip; no request comes near it.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// The registered working set, as the clients see it.
struct World {
    /// Every schema the set-up registered, by corpus index; the anchor
    /// pair comes last.
    schemas: Vec<Schema>,
    ids: Vec<SchemaId>,
    families: Vec<Vec<usize>>,
    pairs: Vec<(usize, usize)>,
    hot: Vec<(usize, usize)>,
    anchor: (usize, usize),
}

fn register(
    service: &ContainmentService,
    schema: &Schema,
    work: &mut ServiceWork,
) -> Option<SchemaId> {
    let t0 = Instant::now();
    let response = service.handle(
        TenantId::DEFAULT,
        ServiceRequest::Register(Box::new(schema.clone())),
    );
    work.register_us.push(us(t0.elapsed()));
    match response {
        Ok(ServiceResponse::Registered(id)) => Some(id),
        _ => None,
    }
}

/// Build the service, register the working set and warm it. Returns the
/// warm pass's answers, in `warm_pairs` order.
fn setup(
    seed: u64,
    work: &mut ServiceWork,
    failures: &mut Failures,
) -> (ContainmentService, World, Vec<Containment>) {
    let service = ContainmentService::with_options(
        EngineOptions::builder().cache_budget(CACHE_BUDGET).build(),
    );
    // A fixed corpus structure, renamed by the seed, for the reason
    // `cold_audit::families` gives.
    let corpus = Corpus::generate(&CorpusOptions {
        families: FAMILIES,
        revisions: REVISIONS,
        seed: CORPUS_SEED,
        ..CorpusOptions::default()
    });
    let tag = seed_tag(seed);
    let mut schemas: Vec<Schema> = corpus.schemas().map(|s| renamed(s, &tag)).collect();
    schemas.push(figures::bug_tracker_schema());
    schemas.push(figures::bug_tracker_split_schema());
    let ids: Vec<SchemaId> = schemas
        .iter()
        .map(|s| {
            register(&service, s, work).unwrap_or_else(|| {
                failures.miss("set-up registration failed");
                service.engine().register(s)
            })
        })
        .collect();
    let anchor = (schemas.len() - 2, schemas.len() - 1);
    let pairs = corpus.evolution_pairs();
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let hot = order.iter().take(HOT_PAIRS).map(|&i| pairs[i]).collect();
    let families = (0..FAMILIES)
        .map(|f| (f * REVISIONS..(f + 1) * REVISIONS).collect())
        .collect();
    let world = World {
        schemas,
        ids,
        families,
        pairs,
        hot,
        anchor,
    };
    let answers = warm_pairs(&world)
        .iter()
        .map(|&(h, k)| {
            let request = ServiceRequest::Check {
                h: world.ids[h],
                k: world.ids[k],
            };
            match service.handle(TenantId::DEFAULT, request) {
                Ok(ServiceResponse::Answer(answer)) => answer,
                other => {
                    failures.miss(format!("warm check answered {other:?}"));
                    Containment::not_supported()
                }
            }
        })
        .collect();
    (service, world, answers)
}

/// The pairs the set-up warms: every evolution pair, then the anchor both
/// ways.
fn warm_pairs(world: &World) -> Vec<(usize, usize)> {
    let (a, b) = world.anchor;
    world
        .pairs
        .iter()
        .copied()
        .chain([(a, b), (b, a)])
        .collect()
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    events: Vec<Event>,
    writes_ms: Vec<f64>,
    /// Round trips by request kind, for the detail line.
    check_ms: Vec<f64>,
    anchor_ms: Vec<f64>,
    matrix_ms: Vec<f64>,
    requests: u64,
    verdicts: u64,
    decided: u64,
    /// First verdict code seen per ordered pair.
    seen: HashMap<(SchemaId, SchemaId), u64>,
    /// The first counter-example seen per pair, certified after the phase.
    witnesses: Vec<(SchemaId, SchemaId, Graph)>,
    /// Revisions this client registered, for certification.
    fresh: Vec<(SchemaId, Schema)>,
    anchor_refuted: u64,
    failures: Failures,
    work: ServiceWork,
}

impl ClientLog {
    /// Mark the last request as a read that delivered `verdicts`.
    fn read(&mut self, took: f64, verdicts: u64) {
        if let Some(last) = self.events.last_mut() {
            last.read_ms = Some(took);
            last.verdicts = verdicts;
        }
    }

    fn verdict(&mut self, h: SchemaId, k: SchemaId, answer: &Containment) {
        self.verdicts += 1;
        self.decided += u64::from(!answer.is_unknown());
        let code = verdict_code(answer);
        match self.seen.get(&(h, k)) {
            Some(&first) if first != code => {
                self.failures
                    .miss(format!("pair {h:?}/{k:?} answered two different verdicts"));
            }
            Some(_) => {}
            None => {
                self.seen.insert((h, k), code);
                if let Containment::NotContained(witness) = answer {
                    self.witnesses.push((h, k, Graph::clone(witness)));
                }
            }
        }
    }
}

fn client_loop(
    client: &PoolClient,
    world: &World,
    rng_seed: u64,
    offset: usize,
    epoch: Instant,
    deadline: Instant,
    spans: &mut Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    // Each client evolves its own copy of every family's newest revision.
    let mut tips: Vec<(Schema, SchemaId)> = world
        .families
        .iter()
        .map(|f| {
            let last = *f.last().expect("families are non-empty");
            (world.schemas[last].clone(), world.ids[last])
        })
        .collect();
    let call =
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
    let schedule = schedule();
    let mut checks = 0usize;
    let mut anchors = 0usize;
    for slot in (offset..).map(|i| schedule[i % schedule.len()]) {
        if Instant::now() >= deadline {
            break;
        }
        match slot {
            Kind::Check | Kind::Anchor => {
                let (h, k) = if slot == Kind::Anchor {
                    anchors += 1;
                    if anchors.is_multiple_of(2) {
                        world.anchor
                    } else {
                        (world.anchor.1, world.anchor.0)
                    }
                } else {
                    // Four in five checks go to the hot set.
                    checks += 1;
                    if checks.is_multiple_of(5) {
                        world.pairs[rng.gen_range(0..world.pairs.len())]
                    } else {
                        world.hot[rng.gen_range(0..world.hot.len())]
                    }
                };
                let (h, k) = (world.ids[h], world.ids[k]);
                let (response, took) = call(
                    &mut log,
                    spans,
                    "service.check",
                    ServiceRequest::Check { h, k },
                );
                log.read(took, 1);
                log.check_ms.push(took);
                if slot == Kind::Anchor {
                    log.anchor_ms.push(took);
                }
                match response {
                    Ok(ServiceResponse::Answer(answer)) => {
                        if slot == Kind::Anchor && answer.is_not_contained() {
                            log.anchor_refuted += 1;
                        }
                        log.verdict(h, k, &answer);
                    }
                    other => log.failures.miss(format!("check answered {other:?}")),
                }
            }
            Kind::Matrix => {
                let family = &world.families[rng.gen_range(0..world.families.len())];
                let ids: Vec<SchemaId> = family.iter().map(|&i| world.ids[i]).collect();
                let cells = (ids.len() * ids.len()) as u64;
                let (response, took) = call(
                    &mut log,
                    spans,
                    "service.matrix",
                    ServiceRequest::Matrix(ids),
                );
                log.read(took, cells);
                log.matrix_ms.push(took);
                match response {
                    Ok(ServiceResponse::Matrix(matrix)) => {
                        for (h, k, answer) in matrix.entries() {
                            log.verdict(h, k, answer);
                        }
                    }
                    other => log.failures.miss(format!("matrix answered {other:?}")),
                }
            }
            Kind::Register => {
                let family = rng.gen_range(0..tips.len());
                let next = evolve(&mut rng, &tips[family].0);
                let request = ServiceRequest::Register(Box::new(next.clone()));
                let (response, took) = call(&mut log, spans, "service.register", request);
                log.writes_ms.push(took);
                log.work.register_us.push(took * 1e3);
                let Ok(ServiceResponse::Registered(id)) = response else {
                    log.failures.miss(format!("register answered {response:?}"));
                    continue;
                };
                let parent = tips[family].1;
                log.fresh.push((id, next.clone()));
                tips[family] = (next, id);
                let request = ServiceRequest::Check { h: parent, k: id };
                let (response, took) = call(&mut log, spans, "service.check", request);
                log.read(took, 1);
                log.check_ms.push(took);
                match response {
                    Ok(ServiceResponse::Answer(answer)) => log.verdict(parent, id, &answer),
                    other => log.failures.miss(format!("fresh check answered {other:?}")),
                }
            }
            Kind::Stats => {
                let (response, _) = call(&mut log, spans, "service.stats", ServiceRequest::Stats);
                if !matches!(response, Ok(ServiceResponse::Stats(_))) {
                    log.failures.miss(format!("stats answered {response:?}"));
                }
            }
        }
    }
    log
}

/// The kinds of request in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Check,
    Anchor,
    Matrix,
    Register,
    Stats,
}

/// The request mix as a fixed cycle of 100 slots (70 checks, 10 anchor
/// checks, 8 matrices, 7 registrations, 5 stats), interleaved once by a
/// constant seed. Every run sends the same mix in the same order; the run's
/// seed picks only the pairs, families and revisions.
fn schedule() -> Vec<Kind> {
    let mut slots = Vec::with_capacity(100);
    for (kind, n) in [
        (Kind::Check, 70),
        (Kind::Anchor, 10),
        (Kind::Matrix, 8),
        (Kind::Register, 7),
        (Kind::Stats, 5),
    ] {
        slots.extend(std::iter::repeat_n(kind, n));
    }
    let mut rng = StdRng::seed_from_u64(0x5c4e_d01e);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.gen_range(0..=i));
    }
    slots
}

/// One measured phase: a fresh pool over the warmed service, `CLIENTS`
/// closed-loop clients, until `seconds` pass.
fn drive(
    service: &ContainmentService,
    world: &World,
    seed: u64,
    seconds: f64,
    tracing: bool,
) -> (Vec<ClientLog>, Vec<Spans>, f64) {
    let pool: ServicePool = service.pool(WORKERS, QUEUE_CAPACITY);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let results: Vec<(ClientLog, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = pool.client(TenantId::DEFAULT);
                scope.spawn(move || {
                    let mut spans = Spans::new(tracing, epoch);
                    let log = client_loop(
                        &client,
                        world,
                        stream_seed(seed, 30 + c as u64),
                        50 * c,
                        epoch,
                        deadline,
                        &mut spans,
                    );
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

/// Certify every counter-example and check cross-client agreement.
fn verify(world: &World, logs: &[ClientLog], failures: &mut Failures) {
    let mut schemas: HashMap<SchemaId, &Schema> =
        world.ids.iter().copied().zip(&world.schemas).collect();
    for log in logs {
        for (id, schema) in &log.fresh {
            schemas.insert(*id, schema);
        }
    }
    let mut agreed: HashMap<(SchemaId, SchemaId), u64> = HashMap::new();
    for log in logs {
        for (&pair, &code) in &log.seen {
            if *agreed.entry(pair).or_insert(code) != code {
                failures.miss(format!("clients disagree on pair {pair:?}"));
            }
        }
        for (h, k, witness) in &log.witnesses {
            match (schemas.get(h), schemas.get(k)) {
                (Some(hs), Some(ks)) if certified(witness, hs, ks) => {}
                _ => failures.miss(format!("witness for {h:?}/{k:?} is not certified")),
            }
        }
        if log.anchor_refuted > 0 {
            failures.miss("the anchor pair (equal languages) was refuted");
        }
    }
}

/// Oracle and digest of the set-up's warm pass.
fn verify_warm(world: &World, answers: &[Containment], failures: &mut Failures) -> u64 {
    let mut digest = Fnv::default();
    for (&(h, k), answer) in warm_pairs(world).iter().zip(answers) {
        digest.u64(verdict_code(answer));
        if let Containment::NotContained(witness) = answer {
            if !certified(witness, &world.schemas[h], &world.schemas[k]) {
                failures.miss(format!("warm witness for {h}/{k} is not certified"));
            }
            if (h, k) == world.anchor || (k, h) == world.anchor {
                failures.miss("the anchor pair (equal languages) was refuted");
            }
        }
    }
    digest.0
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut failures = Failures::default();
    let mut setup_work = ServiceWork::default();

    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let t0 = Instant::now();
        let (service, world, answers) = setup(args.seed, &mut setup_work, &mut failures);
        setup_s.push(t0.elapsed().as_secs_f64());
        digests.push(verify_warm(&world, &answers, &mut failures));
        built = Some((service, world, answers));
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failures.miss("two set-ups of the same seed warmed to different verdicts");
    }
    out.digest = digests[0];
    let (service, world, answers) = built.expect("set-up ran");
    // Peak RSS of the warmed registry. The serving phase grows it with every
    // registration and with the allocator's fragmentation across the worker
    // and client threads, which read 60-116 MB at a fixed request count over
    // ten seeds: too loose to gate on.
    let warm_rss_mb = peak_rss_mb();

    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut logs, _, elapsed) = drive(&service, &world, args.seed, half, false);
    verify(&world, &logs, &mut failures);
    let figures = |logs: &[ClientLog], elapsed: f64| {
        let events: Vec<Event> = logs.iter().flat_map(|l| l.events.iter().copied()).collect();
        Figures::windowed(&events, 0.0, elapsed, WINDOW_S)
    };
    let (base, window_rates) = figures(&logs, elapsed);
    out.attempted = logs.iter().map(|l| l.requests).sum::<u64>() + answers.len() as u64;
    for log in &mut logs {
        failures.absorb(std::mem::take(&mut log.failures));
    }

    if args.trace {
        let before = service.stats();
        let (traced_logs, spans_list, traced_elapsed) =
            drive(&service, &world, args.seed ^ 1, half, true);
        let after = service.stats();
        verify(&world, &traced_logs, &mut failures);
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
        // Replay the warmed working set through the layers.
        let mut layers = LayerWork::default();
        let pairs = warm_pairs(&world);
        let replay_start = std::time::Instant::now();
        replay_pairs(
            &world.schemas,
            &pairs,
            Some(&answers),
            &mut spans,
            None,
            &mut layers,
        );
        for (&(h, k), answer) in pairs.iter().zip(&answers) {
            if let Containment::NotContained(witness) = answer {
                witness_roundtrip(
                    witness,
                    &world.schemas[h],
                    &world.schemas[k],
                    &mut spans,
                    None,
                    &mut layers,
                    &mut failures,
                );
            }
        }
        spans.record("replay", replay_start, std::time::Instant::now(), None);
        layers.report(&mut out);
        out.push(
            "trace.overhead_pct",
            100.0 * (base.requests_per_s - traced.requests_per_s) / base.requests_per_s,
            "%",
        );
        out.push("trace.spans", spans.spans.len() as f64, "count");
        crate::write_trace(args, &spans);
    } else {
        let writes: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.writes_ms.iter().copied())
            .collect();
        let verdicts: u64 = logs.iter().map(|l| l.verdicts).sum();
        let decided: u64 = logs.iter().map(|l| l.decided).sum();
        out.push("setup_s", median(&setup_s), "s");
        base.report(&mut out);
        let rates: Vec<String> = window_rates.iter().map(|r| format!("{r:.0}")).collect();
        out.details.push(format!(
            "requests/s per {WINDOW_S} s window: {}",
            rates.join(" ")
        ));
        out.push(
            "decided_share",
            decided as f64 / verdicts.max(1) as f64,
            "share",
        );
        out.push(
            "ok_share",
            1.0 - failures.count as f64 / out.attempted as f64,
            "share",
        );
        out.push("peak_rss_mb", warm_rss_mb, "MB");
        let stats = service.stats();
        let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
            logs.iter().flat_map(|l| f(l).iter().copied()).collect()
        };
        let (checks, anchor, matrices) = (
            all(|l| &l.check_ms),
            all(|l| &l.anchor_ms),
            all(|l| &l.matrix_ms),
        );
        out.details.push(format!(
            "bounded_service: {} requests in {elapsed:.2} s; check p50 {:.4} ms / p99 {:.3} ms over {} \
             (anchor p50 {:.3} ms over {}); matrix p50 {:.3} ms / p90 {:.3} ms over {}; register p50 {:.4} ms over {}; \
             {} evictions, {} resident bytes at the end",
            logs.iter().map(|l| l.requests).sum::<u64>(),
            quantile(&checks, 0.5),
            quantile(&checks, 0.99),
            checks.len(),
            quantile(&anchor, 0.5),
            anchor.len(),
            quantile(&matrices, 0.5),
            quantile(&matrices, 0.9),
            matrices.len(),
            quantile(&writes, 0.5),
            writes.len(),
            stats.engine.evictions,
            stats.engine.resident_bytes()
        ));
    }
    out.failures.absorb(failures);
    out
}
