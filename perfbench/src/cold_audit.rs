//! `cold_audit`: a CI job auditing a freshly pushed schema corpus.
//!
//! Every pass builds one fresh, unbounded service and, from one caller
//! thread, registers each family's members and asks for the family's
//! containment matrix. Every cell is cold, so registration, embedding,
//! characterizing graphs, pool enumeration, candidate validation and the
//! solver do all the work; the service queue and the memos do almost none.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex::containment::engine::{ContainmentMatrix, EngineOptions, SchemaId};
use shapex::containment::Containment;
use shapex::gadgets::corpus::{Corpus, CorpusOptions};
use shapex::gadgets::disjuncts::{disjunct_choice_pair, disjunct_mismatch_pair};
use shapex::gadgets::figures;
use shapex::gadgets::generate::{random_dnf, SchemaGen};
use shapex::gadgets::reductions::{dnf_is_tautology, dnf_tautology_gadget};
use shapex::rbe::Rbe;
use shapex::service::{ContainmentService, ServiceRequest, ServiceResponse, TenantId};
use shapex::shex::{parse_schema, write_schema, Schema};

use crate::common::{
    certified, mean, median, ms, peak_rss_mb, quantile, renamed, seed_tag, us, verdict_code, Args,
    Failures, Figures, Fnv, Outcome, ServiceWork, Spans,
};
use crate::replay::{replay_pairs, witness_roundtrip, LayerWork};
use crate::stream_seed;

/// Corpus evolution families in one audit.
const CORPUS_FAMILIES: usize = 96;
/// Revisions per corpus family.
const CORPUS_REVISIONS: usize = 8;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// The structure of the evolution corpus (see [`families`]).
const CORPUS_SEED: u64 = 0x5eed_c0de;
/// Families whose cells the traced run replays layer by layer: every
/// family that is not a corpus family, plus this many corpus families.
const REPLAY_CORPUS_FAMILIES: usize = 8;

/// What the oracle knows about one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Contained,
    NotContained,
    /// Known contained, but the procedure may fail to prove it.
    NeverNotContained,
    /// Known not contained, but the search may miss every witness.
    NeverContained,
}

/// One family of schemas audited as one containment matrix.
#[derive(Debug, Clone)]
pub struct Family {
    name: String,
    members: Vec<Schema>,
    expect: Vec<(usize, usize, Expect)>,
    /// Every member is DetShEx₀⁻, where the procedure is exact: no cell may
    /// be `Unknown`.
    exact: bool,
}

impl Family {
    fn plain(name: String, members: Vec<Schema>) -> Family {
        Family {
            name,
            members,
            expect: Vec::new(),
            exact: false,
        }
    }
}

/// The audit's families, generated from the seed alone.
///
/// The evolution corpus has a fixed structure: a corpus drawn afresh for
/// every seed varies by about ±20% in cost from seed to seed, more than any
/// bound a regression gate can use. The seed renames every type and label
/// of it and shuffles the family order; the other families are drawn from
/// the seed outright.
pub fn families(seed: u64) -> Vec<Family> {
    let corpus = Corpus::generate(&CorpusOptions {
        families: CORPUS_FAMILIES,
        revisions: CORPUS_REVISIONS,
        seed: CORPUS_SEED,
        ..CorpusOptions::default()
    });
    let tag = seed_tag(seed);
    let mut out: Vec<Family> = corpus
        .families()
        .iter()
        .enumerate()
        .map(|(i, chain)| {
            let members = chain.iter().map(|s| renamed(s, &tag)).collect();
            Family::plain(format!("corpus/{i}"), members)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1));
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }

    // DetShEx₀⁻ restriction families: K and three restrictions of it, each
    // contained in K by construction and still in the class.
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 2));
    for types in [16, 32, 64] {
        let k = SchemaGen::new(types, 3).det_shex0_minus(&mut rng);
        let mut members = vec![k.clone()];
        members.extend((0..3).map(|_| restrict(&mut rng, &k)));
        let exact = members.iter().all(Schema::is_det_shex0_minus);
        let expect = (1..members.len())
            .map(|i| (i, 0, Expect::Contained))
            .collect();
        out.push(Family {
            name: format!("restriction/types={types}"),
            members,
            expect,
            exact,
        });
    }

    // Disjunct gadgets: H committing to one choice per group is contained,
    // H over-demanding group 1 is not.
    for groups in 2..=8 {
        let (choice, k) = disjunct_choice_pair(groups);
        let (mismatch, _) = disjunct_mismatch_pair(groups);
        out.push(Family {
            name: format!("disjunct/groups={groups}"),
            members: vec![choice, mismatch, k],
            expect: vec![(0, 2, Expect::Contained), (1, 2, Expect::NotContained)],
            exact: false,
        });
    }

    // DNF-tautology gadgets: contained iff the formula is a tautology. One
    // random formula and one forced tautology per size.
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 3));
    for vars in 3..=5 {
        let random = random_dnf(&mut rng, vars, vars, 2);
        let mut forced = random_dnf(&mut rng, vars, vars - 1, 2);
        forced.terms.push(vec![1]);
        forced.terms.push(vec![-1]);
        for (tag, formula) in [("random", random), ("tautology", forced)] {
            let (h, k) = dnf_tautology_gadget(&formula);
            // The search budget may cut either answer short, so the oracle
            // rules out only the wrong one.
            let expect = if dnf_is_tautology(&formula) {
                Expect::NeverNotContained
            } else {
                Expect::NeverContained
            };
            out.push(Family {
                name: format!("dnf/{tag}/vars={vars}"),
                members: vec![h, k],
                expect: vec![(0, 1, expect)],
                exact: false,
            });
        }
    }

    // The Figure 1 anchor: two schemas with one language, one of them
    // non-deterministic, so the search exhausts its budget both ways.
    out.push(Family {
        name: "anchor/figure1".into(),
        members: vec![
            figures::bug_tracker_schema(),
            figures::bug_tracker_split_schema(),
        ],
        expect: vec![
            (0, 1, Expect::NeverNotContained),
            (1, 0, Expect::NeverNotContained),
        ],
        exact: false,
    });
    out
}

/// A restriction of a DetShEx₀⁻ schema that stays in the class: every
/// type but the root (`T0`, which references all others through `*`) drops
/// each of its optional atoms with probability 0.3. Dropping an optional
/// atom narrows a definition and removes references without making any
/// remaining one less closed, so the result is contained in `k` and still
/// DetShEx₀⁻.
fn restrict(rng: &mut StdRng, k: &Schema) -> Schema {
    let mut h = Schema::new();
    for t in k.types() {
        h.add_type(k.type_name(t).to_owned());
    }
    for t in k.types() {
        let def = k.def(t);
        let narrowed = match def {
            Rbe::Concat(parts) if t.index() != 0 => Rbe::concat(
                parts
                    .iter()
                    .filter(|p| !matches!(p, Rbe::Repeat(_, i) if i.lo() == 0 && rng.gen_bool(0.3)))
                    .cloned()
                    .collect(),
            ),
            _ => def.clone(),
        };
        let ht = h.find_type(k.type_name(t)).expect("added above");
        h.define(ht, narrowed);
    }
    h
}

/// One audit through a fresh service.
struct Pass {
    elapsed: Duration,
    requests: u64,
    cells: u64,
    matrix_ms: Vec<f64>,
    register_ms: Vec<f64>,
    matrices: Vec<ContainmentMatrix>,
    work: ServiceWork,
}

impl Pass {
    fn figures(&self) -> Figures {
        let seconds = self.elapsed.as_secs_f64();
        Figures {
            requests_per_s: self.requests as f64 / seconds,
            verdicts_per_s: self.cells as f64 / seconds,
            read_mean_ms: mean(&self.matrix_ms),
            read_p90_ms: quantile(&self.matrix_ms, 0.9),
        }
    }
}

fn audit(families: &[Family], spans: &mut Spans, failures: &mut Failures) -> Pass {
    let service = ContainmentService::with_options(EngineOptions::builder().build());
    let before = service.stats();
    // Requests are built before the clock starts: the caller's cloning is
    // not the service's work.
    let mut registers: Vec<Vec<ServiceRequest>> = families
        .iter()
        .map(|f| {
            f.members
                .iter()
                .map(|s| ServiceRequest::Register(Box::new(s.clone())))
                .collect()
        })
        .collect();
    let mut pass = Pass {
        elapsed: Duration::ZERO,
        requests: 0,
        cells: 0,
        matrix_ms: Vec::new(),
        register_ms: Vec::new(),
        matrices: Vec::new(),
        work: ServiceWork::default(),
    };
    let started = Instant::now();
    for (family, requests) in families.iter().zip(registers.iter_mut()) {
        let family_start = Instant::now();
        let mut ids: Vec<SchemaId> = Vec::with_capacity(requests.len());
        for request in requests.drain(..) {
            let t0 = Instant::now();
            let response = service.handle(TenantId::DEFAULT, request);
            let t1 = Instant::now();
            spans.record("service.register", t0, t1, None);
            pass.register_ms.push(ms(t1 - t0));
            pass.work.register_us.push(us(t1 - t0));
            pass.work.roundtrip_us.push(us(t1 - t0));
            pass.requests += 1;
            match response {
                Ok(ServiceResponse::Registered(id)) => ids.push(id),
                other => failures.miss(format!("{}: register answered {other:?}", family.name)),
            }
        }
        let t0 = Instant::now();
        let response = service.handle(TenantId::DEFAULT, ServiceRequest::Matrix(ids));
        let t1 = Instant::now();
        spans.record("service.matrix", t0, t1, None);
        spans.record("audit.family", family_start, t1, None);
        pass.matrix_ms.push(ms(t1 - t0));
        pass.work.roundtrip_us.push(us(t1 - t0));
        pass.requests += 1;
        match response {
            Ok(ServiceResponse::Matrix(matrix)) => {
                pass.cells += (matrix.len() * matrix.len()) as u64;
                pass.matrices.push(matrix);
            }
            other => {
                failures.miss(format!("{}: matrix answered {other:?}", family.name));
                pass.matrices
                    .push(ContainmentMatrix::new(Vec::new(), Vec::new()));
            }
        }
    }
    pass.elapsed = started.elapsed();
    pass.work.add_stats(&before, &service.stats());
    pass
}

/// Check every cell of one pass against the oracle and fold it into a
/// digest. Returns `(digest, decided cells, cells)`.
fn verify(
    families: &[Family],
    matrices: &[ContainmentMatrix],
    failures: &mut Failures,
) -> (u64, u64, u64) {
    let mut digest = Fnv::default();
    let (mut decided, mut cells) = (0u64, 0u64);
    for (family, matrix) in families.iter().zip(matrices) {
        let n = family.members.len();
        if matrix.len() != n {
            failures.miss(format!(
                "{}: matrix of {} for {n} members",
                family.name,
                matrix.len()
            ));
            continue;
        }
        digest.str(&family.name);
        for i in 0..n {
            for j in 0..n {
                let answer = matrix.get(i, j);
                digest.u64(verdict_code(answer));
                cells += 1;
                decided += u64::from(!answer.is_unknown());
                let cell = format!("{}[{i}][{j}]", family.name);
                if i == j && answer.is_not_contained() {
                    failures.miss(format!("{cell}: a schema is not contained in itself"));
                }
                if family.exact && answer.is_unknown() {
                    failures.miss(format!("{cell}: unknown on an exact DetShEx0- pair"));
                }
                if let Containment::NotContained(witness) = answer {
                    let (h, k) = (&family.members[i], &family.members[j]);
                    if !certified(witness, h, k) {
                        failures.miss(format!("{cell}: witness is not certified"));
                    }
                }
            }
        }
        for &(i, j, expect) in &family.expect {
            let answer = matrix.get(i, j);
            let ok = match expect {
                Expect::Contained => answer.is_contained(),
                Expect::NotContained => answer.is_not_contained(),
                Expect::NeverNotContained => !answer.is_not_contained(),
                Expect::NeverContained => !answer.is_contained(),
            };
            if !ok {
                failures.miss(format!(
                    "{}[{i}][{j}]: expected {expect:?}, got {answer}",
                    family.name
                ));
            }
        }
        // Containment is transitive: two proven steps never end in a
        // refutation.
        for a in 0..n {
            for b in 0..n {
                if !matrix.get(a, b).is_contained() {
                    continue;
                }
                for c in 0..n {
                    if matrix.get(b, c).is_contained() && matrix.get(a, c).is_not_contained() {
                        failures.miss(format!(
                            "{}: transitivity broken at {a}->{b}->{c}",
                            family.name
                        ));
                    }
                }
            }
        }
    }
    (digest.0, decided, cells)
}

/// Per-layer replay over a fixed subset of the first pass: every
/// non-corpus family and the first few corpus families.
fn replay(
    families: &[Family],
    matrices: &[ContainmentMatrix],
    spans: &mut Spans,
    failures: &mut Failures,
) -> LayerWork {
    let mut work = LayerWork::default();
    let phase_start = Instant::now();
    for (family, matrix) in families.iter().zip(matrices) {
        let corpus_index = family
            .name
            .strip_prefix("corpus/")
            .and_then(|i| i.parse::<usize>().ok());
        if corpus_index.is_some_and(|i| i >= REPLAY_CORPUS_FAMILIES) {
            continue;
        }
        let n = family.members.len();
        if matrix.len() != n {
            continue;
        }
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .collect();
        let answers: Vec<Containment> = pairs
            .iter()
            .map(|&(i, j)| matrix.get(i, j).clone())
            .collect();
        replay_pairs(
            &family.members,
            &pairs,
            Some(&answers),
            spans,
            None,
            &mut work,
        );
        for (&(i, j), answer) in pairs.iter().zip(&answers) {
            if let Containment::NotContained(witness) = answer {
                let (h, k) = (&family.members[i], &family.members[j]);
                witness_roundtrip(witness, h, k, spans, None, &mut work, failures);
            }
        }
    }
    spans.record("replay", phase_start, Instant::now(), None);
    work
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut failures = Failures::default();

    // Set-up: the job receives the corpus as schema text and parses it.
    // Repeated, and the median reported.
    let mut setup_s = Vec::new();
    let mut families_built = Vec::new();
    for _ in 0..SETUPS {
        families_built.clear();
        let t0 = Instant::now();
        families_built = families(args.seed);
        for family in &mut families_built {
            for member in &mut family.members {
                match parse_schema(&write_schema(member)) {
                    Ok(parsed) => *member = parsed,
                    Err(error) => failures.miss(format!(
                        "{}: schema text does not parse back: {error}",
                        family.name
                    )),
                }
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let families = families_built;
    let cells_per_pass: usize = families.iter().map(|f| f.members.len().pow(2)).sum();

    // Measured passes. A traced run spends the first half untraced and the
    // second half traced, so the difference is the tracing overhead.
    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let half = if args.trace { budget / 2 } else { budget };
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut spans = Spans::new(true, epoch);
    let mut quiet = Spans::new(false, epoch);
    loop {
        let elapsed = epoch.elapsed();
        let tracing = args.trace && elapsed >= half && !untraced.is_empty();
        if elapsed >= budget && (!args.trace || !traced.is_empty()) {
            break;
        }
        let pass = if tracing {
            audit(&families, &mut spans, &mut failures)
        } else {
            audit(&families, &mut quiet, &mut failures)
        };
        if tracing {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    // The oracle checks the first pass cell by cell; every later pass must
    // reproduce its digest exactly.
    let first = untraced.first().expect("at least one pass runs");
    let (digest, decided, cells) = verify(&families, &first.matrices, &mut failures);
    for pass in untraced.iter().chain(&traced).skip(1) {
        let mut ignore = Failures::default();
        let (again, ..) = verify(&families, &pass.matrices, &mut ignore);
        if again != digest {
            failures.miss("two passes over the same corpus disagree on a verdict");
        }
    }
    out.digest = digest;
    // Every request sent, plus every cell the oracle checked.
    out.attempted = untraced
        .iter()
        .chain(&traced)
        .map(|p| p.requests)
        .sum::<u64>()
        + cells;

    let figures = |passes: &[Pass]| {
        let parts: Vec<Figures> = passes.iter().map(|p| p.figures()).collect();
        Figures::median_of(&parts)
    };
    if args.trace {
        let mut work = ServiceWork::default();
        for pass in &mut traced {
            work.absorb(std::mem::take(&mut pass.work));
        }
        work.report(&mut out);
        let layers = replay(&families, &first.matrices, &mut spans, &mut failures);
        layers.report(&mut out);
        let (base, with) = (
            figures(&untraced).verdicts_per_s,
            figures(&traced).verdicts_per_s,
        );
        out.push("trace.overhead_pct", 100.0 * (base - with) / base, "%");
        out.push("trace.spans", spans.spans.len() as f64, "count");
        crate::write_trace(args, &spans);
    } else {
        let matrix_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.matrix_ms.iter().copied())
            .collect();
        let register_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.register_ms.iter().copied())
            .collect();
        out.push("setup_s", median(&setup_s), "s");
        figures(&untraced).report(&mut out);
        out.push("decided_share", decided as f64 / cells as f64, "share");
        out.push(
            "ok_share",
            1.0 - failures.count as f64 / out.attempted as f64,
            "share",
        );
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        let per_pass: Vec<String> = untraced
            .iter()
            .map(|p| format!("{:.1}", p.figures().verdicts_per_s))
            .collect();
        out.details.push(format!(
            "cold_audit cells/s per pass: {}",
            per_pass.join(" ")
        ));
        out.details.push(format!(
            "cold_audit: {} families, {cells_per_pass} cells per pass, {} passes; \
             matrix p50 {:.3} ms / p90 {:.3} ms over {} matrices; register p50 {:.4} ms over {} registers",
            families.len(),
            untraced.len(),
            quantile(&matrix_ms, 0.5),
            quantile(&matrix_ms, 0.9),
            matrix_ms.len(),
            quantile(&register_ms, 0.5),
            register_ms.len()
        ));
    }
    out.failures.absorb(failures);
    out
}
