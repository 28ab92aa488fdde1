//! E6 (Figure 7): the complexity summary table of the paper, regenerated as a
//! scaling experiment.
//!
//! The paper's table reads:
//!
//! ```text
//!              DetShEx0-        ShEx0                 ShEx
//!  complexity  P                EXP-hard / coNEXP     coNEXP-hard / co2NEXP^NP
//! ```
//!
//! This binary measures the implemented decision procedures on growing
//! workloads of each class and prints the observed behaviour next to the
//! paper's classification. Run with
//! `cargo run --release -p shapex-bench --bin fig7_summary`.
//!
//! Every measurement is repeated a few times and its mean/min/max (the same
//! statistics the vendored criterion shim reports) are written as
//! machine-readable JSON to `BENCH_fig7.json` (override the path with the
//! `BENCH_FIG7_JSON` environment variable) — CI uploads that file as a
//! per-commit artifact, the start of the benchmark trajectory the ROADMAP
//! asks for.

use std::time::{Duration, Instant};

use shapex_bench::throughput::{drive, DriveOptions};
use shapex_bench::{contained_det_pair, contained_shex0_pair, evolution_family, rng};
use shapex_core::det::det_containment;
use shapex_core::engine::ContainmentEngine;
use shapex_core::general::{general_containment, GeneralOptions};
use shapex_core::shex0::{shex0_containment, Shex0Options};
use shapex_core::unfold::SearchOptions;
use shapex_core::CancelToken;
use shapex_gadgets::disjuncts::{disjunct_choice_pair, disjunct_mismatch_pair};
use shapex_gadgets::generate::random_dnf;
use shapex_gadgets::reductions::{dnf_tautology_gadget, exponential_family};
use shapex_graph::{Graph, GraphDelta, NTriplesParser, Triple};
use shapex_presburger::{Bounds, Formula, LinearExpr, SolveResult, Solver, VarPool};
use shapex_shex::parse_schema;
use shapex_shex::{maximal_typing, IncrementalTyping, Schema};

/// One named measurement: per-run statistics in nanoseconds.
struct BenchRecord {
    id: String,
    runs: usize,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// Collects every timed workload of the summary for the JSON artifact.
#[derive(Default)]
struct Recorder {
    records: Vec<BenchRecord>,
}

impl Recorder {
    /// Run `f` `runs` times, record mean/min/max under `id`, and return the
    /// last result together with the mean duration (shown in the tables).
    fn measure<F: FnMut() -> R, R>(&mut self, id: &str, runs: usize, mut f: F) -> (R, Duration) {
        let mut result = None;
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let start = Instant::now();
            result = Some(f());
            samples.push(start.elapsed().as_nanos() as f64);
        }
        let mean = self.record(id, &samples).mean_ns;
        (
            result.expect("runs >= 1"),
            Duration::from_nanos(mean as u64),
        )
    }

    /// Record mean/min/max of per-run `samples` (ns) timed elsewhere under
    /// `id`.
    fn record(&mut self, id: &str, samples: &[f64]) -> &BenchRecord {
        self.records.push(BenchRecord {
            id: id.to_owned(),
            runs: samples.len(),
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max_ns: samples.iter().copied().fold(0.0, f64::max),
        });
        self.records.last().expect("just recorded")
    }

    /// Serialise all records as JSON (no external dependencies: the ids are
    /// plain ASCII, so escaping quotes and backslashes suffices).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fig7-summary/v1\",\n  \"benches\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let id = r.id.replace('\\', "\\\\").replace('"', "\\\"");
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"runs\": {}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}}}{}\n",
                r.runs,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn schema_sizes(h: &Schema, k: &Schema) -> usize {
    h.size() + k.size()
}

/// Per-variable bound of the `presburger_disjuncts` scaling family.
const DISJUNCT_BOUND: u64 = 6;

/// Number of branches in the top-level disjunction of the family.
const DISJUNCT_BRANCHES: usize = 16;

/// The `presburger_disjuncts/vars=N` instance: a top-level disjunction of
/// [`DISJUNCT_BRANCHES`] arms, each pinning `2·Σxᵢ` to an odd constant.
/// Every arm is unsatisfiable by parity, which interval propagation cannot
/// see — the solver must enumerate the assignment window of each arm in
/// full, so the whole branch tree is explored.
fn disjunct_scaling_formula(vars: usize, pool: &mut VarPool) -> Formula {
    let xs: Vec<_> = (0..vars)
        .map(|i| pool.fresh_named(format!("x{i}")))
        .collect();
    let doubled = xs.iter().fold(LinearExpr::constant(0), |acc, v| {
        acc.add(&LinearExpr::term(*v, 2))
    });
    // Odd targets clustered around the middle of the reachable range
    // `0..=2·N·B`, where the number of bounded compositions (and hence the
    // per-arm search effort) peaks.
    let middle = vars as i64 * DISJUNCT_BOUND as i64;
    let arms: Vec<Formula> = (0..DISJUNCT_BRANCHES)
        .map(|k| {
            let offset = k as i64 - DISJUNCT_BRANCHES as i64 / 2;
            Formula::eq(
                doubled.clone(),
                LinearExpr::constant(middle + 2 * offset + 1),
            )
        })
        .collect();
    Formula::or(arms)
}

/// Mean regression factor above which the gate fails the run.
const REGRESSION_GATE: f64 = 2.5;

/// Ceiling on `deadline_overhead/deadline=1h` relative to the undeadlined
/// path: checkpoint polling may cost at most 3% on the disjunct gadget.
const DEADLINE_OVERHEAD_GATE: f64 = 1.03;

/// Interleaved `(no deadline, deadline)` run pairs behind the deadline gate.
const DEADLINE_PAIRS: usize = 61;

/// The deadline gate's statistic: the median over run pairs of
/// `armed / plain`, where pair `i` timed `plain_ns[i]` and `armed_ns[i]`
/// back to back. Host drift moves both runs of a pair alike, so it cancels
/// in the ratio, and the median ignores the pairs a scheduler hiccup hit.
fn median_pair_ratio(plain_ns: &[f64], armed_ns: &[f64]) -> f64 {
    assert_eq!(plain_ns.len(), armed_ns.len(), "one ratio per pair");
    let mut ratios: Vec<f64> = plain_ns
        .iter()
        .zip(armed_ns)
        .map(|(plain, armed)| armed / plain.max(f64::EPSILON))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Whether deadline polling stays within [`DEADLINE_OVERHEAD_GATE`].
fn deadline_gate_passes(plain_ns: &[f64], armed_ns: &[f64]) -> bool {
    median_pair_ratio(plain_ns, armed_ns) <= DEADLINE_OVERHEAD_GATE
}

/// Parse a previously written summary back into `(id, mean_ns)` pairs. The
/// format is this binary's own line-per-record JSON, so a line-based scan is
/// exact (no external JSON dependency in the workspace).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id_start) = line.find("\"id\": \"") else {
            continue;
        };
        let rest = &line[id_start + 7..];
        let Some(id_end) = rest.find('"') else {
            continue;
        };
        let id = &rest[..id_end];
        let Some(mean_at) = line.find("\"mean_ns\": ") else {
            continue;
        };
        let mean_text: String = line[mean_at + 11..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(mean) = mean_text.parse::<f64>() {
            out.push((id.to_owned(), mean));
        }
    }
    out
}

/// Compare the fresh records against the committed baseline and fail on any
/// mean regression beyond [`REGRESSION_GATE`] — the CI tripwire the ROADMAP
/// asks for. A workload only counts as regressed when its *minimum* run is
/// also beyond the threshold: a genuine slowdown slows every run, while a
/// scheduler hiccup inflates the mean through one outlier (the committed
/// microsecond-scale records show ~2.5x min/max spreads within a single
/// 3-run sample, so a mean-only gate would flake on shared runners).
/// `BENCH_FIG7_NO_GATE` skips the gate entirely (noisy or slow hosts).
fn enforce_regression_gate(recorder: &Recorder, baseline: &[(String, f64)]) -> Result<(), String> {
    let mut regressions = Vec::new();
    for record in &recorder.records {
        let Some((_, old_mean)) = baseline.iter().find(|(id, _)| *id == record.id) else {
            continue; // new workload: nothing to compare against
        };
        let threshold = old_mean * REGRESSION_GATE;
        if *old_mean > 0.0 && record.mean_ns > threshold && record.min_ns > threshold {
            regressions.push(format!(
                "  {}: {:.0}ns -> {:.0}ns mean / {:.0}ns min ({:.1}x)",
                record.id,
                old_mean,
                record.mean_ns,
                record.min_ns,
                record.mean_ns / old_mean
            ));
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "regression beyond {REGRESSION_GATE}x against the committed baseline \
             (both mean and best-of-run):\n{}",
            regressions.join("\n")
        ))
    }
}

fn main() {
    let mut recorder = Recorder::default();
    println!("Figure 7 — containment complexity per schema class (paper vs. measured)\n");
    println!(
        "{:<14} {:<26} {:<30}",
        "class", "paper", "this implementation"
    );
    println!(
        "{:<14} {:<26} {:<30}",
        "DetShEx0-", "in P (Cor. 4.4)", "embedding check, polynomial"
    );
    println!(
        "{:<14} {:<26} {:<30}",
        "ShEx0", "EXP-hard, in coNEXP", "embedding + type-set fixpoint"
    );
    println!(
        "{:<14} {:<26} {:<30}",
        "ShEx", "coNEXP-hard, in co2NEXP^NP", "sufficient check + budgeted search"
    );

    // --- DetShEx0-: polynomial scaling -------------------------------------
    println!("\n[DetShEx0-] containment on random contained pairs (Cor. 4.4)");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "types", "|H|+|K|", "answer", "time"
    );
    for &types in &[4usize, 8, 16, 32, 64] {
        let (h, k) = contained_det_pair(types, 70 + types as u64);
        let (result, elapsed) =
            recorder.measure(&format!("det_containment/types={types}"), 3, || {
                det_containment(&h, &k).unwrap()
            });
        println!(
            "{:>8} {:>12} {:>14} {:>12.2?}",
            types,
            schema_sizes(&h, &k),
            if result.is_contained() {
                "contained"
            } else {
                "other"
            },
            elapsed
        );
    }

    // --- ShEx0: the DNF gadget grows quickly --------------------------------
    println!(
        "\n[ShEx0 / DetShEx0] DNF-tautology gadget (Thm. 4.5), answer via the type-set fixpoint"
    );
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "vars", "|H|+|K|", "answer", "time"
    );
    for &vars in &[2usize, 3, 4, 5] {
        let mut r = rng(7_000 + vars as u64);
        let formula = random_dnf(&mut r, vars, vars, 2);
        let (h, k) = dnf_tautology_gadget(&formula);
        let (result, elapsed) =
            recorder.measure(&format!("shex0_dnf_gadget/vars={vars}"), 3, || {
                shex0_containment(&h, &k, &Shex0Options::default())
            });
        let answer = if result.is_contained() {
            "contained"
        } else if result.is_not_contained() {
            "not contained"
        } else {
            "unknown"
        };
        println!(
            "{:>8} {:>12} {:>14} {:>12.2?}",
            vars,
            schema_sizes(&h, &k),
            answer,
            elapsed
        );
    }

    println!("\n[ShEx0] random contained pairs (embedding fast path)");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "types", "|H|+|K|", "answer", "time"
    );
    for &types in &[4usize, 8, 16, 32] {
        let (h, k) = contained_shex0_pair(types, 90 + types as u64);
        let (result, elapsed) =
            recorder.measure(&format!("shex0_contained_pair/types={types}"), 3, || {
                shex0_containment(&h, &k, &Shex0Options::quick())
            });
        println!(
            "{:>8} {:>12} {:>14} {:>12.2?}",
            types,
            schema_sizes(&h, &k),
            if result.is_contained() {
                "contained"
            } else {
                "other"
            },
            elapsed
        );
    }

    println!("\n[ShEx0] Lemma 5.1 family: counter-example size is exponential in n");
    println!("{:>8} {:>12} {:>18}", "n", "|H|+|K|", "witness nodes");
    for n in 1..=4usize {
        let (h, k) = exponential_family(n);
        let witness = shapex_gadgets::reductions::exponential_family_witness(n);
        println!(
            "{:>8} {:>12} {:>18}",
            n,
            schema_sizes(&h, &k),
            witness.node_count()
        );
    }

    // --- Full ShEx -----------------------------------------------------------
    println!("\n[ShEx] disjunctive schemas through the general procedure");
    let narrow = parse_schema("Root -> p::A\nA -> a::L?\nB -> b::L\nL -> EMPTY\n").unwrap();
    let wide = parse_schema("Root -> p::A | p::B\nA -> a::L?\nB -> b::L\nL -> EMPTY\n").unwrap();
    let cases = [
        ("narrow ⊆ wide", "narrow_in_wide", &narrow, &wide),
        ("wide ⊆ narrow", "wide_in_narrow", &wide, &narrow),
    ];
    println!("{:>16} {:>14} {:>12}", "case", "answer", "time");
    for (name, id, h, k) in cases {
        let (result, elapsed) = recorder.measure(&format!("general_containment/{id}"), 3, || {
            general_containment(h, k, &GeneralOptions::quick())
        });
        let answer = if result.is_contained() {
            "contained"
        } else if result.is_not_contained() {
            "not contained"
        } else {
            "unknown"
        };
        println!("{:>16} {:>14} {:>12.2?}", name, answer, elapsed);
    }

    // --- ShEx: disjunct-heavy gadgets through the Presburger solver ---------
    println!("\n[ShEx] choice-group gadgets (ψ translation + bounded solver per check)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "groups", "side", "|H|+|K|", "answer", "time"
    );
    for &groups in &[2usize, 4, 6] {
        let pairs = [
            ("choice", disjunct_choice_pair(groups)),
            ("mismatch", disjunct_mismatch_pair(groups)),
        ];
        for (side, (h, k)) in pairs {
            let (result, elapsed) = recorder.measure(
                &format!("general_disjunct_gadget/{side}/groups={groups}"),
                3,
                || general_containment(&h, &k, &GeneralOptions::quick()),
            );
            let answer = if result.is_contained() {
                "contained"
            } else if result.is_not_contained() {
                "not contained"
            } else {
                "unknown"
            };
            println!(
                "{:>8} {:>12} {:>14} {:>14} {:>12.2?}",
                groups,
                side,
                schema_sizes(&h, &k),
                answer,
                elapsed
            );
        }
    }

    // --- Presburger: the disjunct search ------------------------------------
    println!("\n[solver] wide unsatisfiable disjunctions");
    println!("{:>8} {:>12} {:>12}", "vars", "branches", "time");
    for &vars in &[4usize, 5, 6] {
        let mut pool = VarPool::new();
        let formula = disjunct_scaling_formula(vars, &mut pool);
        let solver = Solver::new(Bounds::uniform(DISJUNCT_BOUND));
        let (result, time) =
            recorder.measure(&format!("presburger_disjuncts/vars={vars}"), 3, || {
                solver.solve(&formula, &pool)
            });
        assert_eq!(
            result,
            SolveResult::Unsat,
            "the parity family is unsatisfiable by construction"
        );
        println!("{:>8} {:>12} {:>12.2?}", vars, DISJUNCT_BRANCHES, time);
    }

    // --- Batch schema evolution: the ContainmentEngine session --------------
    println!("\n[batch] N×N containment matrix over an evolving schema family");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "N", "one-shot N²", "engine", "engine ×"
    );
    let batch_opts = SearchOptions::quick();
    for &n in &[8usize, 12] {
        let family = evolution_family(n);
        let (oneshot_contained, oneshot_time) =
            recorder.measure(&format!("batch_matrix/oneshot/n={n}"), 3, || {
                let mut contained = 0usize;
                for h in &family {
                    for k in &family {
                        if general_containment(h, k, &batch_opts).is_contained() {
                            contained += 1;
                        }
                    }
                }
                contained
            });
        let (engine_contained, engine_time) =
            recorder.measure(&format!("batch_matrix/engine/n={n}"), 3, || {
                ContainmentEngine::with_search(batch_opts.clone())
                    .check_matrix(&family)
                    .iter()
                    .flatten()
                    .filter(|c| c.is_contained())
                    .count()
            });
        assert_eq!(
            oneshot_contained, engine_contained,
            "engine and one-shot matrices must agree"
        );
        // The memoisation bar: the engine at ≥ 2× over the one-shot loop.
        println!(
            "{:>8} {:>16.2?} {:>16.2?} {:>9.1}×",
            n,
            oneshot_time,
            engine_time,
            oneshot_time.as_secs_f64() / engine_time.as_secs_f64().max(f64::EPSILON)
        );
    }

    // --- Service throughput: pooled workers + single-flight coalescing -----
    println!("\n[service] corpus throughput: closed-loop clients over the worker pool");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "clients", "req/s", "p50", "p90", "p99", "coalesced"
    );
    let mut coalesced_16 = 0;
    for &clients in &[1usize, 4, 16] {
        let (report, _) =
            recorder.measure(&format!("service_throughput/clients={clients}"), 2, || {
                drive(&DriveOptions {
                    clients,
                    ..DriveOptions::default()
                })
            });
        println!(
            "{:>10} {:>10.0} {:>10.2?} {:>10.2?} {:>10.2?} {:>10}",
            clients,
            report.requests_per_sec(),
            report.latency.p50().unwrap_or_default(),
            report.latency.p90().unwrap_or_default(),
            report.latency.p99().unwrap_or_default(),
            report.coalesced_queries
        );
        if clients == 16 {
            coalesced_16 = report.coalesced_queries;
        }
    }
    assert!(
        coalesced_16 > 0,
        "a duplicate-heavy 16-client fleet must coalesce"
    );

    // --- Streaming ingestion: O(graph) memory, one pass over the bytes -----
    println!("\n[stream] push-based N-Triples ingestion (parse -> delta -> apply per chunk)");
    const STREAM_TRIPLES: usize = 100_000;
    let mut document = String::new();
    for i in 0..STREAM_TRIPLES {
        document.push_str(&format!("<s{}> <p{}> <o{i}> .\n", i % 1_000, i % 5));
    }
    let (streamed_nodes, stream_time) = recorder.measure("stream_ingest/triples=100k", 3, || {
        let mut parser = NTriplesParser::new();
        let mut graph = Graph::new();
        for chunk in document.as_bytes().chunks(64 * 1024) {
            let mut delta = GraphDelta::new();
            parser
                .feed(chunk, |t: Triple<'_>| {
                    delta.add_triple(t.subject, t.predicate, t.object)
                })
                .expect("generated N-Triples parse");
            graph.apply_delta(&delta);
        }
        parser
            .finish(|_| {})
            .expect("document ends on a line boundary");
        graph.node_count()
    });
    assert_eq!(streamed_nodes, 1_000 + STREAM_TRIPLES, "subjects + objects");
    println!(
        "{:>10} triples  {:>10} nodes  {:>12.2?}  ({:.1} Mtriples/s)",
        STREAM_TRIPLES,
        streamed_nodes,
        stream_time,
        STREAM_TRIPLES as f64 / stream_time.as_secs_f64().max(f64::EPSILON) / 1e6
    );

    // --- Incremental revalidation: repair cost is O(edits), not O(graph) ----
    println!("\n[stream] incremental revalidation of an evolving 30k-node graph");
    const USERS: usize = 10_000;
    let user_schema =
        parse_schema("User -> name::Literal, email::Literal\nLiteral -> EMPTY\n").unwrap();
    let mut evolving = Graph::new();
    let mut seed = GraphDelta::new();
    for i in 0..USERS {
        seed.add_edge(format!("u{i}"), "name", format!("\"name{i}\""));
        seed.add_edge(format!("u{i}"), "email", format!("\"email{i}\""));
    }
    evolving.apply_delta(&seed);
    assert!(evolving.node_count() >= 10_000);
    let (scratch_total, full_time) =
        recorder.measure("incremental_revalidate/full_typing", 3, || {
            maximal_typing(&evolving, &user_schema).is_total()
        });
    assert!(scratch_total, "the seeded user graph validates");
    println!(
        "{:>10} {:>12} {:>14} {:>12}  (vs. from-scratch typing)",
        "edits", "affected", "time", "speedup"
    );
    println!(
        "{:>10} {:>12} {:>14.2?} {:>11}×",
        "scratch",
        evolving.node_count(),
        full_time,
        "1.0"
    );
    let mut typing = IncrementalTyping::new(&evolving, &user_schema);
    for &edits in &[1usize, 16, 256] {
        // Toggle `edits` email edges off and back on, repairing the retained
        // typing from the dirty sets after each half — state-restoring, so
        // every run sees the identical workload.
        let (affected, elapsed) =
            recorder.measure(&format!("incremental_revalidate/edits={edits}"), 3, || {
                let mut remove = GraphDelta::new();
                for e in 0..edits {
                    remove.remove_edge(format!("u{e}"), "email", format!("\"email{e}\""));
                }
                let report = evolving.apply_delta(&remove);
                let mut affected = typing.apply(&evolving, &user_schema, &report.dirty);
                let mut add = GraphDelta::new();
                for e in 0..edits {
                    add.add_edge(format!("u{e}"), "email", format!("\"email{e}\""));
                }
                let report = evolving.apply_delta(&add);
                affected += typing.apply(&evolving, &user_schema, &report.dirty);
                affected
            });
        println!(
            "{:>10} {:>12} {:>14.2?} {:>11.1}×",
            edits,
            affected,
            elapsed,
            full_time.as_secs_f64() / elapsed.as_secs_f64().max(f64::EPSILON)
        );
    }
    assert_eq!(
        typing.typing(),
        &maximal_typing(&evolving, &user_schema),
        "incremental repair must equal the from-scratch typing"
    );

    // --- Deadline checkpoint overhead ---------------------------------------
    // The engine's cancellable path polls a deadline token at bounded
    // checkpoint intervals (candidate loops, solver branches, sweep edges).
    // This row prices that polling on the heaviest gadget above: the same
    // `general_disjunct_gadget` pair, once through the plain path and once
    // under a deadline that never fires, fresh engine per check so neither
    // arm can hit a memo. The two arms run in interleaved pairs, alternating
    // which goes first, and the gate at the bottom reads the median ratio
    // within a pair, so drift of the host between runs does not read as
    // overhead. The section runs last: its 488 fresh engines would
    // otherwise slow the rows timed after it.
    println!("\n[engine] deadline checkpoint overhead (general_disjunct_gadget choice/groups=6)");
    let (dl_h, dl_k) = disjunct_choice_pair(6);
    let deadline_search = SearchOptions::quick();
    const DEADLINE_CHECKS_PER_RUN: usize = 4;
    let run_arm = |armed: bool| {
        let start = Instant::now();
        let mut last = None;
        for _ in 0..DEADLINE_CHECKS_PER_RUN {
            let engine = ContainmentEngine::with_search(deadline_search.clone());
            last = Some(if armed {
                let (h, k) = (engine.register(&dl_h), engine.register(&dl_k));
                let hour = CancelToken::with_timeout(Duration::from_secs(3600));
                engine.check_ids(h, k, Some(&hour))
            } else {
                engine.check(&dl_h, &dl_k)
            });
        }
        let answer = last.expect("at least one check ran");
        (answer, start.elapsed().as_nanos() as f64)
    };
    let mut plain_ns = Vec::with_capacity(DEADLINE_PAIRS);
    let mut armed_ns = Vec::with_capacity(DEADLINE_PAIRS);
    let mut first_verdict = None;
    for pair in 0..DEADLINE_PAIRS {
        for armed in [pair % 2 == 1, pair % 2 == 0] {
            let (answer, ns) = run_arm(armed);
            let verdict = (answer.is_contained(), answer.is_not_contained());
            assert_eq!(
                *first_verdict.get_or_insert(verdict),
                verdict,
                "an unfired deadline must not change the verdict"
            );
            if armed {
                armed_ns.push(ns);
            } else {
                plain_ns.push(ns);
            }
        }
    }
    let plain = recorder.record("deadline_overhead/no_deadline", &plain_ns);
    let (plain_mean_ns, plain_min_ns) = (plain.mean_ns, plain.min_ns);
    let armed = recorder.record("deadline_overhead/deadline=1h", &armed_ns);
    let (armed_mean_ns, armed_min_ns) = (armed.mean_ns, armed.min_ns);
    let deadline_ratio = median_pair_ratio(&plain_ns, &armed_ns);
    println!(
        "{:>14} {:>12} {:>12} {:>18}",
        "path", "mean", "min", "median pair ratio"
    );
    println!(
        "{:>14} {:>12.2?} {:>12.2?} {:>18}",
        "no deadline",
        Duration::from_nanos(plain_mean_ns as u64),
        Duration::from_nanos(plain_min_ns as u64),
        "1.00×"
    );
    println!(
        "{:>14} {:>12.2?} {:>12.2?} {:>17.3}×",
        "deadline 1h",
        Duration::from_nanos(armed_mean_ns as u64),
        Duration::from_nanos(armed_min_ns as u64),
        deadline_ratio
    );

    println!(
        "\nReading: the DetShEx0- column scales smoothly (polynomial), while the\n\
         gadget-driven ShEx0 and ShEx workloads grow quickly, and the ShEx\n\
         ones need budgeted procedures — matching the paper's separation. The\n\
         batch rows show the ContainmentEngine session amortizing per-schema\n\
         artefacts (pools, shape graphs, verdicts) across the whole matrix, and\n\
         the stream rows show ingestion staying one-pass while the incremental\n\
         revalidator repairs an edit in a sliver of the from-scratch fixpoint."
    );

    let json_path =
        std::env::var("BENCH_FIG7_JSON").unwrap_or_else(|_| "BENCH_fig7.json".to_owned());
    // The committed summary (if any) is the regression baseline; read it
    // before overwriting. Only a genuinely absent file skips the gate — a
    // present-but-unreadable or unparseable baseline is a gate integrity
    // failure, otherwise an IO hiccup or a format drift in `to_json` would
    // disable the gate forever without anyone noticing.
    let baseline = match std::fs::read_to_string(&json_path) {
        Ok(text) => Some(parse_baseline(&text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!(
                "\ncannot read the committed baseline {json_path}: {e} — \
                 failing rather than silently disabling the regression gate"
            );
            std::process::exit(1);
        }
    };
    match std::fs::write(&json_path, recorder.to_json()) {
        Ok(()) => println!("\nwrote machine-readable summary to {json_path}"),
        Err(e) => eprintln!("\nfailed to write {json_path}: {e}"),
    }
    if std::env::var_os("BENCH_FIG7_NO_GATE").is_some() {
        println!("regression gate skipped (BENCH_FIG7_NO_GATE is set)");
        return;
    }
    // Deadline polling must stay within its budget on the disjunct gadget,
    // read as the median ratio of interleaved run pairs.
    if !deadline_gate_passes(&plain_ns, &armed_ns) {
        eprintln!(
            "\ndeadline checkpoint overhead beyond {DEADLINE_OVERHEAD_GATE}x: \
             {deadline_ratio:.3}x median over {DEADLINE_PAIRS} interleaved pairs \
             on general_disjunct_gadget choice/groups=6"
        );
        eprintln!("(set BENCH_FIG7_NO_GATE=1 to bypass on a noisy host)");
        std::process::exit(1);
    }
    println!(
        "deadline overhead gate passed: {deadline_ratio:.3}x median over {DEADLINE_PAIRS} \
         interleaved pairs (budget {DEADLINE_OVERHEAD_GATE}x)"
    );
    match baseline {
        None => println!("no committed baseline found; regression gate skipped"),
        Some(records) if records.is_empty() => {
            eprintln!(
                "\n{json_path} existed but yielded no baseline records — \
                 parse_baseline and Recorder::to_json have drifted apart; \
                 failing rather than silently disabling the regression gate"
            );
            std::process::exit(1);
        }
        Some(records) => {
            if let Err(report) = enforce_regression_gate(&recorder, &records) {
                eprintln!("\n{report}");
                eprintln!("(set BENCH_FIG7_NO_GATE=1 to bypass on a noisy host)");
                std::process::exit(1);
            }
            println!(
                "regression gate passed: no workload above {REGRESSION_GATE}x its committed mean"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 31 plain run times with some spread, as a host produces them.
    fn plain_runs() -> Vec<f64> {
        (0..31)
            .map(|i| 6.0e6 + (i * 37 % 23) as f64 * 4.0e4)
            .collect()
    }

    #[test]
    fn the_deadline_gate_fails_a_five_percent_slowdown() {
        let plain = plain_runs();
        let armed: Vec<f64> = plain.iter().map(|ns| ns * 1.05).collect();
        assert!((median_pair_ratio(&plain, &armed) - 1.05).abs() < 1e-9);
        assert!(!deadline_gate_passes(&plain, &armed));
    }

    #[test]
    fn the_deadline_gate_passes_equal_runs_with_a_few_outliers() {
        let plain = plain_runs();
        let mut armed = plain.clone();
        for i in [3, 11, 17, 29] {
            armed[i] *= 1.5;
        }
        assert_eq!(median_pair_ratio(&plain, &armed), 1.0);
        assert!(deadline_gate_passes(&plain, &armed));
    }
}
