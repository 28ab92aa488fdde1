//! Property-based, budget and fuzz tests for the streaming N-Triples path:
//! a document fed in arbitrary chunks must build exactly the graph the
//! whole-buffer parse builds, the parser's retained memory must stay
//! bounded by one line regardless of stream length, and no mutation of a
//! valid document may panic the parser or corrupt the graph it feeds.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_graph::{graph_from_ntriples, Graph, GraphDelta, NTriplesError, NTriplesParser, Triple};

/// Render one random statement. Every branch is valid N-Triples: IRI or
/// blank-node subjects, IRI predicates, and objects that may be IRIs,
/// blank nodes, or literals with escapes and optional suffixes.
fn arb_statement() -> impl Strategy<Value = String> {
    let iri = |range: std::ops::Range<u32>, prefix: &'static str| {
        range.prop_map(move |i| format!("<{prefix}{i}>"))
    };
    let subject = prop_oneof![iri(0..6, "s"), (0u32..4).prop_map(|i| format!("_:b{i}"))];
    let literal = (
        prop_oneof![
            Just("plain".to_string()),
            Just("esc\\\"quote\\\"".to_string()),
            Just("tab\\there".to_string()),
            Just("back\\\\slash".to_string()),
            Just("uni\\u0041".to_string()),
        ],
        prop_oneof![Just(""), Just("@en"), Just("^^<t>")],
    )
        .prop_map(|(value, suffix)| format!("\"{value}\"{suffix}"));
    let object = prop_oneof![
        iri(0..6, "o"),
        (0u32..4).prop_map(|i| format!("_:b{i}")),
        literal
    ];
    (subject, iri(0..3, "p"), object).prop_map(|(s, p, o)| format!("{s} {p} {o} ."))
}

/// A random document: statements interleaved with comments and blank lines.
fn arb_document() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            Just("# a comment".to_string()),
            Just("".to_string()),
        ],
        0..12,
    )
    .prop_map(|lines| {
        let mut doc = lines.join("\n");
        doc.push('\n');
        doc
    })
}

/// The comparable content of a graph: every edge as rendered names.
fn edge_set(g: &Graph) -> Vec<(String, String, String)> {
    let mut edges: Vec<_> = g
        .edges()
        .map(|e| {
            (
                g.node_name(g.source(e)).to_string(),
                g.label(e).to_string(),
                g.node_name(g.target(e)).to_string(),
            )
        })
        .collect();
    edges.sort();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_parse_equals_whole_buffer_parse(doc in arb_document(), chunk_len in 1usize..9) {
        let whole = graph_from_ntriples(doc.as_bytes()).unwrap();
        let longest_line = doc.lines().map(str::len).max().unwrap_or(0);
        let mut parser = NTriplesParser::new();
        let mut graph = Graph::new();
        for chunk in doc.as_bytes().chunks(chunk_len) {
            let mut delta = GraphDelta::new();
            parser
                .feed(chunk, |t: Triple<'_>| {
                    delta.add_triple(t.subject, t.predicate, t.object)
                })
                .unwrap();
            graph.apply_delta(&delta);
            prop_assert!(
                parser.buffered_bytes() <= longest_line,
                "retained {} B for a document whose longest line is {} B",
                parser.buffered_bytes(),
                longest_line
            );
        }
        let mut delta = GraphDelta::new();
        parser
            .finish(|t: Triple<'_>| delta.add_triple(t.subject, t.predicate, t.object))
            .unwrap();
        graph.apply_delta(&delta);
        prop_assert_eq!(graph.node_count(), whole.node_count());
        prop_assert_eq!(edge_set(&graph), edge_set(&whole));
    }

    #[test]
    fn dirty_nodes_cover_every_added_subject(doc in arb_document()) {
        // The contract an incremental validator relies on: after applying a
        // chunk's delta, every subject of an added triple is in the dirty
        // set (its outbound neighbourhood changed).
        let mut parser = NTriplesParser::new();
        let mut graph = Graph::new();
        let mut delta = GraphDelta::new();
        let mut subjects: Vec<String> = Vec::new();
        let mut sink = |t: Triple<'_>| {
            subjects.push(t.subject.to_string());
            delta.add_triple(t.subject, t.predicate, t.object);
        };
        parser.feed(doc.as_bytes(), &mut sink).unwrap();
        parser.finish(&mut sink).unwrap();
        let report = graph.apply_delta(&delta);
        for subject in subjects {
            let id = graph.find_node(&subject).expect("subject was added");
            prop_assert!(
                report.dirty.binary_search(&id).is_ok(),
                "subject {subject} missing from the dirty set"
            );
        }
    }
}

/// The acceptance budget: a 100k-triple stream ingests with the parser
/// retaining at most one line — memory stays O(graph), never O(stream).
#[test]
fn hundred_thousand_triples_stream_within_the_line_budget() {
    const TRIPLES: usize = 100_000;
    const BATCH: usize = 1_000;
    let max_line = 256;
    let mut parser = NTriplesParser::new().with_max_line_bytes(max_line);
    let mut graph = Graph::new();
    let mut batch = String::new();
    let mut fed = 0usize;
    while fed < TRIPLES {
        batch.clear();
        for i in fed..(fed + BATCH).min(TRIPLES) {
            batch.push_str(&format!("<s{}> <p{}> <o{i}> .\n", i % 1_000, i % 5));
        }
        fed += BATCH;
        // Feed in slices that split statements arbitrarily, asserting the
        // byte budget after every single feed.
        let mut delta = GraphDelta::new();
        for chunk in batch.as_bytes().chunks(4_096) {
            parser
                .feed(chunk, |t: Triple<'_>| {
                    delta.add_triple(t.subject, t.predicate, t.object)
                })
                .unwrap();
            assert!(
                parser.buffered_bytes() <= max_line,
                "parser retained {} B (budget {max_line} B)",
                parser.buffered_bytes()
            );
        }
        graph.apply_delta(&delta);
    }
    parser.finish(|_| {}).unwrap();
    assert_eq!(parser.triples(), TRIPLES as u64);
    assert_eq!(graph.edge_count(), TRIPLES);
    assert_eq!(graph.node_count(), 1_000 + TRIPLES, "subjects + objects");
}

/// Valid documents the fuzzer mutates: every term kind, string and numeric
/// escapes, comments, blank lines, self-loops and a last line without a
/// newline.
const FUZZ_SEEDS: &[&str] = &[
    "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n\
     _:b0 <http://e.org/p> \"plain\" .\n",
    "# a comment\n\
     <s1> <p1> \"esc\\\"q\\\"\\t\\u0041\\U0001F600\"@en .\n\
     \n\
     <s2> <p2> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .",
    "_:a <p> _:b .\n_:b <p> _:a . # trailing\n<s> <p> <s> .\n<\\u0073> <p> \"\\\\\" .\n",
];

/// Escape sequences the mutator splices in: malformed, surrogate and out of
/// range next to well-formed ones.
const FUZZ_ESCAPES: &[&str] = &[
    "\\u12G4",
    "\\uD800",
    "\\uDFFF",
    "\\U0011FFFF",
    "\\U",
    "\\u00",
    "\\x41",
    "\\",
    "\\u0041",
    "\\U0001F600",
];

/// Apply one random mutation to `doc`, drawing lines longer than
/// `max_line` among them.
fn mutate(rng: &mut StdRng, doc: &mut Vec<u8>, max_line: usize) {
    let at = rng.gen_range(0..=doc.len());
    match rng.gen_range(0u8..8) {
        0 if !doc.is_empty() => {
            let i = rng.gen_range(0..doc.len());
            doc[i] ^= 1 << rng.gen_range(0u32..8);
        }
        1 => {
            let end = (at + rng.gen_range(1usize..8)).min(doc.len());
            doc.drain(at..end);
        }
        2 => doc.insert(at, b'\n'),
        3 => doc.truncate(at),
        4 => {
            let invalid: &[u8] =
                [&b"\xff"[..], b"\xc3", b"\x80", b"\xed\xa0\x80"][rng.gen_range(0usize..4)];
            doc.splice(at..at, invalid.iter().copied());
        }
        5 => {
            let escape = FUZZ_ESCAPES[rng.gen_range(0..FUZZ_ESCAPES.len())];
            doc.splice(at..at, escape.bytes());
        }
        6 => {
            let escape = FUZZ_ESCAPES[rng.gen_range(0..FUZZ_ESCAPES.len())];
            let line = format!("<s> <p> \"{escape}\" .\n<s{escape}> <p> <o> .\n");
            doc.splice(at..at, line.bytes());
        }
        _ => {
            let long = "x".repeat(max_line + rng.gen_range(0usize..16));
            let line = format!("<s> <p> \"{long}\" .\n");
            doc.splice(at..at, line.bytes());
        }
    }
}

/// Every edge sits in its source's out-list and its target's in-list, each
/// once, and every name finds its node.
fn assert_adjacency_consistent(graph: &Graph) {
    let (mut outs, mut ins) = (0, 0);
    for v in graph.nodes() {
        assert_eq!(graph.find_node(graph.node_name(v)), Some(v));
        for &e in graph.out(v) {
            assert_eq!(graph.source(e), v);
            assert_eq!(graph.out(v).iter().filter(|&&f| f == e).count(), 1);
        }
        for &e in graph.ins(v) {
            assert_eq!(graph.target(e), v);
            assert_eq!(graph.ins(v).iter().filter(|&&f| f == e).count(), 1);
        }
        outs += graph.out_degree(v);
        ins += graph.in_degree(v);
    }
    assert_eq!((outs, ins), (graph.edge_count(), graph.edge_count()));
}

/// Stream `doc` at random chunk sizes into one graph, one delta per chunk,
/// through one parser kept across errors as the service keeps it (a failed
/// chunk's triples are dropped with it). Every error must report a later
/// line than the one before: a failed line is abandoned, never re-read.
/// Returns the number of errors.
fn stream_mutated(rng: &mut StdRng, doc: &[u8], max_line: usize) -> usize {
    let mut parser = NTriplesParser::new().with_max_line_bytes(max_line);
    let mut graph = Graph::new();
    let mut errors = 0;
    let mut last_line = 0;
    let mut check = |parser: &NTriplesParser, parsed: Result<u64, NTriplesError>| {
        assert!(
            parser.buffered_bytes() <= max_line,
            "{} B buffered",
            parser.buffered_bytes()
        );
        match parsed {
            Ok(_) => true,
            Err(error) => {
                assert!(error.line >= 1, "{error:?}");
                assert!(
                    error.line > last_line,
                    "line {} reported after line {last_line}",
                    error.line
                );
                assert!(!error.message.is_empty());
                last_line = error.line;
                errors += 1;
                false
            }
        }
    };
    let mut rest = doc;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(48)));
        rest = tail;
        let mut delta = GraphDelta::new();
        let parsed = parser.feed(chunk, |t: Triple<'_>| {
            delta.add_triple(t.subject, t.predicate, t.object)
        });
        if check(&parser, parsed) {
            graph.apply_delta(&delta);
            assert_adjacency_consistent(&graph);
        }
    }
    let mut delta = GraphDelta::new();
    let parsed = parser.finish(|t: Triple<'_>| delta.add_triple(t.subject, t.predicate, t.object));
    if check(&parser, parsed) {
        graph.apply_delta(&delta);
        assert_adjacency_consistent(&graph);
    }
    errors
}

/// The mutation fuzzer: seeded, so a failing case reproduces from the case
/// number it reports.
#[test]
fn mutated_documents_fail_with_typed_errors_and_never_panic() {
    const CASES: u64 = 3_000;
    for seed in FUZZ_SEEDS {
        graph_from_ntriples(seed.as_bytes()).expect("every seed document is valid");
    }
    let mut failing_cases = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4e54_0000 + case);
        let mut doc = FUZZ_SEEDS[rng.gen_range(0..FUZZ_SEEDS.len())]
            .as_bytes()
            .to_vec();
        let max_line = rng.gen_range(64usize..160);
        for _ in 0..rng.gen_range(1..5) {
            mutate(&mut rng, &mut doc, max_line);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            stream_mutated(&mut rng, &doc, max_line)
        }));
        match outcome {
            Ok(errors) => failing_cases += usize::from(errors > 0),
            Err(_) => panic!(
                "fuzz case {case} panicked on {:?}",
                String::from_utf8_lossy(&doc)
            ),
        }
    }
    // The mutations must reach the error paths, not just reformat valid
    // input.
    assert!(
        failing_cases > CASES as usize / 4,
        "{failing_cases} of {CASES} cases failed to parse"
    );
}
