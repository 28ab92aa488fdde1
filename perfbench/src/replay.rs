//! The traced run's replay: a workload's own inputs fed through the layers
//! the service calls internally, each call timed at its public entry point.
//!
//! The service hides its layers behind one request, so a span around a
//! request cannot say how long embedding or candidate validation took
//! inside it. The replay calls those layers directly on the same schemas,
//! graphs and deltas the workload sent, following the path each verdict
//! took (embedding, characterizing graph, candidate search), and times
//! every call. It runs only with `--trace 1`, after the measured phase,
//! over a fixed, seed-determined input set so that its totals compare
//! across runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use shapex::containment::det::characterizing_graph;
use shapex::containment::embedding::embeds;
use shapex::containment::unfold::{enumerate_members, SearchOptions};
use shapex::containment::Containment;
use shapex::graph::{Graph, GraphDelta, NTriplesParser, NodeId, Triple};
use shapex::shex::{validates, IncrementalTyping, Schema, SchemaClass};

use crate::common::{us, Failures, Outcome, Spans};

/// Busy time (µs) and work counts per layer, accumulated by the replay.
#[derive(Debug, Default, Clone)]
pub struct LayerWork {
    pub embed_us: f64,
    pub characterize_us: f64,
    pub enumerate_us: f64,
    pub candidates: u64,
    pub validate_us: f64,
    pub parse_us: f64,
    pub apply_delta_us: f64,
    pub dirty_nodes: u64,
    pub repair_us: f64,
    pub affected_nodes: u64,
}

impl LayerWork {
    pub fn report(&self, out: &mut Outcome) {
        out.push("simulation.embed_us", self.embed_us, "us");
        out.push("det.characterize_us", self.characterize_us, "us");
        out.push("unfold.enumerate_us", self.enumerate_us, "us");
        out.push("unfold.candidates", self.candidates as f64, "count");
        out.push("typing.validate_us", self.validate_us, "us");
        out.push("graph.parse_us", self.parse_us, "us");
        out.push("graph.apply_delta_us", self.apply_delta_us, "us");
        out.push("graph.dirty_nodes", self.dirty_nodes as f64, "count");
        out.push("typing.repair_us", self.repair_us, "us");
        out.push("typing.affected_nodes", self.affected_nodes as f64, "count");
    }
}

/// Time one call and record it as a span under `parent`.
fn timed<R>(
    spans: &mut Spans,
    name: &'static str,
    parent: Option<usize>,
    total: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let result = f();
    let end = Instant::now();
    *total += us(end - start);
    spans.record(name, start, end, parent);
    result
}

/// Per-schema replay state: the shape graph and unfolded candidate pool
/// are each built once, as the engine's per-schema caches are.
struct SchemaState<'a> {
    schema: &'a Schema,
    det_minus: bool,
    shape: Option<Graph>,
    members: Option<Vec<Graph>>,
}

/// Replay containment pairs `(h, k)` (indices into `schemas`) through the
/// simulation, det, unfold and typing layers, along the path the engine's
/// answer took. `answers[i]`, when given, is the service's verdict for
/// `pairs[i]`: a `Contained` answer on a pair outside RBE₀ came from the
/// type-simulation check, so its candidate search is skipped. The det layer
/// builds the characterizing graph of every DetShEx₀⁻ schema in the pairs
/// once, the graph the engine keeps for such a schema.
pub fn replay_pairs(
    schemas: &[Schema],
    pairs: &[(usize, usize)],
    answers: Option<&[Containment]>,
    spans: &mut Spans,
    parent: Option<usize>,
    work: &mut LayerWork,
) {
    let options = SearchOptions::default();
    let mut states: HashMap<usize, SchemaState<'_>> = HashMap::new();
    for (i, &(h, k)) in pairs.iter().enumerate() {
        for index in [h, k] {
            states.entry(index).or_insert_with(|| {
                let schema = &schemas[index];
                let det_minus = schema.classify() == SchemaClass::DetShEx0Minus;
                if det_minus {
                    timed(
                        spans,
                        "det.characterizing_graph",
                        parent,
                        &mut work.characterize_us,
                        || characterizing_graph(schema).is_ok(),
                    );
                }
                SchemaState {
                    schema,
                    det_minus,
                    shape: schema.to_shape_graph(),
                    members: None,
                }
            });
        }
        let answer = answers.map(|a| &a[i]);
        let both_rbe0 = states[&h].shape.is_some() && states[&k].shape.is_some();
        if both_rbe0 {
            let (hg, kg) = (
                states[&h].shape.as_ref().expect("checked"),
                states[&k].shape.as_ref().expect("checked"),
            );
            let embedded = timed(
                spans,
                "simulation.embeds",
                parent,
                &mut work.embed_us,
                || embeds(hg, kg).is_some(),
            );
            // A DetShEx₀⁻ pair that does not embed is refuted by the
            // characterizing graph, built above.
            if embedded || (states[&h].det_minus && states[&k].det_minus) {
                continue;
            }
        } else if answer.is_some_and(Containment::is_contained) {
            continue;
        }
        // The bounded search: unfold `h` once, then validate its candidates
        // against `k` until one fails or the candidate budget runs out.
        let state = states.get_mut(&h).expect("inserted above");
        if state.members.is_none() {
            let schema = state.schema;
            let members = timed(
                spans,
                "unfold.enumerate_members",
                parent,
                &mut work.enumerate_us,
                || {
                    schema
                        .types()
                        .flat_map(|root| enumerate_members(schema, root, &options))
                        .collect::<Vec<_>>()
                },
            );
            work.candidates += members.len() as u64;
            state.members = Some(members);
        }
        let members = states[&h].members.as_ref().expect("built above");
        let k_schema = &schemas[k];
        timed(
            spans,
            "typing.validates",
            parent,
            &mut work.validate_us,
            || {
                members
                    .iter()
                    .take(options.max_candidates)
                    .all(|g| validates(g, k_schema))
            },
        );
    }
}

/// Render a graph as N-Triples, naming nodes by id so that every name is a
/// valid IRI. Isolated nodes have no triple; callers compare node counts.
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for e in graph.edges() {
        let _ = writeln!(
            out,
            "<n{}> <{}> <n{}> .",
            graph.source(e).index(),
            graph.label(e).as_str(),
            graph.target(e).index()
        );
    }
    out
}

/// Feed `chunks` through a fresh N-Triples parser into one delta.
pub fn parse_chunks<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
    spans: &mut Spans,
    parent: Option<usize>,
    work: &mut LayerWork,
) -> Option<GraphDelta> {
    let mut parser = NTriplesParser::new();
    let mut delta = GraphDelta::new();
    let mut ok = true;
    for chunk in chunks {
        ok &= timed(spans, "graph.parse", parent, &mut work.parse_us, || {
            parser
                .feed(chunk, |t: Triple<'_>| {
                    delta.add_triple(t.subject, t.predicate, t.object)
                })
                .is_ok()
        });
    }
    ok &= parser
        .finish(|t: Triple<'_>| delta.add_triple(t.subject, t.predicate, t.object))
        .is_ok();
    ok.then_some(delta)
}

/// Apply one delta to `graph`, returning the dirty nodes.
pub fn apply(
    graph: &mut Graph,
    delta: &GraphDelta,
    spans: &mut Spans,
    parent: Option<usize>,
    work: &mut LayerWork,
) -> Vec<NodeId> {
    let report = timed(
        spans,
        "graph.apply_delta",
        parent,
        &mut work.apply_delta_us,
        || graph.apply_delta(delta),
    );
    work.dirty_nodes += report.dirty.len() as u64;
    report.dirty
}

/// Repair `typing` after a delta whose dirty nodes are `dirty`.
pub fn repair(
    typing: &mut IncrementalTyping,
    graph: &Graph,
    schema: &Schema,
    dirty: &[NodeId],
    spans: &mut Spans,
    parent: Option<usize>,
    work: &mut LayerWork,
) {
    let affected = timed(spans, "typing.repair", parent, &mut work.repair_us, || {
        typing.apply(graph, schema, dirty)
    });
    work.affected_nodes += affected as u64;
}

/// Certify a counter-example a second time through the streaming path: the
/// witness is written as N-Triples, parsed, applied as a delta to an empty
/// graph and typed incrementally against both schemas. It must satisfy `h`
/// and violate `k`, as the batch validator already said.
pub fn witness_roundtrip(
    witness: &Graph,
    h: &Schema,
    k: &Schema,
    spans: &mut Spans,
    parent: Option<usize>,
    work: &mut LayerWork,
    failures: &mut Failures,
) {
    let text = to_ntriples(witness);
    let Some(delta) = parse_chunks([text.as_bytes()], spans, parent, work) else {
        failures.miss("a witness written as N-Triples did not parse back");
        return;
    };
    let mut graph = Graph::new();
    let dirty = apply(&mut graph, &delta, spans, parent, work);
    if graph.node_count() != witness.node_count() {
        // An isolated node has no triple to carry it; the batch
        // certification already covered this witness.
        return;
    }
    let empty = Graph::new();
    for (schema, expected) in [(h, true), (k, false)] {
        let mut typing = IncrementalTyping::new(&empty, schema);
        repair(&mut typing, &graph, schema, &dirty, spans, parent, work);
        if typing.is_total() != expected {
            failures.miss(format!(
                "streamed witness typed {} against the {} schema, batch validation says {}",
                typing.is_total(),
                if expected { "contained" } else { "containing" },
                expected
            ));
        }
    }
}
