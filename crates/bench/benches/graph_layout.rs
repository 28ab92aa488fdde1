//! Graph construction cost at both ends of the sizes the system holds.
//!
//! - `small_graphs/graphs=2930`: 2,930 graphs of 5 nodes and 6 edges with
//!   generated names (`n0`…), the count and average size of the witness
//!   graphs one cold audit pass over the benchmark's corpus families keeps.
//!   This is the per-graph cost that registrations and refuted checks pay on
//!   small graphs. The row uses only `Graph::new`, `add_node` and
//!   `add_edge`, so the same file builds against older graph layouts.
//! - `ingest/triples=100k`: a 100,000-triple N-Triples document parsed,
//!   queued in one delta and applied to a fresh graph
//!   (`graph_from_ntriples`).
//!
//! Run with `cargo bench -p shapex-bench --bench graph_layout`.

use std::fmt::Write as _;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use shapex_graph::{graph_from_ntriples, Graph};

const SMALL_GRAPHS: usize = 2_930;
const LABELS: [&str; 3] = ["p", "q", "r"];
/// The six edges of every small graph, as `(source, label, target)`.
const SMALL_EDGES: [(usize, usize, usize); 6] = [
    (0, 0, 1),
    (0, 1, 2),
    (1, 2, 3),
    (2, 0, 3),
    (3, 1, 4),
    (4, 2, 0),
];

fn small_graphs() -> Vec<Graph> {
    (0..SMALL_GRAPHS)
        .map(|_| {
            let mut g = Graph::new();
            let nodes: Vec<_> = (0..5).map(|_| g.add_node()).collect();
            for (s, p, t) in SMALL_EDGES {
                g.add_edge(nodes[s], LABELS[p], nodes[t]);
            }
            g
        })
        .collect()
}

fn ingest_document(triples: usize) -> String {
    let mut doc = String::with_capacity(triples * 24);
    for i in 0..triples {
        let _ = writeln!(doc, "<s{}> <p{}> <o{i}> .", i % 1_000, i % 5);
    }
    doc
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_layout");
    group.bench_function(format!("small_graphs/graphs={SMALL_GRAPHS}"), |b| {
        b.iter(small_graphs)
    });
    let doc = ingest_document(100_000);
    group.bench_function("ingest/triples=100k", |b| {
        b.iter(|| graph_from_ntriples(doc.as_bytes()).expect("generated N-Triples parse"))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
