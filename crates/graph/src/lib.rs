//! The general graph model of *Containment of Shape Expression Schemas for
//! RDF* (Staworko & Wieczorek, PODS 2019), Definition 2.1.
//!
//! A [`Graph`] is a multigraph whose edges carry a predicate [`Label`] and an
//! occurrence [`Interval`](shapex_rbe::Interval). Three subclasses matter:
//!
//! * **simple graphs** (`G₀`) — every edge uses the interval `1` and no two
//!   edges share source, target, and label; these model RDF graphs;
//! * **shape graphs** (`ShEx₀`) — every edge uses a *basic* interval
//!   (`1`, `?`, `+`, `*`); these are the graphical form of `ShEx(RBE0)`
//!   schemas;
//! * **compressed graphs** — every edge uses a singleton interval `[k;k]`,
//!   a succinct encoding of simple graphs used in Section 6 of the paper.
//!
//! The crate also provides a line-oriented text format ([`text`]) and random
//! generators ([`generate`]) used by the examples, tests, and benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod model;
pub mod ntriples;
pub mod text;

pub use model::{
    DeltaReport, EdgeId, Graph, GraphBuilder, GraphDelta, GraphKind, Label, LabelId, LabelTable,
    NodeId, UnpackError,
};
pub use ntriples::{NTriplesError, NTriplesParser, Triple};
pub use text::{parse_graph, write_graph};

/// Parse a complete N-Triples document into a fresh simple [`Graph`]: every
/// triple becomes a `subject -predicate-> object` edge with interval `1`
/// (duplicate triples are kept, like repeated statements in a dump). The
/// streaming path — [`NTriplesParser`] feeding a [`GraphDelta`] — goes
/// through exactly the same pipeline; this is the one-shot convenience.
pub fn graph_from_ntriples(bytes: &[u8]) -> Result<Graph, NTriplesError> {
    let mut parser = NTriplesParser::new();
    let mut delta = GraphDelta::new();
    let mut sink = |t: Triple<'_>| delta.add_triple(t.subject, t.predicate, t.object);
    parser.feed(bytes, &mut sink)?;
    parser.finish(&mut sink)?;
    let mut graph = Graph::new();
    graph.apply_delta(&delta);
    Ok(graph)
}

/// Compile-time assertion that every listed type is [`Send`]` + `[`Sync`].
///
/// Expands to an unused `const` function pointer whose body only type-checks
/// when the bounds hold, so a violation is a compile error at the assertion
/// site — a tiny dependency-free `static_assertions`-style helper for
/// documenting (and enforcing) a crate's thread-safety contract next to the
/// types it covers.
///
/// ```
/// shapex_graph::assert_send_sync!(shapex_graph::Graph, shapex_graph::Label);
/// ```
#[macro_export]
macro_rules! assert_send_sync {
    ($($ty:ty),+ $(,)?) => {
        const _: fn() = || {
            fn assert_send_sync<T: Send + Sync + ?Sized>() {}
            $(assert_send_sync::<$ty>();)+
        };
    };
}

// The thread-safety contract of the graph layer: graphs, labels, and the
// label interner are shared by reference across every thread that queries a
// `ContainmentEngine` (service workers and other callers), so they must all
// be `Send + Sync`. `Label` is a content-compared `Arc<str>`; `Graph` and
// `LabelTable` hold no interior mutability and only mutate through
// `&mut self`, so the engine's one interner sits behind a `Mutex`.
assert_send_sync!(
    Graph,
    GraphDelta,
    DeltaReport,
    NTriplesParser,
    Label,
    LabelId,
    LabelTable,
    NodeId,
    EdgeId
);
