//! `shapex` — Containment of Shape Expression Schemas for RDF.
//!
//! This is the facade crate of the workspace reproducing Staworko & Wieczorek,
//! *Containment of Shape Expression Schemas for RDF* (PODS 2019). It re-exports
//! the individual crates under stable module names and provides a [`prelude`]
//! for examples and downstream users.
//!
//! * [`rbe`] — intervals, bags, regular bag expressions and membership.
//! * [`presburger`] — existential Presburger arithmetic and the RBE translation.
//! * [`graph`] — the general graph model: simple, shape, and compressed graphs.
//! * [`shex`] — shape expression schemas, parsing, and validation.
//! * [`containment`] — embeddings and the containment decision procedures
//!   (the paper's primary contribution).
//! * [`gadgets`] — the paper's figures, lower-bound reductions, and random
//!   workload generators.
//! * [`service`] — a long-lived, multi-tenant containment service:
//!   tenant-scoped schema registration, streaming N-Triples ingestion with
//!   incremental revalidation of evolving graphs, typed errors, a bounded
//!   request queue with explicit backpressure in front of a `ServicePool`
//!   of workers, deadlines, and a stats surface (engine cache + memory
//!   counters, latency histogram), all over one shared
//!   `ContainmentEngine` — bounded-memory when configured with a
//!   `cache_budget`, duplicate-proof under concurrency via single-flight
//!   query coalescing.
//! * [`metrics`] — the dependency-free log-spaced latency histogram behind
//!   the service stats.

#![forbid(unsafe_code)]

pub use shapex_core as containment;
pub use shapex_gadgets as gadgets;
pub use shapex_graph as graph;
pub use shapex_presburger as presburger;
pub use shapex_rbe as rbe;
pub use shapex_shex as shex;

pub mod metrics;
pub mod service;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::metrics::{LatencyHistogram, LatencySnapshot};
    pub use crate::service::{
        ContainmentService, GraphId, PoolClient, ServiceError, ServicePool, ServiceRequest,
        ServiceResponse, ServiceStats, TenantId,
    };
    pub use shapex_core::{
        baseline::enumerate_counter_example,
        det::{characterizing_graph, det_containment},
        embedding::{embeds, max_simulation, Embedding},
        engine::{ContainmentEngine, ContainmentMatrix, EngineOptions, EngineStats, SchemaId},
        general::{general_containment, GeneralOptions},
        shex0::{shex0_containment, Shex0Options},
        simulation::Simulation,
        Containment, UnknownReason,
    };
    pub use shapex_gadgets::figures;
    pub use shapex_graph::{
        DeltaReport, Graph, GraphDelta, GraphKind, Label, LabelId, LabelTable, NTriplesParser,
        NodeId,
    };
    pub use shapex_rbe::{Bag, Interval, Rbe, Rbe0};
    pub use shapex_shex::{parse_schema, IncrementalTyping, Schema, SchemaClass, TypeId};
}
