//! A long-lived, multi-tenant containment service wrapping a shared
//! [`ContainmentEngine`].
//!
//! The engine is the seam a service wraps: every query method takes `&self`
//! over concurrent caches, so one engine behind an [`Arc`] serves any number
//! of clients, amortizing shape graphs, unfolded candidates, and answers
//! across all of their queries. [`ContainmentService`] packages
//! that seam as a production-shaped request/response protocol:
//!
//! * **Tenant-scoped registries over one shared engine.** Every request
//!   carries a [`TenantId`] ([`TenantId::DEFAULT`] for single-tenant use;
//!   [`ContainmentService::create_tenant`] mints more). Registration is the
//!   upload endpoint: a tenant submits a [`Schema`] once
//!   ([`ServiceRequest::Register`]) and holds the returned [`SchemaId`] —
//!   structurally identical schemas intern onto one engine entry and share
//!   every cache *across* tenants, but a handle is only usable by tenants
//!   that registered it themselves; anyone else gets
//!   [`ServiceError::WrongTenant`], so one tenant cannot probe another's
//!   schemas by guessing handles.
//! * **Typed errors.** [`ContainmentService::handle`] returns
//!   `Result<ServiceResponse, ServiceError>`: unknown handles, foreign
//!   tenants, and overload are data, not strings. Pool workers send that
//!   same `Result` back to their callers.
//! * **Streaming graphs with incremental revalidation.** A tenant streams
//!   N-Triples chunks into a service-held graph
//!   ([`ServiceRequest::LoadTriples`]; `graph: None` mints a fresh
//!   [`GraphId`], an empty chunk flushes the parser's final line) or applies
//!   edge-level batches ([`ServiceRequest::ApplyDelta`]), and asks for the
//!   validation verdict against any of its registered schemas with
//!   [`ServiceRequest::Revalidate`]. The service retains one
//!   [`IncrementalTyping`] per `(graph, schema)` pair and replays only the
//!   dirty-node log accumulated since that pair's last revalidation — the
//!   repair re-examines the dirty nodes and the nodes whose types change,
//!   never the whole graph. The log is kept only while the graph holds a
//!   typing, and a typing that falls behind by more entries than the graph
//!   has nodes is dropped and rebuilt on its next revalidation. Graph
//!   handles are tenant-scoped like schema handles;
//!   presenting another tenant's (or a never-issued) handle gets
//!   [`ServiceError::UnknownGraph`], with no distinction that would leak
//!   which handles exist.
//! * **A metrics surface.** [`ServiceRequest::Stats`] answers a
//!   [`ServiceStats`]: the engine's cache/memory counters (evictions and
//!   resident bytes included, when the engine runs under a
//!   [cache budget](shapex_core::engine::EngineOptionsBuilder::cache_budget)),
//!   the tenant count, the rejected count, and a log-spaced latency histogram
//!   ([`crate::metrics::LatencySnapshot`]) of every request this service
//!   answered. Its `Display` rendering is the line to log or scrape.
//! * **Workers behind one bounded queue.**
//!   [`ContainmentService::pool`] spawns a [`ServicePool`] of N worker
//!   threads draining one shared bounded queue: whichever worker is idle
//!   takes the next request, so one slow [`ServiceRequest::Matrix`] does not
//!   head-of-line-block every tenant while another worker is free. A
//!   single-worker deployment is `pool(1, capacity)`. Backpressure is
//!   explicit: [`PoolClient::call_blocking`] parks while the queue is full,
//!   and [`PoolClient::call_timeout`] backs off, then fails with
//!   [`ServiceError::Overloaded`] (counted). A panic while handling a
//!   request still answers that caller (with [`ServiceError::Internal`]),
//!   is counted in [`ServiceStats::worker_restarts`], and the worker goes
//!   on serving.
//! * **Deadlines and bounded retries.** [`PoolClient::call_timeout`] stamps
//!   the request with an absolute deadline. The worker refuses an
//!   already-expired request with [`ServiceError::DeadlineExceeded`] and
//!   runs the rest under one engine [`CancelToken`] bound to the deadline —
//!   [`ServiceRequest::Check`], [`ServiceRequest::Matrix`] and
//!   [`ServiceRequest::Revalidate`] poll it, and
//!   [`ServiceRequest::LoadTriples`] and [`ServiceRequest::ApplyDelta`]
//!   check it once they hold their graph's lock — so a 10 ms budget comes
//!   back within a bounded checkpoint interval as a typed answer, never as
//!   a hung worker. The call retries [`ServiceError::Overloaded`] with bounded
//!   deterministic-jitter backoff ([`ServiceStats::retries`] /
//!   [`ServiceStats::retry_gave_up`]) and surfaces a reply that misses the
//!   budget as [`ServiceError::DeadlineExceeded`] instead of parking
//!   forever. Expired requests land in a separate timeout histogram
//!   ([`ServiceStats::timeouts`]) so the latency tail of successful traffic
//!   stays honest.
//!
//! The protocol stays transport-agnostic: `handle` maps one request to one
//! response and is safe from any number of threads; the pool runs it behind
//! a bounded queue — the shape `examples/containment_service.rs` demonstrates
//! with several tenants sharing one engine. Because the service is
//! [`Clone`] (it clones the inner [`Arc`]s), local code can keep calling
//! `handle` on the same engine while the pool serves.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use shapex_core::engine::{
    ContainmentEngine, ContainmentMatrix, EngineOptions, EngineStats, SchemaId,
};
use shapex_core::sync::{lock_or_recover, read_or_recover, write_or_recover};
use shapex_core::{faults, CancelToken, Containment, UnknownReason};
use shapex_graph::{DeltaReport, Graph, GraphDelta, NTriplesParser, NodeId, Triple};
use shapex_shex::{IncrementalTyping, Schema};

use crate::metrics::{LatencyHistogram, LatencySnapshot};

// One service handle is shared across server and client threads.
shapex_graph::assert_send_sync!(
    ContainmentService,
    ServicePool,
    PoolClient,
    ServiceRequest,
    ServiceResponse,
    ServiceError,
    ServiceEnvelope,
    TenantId,
    GraphId
);

/// A tenant of a [`ContainmentService`]: an isolation scope for schema
/// handles. Mint one per client organisation with
/// [`ContainmentService::create_tenant`]; handles returned to one tenant
/// are rejected ([`ServiceError::WrongTenant`]) when presented by another.
/// Like [`SchemaId`], a `TenantId` is only meaningful for the service that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The tenant every service starts with — single-tenant deployments
    /// never need another.
    pub const DEFAULT: TenantId = TenantId(0);

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A handle to a streaming graph held by a [`ContainmentService`], minted
/// by the first [`ServiceRequest::LoadTriples`] with `graph: None`. Like
/// [`SchemaId`], it is only meaningful for the service that issued it —
/// and unlike schemas (which intern structurally and may be shared across
/// tenants), every graph belongs to exactly the tenant that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphId(u32);

impl GraphId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph#{}", self.0)
    }
}

/// A request to a [`ContainmentService`].
///
/// The enum is the service's wire format: everything a client can ask for,
/// self-contained (schemas travel by value on registration, by [`SchemaId`]
/// handle afterwards). The [`TenantId`] travels next to the request — in
/// [`ContainmentService::handle`]'s signature and in a [`PoolClient`] — not
/// inside it, so requests themselves stay tenant-agnostic.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// Register a schema under the requesting tenant, interning
    /// structurally identical submissions onto one engine entry. Answered
    /// with [`ServiceResponse::Registered`]. Boxed: a `Schema` is hundreds
    /// of bytes, and requests travel through queues sized for the smallest
    /// variants.
    Register(Box<Schema>),
    /// Decide `L(h) ⊆ L(k)` for two handles of the requesting tenant.
    /// Answered with [`ServiceResponse::Answer`].
    Check {
        /// The candidate sub-schema.
        h: SchemaId,
        /// The candidate super-schema.
        k: SchemaId,
    },
    /// The full pairwise containment matrix over handles of the requesting
    /// tenant. Answered with [`ServiceResponse::Matrix`].
    Matrix(Vec<SchemaId>),
    /// Stream one chunk of N-Triples into a tenant graph. `graph: None`
    /// mints a fresh empty graph (and the response carries its new
    /// [`GraphId`]); an **empty chunk** flushes the parser's final
    /// unterminated line — the end-of-stream convention. Chunks may split
    /// statements anywhere: the service's push parser buffers at most one
    /// line between requests. Answered with [`ServiceResponse::Loaded`].
    LoadTriples {
        /// The graph to extend, or `None` to create one.
        graph: Option<GraphId>,
        /// The next slice of the N-Triples document (empty = flush).
        chunk: Vec<u8>,
    },
    /// Apply a batch of edge-level additions and removals to a tenant
    /// graph, recording the dirty nodes for later [`ServiceRequest::Revalidate`]
    /// calls. Boxed for the same queue-sizing reason as `Register`.
    /// Answered with [`ServiceResponse::Applied`].
    ApplyDelta {
        /// The graph to mutate.
        graph: GraphId,
        /// The changes to apply.
        delta: Box<GraphDelta>,
    },
    /// The validation verdict of a tenant graph against one of the tenant's
    /// registered schemas, computed incrementally: the repair re-examines
    /// the dirty nodes accumulated since this `(graph, schema)` pair's
    /// previous revalidation and the nodes whose types change. Answered with
    /// [`ServiceResponse::Validation`]. Under a deadline the first build of
    /// the pair's typing and every later repair poll the request's token
    /// once per examined node. An expired build or repair answers
    /// [`ServiceError::DeadlineExceeded`], and the next `Revalidate` of the
    /// pair builds its typing from scratch.
    Revalidate {
        /// The graph to validate.
        graph: GraphId,
        /// The schema to validate against.
        schema: SchemaId,
    },
    /// Snapshot the service's metrics. Answered with
    /// [`ServiceResponse::Stats`].
    Stats,
}

/// A response from a [`ContainmentService`], one per [`ServiceRequest`].
#[derive(Debug, Clone)]
pub enum ServiceResponse {
    /// The handle for a registered schema.
    Registered(SchemaId),
    /// The answer to a [`ServiceRequest::Check`].
    Answer(Containment),
    /// The answer to a [`ServiceRequest::Matrix`].
    Matrix(ContainmentMatrix),
    /// The outcome of a [`ServiceRequest::LoadTriples`] chunk.
    Loaded {
        /// The graph the chunk went into (fresh when the request carried
        /// `graph: None`).
        graph: GraphId,
        /// Total triples parsed into this graph across all chunks so far.
        triples: u64,
        /// What this chunk changed, dirty nodes included. Boxed: the dirty
        /// list can be long, and responses travel through queues sized for
        /// the smallest variants.
        report: Box<DeltaReport>,
    },
    /// The outcome of a [`ServiceRequest::ApplyDelta`] batch.
    Applied {
        /// The graph the delta was applied to.
        graph: GraphId,
        /// What the batch changed, dirty nodes included.
        report: Box<DeltaReport>,
    },
    /// The verdict for a [`ServiceRequest::Revalidate`].
    Validation {
        /// The graph that was validated.
        graph: GraphId,
        /// The schema it was validated against.
        schema: SchemaId,
        /// Whether the graph currently satisfies the schema (its maximal
        /// typing is total).
        valid: bool,
        /// Nodes the repair re-examined: the dirty nodes plus those whose
        /// types changed, or the whole graph when the typing was rebuilt (0
        /// for a first build).
        affected: usize,
    },
    /// The metrics snapshot for a [`ServiceRequest::Stats`]. Boxed: the
    /// snapshot (histogram included) is far larger than the other variants.
    Stats(Box<ServiceStats>),
}

/// Why a [`ContainmentService`] refused a request. `#[non_exhaustive]`:
/// future services may refuse for further reasons (quotas, timeouts), so
/// downstream matches need a catch-all arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The handle was never issued by this service's engine.
    UnknownHandle {
        /// The offending handle.
        id: SchemaId,
        /// How many schemas the engine has registered (the valid range).
        registered: usize,
    },
    /// The handle exists but belongs to other tenants — the requesting
    /// tenant never registered that schema.
    WrongTenant {
        /// The offending handle.
        id: SchemaId,
        /// The requesting tenant.
        tenant: TenantId,
    },
    /// The [`TenantId`] was never issued by this service.
    UnknownTenant(TenantId),
    /// The graph handle is not usable by the requesting tenant — never
    /// issued, or issued to a different tenant. The two cases are
    /// deliberately indistinguishable so tenants cannot probe which graph
    /// handles exist.
    UnknownGraph(GraphId),
    /// A [`ServiceRequest::LoadTriples`] chunk failed to parse. None of the
    /// chunk's statements are applied: the graph and its dirty log keep
    /// their state from before the chunk. The graph's parser abandons the
    /// rest of the chunk (and, if the chunk ended inside a line, that
    /// line's tail in the next chunk), so the tenant resumes streaming with
    /// the next chunk; line numbers keep counting the whole stream.
    Parse {
        /// The graph the chunk was destined for.
        graph: GraphId,
        /// 1-based line number of the offending statement in the graph's
        /// whole stream.
        line: u64,
        /// Human-readable description of the failure.
        message: String,
    },
    /// The bounded request queue stayed full through
    /// [`PoolClient::call_timeout`]'s retries; retry later or shed load.
    /// The rejection is counted in [`ServiceStats::rejected`].
    Overloaded,
    /// The serve loop (or the reply channel) hung up before answering.
    Disconnected,
    /// The request's deadline expired before a complete answer was
    /// produced — while it sat in the queue (workers refuse to start
    /// expired work), during a [`ServiceRequest::Revalidate`] repair, or
    /// client-side when the reply missed a [`PoolClient::call_timeout`]
    /// budget. An engine-level expiry that
    /// still yields a typed verdict comes back as
    /// [`ServiceResponse::Answer`] carrying
    /// [`UnknownReason::DeadlineExceeded`] instead. Counted in the
    /// [`ServiceStats::timeouts`] histogram.
    DeadlineExceeded,
    /// The worker handling the request panicked. The caller was still
    /// answered (with this error), the panic was counted in
    /// [`ServiceStats::worker_restarts`], and the worker keeps serving, so
    /// the request is safe to retry.
    Internal,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownHandle { id, registered } => write!(
                f,
                "unknown schema handle {id:?} (this service has {registered} registered)"
            ),
            ServiceError::WrongTenant { id, tenant } => {
                write!(f, "schema handle {id:?} is not registered to {tenant}")
            }
            ServiceError::UnknownTenant(tenant) => {
                write!(f, "{tenant} was never issued by this service")
            }
            ServiceError::UnknownGraph(graph) => {
                write!(f, "{graph} is not a graph handle of the requesting tenant")
            }
            ServiceError::Parse {
                graph,
                line,
                message,
            } => {
                write!(
                    f,
                    "cannot parse N-Triples for {graph}: line {line}: {message}"
                )
            }
            ServiceError::Overloaded => write!(f, "request queue is full; retry later"),
            ServiceError::Disconnected => write!(f, "service hung up before answering"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline expired before the request completed")
            }
            ServiceError::Internal => write!(
                f,
                "the worker panicked handling the request (it keeps serving; safe to retry)"
            ),
        }
    }
}

impl Error for ServiceError {}

/// Whether a dispatch outcome is a deadline expiry — the typed
/// [`ServiceError::DeadlineExceeded`], or an engine verdict that gave up
/// with [`UnknownReason::DeadlineExceeded`]. Routes the latency sample
/// into [`ServiceStats::timeouts`] instead of [`ServiceStats::latency`].
fn expired(response: &Result<ServiceResponse, ServiceError>) -> bool {
    match response {
        Err(ServiceError::DeadlineExceeded) => true,
        Ok(ServiceResponse::Answer(answer)) => matches!(
            answer.unknown_reason(),
            Some(UnknownReason::DeadlineExceeded { .. })
        ),
        _ => false,
    }
}

/// Total send attempts a `call_timeout` retry loop makes (the first try
/// plus up to `RETRY_ATTEMPTS - 1` backed-off re-sends).
const RETRY_ATTEMPTS: u64 = 4;

/// splitmix64, the standard 64-bit mixer: retry jitter derives from it
/// deterministically — equal `(seed, attempt)` pairs always pause equally,
/// so overload behaviour replays exactly, yet distinct callers decorrelate.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pause before retry `attempt` (0-based): an exponential base
/// (100 µs · 2^attempt) plus a deterministic jitter in `[0, 100 µs)` drawn
/// from `(seed, attempt)`. `None` once attempts are exhausted or the pause
/// would sleep past `deadline` (if any) — the caller should give up instead.
fn retry_backoff(seed: u64, attempt: u64, deadline: Option<Instant>) -> Option<Duration> {
    if attempt + 1 >= RETRY_ATTEMPTS {
        return None;
    }
    let base_micros = 100u64 << attempt.min(8);
    let jitter_micros = splitmix64(seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 100;
    let pause = Duration::from_micros(base_micros + jitter_micros);
    let Some(deadline) = deadline else {
        return Some(pause);
    };
    let remaining = deadline.checked_duration_since(Instant::now())?;
    (pause < remaining).then_some(pause)
}

/// What a worker sends back for one request.
type Reply = Result<ServiceResponse, ServiceError>;

/// One queued request: who asks, what they ask, the channel the answer goes
/// back on, and the absolute deadline for answering (`None` = no limit).
/// Built by [`PoolClient`] calls and consumed by pool workers.
#[derive(Debug)]
struct ServiceEnvelope {
    tenant: TenantId,
    request: ServiceRequest,
    reply: mpsc::Sender<Reply>,
    deadline: Option<Instant>,
}

/// The full metrics surface of a [`ContainmentService`]: the engine's
/// cache/memory counters plus the service-level tenancy, backpressure, and
/// latency numbers. Snapshot via [`ServiceRequest::Stats`] or
/// [`ContainmentService::stats`]; the `Display` rendering is the log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// The engine snapshot: hit ratios, resident bytes, evictions.
    pub engine: EngineStats,
    /// Tenants issued (the default tenant included).
    pub tenants: usize,
    /// Streaming graphs held by the service across all tenants.
    pub graphs: usize,
    /// Requests rejected with [`ServiceError::Overloaded`] by clients of
    /// this service's bounded queues.
    pub rejected: u64,
    /// Re-sends performed by [`PoolClient::call_timeout`] retry loops after
    /// an [`ServiceError::Overloaded`] rejection.
    pub retries: u64,
    /// Retry loops that exhausted their backoff budget and surfaced
    /// [`ServiceError::Overloaded`] to the caller anyway.
    pub retry_gave_up: u64,
    /// Requests whose pool worker panicked while handling them (each
    /// answered [`ServiceError::Internal`]); the worker then carried on.
    pub worker_restarts: u64,
    /// The latency distribution over every request this service answered
    /// within its deadline (or that had none).
    pub latency: LatencySnapshot,
    /// The latency distribution of requests whose deadline expired — kept
    /// out of [`ServiceStats::latency`] so the tail of successful traffic
    /// is not polluted by requests that were *meant* to stop early.
    pub timeouts: LatencySnapshot,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} tenants; {} graphs; {} rejected; {} retries ({} gave up); \
             {} worker restarts; latency: {}; timeouts: {}",
            self.engine,
            self.tenants,
            self.graphs,
            self.rejected,
            self.retries,
            self.retry_gave_up,
            self.worker_restarts,
            self.latency,
            self.timeouts
        )
    }
}

/// Shared service-level state behind the [`Arc`] every clone and client
/// holds: the tenant scopes and the metrics the engine cannot know about.
#[derive(Debug)]
struct ServiceState {
    /// `tenants[t]` = the handles tenant `t` registered. Read-mostly: every
    /// query takes the read lock; only registration and tenant creation
    /// write.
    tenants: RwLock<Vec<HashSet<SchemaId>>>,
    /// `graphs[g]` = the streaming graph behind [`GraphId`] `g`. The outer
    /// lock is read-mostly (only graph creation writes); each slot carries
    /// its own mutex, so tenants streaming into different graphs never
    /// contend.
    graphs: RwLock<Vec<GraphSlot>>,
    /// Requests rejected with [`ServiceError::Overloaded`].
    rejected: AtomicU64,
    /// Overloaded re-sends performed by `call_timeout` retry loops.
    retries: AtomicU64,
    /// Retry loops that gave up and surfaced `Overloaded` anyway.
    retry_gave_up: AtomicU64,
    /// Requests whose pool worker panicked while handling them.
    worker_restarts: AtomicU64,
    /// Latency of every request answered within its deadline.
    latency: LatencyHistogram,
    /// Latency of requests whose deadline expired, kept separate so the
    /// successful tail stays honest.
    timeouts: LatencyHistogram,
}

/// One streaming graph and its owner.
#[derive(Debug)]
struct GraphSlot {
    /// The tenant the handle was issued to — the only tenant that may
    /// touch this slot.
    tenant: TenantId,
    /// The evolving state, serialised per graph.
    entry: Mutex<GraphEntry>,
}

/// The evolving state behind one [`GraphId`]: the graph, the push parser
/// carrying at most one incomplete line between chunks, the dirty-node log,
/// and the retained typings that consume it.
#[derive(Debug)]
struct GraphEntry {
    /// The graph as of all chunks and deltas applied so far.
    graph: Graph,
    /// The streaming N-Triples parser (bounded buffer: at most one line).
    parser: NTriplesParser,
    /// Dirty nodes not yet consumed by every retained typing, in
    /// application order (duplicates allowed — revalidation dedupes via its
    /// worklist). Nothing is recorded while the graph holds no typing, and
    /// the prefix every typing has consumed is drained.
    dirty: Vec<NodeId>,
    /// One retained incremental typing per schema this graph has been
    /// validated against, each with its sync point into `dirty`.
    typings: HashMap<SchemaId, TypingSlot>,
}

impl GraphEntry {
    /// Log the dirty nodes of a delta just applied, for the retained
    /// typings to consume. A typing that now lags by more entries than the
    /// graph has nodes is dropped: replaying its backlog would cost more
    /// than the rebuild its next `Revalidate` does instead.
    fn record(&mut self, dirty: &[NodeId]) {
        if self.typings.is_empty() {
            return;
        }
        self.dirty.extend_from_slice(dirty);
        let (len, limit) = (self.dirty.len(), self.graph.node_count());
        self.typings.retain(|_, slot| len - slot.synced <= limit);
        self.drain_consumed();
    }

    /// Drop the prefix of the dirty log that every retained typing has
    /// consumed.
    fn drain_consumed(&mut self) {
        let consumed = self
            .typings
            .values()
            .map(|slot| slot.synced)
            .min()
            .unwrap_or(self.dirty.len());
        if consumed > 0 {
            self.dirty.drain(..consumed);
            for slot in self.typings.values_mut() {
                slot.synced -= consumed;
            }
        }
    }
}

/// A retained [`IncrementalTyping`] plus how much of the dirty log it has
/// already consumed.
#[derive(Debug)]
struct TypingSlot {
    typing: IncrementalTyping,
    /// Offset into [`GraphEntry::dirty`]: everything before it is already
    /// reflected in `typing`.
    synced: usize,
}

/// A long-lived, multi-tenant containment session behind a
/// request/response protocol; see the [module docs](self). Cloning is cheap
/// (two [`Arc`] bumps) and clones share the engine and all service state,
/// so one service can be driven from many threads.
#[derive(Debug, Clone)]
pub struct ContainmentService {
    engine: Arc<ContainmentEngine>,
    state: Arc<ServiceState>,
}

impl Default for ContainmentService {
    fn default() -> Self {
        ContainmentService::new()
    }
}

impl ContainmentService {
    /// A service over a fresh engine with default options.
    pub fn new() -> ContainmentService {
        ContainmentService::with_options(EngineOptions::default())
    }

    /// A service over a fresh engine with the given options. Production
    /// deployments set a
    /// [cache budget](shapex_core::engine::EngineOptionsBuilder::cache_budget)
    /// here — a service lives long enough for unbounded caches to matter.
    pub fn with_options(options: EngineOptions) -> ContainmentService {
        ContainmentService::from_engine(Arc::new(ContainmentEngine::with_options(options)))
    }

    /// Wrap an existing shared engine — e.g. one that local code also
    /// queries directly while the service exposes it to other threads.
    pub fn from_engine(engine: Arc<ContainmentEngine>) -> ContainmentService {
        ContainmentService {
            engine,
            state: Arc::new(ServiceState {
                tenants: RwLock::new(vec![HashSet::new()]),
                graphs: RwLock::new(Vec::new()),
                rejected: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                retry_gave_up: AtomicU64::new(0),
                worker_restarts: AtomicU64::new(0),
                latency: LatencyHistogram::new(),
                timeouts: LatencyHistogram::new(),
            }),
        }
    }

    /// The shared engine behind the service.
    pub fn engine(&self) -> &Arc<ContainmentEngine> {
        &self.engine
    }

    /// Mint a new, empty tenant scope.
    pub fn create_tenant(&self) -> TenantId {
        let mut tenants = write_or_recover(&self.state.tenants);
        let id = TenantId(tenants.len() as u32);
        tenants.push(HashSet::new());
        id
    }

    /// Tenants issued so far (the default tenant included).
    pub fn tenant_count(&self) -> usize {
        read_or_recover(&self.state.tenants).len()
    }

    /// Streaming graphs held so far, across all tenants.
    pub fn graph_count(&self) -> usize {
        read_or_recover(&self.state.graphs).len()
    }

    /// The service's metrics snapshot (what [`ServiceRequest::Stats`]
    /// answers).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            engine: self.engine.stats(),
            tenants: self.tenant_count(),
            graphs: self.graph_count(),
            rejected: self.state.rejected.load(Ordering::Relaxed),
            retries: self.state.retries.load(Ordering::Relaxed),
            retry_gave_up: self.state.retry_gave_up.load(Ordering::Relaxed),
            worker_restarts: self.state.worker_restarts.load(Ordering::Relaxed),
            latency: self.state.latency.snapshot(),
            timeouts: self.state.timeouts.snapshot(),
        }
    }

    /// Answer one request on behalf of a tenant. Pure dispatch onto the
    /// engine plus the tenant bookkeeping: safe to call from any number of
    /// threads at once, with or without a [`ServicePool`] serving the same
    /// service. Every call — errors included — is recorded in the latency
    /// histogram.
    pub fn handle(
        &self,
        tenant: TenantId,
        request: ServiceRequest,
    ) -> Result<ServiceResponse, ServiceError> {
        self.handle_with_deadline(tenant, request, None)
    }

    /// [`handle`](ContainmentService::handle) under an optional absolute
    /// deadline. An already-expired deadline is refused with
    /// [`ServiceError::DeadlineExceeded`] before the engine runs (the queue
    /// wait consumed the budget); otherwise the request runs under one
    /// [`CancelToken`] bound to the deadline, so an expiry mid-search
    /// surfaces within a bounded checkpoint interval as a typed answer.
    /// Expired requests are recorded in the [`ServiceStats::timeouts`]
    /// histogram instead of the main one.
    fn handle_with_deadline(
        &self,
        tenant: TenantId,
        request: ServiceRequest,
        deadline: Option<Instant>,
    ) -> Result<ServiceResponse, ServiceError> {
        let started = Instant::now();
        let response = if deadline.is_some_and(|deadline| deadline <= started) {
            Err(ServiceError::DeadlineExceeded)
        } else {
            let cancel = deadline.map(CancelToken::with_deadline);
            self.dispatch(tenant, request, cancel.as_ref())
        };
        let histogram = if expired(&response) {
            &self.state.timeouts
        } else {
            &self.state.latency
        };
        histogram.record(started.elapsed());
        response
    }

    /// Run one request. `cancel` — the request's deadline token, if any —
    /// bounds [`ServiceRequest::Check`], [`ServiceRequest::Matrix`] and
    /// [`ServiceRequest::Revalidate`] (its first build and its incremental
    /// repairs). [`ServiceRequest::LoadTriples`] and
    /// [`ServiceRequest::ApplyDelta`] check it once they hold the graph's
    /// lock, where they wait behind other requests on the same graph: a
    /// fired token answers [`ServiceError::DeadlineExceeded`] before the
    /// parser is fed or the graph changes, so a chunk or a delta is applied
    /// whole or not at all. A chunk that names no graph mints one and skips
    /// the check, since nothing waits on a new graph's lock.
    fn dispatch(
        &self,
        tenant: TenantId,
        request: ServiceRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<ServiceResponse, ServiceError> {
        match request {
            ServiceRequest::Register(schema) => {
                // Existence check before the engine mutates anything.
                if tenant.index() >= self.tenant_count() {
                    return Err(ServiceError::UnknownTenant(tenant));
                }
                // The schema arrived parsed; this is the service's
                // post-parse seam, just before any state mutates.
                faults::trigger(faults::site::POST_PARSE);
                let id = self.engine.register(&schema);
                write_or_recover(&self.state.tenants)[tenant.index()].insert(id);
                Ok(ServiceResponse::Registered(id))
            }
            ServiceRequest::Check { h, k } => {
                self.checked(tenant, h)?;
                self.checked(tenant, k)?;
                Ok(ServiceResponse::Answer(self.engine.check_ids(h, k, cancel)))
            }
            ServiceRequest::Matrix(ids) => {
                for &id in &ids {
                    self.checked(tenant, id)?;
                }
                let matrix = self.engine.check_matrix_ids(&ids, cancel);
                Ok(ServiceResponse::Matrix(matrix))
            }
            ServiceRequest::LoadTriples { graph, chunk } => {
                let (id, cancel) = match graph {
                    Some(id) => (id, cancel),
                    None => (self.create_graph(tenant)?, None),
                };
                self.with_graph(tenant, id, |entry| {
                    if cancel.is_some_and(|t| t.fired()) {
                        return Err(ServiceError::DeadlineExceeded);
                    }
                    let mut delta = GraphDelta::new();
                    let mut sink =
                        |t: Triple<'_>| delta.add_triple(t.subject, t.predicate, t.object);
                    let parsed = if chunk.is_empty() {
                        entry.parser.finish(&mut sink)
                    } else {
                        entry.parser.feed(&chunk, &mut sink)
                    };
                    if let Err(error) = parsed {
                        // The parser has abandoned the rest of the chunk and
                        // keeps numbering the stream's lines. Triples before
                        // the bad statement in this chunk are dropped with
                        // it — the graph only ever reflects fully accepted
                        // chunks.
                        return Err(ServiceError::Parse {
                            graph: id,
                            line: error.line,
                            message: error.message,
                        });
                    }
                    // Chunk fully parsed, graph not yet mutated: an
                    // injected panic here leaves the entry consistent (the
                    // chunk is simply dropped) and the poisoned entry lock
                    // recovers on the next request.
                    faults::trigger(faults::site::POST_PARSE);
                    let report = entry.graph.apply_delta(&delta);
                    entry.record(&report.dirty);
                    Ok(ServiceResponse::Loaded {
                        graph: id,
                        triples: entry.parser.triples(),
                        report: Box::new(report),
                    })
                })
            }
            ServiceRequest::ApplyDelta { graph, delta } => {
                self.with_graph(tenant, graph, |entry| {
                    if cancel.is_some_and(|t| t.fired()) {
                        return Err(ServiceError::DeadlineExceeded);
                    }
                    let report = entry.graph.apply_delta(&delta);
                    entry.record(&report.dirty);
                    Ok(ServiceResponse::Applied {
                        graph,
                        report: Box::new(report),
                    })
                })
            }
            ServiceRequest::Revalidate { graph, schema } => {
                self.checked(tenant, schema)?;
                let definition = self.engine.schema(schema);
                self.with_graph(tenant, graph, |entry| {
                    // Split borrows: the typing consumes the dirty log while
                    // reading the graph.
                    let GraphEntry {
                        graph: g,
                        dirty,
                        typings,
                        ..
                    } = entry;
                    let (valid, affected) = {
                        let slot = match typings.entry(schema) {
                            Entry::Occupied(slot) => slot.into_mut(),
                            // A fresh typing reflects the graph as-is, dirty
                            // log included. An expired build inserts no
                            // slot, so the next call builds again.
                            Entry::Vacant(vacant) => vacant.insert(TypingSlot {
                                typing: IncrementalTyping::try_new(g, &definition, cancel)
                                    .ok_or(ServiceError::DeadlineExceeded)?,
                                synced: dirty.len(),
                            }),
                        };
                        let affected = if slot.synced < dirty.len() {
                            // An expired repair poisons the typing and
                            // leaves `synced` behind, so the next call
                            // rebuilds it from scratch.
                            let n = slot
                                .typing
                                .try_apply(g, &definition, &dirty[slot.synced..], cancel)
                                .ok_or(ServiceError::DeadlineExceeded)?;
                            slot.synced = dirty.len();
                            n
                        } else {
                            0
                        };
                        (slot.typing.is_total(), affected)
                    };
                    entry.drain_consumed();
                    Ok(ServiceResponse::Validation {
                        graph,
                        schema,
                        valid,
                        affected,
                    })
                })
            }
            ServiceRequest::Stats => Ok(ServiceResponse::Stats(Box::new(self.stats()))),
        }
    }

    /// Mint a fresh, empty streaming graph owned by `tenant`.
    fn create_graph(&self, tenant: TenantId) -> Result<GraphId, ServiceError> {
        if tenant.index() >= self.tenant_count() {
            return Err(ServiceError::UnknownTenant(tenant));
        }
        let mut graphs = write_or_recover(&self.state.graphs);
        let id = GraphId(graphs.len() as u32);
        graphs.push(GraphSlot {
            tenant,
            entry: Mutex::new(GraphEntry {
                graph: Graph::new(),
                parser: NTriplesParser::new(),
                dirty: Vec::new(),
                typings: HashMap::new(),
            }),
        });
        Ok(id)
    }

    /// Run `f` over the entry behind `id`, after checking the handle was
    /// issued to `tenant` — foreign and never-issued handles get the same
    /// [`ServiceError::UnknownGraph`].
    fn with_graph<R>(
        &self,
        tenant: TenantId,
        id: GraphId,
        f: impl FnOnce(&mut GraphEntry) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        let graphs = read_or_recover(&self.state.graphs);
        let slot = graphs
            .get(id.index())
            .filter(|slot| slot.tenant == tenant)
            .ok_or(ServiceError::UnknownGraph(id))?;
        let mut entry = lock_or_recover(&slot.entry);
        f(&mut entry)
    }

    /// Range-check a client-supplied handle, then scope-check it against
    /// the requesting tenant.
    fn checked(&self, tenant: TenantId, id: SchemaId) -> Result<(), ServiceError> {
        if !self.engine.is_registered(id) {
            return Err(ServiceError::UnknownHandle {
                id,
                registered: self.engine.schema_count(),
            });
        }
        let tenants = read_or_recover(&self.state.tenants);
        let scope = tenants
            .get(tenant.index())
            .ok_or(ServiceError::UnknownTenant(tenant))?;
        if scope.contains(&id) {
            Ok(())
        } else {
            Err(ServiceError::WrongTenant { id, tenant })
        }
    }
}

/// A pool of serve-loop workers over one shared service, from
/// [`ContainmentService::pool`]: `N` dedicated threads draining one shared
/// bounded queue, all dispatching onto the same engine and caches — every
/// deployment, a single-worker `pool(1, capacity)` included.
///
/// One serve loop head-of-line-blocks every tenant behind whichever request
/// is currently executing — one slow [`ServiceRequest::Matrix`] stalls the
/// cheapest `Stats` probe. With several workers, whichever worker is idle
/// takes the next queued request, so a request waits behind a slow one only
/// while every worker is busy. Backpressure is explicit: once the queue is
/// full, [`PoolClient::call_timeout`] backs off and finally answers
/// [`ServiceError::Overloaded`].
///
/// Duplicate concurrent queries handled by different workers coalesce
/// inside the engine
/// ([`check_ids`](shapex_core::engine::ContainmentEngine::check_ids)), so
/// several workers never multiply the work of a thundering herd.
#[derive(Debug)]
pub struct ServicePool {
    service: ContainmentService,
    /// The sending side of the shared queue; every client holds a clone.
    sender: mpsc::SyncSender<ServiceEnvelope>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ContainmentService {
    /// Spawn a [`ServicePool`] of `workers` serve-loop threads (min 1) over
    /// one shared bounded queue of `workers × capacity` in-flight requests
    /// (`capacity` min 1). The workers share this service (and through it
    /// the engine and all caches); they exit when every queue sender — the
    /// pool's plus every [`PoolClient`]'s — is dropped.
    ///
    /// A panic while handling a request — injected or real — answers that
    /// caller with [`ServiceError::Internal`], is counted in
    /// [`ServiceStats::worker_restarts`], and the worker goes on to the
    /// next request. A panicking request can poison locks it held; every
    /// service and engine lock recovers (see [`shapex_core::sync`]), so the
    /// worker keeps serving.
    pub fn pool(&self, workers: usize, capacity: usize) -> ServicePool {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::sync_channel(workers.saturating_mul(capacity.max(1)));
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|worker| {
                let service = self.clone();
                let queue = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("shapex-service-{worker}"))
                    .spawn(move || service.serve(&queue))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            service: self.clone(),
            sender,
            workers: handles,
        }
    }

    /// One worker: drain the shared queue until it closes. Each request
    /// runs inside `catch_unwind`, so a panic still answers the caller
    /// (with [`ServiceError::Internal`]) and the worker carries on.
    /// `AssertUnwindSafe` is justified the same way poison recovery is:
    /// everything the closure can leave mid-update is memoised or
    /// append-only state behind recovering locks (see
    /// [`shapex_core::sync`]).
    fn serve(&self, receiver: &Mutex<mpsc::Receiver<ServiceEnvelope>>) {
        loop {
            // Hold the queue lock only to receive, so a panicking request
            // can never poison it mid-dispatch.
            let envelope = {
                let queue = lock_or_recover(receiver);
                match queue.recv() {
                    Ok(envelope) => envelope,
                    Err(_) => return,
                }
            };
            let ServiceEnvelope {
                tenant,
                request,
                reply,
                deadline,
            } = envelope;
            let response = catch_unwind(AssertUnwindSafe(|| {
                faults::trigger(faults::site::WORKER_DISPATCH);
                self.handle_with_deadline(tenant, request, deadline)
            }))
            .unwrap_or_else(|_| {
                self.state.worker_restarts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Internal)
            });
            let _ = reply.send(response);
        }
    }
}

impl ServicePool {
    /// A client requesting as `tenant`. Clients are cheap to clone and
    /// outlive the pool value itself (they hold the queue alive); drop
    /// them all to let the workers exit.
    pub fn client(&self, tenant: TenantId) -> PoolClient {
        PoolClient {
            sender: self.sender.clone(),
            tenant,
            state: Arc::clone(&self.service.state),
        }
    }

    /// The shared service behind the pool.
    pub fn service(&self) -> &ContainmentService {
        &self.service
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Drop the pool's queue sender and block until every worker exits —
    /// which happens once all [`PoolClient`]s are dropped too, since clients
    /// keep the queue alive.
    pub fn join(self) {
        drop(self.sender);
        for worker in self.workers {
            worker.join().expect("service worker panicked");
        }
    }
}

/// A tenant's handle onto a [`ServicePool`]'s shared queue.
/// [`PoolClient::call_blocking`] parks while the queue is full;
/// [`PoolClient::call_timeout`] backs off and retries within its budget,
/// then rejects with [`ServiceError::Overloaded`].
#[derive(Debug, Clone)]
pub struct PoolClient {
    sender: mpsc::SyncSender<ServiceEnvelope>,
    tenant: TenantId,
    state: Arc<ServiceState>,
}

impl PoolClient {
    /// The tenant this client requests as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Send one request and wait for its response, parking while the queue
    /// is full — for closed-loop producers that prefer waiting over
    /// shedding. Fails with [`ServiceError::Disconnected`] when every worker
    /// has exited.
    ///
    /// **Hazard:** the park is *unbounded*, as is the wait for the reply —
    /// a wedged worker holds the caller forever. Interactive callers
    /// should use [`PoolClient::call_timeout`], which bounds both.
    pub fn call_blocking(&self, request: ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        let (reply, responses) = mpsc::channel();
        let envelope = ServiceEnvelope {
            tenant: self.tenant,
            request,
            reply,
            deadline: None,
        };
        self.sender
            .send(envelope)
            .map_err(|_| ServiceError::Disconnected)?;
        Self::receive(&responses, None)
    }

    /// Send one request under a wall-clock budget. The request carries an
    /// absolute deadline `timeout` from now (a deadline the clock cannot
    /// represent, such as `Duration::MAX`, means none). While the queue is
    /// full the call backs off (bounded attempts, deterministic jitter,
    /// counted in [`ServiceStats::retries`] /
    /// [`ServiceStats::retry_gave_up`]) and then rejects with
    /// [`ServiceError::Overloaded`] (counted in [`ServiceStats::rejected`]),
    /// and a reply that misses the budget comes back as
    /// [`ServiceError::DeadlineExceeded`] — this call never parks past its
    /// deadline. Engine-level expiries that answer in time arrive as
    /// [`ServiceResponse::Answer`] with an
    /// [`UnknownReason::DeadlineExceeded`] verdict. A client-side timeout
    /// does not revoke the queued request: a worker still dispatches it
    /// (and refuses it if its deadline has passed), answering into a dropped
    /// channel.
    pub fn call_timeout(
        &self,
        request: ServiceRequest,
        timeout: Duration,
    ) -> Result<ServiceResponse, ServiceError> {
        let deadline = Instant::now().checked_add(timeout);
        let (reply, responses) = mpsc::channel();
        let mut envelope = ServiceEnvelope {
            tenant: self.tenant,
            request,
            reply,
            deadline,
        };
        let mut attempt = 0;
        loop {
            envelope = match self.sender.try_send(envelope) {
                Ok(()) => return Self::receive(&responses, deadline),
                Err(mpsc::TrySendError::Full(back)) => back,
                Err(mpsc::TrySendError::Disconnected(_)) => return Err(ServiceError::Disconnected),
            };
            let seed =
                (u64::from(self.tenant.0) << 32) ^ self.state.retries.load(Ordering::Relaxed);
            let Some(pause) = retry_backoff(seed, attempt, deadline) else {
                self.state.retry_gave_up.fetch_add(1, Ordering::Relaxed);
                self.state.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded);
            };
            self.state.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(pause);
            attempt += 1;
        }
    }

    /// Wait for a reply — until `deadline` if there is one, mapping a missed
    /// budget onto [`ServiceError::DeadlineExceeded`].
    fn receive(
        responses: &mpsc::Receiver<Reply>,
        deadline: Option<Instant>,
    ) -> Result<ServiceResponse, ServiceError> {
        let Some(deadline) = deadline else {
            return responses.recv().map_err(|_| ServiceError::Disconnected)?;
        };
        match responses.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::DeadlineExceeded),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;

    fn ids_of(service: &ContainmentService, tenant: TenantId, texts: &[&str]) -> Vec<SchemaId> {
        texts
            .iter()
            .map(|t| {
                let request = ServiceRequest::Register(Box::new(parse_schema(t).unwrap()));
                match service.handle(tenant, request) {
                    Ok(ServiceResponse::Registered(id)) => id,
                    other => panic!("expected Registered, got {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn request_response_round_trip() {
        let service = ContainmentService::new();
        let ids = ids_of(
            &service,
            TenantId::DEFAULT,
            &["T -> p::L?\nL -> EMPTY\n", "T -> p::L*\nL -> EMPTY\n"],
        );
        match service.handle(
            TenantId::DEFAULT,
            ServiceRequest::Check {
                h: ids[0],
                k: ids[1],
            },
        ) {
            Ok(ServiceResponse::Answer(answer)) => {
                assert!(answer.is_contained(), "? widens to *")
            }
            other => panic!("expected Answer, got {other:?}"),
        }
        match service.handle(TenantId::DEFAULT, ServiceRequest::Matrix(ids.clone())) {
            Ok(ServiceResponse::Matrix(matrix)) => {
                assert_eq!(matrix.len(), 2);
                assert!(matrix[1][0].is_not_contained(), "* does not narrow to ?");
                assert_eq!(matrix.ids(), &ids[..]);
            }
            other => panic!("expected Matrix, got {other:?}"),
        }
        match service.handle(TenantId::DEFAULT, ServiceRequest::Stats) {
            Ok(ServiceResponse::Stats(stats)) => {
                assert_eq!(stats.engine.schemas, 2);
                assert_eq!(stats.tenants, 1);
                assert_eq!(stats.rejected, 0);
                assert!(stats.latency.count() >= 4, "every request is recorded");
                assert!(format!("{stats}").contains("latency"));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn foreign_handles_get_an_error_not_a_panic() {
        let service = ContainmentService::new();
        let ids = ids_of(&service, TenantId::DEFAULT, &["T -> p::L?\nL -> EMPTY\n"]);
        let other = ContainmentService::new();
        let foreign = ids_of(
            &other,
            TenantId::DEFAULT,
            &["A -> q::B\nB -> EMPTY\n", "B -> EMPTY\n"],
        )[1];
        match service.handle(
            TenantId::DEFAULT,
            ServiceRequest::Check {
                h: ids[0],
                k: foreign,
            },
        ) {
            Err(ServiceError::UnknownHandle { registered, .. }) => assert_eq!(registered, 1),
            other => panic!("expected UnknownHandle, got {other:?}"),
        }
    }

    #[test]
    fn tenants_cannot_use_each_others_handles() {
        let service = ContainmentService::new();
        let blue = service.create_tenant();
        let green = service.create_tenant();
        assert_eq!(service.tenant_count(), 3, "default + two minted");
        let blue_ids = ids_of(
            &service,
            blue,
            &["T -> p::L?\nL -> EMPTY\n", "T -> p::L*\nL -> EMPTY\n"],
        );
        // Green presenting blue's handle: range-valid, scope-invalid.
        match service.handle(
            green,
            ServiceRequest::Check {
                h: blue_ids[0],
                k: blue_ids[1],
            },
        ) {
            Err(ServiceError::WrongTenant { id, tenant }) => {
                assert_eq!(id, blue_ids[0]);
                assert_eq!(tenant, green);
            }
            other => panic!("expected WrongTenant, got {other:?}"),
        }
        // Green registering the same schema interns onto blue's engine
        // entry — same handle, now valid for both tenants.
        let green_ids = ids_of(&service, green, &["T -> p::L?\nL -> EMPTY\n"]);
        assert_eq!(green_ids[0], blue_ids[0], "interned across tenants");
        assert_eq!(service.engine().schema_count(), 2);
        // An unknown tenant is refused outright.
        let ghost = TenantId(99);
        match service.handle(
            ghost,
            ServiceRequest::Register(Box::new(parse_schema("T -> EMPTY\n").unwrap())),
        ) {
            Err(ServiceError::UnknownTenant(t)) => assert_eq!(t, ghost),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        // Errors render.
        assert!(format!("{}", ServiceError::Overloaded).contains("queue is full"));
    }

    /// The evolving-graph fixture: `u1` with a `name` and an `email` edge
    /// satisfies `User`; drop the email edge and `u1` satisfies nothing
    /// (it still has an edge, so `Literal -> EMPTY` is out of reach too).
    const USER_SCHEMA: &str = "User -> name::Literal, email::Literal\nLiteral -> EMPTY\n";

    fn user_schema_id(service: &ContainmentService, tenant: TenantId) -> SchemaId {
        ids_of(service, tenant, &[USER_SCHEMA])[0]
    }

    fn load(
        service: &ContainmentService,
        tenant: TenantId,
        graph: Option<GraphId>,
        chunk: &[u8],
    ) -> Result<(GraphId, u64, DeltaReport), ServiceError> {
        match service.handle(
            tenant,
            ServiceRequest::LoadTriples {
                graph,
                chunk: chunk.to_vec(),
            },
        )? {
            ServiceResponse::Loaded {
                graph,
                triples,
                report,
            } => Ok((graph, triples, *report)),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    fn revalidate(
        service: &ContainmentService,
        tenant: TenantId,
        graph: GraphId,
        schema: SchemaId,
    ) -> (bool, usize) {
        match service.handle(tenant, ServiceRequest::Revalidate { graph, schema }) {
            Ok(ServiceResponse::Validation {
                valid, affected, ..
            }) => (valid, affected),
            other => panic!("expected Validation, got {other:?}"),
        }
    }

    #[test]
    fn streamed_chunks_assemble_lines_split_anywhere() {
        let service = ContainmentService::new();
        let schema = user_schema_id(&service, TenantId::DEFAULT);
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .";
        // First chunk ends mid-way through the second statement; the last
        // statement has no trailing newline, so only the empty-chunk flush
        // completes it.
        let (graph, triples, report) = load(&service, TenantId::DEFAULT, None, &doc[..25]).unwrap();
        assert_eq!(triples, 1);
        assert_eq!(report.added_edges, 1);
        assert_eq!(report.added_nodes, 2, "u1 and the literal");
        let (_, triples, report) =
            load(&service, TenantId::DEFAULT, Some(graph), &doc[25..]).unwrap();
        assert_eq!(triples, 1, "the unterminated line stays buffered");
        assert_eq!(report.added_edges, 0);
        let (_, triples, report) = load(&service, TenantId::DEFAULT, Some(graph), b"").unwrap();
        assert_eq!(triples, 2, "the flush completes the final statement");
        assert_eq!(report.added_edges, 1);
        let (valid, affected) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        assert!(valid, "name + email satisfy User");
        assert_eq!(affected, 0, "a fresh typing consumes no dirty log");
        assert_eq!(service.stats().graphs, 1);
        assert!(format!("{}", service.stats()).contains("1 graphs"));
    }

    #[test]
    fn deltas_revalidate_incrementally_and_converge() {
        let service = ContainmentService::new();
        let schema = user_schema_id(&service, TenantId::DEFAULT);
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .\n";
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, doc).unwrap();
        assert!(revalidate(&service, TenantId::DEFAULT, graph, schema).0);
        // Dropping the email edge leaves u1 satisfying nothing.
        let mut delta = GraphDelta::new();
        delta.remove_edge("u1", "email", "\"e\"");
        match service.handle(
            TenantId::DEFAULT,
            ServiceRequest::ApplyDelta {
                graph,
                delta: Box::new(delta),
            },
        ) {
            Ok(ServiceResponse::Applied { report, .. }) => {
                assert_eq!(report.removed_edges, 1);
                assert_eq!(report.dirty.len(), 1, "only the source is dirty");
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        let (valid, affected) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        assert!(!valid, "without the email edge u1 has no type");
        assert!(affected >= 1, "the dirty region was re-examined");
        // Restoring the edge restores validity, still incrementally.
        let mut delta = GraphDelta::new();
        delta.add_edge("u1", "email", "\"e\"");
        service
            .handle(
                TenantId::DEFAULT,
                ServiceRequest::ApplyDelta {
                    graph,
                    delta: Box::new(delta),
                },
            )
            .unwrap();
        let (valid, affected) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        assert!(valid);
        assert!(affected >= 1);
        // No edits since: the retained typing answers without recomputing.
        assert_eq!(
            revalidate(&service, TenantId::DEFAULT, graph, schema),
            (true, 0)
        );
    }

    #[test]
    fn graph_handles_are_tenant_scoped_without_existence_leaks() {
        let service = ContainmentService::new();
        let blue = service.create_tenant();
        let green = service.create_tenant();
        let (graph, ..) = load(&service, blue, None, b"<a> <p> <b> .\n").unwrap();
        // Green presenting blue's handle and anyone presenting a
        // never-issued handle get the same error.
        match load(&service, green, Some(graph), b"<c> <p> <d> .\n") {
            Err(ServiceError::UnknownGraph(id)) => assert_eq!(id, graph),
            other => panic!("expected UnknownGraph, got {other:?}"),
        }
        let ghost = GraphId(99);
        match service.handle(
            blue,
            ServiceRequest::ApplyDelta {
                graph: ghost,
                delta: Box::new(GraphDelta::new()),
            },
        ) {
            Err(ServiceError::UnknownGraph(id)) => assert_eq!(id, ghost),
            other => panic!("expected UnknownGraph, got {other:?}"),
        }
        assert!(format!("{}", ServiceError::UnknownGraph(ghost)).contains("graph#99"));
    }

    #[test]
    fn parse_errors_report_the_line_and_allow_resuming() {
        let service = ContainmentService::new();
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, b"<a> <p> <b> .\n").unwrap();
        match load(&service, TenantId::DEFAULT, Some(graph), b"not ntriples\n") {
            Err(ServiceError::Parse { line, message, .. }) => {
                assert_eq!(line, 2, "lines count across chunks");
                assert!(!message.is_empty());
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // Streaming resumes with the next chunk, and the graph still holds
        // everything accepted before the error.
        let (_, _, report) =
            load(&service, TenantId::DEFAULT, Some(graph), b"<a> <q> <c> .\n").unwrap();
        assert_eq!(report.added_edges, 1);
        assert_eq!(report.added_nodes, 1, "a and b survived the bad chunk");
    }

    #[test]
    fn parse_errors_keep_stream_line_numbers_and_resync_at_the_next_line() {
        let service = ContainmentService::new();
        let tenant = TenantId::DEFAULT;
        let schema = user_schema_id(&service, tenant);
        // A retained typing makes the graph keep a dirty log.
        let (graph, ..) = load(&service, tenant, None, b"").unwrap();
        let _ = revalidate(&service, tenant, graph, schema);
        let (_, triples, _) = load(
            &service,
            tenant,
            Some(graph),
            b"<a> <p> <b> .\n<a> <p> <c> .\n",
        )
        .unwrap();
        assert_eq!(triples, 2);
        let before = view(&service, graph);
        assert!(!before.2.is_empty(), "the dirty log is kept");
        let mut long = b"<a> <p> <".to_vec();
        long.extend(std::iter::repeat(b'x').take(70_000));
        let failing: [&[u8]; 3] = [
            b"bad\n<a> <p> <d> .\n",
            b"<a> <p> <e> .\nbad again\n",
            &long,
        ];
        for (chunk, expected) in failing.into_iter().zip([3, 6, 7]) {
            match load(&service, tenant, Some(graph), chunk) {
                Err(ServiceError::Parse { line, .. }) => assert_eq!(line, expected),
                other => panic!("expected Parse at line {expected}, got {other:?}"),
            }
            assert_eq!(
                view(&service, graph),
                before,
                "a failed chunk leaves the graph and its dirty log untouched"
            );
        }
        // The tail of the over-long line is dropped; the statement after it
        // is the only one loaded.
        let (_, triples, report) =
            load(&service, tenant, Some(graph), b"xxx> .\n<x> <p> <y> .\n").unwrap();
        assert_eq!(report.added_edges, 1);
        assert_eq!(triples, 3, "two earlier triples plus <x> <p> <y>");
        let edges = view(&service, graph).3;
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&("x".into(), "p".into(), "y".into())));
    }

    /// A hand-wired client whose queue nothing drains: the test holds the
    /// receiving end, so fullness is deterministic.
    fn one_queue_client(
        service: &ContainmentService,
        capacity: usize,
    ) -> (PoolClient, mpsc::Receiver<ServiceEnvelope>) {
        let (sender, requests) = mpsc::sync_channel(capacity);
        let client = PoolClient {
            sender,
            tenant: TenantId::DEFAULT,
            state: Arc::clone(&service.state),
        };
        (client, requests)
    }

    #[test]
    fn pool_answers_concurrent_clients_across_workers() {
        let service = ContainmentService::new();
        let pool = service.pool(3, 4);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.service().tenant_count(), 1);
        let texts = ["T -> p::L?\nL -> EMPTY\n", "T -> p::L\nL -> EMPTY\n"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = pool.client(TenantId::DEFAULT);
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    for t in texts {
                        let request = ServiceRequest::Register(Box::new(parse_schema(t).unwrap()));
                        match client.call_blocking(request).unwrap() {
                            ServiceResponse::Registered(id) => ids.push(id),
                            other => panic!("expected Registered, got {other:?}"),
                        }
                    }
                    match client
                        .call_blocking(ServiceRequest::Check {
                            h: ids[1],
                            k: ids[0],
                        })
                        .unwrap()
                    {
                        ServiceResponse::Answer(answer) => {
                            assert!(answer.is_contained(), "1 is within ?")
                        }
                        other => panic!("expected Answer, got {other:?}"),
                    }
                });
            }
        });
        // Identical registrations from every client (landing on different
        // workers) interned onto one engine pair.
        assert_eq!(service.engine().schema_count(), 2);
        assert!(service.stats().latency.count() >= 12);
        // All clients hung up at scope end; join drains the workers.
        pool.join();
    }

    /// The Figure-1 anchor pair: no embedding, no counter-example — the
    /// search exhausts the default budget, so a short deadline reliably
    /// expires mid-search.
    /// The choice-group schema of the `disjunct` gadgets: outside RBE₀ and
    /// with too many bags for the sufficient check, so checking it against
    /// itself runs the bounded search to the end of its budget.
    const CHOICE_GROUPS: &str = "Root -> (a1::L | b1::L)[1;2], (a2::L | b2::L)[1;2], \
         (a3::L | b3::L)[1;2], (a4::L | b4::L)[1;2], (a5::L | b5::L)[1;2], (a6::L | b6::L)[1;2]\n";

    #[test]
    fn deadlines_surface_as_typed_answers_in_the_timeout_histogram() {
        let service = ContainmentService::new();
        let ids = ids_of(&service, TenantId::DEFAULT, &[CHOICE_GROUPS, CHOICE_GROUPS]);
        let check = ServiceRequest::Check {
            h: ids[0],
            k: ids[1],
        };
        // Already expired: refused before the engine runs.
        match service.handle_with_deadline(TenantId::DEFAULT, check.clone(), Some(Instant::now())) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Expiring mid-search: a typed Unknown verdict, never a hang.
        let soon = Instant::now() + Duration::from_millis(2);
        match service.handle_with_deadline(TenantId::DEFAULT, check, Some(soon)) {
            Ok(ServiceResponse::Answer(answer)) => assert!(
                matches!(
                    answer.unknown_reason(),
                    Some(UnknownReason::DeadlineExceeded { .. })
                ),
                "expected a deadline verdict, got {answer:?}"
            ),
            other => panic!("expected Answer, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.timeouts.count(), 2, "both expiries are timeouts");
        assert_eq!(
            stats.latency.count(),
            2,
            "registrations stay in the main histogram"
        );
        assert!(
            stats.engine.deadline_exceeded >= 1,
            "the engine counted the expiry"
        );
        assert!(format!("{stats}").contains("timeouts:"));
    }

    #[test]
    fn call_timeout_retries_overload_and_bounds_the_wait() {
        let service = ContainmentService::new();
        // Capacity-1 queue, nothing draining it: every retry finds it still
        // full and the loop gives up with a typed rejection.
        let (client, requests) = one_queue_client(&service, 1);
        let fire = || {
            let (reply, _responses) = mpsc::channel();
            ServiceEnvelope {
                tenant: TenantId::DEFAULT,
                request: ServiceRequest::Stats,
                reply,
                deadline: None,
            }
        };
        client.sender.try_send(fire()).unwrap();
        match client.call_timeout(ServiceRequest::Stats, Duration::from_millis(250)) {
            Err(ServiceError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(
            stats.retries,
            RETRY_ATTEMPTS - 1,
            "every backoff slot was used"
        );
        assert_eq!(stats.retry_gave_up, 1);
        assert_eq!(stats.rejected, 1);
        // Workers gone (receiver dropped): Disconnected at once, not
        // Overloaded, and no extra rejection tick.
        drop(requests);
        match client.call_timeout(ServiceRequest::Stats, Duration::from_millis(250)) {
            Err(ServiceError::Disconnected) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert_eq!(
            service.stats().rejected,
            1,
            "disconnects are not rejections"
        );
        // A free slot but still no server: the bounded reply wait expires
        // typed instead of parking forever.
        let (client, _requests) = one_queue_client(&service, 4);
        match client.call_timeout(ServiceRequest::Stats, Duration::from_millis(5)) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(
            service.stats().timeouts.count(),
            0,
            "client-side expiry; server never ran"
        );
    }

    #[test]
    fn call_timeout_with_an_unrepresentable_deadline_waits_without_one() {
        let service = ContainmentService::new();
        let pool = service.pool(1, 4);
        let client = pool.client(TenantId::DEFAULT);
        match client.call_timeout(ServiceRequest::Stats, Duration::MAX) {
            Ok(ServiceResponse::Stats(stats)) => assert_eq!(stats.timeouts.count(), 0),
            other => panic!("expected Stats, got {other:?}"),
        }
        drop(client);
        pool.join();
    }

    #[test]
    fn expired_revalidate_answers_deadline_exceeded_and_the_next_one_rebuilds() {
        let service = ContainmentService::new();
        let schema = user_schema_id(&service, TenantId::DEFAULT);
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .\n";
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, doc).unwrap();
        assert!(revalidate(&service, TenantId::DEFAULT, graph, schema).0);
        let mut delta = GraphDelta::new();
        delta.remove_edge("u1", "email", "\"e\"");
        let request = ServiceRequest::ApplyDelta {
            graph,
            delta: Box::new(delta),
        };
        service.handle(TenantId::DEFAULT, request).unwrap();
        // An already-fired token stops the repair at its first node.
        let expired = CancelToken::new();
        expired.cancel();
        let request = ServiceRequest::Revalidate { graph, schema };
        match service.dispatch(TenantId::DEFAULT, request, Some(&expired)) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The next plain Revalidate rebuilds the poisoned typing in full and
        // agrees with validating the graph from scratch.
        let (valid, affected) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        let definition = service.engine().schema(schema);
        let (scratch, nodes) = service
            .with_graph(TenantId::DEFAULT, graph, |entry| {
                Ok((
                    shapex_shex::validates(&entry.graph, &definition),
                    entry.graph.node_count(),
                ))
            })
            .unwrap();
        assert_eq!(valid, scratch);
        assert!(!valid, "without the email edge u1 has no type");
        assert_eq!(affected, nodes, "the poisoned typing is rebuilt in full");
    }

    #[test]
    fn expired_first_revalidate_answers_deadline_exceeded_and_the_next_one_builds() {
        let service = ContainmentService::new();
        let schema = user_schema_id(&service, TenantId::DEFAULT);
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .\n";
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, doc).unwrap();
        // An already-fired token stops the first build at its first node.
        let expired = CancelToken::new();
        expired.cancel();
        let request = ServiceRequest::Revalidate { graph, schema };
        match service.dispatch(TenantId::DEFAULT, request, Some(&expired)) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let slots = service
            .with_graph(TenantId::DEFAULT, graph, |entry| Ok(entry.typings.len()))
            .unwrap();
        assert_eq!(slots, 0, "an expired first build keeps no typing");
        // The next plain Revalidate builds the typing and agrees with
        // validating the graph from scratch.
        let (valid, _) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        let definition = service.engine().schema(schema);
        let scratch = service
            .with_graph(TenantId::DEFAULT, graph, |entry| {
                Ok(shapex_shex::validates(&entry.graph, &definition))
            })
            .unwrap();
        assert_eq!(valid, scratch);
        assert!(valid, "u1 has both a name and an email");
    }

    /// What a test can observe of a streaming graph: node and edge counts,
    /// the dirty log, and every edge as a `(source, label, target)` name
    /// triple, sorted.
    type GraphView = (usize, usize, Vec<NodeId>, Vec<(String, String, String)>);

    fn view(service: &ContainmentService, graph: GraphId) -> GraphView {
        service
            .with_graph(TenantId::DEFAULT, graph, |entry| {
                let g = &entry.graph;
                let mut edges: Vec<_> = g
                    .edges()
                    .map(|e| {
                        (
                            g.node_name(g.source(e)).to_string(),
                            g.label(e).as_str().to_string(),
                            g.node_name(g.target(e)).to_string(),
                        )
                    })
                    .collect();
                edges.sort();
                Ok((g.node_count(), g.edge_count(), entry.dirty.clone(), edges))
            })
            .unwrap()
    }

    #[test]
    fn expired_load_triples_leaves_the_graph_and_the_partial_line_intact() {
        let service = ContainmentService::new();
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .\n<u2> <name> \"m\" .\n";
        // The first chunk ends mid-way through the second statement.
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, &doc[..25]).unwrap();
        let before = view(&service, graph);
        let expired = CancelToken::new();
        expired.cancel();
        let request = ServiceRequest::LoadTriples {
            graph: Some(graph),
            chunk: doc[25..].to_vec(),
        };
        match service.dispatch(TenantId::DEFAULT, request, Some(&expired)) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(view(&service, graph), before, "nothing was fed or applied");
        // The buffered half line survived: the plain retry of the same rest
        // yields the graph that one whole-document load gives.
        let (_, triples, _) = load(&service, TenantId::DEFAULT, Some(graph), &doc[25..]).unwrap();
        assert_eq!(triples, 3);
        let (whole, ..) = load(&service, TenantId::DEFAULT, None, doc).unwrap();
        assert_eq!(view(&service, graph).3, view(&service, whole).3);
        assert_eq!(view(&service, graph).0, view(&service, whole).0);
    }

    #[test]
    fn expired_apply_delta_leaves_the_graph_and_the_dirty_log_intact() {
        let service = ContainmentService::new();
        let doc = b"<u1> <name> \"n\" .\n<u1> <email> \"e\" .\n";
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, doc).unwrap();
        let before = view(&service, graph);
        let delta = || {
            let mut delta = GraphDelta::new();
            delta.remove_edge("u1", "email", "\"e\"");
            delta.add_edge("u2", "name", "\"m\"");
            Box::new(delta)
        };
        let expired = CancelToken::new();
        expired.cancel();
        let request = ServiceRequest::ApplyDelta {
            graph,
            delta: delta(),
        };
        match service.dispatch(TenantId::DEFAULT, request, Some(&expired)) {
            Err(ServiceError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(view(&service, graph), before, "nothing was applied");
        // The plain retry applies the whole delta.
        let request = ServiceRequest::ApplyDelta {
            graph,
            delta: delta(),
        };
        match service.handle(TenantId::DEFAULT, request) {
            Ok(ServiceResponse::Applied { report, .. }) => {
                assert_eq!((report.added_edges, report.removed_edges), (1, 1));
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        let (whole, ..) = load(
            &service,
            TenantId::DEFAULT,
            None,
            b"<u1> <name> \"n\" .\n<u2> <name> \"m\" .\n",
        )
        .unwrap();
        assert_eq!(view(&service, graph).3, view(&service, whole).3);
    }

    fn apply_delta(service: &ContainmentService, graph: GraphId, delta: GraphDelta) {
        let request = ServiceRequest::ApplyDelta {
            graph,
            delta: Box::new(delta),
        };
        match service.handle(TenantId::DEFAULT, request) {
            Ok(ServiceResponse::Applied { .. }) => {}
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    /// Remove `user`'s email on even rounds, restore it on odd ones.
    fn toggle_email(service: &ContainmentService, graph: GraphId, user: &str, round: usize) {
        let mut delta = GraphDelta::new();
        if round % 2 == 0 {
            delta.remove_edge(user, "email", format!("\"{user}@x\""));
        } else {
            delta.add_edge(user, "email", format!("\"{user}@x\""));
        }
        apply_delta(service, graph, delta);
    }

    /// The verdict of validating `graph` against `schema` from scratch.
    fn from_scratch(service: &ContainmentService, graph: GraphId, schema: SchemaId) -> bool {
        let definition = service.engine().schema(schema);
        service
            .with_graph(TenantId::DEFAULT, graph, |entry| {
                Ok(shapex_shex::maximal_typing(&entry.graph, &definition).is_total())
            })
            .unwrap()
    }

    const TWO_USERS: &[u8] = b"<u1> <name> \"n\" .\n<u1> <email> \"u1@x\" .\n\
                               <u2> <name> \"m\" .\n<u2> <email> \"u2@x\" .\n";

    #[test]
    fn a_graph_never_revalidated_keeps_no_dirty_log() {
        let service = ContainmentService::new();
        let schema = user_schema_id(&service, TenantId::DEFAULT);
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, TWO_USERS).unwrap();
        for round in 0..41 {
            toggle_email(&service, graph, "u1", round);
        }
        assert!(view(&service, graph).2.is_empty(), "no typing consumes it");
        // u1 ends without an email; the first Revalidate builds from scratch.
        let (valid, affected) = revalidate(&service, TenantId::DEFAULT, graph, schema);
        assert_eq!(valid, from_scratch(&service, graph, schema));
        assert!(!valid);
        assert_eq!(affected, 0);
    }

    #[test]
    fn a_typing_left_behind_is_dropped_and_rebuilt() {
        let service = ContainmentService::new();
        let ids = ids_of(
            &service,
            TenantId::DEFAULT,
            &[
                USER_SCHEMA,
                "User -> name::Literal, email::Literal?\nLiteral -> EMPTY\n",
            ],
        );
        let (a, b) = (ids[0], ids[1]);
        let (graph, ..) = load(&service, TenantId::DEFAULT, None, TWO_USERS).unwrap();
        assert!(revalidate(&service, TenantId::DEFAULT, graph, a).0);
        let nodes = view(&service, graph).0;
        // Only B is revalidated from now on: A's typing falls behind.
        for round in 0..41 {
            toggle_email(&service, graph, "u1", round);
            assert!(revalidate(&service, TenantId::DEFAULT, graph, b).0);
            let logged = view(&service, graph).2.len();
            assert!(
                logged <= nodes,
                "round {round}: {logged} dirty entries kept"
            );
        }
        let slots = service
            .with_graph(TenantId::DEFAULT, graph, |entry| Ok(entry.typings.len()))
            .unwrap();
        assert_eq!(
            slots, 1,
            "A's typing lagged by more than the graph and was dropped"
        );
        // u1 ends without an email, so A's next answer differs from its last.
        let (valid, _) = revalidate(&service, TenantId::DEFAULT, graph, a);
        assert_eq!(valid, from_scratch(&service, graph, a));
        assert!(!valid);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let a: Vec<_> = (0..RETRY_ATTEMPTS)
            .map(|i| retry_backoff(7, i, Some(deadline)))
            .collect();
        let b: Vec<_> = (0..RETRY_ATTEMPTS)
            .map(|i| retry_backoff(7, i, Some(deadline)))
            .collect();
        assert_eq!(a, b, "equal (seed, attempt) pairs pause equally");
        assert!(a[..(RETRY_ATTEMPTS - 1) as usize]
            .iter()
            .all(Option::is_some));
        assert_eq!(
            a[(RETRY_ATTEMPTS - 1) as usize],
            None,
            "attempts are bounded"
        );
        // An imminent deadline suppresses the pause entirely.
        assert_eq!(retry_backoff(7, 0, Some(Instant::now())), None);
    }

    /// Chaos tests arm the process-global fault registry; they exist only
    /// under `--features failpoints` and serialise on a local gate.
    #[cfg(feature = "failpoints")]
    mod chaos {
        use super::*;
        use shapex_core::faults::{self, site, FaultAction, FaultPlan};
        use std::sync::PoisonError;

        static GATE: Mutex<()> = Mutex::new(());

        #[test]
        fn panicking_worker_answers_internal_and_keeps_serving() {
            let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
            let service = ContainmentService::new();
            let pool = service.pool(1, 4);
            let client = pool.client(TenantId::DEFAULT);
            faults::install(FaultPlan::new().inject(site::WORKER_DISPATCH, 0, FaultAction::Panic));
            match client.call_blocking(ServiceRequest::Stats) {
                Err(ServiceError::Internal) => {}
                other => panic!("expected Internal, got {other:?}"),
            }
            faults::clear();
            // The same worker goes on draining the queue.
            match client.call_blocking(ServiceRequest::Stats) {
                Ok(ServiceResponse::Stats(stats)) => {
                    assert_eq!(stats.worker_restarts, 1);
                    assert!(format!("{stats}").contains("1 worker restarts"));
                }
                other => panic!("expected Stats, got {other:?}"),
            }
            drop(client);
            pool.join();
        }

        #[test]
        fn injected_post_parse_panic_never_wedges_the_service() {
            let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
            let service = ContainmentService::new();
            let pool = service.pool(2, 4);
            let client = pool.client(TenantId::DEFAULT);
            faults::install(FaultPlan::new().inject(site::POST_PARSE, 0, FaultAction::Panic));
            let schema = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
            match client.call_blocking(ServiceRequest::Register(Box::new(schema.clone()))) {
                Err(ServiceError::Internal) => {}
                other => panic!("expected Internal, got {other:?}"),
            }
            faults::clear();
            // Nothing was half-registered: the retry lands cleanly on the
            // recovered service and the engine holds exactly one schema.
            match client.call_blocking(ServiceRequest::Register(Box::new(schema))) {
                Ok(ServiceResponse::Registered(_)) => {}
                other => panic!("expected Registered, got {other:?}"),
            }
            assert_eq!(service.engine().schema_count(), 1);
            match client.call_blocking(ServiceRequest::Stats) {
                Ok(ServiceResponse::Stats(stats)) => assert_eq!(stats.worker_restarts, 1),
                other => panic!("expected Stats, got {other:?}"),
            }
            drop(client);
            pool.join();
        }

        #[test]
        fn an_idle_worker_takes_requests_queued_behind_a_stalled_one() {
            let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
            let service = ContainmentService::new();
            let pool = service.pool(2, 4);
            let client = pool.client(TenantId::DEFAULT);
            faults::install(FaultPlan::new().inject(
                site::WORKER_DISPATCH,
                0,
                FaultAction::Delay(Duration::from_secs(2)),
            ));
            std::thread::scope(|scope| {
                let stalled = scope.spawn(|| client.call_blocking(ServiceRequest::Stats));
                // One worker now holds the stalled request.
                while faults::hits(site::WORKER_DISPATCH) == 0 {
                    std::thread::yield_now();
                }
                for call in 0..4 {
                    match client.call_timeout(ServiceRequest::Stats, Duration::from_secs(1)) {
                        Ok(ServiceResponse::Stats(_)) => {}
                        other => panic!("call {call} waited on the stalled worker: {other:?}"),
                    }
                }
                match stalled.join().expect("the stalled caller returns") {
                    Ok(ServiceResponse::Stats(_)) => {}
                    other => panic!("expected Stats, got {other:?}"),
                }
            });
            faults::clear();
            drop(client);
            pool.join();
        }
    }
}
