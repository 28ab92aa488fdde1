//! `ContainmentEngine` — a memoising, shared-state query session over the
//! containment procedures.
//!
//! The decision procedures of this crate ([`crate::det`], [`crate::shex0`],
//! [`crate::general`]) are exposed as stateless one-shot functions; called in
//! a loop — the batch schema-evolution workload, pairwise matrices over a
//! schema corpus, repeated queries from a service — every call re-derives
//! shape graphs, re-classifies schemas, re-enumerates candidate unfoldings,
//! and re-validates thousands of candidate graphs from scratch. The engine
//! is the session layer that keeps all of that:
//!
//! * **Schema registry.** [`ContainmentEngine::register`] interns a schema by
//!   a structural fingerprint and computes its [`SchemaClass`] and shape
//!   graph once; the registered copy's atom labels are re-interned through
//!   the engine's [`shapex_graph::SharedLabelTable`], so every registered
//!   schema (and every candidate graph unfolded from one) shares one
//!   allocation per distinct predicate label.
//! * **Per-schema caches.** The characterizing graph (Lemma 4.2), the
//!   exhaustive per-type bag enumeration of the general sufficient check,
//!   and the enumerated unfolding pools of the bounded search — keyed by
//!   `(type, depth)` under the engine's fixed search budget — are each built
//!   once and reused across every partner schema.
//! * **Verdict memos.** Shape-graph embedding verdicts, type-simulation
//!   verdicts and the type-set fixpoint's outcomes are memoised per ordered
//!   schema pair, so a repeated check of a `ShEx₀` pair costs memo lookups
//!   only. The bounded search memoises `validates(candidate, S)` verdicts
//!   per registered schema under a structural fingerprint of the candidate
//!   graph: it re-encounters the same candidates at every depth, so even a
//!   single one-shot query through a throwaway engine validates each
//!   distinct candidate once.
//!
//! # One query path
//!
//! Every verdict goes through one dispatch chain that picks the strongest
//! procedure for the pair's class. A `ShEx₀` pair goes to embedding (§3),
//! then the characterizing graph for `DetShEx₀⁻` (Lemma 4.2), then the
//! exact type-set fixpoint ([`crate::fixpoint`], §5); only a pair over the
//! fixpoint's work bound reaches the bounded counter-example search. A pair
//! with a full ShEx side goes to the type-simulation check and then the
//! bounded search (§6). Four methods reach it:
//! [`ContainmentEngine::check`] and [`ContainmentEngine::check_matrix`]
//! register schemas and ask; [`ContainmentEngine::check_ids`] and
//! [`ContainmentEngine::check_matrix_ids`] take handles plus an optional
//! [`CancelToken`]. Without a token, concurrent duplicates coalesce onto one
//! computation; with one, the query polls it at bounded checkpoints and
//! answers [`crate::UnknownReason::DeadlineExceeded`] once it fires.
//!
//! # Shared state and concurrency
//!
//! All of the above is logically read-mostly shared state — the procedures
//! are pure functions over registered schemas — so every query method takes
//! `&self`: the registry is an `RwLock`-guarded append-only vector of
//! [`Arc`]ed entries, per-schema caches sit behind `OnceLock`s and
//! `RwLock`ed maps inside each entry, pair memos live in sharded `RwLock`
//! maps, the label table is a lock-free-read interner, and the
//! [`EngineStats`] counters are atomics. A `ContainmentEngine` is therefore
//! `Send + Sync` (compile-time asserted): wrap it in an `Arc` and query it
//! from as many threads as you like — verdicts are deterministic, caches
//! only ever fill in with deterministic values, and a race at worst computes
//! a verdict twice before one copy wins the cache slot.
//!
//! A query runs on its caller's thread: the engine spawns no threads of its
//! own. Concurrency comes from sharing one engine — the service pool's
//! workers each run their requests against one `Arc<ContainmentEngine>`, and
//! any other caller can do the same.
//!
//! # Bounded memory
//!
//! Left alone, every cache above grows for the engine's lifetime — fine for
//! a batch job, fatal for a long-lived multi-tenant service. With
//! [`EngineOptionsBuilder::cache_budget`] set, the engine keeps an
//! accounted-byte ledger (the
//! [`crate::budget::CacheBudget`]/[`crate::budget::Weigh`] seam):
//! enumerated pools, validation memos, the pair memos (fixpoint outcomes
//! with their witnesses included), and the
//! per-schema unfolding arenas are size-accounted and stamped with an LRU
//! clock on every hit, and whenever the evictable total exceeds the budget
//! an epoch-LRU sweep drops the least-recently-used entries until the total
//! is back under half the budget. Eviction is **observationally invisible**
//! — every cache is a pure memo of a deterministic function, so a dropped
//! entry costs a recomputation, never a different verdict or witness (the
//! `engine_eviction` suite pins this against the unbounded engine and the
//! memo-free baseline). One-shot `OnceLock` caches (characterizing graphs,
//! exhaustive bag enumerations) and the registered schemas are exempt but
//! counted, so [`EngineStats`] reports the full footprint:
//! per-cache resident bytes, evictions, and bytes freed, next to the hit
//! ratios — the capacity-planning surface of a service deployment. The
//! default budget is `None` (unbounded): existing workloads pay only a few
//! atomic increments.
//!
//! The one-shot functions still exist and behave identically — they
//! construct a throwaway engine. Witnesses are reproducible: a `ShEx₀`
//! witness is the one the fixpoint's derivation unfolds, and the bounded
//! search examines candidates in exactly the order of
//! [`crate::baseline::search_counter_example_baseline`], the retained
//! memo-free reference.
//!
//! ```
//! use shapex_core::engine::ContainmentEngine;
//! use shapex_shex::parse_schema;
//!
//! let v1 = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
//! let v2 = parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
//! let engine = ContainmentEngine::new();
//! let matrix = engine.check_matrix(&[v1, v2]);
//! assert!(matrix[0][1].is_contained(), "? widens to *");
//! assert!(matrix[1][0].is_not_contained(), "* does not narrow to ?");
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Duration;

use shapex_graph::{Graph, Label, SharedLabelTable};
use shapex_rbe::{Bag, Rbe};
use shapex_shex::typing::{validates_with, SolverTelemetry, ValidateScratch};
use shapex_shex::{Atom, Schema, SchemaClass, TypeId};

use crate::budget::{CacheBudget, CacheKind, Weigh};
use crate::det::{characterizing_graph, NotDetShex0Minus};
use crate::embedding::embeds;
use crate::faults;
use crate::fixpoint::{self, FixpointOutcome};
use crate::general::{exhaustive_bags, type_simulation_with_bags};
use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use crate::unfold::{SearchOptions, SessionContext, Unfolder};
use crate::{CancelToken, Containment};

pub use crate::matrix::ContainmentMatrix;

// The engine is shared across service workers and any other caller threads
// by `&self` / `Arc`; this is the compile-time statement of that contract
// (see the module docs).
shapex_graph::assert_send_sync!(ContainmentEngine, EngineOptions, EngineStats, SchemaId);

/// Tuning knobs for a [`ContainmentEngine`].
///
/// Options are set only through [`EngineOptions::builder`] (the fields are
/// private), so adding a knob is never a breaking change for downstream
/// crates. [`EngineOptions::default`] is what the builder starts from.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    search: SearchOptions,
    cache_budget: Option<u64>,
    max_entry_bytes: Option<u64>,
}

/// Builder for [`EngineOptions`], the one way to configure an engine.
///
/// ```
/// use shapex_core::engine::{ContainmentEngine, EngineOptions};
///
/// let options = EngineOptions::builder()
///     .cache_budget(64 << 20) // 64 MiB across all evictable caches
///     .build();
/// let engine = ContainmentEngine::with_options(options);
/// assert_eq!(engine.stats().cache_budget, Some(64 << 20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineOptionsBuilder {
    options: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Replace the counter-example search budget (depth, pool sizes,
    /// candidate count). Fixed for the lifetime of the engine so that cached
    /// unfolding pools remain valid for every query.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.options.search = search;
        self
    }

    /// Bound the evictable caches (enumerated pools, validation memos, pair
    /// memos, unfolding arenas) to an accounted-byte budget: an epoch-LRU
    /// sweep runs whenever the evictable total exceeds it. Without this call
    /// every cache is kept for the engine's lifetime. Verdicts and witnesses
    /// do not depend on it — see the [module docs](self). Weights are
    /// documented approximations of heap footprint, not allocator ground
    /// truth.
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.options.cache_budget = Some(bytes);
        self
    }

    /// Refuse to cache any single entry (one enumerated pool, one validation
    /// record, …) heavier than `bytes` accounted bytes: it is used but never
    /// cached, so one oversized entry cannot evict the whole working set.
    /// Without this call everything is admitted. Verdicts do not depend on
    /// it.
    pub fn max_entry_bytes(mut self, bytes: u64) -> Self {
        self.options.max_entry_bytes = Some(bytes);
        self
    }

    /// Finish, yielding the configured [`EngineOptions`].
    pub fn build(self) -> EngineOptions {
        self.options
    }
}

impl EngineOptions {
    /// A builder over the default options.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder::default()
    }
}

/// A handle to a schema registered with a [`ContainmentEngine`].
///
/// Handles are only meaningful for the engine that issued them; passing a
/// handle to a different engine panics (out of range) or silently refers to
/// whatever schema that engine registered under the same slot. Use
/// [`ContainmentEngine::is_registered`] to range-check foreign handles at a
/// service boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaId(u32);

impl SchemaId {
    fn index(self) -> usize {
        self.0 as usize
    }

    /// A handle from a raw registry slot — test-internal; the public way
    /// to obtain a handle is [`ContainmentEngine::register`].
    #[cfg(test)]
    pub(crate) fn from_index(index: u32) -> SchemaId {
        SchemaId(index)
    }
}

/// Cache-effectiveness and memory-footprint counters of a
/// [`ContainmentEngine`], for diagnostics and tests: an immutable snapshot
/// taken by [`ContainmentEngine::stats`] from the engine's internal
/// atomics. Hit/miss/eviction counters are cumulative over the engine's
/// lifetime; the `*_bytes` fields are the accounted resident footprint at
/// snapshot time. The [`fmt::Display`] impl renders per-memo hit/miss
/// ratios plus the memory line, the metrics a service surfaces.
///
/// `#[non_exhaustive]`: downstream crates read fields but cannot construct
/// the struct, so adding a counter is never a breaking change.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Distinct schemas registered.
    pub schemas: usize,
    /// Candidate-validation verdicts answered from the memo.
    pub validate_hits: u64,
    /// Candidate-validation verdicts actually computed.
    pub validate_misses: u64,
    /// Shape-graph embedding verdicts answered from the memo.
    pub embed_hits: u64,
    /// Shape-graph embedding verdicts actually computed.
    pub embed_misses: u64,
    /// Enumerated unfolding pools answered from the cache.
    pub pool_hits: u64,
    /// Unfolding pools built.
    pub pools_built: u64,
    /// Duplicate concurrent queries answered by waiting on another thread's
    /// in-flight computation of the same ordered pair instead of re-running
    /// the search (single-flight coalescing wins).
    pub coalesced_queries: u64,
    /// Duplicate concurrent pool enumerations that adopted another thread's
    /// in-flight build instead of building (or re-looking-up) the pool.
    pub coalesced_pools: u64,
    /// The configured evictable-cache budget (`None` = unbounded).
    pub cache_budget: Option<u64>,
    /// The configured per-entry admission ceiling (`None` = admit all).
    pub max_entry_bytes: Option<u64>,
    /// Cache entries refused by the admission policy (computed and used,
    /// but never cached, because they weighed more than `max_entry_bytes`).
    pub admission_rejections: u64,
    /// Accounted bytes resident in the enumerated-pool caches.
    pub pool_bytes: u64,
    /// Accounted bytes resident in the candidate-validation memos.
    pub validate_bytes: u64,
    /// Accounted bytes resident in the embeds/sufficient pair memos.
    pub pair_bytes: u64,
    /// Accounted bytes resident in the per-schema unfolding arenas.
    pub unfolder_bytes: u64,
    /// Accounted bytes resident in the session-wide shared candidate-bag
    /// cache.
    pub bag_bytes: u64,
    /// Accounted bytes in the pinned (counted, never evicted) caches:
    /// registered schemas, characterizing graphs, bag enumerations, and the
    /// session atom table.
    pub pinned_bytes: u64,
    /// Accounted bytes of the session-wide atom table — a subset of
    /// `pinned_bytes`, broken out because it is the one pinned cache that
    /// grows with the *union* of registered alphabets rather than with any
    /// single schema.
    pub atom_bytes: u64,
    /// Cache entries dropped by eviction sweeps.
    pub evictions: u64,
    /// Accounted bytes freed by eviction sweeps.
    pub evicted_bytes: u64,
    /// Eviction sweeps run (including sweeps that found nothing old).
    pub sweeps: u64,
    /// Queries that returned [`crate::UnknownReason::DeadlineExceeded`]
    /// because their cancellation token fired before the search reached a
    /// sound answer.
    pub deadline_exceeded: u64,
    /// Search branches (candidate loops, pool builds, type-set fixpoints)
    /// abandoned at a cancellation checkpoint.
    pub cancelled_branches: u64,
    /// RBE₀ pairs the type-set fixpoint ([`crate::fixpoint`]) decided after
    /// embedding and the `DetShEx₀⁻` shortcut left them open.
    pub fixpoint_decided: u64,
    /// RBE₀ pairs whose fixpoint ran over its evaluation budget and fell
    /// through to the bounded counter-example search.
    pub fixpoint_over_budget: u64,
    /// Checks answered from the memo of fixpoint outcomes.
    pub fixpoint_memo_hits: u64,
    /// Presburger solver invocations (the RBE₀ fast paths never enter the
    /// solver and are not counted).
    pub solver_calls: u64,
    /// Cumulative solver search nodes across all invocations.
    pub solver_search_nodes: u64,
    /// Cumulative solver branches pruned by constraint propagation.
    pub solver_pruned_branches: u64,
}

impl EngineStats {
    /// Total accounted bytes in the evictable caches — the quantity the
    /// budget bounds.
    pub fn evictable_bytes(&self) -> u64 {
        self.pool_bytes
            + self.validate_bytes
            + self.pair_bytes
            + self.unfolder_bytes
            + self.bag_bytes
    }

    /// Total accounted bytes resident, evictable and pinned.
    pub fn resident_bytes(&self) -> u64 {
        self.evictable_bytes() + self.pinned_bytes
    }
}

/// `hits / (hits + misses)` as a percentage, `0` when nothing was asked.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        100.0 * hits as f64 / total as f64
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schemas; validate memo {} hits / {} misses ({:.1}% hit); \
             embed memo {} hits / {} misses ({:.1}% hit); \
             pools {} hits / {} built ({:.1}% hit)",
            self.schemas,
            self.validate_hits,
            self.validate_misses,
            hit_rate(self.validate_hits, self.validate_misses),
            self.embed_hits,
            self.embed_misses,
            hit_rate(self.embed_hits, self.embed_misses),
            self.pool_hits,
            self.pools_built,
            hit_rate(self.pool_hits, self.pools_built),
        )?;
        write!(
            f,
            "; coalesced {} queries + {} pools",
            self.coalesced_queries, self.coalesced_pools,
        )?;
        write!(
            f,
            "; fixpoint {} decided / {} over budget ({} memo hits)",
            self.fixpoint_decided, self.fixpoint_over_budget, self.fixpoint_memo_hits,
        )?;
        write!(
            f,
            "; resident {} B evictable (pools {}, validate {}, pairs {}, unfolder {}, bags {}) \
             + {} B pinned ({} B atoms); budget {}; {} evictions freed {} B in {} sweeps",
            self.evictable_bytes(),
            self.pool_bytes,
            self.validate_bytes,
            self.pair_bytes,
            self.unfolder_bytes,
            self.bag_bytes,
            self.pinned_bytes,
            self.atom_bytes,
            match self.cache_budget {
                Some(limit) => format!("{limit} B"),
                None => "unbounded".to_string(),
            },
            self.evictions,
            self.evicted_bytes,
            self.sweeps,
        )?;
        if self.max_entry_bytes.is_some() || self.admission_rejections > 0 {
            write!(
                f,
                "; admission ceiling {}; {} entries refused",
                match self.max_entry_bytes {
                    Some(ceiling) => format!("{ceiling} B"),
                    None => "none".to_string(),
                },
                self.admission_rejections,
            )?;
        }
        if self.deadline_exceeded > 0 || self.cancelled_branches > 0 {
            write!(
                f,
                "; {} deadlines exceeded ({} branches cancelled)",
                self.deadline_exceeded, self.cancelled_branches,
            )?;
        }
        write!(
            f,
            "; presburger {} calls ({} nodes searched, {} branches pruned)",
            self.solver_calls, self.solver_search_nodes, self.solver_pruned_branches,
        )
    }
}

/// The engine's live counters: atomics, so `&self` queries from any number
/// of threads can tick them. [`ContainmentEngine::stats`] snapshots them
/// into the public [`EngineStats`]. Relaxed ordering is enough — counters
/// carry no synchronisation duty.
#[derive(Debug, Default)]
struct EngineCounters {
    validate_hits: AtomicU64,
    validate_misses: AtomicU64,
    embed_hits: AtomicU64,
    embed_misses: AtomicU64,
    pool_hits: AtomicU64,
    pools_built: AtomicU64,
    coalesced_queries: AtomicU64,
    coalesced_pools: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled_branches: AtomicU64,
    fixpoint_decided: AtomicU64,
    fixpoint_over_budget: AtomicU64,
    fixpoint_memo_hits: AtomicU64,
}

impl EngineCounters {
    fn tick(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, schemas: usize, budget: &CacheBudget) -> EngineStats {
        EngineStats {
            schemas,
            validate_hits: self.validate_hits.load(Ordering::Relaxed),
            validate_misses: self.validate_misses.load(Ordering::Relaxed),
            embed_hits: self.embed_hits.load(Ordering::Relaxed),
            embed_misses: self.embed_misses.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pools_built: self.pools_built.load(Ordering::Relaxed),
            coalesced_queries: self.coalesced_queries.load(Ordering::Relaxed),
            coalesced_pools: self.coalesced_pools.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled_branches: self.cancelled_branches.load(Ordering::Relaxed),
            fixpoint_decided: self.fixpoint_decided.load(Ordering::Relaxed),
            fixpoint_over_budget: self.fixpoint_over_budget.load(Ordering::Relaxed),
            fixpoint_memo_hits: self.fixpoint_memo_hits.load(Ordering::Relaxed),
            cache_budget: budget.limit(),
            max_entry_bytes: budget.max_entry_bytes(),
            admission_rejections: budget.admission_rejections(),
            pool_bytes: budget.resident(CacheKind::Pools),
            validate_bytes: budget.resident(CacheKind::Validate),
            pair_bytes: budget.resident(CacheKind::Pairs),
            unfolder_bytes: budget.resident(CacheKind::Unfolder),
            bag_bytes: budget.resident(CacheKind::Bags),
            pinned_bytes: budget.resident(CacheKind::Pinned),
            atom_bytes: 0,
            evictions: budget.evictions(),
            evicted_bytes: budget.evicted_bytes(),
            sweeps: budget.sweeps(),
            solver_calls: 0,
            solver_search_nodes: 0,
            solver_pruned_branches: 0,
        }
    }
}

/// An immutable, shareable pool of candidate member graphs. The graphs
/// themselves are `Arc`ed: the unfolder builds one graph per distinct
/// candidate tree, and every pool (and every returned witness) shares those
/// allocations instead of materialising its own copies.
type Pool = Arc<Vec<Arc<Graph>>>;

/// One cached enumerated pool: the pool itself plus its accounting — the
/// bytes charged to the ledger at insertion (credited back verbatim on
/// eviction) and the LRU stamp refreshed on every hit.
#[derive(Debug)]
struct PoolSlot {
    pool: Pool,
    bytes: u64,
    stamp: AtomicU64,
}

/// The accounted weight of a pool: spine plus every member graph. Graphs
/// are `Arc`-shared with the unfolder and overlapping pools, so summing
/// full graph weights over-counts shared allocations — deliberately: the
/// budget bounds a conservative upper estimate, never an under-estimate.
fn pool_weight(pool: &[Arc<Graph>]) -> u64 {
    let spine = std::mem::size_of::<Vec<Arc<Graph>>>() + std::mem::size_of_val(pool);
    spine as u64 + pool.iter().map(|g| g.as_ref().weight_bytes()).sum::<u64>()
}

/// Per-schema memo of `validates(candidate, schema)` verdicts, keyed by a
/// 64-bit structural hash of the candidate with full structural comparison
/// on every bucket hit — lookups allocate nothing (the historical
/// implementation rendered a `String` key per lookup), and a hash collision
/// can only cost a comparison, never a wrong verdict. Each record carries
/// its charged bytes and LRU stamp for the eviction sweep.
#[derive(Debug, Default)]
struct ValidateMemo {
    buckets: HashMap<u64, Vec<ValidateRecord>>,
}

/// One memoised validation verdict plus its accounting.
#[derive(Debug)]
struct ValidateRecord {
    key: CandidateKey,
    verdict: bool,
    bytes: u64,
    stamp: AtomicU64,
}

/// The accounted weight of one validation record: the record itself, the
/// key's edge vector, and an allowance for the hash-bucket entry.
fn validate_record_weight(key: &CandidateKey) -> u64 {
    (std::mem::size_of::<ValidateRecord>()
        + key.edges.capacity() * std::mem::size_of::<(u32, Label, u32)>()
        + 16) as u64
}

/// The exact structural identity of a memoised candidate: node count plus
/// every edge as `(source, label, target)`. Node names are irrelevant to
/// validation, so structurally identical candidates share one slot.
#[derive(Debug)]
struct CandidateKey {
    nodes: u32,
    edges: Vec<(u32, Label, u32)>,
}

impl CandidateKey {
    fn of(graph: &Graph) -> CandidateKey {
        CandidateKey {
            nodes: graph.node_count() as u32,
            edges: graph
                .edges()
                .map(|e| (graph.source(e).0, graph.label(e).clone(), graph.target(e).0))
                .collect(),
        }
    }

    fn matches(&self, graph: &Graph) -> bool {
        self.nodes as usize == graph.node_count()
            && self.edges.len() == graph.edge_count()
            && graph.edges().zip(&self.edges).all(|(e, (s, label, t))| {
                graph.source(e).0 == *s && graph.target(e).0 == *t && graph.label(e) == label
            })
    }
}

/// The structural hash behind [`ValidateMemo`] lookups.
fn candidate_hash(graph: &Graph) -> u64 {
    let mut hasher = DefaultHasher::new();
    graph.node_count().hash(&mut hasher);
    for e in graph.edges() {
        graph.source(e).0.hash(&mut hasher);
        graph.label(e).hash(&mut hasher);
        graph.target(e).0.hash(&mut hasher);
    }
    hasher.finish()
}

impl ValidateMemo {
    /// A memoised verdict, refreshing the record's LRU stamp on a hit.
    fn get(&self, hash: u64, graph: &Graph, budget: &CacheBudget) -> Option<bool> {
        let record = self
            .buckets
            .get(&hash)?
            .iter()
            .find(|record| record.key.matches(graph))?;
        record.stamp.store(budget.touch(), Ordering::Relaxed);
        Some(record.verdict)
    }

    /// Insert a verdict, charging the ledger only when the insertion wins
    /// (a racing thread may have stored the same verdict first).
    fn insert(&mut self, hash: u64, graph: &Graph, verdict: bool, budget: &CacheBudget) {
        let bucket = self.buckets.entry(hash).or_default();
        if bucket.iter().any(|record| record.key.matches(graph)) {
            return; // a racing thread computed the same verdict first
        }
        let key = CandidateKey::of(graph);
        let bytes = validate_record_weight(&key);
        if !budget.admits(bytes) {
            return; // oversized record: use the verdict, skip the memo
        }
        bucket.push(ValidateRecord {
            key,
            verdict,
            bytes,
            stamp: AtomicU64::new(budget.touch()),
        });
        budget.charge(CacheKind::Validate, bytes);
    }
}

/// The cached exhaustive bag enumeration of one schema (`None` = some
/// definition's language is infinite or too large, so the sufficient check
/// is never attempted for it).
type CachedBags = Option<Arc<Vec<Vec<Bag<Atom>>>>>;

/// The accounted weight of a cached bag enumeration: spines plus a
/// per-distinct-atom allowance for each bag's count map.
fn bags_weight(bags: &[Vec<Bag<Atom>>]) -> u64 {
    let per_type: usize = bags
        .iter()
        .map(|per_type| {
            std::mem::size_of::<Vec<Bag<Atom>>>()
                + per_type
                    .iter()
                    .map(|bag| {
                        std::mem::size_of::<Bag<Atom>>()
                            + bag.distinct() * (std::mem::size_of::<(Atom, u64)>() + 32)
                    })
                    .sum::<usize>()
        })
        .sum();
    (std::mem::size_of::<Vec<Vec<Bag<Atom>>>>() + per_type) as u64
}

/// A registered schema plus everything derived from it — the derivations
/// computed at registration are plain fields (immutable thereafter), the
/// on-demand ones live behind their own synchronisation so partner queries
/// on different threads fill them without an exclusive engine borrow.
#[derive(Debug)]
struct SchemaEntry {
    schema: Arc<Schema>,
    class: SchemaClass,
    /// Present iff the schema is RBE₀ (Proposition 3.2).
    shape_graph: Option<Graph>,
    /// The characterizing graph of Lemma 4.2, built on first demand
    /// (`DetShEx₀⁻` schemas only) and shared by every answer it refutes.
    characterizing: OnceLock<Arc<Graph>>,
    /// `validates(candidate, schema)` verdicts (read-mostly; see
    /// [`validate_memoised`]).
    validate_memo: RwLock<ValidateMemo>,
    /// The schema's arena-backed unfolding session: hash-consed trees,
    /// memoised `(type, depth)` enumerations, one shared graph per distinct
    /// candidate. Pool builders hold this lock for the duration of one pool
    /// construction; every other engine path stays off it.
    unfolder: Mutex<Unfolder>,
    /// The unfolder's accounted bytes as last charged to the ledger —
    /// builders re-measure after every use and charge/credit the delta
    /// (while holding the unfolder lock, so updates serialise).
    unfolder_bytes: AtomicU64,
    /// `(root type, depth) → pool` of systematic unfoldings, stamped and
    /// weighed for the eviction sweep.
    enumerated: RwLock<BTreeMap<(TypeId, usize), PoolSlot>>,
    /// In-flight `(root, depth)` pool builds: concurrent demanders of one
    /// cold pool coalesce onto a single construction instead of queueing on
    /// the unfolder lock to each rebuild (and race-adopt) the same pool.
    pool_flights: SingleFlight<(TypeId, usize), Pool>,
    /// The exhaustive per-type bag enumeration (`None` = infinite).
    bags: OnceLock<CachedBags>,
}

/// The append-only schema registry behind one lock: ids index `schemas`,
/// and `by_fingerprint` interns structurally identical registrations onto
/// one entry (hash buckets, verified by full structural comparison — a
/// collision can never conflate distinct schemas). Guarded writes only
/// append, so a [`SchemaId`] handed out once stays valid for the engine's
/// lifetime.
#[derive(Debug, Default)]
struct Registry {
    schemas: Vec<Arc<SchemaEntry>>,
    by_fingerprint: HashMap<u64, Vec<SchemaId>>,
}

impl Registry {
    /// The interned id of a structurally identical schema, if any.
    fn find(&self, hash: u64, schema: &Schema) -> Option<SchemaId> {
        self.by_fingerprint
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| same_schema_structure(&self.schemas[id.index()].schema, schema))
    }
}

/// Shard count of [`ShardedPairMap`]; a power of two, sized so threads
/// sharing one engine rarely contend on the same shard.
const PAIR_SHARDS: usize = 16;

/// One memoised pair value plus its accounting: the bytes charged at
/// insertion (credited back verbatim on eviction) and the LRU stamp.
#[derive(Debug)]
struct PairSlot<V> {
    value: V,
    bytes: u64,
    stamp: AtomicU64,
}

/// Accounted bytes per pair-memo entry: key + slot + `BTreeMap` node
/// allowance. A flat approximation — pair entries are tiny and uniform; a
/// memoised witness adds its own weight on top.
const PAIR_ENTRY_BYTES: u64 = 64;

/// A `(SchemaId, SchemaId) → V` memo sharded across independently locked
/// maps, so concurrent queries for different pairs proceed without
/// contending on one lock. Entries are charged to [`CacheKind::Pairs`] and
/// evicted by the engine's sweeps.
#[derive(Debug)]
struct ShardedPairMap<V> {
    shards: [PairShard<V>; PAIR_SHARDS],
}

/// One independently locked shard of a [`ShardedPairMap`].
type PairShard<V> = RwLock<BTreeMap<(u32, u32), PairSlot<V>>>;

impl<V: Clone> ShardedPairMap<V> {
    fn new() -> ShardedPairMap<V> {
        ShardedPairMap {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }

    fn shard(&self, key: (u32, u32)) -> &PairShard<V> {
        let spread = key.0.wrapping_mul(31).wrapping_add(key.1) as usize;
        &self.shards[spread % PAIR_SHARDS]
    }

    fn get(&self, key: (u32, u32), budget: &CacheBudget) -> Option<V> {
        let shard = read_or_recover(self.shard(key));
        let slot = shard.get(&key)?;
        slot.stamp.store(budget.touch(), Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Memoise `value`, charging [`PAIR_ENTRY_BYTES`] plus `extra` bytes
    /// when the insertion wins (a racing thread may have stored the same
    /// value first).
    fn insert(&self, key: (u32, u32), value: V, extra: u64, budget: &CacheBudget) {
        use std::collections::btree_map::Entry;
        let bytes = PAIR_ENTRY_BYTES + extra;
        if !budget.admits(bytes) {
            return; // a small admission ceiling refuses even these
        }
        let mut shard = write_or_recover(self.shard(key));
        if let Entry::Vacant(slot) = shard.entry(key) {
            slot.insert(PairSlot {
                value,
                bytes,
                stamp: AtomicU64::new(budget.touch()),
            });
            budget.charge(CacheKind::Pairs, bytes);
        }
    }

    /// Every entry's `(stamp, bytes)`, for the sweep's cutoff.
    fn collect_stamps(&self, stamped: &mut Vec<(u64, u64)>) {
        for shard in &self.shards {
            for slot in read_or_recover(shard).values() {
                stamped.push((slot.stamp.load(Ordering::Relaxed), slot.bytes));
            }
        }
    }

    /// Drop every entry stamped at or before `cutoff` (every entry for
    /// `u64::MAX`), crediting the ledger. Returns `(entries, bytes)` freed.
    fn evict(&self, cutoff: u64, budget: &CacheBudget) -> (u64, u64) {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            write_or_recover(shard).retain(|_, slot| {
                if slot.stamp.load(Ordering::Relaxed) <= cutoff {
                    entries += 1;
                    bytes += slot.bytes;
                    budget.credit(CacheKind::Pairs, slot.bytes);
                    false
                } else {
                    true
                }
            });
        }
        (entries, bytes)
    }
}

/// The lifecycle of one in-flight computation: the leader flips
/// `Running → Done` on success; the panic guard flips `Running → Abandoned`
/// if the leader unwinds, so followers retry instead of waiting forever.
#[derive(Debug)]
enum FlightState<V> {
    Running,
    Done(V),
    Abandoned,
}

/// One in-flight computation that followers can block on.
#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Flight<V> {
        Flight {
            state: Mutex::new(FlightState::Running),
            ready: Condvar::new(),
        }
    }

    /// Publish the terminal state and wake every follower.
    fn publish(&self, state: FlightState<V>) {
        *lock_or_recover(&self.state) = state;
        self.ready.notify_all();
    }
}

/// A sharded single-flight table: [`SingleFlight::run`] executes `compute`
/// at most once per key among *concurrent* callers — the first caller (the
/// leader) computes; everyone else arriving while the flight is up blocks
/// and shares the leader's value. The entry is removed at publish time, so
/// the table never grows into a verdict memo: a caller arriving after the
/// leader landed starts a fresh flight (and typically recomputes warm, off
/// the underlying memos).
///
/// Correctness leans on determinism: every computation routed through one
/// key must produce the same value, so handing a follower the leader's copy
/// is observationally invisible.
#[derive(Debug)]
struct SingleFlight<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<Flight<V>>>>>,
}

impl<K: Eq + Hash + Copy, V: Clone> SingleFlight<K, V> {
    fn new(shards: usize) -> SingleFlight<K, V> {
        SingleFlight {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Arc<Flight<V>>>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % self.shards.len()]
    }

    /// Run `compute` for `key`, coalescing with any concurrent caller of the
    /// same key: the leader computes, followers wait and receive a clone of
    /// the leader's value (ticking `coalesced` once per follower). `compute`
    /// runs outside every flight lock and must not re-enter this table (a
    /// nested `run` on the same table could deadlock on its own flight).
    fn run(&self, key: K, compute: impl FnOnce() -> V, coalesced: &AtomicU64) -> V {
        use std::collections::hash_map::Entry;
        let flight = {
            let mut shard = lock_or_recover(self.shard(&key));
            match shard.entry(key) {
                Entry::Occupied(slot) => Some(Arc::clone(slot.get())),
                Entry::Vacant(slot) => {
                    slot.insert(Arc::new(Flight::new()));
                    None
                }
            }
        };
        match flight {
            Some(flight) => {
                // Follower: block until the leader publishes.
                let mut state = lock_or_recover(&flight.state);
                loop {
                    match &*state {
                        FlightState::Running => {
                            state = flight
                                .ready
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                        FlightState::Done(value) => {
                            EngineCounters::tick(coalesced);
                            return value.clone();
                        }
                        // The leader unwound without a value; compute
                        // directly rather than racing to lead a new flight.
                        FlightState::Abandoned => break,
                    }
                }
                drop(state);
                compute()
            }
            None => {
                // Leader: compute outside the locks, then publish. The
                // guard abandons the flight if `compute` unwinds.
                let mut guard = FlightGuard {
                    table: self,
                    key,
                    armed: true,
                };
                let value = compute();
                // Retire the entry first so late arrivals start a fresh
                // flight instead of adopting a finished one, then wake the
                // followers already holding the Arc.
                if let Some(flight) = lock_or_recover(self.shard(&key)).remove(&key) {
                    flight.publish(FlightState::Done(value.clone()));
                }
                guard.armed = false;
                value
            }
        }
    }
}

/// Panic guard of a single-flight leader: if `compute` unwinds, retire the
/// table entry and mark the flight `Abandoned` so followers stop waiting.
struct FlightGuard<'a, K: Eq + Hash + Copy, V: Clone> {
    table: &'a SingleFlight<K, V>,
    key: K,
    /// Disarmed by the success path once the flight has been published.
    armed: bool,
}

impl<K: Eq + Hash + Copy, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Recover even a poisoned shard: an abandoned flight must always be
        // retired, or followers would wait on it forever.
        let mut shard = lock_or_recover(self.table.shard(&self.key));
        if let Some(flight) = shard.remove(&self.key) {
            flight.publish(FlightState::Abandoned);
        }
    }
}

/// What the bounded search learned about a pair.
struct SearchOutcome {
    /// A certified counter-example: the pool member itself, shared.
    witness: Option<Arc<Graph>>,
    /// Candidate graphs actually validated against the right-hand schema.
    candidates: usize,
    depth: usize,
    /// How long the query had run when its cancellation token fired, if it
    /// did. A found witness still stands (it was certified before the
    /// expiry was observed); otherwise the answer is
    /// [`crate::UnknownReason::DeadlineExceeded`] rather than a claim about
    /// the exhausted budget.
    cancelled: Option<Duration>,
}

impl SearchOutcome {
    fn into_containment(self) -> Containment {
        match (self.witness, self.cancelled) {
            (Some(witness), _) => Containment::NotContained(witness),
            (None, Some(elapsed)) => Containment::deadline_exceeded(elapsed),
            (None, None) if self.candidates == 0 => Containment::not_supported(),
            (None, None) => Containment::budget_exhausted(self.candidates, self.depth),
        }
    }
}

/// A reusable, shareable containment query session; see the
/// [module docs](self) for what is cached and the concurrency contract.
/// Every query method takes `&self`, so one engine (typically behind an
/// [`Arc`]) serves any number of threads at once.
#[derive(Debug)]
pub struct ContainmentEngine {
    options: EngineOptions,
    labels: SharedLabelTable,
    registry: RwLock<Registry>,
    /// `(h, k) → whether the shape graph of h embeds in the one of k`.
    embeds_memo: ShardedPairMap<bool>,
    /// `(h, k) → whether the general sufficient condition holds`.
    sufficient_memo: ShardedPairMap<bool>,
    /// `(h, k) → the type-set fixpoint's answer for an RBE₀ pair that
    /// embedding and the DetShEx₀⁻ shortcut left open` (`None`: over the
    /// fixpoint's budget, so the bounded search answers). A repeated check
    /// of such a pair costs two memo lookups.
    fixpoint_memo: ShardedPairMap<Option<Containment>>,
    /// In-flight `(h, k)` verdict computations (single-flight coalescing,
    /// see [`ContainmentEngine::check_ids`]): sharded like the pair memos so
    /// concurrent queries for different pairs never contend. Verdicts the
    /// bounded search reaches are not memoised — it re-runs per call over
    /// warm memos — so coalescing duplicate concurrent checks is what keeps
    /// a thundering herd of identical queries from multiplying that warm
    /// re-walk, and what shares the cold work of a pair's first check.
    query_flights: SingleFlight<(u32, u32), Containment>,
    counters: EngineCounters,
    /// The accounted-byte ledger and eviction bookkeeping behind
    /// [`EngineOptionsBuilder::cache_budget`] — `Arc`ed because the session context
    /// (and through it every unfolder's shared bag cache) charges the same
    /// ledger.
    budget: Arc<CacheBudget>,
    /// The atom-table bytes last charged to [`CacheKind::Pinned`]; the
    /// delta-accounting swap point for [`ContainmentEngine::sync_atom_bytes`].
    atom_bytes: AtomicU64,
    /// Cross-schema session state: the shared atom table, the candidate-bag
    /// cache, and the solver telemetry. Cloned into every schema entry's
    /// unfolder (and restored on eviction rebuilds), so interning survives
    /// cache sweeps.
    session: SessionContext,
}

impl Default for ContainmentEngine {
    fn default() -> Self {
        ContainmentEngine::with_options(EngineOptions::default())
    }
}

impl ContainmentEngine {
    /// An engine with the default options.
    pub fn new() -> ContainmentEngine {
        ContainmentEngine::default()
    }

    /// An engine with the given options.
    pub fn with_options(options: EngineOptions) -> ContainmentEngine {
        let budget = Arc::new(CacheBudget::with_admission(
            options.cache_budget,
            options.max_entry_bytes,
        ));
        let session = SessionContext {
            telemetry: Some(Arc::new(SolverTelemetry::new())),
            budget: Some(Arc::clone(&budget)),
            ..SessionContext::default()
        };
        ContainmentEngine {
            options,
            labels: SharedLabelTable::new(),
            registry: RwLock::new(Registry::default()),
            embeds_memo: ShardedPairMap::new(),
            sufficient_memo: ShardedPairMap::new(),
            fixpoint_memo: ShardedPairMap::new(),
            query_flights: SingleFlight::new(PAIR_SHARDS),
            counters: EngineCounters::default(),
            budget,
            atom_bytes: AtomicU64::new(0),
            session,
        }
    }

    /// An engine with the given search budget — the configuration the
    /// one-shot wrappers use.
    pub fn with_search(search: SearchOptions) -> ContainmentEngine {
        ContainmentEngine::with_options(EngineOptions::builder().search(search).build())
    }

    /// A snapshot of the cache-effectiveness counters and the accounted
    /// memory footprint.
    pub fn stats(&self) -> EngineStats {
        let schemas = read_or_recover(&self.registry).schemas.len();
        let mut stats = self.counters.snapshot(schemas, &self.budget);
        stats.atom_bytes = self.session.atoms.approx_heap_bytes() as u64;
        if let Some(telemetry) = &self.session.telemetry {
            let solver = telemetry.snapshot();
            stats.solver_calls = telemetry.calls();
            stats.solver_search_nodes = solver.search_nodes;
            stats.solver_pruned_branches = solver.pruned_branches;
        }
        stats
    }

    /// The cross-schema atom table shared by every registered schema.
    pub fn atom_table(&self) -> &Arc<shapex_shex::AtomTable> {
        &self.session.atoms
    }

    /// The shared predicate-label table (one allocation per distinct label
    /// across every registered schema; reads are lock-free).
    pub fn label_table(&self) -> &SharedLabelTable {
        &self.labels
    }

    /// Number of schemas registered so far.
    pub fn schema_count(&self) -> usize {
        read_or_recover(&self.registry).schemas.len()
    }

    /// Whether `id` is a handle this engine has issued — the range check a
    /// service boundary performs before trusting a client-supplied handle.
    pub fn is_registered(&self, id: SchemaId) -> bool {
        id.index() < self.schema_count()
    }

    /// Register a schema with the session, returning its handle.
    ///
    /// Schemas are interned by a structural fingerprint (type names plus the
    /// full expression trees, so distinct expressions that merely render
    /// alike stay distinct): registering an identical schema again (even a
    /// different instance, even from another thread) returns the same handle
    /// and shares every cache. Registration clones the schema — the caller
    /// keeps ownership — adopts the clone's atom labels into the session's
    /// shared table, and computes the classification and shape graph, once.
    /// The derivation runs outside the registry lock; concurrent racing
    /// registrations of the same schema agree on the winner's entry.
    pub fn register(&self, schema: &Schema) -> SchemaId {
        let fingerprint = schema_hash(schema);
        if let Some(id) = read_or_recover(&self.registry).find(fingerprint, schema) {
            return id;
        }
        // Derive everything outside the write lock; a racing thread may do
        // the same work, but only the first insertion wins the slot.
        let mut owned = schema.clone();
        owned.adopt_labels_shared(&self.labels);
        let class = owned.classify_cached();
        let shape_graph = owned.shape_graph_cached().cloned();
        // Intern the schema's alphabet in the session-wide atom table once,
        // at registration, so every later memo lookup (in any schema entry)
        // finds its ids already present.
        for t in owned.types() {
            for atom in owned.def(t).alphabet() {
                self.session.atoms.intern(&atom);
            }
        }
        self.sync_atom_bytes();
        let entry = Arc::new(SchemaEntry {
            schema: Arc::new(owned),
            class,
            shape_graph,
            characterizing: OnceLock::new(),
            validate_memo: RwLock::new(ValidateMemo::default()),
            unfolder: Mutex::new(Unfolder::with_context(self.session.clone())),
            unfolder_bytes: AtomicU64::new(0),
            enumerated: RwLock::new(BTreeMap::new()),
            pool_flights: SingleFlight::new(1),
            bags: OnceLock::new(),
        });
        // The registered schema (its cached shape graph included — derived
        // above, so `approx_heap_bytes` sees it) plus the entry shell is
        // pinned footprint: counted, never evicted.
        let pinned = std::mem::size_of::<SchemaEntry>() as u64 + entry.schema.weight_bytes();
        let mut registry = write_or_recover(&self.registry);
        if let Some(id) = registry.find(fingerprint, schema) {
            return id; // lost the race; adopt the winner's entry
        }
        let id = SchemaId(registry.schemas.len() as u32);
        registry.schemas.push(entry);
        registry
            .by_fingerprint
            .entry(fingerprint)
            .or_default()
            .push(id);
        self.budget.charge(CacheKind::Pinned, pinned);
        id
    }

    /// The engine's copy of a registered schema (shared, cheap to clone).
    pub fn schema(&self, id: SchemaId) -> Arc<Schema> {
        self.entry(id).schema.clone()
    }

    /// The entry behind a handle; panics on a foreign (out-of-range) id.
    fn entry(&self, id: SchemaId) -> Arc<SchemaEntry> {
        read_or_recover(&self.registry).schemas[id.index()].clone()
    }

    /// The entries behind several handles under one registry lock
    /// acquisition — the matrix path prefetches all rows/columns this way so
    /// its cells touch the registry lock not at all.
    fn entries(&self, ids: &[SchemaId]) -> Vec<Arc<SchemaEntry>> {
        let registry = read_or_recover(&self.registry);
        ids.iter()
            .map(|id| registry.schemas[id.index()].clone())
            .collect()
    }

    /// Decide `L(H) ⊆ L(K)` with the strongest applicable procedure — the
    /// session equivalent of [`crate::general::general_containment`], and
    /// the schema-level shortcut for [`ContainmentEngine::check_ids`]
    /// without a token.
    pub fn check(&self, h: &Schema, k: &Schema) -> Containment {
        let h = self.register(h);
        let k = self.register(k);
        self.check_ids(h, k, None)
    }

    /// Decide `L(H) ⊆ L(K)` for already-registered schemas, optionally
    /// under a [`CancelToken`].
    ///
    /// Without a token, duplicate concurrent queries for the same ordered
    /// pair coalesce onto one computation (single-flight): while one thread
    /// computes the verdict, the others block on it and share it, and
    /// [`EngineStats`] counts them in `coalesced_queries` (and cold pools
    /// built once for several racers in `coalesced_pools`). Verdicts are
    /// deterministic, so coalescing is observationally invisible. With a
    /// token, the query threads
    /// it through every long-running loop it reaches — pool enumeration,
    /// per-candidate validation, the typing fixpoints, the Presburger
    /// solver — and polls it at bounded checkpoint intervals. Once the token
    /// fires (from another thread, or at its deadline) the search abandons
    /// its current branch and returns
    /// [`crate::UnknownReason::DeadlineExceeded`] instead of wedging a worker
    /// for the rest of its budget; a counter-example certified before the
    /// expiry was observed still stands.
    ///
    /// Queries with a token bypass coalescing: a follower must never inherit
    /// another caller's deadline verdict, and a leader's expiry must never
    /// become a follower's answer. Caches only ever record completed
    /// verdicts, so concurrent queries without a token are bit-identical to
    /// an engine that never saw one.
    pub fn check_ids(&self, h: SchemaId, k: SchemaId, cancel: Option<&CancelToken>) -> Containment {
        let entries = self.entries(&[h, k]);
        self.verdict(h, k, &entries[0], &entries[1], cancel)
    }

    /// The one verdict route behind [`ContainmentEngine::check_ids`] and
    /// every matrix cell — and the single-flight seam of every `(h, k)`
    /// query. With a token, the dispatch chain runs directly (and the
    /// deadline counter ticks on expiry). Without one, while a thread runs
    /// the chain for an ordered pair, duplicate concurrent queries for the
    /// same pair block on that computation and share its verdict
    /// ([`EngineStats::coalesced_queries`] counts them). Sound because
    /// verdicts are deterministic functions of the registered pair, and
    /// every route enters the chain at
    /// [`ContainmentEngine::general_entries`], so one flight key serves
    /// them all.
    fn verdict(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &Arc<SchemaEntry>,
        k_entry: &Arc<SchemaEntry>,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        let run = || self.general_entries(h, k, h_entry, k_entry, cancel);
        if cancel.is_some() {
            let verdict = run();
            if matches!(
                verdict.unknown_reason(),
                Some(crate::UnknownReason::DeadlineExceeded { .. })
            ) {
                EngineCounters::tick(&self.counters.deadline_exceeded);
            }
            return verdict;
        }
        self.query_flights
            .run((h.0, k.0), run, &self.counters.coalesced_queries)
    }

    /// Batch pairwise containment: `matrix[i][j]` answers
    /// `L(schemas[i]) ⊆ L(schemas[j])` for every ordered pair, including the
    /// diagonal.
    ///
    /// This is the schema-evolution workload the session layer exists for:
    /// each schema's shape graph, classification, unfolding pools, and
    /// validation verdicts are built once and reused across all `N - 1`
    /// partners, instead of once per pair as `N²` one-shot calls would. The
    /// answers are identical to the `N²` individual
    /// [`ContainmentEngine::check`] calls (and to the one-shot functions).
    pub fn check_matrix(&self, schemas: &[Schema]) -> ContainmentMatrix {
        let ids: Vec<SchemaId> = schemas.iter().map(|s| self.register(s)).collect();
        self.check_matrix_ids(&ids, None)
    }

    /// [`ContainmentEngine::check_matrix`] for already-registered schemas
    /// (the service's batch entry point), optionally under one
    /// [`CancelToken`] for the whole matrix. Every cell takes the
    /// [`ContainmentEngine::check_ids`] route, row by row on the calling
    /// thread; with a token, every cell shares it, so once it fires the
    /// in-flight cell abandons its search at the next checkpoint and every
    /// remaining cell answers [`crate::UnknownReason::DeadlineExceeded`]
    /// immediately — the matrix always comes back fully populated.
    pub fn check_matrix_ids(
        &self,
        ids: &[SchemaId],
        cancel: Option<&CancelToken>,
    ) -> ContainmentMatrix {
        // One registry lock acquisition for the whole matrix; the N² cells
        // work off these prefetched entries.
        let entries = self.entries(ids);
        let cells = (0..ids.len())
            .flat_map(|i| (0..ids.len()).map(move |j| (i, j)))
            .map(|(i, j)| self.verdict(ids[i], ids[j], &entries[i], &entries[j], cancel))
            .collect();
        ContainmentMatrix::new(ids.to_vec(), cells)
    }

    /// The session equivalent of [`crate::det::det_containment`]: polynomial
    /// containment for `DetShEx₀⁻` (Corollary 4.4).
    pub fn det(&self, h: &Schema, k: &Schema) -> Result<Containment, NotDetShex0Minus> {
        let h = self.register(h);
        let k = self.register(k);
        self.det_ids(h, k)
    }

    /// [`ContainmentEngine::det`] for already-registered schemas.
    pub fn det_ids(&self, h: SchemaId, k: SchemaId) -> Result<Containment, NotDetShex0Minus> {
        let entries = self.entries(&[h, k]);
        let (h_entry, k_entry) = (&entries[0], &entries[1]);
        require_det_minus(h_entry)?;
        require_det_minus(k_entry)?;
        if self.embeds_cached(h, k, h_entry, k_entry) {
            Ok(Containment::Contained)
        } else {
            let witness = self.characterizing(h_entry)?;
            debug_assert!(
                embeds(
                    &witness,
                    h_entry
                        .shape_graph
                        .as_ref()
                        .expect("DetShEx0- schemas are RBE0")
                )
                .is_some(),
                "characterizing graph must belong to L(H)"
            );
            Ok(Containment::NotContained(witness))
        }
    }

    /// Search for a certified counter-example to `L(H) ⊆ L(K)` — the
    /// session equivalent of [`crate::unfold::search_counter_example`], with
    /// pooled unfoldings and memoised validation.
    pub fn counter_example(&self, h: &Schema, k: &Schema) -> Option<Graph> {
        let h = self.register(h);
        let k = self.register(k);
        let entries = self.entries(&[h, k]);
        self.search(&entries[0], &entries[1], None)
            .witness
            .map(|witness| Graph::clone(&witness))
    }

    /// The `ShEx₀` procedure over registered RBE₀ schemas (Section 5
    /// pipeline: embedding, the characterizing-graph shortcut, then the
    /// type-set fixpoint, whose outcome is memoised per pair). Only a pair
    /// over the fixpoint's budget runs the bounded search. The caller
    /// supplies the already-fetched entries — the dispatch chain touches the
    /// registry lock once per query, not once per hop.
    fn shex0_entries(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &Arc<SchemaEntry>,
        k_entry: &Arc<SchemaEntry>,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        if self.embeds_cached(h, k, h_entry, k_entry) {
            return Containment::Contained;
        }
        if h_entry.class == SchemaClass::DetShEx0Minus
            && k_entry.class == SchemaClass::DetShEx0Minus
        {
            let witness = self.characterizing(h_entry).expect("checked DetShEx0-");
            return Containment::NotContained(witness);
        }
        let key = (h.0, k.0);
        let answer = match self.fixpoint_memo.get(key, &self.budget) {
            Some(memoised) => {
                EngineCounters::tick(&self.counters.fixpoint_memo_hits);
                memoised
            }
            None => {
                let answer = match fixpoint::decide(&h_entry.schema, &k_entry.schema, cancel) {
                    FixpointOutcome::Contained => Some(Containment::Contained),
                    FixpointOutcome::NotContained(witness) => {
                        Some(Containment::NotContained(witness))
                    }
                    FixpointOutcome::OverBudget => None,
                    FixpointOutcome::Cancelled => {
                        EngineCounters::tick(&self.counters.cancelled_branches);
                        let token = cancel.expect("only a token cancels the fixpoint");
                        return Containment::deadline_exceeded(token.elapsed());
                    }
                };
                let witness_bytes = match &answer {
                    Some(Containment::NotContained(witness)) => witness.weight_bytes(),
                    _ => 0,
                };
                self.fixpoint_memo
                    .insert(key, answer.clone(), witness_bytes, &self.budget);
                EngineCounters::tick(match answer {
                    Some(_) => &self.counters.fixpoint_decided,
                    None => &self.counters.fixpoint_over_budget,
                });
                self.maybe_evict();
                answer
            }
        };
        match answer {
            Some(answer) => answer,
            None => self.search(h_entry, k_entry, cancel).into_containment(),
        }
    }

    /// The general procedure over registered schemas (Section 6 pipeline:
    /// delegation to ShEx₀, type-simulation sufficient check, bounded
    /// search), over caller-fetched entries like
    /// [`ContainmentEngine::shex0_entries`].
    fn general_entries(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &Arc<SchemaEntry>,
        k_entry: &Arc<SchemaEntry>,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        if cancel.is_some_and(|t| t.fired()) {
            // An already-expired deadline skips even the cheap pipeline
            // stages: the caller asked for an answer by a time that has
            // passed.
            return Containment::deadline_exceeded(cancel.expect("checked above").elapsed());
        }
        let both_rbe0 = h_entry.class != SchemaClass::ShEx && k_entry.class != SchemaClass::ShEx;
        if both_rbe0 {
            return self.shex0_entries(h, k, h_entry, k_entry, cancel);
        }
        if self.sufficient_cached(h, k, h_entry, k_entry) {
            return Containment::Contained;
        }
        self.search(h_entry, k_entry, cancel).into_containment()
    }

    /// Whether the shape graph of `h` embeds in the shape graph of `k`
    /// (memoised). Both schemas must be RBE₀.
    fn embeds_cached(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &SchemaEntry,
        k_entry: &SchemaEntry,
    ) -> bool {
        if let Some(v) = self.embeds_memo.get((h.0, k.0), &self.budget) {
            EngineCounters::tick(&self.counters.embed_hits);
            return v;
        }
        EngineCounters::tick(&self.counters.embed_misses);
        let hg = h_entry
            .shape_graph
            .as_ref()
            .expect("RBE0 schema has a shape graph");
        let kg = k_entry
            .shape_graph
            .as_ref()
            .expect("RBE0 schema has a shape graph");
        let v = embeds(hg, kg).is_some();
        self.embeds_memo.insert((h.0, k.0), v, 0, &self.budget);
        self.maybe_evict();
        v
    }

    /// The characterizing graph of a registered `DetShEx₀⁻` schema, built
    /// once (`OnceLock`: concurrent demanders block on one construction).
    fn characterizing(&self, entry: &SchemaEntry) -> Result<Arc<Graph>, NotDetShex0Minus> {
        require_det_minus(entry)?;
        let mut built_here = false;
        let graph = entry.characterizing.get_or_init(|| {
            built_here = true;
            Arc::new(characterizing_graph(&entry.schema).expect("class-checked DetShEx0- schema"))
        });
        if built_here {
            self.budget.charge(CacheKind::Pinned, graph.weight_bytes());
        }
        Ok(graph.clone())
    }

    /// Whether the general sufficient condition holds for `(h, k)`
    /// (memoised), with the exhaustive bag enumeration of `h` cached across
    /// partners.
    fn sufficient_cached(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &SchemaEntry,
        k_entry: &SchemaEntry,
    ) -> bool {
        if let Some(v) = self.sufficient_memo.get((h.0, k.0), &self.budget) {
            return v;
        }
        let v = match self.exhaustive_bags_cached(h_entry) {
            None => false,
            Some(bags) => type_simulation_with_bags(
                &h_entry.schema,
                &bags,
                &k_entry.schema,
                self.session.telemetry.as_deref(),
            ),
        };
        self.sufficient_memo.insert((h.0, k.0), v, 0, &self.budget);
        self.maybe_evict();
        v
    }

    fn exhaustive_bags_cached(&self, entry: &SchemaEntry) -> CachedBags {
        let mut built_here = false;
        let bags = entry
            .bags
            .get_or_init(|| {
                built_here = true;
                exhaustive_bags(&entry.schema).map(Arc::new)
            })
            .clone();
        if built_here {
            if let Some(bags) = &bags {
                self.budget.charge(CacheKind::Pinned, bags_weight(bags));
            }
        }
        bags
    }

    /// The bounded counter-example search over registered schemas: the
    /// enumerated pools of every root, depth by depth, under the shared
    /// `max_candidates` budget.
    ///
    /// Candidate order — and therefore the returned witness — is exactly
    /// that of [`crate::baseline::search_counter_example_baseline`].
    fn search(
        &self,
        h: &Arc<SchemaEntry>,
        k: &Arc<SchemaEntry>,
        cancel: Option<&CancelToken>,
    ) -> SearchOutcome {
        let opts = &self.options.search;
        let mut examined = 0usize;
        let mut checked = 0usize;
        let mut scratch = ValidateScratch::new();
        let outcome = 'search: {
            for root in h.schema.types() {
                for depth in 1..=opts.max_depth {
                    let Some(pool) = self.enumerated_pool(h, root, depth, opts, cancel) else {
                        // The pool build itself observed the expired token.
                        break 'search self.expired(checked, cancel);
                    };
                    // The baseline increments `examined` per candidate and
                    // abandons the pool once the count exceeds the budget,
                    // so at most this many candidates of the pool get
                    // validated:
                    for graph in pool.iter() {
                        // The per-candidate cancellation checkpoint: one
                        // poll (and one armed fault site) per candidate
                        // bounds the interval between an expiry and its
                        // observation by one validation.
                        if let Some(expired) = self.checkpoint(checked, cancel) {
                            break 'search expired;
                        }
                        examined += 1;
                        if examined > opts.max_candidates {
                            break;
                        }
                        checked += 1;
                        if !self.validate_one(k, graph, &mut scratch) {
                            break 'search self.refuted(graph, checked);
                        }
                    }
                }
            }
            self.open(checked)
        };
        // Whatever validation memos the search just grew, bring the
        // evictable total back under budget before the query returns.
        self.maybe_evict();
        outcome
    }

    /// The per-candidate checkpoint of the search: one armed fault site and
    /// one poll of the token. `Some` once the token has fired.
    fn checkpoint(&self, checked: usize, cancel: Option<&CancelToken>) -> Option<SearchOutcome> {
        faults::trigger(faults::site::SOLVER_BRANCH);
        if cancel.is_some_and(|token| token.fired()) {
            EngineCounters::tick(&self.counters.cancelled_branches);
            return Some(self.expired(checked, cancel));
        }
        None
    }

    /// The search stopped at an expired token (which must be given).
    fn expired(&self, checked: usize, cancel: Option<&CancelToken>) -> SearchOutcome {
        let token = cancel.expect("only a token cancels a search");
        SearchOutcome {
            witness: None,
            candidates: checked,
            depth: self.options.search.max_depth,
            cancelled: Some(token.elapsed()),
        }
    }

    /// The search found `witness`, its `checked`-th candidate.
    fn refuted(&self, witness: &Arc<Graph>, checked: usize) -> SearchOutcome {
        SearchOutcome {
            witness: Some(Arc::clone(witness)),
            candidates: checked,
            depth: self.options.search.max_depth,
            cancelled: None,
        }
    }

    /// The search ran out of candidates after validating `checked`.
    fn open(&self, checked: usize) -> SearchOutcome {
        SearchOutcome {
            witness: None,
            candidates: checked,
            depth: self.options.search.max_depth,
            cancelled: None,
        }
    }

    /// The pool of valid members of `h` unfolded from `root` up to `depth` —
    /// the entry's arena-backed [`Unfolder`] with the fallback
    /// member-validation step routed through the memo, cached per
    /// `(root, depth)` in the entry. The unfolder's `(type, depth)` tree
    /// memos make the depth-cumulative pool family share every subtree and
    /// every candidate graph; certified members (in practice: all of them)
    /// skip validation entirely. Concurrent builders of the same key
    /// serialise on the unfolder lock; the first insertion wins and everyone
    /// shares that pool.
    fn enumerated_pool(
        &self,
        h: &Arc<SchemaEntry>,
        root: TypeId,
        depth: usize,
        opts: &SearchOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Pool> {
        if let Some(slot) = read_or_recover(&h.enumerated).get(&(root, depth)) {
            EngineCounters::tick(&self.counters.pool_hits);
            slot.stamp.store(self.budget.touch(), Ordering::Relaxed);
            return Some(slot.pool.clone());
        }
        if cancel.is_some() {
            // Cancellable builders skip the pool flight: a cancelled leader
            // has no pool to hand its followers, and a follower must not
            // block on a leader whose deadline differs from its own.
            return self.build_enumerated_pool(h, root, depth, opts, cancel);
        }
        // Cold pool: coalesce concurrent demanders onto one construction.
        // Without the flight they would all queue on the unfolder lock and
        // each rebuild the pool only to race-adopt the first insertion.
        Some(h.pool_flights.run(
            (root, depth),
            || {
                // A flight that landed between our cache miss and our
                // leadership may have filled the slot already.
                if let Some(slot) = read_or_recover(&h.enumerated).get(&(root, depth)) {
                    EngineCounters::tick(&self.counters.pool_hits);
                    slot.stamp.store(self.budget.touch(), Ordering::Relaxed);
                    return slot.pool.clone();
                }
                self.build_enumerated_pool(h, root, depth, opts, None)
                    .expect("an uncancelled pool build cannot be cancelled")
            },
            &self.counters.coalesced_pools,
        ))
    }

    /// Actually build (and cache, admission permitting) one enumerated
    /// pool — the cold path behind [`ContainmentEngine::enumerated_pool`].
    /// `None` = the cancellation token fired mid-enumeration; the partial
    /// pool is discarded uncached (completed subtree memos inside the arena
    /// stay — they are identical to an uncancelled prefix's).
    fn build_enumerated_pool(
        &self,
        h: &Arc<SchemaEntry>,
        root: TypeId,
        depth: usize,
        opts: &SearchOptions,
        cancel: Option<&CancelToken>,
    ) -> Option<Pool> {
        EngineCounters::tick(&self.counters.pools_built);
        let scoped = SearchOptions {
            max_depth: depth,
            ..opts.clone()
        };
        let graphs = {
            let mut scratch = ValidateScratch::new();
            let mut unfolder = lock_or_recover(&h.unfolder);
            let graphs = unfolder.members_with(
                &h.schema,
                root,
                &scoped,
                &mut |g| validate_memoised(h, &self.counters, &self.budget, g, &mut scratch),
                cancel,
            );
            self.sync_unfolder_bytes(h, &unfolder);
            graphs
        };
        let Some(graphs) = graphs else {
            EngineCounters::tick(&self.counters.cancelled_branches);
            return None;
        };
        let pool: Pool = Arc::new(graphs);
        let bytes = pool_weight(&pool);
        let shared = {
            use std::collections::btree_map::Entry;
            let mut pools = write_or_recover(&h.enumerated);
            match pools.entry((root, depth)) {
                // A racing builder won the slot; adopt its pool, charge
                // nothing (the winner charged).
                Entry::Occupied(slot) => slot.get().pool.clone(),
                // Oversized pools are used but not cached (admission
                // policy): refusing up front beats letting one giant pool
                // evict the whole working set.
                Entry::Vacant(_) if !self.budget.admits(bytes) => pool,
                Entry::Vacant(slot) => {
                    slot.insert(PoolSlot {
                        pool: pool.clone(),
                        bytes,
                        stamp: AtomicU64::new(self.budget.touch()),
                    });
                    self.budget.charge(CacheKind::Pools, bytes);
                    pool
                }
            }
        };
        self.maybe_evict();
        Some(shared)
    }

    /// One memoised `validates(graph, k)` verdict.
    fn validate_one(&self, k: &SchemaEntry, graph: &Graph, scratch: &mut ValidateScratch) -> bool {
        validate_memoised(k, &self.counters, &self.budget, graph, scratch)
    }

    /// Re-measure an entry's unfolder and charge/credit the ledger delta.
    /// Callers hold the entry's unfolder lock, so the swap serialises with
    /// other re-measurements and with the sweeper's reset.
    fn sync_unfolder_bytes(&self, entry: &SchemaEntry, unfolder: &Unfolder) {
        let now = unfolder.approx_heap_bytes() as u64;
        let before = entry.unfolder_bytes.swap(now, Ordering::Relaxed);
        if now >= before {
            self.budget.charge(CacheKind::Unfolder, now - before);
        } else {
            self.budget.credit(CacheKind::Unfolder, before - now);
        }
    }

    /// Re-measure the session atom table and charge the pinned-ledger delta.
    /// The table only grows, so the delta is always a charge; the swap makes
    /// racing registrations each charge exactly their own growth.
    fn sync_atom_bytes(&self) {
        let now = self.session.atoms.approx_heap_bytes() as u64;
        let before = self.atom_bytes.swap(now, Ordering::Relaxed);
        if now > before {
            self.budget.charge(CacheKind::Pinned, now - before);
        }
    }

    /// Enforce the cache budget: when the evictable total exceeds the
    /// limit, run epoch-LRU sweeps until it is back under (targeting half
    /// the limit, so queries do not re-trigger a sweep immediately), with a
    /// clear-everything fallback so the invariant `evictable ≤ budget`
    /// holds at every query exit regardless of weight-approximation drift.
    ///
    /// Serialised on the budget's sweeper mutex: one thread sweeps while
    /// the others queue behind it and re-check (their overshoot is
    /// typically gone by the time they hold the lock).
    ///
    /// Never called while holding an unfolder lock — the sweep takes
    /// unfolder locks to reset drained sessions, and the mutex is not
    /// reentrant.
    fn maybe_evict(&self) {
        if !self.budget.over_budget() {
            return;
        }
        let Some(limit) = self.budget.limit() else {
            return;
        };
        // Armed fault site for chaos tests: fires before the sweeper lock is
        // taken, so an injected panic never wedges later sweeps.
        faults::trigger(faults::site::PRE_SWEEP);
        let _sweeping = lock_or_recover(self.budget.sweeper());
        for _ in 0..2 {
            if self.budget.evictable() <= limit {
                return;
            }
            self.sweep_once(limit);
        }
        if self.budget.evictable() > limit {
            self.clear_evictable();
        }
    }

    /// One epoch-LRU sweep: collect `(stamp, bytes)` over every evictable
    /// entry, pick the cutoff stamp that frees enough to reach the
    /// low-water mark (half the limit), and drop everything at or below
    /// it. Unfolder sessions whose enumerated pools all left are reset
    /// wholesale — their arenas are memo state that rebuilds
    /// deterministically (same node names, same pools), so the reset is
    /// invisible to verdicts and witnesses.
    ///
    /// Locks are taken one cache at a time, never an unfolder lock while
    /// holding a cache lock, so concurrent queries at worst block briefly
    /// on one cache.
    fn sweep_once(&self, limit: u64) {
        let entries: Vec<Arc<SchemaEntry>> = {
            let registry = read_or_recover(&self.registry);
            registry.schemas.clone()
        };
        let mut stamped: Vec<(u64, u64)> = Vec::new();
        for entry in &entries {
            for slot in read_or_recover(&entry.enumerated).values() {
                stamped.push((slot.stamp.load(Ordering::Relaxed), slot.bytes));
            }
            let memo = read_or_recover(&entry.validate_memo);
            for bucket in memo.buckets.values() {
                for record in bucket {
                    stamped.push((record.stamp.load(Ordering::Relaxed), record.bytes));
                }
            }
        }
        self.embeds_memo.collect_stamps(&mut stamped);
        self.sufficient_memo.collect_stamps(&mut stamped);
        self.fixpoint_memo.collect_stamps(&mut stamped);
        self.session.bags.collect_stamps(&mut stamped);
        stamped.sort_unstable();
        let low_water = limit / 2;
        let mut need = self.budget.evictable().saturating_sub(low_water);
        let mut cutoff = 0u64;
        for &(stamp, bytes) in &stamped {
            if need == 0 {
                break;
            }
            cutoff = stamp;
            need = need.saturating_sub(bytes);
        }
        if cutoff == 0 {
            // Everything stamped is younger than anything worth dropping
            // (or there is nothing stamped — the overshoot is unfolder
            // growth); fall through to the caller's next attempt.
            self.budget.record_sweep(0, 0);
            return;
        }
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for entry in &entries {
            let drained = {
                let mut pools = write_or_recover(&entry.enumerated);
                pools.retain(|_, slot| {
                    if slot.stamp.load(Ordering::Relaxed) <= cutoff {
                        evicted += 1;
                        freed += slot.bytes;
                        self.budget.credit(CacheKind::Pools, slot.bytes);
                        false
                    } else {
                        true
                    }
                });
                pools.is_empty()
            };
            if drained {
                // No pool references this unfolder's trees any more: drop
                // the whole session so its arena actually frees. (A racing
                // builder may have inserted a fresh pool since the check —
                // resetting then still only costs that builder's memos.)
                let mut unfolder = lock_or_recover(&entry.unfolder);
                let before = entry.unfolder_bytes.swap(0, Ordering::Relaxed);
                if before > 0 {
                    *unfolder = Unfolder::with_context(self.session.clone());
                    self.budget.credit(CacheKind::Unfolder, before);
                    evicted += 1;
                    freed += before;
                }
            }
            {
                let mut memo = write_or_recover(&entry.validate_memo);
                memo.buckets.retain(|_, bucket| {
                    bucket.retain(|record| {
                        if record.stamp.load(Ordering::Relaxed) <= cutoff {
                            evicted += 1;
                            freed += record.bytes;
                            self.budget.credit(CacheKind::Validate, record.bytes);
                            false
                        } else {
                            true
                        }
                    });
                    !bucket.is_empty()
                });
            }
        }
        for (entries, bytes) in [
            self.embeds_memo.evict(cutoff, &self.budget),
            self.sufficient_memo.evict(cutoff, &self.budget),
            self.fixpoint_memo.evict(cutoff, &self.budget),
        ] {
            evicted += entries;
            freed += bytes;
        }
        {
            // Shared bag enumerations are pure memos too: per-unfolder
            // adopters hold their own `Arc`s, so dropping the shared entry
            // only costs the next cold unfolder a re-enumeration.
            let (entries, bytes) = self.session.bags.evict_older_than(cutoff);
            if entries > 0 {
                self.budget.credit(CacheKind::Bags, bytes);
                evicted += entries;
                freed += bytes;
            }
        }
        self.budget.record_sweep(evicted, freed);
    }

    /// The sweep-of-last-resort: drop every evictable cache outright. Run
    /// when two LRU sweeps could not get back under the limit (a budget
    /// smaller than a single pool, say) — the invariant wins over cache
    /// warmth.
    fn clear_evictable(&self) {
        let entries: Vec<Arc<SchemaEntry>> = {
            let registry = read_or_recover(&self.registry);
            registry.schemas.clone()
        };
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for entry in &entries {
            {
                let mut pools = write_or_recover(&entry.enumerated);
                for (_, slot) in std::mem::take(&mut *pools) {
                    evicted += 1;
                    freed += slot.bytes;
                    self.budget.credit(CacheKind::Pools, slot.bytes);
                }
            }
            {
                let mut unfolder = lock_or_recover(&entry.unfolder);
                let before = entry.unfolder_bytes.swap(0, Ordering::Relaxed);
                if before > 0 {
                    *unfolder = Unfolder::with_context(self.session.clone());
                    self.budget.credit(CacheKind::Unfolder, before);
                    evicted += 1;
                    freed += before;
                }
            }
            {
                let mut memo = write_or_recover(&entry.validate_memo);
                for (_, bucket) in memo.buckets.drain() {
                    for record in bucket {
                        evicted += 1;
                        freed += record.bytes;
                        self.budget.credit(CacheKind::Validate, record.bytes);
                    }
                }
            }
        }
        for (entries, bytes) in [
            self.embeds_memo.evict(u64::MAX, &self.budget),
            self.sufficient_memo.evict(u64::MAX, &self.budget),
            self.fixpoint_memo.evict(u64::MAX, &self.budget),
        ] {
            evicted += entries;
            freed += bytes;
        }
        {
            let (entries, bytes) = self.session.bags.clear();
            self.budget.credit(CacheKind::Bags, bytes);
            evicted += entries;
            freed += bytes;
        }
        self.budget.record_sweep(evicted, freed);
    }
}

/// The `DetShEx₀⁻` gate shared by the det pipeline and the characterizing
/// cache.
fn require_det_minus(entry: &SchemaEntry) -> Result<(), NotDetShex0Minus> {
    if entry.class == SchemaClass::DetShEx0Minus {
        Ok(())
    } else {
        Err(NotDetShex0Minus {
            violations: entry.schema.det_shex0_minus_violations(),
        })
    }
}

/// A structural hash of a schema: type count, every type's name, and its
/// full expression tree walked constructor by constructor. Registration
/// verifies bucket hits with [`same_schema_structure`], so the hash only
/// routes lookups — unlike the historical `String` fingerprint (type names
/// plus `Debug` renderings), computing it allocates nothing.
fn schema_hash(schema: &Schema) -> u64 {
    let mut hasher = DefaultHasher::new();
    schema.type_count().hash(&mut hasher);
    for t in schema.types() {
        schema.type_name(t).hash(&mut hasher);
        hash_rbe(schema.def(t), &mut hasher);
    }
    hasher.finish()
}

/// Constructor-tagged structural hash of an expression tree. Degenerate
/// wrappers stay distinct — `Disj([e])` hashes differently from plain `e` —
/// matching the exact-equality verification below.
fn hash_rbe(expr: &Rbe<Atom>, hasher: &mut DefaultHasher) {
    match expr {
        Rbe::Epsilon => 0u8.hash(hasher),
        Rbe::Symbol(atom) => {
            1u8.hash(hasher);
            atom.hash(hasher);
        }
        Rbe::Disj(parts) => {
            2u8.hash(hasher);
            parts.len().hash(hasher);
            for p in parts {
                hash_rbe(p, hasher);
            }
        }
        Rbe::Concat(parts) => {
            3u8.hash(hasher);
            parts.len().hash(hasher);
            for p in parts {
                hash_rbe(p, hasher);
            }
        }
        Rbe::Repeat(inner, interval) => {
            4u8.hash(hasher);
            interval.lo().hash(hasher);
            interval.hi().hash(hasher);
            hash_rbe(inner, hasher);
        }
    }
}

/// Exact structural identity of two schemas: same type names in the same
/// order, structurally identical definitions (`Rbe` equality keeps
/// degenerate wrappers like `Disj([e])` distinct from `e`, so schemas that
/// merely render alike stay distinct entries).
fn same_schema_structure(a: &Schema, b: &Schema) -> bool {
    a.type_count() == b.type_count()
        && a.types()
            .all(|t| a.type_name(t) == b.type_name(t) && a.def(t) == b.def(t))
}

/// The memoised validation verdict against `entry`'s schema: read-lock
/// lookup, compute outside any lock, write-lock insert. Racing threads may
/// compute the same (deterministic) verdict twice; both insertions agree.
/// The caller supplies the [`ValidateScratch`] so a loop of verdicts reuses
/// one set of flow buffers.
fn validate_memoised(
    entry: &SchemaEntry,
    counters: &EngineCounters,
    budget: &CacheBudget,
    graph: &Graph,
    scratch: &mut ValidateScratch,
) -> bool {
    let hash = candidate_hash(graph);
    if let Some(v) = read_or_recover(&entry.validate_memo).get(hash, graph, budget) {
        EngineCounters::tick(&counters.validate_hits);
        return v;
    }
    EngineCounters::tick(&counters.validate_misses);
    let v = validates_with(graph, &entry.schema, scratch);
    write_or_recover(&entry.validate_memo).insert(hash, graph, v, budget);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;
    use shapex_shex::typing::validates;

    fn quick_engine() -> ContainmentEngine {
        ContainmentEngine::with_search(SearchOptions::quick())
    }

    /// The choice-group schema of the `disjunct` gadgets, `Root -> (a1::L |
    /// b1::L)[1;2], …` over `groups` groups. It is outside RBE₀, and from
    /// four groups on its definition has more bags than the sufficient check
    /// enumerates, so `L ⊆ L` goes to the bounded search, which exhausts its
    /// budget without a witness.
    fn choice_groups(groups: usize) -> Schema {
        let parts: Vec<String> = (1..=groups)
            .map(|i| format!("(a{i}::L | b{i}::L)[1;2]"))
            .collect();
        parse_schema(&format!("Root -> {}\n", parts.join(", "))).unwrap()
    }

    #[test]
    fn registration_interns_by_content() {
        let a = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        let a_again = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        let b = parse_schema("T -> p::L\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        let ia = engine.register(&a);
        assert_eq!(engine.register(&a_again), ia);
        assert_ne!(engine.register(&b), ia);
        assert_eq!(engine.stats().schemas, 2);
        assert_eq!(engine.schema(ia).type_count(), 2);
        assert!(engine.is_registered(ia));
        assert_eq!(engine.schema_count(), 2);
    }

    #[test]
    fn registration_shares_label_allocations_across_schemas() {
        // Two independently parsed schemas use the same predicates; after
        // registration the engine's copies share one allocation per label.
        let a = parse_schema("T -> name::L, email::L?\nL -> EMPTY\n").unwrap();
        let b = parse_schema("S -> name::L, name::L\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        let ia = engine.register(&a);
        let ib = engine.register(&b);
        let label_of = |s: &Schema, ty: &str| {
            let t = s.find_type(ty).unwrap();
            s.def(t).to_rbe0().unwrap().atoms()[0].0.label.clone()
        };
        let name_a = label_of(&engine.schema(ia), "T");
        let name_b = label_of(&engine.schema(ib), "S");
        assert_eq!(name_a.as_str(), "name");
        assert!(
            name_a.ptr_eq(&name_b),
            "registered schemas must share the session's label allocations"
        );
    }

    #[test]
    fn concurrent_registration_of_one_schema_agrees_on_the_handle() {
        let schema = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        let ids: Vec<SchemaId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| engine.register(&schema)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "one entry, one id");
        assert_eq!(engine.schema_count(), 1);
    }

    #[test]
    fn structurally_distinct_schemas_are_not_interned_together() {
        use shapex_rbe::Rbe;
        use shapex_shex::Atom;
        // `Disj([symbol])` renders like the bare symbol but is full ShEx
        // (outside RBE0); the fingerprint must keep the two entries apart so
        // `det` still rejects the wrapped one.
        let mut plain = Schema::new();
        let t = plain.add_type("T");
        let l = plain.add_type("L");
        plain.define(t, Rbe::symbol(Atom::new("p", l)));
        let mut wrapped = Schema::new();
        let t2 = wrapped.add_type("T");
        let l2 = wrapped.add_type("L");
        // Raw variant construction: the `Rbe::disj` smart constructor would
        // collapse the unary case.
        wrapped.define(t2, Rbe::Disj(vec![Rbe::symbol(Atom::new("p", l2))]));
        assert_eq!(format!("{plain}"), format!("{wrapped}"), "same rendering");
        let engine = quick_engine();
        let ip = engine.register(&plain);
        let iw = engine.register(&wrapped);
        assert_ne!(ip, iw, "distinct structure must get distinct entries");
        assert!(engine.det(&plain, &plain).is_ok());
        assert!(engine.det(&wrapped, &wrapped).is_err(), "not RBE0");
    }

    #[test]
    fn repeated_queries_hit_the_caches() {
        // A contained pair outside RBE₀ that the sufficient check cannot
        // settle: the bounded search exhausts its budget without a witness,
        // so the second identical query must be answered from warm pools
        // and memos without a single fresh validation.
        let groups = choice_groups(4);
        let engine = quick_engine();
        let first = engine.check(&groups, &groups);
        let after_first = engine.stats();
        assert!(after_first.validate_misses > 0);
        let second = engine.check(&groups, &groups);
        let after_second = engine.stats();
        assert_eq!(
            after_second.validate_misses, after_first.validate_misses,
            "warm session must not validate anything again"
        );
        assert!(after_second.pool_hits > after_first.pool_hits);
        assert_eq!(format!("{first}"), format!("{second}"));
    }

    #[test]
    fn stats_display_reports_ratios() {
        let stats = EngineStats {
            schemas: 2,
            validate_hits: 3,
            validate_misses: 1,
            embed_hits: 0,
            embed_misses: 2,
            pool_bytes: 100,
            validate_bytes: 20,
            pair_bytes: 3,
            unfolder_bytes: 7,
            pinned_bytes: 500,
            fixpoint_decided: 4,
            fixpoint_over_budget: 1,
            fixpoint_memo_hits: 9,
            ..EngineStats::default()
        };
        assert_eq!(stats.evictable_bytes(), 130);
        assert_eq!(stats.resident_bytes(), 630);
        let text = format!("{stats}");
        assert!(text.contains("2 schemas"), "{text}");
        assert!(text.contains("3 hits / 1 misses (75.0% hit)"), "{text}");
        assert!(text.contains("0 hits / 2 misses (0.0% hit)"), "{text}");
        assert!(text.contains("130 B evictable"), "{text}");
        assert!(text.contains("budget unbounded"), "{text}");
        assert!(
            text.contains("fixpoint 4 decided / 1 over budget (9 memo hits)"),
            "{text}"
        );
    }

    #[test]
    fn fixpoint_outcomes_are_memoised_per_pair() {
        // The introduction's refactoring of Figure 1: equal languages, no
        // embedding, split outside DetShEx0- — only the fixpoint decides it.
        let original = parse_schema(
            "Bug  -> descr::Literal, reportedBy::User, related::Bug*\n\
             User -> name::Literal, email::Literal?\n",
        )
        .unwrap();
        let split = parse_schema(
            "Bug1 -> descr::Literal, reportedBy::User1, related::Bug1*, related::Bug2*\n\
             Bug2 -> descr::Literal, reportedBy::User2, related::Bug1*, related::Bug2*\n\
             User1 -> name::Literal\n\
             User2 -> name::Literal, email::Literal\n",
        )
        .unwrap();
        let engine = quick_engine();
        assert!(engine.check(&original, &split).is_contained());
        let cold = engine.stats();
        assert_eq!(cold.fixpoint_decided, 1, "{cold}");
        assert_eq!(cold.fixpoint_memo_hits, 0, "{cold}");
        assert!(cold.pair_bytes > 0, "the outcome is accounted: {cold}");
        // The fixpoint is the whole procedure: the cold check unfolds no
        // pool and validates no candidate.
        assert_eq!(cold.pools_built, 0, "{cold}");
        assert_eq!(cold.pool_hits, 0, "{cold}");
        assert_eq!(cold.validate_misses, 0, "{cold}");
        assert!(engine.check(&original, &split).is_contained());
        let warm = engine.stats();
        assert_eq!(warm.fixpoint_memo_hits, 1, "{warm}");
        assert_eq!(warm.fixpoint_decided, 1, "{warm}");
        assert_eq!(warm.pool_hits, cold.pool_hits, "{warm}");
        assert_eq!(warm.validate_misses, cold.validate_misses, "{warm}");

        // A refutable pair outside DetShEx0- (`p` repeats): the fixpoint
        // finds the witness, and the repeat returns the memoised one.
        let h = parse_schema("Root -> p::A, p::B\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("Root -> p::A, p::A\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let refuted = engine.check(&h, &k);
        let witness = refuted.counter_example().expect("not contained");
        assert!(validates(witness, &h) && !validates(witness, &k));
        let after = engine.stats();
        assert_eq!(after.fixpoint_decided, 2, "{after}");
        assert_eq!(after.pools_built, 0, "{after}");
        assert_eq!(after.validate_misses, 0, "{after}");
        let again = engine.check(&h, &k);
        assert_eq!(engine.stats().fixpoint_memo_hits, 2);
        match (&refuted, &again) {
            (Containment::NotContained(a), Containment::NotContained(b)) => {
                assert!(Arc::ptr_eq(a, b), "the repeat shares the memoised witness")
            }
            _ => panic!("expected two refutations, got {refuted} and {again}"),
        }
    }

    #[test]
    fn builder_configures_every_knob() {
        let options = EngineOptions::builder()
            .search(SearchOptions::quick())
            .cache_budget(1 << 20)
            .max_entry_bytes(1 << 16)
            .build();
        assert_eq!(options.cache_budget, Some(1 << 20));
        assert_eq!(options.max_entry_bytes, Some(1 << 16));
        assert_eq!(
            options.search.max_depth,
            SearchOptions::quick().max_depth,
            "search budget must carry through the builder"
        );
        let unbounded = EngineOptions::builder().build();
        assert_eq!(unbounded.cache_budget, None);
        assert_eq!(unbounded.max_entry_bytes, None);
    }

    #[test]
    fn tiny_budget_engine_matches_unbounded_verdicts() {
        // A budget far smaller than one pool: every query sweeps, the
        // clear-everything fallback runs, and the verdicts (including the
        // witness) still match the unbounded engine bit for bit.
        let texts = [
            "T -> p::L?\nL -> EMPTY\n",
            "T -> p::L*\nL -> EMPTY\n",
            "Root -> p::A, p::B\nA -> a::L?\nB -> b::L\nL -> EMPTY\n",
            "Root -> p::A, p::A\nA -> a::L?\nB -> b::L\nL -> EMPTY\n",
        ];
        let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
        let unbounded = quick_engine();
        let bounded = ContainmentEngine::with_options(
            EngineOptions::builder()
                .search(SearchOptions::quick())
                .cache_budget(256)
                .build(),
        );
        for _round in 0..2 {
            for h in &schemas {
                for k in &schemas {
                    let a = unbounded.check(h, k);
                    let b = bounded.check(h, k);
                    assert_eq!(format!("{a}"), format!("{b}"));
                    let stats = bounded.stats();
                    assert!(
                        stats.evictable_bytes() <= 256,
                        "evictable {} exceeds the 256 B budget",
                        stats.evictable_bytes()
                    );
                }
            }
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "a 256 B budget must evict: {stats}");
        assert!(stats.sweeps > 0);
        assert!(stats.pinned_bytes > 0, "registered schemas are counted");
        assert_eq!(unbounded.stats().evictions, 0, "unbounded never evicts");
    }

    #[test]
    fn matrix_matches_individual_checks() {
        let texts = [
            "T -> p::L?\nL -> EMPTY\n",
            "T -> p::L*\nL -> EMPTY\n",
            "T -> p::L\nL -> EMPTY\n",
        ];
        let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
        let engine = quick_engine();
        let matrix = engine.check_matrix(&schemas);
        for (i, row) in matrix.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let fresh = quick_engine();
                let one_shot = fresh.check(&schemas[i], &schemas[j]);
                assert_eq!(
                    format!("{cell}"),
                    format!("{one_shot}"),
                    "matrix[{i}][{j}] disagrees with the one-shot answer"
                );
            }
        }
        // Diagonal is always contained for these schemas.
        for (i, row) in matrix.iter().enumerate() {
            assert!(row[i].is_contained(), "matrix[{i}][{i}]");
        }
    }

    #[test]
    fn unknown_answers_carry_budget_reasons() {
        use crate::UnknownReason;
        // A choice-group schema against itself: contained, outside RBE₀,
        // too many bags for the sufficient check, and no counter-example
        // exists — the budget runs dry.
        let groups = choice_groups(4);
        let answer = quick_engine().check(&groups, &groups);
        assert!(answer.is_unknown());
        match answer.unknown_reason().unwrap() {
            UnknownReason::BudgetExhausted { candidates, depth } => {
                assert!(*candidates > 0);
                assert_eq!(*depth, SearchOptions::quick().max_depth);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_surfaces_within_the_latency_bound() {
        use crate::UnknownReason;
        use std::time::Instant;
        // A budget-exhausting choice-group pair under a 10 ms deadline: the
        // engine must answer DeadlineExceeded well inside 100 ms instead of
        // running the full search budget — while the same engine
        // concurrently completes an undeadlined query bit-identical to a
        // fresh oracle.
        let groups = choice_groups(6);
        // A cheap pair for the concurrent undeadlined query, so the test
        // does not pay the slow pair's full default search budget twice.
        let wide = parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
        let narrow = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        let engine = Arc::new(ContainmentEngine::new());
        let ih = engine.register(&groups);
        let ik = ih;
        let (deadlined, undeadlined) = std::thread::scope(|scope| {
            let fast = {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let started = Instant::now();
                    let token = CancelToken::with_timeout(std::time::Duration::from_millis(10));
                    let verdict = engine.check_ids(ih, ik, Some(&token));
                    (verdict, started.elapsed())
                })
            };
            let slow = {
                let engine = Arc::clone(&engine);
                let (h, k) = (narrow.clone(), wide.clone());
                scope.spawn(move || engine.check(&h, &k))
            };
            (fast.join().unwrap(), slow.join().unwrap())
        });
        let (verdict, wall) = deadlined;
        match verdict.unknown_reason() {
            Some(UnknownReason::DeadlineExceeded { elapsed }) => {
                assert!(*elapsed >= std::time::Duration::from_millis(10));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            wall < std::time::Duration::from_millis(100),
            "a 10 ms deadline must surface within 100 ms, took {wall:?}"
        );
        // The concurrent undeadlined query on the same engine matches a
        // fresh (never-deadlined) engine bit for bit.
        let oracle = ContainmentEngine::new().check(&narrow, &wide);
        assert_eq!(format!("{undeadlined}"), format!("{oracle}"));
        let stats = engine.stats();
        assert!(stats.deadline_exceeded >= 1, "{stats}");
        assert!(stats.cancelled_branches >= 1, "{stats}");
        let text = format!("{stats}");
        assert!(text.contains("deadlines exceeded"), "{text}");
    }

    #[test]
    fn cancelled_query_leaves_caches_answering_identically() {
        // Fire a token mid-search from another thread, then re-ask the same
        // pair undeadlined on the same engine: the answer must match a fresh
        // engine's, i.e. the cancelled run memoised nothing partial.
        let h = parse_schema("Root -> p::A, p::B\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("Root -> p::A, p::A\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        let ih = engine.register(&h);
        let ik = engine.register(&k);
        let token = CancelToken::new();
        token.cancel(); // fire before the search even starts
        let verdict = engine.check_ids(ih, ik, Some(&token));
        assert!(
            matches!(
                verdict.unknown_reason(),
                Some(crate::UnknownReason::DeadlineExceeded { .. })
            ),
            "{verdict}"
        );
        let again = engine.check_ids(ih, ik, None);
        let oracle = quick_engine().check(&h, &k);
        assert_eq!(format!("{again}"), format!("{oracle}"));
    }

    #[test]
    fn deadlined_matrix_fills_every_cell_with_typed_answers() {
        let texts = [
            "T -> p::L?\nL -> EMPTY\n",
            "T -> p::L*\nL -> EMPTY\n",
            "T -> p::L\nL -> EMPTY\n",
        ];
        let schemas: Vec<Schema> = texts.iter().map(|t| parse_schema(t).unwrap()).collect();
        let engine = quick_engine();
        let ids: Vec<SchemaId> = schemas.iter().map(|s| engine.register(s)).collect();
        // A generous deadline: every cell completes and matches the
        // undeadlined matrix.
        let hour = CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let relaxed = engine.check_matrix_ids(&ids, Some(&hour));
        let plain = quick_engine().check_matrix(&schemas);
        for (row_a, row_b) in relaxed.iter().zip(plain.iter()) {
            for (a, b) in row_a.iter().zip(row_b.iter()) {
                assert_eq!(format!("{a}"), format!("{b}"));
            }
        }
        // An already-expired deadline: the matrix still comes back fully
        // populated, every cell a typed DeadlineExceeded.
        let now = CancelToken::with_timeout(std::time::Duration::ZERO);
        let expired = engine.check_matrix_ids(&ids, Some(&now));
        for row in expired.iter() {
            for cell in row.iter() {
                assert!(
                    matches!(
                        cell.unknown_reason(),
                        Some(crate::UnknownReason::DeadlineExceeded { .. })
                    ),
                    "{cell}"
                );
            }
        }
        assert!(engine.stats().deadline_exceeded >= 9);
    }

    #[test]
    fn single_flight_coalesces_concurrent_callers() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let table: SingleFlight<(u32, u32), u64> = SingleFlight::new(4);
        let computed = AtomicUsize::new(0);
        let coalesced = AtomicU64::new(0);
        let barrier = Barrier::new(4);
        let values: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        table.run(
                            (7, 9),
                            || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                // Outlast the followers' walk to the wait.
                                std::thread::sleep(std::time::Duration::from_millis(100));
                                42
                            },
                            &coalesced,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 42));
        let runs = computed.load(Ordering::Relaxed) as u64;
        assert_eq!(
            runs + coalesced.load(Ordering::Relaxed),
            4,
            "every caller either computed or coalesced"
        );
        assert_eq!(runs, 1, "one 100ms flight absorbs all barrier racers");
        assert!(
            table.shards.iter().all(|s| s.lock().unwrap().is_empty()),
            "flights retire their table entries"
        );
    }

    #[test]
    fn single_flight_abandons_on_leader_panic() {
        let table: Arc<SingleFlight<(u32, u32), u64>> = Arc::new(SingleFlight::new(1));
        let coalesced = Arc::new(AtomicU64::new(0));
        let leader = {
            let table = Arc::clone(&table);
            let coalesced = Arc::clone(&coalesced);
            std::thread::spawn(move || {
                table.run(
                    (1, 2),
                    || {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("leader dies mid-flight")
                    },
                    &coalesced,
                )
            })
        };
        // Give the leader time to take the flight, then follow it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let follower = table.run((1, 2), || 7, &coalesced);
        assert_eq!(follower, 7, "follower recomputes after an abandoned flight");
        assert!(leader.join().is_err(), "leader panicked");
        assert!(table.shards[0].lock().unwrap().is_empty());
    }

    #[test]
    fn admission_ceiling_keeps_oversized_pools_out_of_the_cache() {
        let h = parse_schema("Root -> p::A, p::B\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("Root -> p::A, p::A\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let unbounded = quick_engine();
        // A 32-byte ceiling refuses every pool, validation record, and even
        // the 64-byte pair entries: nothing is cached, verdicts unchanged.
        let strict = ContainmentEngine::with_options(
            EngineOptions::builder()
                .search(SearchOptions::quick())
                .max_entry_bytes(32)
                .build(),
        );
        for _round in 0..2 {
            for (a, b) in [(&h, &k), (&k, &h)] {
                assert_eq!(
                    format!("{}", unbounded.check(a, b)),
                    format!("{}", strict.check(a, b))
                );
            }
        }
        let stats = strict.stats();
        assert!(stats.admission_rejections > 0, "{stats}");
        assert_eq!(stats.max_entry_bytes, Some(32));
        // Every *entry* cache stays empty; only the unfolder arenas (delta
        // accounted, not per-entry) may carry bytes.
        assert_eq!(stats.pool_bytes, 0, "no pool admitted: {stats}");
        assert_eq!(stats.validate_bytes, 0, "no record admitted: {stats}");
        assert_eq!(stats.pair_bytes, 0, "no pair entry admitted: {stats}");
        assert_eq!(stats.bag_bytes, 0, "no enumeration admitted: {stats}");
        assert_eq!(
            stats.validate_hits, 0,
            "an empty memo can never answer a lookup"
        );
        let text = format!("{stats}");
        assert!(text.contains("admission ceiling 32 B"), "{text}");
        assert_eq!(unbounded.stats().admission_rejections, 0);
    }
}
