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
//! * **Schema registry.** [`ContainmentEngine::register`] interns a schema
//!   by a structural fingerprint and computes its [`SchemaClass`] once, and
//!   its shape graph once if it is RBE₀ (any class but `ShEx`); the
//!   registered copy's atom labels are re-interned through the engine's one
//!   [`shapex_graph::LabelTable`], so every registered schema (and every
//!   candidate graph unfolded from one) shares one allocation per distinct
//!   predicate label.
//! * **Per-schema caches.** The characterizing graph (Lemma 4.2), the
//!   exhaustive per-type bag enumeration of the general sufficient check,
//!   and the schema's [`Unfolder`] — hash-consed candidate trees per
//!   `(type, depth)` under the engine's fixed search budget, and one shared
//!   graph per distinct tree — are each built once and reused across every
//!   partner schema.
//! * **One answer per pair.** Every completed answer is memoised per ordered
//!   schema pair, whichever procedure gave it — embedding, the
//!   characterizing graph, the type-set fixpoint, the sufficient check or
//!   the bounded search (whose budget is fixed per engine, so even its
//!   `Unknown` is a deterministic function of the pair). A repeated check
//!   costs one memo lookup; only a deadline answer is never memoised. Within
//!   one search, each distinct candidate graph is validated once.
//!
//! # One query path
//!
//! Every verdict goes through one dispatch chain that picks the strongest
//! procedure by the pair's shape graphs, and every procedure in it answers a
//! [`Containment`]. A pair whose two schemas have shape graphs (`ShEx₀`)
//! goes to embedding (§3), then the characterizing graph for `DetShEx₀⁻`
//! (Lemma 4.2), then the exact type-set fixpoint ([`crate::fixpoint`], §5);
//! only a pair over the fixpoint's work bound reaches the bounded
//! counter-example search. A pair with a full ShEx side goes to the
//! type-simulation check and then the bounded search (§6). Four methods
//! reach it: [`ContainmentEngine::check`] and
//! [`ContainmentEngine::check_matrix`] register schemas and ask;
//! [`ContainmentEngine::check_ids`] and
//! [`ContainmentEngine::check_matrix_ids`] take handles plus an optional
//! [`CancelToken`] (and [`ContainmentEngine::det`] is the same answer
//! behind a `DetShEx₀⁻` class gate). Each consults the pair's memoised
//! answer first. Without a token, concurrent first checks of one pair
//! coalesce onto one computation; with one, the query polls it at bounded
//! checkpoints and answers [`crate::UnknownReason::DeadlineExceeded`] once
//! it fires.
//!
//! # Shared state and concurrency
//!
//! All of the above is logically read-mostly shared state — the procedures
//! are pure functions over registered schemas — so every query method takes
//! `&self`: the registry is an `RwLock`-guarded append-only vector of
//! [`Arc`]ed entries, per-schema caches sit behind `OnceLock`s and the
//! unfolder's `Mutex` inside each entry, the answer memo lives in sharded
//! `RwLock` maps whose per-pair `OnceLock` slots are also the single flight
//! of a pair's first check, the label table sits behind a `Mutex` that only
//! registration takes, and the [`EngineStats`] counters are atomics. A
//! `ContainmentEngine` is therefore `Send + Sync` (compile-time asserted):
//! wrap it in an `Arc` and query it from as many threads as you like —
//! verdicts are deterministic, caches only ever fill in with deterministic
//! values, and a race at worst computes a verdict twice before one copy
//! wins the cache slot.
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
//! [`EngineOptionsBuilder::cache_budget`] set, the engine keeps a private
//! accounted-byte ledger, which charges every cached value its
//! `approx_heap_bytes`: the answer memo (witnesses included) and the
//! per-schema unfolders are size-accounted and stamped with an LRU clock on
//! every use — one stamp per answer, one per unfolder — and whenever the
//! evictable total exceeds the budget an epoch-LRU sweep drops the
//! least-recently-used answers and resets the least-recently-used unfolders
//! until the total is back under half the budget. Eviction is
//! **observationally invisible** — both are pure memos of deterministic
//! functions, so a dropped entry costs a recomputation, never a different
//! verdict or witness (the `engine_eviction` suite pins this against the
//! unbounded engine and the memo-free baseline). One-shot `OnceLock` caches
//! (characterizing graphs, exhaustive bag enumerations) and the registered
//! schemas are exempt but counted, so [`EngineStats`] reports the full
//! footprint: per-cache resident bytes, evictions, and bytes freed, next to
//! the hit counters — the capacity-planning surface of a service deployment.
//! The default budget is `None` (unbounded): existing workloads pay only a
//! few atomic increments.
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

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use shapex_graph::{Graph, LabelTable};
use shapex_rbe::Bag;
use shapex_shex::typing::{validates_with, SolverTelemetry, ValidateScratch};
use shapex_shex::{Atom, Schema, SchemaClass, TypeId};

use crate::budget::{CacheBudget, CacheKind};
use crate::det::{characterizing_graph, NotDetShex0Minus};
use crate::embedding::embeds;
use crate::faults;
use crate::fixpoint;
use crate::general::{exhaustive_bags, type_simulation_with_bags};
use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use crate::unfold::{SearchOptions, Unfolder};
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
    /// candidate count). Fixed for the lifetime of the engine, so the
    /// unfolders' memoised trees and the memoised answers — the search's
    /// `Unknown` included — stay valid for every query.
    pub fn search(mut self, search: SearchOptions) -> Self {
        self.options.search = search;
        self
    }

    /// Bound the evictable caches (the answer memo and the per-schema
    /// unfolders) to an accounted-byte budget: an epoch-LRU sweep runs
    /// whenever the evictable total exceeds it. Without this call every
    /// cache is kept for the engine's lifetime. Verdicts and witnesses do
    /// not depend on it — see the [module docs](self). Weights are
    /// documented approximations of heap footprint, not allocator ground
    /// truth.
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.options.cache_budget = Some(bytes);
        self
    }

    /// Refuse to memoise any single answer heavier than `bytes` accounted
    /// bytes (an entry's fixed cost plus its witness graph, if it carries
    /// one): it is returned but never cached, so one oversized witness
    /// cannot evict the whole working set. Unfolders are accounted as they
    /// grow and are not subject to it. Without this call everything is
    /// admitted. Verdicts do not depend on it.
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
    /// Checks answered from the memo of completed answers.
    pub memo_hits: u64,
    /// Candidates a search met again after validating them earlier in the
    /// same search (each distinct candidate is validated once per search).
    pub validate_hits: u64,
    /// Candidate validations run against the right-hand schema (pool
    /// members of the left-hand schema are members by construction and are
    /// never validated against it).
    pub validate_misses: u64,
    /// Shape-graph embeddings computed.
    pub embed_misses: u64,
    /// Search pools whose `(root, depth)` trees the schema's unfolder
    /// already held.
    pub pool_hits: u64,
    /// Search pools whose trees the unfolder had to enumerate.
    pub pools_built: u64,
    /// Duplicate concurrent queries answered by waiting on another thread's
    /// in-flight computation of the same ordered pair instead of re-running
    /// it (coalescing wins: the pair's memo slot is the single flight).
    pub coalesced_queries: u64,
    /// The configured evictable-cache budget (`None` = unbounded).
    pub cache_budget: Option<u64>,
    /// The configured per-entry admission ceiling (`None` = admit all).
    pub max_entry_bytes: Option<u64>,
    /// Answers refused by the admission policy (computed and returned, but
    /// never memoised, because they weighed more than `max_entry_bytes`).
    pub admission_rejections: u64,
    /// Accounted bytes resident in the answer memo, witnesses included.
    pub pair_bytes: u64,
    /// Accounted bytes resident in the per-schema unfolders.
    pub unfolder_bytes: u64,
    /// Accounted bytes in the pinned (counted, never evicted) caches:
    /// registered schemas, characterizing graphs and bag enumerations.
    pub pinned_bytes: u64,
    /// Cache entries (answers and whole unfolders) dropped by eviction
    /// sweeps.
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
        self.pair_bytes + self.unfolder_bytes
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
            "{} schemas; {} memo hits; {} embeddings; \
             pools {} held / {} built ({:.1}% held); \
             validations {} run / {} repeats; coalesced {} queries",
            self.schemas,
            self.memo_hits,
            self.embed_misses,
            self.pool_hits,
            self.pools_built,
            hit_rate(self.pool_hits, self.pools_built),
            self.validate_misses,
            self.validate_hits,
            self.coalesced_queries,
        )?;
        write!(
            f,
            "; fixpoint {} decided / {} over budget",
            self.fixpoint_decided, self.fixpoint_over_budget,
        )?;
        write!(
            f,
            "; resident {} B evictable (pairs {}, unfolder {}) \
             + {} B pinned; budget {}; {} evictions freed {} B in {} sweeps",
            self.evictable_bytes(),
            self.pair_bytes,
            self.unfolder_bytes,
            self.pinned_bytes,
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
    memo_hits: AtomicU64,
    validate_hits: AtomicU64,
    validate_misses: AtomicU64,
    embed_misses: AtomicU64,
    pool_hits: AtomicU64,
    pools_built: AtomicU64,
    coalesced_queries: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled_branches: AtomicU64,
    fixpoint_decided: AtomicU64,
    fixpoint_over_budget: AtomicU64,
}

impl EngineCounters {
    fn tick(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, schemas: usize, budget: &CacheBudget) -> EngineStats {
        EngineStats {
            schemas,
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            validate_hits: self.validate_hits.load(Ordering::Relaxed),
            validate_misses: self.validate_misses.load(Ordering::Relaxed),
            embed_misses: self.embed_misses.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pools_built: self.pools_built.load(Ordering::Relaxed),
            coalesced_queries: self.coalesced_queries.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cancelled_branches: self.cancelled_branches.load(Ordering::Relaxed),
            fixpoint_decided: self.fixpoint_decided.load(Ordering::Relaxed),
            fixpoint_over_budget: self.fixpoint_over_budget.load(Ordering::Relaxed),
            cache_budget: budget.limit(),
            max_entry_bytes: budget.max_entry_bytes(),
            admission_rejections: budget.admission_rejections(),
            pair_bytes: budget.resident(CacheKind::Pairs),
            unfolder_bytes: budget.resident(CacheKind::Unfolder),
            pinned_bytes: budget.resident(CacheKind::Pinned),
            evictions: budget.evictions(),
            evicted_bytes: budget.evicted_bytes(),
            sweeps: budget.sweeps(),
            solver_calls: 0,
            solver_search_nodes: 0,
            solver_pruned_branches: 0,
        }
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
    /// Present iff the schema is RBE₀, i.e. its class is not `ShEx`
    /// (Proposition 3.2); the dispatch picks the `ShEx₀` chain by it.
    shape_graph: Option<Graph>,
    /// The characterizing graph of Lemma 4.2, built on first demand
    /// (`DetShEx₀⁻` schemas only) and shared by every answer it refutes.
    characterizing: OnceLock<Arc<Graph>>,
    /// The schema's arena-backed unfolding session: hash-consed trees,
    /// memoised `(type, depth)` enumerations, one shared graph per distinct
    /// candidate — the search's pools come straight from it. A search holds
    /// this lock while it takes one pool; every other engine path stays off
    /// it.
    unfolder: Mutex<Unfolder>,
    /// The unfolder's accounted bytes as last charged to the ledger — the
    /// search re-measures after every pool that grew the unfolder and
    /// charges/credits the delta
    /// (while holding the unfolder lock, so updates serialise).
    unfolder_bytes: AtomicU64,
    /// The unfolder's LRU stamp, refreshed whenever a search takes a pool:
    /// a sweep resets the whole unfolder once this stamp falls behind its
    /// cutoff.
    unfolder_stamp: AtomicU64,
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

/// Shard count of [`PairMemo`]; a power of two, sized so threads sharing
/// one engine rarely contend on the same shard.
const PAIR_SHARDS: usize = 16;

/// Accounted bytes per pair-memo entry: key + slot + `BTreeMap` node
/// allowance. A flat approximation — pair entries are tiny and uniform; a
/// memoised witness adds its own weight on top.
const PAIR_ENTRY_BYTES: u64 = 64;

/// One ordered pair's memo slot, and the single flight of its first check:
/// the check whose `get_or_init` closure runs computes the answer, and
/// every check without a token that finds the slot meanwhile waits on the
/// cell and shares it. If that closure panics, the cell passes to one of
/// the waiting checks, which computes the answer itself.
#[derive(Debug, Default)]
struct PairSlot {
    answer: OnceLock<Containment>,
    /// The bytes charged for the answer, credited back verbatim on
    /// eviction; 0 while the answer is in flight or not yet charged, and
    /// sweeps leave such slots alone. Read and written only under the
    /// shard's lock, which orders it.
    bytes: AtomicU64,
    stamp: AtomicU64,
}

/// One independently locked shard of a [`PairMemo`].
type PairShard = RwLock<BTreeMap<(u32, u32), Arc<PairSlot>>>;

/// The `(SchemaId, SchemaId) → slot` answer memo, sharded across
/// independently locked maps so concurrent queries for different pairs
/// proceed without contending on one lock. Answers are charged to
/// [`CacheKind::Pairs`] and evicted by the engine's sweeps.
#[derive(Debug, Default)]
struct PairMemo {
    shards: [PairShard; PAIR_SHARDS],
}

impl PairMemo {
    fn shard(&self, key: (u32, u32)) -> &PairShard {
        let spread = key.0.wrapping_mul(31).wrapping_add(key.1) as usize;
        &self.shards[spread % PAIR_SHARDS]
    }

    /// Every charged slot's `(stamp, bytes)`, for the sweep's cutoff.
    fn collect_stamps(&self, stamped: &mut Vec<(u64, u64)>) {
        for shard in &self.shards {
            for slot in read_or_recover(shard).values() {
                let bytes = slot.bytes.load(Ordering::Relaxed);
                if bytes > 0 {
                    stamped.push((slot.stamp.load(Ordering::Relaxed), bytes));
                }
            }
        }
    }

    /// Drop every charged slot stamped at or before `cutoff` (every charged
    /// slot for `u64::MAX`), crediting the ledger. Returns `(entries,
    /// bytes)` freed.
    fn evict(&self, cutoff: u64, budget: &CacheBudget) -> (u64, u64) {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            write_or_recover(shard).retain(|_, slot| {
                let charged = slot.bytes.load(Ordering::Relaxed);
                if charged > 0 && slot.stamp.load(Ordering::Relaxed) <= cutoff {
                    entries += 1;
                    bytes += charged;
                    budget.credit(CacheKind::Pairs, charged);
                    false
                } else {
                    true
                }
            });
        }
        (entries, bytes)
    }
}

/// A reusable, shareable containment query session; see the
/// [module docs](self) for what is cached and the concurrency contract.
/// Every query method takes `&self`, so one engine (typically behind an
/// [`Arc`]) serves any number of threads at once.
#[derive(Debug)]
pub struct ContainmentEngine {
    options: EngineOptions,
    /// One allocation per distinct predicate label across every registered
    /// schema; only [`ContainmentEngine::register`] takes the lock.
    labels: Mutex<LabelTable>,
    registry: RwLock<Registry>,
    /// `(h, k) → the slot of the answer to L(h) ⊆ L(k)`, whichever
    /// procedure gave it (a deadline answer is never recorded). A slot
    /// whose answer is still being computed is the flight that concurrent
    /// first checks without a token wait on.
    answers: PairMemo,
    counters: EngineCounters,
    /// The accounted-byte ledger and eviction bookkeeping behind
    /// [`EngineOptionsBuilder::cache_budget`].
    budget: CacheBudget,
    /// The solver counters every query and every schema's unfolder (the
    /// fresh one a sweep leaves behind included) report to.
    telemetry: Arc<SolverTelemetry>,
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
        let budget = CacheBudget::new(options.cache_budget, options.max_entry_bytes);
        ContainmentEngine {
            options,
            labels: Mutex::new(LabelTable::new()),
            registry: RwLock::new(Registry::default()),
            answers: PairMemo::default(),
            counters: EngineCounters::default(),
            budget,
            telemetry: Arc::new(SolverTelemetry::new()),
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
        let solver = self.telemetry.snapshot();
        stats.solver_calls = self.telemetry.calls();
        stats.solver_search_nodes = solver.search_nodes;
        stats.solver_pruned_branches = solver.pruned_branches;
        stats
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
    /// keeps ownership — adopts the clone's atom labels into the engine's
    /// label table, and computes the classification and shape graph, once.
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
        owned.adopt_labels(&mut lock_or_recover(&self.labels));
        let class = owned.classify();
        let shape_graph = match class {
            SchemaClass::ShEx => None,
            _ => owned.to_shape_graph(),
        };
        // The registered schema, its shape graph and the entry shell are
        // pinned footprint: counted, never evicted.
        let pinned = (std::mem::size_of::<SchemaEntry>()
            + owned.approx_heap_bytes()
            + shape_graph.as_ref().map_or(0, Graph::approx_heap_bytes)) as u64;
        let entry = Arc::new(SchemaEntry {
            schema: Arc::new(owned),
            class,
            shape_graph,
            characterizing: OnceLock::new(),
            unfolder: Mutex::new(Unfolder::with_telemetry(self.telemetry.clone())),
            unfolder_bytes: AtomicU64::new(0),
            unfolder_stamp: AtomicU64::new(0),
            bags: OnceLock::new(),
        });
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
    /// A pair's completed answer is memoised, so every check after its
    /// first costs one memo lookup ([`EngineStats::memo_hits`]). Without a
    /// token, duplicate concurrent first checks of the same ordered pair
    /// coalesce onto one computation: while one thread computes the answer,
    /// the others wait on the pair's memo slot and share it, and
    /// [`EngineStats`] counts them in `coalesced_queries`. Answers are
    /// deterministic, so memoising and coalescing are observationally
    /// invisible. With a token, the query threads it through every
    /// long-running loop it reaches — pool enumeration, per-candidate
    /// validation, the typing fixpoints, the Presburger solver — and polls
    /// it at bounded checkpoint intervals. Once the token fires (from
    /// another thread, or at its deadline) the search abandons its current
    /// branch and returns [`crate::UnknownReason::DeadlineExceeded`] instead
    /// of wedging a worker for the rest of its budget; a counter-example
    /// certified before the expiry was observed still stands.
    ///
    /// Queries with a token bypass coalescing: they never wait on another
    /// caller's computation past their own deadline, and their expiry never
    /// becomes another caller's answer. The memo only ever records
    /// completed answers, so queries without a token are bit-identical to
    /// an engine that never saw one.
    pub fn check_ids(&self, h: SchemaId, k: SchemaId, cancel: Option<&CancelToken>) -> Containment {
        let entries = self.entries(&[h, k]);
        self.verdict(h, k, &entries[0], &entries[1], cancel)
    }

    /// The one verdict route behind [`ContainmentEngine::check_ids`],
    /// [`ContainmentEngine::det`] and every matrix cell. An
    /// already-expired token answers at once; otherwise the pair's memoised
    /// answer, if any, is returned. With a token,
    /// [`ContainmentEngine::answer`] runs directly (and the deadline counter
    /// ticks on expiry). Without one, the pair's memo slot is the single
    /// flight: the first check computes the answer inside the slot's
    /// `OnceLock`, and duplicate concurrent checks wait on it and share it
    /// ([`EngineStats::coalesced_queries`] counts them).
    fn verdict(
        &self,
        h: SchemaId,
        k: SchemaId,
        h_entry: &SchemaEntry,
        k_entry: &SchemaEntry,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        if let Some(token) = cancel.filter(|token| token.fired()) {
            // An already-expired deadline skips even the memo: the caller
            // asked for an answer by a time that has passed.
            EngineCounters::tick(&self.counters.deadline_exceeded);
            return Containment::deadline_exceeded(token.elapsed());
        }
        let key = (h.0, k.0);
        if let Some(answer) = self.memoised(key) {
            return answer;
        }
        if cancel.is_some() {
            // Never `get_or_init` or `set` here: both wait while another
            // thread computes the pair, past this query's deadline.
            let answer = self.answer(h_entry, k_entry, cancel);
            if is_deadline(&answer) {
                EngineCounters::tick(&self.counters.deadline_exceeded);
            } else {
                self.memoise(key, h_entry, &answer);
            }
            return answer;
        }
        let slot = Arc::clone(
            write_or_recover(self.answers.shard(key))
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let answer = slot
            .answer
            .get_or_init(|| {
                computed = true;
                self.answer(h_entry, k_entry, None)
            })
            .clone();
        if computed {
            self.charge(key, &slot, h_entry, &answer);
        } else {
            EngineCounters::tick(&self.counters.coalesced_queries);
        }
        answer
    }

    /// The pair's memoised answer, counted in [`EngineStats::memo_hits`].
    fn memoised(&self, key: (u32, u32)) -> Option<Containment> {
        let shard = read_or_recover(self.answers.shard(key));
        let slot = shard.get(&key)?;
        let answer = slot.answer.get()?.clone();
        slot.stamp.store(self.budget.touch(), Ordering::Relaxed);
        EngineCounters::tick(&self.counters.memo_hits);
        Some(answer)
    }

    /// Charge the answer a first check just computed in `slot`, while the
    /// memo still holds that slot (a check with a token may have replaced
    /// it). An answer the admission ceiling refuses takes its slot out.
    fn charge(&self, key: (u32, u32), slot: &Arc<PairSlot>, h: &SchemaEntry, answer: &Containment) {
        let bytes = entry_bytes(h, answer);
        let mut shard = write_or_recover(self.answers.shard(key));
        if !shard.get(&key).is_some_and(|held| Arc::ptr_eq(held, slot)) {
            return;
        }
        if self.budget.admits(bytes) {
            slot.stamp.store(self.budget.touch(), Ordering::Relaxed);
            slot.bytes.store(bytes, Ordering::Relaxed);
            self.budget.charge(CacheKind::Pairs, bytes);
        } else {
            shard.remove(&key);
        }
        drop(shard);
        self.maybe_evict();
    }

    /// Memoise an answer a check with a token completed, without waiting
    /// on anything but the shard lock: a pair that has an answer keeps it,
    /// and an empty slot is replaced. The first check running in that slot
    /// still answers the checks waiting on it, but is not charged.
    fn memoise(&self, key: (u32, u32), h: &SchemaEntry, answer: &Containment) {
        let bytes = entry_bytes(h, answer);
        let mut shard = write_or_recover(self.answers.shard(key));
        if shard
            .get(&key)
            .is_some_and(|slot| slot.answer.get().is_some())
            || !self.budget.admits(bytes)
        {
            return;
        }
        let slot = PairSlot {
            answer: OnceLock::from(answer.clone()),
            bytes: AtomicU64::new(bytes),
            stamp: AtomicU64::new(self.budget.touch()),
        };
        shard.insert(key, Arc::new(slot));
        self.budget.charge(CacheKind::Pairs, bytes);
        drop(shard);
        self.maybe_evict();
    }

    /// Batch pairwise containment: `matrix[i][j]` answers
    /// `L(schemas[i]) ⊆ L(schemas[j])` for every ordered pair, including the
    /// diagonal.
    ///
    /// This is the schema-evolution workload the session layer exists for:
    /// each schema's shape graph, classification, and unfolder are built
    /// once and reused across all `N - 1` partners, instead of once per pair
    /// as `N²` one-shot calls would, and every cell's answer is memoised. The
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
    /// containment for `DetShEx₀⁻` (Corollary 4.4), which is the
    /// [`ContainmentEngine::check`] answer behind the `DetShEx₀⁻` class gate.
    pub fn det(&self, h: &Schema, k: &Schema) -> Result<Containment, NotDetShex0Minus> {
        let (h, k) = (self.register(h), self.register(k));
        let entries = self.entries(&[h, k]);
        require_det_minus(&entries[0])?;
        require_det_minus(&entries[1])?;
        Ok(self.verdict(h, k, &entries[0], &entries[1], None))
    }

    /// Search for a certified counter-example to `L(H) ⊆ L(K)` — the
    /// session equivalent of [`crate::unfold::search_counter_example`],
    /// over the schemas' shared unfolders.
    pub fn counter_example(&self, h: &Schema, k: &Schema) -> Option<Graph> {
        let h = self.register(h);
        let k = self.register(k);
        let entries = self.entries(&[h, k]);
        self.search(&entries[0], &entries[1], None)
            .counter_example()
            .cloned()
    }

    /// Compute the answer for the pair `(h, k)` with the strongest procedure
    /// for its class. A pair whose entries both hold a shape graph (`ShEx₀`)
    /// goes to embedding (§3), then the characterizing graph when both sides
    /// are `DetShEx₀⁻` (Lemma 4.2), then the type-set fixpoint (§5), and to
    /// the bounded search only over the fixpoint's work bound. A pair with a
    /// full ShEx side goes to the type-simulation sufficient check and then
    /// the bounded search (§6).
    fn answer(
        &self,
        h: &SchemaEntry,
        k: &SchemaEntry,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        match (&h.shape_graph, &k.shape_graph) {
            (Some(hg), Some(kg)) => {
                EngineCounters::tick(&self.counters.embed_misses);
                if embeds(hg, kg).is_some() {
                    return Containment::Contained;
                }
                if h.class == SchemaClass::DetShEx0Minus && k.class == SchemaClass::DetShEx0Minus {
                    return Containment::NotContained(
                        self.characterizing(h).expect("checked DetShEx0-"),
                    );
                }
                if let Some(answer) = fixpoint::decide(&h.schema, &k.schema, cancel) {
                    EngineCounters::tick(if is_deadline(&answer) {
                        &self.counters.cancelled_branches
                    } else {
                        &self.counters.fixpoint_decided
                    });
                    return answer;
                }
                EngineCounters::tick(&self.counters.fixpoint_over_budget);
            }
            _ => {
                let sufficient = self.exhaustive_bags_cached(h).is_some_and(|bags| {
                    type_simulation_with_bags(&h.schema, &bags, &k.schema, Some(&*self.telemetry))
                });
                if sufficient {
                    return Containment::Contained;
                }
            }
        }
        self.search(h, k, cancel)
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
            self.budget
                .charge(CacheKind::Pinned, graph.approx_heap_bytes() as u64);
        }
        Ok(graph.clone())
    }

    /// The exhaustive bag enumeration of `entry`'s schema for the general
    /// sufficient check, built once and shared by every partner.
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

    /// The bounded counter-example search over registered schemas: the pools
    /// of every root, depth by depth, under the shared `max_candidates`
    /// budget. Each pool comes straight from `h`'s unfolder, and each
    /// distinct candidate is validated against `k` once per search.
    ///
    /// Candidate order — and therefore the returned witness — is exactly
    /// that of [`crate::baseline::search_counter_example_baseline`].
    fn search(
        &self,
        h: &SchemaEntry,
        k: &SchemaEntry,
        cancel: Option<&CancelToken>,
    ) -> Containment {
        let opts = &self.options.search;
        let mut examined = 0usize;
        let mut checked = 0usize;
        let mut scratch = ValidateScratch::with_telemetry(Some(self.telemetry.clone()));
        // The candidates this search has validated, by address. The
        // depth-cumulative pools share their graphs, so most candidates
        // come round again; holding each `Arc` keeps its address from being
        // reused even if a sweep resets the unfolder mid-search. (An invalid
        // candidate ends the search, so only valid ones are recorded.)
        let mut valid: HashMap<*const Graph, Arc<Graph>> = HashMap::new();
        let answer = 'search: {
            for root in h.schema.types() {
                for depth in 1..=opts.max_depth {
                    let Some(pool) = self.pool(h, root, depth, cancel) else {
                        // The pool build itself observed the expired token.
                        let token = cancel.expect("only a token cancels a pool");
                        break 'search Containment::deadline_exceeded(token.elapsed());
                    };
                    // The baseline increments `examined` per candidate and
                    // abandons the pool once the count exceeds the budget,
                    // so at most this many candidates of the pool get
                    // validated:
                    for graph in &pool {
                        // The per-candidate cancellation checkpoint: one
                        // poll (and one armed fault site) per candidate
                        // bounds the interval between an expiry and its
                        // observation by one validation.
                        faults::trigger(faults::site::SOLVER_BRANCH);
                        if let Some(token) = cancel.filter(|token| token.fired()) {
                            EngineCounters::tick(&self.counters.cancelled_branches);
                            break 'search Containment::deadline_exceeded(token.elapsed());
                        }
                        examined += 1;
                        if examined > opts.max_candidates {
                            break;
                        }
                        checked += 1;
                        match valid.entry(Arc::as_ptr(graph)) {
                            Entry::Occupied(_) => {
                                EngineCounters::tick(&self.counters.validate_hits);
                            }
                            Entry::Vacant(slot) => {
                                EngineCounters::tick(&self.counters.validate_misses);
                                if !validates_with(graph, &k.schema, &mut scratch) {
                                    // A certified counter-example: the pool
                                    // member itself, shared.
                                    break 'search Containment::NotContained(Arc::clone(graph));
                                }
                                slot.insert(Arc::clone(graph));
                            }
                        }
                    }
                }
            }
            if checked == 0 {
                Containment::not_supported()
            } else {
                Containment::budget_exhausted(checked, opts.max_depth)
            }
        };
        // Whatever the unfolder just grew, bring the evictable total back
        // under budget before the query returns.
        self.maybe_evict();
        answer
    }

    /// The pool of members of `h` unfolded from `root` up to `depth`,
    /// taken straight from the entry's [`Unfolder`] under its lock. The
    /// unfolder's `(type, depth)` tree memos make the depth-cumulative pools
    /// share every subtree and every candidate graph. `None` = the token
    /// fired mid-enumeration (completed subtree memos inside the arena stay
    /// — they are identical to an uncancelled prefix's).
    fn pool(
        &self,
        h: &SchemaEntry,
        root: TypeId,
        depth: usize,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Arc<Graph>>> {
        let scoped = SearchOptions {
            max_depth: depth,
            ..self.options.search.clone()
        };
        let mut unfolder = lock_or_recover(&h.unfolder);
        let extent = unfolder.extent();
        let held = unfolder.holds(root, depth);
        EngineCounters::tick(if held {
            &self.counters.pool_hits
        } else {
            &self.counters.pools_built
        });
        let pool = unfolder.members(&h.schema, root, &scoped, cancel);
        h.unfolder_stamp
            .store(self.budget.touch(), Ordering::Relaxed);
        // A held pool may still build graphs: its trees were enumerated as
        // children of another root's, whose graphs alone were built.
        if unfolder.extent() != extent {
            self.sync_unfolder_bytes(h, &unfolder);
        }
        drop(unfolder);
        if pool.is_none() {
            EngineCounters::tick(&self.counters.cancelled_branches);
        }
        pool
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
    /// unfolder locks to reset stale ones, and the mutex is not reentrant.
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

    /// One epoch-LRU sweep: collect `(stamp, bytes)` over every memoised
    /// answer and every unfolder, pick the cutoff stamp that frees enough to
    /// reach the low-water mark (half the limit), and drop everything at or
    /// below it. A dropped unfolder is reset wholesale — its arena is memo
    /// state that rebuilds deterministically (same node names, same pools),
    /// so the reset is invisible to verdicts and witnesses.
    ///
    /// Locks are taken one cache at a time, never an unfolder lock while
    /// holding another cache lock, so concurrent queries at worst block
    /// briefly on one cache.
    fn sweep_once(&self, limit: u64) {
        let entries = self.all_entries();
        let mut stamped: Vec<(u64, u64)> = entries
            .iter()
            .map(|entry| {
                (
                    entry.unfolder_stamp.load(Ordering::Relaxed),
                    entry.unfolder_bytes.load(Ordering::Relaxed),
                )
            })
            .filter(|&(_, bytes)| bytes > 0)
            .collect();
        self.answers.collect_stamps(&mut stamped);
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
            // (or there is nothing stamped); fall through to the caller's
            // next attempt.
            self.budget.record_sweep(0, 0);
            return;
        }
        let (mut evicted, mut freed) = self.answers.evict(cutoff, &self.budget);
        for entry in &entries {
            let (entries, bytes) = self.reset_unfolder(entry, cutoff);
            evicted += entries;
            freed += bytes;
        }
        self.budget.record_sweep(evicted, freed);
    }

    /// The sweep-of-last-resort: drop every memoised answer and reset every
    /// unfolder. Run when two LRU sweeps could not get back under the limit
    /// (a budget smaller than one unfolder, say) — the invariant wins over
    /// cache warmth.
    fn clear_evictable(&self) {
        let (mut evicted, mut freed) = self.answers.evict(u64::MAX, &self.budget);
        for entry in &self.all_entries() {
            let (entries, bytes) = self.reset_unfolder(entry, u64::MAX);
            evicted += entries;
            freed += bytes;
        }
        self.budget.record_sweep(evicted, freed);
    }

    /// Every registered entry, cloned out of the registry lock.
    fn all_entries(&self) -> Vec<Arc<SchemaEntry>> {
        read_or_recover(&self.registry).schemas.clone()
    }

    /// Replace an entry's unfolder with a fresh one reporting to the same
    /// telemetry when its stamp is at or below `cutoff` (checked under the
    /// lock, so a search that just used it keeps it), crediting its bytes.
    /// Returns `(entries, bytes)` freed.
    fn reset_unfolder(&self, entry: &SchemaEntry, cutoff: u64) -> (u64, u64) {
        if entry.unfolder_stamp.load(Ordering::Relaxed) > cutoff {
            return (0, 0);
        }
        let mut unfolder = lock_or_recover(&entry.unfolder);
        if entry.unfolder_stamp.load(Ordering::Relaxed) > cutoff {
            return (0, 0);
        }
        let before = entry.unfolder_bytes.swap(0, Ordering::Relaxed);
        if before == 0 {
            return (0, 0);
        }
        *unfolder = Unfolder::with_telemetry(self.telemetry.clone());
        self.budget.credit(CacheKind::Unfolder, before);
        (1, before)
    }
}

/// Whether an answer is a deadline verdict — the one kind never memoised.
fn is_deadline(answer: &Containment) -> bool {
    matches!(
        answer.unknown_reason(),
        Some(crate::UnknownReason::DeadlineExceeded { .. })
    )
}

/// The accounted weight of `answer` as a memo entry of `h`'s pair: the
/// entry's fixed cost plus its witness, unless the witness is `h`'s
/// characterizing graph, which is pinned already.
fn entry_bytes(h: &SchemaEntry, answer: &Containment) -> u64 {
    let witness = match (answer, h.characterizing.get()) {
        (Containment::NotContained(witness), Some(pinned)) if Arc::ptr_eq(witness, pinned) => 0,
        (Containment::NotContained(witness), _) => witness.approx_heap_bytes() as u64,
        _ => 0,
    };
    PAIR_ENTRY_BYTES + witness
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
/// full expression tree through the derived `Hash`, which writes each
/// constructor's variant first, so degenerate wrappers stay distinct —
/// `Disj([e])` hashes differently from plain `e`. Registration verifies
/// bucket hits with [`same_schema_structure`], so the hash only routes
/// lookups; computing it allocates nothing.
fn schema_hash(schema: &Schema) -> u64 {
    let mut hasher = DefaultHasher::new();
    schema.type_count().hash(&mut hasher);
    for t in schema.types() {
        schema.type_name(t).hash(&mut hasher);
        schema.def(t).hash(&mut hasher);
    }
    hasher.finish()
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
    fn a_schema_with_a_non_basic_interval_pins_no_shape_graph() {
        // RBE₀ in shape, but `[2;3]` is not a basic interval: the class is
        // `ShEx`, so the entry holds no shape graph and pins only its shell
        // and its schema, and the pair goes to the sufficient check.
        let s = parse_schema("T -> p::L[2;3]\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        let entry = engine.entry(engine.register(&s));
        assert_eq!(entry.class, SchemaClass::ShEx);
        assert!(entry.shape_graph.is_none());
        let shell = std::mem::size_of::<SchemaEntry>();
        assert_eq!(
            engine.stats().pinned_bytes,
            (shell + entry.schema.approx_heap_bytes()) as u64
        );
        assert!(engine.check(&s, &s).is_contained());
        assert_eq!(engine.stats().embed_misses, 0);
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
        // settle: the bounded search exhausts its budget without a witness.
        // The second identical query is answered from the memo — one memo
        // hit, and not a single pool, lookup or validation more.
        let groups = choice_groups(4);
        let engine = quick_engine();
        let first = engine.check(&groups, &groups);
        let cold = engine.stats();
        assert!(first.is_unknown(), "{first}");
        assert!(cold.pools_built > 0, "{cold}");
        assert!(cold.validate_misses > 0, "{cold}");
        assert!(
            cold.validate_hits > 0,
            "the depth-cumulative pools repeat candidates within one search: {cold}"
        );
        assert_eq!(cold.memo_hits, 0, "{cold}");
        let second = engine.check(&groups, &groups);
        let warm = engine.stats();
        assert_eq!(warm.memo_hits, 1, "{warm}");
        assert_eq!(warm.pools_built, cold.pools_built, "{warm}");
        assert_eq!(warm.pool_hits, cold.pool_hits, "{warm}");
        assert_eq!(warm.validate_misses, cold.validate_misses, "{warm}");
        assert_eq!(format!("{first}"), format!("{second}"));
        // A new partner of the same schema re-walks its unfolder: every pool
        // is held, none is built again.
        let five = choice_groups(5);
        let _ = engine.check(&groups, &five);
        let partner = engine.stats();
        assert_eq!(partner.pools_built, cold.pools_built, "{partner}");
        assert!(partner.pool_hits > cold.pool_hits, "{partner}");
    }

    #[test]
    fn graphs_built_for_a_held_pool_are_charged() {
        // `(Root, 2)` enumerates `(A, 1)` as a child but builds only Root's
        // graphs (its three-node tree is over the size cap). The `(A, 1)`
        // pool is then held, yet its graphs are built now, and `A -a-> L`
        // refutes: the search ends on a pool that grew the unfolder without
        // enumerating anything, and the ledger must still match it.
        let h = parse_schema("Root -> p::A\nA -> a::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("S -> p::E\nE -> EMPTY\n").unwrap();
        let engine = ContainmentEngine::with_search(SearchOptions {
            max_depth: 2,
            max_graph_nodes: 2,
            ..SearchOptions::quick()
        });
        let witness = engine.counter_example(&h, &k).expect("A -a-> L refutes");
        assert!(validates(&witness, &h) && !validates(&witness, &k));
        let stats = engine.stats();
        assert!(stats.pool_hits > 0, "the refuting pool was held: {stats}");
        let entry = engine.entry(engine.register(&h));
        let resident = lock_or_recover(&entry.unfolder).approx_heap_bytes() as u64;
        assert_eq!(entry.unfolder_bytes.load(Ordering::Relaxed), resident);
        assert_eq!(stats.unfolder_bytes, resident, "{stats}");
    }

    #[test]
    fn stats_display_reports_ratios() {
        let stats = EngineStats {
            schemas: 2,
            memo_hits: 9,
            validate_hits: 3,
            validate_misses: 1,
            embed_misses: 2,
            pool_hits: 3,
            pools_built: 1,
            pair_bytes: 100,
            unfolder_bytes: 30,
            pinned_bytes: 500,
            fixpoint_decided: 4,
            fixpoint_over_budget: 1,
            ..EngineStats::default()
        };
        assert_eq!(stats.evictable_bytes(), 130);
        assert_eq!(stats.resident_bytes(), 630);
        let text = format!("{stats}");
        assert!(
            text.contains("2 schemas; 9 memo hits; 2 embeddings"),
            "{text}"
        );
        assert!(
            text.contains("pools 3 held / 1 built (75.0% held)"),
            "{text}"
        );
        assert!(text.contains("validations 1 run / 3 repeats"), "{text}");
        assert!(
            text.contains("130 B evictable (pairs 100, unfolder 30)"),
            "{text}"
        );
        assert!(text.contains("budget unbounded"), "{text}");
        assert!(
            text.contains("fixpoint 4 decided / 1 over budget"),
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
        assert_eq!(cold.memo_hits, 0, "{cold}");
        assert_eq!(cold.embed_misses, 1, "{cold}");
        assert!(cold.pair_bytes > 0, "the answer is accounted: {cold}");
        // The fixpoint is the whole procedure: the cold check unfolds no
        // pool and validates no candidate.
        assert_eq!(cold.pools_built, 0, "{cold}");
        assert_eq!(cold.pool_hits, 0, "{cold}");
        assert_eq!(cold.validate_misses, 0, "{cold}");
        assert!(engine.check(&original, &split).is_contained());
        let warm = engine.stats();
        assert_eq!(warm.memo_hits, 1, "{warm}");
        assert_eq!(warm.fixpoint_decided, 1, "{warm}");
        assert_eq!(
            warm.embed_misses, 1,
            "the memo answers before embedding: {warm}"
        );

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
        assert_eq!(engine.stats().memo_hits, 2);
        match (&refuted, &again) {
            (Containment::NotContained(a), Containment::NotContained(b)) => {
                assert!(Arc::ptr_eq(a, b), "the repeat shares the memoised witness")
            }
            _ => panic!("expected two refutations, got {refuted} and {again}"),
        }
    }

    #[test]
    fn det_is_the_memoised_check_behind_its_class_gate() {
        let via_p = parse_schema("T -> p::L\nL -> EMPTY\n").unwrap();
        let via_q = parse_schema("T -> q::L\nL -> EMPTY\n").unwrap();
        let plus = parse_schema("T -> p::L+\nL -> EMPTY\n").unwrap();
        let engine = quick_engine();
        // `+` is outside DetShEx0-, so the gate refuses that pair.
        assert!(engine.det(&via_p, &plus).is_err());
        let refuted = engine.det(&via_p, &via_q).expect("both DetShEx0-");
        let (p, q) = (engine.register(&via_p), engine.register(&via_q));
        let checked = engine.check_ids(p, q, None);
        assert!(refuted.is_not_contained(), "{refuted}");
        match (&refuted, &checked) {
            (Containment::NotContained(a), Containment::NotContained(b)) => {
                assert!(Arc::ptr_eq(a, b), "one memoised answer for both routes")
            }
            _ => panic!("expected two refutations, got {refuted} and {checked}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.memo_hits, 1, "{stats}");
        assert_eq!(
            stats.pair_bytes, PAIR_ENTRY_BYTES,
            "the pinned characterizing graph is not charged twice: {stats}"
        );
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
    fn admission_ceiling_keeps_oversized_answers_out_of_the_memo() {
        let h = parse_schema("Root -> p::A, p::B\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("Root -> p::A, p::A\nA -> a::L?\nB -> b::L?\nL -> EMPTY\n").unwrap();
        let unbounded = quick_engine();
        // A 32-byte ceiling refuses even the 64-byte answer entries: nothing
        // is memoised, and the verdicts are unchanged.
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
        assert_eq!(stats.pair_bytes, 0, "no answer admitted: {stats}");
        assert_eq!(stats.memo_hits, 0, "an empty memo never answers: {stats}");
        let text = format!("{stats}");
        assert!(text.contains("admission ceiling 32 B"), "{text}");
        assert_eq!(unbounded.stats().admission_rejections, 0);
        assert_eq!(unbounded.stats().memo_hits, 2);
    }
}
