//! Cache accounting and eviction for the [`crate::engine`]: the
//! `CacheBudget`/[`Weigh`] seam.
//!
//! Every cache the engine grew in the session-layer PRs — enumerated
//! unfolding pools, candidate-validation memos, the sharded pair memos, the
//! per-schema [`crate::unfold::Unfolder`] arenas — is a pure memo: dropping
//! an entry can never change a verdict, only cost a recomputation. That
//! makes bounded memory a pure accounting problem, and this module is the
//! ledger:
//!
//! * [`Weigh`] assigns every cached value an **accounted byte weight** — a
//!   deliberate *approximation* of its heap footprint (capacities times
//!   element sizes plus fixed per-container overheads). Structurally shared
//!   allocations (`Arc`ed candidate graphs appear in pools *and* in the
//!   unfolder that built them) are counted by every holder, so the accounted
//!   total over-estimates the true resident set; the budget therefore bounds
//!   a conservative upper bound, never an undercount.
//! * [`CacheBudget`] holds the knobs ([`CacheBudget::limit`], `None` =
//!   unbounded — the default, and the zero-overhead path; plus the
//!   per-entry admission ceiling [`CacheBudget::max_entry_bytes`] that
//!   refuses to cache any single oversized value before it can displace the
//!   working set), the per-kind resident-byte atomics, the LRU clock, and
//!   the eviction counters that [`crate::engine::EngineStats`] surfaces.
//!
//! The engine charges the ledger on every insert, stamps every entry with
//! the clock on every hit, and — when the evictable total exceeds the limit
//! — runs an **epoch-LRU sweep**: collect all `(stamp, bytes)` pairs, pick
//! the cutoff stamp that frees enough to reach the low-water mark (half the
//! limit, for hysteresis), and drop every entry at or below it. One-shot
//! `OnceLock` caches (characterizing graphs, exhaustive bag enumerations)
//! and the registered schemas themselves are **exempt but counted**: they appear as [`CacheKind::Pinned`] bytes in the stats so a
//! capacity planner sees the whole footprint, but a sweep never touches
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The accounting category of a cached value. Every kind except
/// [`CacheKind::Pinned`] is evictable and counts against the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// Enumerated `(root, depth)` unfolding pools.
    Pools,
    /// Candidate-validation verdict memos.
    Validate,
    /// The sharded `(schema, schema)` pair memos (embeds / sufficient).
    Pairs,
    /// The per-schema unfolding sessions (tree arenas + built graphs);
    /// reclaimed wholesale when a schema's pools have all been evicted.
    Unfolder,
    /// The session-wide candidate-bag enumerations shared across schemas
    /// (the [`crate::unfold::SharedBagCache`]).
    Bags,
    /// One-shot caches, registered schemas, and the session atom table:
    /// counted, never evicted.
    Pinned,
}

/// The evictable categories, in stats-reporting order.
const EVICTABLE: [CacheKind; 5] = [
    CacheKind::Pools,
    CacheKind::Validate,
    CacheKind::Pairs,
    CacheKind::Unfolder,
    CacheKind::Bags,
];

impl CacheKind {
    fn index(self) -> usize {
        match self {
            CacheKind::Pools => 0,
            CacheKind::Validate => 1,
            CacheKind::Pairs => 2,
            CacheKind::Unfolder => 3,
            CacheKind::Bags => 4,
            CacheKind::Pinned => 5,
        }
    }
}

/// Approximate heap footprint of a cached value, in bytes.
///
/// Implementations estimate: exact sizes are unobservable without allocator
/// hooks, and the budget only needs a consistent, conservative measure. A
/// weight may drift as lazy structures fill in, so the engine records the
/// weight it charged next to each cache entry and credits exactly that
/// recorded amount on eviction — the ledger always balances.
pub trait Weigh {
    /// The accounted byte weight (heap allocations only; the inline `self`
    /// is the container's business).
    fn weight_bytes(&self) -> u64;
}

impl Weigh for shapex_graph::Graph {
    fn weight_bytes(&self) -> u64 {
        self.approx_heap_bytes() as u64
    }
}

impl Weigh for shapex_shex::Schema {
    fn weight_bytes(&self) -> u64 {
        self.approx_heap_bytes() as u64
    }
}

/// The engine's cache ledger: budget knob, resident-byte accounting, LRU
/// clock, and eviction telemetry. All counters are atomics — charging,
/// crediting, and stamping happen on `&self` from any thread; only the
/// sweep itself is serialised (through [`CacheBudget::sweeper`]).
#[derive(Debug)]
pub struct CacheBudget {
    /// Accounted-byte ceiling for the evictable caches; `None` disables
    /// eviction entirely (charges still accumulate, so stats stay honest).
    limit: Option<u64>,
    /// Per-entry admission ceiling: a single cache entry heavier than this
    /// is never cached at all (`None` admits everything). Eviction alone
    /// cannot protect the working set from one oversized pool or memo — it
    /// only reacts *after* the giant entry has already displaced everything
    /// else, so admission refuses it up front.
    max_entry_bytes: Option<u64>,
    /// The LRU clock: ticks on every cache hit and insert. Stamps are
    /// compared only for ordering, so relaxed increments are enough.
    clock: AtomicU64,
    /// Resident accounted bytes per [`CacheKind`] (last slot = pinned).
    resident: [AtomicU64; 6],
    /// Entries evicted over the engine's lifetime.
    evictions: AtomicU64,
    /// Accounted bytes freed by eviction over the engine's lifetime.
    evicted_bytes: AtomicU64,
    /// Eviction sweeps run.
    sweeps: AtomicU64,
    /// Entries refused by the admission policy over the engine's lifetime.
    admission_rejections: AtomicU64,
    /// Serialises sweeps: one thread walks the caches while the others keep
    /// querying (they block here only if they themselves went over budget).
    sweeper: Mutex<()>,
}

impl CacheBudget {
    /// A ledger with the given evictable-byte ceiling (`None` = unbounded)
    /// and no per-entry admission ceiling.
    pub fn new(limit: Option<u64>) -> CacheBudget {
        CacheBudget::with_admission(limit, None)
    }

    /// A ledger with both knobs: the evictable-byte ceiling and the
    /// per-entry admission ceiling (each `None` = unbounded).
    pub fn with_admission(limit: Option<u64>, max_entry_bytes: Option<u64>) -> CacheBudget {
        CacheBudget {
            limit,
            max_entry_bytes,
            clock: AtomicU64::new(0),
            resident: std::array::from_fn(|_| AtomicU64::new(0)),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            sweeper: Mutex::new(()),
        }
    }

    /// The configured ceiling, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// The configured per-entry admission ceiling, if any.
    pub fn max_entry_bytes(&self) -> Option<u64> {
        self.max_entry_bytes
    }

    /// Whether an entry weighing `bytes` may be cached at all. `false`
    /// (counted in [`CacheBudget::admission_rejections`]) means the caller
    /// must still *use* the computed value — only the caching is refused.
    pub fn admits(&self, bytes: u64) -> bool {
        match self.max_entry_bytes {
            Some(ceiling) if bytes > ceiling => {
                self.admission_rejections.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => true,
        }
    }

    /// Advance the LRU clock and return the new stamp (always ≥ 1, so a
    /// zero cutoff means "evict nothing").
    pub fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Account `bytes` of freshly cached data under `kind`.
    pub fn charge(&self, kind: CacheKind, bytes: u64) {
        self.resident[kind.index()].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` of removed cached data under `kind` to the ledger.
    pub fn credit(&self, kind: CacheKind, bytes: u64) {
        // Saturating: a racing snapshot may observe a transient imbalance,
        // but the ledger itself only moves by paired charge/credit amounts.
        let _ =
            self.resident[kind.index()].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Resident accounted bytes of one category.
    pub fn resident(&self, kind: CacheKind) -> u64 {
        self.resident[kind.index()].load(Ordering::Relaxed)
    }

    /// Resident accounted bytes across every evictable category — the
    /// number the budget bounds.
    pub fn evictable(&self) -> u64 {
        EVICTABLE.iter().map(|&k| self.resident(k)).sum()
    }

    /// Whether the evictable total currently exceeds the limit.
    pub fn over_budget(&self) -> bool {
        match self.limit {
            Some(limit) => self.evictable() > limit,
            None => false,
        }
    }

    /// The sweep serialisation lock (the engine's eviction path holds it for
    /// the duration of one sweep).
    pub fn sweeper(&self) -> &Mutex<()> {
        &self.sweeper
    }

    /// Record the outcome of one sweep: `entries` cache records freed,
    /// `bytes` accounted bytes returned. (The per-kind `credit`s happen at
    /// the removal sites; this only feeds the telemetry counters.)
    pub fn record_sweep(&self, entries: u64, bytes: u64) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(entries, Ordering::Relaxed);
        self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Accounted bytes freed by eviction so far.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    /// Sweeps run so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Entries refused by the admission policy so far.
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_charges_and_credits() {
        let budget = CacheBudget::new(Some(100));
        budget.charge(CacheKind::Pools, 60);
        budget.charge(CacheKind::Validate, 50);
        budget.charge(CacheKind::Pinned, 1_000);
        assert_eq!(budget.evictable(), 110, "pinned bytes are not evictable");
        assert!(budget.over_budget());
        budget.credit(CacheKind::Validate, 50);
        assert_eq!(budget.evictable(), 60);
        assert!(!budget.over_budget());
        assert_eq!(budget.resident(CacheKind::Pinned), 1_000);
        budget.charge(CacheKind::Bags, 30);
        assert_eq!(budget.evictable(), 90, "bag-cache bytes are evictable");
    }

    #[test]
    fn unbounded_ledger_is_never_over_budget() {
        let budget = CacheBudget::new(None);
        budget.charge(CacheKind::Pairs, u64::MAX / 2);
        assert!(!budget.over_budget());
        assert_eq!(budget.limit(), None);
    }

    #[test]
    fn clock_stamps_are_strictly_increasing_and_nonzero() {
        let budget = CacheBudget::new(Some(1));
        let a = budget.touch();
        let b = budget.touch();
        assert!(a >= 1);
        assert!(b > a);
    }

    #[test]
    fn admission_refuses_only_oversized_entries() {
        let budget = CacheBudget::with_admission(Some(1_000), Some(64));
        assert!(budget.admits(64), "at the ceiling is still admitted");
        assert!(!budget.admits(65));
        assert!(budget.admits(1));
        assert_eq!(budget.admission_rejections(), 1);
        assert_eq!(budget.max_entry_bytes(), Some(64));
    }

    #[test]
    fn default_admission_is_unbounded() {
        let budget = CacheBudget::new(Some(8));
        assert!(budget.admits(u64::MAX));
        assert_eq!(budget.admission_rejections(), 0);
        assert_eq!(budget.max_entry_bytes(), None);
    }

    #[test]
    fn credits_saturate_instead_of_wrapping() {
        let budget = CacheBudget::new(Some(10));
        budget.charge(CacheKind::Pools, 5);
        budget.credit(CacheKind::Pools, 50);
        assert_eq!(budget.resident(CacheKind::Pools), 0);
    }
}
