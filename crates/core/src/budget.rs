//! Cache accounting and eviction for the [`crate::engine`]: its private
//! ledger.
//!
//! Both evictable caches of the engine — the sharded memo of completed
//! answers and the per-schema [`crate::unfold::Unfolder`] arenas — are pure
//! memos: dropping an entry can never change a verdict, only cost a
//! recomputation. That makes bounded memory a pure accounting problem, and
//! this module is the ledger:
//!
//! * Every cached value is charged an **accounted byte weight**: its
//!   `approx_heap_bytes`, a deliberate *approximation* of its heap footprint
//!   (capacities times element sizes plus fixed per-container overheads).
//!   Exact sizes are unobservable without allocator hooks, and a weight may
//!   drift as lazy structures fill in, so the engine records the weight it
//!   charged next to each cache entry and credits exactly that amount on
//!   eviction — the ledger always balances. Structurally shared allocations
//!   (an `Arc`ed candidate graph can be a memoised witness *and* live in the
//!   unfolder that built it) are counted by every holder, so the accounted
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
//! the clock on every use (one stamp per answer, one per unfolder), and —
//! when the evictable total exceeds the limit — runs an **epoch-LRU
//! sweep**: collect all `(stamp, bytes)` pairs, pick the cutoff stamp that
//! frees enough to reach the low-water mark (half the limit, for
//! hysteresis), and drop every entry at or below it. One-shot `OnceLock`
//! caches (characterizing graphs, exhaustive bag enumerations) and the
//! registered schemas themselves are **exempt but counted**: they appear as
//! [`CacheKind::Pinned`] bytes in the stats so a capacity planner sees the
//! whole footprint, but a sweep never touches them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The accounting category of a cached value. Every kind except
/// [`CacheKind::Pinned`] is evictable and counts against the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheKind {
    /// The sharded `(schema, schema)` memo of completed answers, witnesses
    /// included.
    Pairs,
    /// The per-schema unfolding sessions (tree arenas + built graphs);
    /// reset wholesale when their LRU stamp falls behind a sweep's cutoff.
    Unfolder,
    /// One-shot caches and registered schemas: counted, never evicted.
    Pinned,
}

/// The evictable categories, in stats-reporting order.
const EVICTABLE: [CacheKind; 2] = [CacheKind::Pairs, CacheKind::Unfolder];

/// The engine's cache ledger: budget knob, resident-byte accounting, LRU
/// clock, and eviction telemetry. All counters are atomics — charging,
/// crediting, and stamping happen on `&self` from any thread; only the
/// sweep itself is serialised (through [`CacheBudget::sweeper`]).
#[derive(Debug)]
pub(crate) struct CacheBudget {
    /// Accounted-byte ceiling for the evictable caches; `None` disables
    /// eviction entirely (charges still accumulate, so stats stay honest).
    limit: Option<u64>,
    /// Per-entry admission ceiling: a single cache entry heavier than this
    /// is never cached at all (`None` admits everything). Eviction alone
    /// cannot protect the working set from one oversized entry — it only
    /// reacts *after* the giant entry has already displaced everything
    /// else, so admission refuses it up front.
    max_entry_bytes: Option<u64>,
    /// The LRU clock: ticks on every cache hit and insert. Stamps are
    /// compared only for ordering, so relaxed increments are enough.
    clock: AtomicU64,
    /// Resident accounted bytes per [`CacheKind`], indexed by its
    /// discriminant (last slot = pinned).
    resident: [AtomicU64; 3],
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
    /// A ledger with both knobs: the evictable-byte ceiling and the
    /// per-entry admission ceiling (each `None` = unbounded).
    pub(crate) fn new(limit: Option<u64>, max_entry_bytes: Option<u64>) -> CacheBudget {
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
    pub(crate) fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// The configured per-entry admission ceiling, if any.
    pub(crate) fn max_entry_bytes(&self) -> Option<u64> {
        self.max_entry_bytes
    }

    /// Whether an entry weighing `bytes` may be cached at all. `false`
    /// (counted in [`CacheBudget::admission_rejections`]) means the caller
    /// must still *use* the computed value — only the caching is refused.
    pub(crate) fn admits(&self, bytes: u64) -> bool {
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
    pub(crate) fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Account `bytes` of freshly cached data under `kind`.
    pub(crate) fn charge(&self, kind: CacheKind, bytes: u64) {
        self.resident[kind as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` of removed cached data under `kind` to the ledger.
    pub(crate) fn credit(&self, kind: CacheKind, bytes: u64) {
        // Saturating: a racing snapshot may observe a transient imbalance,
        // but the ledger itself only moves by paired charge/credit amounts.
        let _ =
            self.resident[kind as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Resident accounted bytes of one category.
    pub(crate) fn resident(&self, kind: CacheKind) -> u64 {
        self.resident[kind as usize].load(Ordering::Relaxed)
    }

    /// Resident accounted bytes across every evictable category — the
    /// number the budget bounds.
    pub(crate) fn evictable(&self) -> u64 {
        EVICTABLE.iter().map(|&k| self.resident(k)).sum()
    }

    /// Whether the evictable total currently exceeds the limit.
    pub(crate) fn over_budget(&self) -> bool {
        match self.limit {
            Some(limit) => self.evictable() > limit,
            None => false,
        }
    }

    /// The sweep serialisation lock (the engine's eviction path holds it for
    /// the duration of one sweep).
    pub(crate) fn sweeper(&self) -> &Mutex<()> {
        &self.sweeper
    }

    /// Record the outcome of one sweep: `entries` cache records freed,
    /// `bytes` accounted bytes returned. (The per-kind `credit`s happen at
    /// the removal sites; this only feeds the telemetry counters.)
    pub(crate) fn record_sweep(&self, entries: u64, bytes: u64) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(entries, Ordering::Relaxed);
        self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Entries evicted so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Accounted bytes freed by eviction so far.
    pub(crate) fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    /// Sweeps run so far.
    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Entries refused by the admission policy so far.
    pub(crate) fn admission_rejections(&self) -> u64 {
        self.admission_rejections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_charges_and_credits() {
        let budget = CacheBudget::new(Some(100), None);
        budget.charge(CacheKind::Pairs, 60);
        budget.charge(CacheKind::Unfolder, 50);
        budget.charge(CacheKind::Pinned, 1_000);
        assert_eq!(budget.evictable(), 110, "pinned bytes are not evictable");
        assert!(budget.over_budget());
        budget.credit(CacheKind::Unfolder, 50);
        assert_eq!(budget.evictable(), 60);
        assert!(!budget.over_budget());
        assert_eq!(budget.resident(CacheKind::Pinned), 1_000);
        assert_eq!(budget.resident(CacheKind::Pairs), 60);
    }

    #[test]
    fn unbounded_ledger_is_never_over_budget() {
        let budget = CacheBudget::new(None, None);
        budget.charge(CacheKind::Pairs, u64::MAX / 2);
        assert!(!budget.over_budget());
        assert_eq!(budget.limit(), None);
    }

    #[test]
    fn clock_stamps_are_strictly_increasing_and_nonzero() {
        let budget = CacheBudget::new(Some(1), None);
        let a = budget.touch();
        let b = budget.touch();
        assert!(a >= 1);
        assert!(b > a);
    }

    #[test]
    fn admission_refuses_only_oversized_entries() {
        let budget = CacheBudget::new(Some(1_000), Some(64));
        assert!(budget.admits(64), "at the ceiling is still admitted");
        assert!(!budget.admits(65));
        assert!(budget.admits(1));
        assert_eq!(budget.admission_rejections(), 1);
        assert_eq!(budget.max_entry_bytes(), Some(64));
    }

    #[test]
    fn default_admission_is_unbounded() {
        let budget = CacheBudget::new(Some(8), None);
        assert!(budget.admits(u64::MAX));
        assert_eq!(budget.admission_rejections(), 0);
        assert_eq!(budget.max_entry_bytes(), None);
    }

    #[test]
    fn credits_saturate_instead_of_wrapping() {
        let budget = CacheBudget::new(Some(10), None);
        budget.charge(CacheKind::Pairs, 5);
        budget.credit(CacheKind::Pairs, 50);
        assert_eq!(budget.resident(CacheKind::Pairs), 0);
    }
}
