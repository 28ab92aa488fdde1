//! Cooperative cancellation and deadline tokens for long-running searches.
//!
//! The paper's decision procedures are intrinsically expensive (EXP-hard for
//! ShEx₀, coNEXP-hard in general), so every long-running loop in the
//! stack polls a [`CancelToken`] at bounded checkpoint intervals: the
//! [`crate::Solver`] of this crate (one flag load per search node, one clock
//! read every 256 nodes), the typing fixpoints of `shapex-shex` (once per
//! node per sweep), and the candidate enumeration and counter-example search
//! of `shapex-core` (once per candidate) and its type-set fixpoint (once per
//! 64 enumeration steps). The token lives here, in the lowest
//! crate that polls it, so every layer shares one type; `shapex-core`
//! re-exports it. An expired deadline surfaces within one checkpoint interval
//! instead of wedging a worker for the rest of its search budget.
//!
//! The token is cooperative and purely advisory: firing it never corrupts
//! caller state. The containment engine's caches only ever record
//! *completed* verdicts, so a cancelled query leaves behind exactly the cache
//! entries an uncancelled prefix of the same search would have.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation/deadline token.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same flag, so a
/// token handed to a query can be fired from another thread, and a deadline
/// expiry observed by any worker latches the flag for every other worker
/// polling the same token.
///
/// Two trigger paths, checked in this order by [`CancelToken::fired`]:
///
/// 1. **Explicit cancellation** — [`CancelToken::cancel`] sets the flag; a
///    relaxed atomic load makes every subsequent poll observe it.
/// 2. **Deadline expiry** — when a deadline is set and the clock passes it,
///    the first poll that notices *latches the flag*, downgrading every
///    later poll (on any thread) to the cheap flag-only path.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    started: Instant,
}

impl CancelToken {
    /// A token with no deadline: it fires only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::build(Instant::now(), None)
    }

    /// A token that fires once the wall clock reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::build(Instant::now(), Some(deadline))
    }

    /// A token that fires `timeout` from now. A deadline the clock cannot
    /// represent (say `Duration::MAX`) means no deadline.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        let now = Instant::now();
        CancelToken::build(now, now.checked_add(timeout))
    }

    fn build(started: Instant, deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline,
                started,
            }),
        }
    }

    /// Fire the token explicitly. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag is already set (explicitly or by a previously
    /// observed deadline expiry). Never reads the clock — this is the cheap
    /// check for per-iteration polling.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Relaxed)
    }

    /// Whether the token has fired: the flag is set, or the deadline has
    /// passed (in which case the flag is latched so subsequent polls — on
    /// any thread — skip the clock read).
    pub fn fired(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Wall-clock time since the token was created (the query's age; this is
    /// the `elapsed` a deadline-exceeded answer reports).
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_visible_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.fired());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.fired());
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_latches_the_flag() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(!token.is_cancelled(), "flag is only set once observed");
        assert!(token.fired());
        assert!(token.is_cancelled(), "expiry latches the flag");
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.fired());
        assert!(token.deadline().is_some());
    }
}
