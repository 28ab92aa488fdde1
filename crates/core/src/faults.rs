//! Deterministic fault injection for chaos testing, behind the `failpoints`
//! cargo feature.
//!
//! The engine calls [`trigger`] at a handful of named sites (see [`site`]).
//! With the feature disabled — the default — `trigger` is an empty inline
//! function and the whole module costs nothing. With `--features failpoints`
//! a test installs a [`FaultPlan`] mapping `(site, hit index)` to a
//! [`FaultAction`]; the N-th time execution reaches that site the action
//! fires: a panic (exercising poisoned-lock recovery and worker
//! supervision) or a delay (widening race windows against live eviction
//! sweeps).
//!
//! Plans are deterministic by construction — a plan is an explicit schedule,
//! and [`FaultPlan::seeded`] derives one reproducibly from a `u64` seed — so
//! a failing chaos run replays exactly from its seed.
//!
//! The registry is process-global; chaos tests that install plans must
//! serialise on a lock of their own (Rust's test harness runs tests in
//! threads of one process).

use std::time::Duration;

/// The names of the instrumented sites, one constant per seam.
pub mod site {
    /// Just before an eviction sweep examines the cache (`maybe_evict`).
    pub const PRE_SWEEP: &str = "pre-sweep";
    /// Just after a service request's schema text parsed successfully.
    pub const POST_PARSE: &str = "post-parse";
    /// At the engine's per-candidate checkpoint in the counter-example
    /// search (the seam closest to the Presburger solver).
    pub const SOLVER_BRANCH: &str = "solver-branch";
    /// In a pool worker, just before dispatching a received request.
    pub const WORKER_DISPATCH: &str = "worker-dispatch";
}

/// All instrumented sites, in a fixed order (the order seeded schedules
/// assign faults over).
pub const SITES: [&str; 4] = [
    site::PRE_SWEEP,
    site::POST_PARSE,
    site::SOLVER_BRANCH,
    site::WORKER_DISPATCH,
];

/// What an armed failpoint does when its hit index comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an `"injected fault"` message — exercises `catch_unwind`
    /// boundaries and poisoned-lock recovery.
    Panic,
    /// Sleep for the given duration — widens race windows (e.g. against a
    /// concurrent eviction sweep) without changing any verdict.
    Delay(Duration),
}

/// A deterministic schedule of faults: for each site, which hit indices
/// (0-based occurrence counts) fire which action.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(String, u64, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no site ever fires).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `site` to perform `action` on its `hit`-th trigger (0-based).
    pub fn inject(mut self, site: &str, hit: u64, action: FaultAction) -> FaultPlan {
        self.entries.push((site.to_owned(), hit, action));
        self
    }

    /// A reproducible plan derived from `seed`: `panics` panic faults and
    /// `delays` short delay faults, spread over [`SITES`] and hit indices
    /// `0..8` by a splitmix64 stream. Equal seeds give equal plans.
    pub fn seeded(seed: u64, panics: usize, delays: usize) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the standard 64-bit mix, fully deterministic.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        for _ in 0..panics {
            let r = next();
            let site = SITES[(r % SITES.len() as u64) as usize];
            plan = plan.inject(site, (r >> 32) % 8, FaultAction::Panic);
        }
        for _ in 0..delays {
            let r = next();
            let site = SITES[(r % SITES.len() as u64) as usize];
            let millis = 1 + (r >> 32) % 5;
            plan = plan.inject(
                site,
                (r >> 16) % 8,
                FaultAction::Delay(Duration::from_millis(millis)),
            );
        }
        plan
    }

    /// Number of armed faults in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::FaultPlan;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, PoisonError};

    #[derive(Default)]
    struct Active {
        plan: FaultPlan,
        hits: HashMap<String, u64>,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

    /// Install a plan, replacing any previous one and resetting hit counts.
    pub fn install(plan: FaultPlan) {
        let mut active = ACTIVE.lock().unwrap_or_else(PoisonError::into_inner);
        *active = Some(Active {
            plan,
            hits: HashMap::new(),
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarm fault injection and drop the installed plan.
    pub fn clear() {
        ARMED.store(false, Ordering::SeqCst);
        let mut active = ACTIVE.lock().unwrap_or_else(PoisonError::into_inner);
        *active = None;
    }

    /// The number of times `site` has been reached since the last `install`.
    pub fn hits(site: &str) -> u64 {
        let active = ACTIVE.lock().unwrap_or_else(PoisonError::into_inner);
        active
            .as_ref()
            .and_then(|a| a.hits.get(site).copied())
            .unwrap_or(0)
    }

    /// Reach a named site: counts the hit and performs the armed action, if
    /// any. The registry lock is released *before* the action runs, so an
    /// injected panic never poisons the registry itself.
    pub fn trigger(site: &str) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let action = {
            let mut active = ACTIVE.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(active) = active.as_mut() else {
                return;
            };
            let hit = active.hits.entry(site.to_owned()).or_insert(0);
            let index = *hit;
            *hit += 1;
            active
                .plan
                .entries
                .iter()
                .find(|(s, h, _)| s == site && *h == index)
                .map(|&(_, _, action)| action)
        };
        match action {
            None => {}
            Some(super::FaultAction::Panic) => {
                panic!("injected fault at {site}");
            }
            Some(super::FaultAction::Delay(d)) => {
                std::thread::sleep(d);
            }
        }
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{clear, hits, install, trigger};

/// Reach a named site. With the `failpoints` feature disabled this is an
/// empty inline function — the call compiles away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn trigger(_site: &str) {}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests touching it serialise here.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn seeded_plans_are_reproducible() {
        assert_eq!(
            format!("{:?}", FaultPlan::seeded(42, 3, 2)),
            format!("{:?}", FaultPlan::seeded(42, 3, 2)),
        );
        assert_eq!(FaultPlan::seeded(7, 4, 0).len(), 4);
    }

    #[test]
    fn armed_panic_fires_on_the_scheduled_hit_only() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install(FaultPlan::new().inject(site::PRE_SWEEP, 1, FaultAction::Panic));
        trigger(site::PRE_SWEEP); // hit 0: dormant
        trigger(site::POST_PARSE); // other sites unaffected
        let caught = std::panic::catch_unwind(|| trigger(site::PRE_SWEEP));
        assert!(caught.is_err(), "hit 1 must panic");
        trigger(site::PRE_SWEEP); // hit 2: dormant again
        assert_eq!(hits(site::PRE_SWEEP), 3);
        assert_eq!(hits(site::POST_PARSE), 1);
        clear();
        trigger(site::PRE_SWEEP); // disarmed: no-op
        assert_eq!(hits(site::PRE_SWEEP), 0, "clear resets counters");
    }
}
