//! Containment of shape expression schemas — the primary contribution of
//! *Containment of Shape Expression Schemas for RDF* (Staworko & Wieczorek,
//! PODS 2019).
//!
//! The crate provides, following the paper's structure:
//!
//! * [`embedding`] (§3) — maximal simulations and embeddings between graphs,
//!   with the polynomial witness check for basic intervals (Theorem 3.4) and a
//!   backtracking witness check for arbitrary intervals (Theorem 3.5). An
//!   embedding `H ≼ K` is a sound (sufficient) condition for `L(H) ⊆ L(K)`.
//! * [`det`] (§4) — the tractable fragment `DetShEx₀⁻`: containment coincides
//!   with embedding (Corollary 4.3), so it is decidable in polynomial time
//!   (Corollary 4.4); plus the characterizing-graph construction of Lemma 4.2.
//! * [`shex0`] (§5) — containment for `ShEx₀` (shape graphs): embedding as the
//!   sufficient check, the `DetShEx₀⁻` shortcut, and then [`fixpoint`], which
//!   decides the pair exactly by a least fixpoint over abstract node states.
//!   The problem is EXP-hard and in coNEXP, so the fixpoint runs under a
//!   constant work bound; a pair over it falls back to the bounded
//!   counter-example search and may report [`Containment::Unknown`].
//! * [`fixpoint`] — the type-set fixpoint behind [`shex0`]: states `(t, S)`
//!   of an H-type and a set of K-types, antichains of ⊆-minimal sets, and
//!   certified witnesses unfolded from the derivation.
//! * [`general`] (§6) — containment for full ShEx (arbitrary shape
//!   expressions), via unfolding-based counter-example search with Presburger
//!   validation; sound in both directions, bounded (the problem is
//!   coNEXP-hard).
//! * [`engine`] — the shared-state query session over all of the above:
//!   `ContainmentEngine` registers schemas once and memoises shape graphs,
//!   embedding verdicts, fixpoint outcomes, and the search's unfolding pools
//!   and validation verdicts behind `&self`
//!   concurrent caches, so one engine (typically in an `Arc`) serves
//!   batch matrices and long-lived services, one query per caller thread.
//! * [`simulation`] — the worklist + bitset simulation engine behind
//!   [`embedding`]: dense bitset relation, joint interned-label space, and
//!   predecessor-directed refinement.
//! * [`baseline`] — brute-force references: enumeration of small
//!   counter-examples and the original full-rescan simulation fix-point,
//!   used as test oracles and benchmark baselines.
//!
//! Every `NotContained` answer carries a counter-example graph that has been
//! re-verified with the validation semantics of `shapex-shex`, so
//! non-containment answers are certified. `Contained` answers are exact for
//! `ShEx₀` within the fixpoint's work bound and conservative (never wrong,
//! but possibly replaced by `Unknown`) for full ShEx.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use shapex_graph::Graph;

pub mod baseline;
pub mod budget;
pub mod det;
pub mod embedding;
pub mod engine;
pub mod faults;
pub mod fixpoint;
pub mod general;
pub mod matrix;
pub mod shex0;
pub mod simulation;
pub mod sync;
pub mod unfold;

pub use shapex_presburger::CancelToken;

/// Why a procedure answered [`Containment::Unknown`].
///
/// The enum is `#[non_exhaustive]`: future engines may report further
/// reasons (e.g. a wall-clock timeout), so downstream matches need a
/// catch-all arm. Construct values through the
/// [`Containment::budget_exhausted`] / [`Containment::not_supported`]
/// helpers.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// The counter-example search ran out of budget: it examined
    /// `candidates` candidate graphs up to unfolding depth `depth` without
    /// finding a witness, and the sufficient conditions did not apply.
    BudgetExhausted {
        /// Candidate member graphs validated against the right-hand schema.
        candidates: usize,
        /// The configured maximum unfolding depth of the search.
        depth: usize,
    },
    /// The procedure could not explore the instance at all — the search
    /// produced no candidate members within the budget (for example every
    /// unfolding dies on a mandatory cycle), so no evidence in either
    /// direction was gathered.
    NotSupported,
    /// The caller-supplied deadline expired before the search reached a sound
    /// answer. `elapsed` is the wall-clock time the query had actually run
    /// when the expiry was observed at a cancellation checkpoint.
    DeadlineExceeded {
        /// Wall-clock time from query start to the checkpoint that observed
        /// the expired deadline.
        elapsed: std::time::Duration,
    },
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::BudgetExhausted { candidates, depth } => write!(
                f,
                "budget exhausted after {candidates} candidates at depth {depth}"
            ),
            UnknownReason::NotSupported => write!(f, "no applicable procedure for this input"),
            UnknownReason::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {elapsed:?}")
            }
        }
    }
}

/// The answer of a containment check `L(H) ⊆ L(K)`.
///
/// The counter-example is shared: the engine hands out the graph its
/// candidate pool, characterizing-graph cache or verdict memo already holds,
/// so cloning an answer — or keeping many of them — copies no graph.
#[derive(Debug, Clone)]
pub enum Containment {
    /// Containment holds.
    Contained,
    /// Containment does not hold; the graph is a certified counter-example
    /// (it satisfies `H` and violates `K`).
    NotContained(Arc<Graph>),
    /// The procedure gave up before reaching a sound answer; the reason says
    /// whether the budget ran out mid-search or no search was possible.
    Unknown(UnknownReason),
}

impl Containment {
    /// A `NotContained` answer carrying the given counter-example.
    pub fn not_contained(witness: Graph) -> Containment {
        Containment::NotContained(Arc::new(witness))
    }

    /// An `Unknown` answer whose search exhausted its budget after examining
    /// `candidates` candidate graphs up to depth `depth`.
    pub fn budget_exhausted(candidates: usize, depth: usize) -> Containment {
        Containment::Unknown(UnknownReason::BudgetExhausted { candidates, depth })
    }

    /// An `Unknown` answer for inputs the procedure could not explore at all.
    pub fn not_supported() -> Containment {
        Containment::Unknown(UnknownReason::NotSupported)
    }

    /// An `Unknown` answer for a query whose deadline expired after running
    /// for `elapsed`.
    pub fn deadline_exceeded(elapsed: std::time::Duration) -> Containment {
        Containment::Unknown(UnknownReason::DeadlineExceeded { elapsed })
    }

    /// Whether the answer is `Contained`.
    pub fn is_contained(&self) -> bool {
        matches!(self, Containment::Contained)
    }

    /// Whether the answer is `NotContained`.
    pub fn is_not_contained(&self) -> bool {
        matches!(self, Containment::NotContained(_))
    }

    /// Whether the answer is `Unknown` (for any reason).
    pub fn is_unknown(&self) -> bool {
        matches!(self, Containment::Unknown(_))
    }

    /// The reason, if the answer is `Unknown`.
    pub fn unknown_reason(&self) -> Option<&UnknownReason> {
        match self {
            Containment::Unknown(reason) => Some(reason),
            _ => None,
        }
    }

    /// The counter-example, if the answer is `NotContained`.
    pub fn counter_example(&self) -> Option<&Graph> {
        match self {
            Containment::NotContained(g) => Some(g.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for Containment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Containment::Contained => write!(f, "contained"),
            Containment::NotContained(g) => {
                write!(
                    f,
                    "not contained (counter-example with {} nodes)",
                    g.node_count()
                )
            }
            Containment::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}
