//! Existential Presburger arithmetic over the naturals, plus the translation
//! of regular bag expressions into Presburger formulas used in Section 6 of
//! *Containment of Shape Expression Schemas for RDF* (Staworko & Wieczorek,
//! PODS 2019).
//!
//! The crate provides:
//!
//! * [`formula`] — linear terms, atomic constraints, and quantifier-free
//!   formulas over natural-number variables allocated from a [`VarPool`].
//! * [`solver`] — a bounded satisfiability solver for existential formulas:
//!   negation normal form, branching over disjunctions, interval propagation
//!   over variable domains and final branch-and-bound enumeration. All callers
//!   in this workspace have natural variable bounds (bag totals, multiplicity
//!   caps derived from the paper's small-model bounds), which are supplied via
//!   [`solver::Bounds`].
//! * [`translate`] — the construction of `ψ_E(x̄, n)` from the paper: a formula
//!   that holds exactly when the bag described by `x̄` belongs to `L(E)ⁿ`, and
//!   the derived NP membership test [`translate::rbe_member`] for arbitrary
//!   regular bag expressions.
//! * [`cancel`] — the [`CancelToken`] every long-running loop of the
//!   workspace polls, from this crate's solver up to the containment engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod formula;
pub mod solver;
pub mod translate;

pub use cancel::CancelToken;
pub use formula::{Constraint, Formula, LinearExpr, Var, VarPool};
pub use solver::{Bounds, SolveResult, Solver, SolverStats};
pub use translate::{psi, rbe_member};
