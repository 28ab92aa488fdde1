//! Intervals, bags, and regular bag expressions (RBE).
//!
//! This crate implements the combinatorial substrate of *Containment of Shape
//! Expression Schemas for RDF* (Staworko & Wieczorek, PODS 2019), Section 2:
//!
//! * [`Interval`] — occurrence intervals `[n;m]` with an optionally unbounded
//!   upper end, the four *basic* intervals `1`, `?`, `+`, `*`, point-wise
//!   addition `⊕`, and inclusion.
//! * [`IntervalSet`] — finite unions of intervals, used by the polynomial
//!   membership test for single-occurrence expressions.
//! * [`Bag`] — finite multisets over an ordered symbol type, with bag union
//!   `⊎` and restriction.
//! * [`Rbe`] — the abstract syntax of regular bag expressions with disjunction
//!   `|`, unordered concatenation `||`, and interval repetition, together with
//!   the [`Rbe0`] normal form `a₁^{M₁} || … || aₙ^{Mₙ}`.
//! * [`membership`] — membership tests: linear-time for RBE₀, polynomial for
//!   single-occurrence expressions (SORBE), and a naive exponential oracle used
//!   for cross-checking. The general NP membership test via Presburger
//!   arithmetic lives in the `shapex-presburger` crate.
//!
//! Expressions are generic in the symbol type so the same machinery serves
//! plain predicate alphabets (`Σ`) and the composite alphabet `Σ × Γ` used by
//! shape expressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag;
pub mod expr;
pub mod flow;
pub mod interval;
pub mod membership;

pub use bag::Bag;
pub use expr::{Rbe, Rbe0};
pub use flow::FlowScratch;
pub use interval::{Interval, IntervalSet};
