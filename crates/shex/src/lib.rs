//! Shape expression schemas (ShEx) over regular bag expressions.
//!
//! This crate implements the schema formalism of *Containment of Shape
//! Expression Schemas for RDF* (Staworko & Wieczorek, PODS 2019):
//!
//! * [`schema`] — a [`Schema`] is a finite set of named types, each defined by
//!   a regular bag expression over `Σ × Γ` (predicate label :: type). The
//!   module detects the subclasses studied in the paper — `ShEx(RBE0)`,
//!   deterministic schemas `DetShEx₀`, and the tractable fragment
//!   `DetShEx₀⁻` — and converts `ShEx(RBE0)` schemas to and from their shape
//!   graph representation (Proposition 3.2).
//! * [`parser`] — a parser and writer for the rule syntax used throughout the
//!   paper, e.g. `Bug -> descr::Literal, reportedBy::User, related::Bug*`.
//! * [`typing`] — the semantics: maximal typings of simple and compressed
//!   graphs, node satisfaction, and schema validation (`G ⊨ S`), with a
//!   polynomial path for RBE₀ definitions and a Presburger-based path for
//!   arbitrary shape expressions (Proposition 6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parser;
pub mod schema;
pub mod typing;

pub use parser::{parse_schema, write_schema};
pub use schema::{Atom, Schema, SchemaClass, TypeId};
pub use typing::{
    maximal_typing, validates, validates_with, IncrementalTyping, TypeRow, Typing, ValidateScratch,
};
