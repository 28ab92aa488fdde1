//! Workloads for the containment experiments: the paper's worked figures,
//! the lower-bound reductions, and random schema/graph generators.
//!
//! * [`figures`] — executable versions of Figures 1–4 of the paper (the bug
//!   tracker, the graph `G₀` and schema `S₀`, the embedding example, and the
//!   `*`-enumeration example showing that embeddings are incomplete).
//! * [`reductions`] — the three lower-bound constructions: SAT into embedding
//!   with arbitrary intervals (Theorem 3.5), DNF tautology into `DetShEx₀`
//!   containment (Theorem 4.5 / Figure 6), and the family with exponentially
//!   large minimal counter-examples (Lemma 5.1).
//! * [`generate`] — random CNF/DNF formulas, random `DetShEx₀⁻` and `ShEx₀`
//!   schemas, and schema restrictions that produce contained pairs by
//!   construction.
//! * [`disjuncts`] — disjunct-heavy general-containment pairs whose
//!   neighbourhood checks are forced through the Presburger solver, the
//!   workload the disjunct search is measured on.
//! * [`corpus`] — corpus-scale workloads: fleets of schema families evolving
//!   under seeded deltas, the input of the `service_throughput` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod disjuncts;
pub mod figures;
pub mod generate;
pub mod reductions;
