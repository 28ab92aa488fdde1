//! Corpus-scale workloads: fleets of schema families evolving under seeded
//! deltas, for throughput benchmarking of the containment service.
//!
//! A single gadget measures one decision; a *corpus* measures a deployment.
//! [`Corpus::generate`] builds `families` independent base schemas (alternating
//! deterministic and non-deterministic `ShEx₀`, so the mix spans the embedding
//! fast path and the counter-example search) and evolves each through
//! `revisions - 1` seeded deltas ([`evolve`]): one type's definition drifts per
//! revision — intervals widen or narrow, mandatory atoms become optional —
//! exactly the shape of schema evolution the containment service is asked to
//! audit. [`Corpus::evolution_pairs`] lists the natural containment workload
//! over the corpus: both directions of every adjacent revision pair plus the
//! first-to-last drift check per family.
//!
//! Everything is keyed by a `u64` seed, so two corpora generated from the same
//! [`CorpusOptions`] are identical schema for schema — benchmark runs are
//! reproducible, and clients hammering the same corpus produce the duplicate
//! traffic the engine's single-flight coalescing exists to absorb.

use rand::prelude::*;
use rand::rngs::StdRng;

use shapex_rbe::{interval::Basic, Interval, Rbe};
use shapex_shex::{Atom, Schema, TypeId};

use crate::generate::SchemaGen;

/// Parameters for [`Corpus::generate`].
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Number of independent schema families (base schemas).
    pub families: usize,
    /// Revisions per family, including the base (min 1).
    pub revisions: usize,
    /// Types per base schema.
    pub types: usize,
    /// Distinct predicate labels per base schema.
    pub labels: usize,
    /// Seed for every random choice; same options ⇒ identical corpus.
    pub seed: u64,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            families: 4,
            revisions: 8,
            types: 6,
            labels: 4,
            seed: 0xC0FFEE,
        }
    }
}

/// A generated schema corpus: `families` evolution chains of schemas.
///
/// Schemas are globally indexed family by family, revision by revision —
/// the order [`Corpus::schemas`] yields and [`Corpus::evolution_pairs`]
/// refers to.
#[derive(Debug, Clone)]
pub struct Corpus {
    families: Vec<Vec<Schema>>,
}

impl Corpus {
    /// Generate the corpus described by `options`.
    pub fn generate(options: &CorpusOptions) -> Corpus {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let families = (0..options.families.max(1))
            .map(|family| {
                let generator = SchemaGen::new(options.types.max(2), options.labels.max(1));
                // Alternate deterministic and non-deterministic bases so the
                // corpus exercises both the embedding fast path and the
                // type-set fixpoint.
                let mut chain = vec![generator.shex0(&mut rng, family % 2 == 0)];
                for _ in 1..options.revisions.max(1) {
                    let next = evolve(&mut rng, chain.last().expect("chain starts non-empty"));
                    chain.push(next);
                }
                chain
            })
            .collect();
        Corpus { families }
    }

    /// The evolution chains, one per family.
    pub fn families(&self) -> &[Vec<Schema>] {
        &self.families
    }

    /// Every schema in global index order (family-major, revision-minor).
    pub fn schemas(&self) -> impl Iterator<Item = &Schema> {
        self.families.iter().flatten()
    }

    /// Total number of schemas across all families.
    pub fn len(&self) -> usize {
        self.families.iter().map(Vec::len).sum()
    }

    /// Whether the corpus holds no schemas.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The corpus's containment workload, as pairs of global schema indices:
    /// for each family, both directions of every adjacent revision pair
    /// ("did this edit narrow or widen the schema?") plus the first-to-last
    /// drift check when the chain has more than two revisions.
    pub fn evolution_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut offset = 0;
        for chain in &self.families {
            for i in 0..chain.len().saturating_sub(1) {
                pairs.push((offset + i, offset + i + 1));
                pairs.push((offset + i + 1, offset + i));
            }
            if chain.len() > 2 {
                pairs.push((offset, offset + chain.len() - 1));
                pairs.push((offset + chain.len() - 1, offset));
            }
            offset += chain.len();
        }
        pairs
    }
}

/// One seeded delta: the next revision of `schema`, with a single type's
/// definition drifted — intervals widen (`? → *`, `+ → *`) or narrow
/// (`* → ?`, `? → 1`), and bare mandatory atoms occasionally become
/// optional. The drift preserves `RBE₀`-ness (repeats are never nested), so
/// an `ShEx₀` corpus stays inside the fragment its procedures expect.
pub fn evolve<R: Rng>(rng: &mut R, schema: &Schema) -> Schema {
    let mut next = Schema::new();
    let types: Vec<TypeId> = schema.types().collect();
    for &t in &types {
        next.add_type(schema.type_name(t).to_owned());
    }
    let victim = types[rng.gen_range(0..types.len())];
    for &t in &types {
        let def = if t == victim {
            drift_expr(rng, schema.def(t))
        } else {
            schema.def(t).clone()
        };
        let nt = next
            .find_type(schema.type_name(t))
            .expect("type added above");
        next.define(nt, def);
    }
    next
}

fn drift_expr<R: Rng>(rng: &mut R, expr: &Rbe<Atom>) -> Rbe<Atom> {
    match expr {
        Rbe::Epsilon => Rbe::Epsilon,
        Rbe::Symbol(atom) => {
            if rng.gen_bool(0.2) {
                // A mandatory atom becomes optional: the classic
                // backwards-compatible widening.
                Rbe::repeat(Rbe::symbol(atom.clone()), Interval::OPT)
            } else {
                Rbe::symbol(atom.clone())
            }
        }
        Rbe::Disj(parts) => Rbe::Disj(parts.iter().map(|p| drift_expr(rng, p)).collect()),
        Rbe::Concat(parts) => Rbe::concat(parts.iter().map(|p| drift_expr(rng, p)).collect()),
        Rbe::Repeat(inner, interval) => {
            let drifted = match interval.basic() {
                Some(Basic::Opt) => {
                    if rng.gen_bool(0.5) {
                        Interval::STAR
                    } else {
                        Interval::ONE
                    }
                }
                Some(Basic::Star) => {
                    if rng.gen_bool(0.5) {
                        Interval::STAR
                    } else {
                        Interval::OPT
                    }
                }
                Some(Basic::Plus) => {
                    if rng.gen_bool(0.5) {
                        Interval::STAR
                    } else {
                        Interval::PLUS
                    }
                }
                _ => *interval,
            };
            // The inner expression is kept as-is (not recursively drifted):
            // wrapping a drifted symbol in another repeat would nest repeats
            // and leave RBE₀.
            if drifted == Interval::ONE {
                (**inner).clone()
            } else {
                Rbe::repeat((**inner).clone(), drifted)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corpora_are_deterministic_per_seed() {
        let options = CorpusOptions::default();
        let a = Corpus::generate(&options);
        let b = Corpus::generate(&options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.schemas().zip(b.schemas()) {
            assert_eq!(format!("{x}"), format!("{y}"), "same seed, same corpus");
        }
        let other = Corpus::generate(&CorpusOptions {
            seed: options.seed + 1,
            ..options
        });
        let differs = a
            .schemas()
            .zip(other.schemas())
            .any(|(x, y)| format!("{x}") != format!("{y}"));
        assert!(differs, "a different seed must change the corpus");
    }

    #[test]
    fn corpus_shape_matches_the_options() {
        let options = CorpusOptions {
            families: 3,
            revisions: 5,
            ..CorpusOptions::default()
        };
        let corpus = Corpus::generate(&options);
        assert_eq!(corpus.families().len(), 3);
        assert_eq!(corpus.len(), 15);
        assert!(!corpus.is_empty());
        // Per family: 2·(revisions-1) adjacent pairs + 2 drift checks.
        let pairs = corpus.evolution_pairs();
        assert_eq!(pairs.len(), 3 * (2 * 4 + 2));
        assert!(pairs.iter().all(|&(h, k)| h < 15 && k < 15 && h != k));
    }

    #[test]
    fn evolution_stays_inside_rbe0() {
        let corpus = Corpus::generate(&CorpusOptions {
            families: 4,
            revisions: 10,
            ..CorpusOptions::default()
        });
        for schema in corpus.schemas() {
            assert!(schema.is_rbe0(), "drift must preserve RBE₀:\n{schema}");
        }
    }

    #[test]
    fn deltas_drift_exactly_one_type() {
        let mut rng = StdRng::seed_from_u64(42);
        let base = SchemaGen::new(6, 4).shex0(&mut rng, false);
        let next = evolve(&mut rng, &base);
        let changed = base
            .types()
            .filter(|&t| {
                let nt = next.find_type(base.type_name(t)).expect("same type names");
                format!("{:?}", base.def(t)) != format!("{:?}", next.def(nt))
            })
            .count();
        assert!(changed <= 1, "one victim type per delta, saw {changed}");
    }
}
