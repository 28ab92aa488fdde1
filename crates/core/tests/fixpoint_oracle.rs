//! The type-set fixpoint against a definitional oracle.
//!
//! The oracle shares no code with the procedures under test. Its schemas
//! are plain atom lists, rendered to rule text only for the procedures. It
//! decides membership by brute force: the maximal typing is a greatest
//! fixpoint whose every node/type check tries each assignment of the node's
//! edges to the definition's atoms — no flow network, no Presburger
//! encoding, no `validates`. Counter-examples are searched by enumerating
//! every simple graph of up to [`MAX_NODES`] nodes over the pair's
//! [`LABELS`] labels (2¹⁸ graphs at three nodes, fewer up to node
//! renaming).
//!
//! The properties, over random small RBE₀ pairs (2–3 types, 2 labels):
//!
//! * every `NotContained` witness is in `L(H)` and not in `L(K)` under the
//!   oracle;
//! * a `Contained` answer has no counter-example of up to `MAX_NODES`
//!   nodes, and when the oracle finds one, the fixpoint answers
//!   `NotContained`;
//! * on `DetShEx₀⁻` pairs the fixpoint equals `det` (Corollary 4.3);
//! * the fixpoint never contradicts the other procedures: an embedding
//!   means `Contained`, and a witness of the baseline search means
//!   `NotContained`;
//! * matrix laws: the diagonal is `Contained`, two proven steps never end in
//!   a refutation, and widening an interval of `K` keeps `Contained`.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_core::baseline::search_counter_example_baseline;
use shapex_core::det::det_containment;
use shapex_core::embedding::embeds;
use shapex_core::engine::ContainmentEngine;
use shapex_core::fixpoint::decide;
use shapex_core::unfold::SearchOptions;
use shapex_core::Containment;
use shapex_graph::Graph;
use shapex_shex::{parse_schema, Schema};

/// Edge labels `p0, p1, …` of every generated schema.
const LABELS: usize = 2;
/// Largest counter-example the oracle enumerates.
const MAX_NODES: usize = 3;

/// One atom `p<label>::T<target>` occurring `lo..=hi` times (`None`: ∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OAtom {
    label: usize,
    target: usize,
    lo: u32,
    hi: Option<u32>,
}

/// The four basic intervals as `(lo, hi, suffix)`.
const BASIC: [(u32, Option<u32>, &str); 4] = [
    (1, Some(1), ""),
    (0, Some(1), "?"),
    (0, None, "*"),
    (1, None, "+"),
];

/// A schema as plain data: the atoms of each type `T0, T1, …`.
#[derive(Debug, Clone)]
struct Plain(Vec<Vec<OAtom>>);

impl Plain {
    /// A random schema of `types` types with up to three atoms each, drawn
    /// from the intervals `allowed` (indices into [`BASIC`]); with
    /// `deterministic`, no two atoms of a definition share a label.
    fn random(rng: &mut StdRng, types: usize, allowed: &[usize], deterministic: bool) -> Plain {
        let defs = (0..types)
            .map(|_| {
                let atoms = rng.gen_range(0..=3usize);
                let mut def: Vec<OAtom> = Vec::new();
                for _ in 0..atoms {
                    let label = rng.gen_range(0..LABELS);
                    if deterministic && def.iter().any(|a| a.label == label) {
                        continue;
                    }
                    let (lo, hi, _) = BASIC[allowed[rng.gen_range(0..allowed.len())]];
                    def.push(OAtom {
                        label,
                        target: rng.gen_range(0..types),
                        lo,
                        hi,
                    });
                }
                def
            })
            .collect();
        Plain(defs)
    }

    /// The schema as rule text, for the procedures under test.
    fn schema(&self) -> Schema {
        let mut text = String::new();
        for (t, def) in self.0.iter().enumerate() {
            let atoms: Vec<String> = def
                .iter()
                .map(|a| {
                    let suffix = BASIC
                        .iter()
                        .find(|b| (b.0, b.1) == (a.lo, a.hi))
                        .expect("basic interval")
                        .2;
                    format!("p{}::T{}{suffix}", a.label, a.target)
                })
                .collect();
            let body = if atoms.is_empty() {
                "EMPTY".to_string()
            } else {
                atoms.join(", ")
            };
            text.push_str(&format!("T{t} -> {body}\n"));
        }
        parse_schema(&text).expect("generated schema text parses")
    }

    /// Every schema that widens one interval of this one (`1` to `?` or
    /// `+`, `?` or `+` to `*`).
    fn widenings(&self) -> Vec<Plain> {
        let mut out = Vec::new();
        for (t, def) in self.0.iter().enumerate() {
            for (i, atom) in def.iter().enumerate() {
                let wider: &[(u32, Option<u32>)] = match (atom.lo, atom.hi) {
                    (1, Some(1)) => &[(0, Some(1)), (1, None)],
                    (0, Some(1)) | (1, None) => &[(0, None)],
                    _ => &[],
                };
                for &(lo, hi) in wider {
                    let mut widened = self.clone();
                    widened.0[t][i] = OAtom { lo, hi, ..*atom };
                    out.push(widened);
                }
            }
        }
        out
    }

    /// The schema with type `t` split by the count of its `i`-th atom, a
    /// `*` atom: none, one, or one plus more — the refactoring of the
    /// paper's introduction and Figure 4. The language is the same, yet no
    /// single type of the split simulates `t`, so no embedding proves it.
    /// `None` unless the atom is `*` and not a self-reference and every
    /// reference to `t` is `*` (references become one `*` atom per part).
    fn split(&self, t: usize, i: usize) -> Option<Plain> {
        let atom = *self.0[t].get(i)?;
        let star = |a: &OAtom| (a.lo, a.hi) == (0, None);
        let referenced_by_star = self.0.iter().flatten().all(|a| a.target != t || star(a));
        if !star(&atom) || atom.target == t || !referenced_by_star {
            return None;
        }
        let (one, more) = (self.0.len(), self.0.len() + 1);
        let mut defs = self.0.clone();
        let mut none = defs[t].clone();
        none.remove(i);
        let mut exactly_one = defs[t].clone();
        exactly_one[i] = OAtom {
            lo: 1,
            hi: Some(1),
            ..atom
        };
        let mut at_least_one = exactly_one.clone();
        at_least_one.push(atom);
        defs[t] = none;
        defs.push(exactly_one);
        defs.push(at_least_one);
        for def in &mut defs {
            let parts: Vec<OAtom> = def
                .iter()
                .filter(|a| a.target == t)
                .flat_map(|a| [one, more].map(|target| OAtom { target, ..*a }))
                .collect();
            def.extend(parts);
        }
        Some(Plain(defs))
    }
}

/// A graph as plain data: nodes `0..n` and `(source, label, target)` edges.
#[derive(Debug, Clone)]
struct Small {
    n: usize,
    edges: Vec<(usize, usize, usize)>,
}

impl Small {
    /// A procedure's witness, read through the graph's public accessors.
    fn of(graph: &Graph) -> Small {
        let edges = graph
            .edges()
            .map(|e| {
                let label = graph.label(e).as_str();
                let index = label[1..].parse().expect("labels are p0, p1, …");
                (graph.source(e).index(), index, graph.target(e).index())
            })
            .collect();
        Small {
            n: graph.node_count(),
            edges,
        }
    }
}

/// Whether the edges `out` (label, target) can be distributed over the
/// atoms of `def` so that every edge's target has its atom's type and every
/// atom's count lies within its bounds — by trying every assignment.
fn satisfies(out: &[(usize, usize)], def: &[OAtom], types: &[u32], counts: &mut [u32]) -> bool {
    let Some((&(label, target), rest)) = out.split_first() else {
        return def
            .iter()
            .zip(counts.iter())
            .all(|(a, &c)| c >= a.lo && a.hi.map_or(true, |hi| c <= hi));
    };
    for (j, atom) in def.iter().enumerate() {
        if atom.label == label
            && types[target] & (1 << atom.target) != 0
            && atom.hi.map_or(true, |hi| counts[j] < hi)
        {
            counts[j] += 1;
            let ok = satisfies(rest, def, types, counts);
            counts[j] -= 1;
            if ok {
                return true;
            }
        }
    }
    false
}

/// The maximal typing of `g` under `s`, one type bitmask per node: start
/// from every type and drop the unsatisfied ones until nothing changes.
fn typing(g: &Small, s: &Plain) -> Vec<u32> {
    let mut out: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.n];
    for &(source, label, target) in &g.edges {
        out[source].push((label, target));
    }
    let mut types = vec![(1u32 << s.0.len()) - 1; g.n];
    let mut counts = [0u32; 8];
    loop {
        let mut changed = false;
        for node in 0..g.n {
            for (t, def) in s.0.iter().enumerate() {
                if types[node] & (1 << t) != 0
                    && !satisfies(&out[node], def, &types, &mut counts[..def.len()])
                {
                    types[node] &= !(1 << t);
                    changed = true;
                }
            }
        }
        if !changed {
            return types;
        }
    }
}

/// Whether `g ∈ L(s)`: every node has a type.
fn member(g: &Small, s: &Plain) -> bool {
    typing(g, s).iter().all(|&t| t != 0)
}

/// A counter-example to `L(h) ⊆ L(k)` of at most [`MAX_NODES`] nodes, if
/// one exists: every simple graph over the labels, smallest first, skipping
/// graphs that a renaming of the nodes maps to a smaller edge mask.
fn brute_counter_example(h: &Plain, k: &Plain) -> Option<Small> {
    for n in 1..=MAX_NODES {
        let slots: Vec<(usize, usize, usize)> = (0..n)
            .flat_map(|s| (0..LABELS).flat_map(move |l| (0..n).map(move |t| (s, l, t))))
            .collect();
        let slot_of = |s: usize, l: usize, t: usize| (s * LABELS + l) * n + t;
        let perms: Vec<Vec<usize>> = permutations(n);
        for mask in 0u32..(1 << slots.len()) {
            let canonical = perms.iter().all(|p| {
                let mut renamed = 0u32;
                for (bit, &(s, l, t)) in slots.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        renamed |= 1 << slot_of(p[s], l, p[t]);
                    }
                }
                renamed >= mask
            });
            if !canonical {
                continue;
            }
            let g = Small {
                n,
                edges: (0..slots.len())
                    .filter(|bit| mask & (1 << bit) != 0)
                    .map(|bit| slots[bit])
                    .collect(),
            };
            if member(&g, h) && !member(&g, k) {
                return Some(g);
            }
        }
    }
    None
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

/// The fixpoint's answer, which must be a decision on pairs this small.
fn fixpoint(h: &Plain, k: &Plain) -> Result<Option<Arc<Graph>>, TestCaseError> {
    let (hs, ks) = (h.schema(), k.schema());
    match decide(&hs, &ks, None) {
        Some(Containment::Contained) => Ok(None),
        Some(Containment::NotContained(witness)) => Ok(Some(witness)),
        other => Err(TestCaseError::fail(format!(
            "a tiny pair must be decided, got {other:?}:\nH:\n{hs}K:\n{ks}"
        ))),
    }
}

/// A small budget for the engine and the baseline search.
fn budget() -> SearchOptions {
    SearchOptions {
        max_depth: 3,
        max_bags: 8,
        max_trees: 12,
        max_graph_nodes: 40,
        max_candidates: 200,
    }
}

/// Every property on one ordered pair.
fn check_pair(h: &Plain, k: &Plain) -> Result<bool, TestCaseError> {
    let (hs, ks) = (h.schema(), k.schema());
    let answer = fixpoint(h, k)?;
    let brute = brute_counter_example(h, k);
    match (&answer, &brute) {
        (Some(witness), _) => {
            let w = Small::of(witness);
            prop_assert!(member(&w, h), "witness outside L(H):\n{hs}{witness}");
            prop_assert!(!member(&w, k), "witness inside L(K):\n{ks}{witness}");
        }
        (None, Some(g)) => prop_assert!(
            false,
            "fixpoint says contained, oracle refutes with {g:?}:\nH:\n{hs}K:\n{ks}"
        ),
        (None, None) => {}
    }
    // The other procedures never disagree.
    let (hg, kg) = (hs.to_shape_graph().unwrap(), ks.to_shape_graph().unwrap());
    if embeds(&hg, &kg).is_some() {
        prop_assert!(answer.is_none(), "embedding but refuted:\nH:\n{hs}K:\n{ks}");
    }
    if let Some(witness) = search_counter_example_baseline(&hs, &ks, &budget()) {
        let w = Small::of(&witness);
        prop_assert!(
            member(&w, h) && !member(&w, k),
            "uncertified search witness"
        );
        prop_assert!(answer.is_some(), "search refutes, fixpoint contains");
    }
    // The engine's witness, from whichever stage found it, is certified too.
    if let Containment::NotContained(witness) =
        ContainmentEngine::with_search(budget()).check(&hs, &ks)
    {
        let w = Small::of(&witness);
        prop_assert!(
            member(&w, h) && !member(&w, k),
            "uncertified engine witness"
        );
    }
    Ok(answer.is_none())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fixpoint_agrees_with_the_oracle(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let types = rng.gen_range(2..=3usize);
        // The third schema only has `?` and `*` atoms, so that it contains
        // the others more often.
        let schemas: Vec<Plain> = [&[0, 1, 2, 3][..], &[0, 1, 2, 3], &[1, 2]]
            .iter()
            .map(|allowed| Plain::random(&mut rng, types, allowed, false))
            .collect();
        let mut contained = [[false; 3]; 3];
        for (i, h) in schemas.iter().enumerate() {
            for (j, k) in schemas.iter().enumerate() {
                if i == j {
                    prop_assert!(fixpoint(h, k)?.is_none(), "a schema refutes itself");
                    contained[i][j] = true;
                } else {
                    contained[i][j] = check_pair(h, k)?;
                }
            }
        }
        // Two proven steps never end in a refutation.
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    prop_assert!(
                        !(contained[a][b] && contained[b][c]) || contained[a][c],
                        "transitivity broken at {a}->{b}->{c}"
                    );
                }
            }
        }
        // Widening an interval of K keeps a proven containment.
        if contained[0][1] {
            for wider in schemas[1].widenings() {
                prop_assert!(
                    fixpoint(&schemas[0], &wider)?.is_none(),
                    "widening K refuted H ⊆ K:\nH:\n{}K:\n{}",
                    schemas[0].schema(),
                    wider.schema()
                );
            }
        }
    }

    #[test]
    fn fixpoint_equals_det_on_det_shex0_minus(seed in 0u64..1_000_000) {
        // Deterministic schemas without `+`, kept when both are DetShEx₀⁻.
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = |rng: &mut StdRng| loop {
            let plain = Plain::random(rng, 3, &[0, 1, 2], true);
            if plain.schema().is_det_shex0_minus() {
                return plain;
            }
        };
        let (h, k) = (draw(&mut rng), draw(&mut rng));
        let det = det_containment(&h.schema(), &k.schema()).expect("both DetShEx0-");
        let answer = fixpoint(&h, &k)?;
        prop_assert_eq!(det.is_contained(), answer.is_none());
        prop_assert_eq!(check_pair(&h, &k)?, det.is_contained());
    }
}

proptest! {
    // Each case enumerates every small graph twice over schemas of up to
    // five types; fewer cases keep the debug build quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fixpoint_proves_split_schemas_equal(seed in 0u64..1_000_000) {
        // Schemas of `1` and `*` atoms, drawn until one has a type to split.
        let mut rng = StdRng::seed_from_u64(seed);
        let types = rng.gen_range(2..=3usize);
        let (h, split) = loop {
            let h = Plain::random(&mut rng, types, &[0, 2], false);
            let mut splits = (0..types).flat_map(|t| (0..h.0[t].len()).map(move |i| (t, i)));
            if let Some(split) = splits.find_map(|(t, i)| h.split(t, i)) {
                break (h, split);
            }
        };
        prop_assert!(check_pair(&h, &split)?, "a split refuted H ⊆ split:\nH:\n{}", h.schema());
        prop_assert!(check_pair(&split, &h)?, "a split refuted split ⊆ H:\nH:\n{}", h.schema());
    }
}
