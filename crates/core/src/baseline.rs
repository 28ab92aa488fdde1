//! Brute-force baselines kept as test oracles and benchmark reference
//! points.
//!
//! * [`enumerate_counter_example`] — containment `L(H) ⊆ L(K)` fails iff
//!   some simple graph validates against `H` but not against `K`; this
//!   enumerates *all* simple graphs up to a node bound over the combined
//!   label alphabet and tests each one. The search space is `2^(n²·|Σ|)`,
//!   so this is only usable for tiny bounds.
//! * [`max_simulation_baseline`] — the original full-rescan fix-point
//!   computation of the maximal simulation, retained verbatim as the oracle
//!   the worklist + bitset engine of [`crate::simulation`] is checked
//!   against (and the baseline the `sim_engine_scaling` bench measures its
//!   speed-up over).
//! * [`search_counter_example_baseline`] — the memo-free systematic
//!   counter-example search, retained as the oracle for the pooled and
//!   memoised search of [`crate::engine::ContainmentEngine`] (and the
//!   baseline of the `batch_matrix` bench). The engine runs that search for
//!   full ShEx pairs and for the `ShEx₀` pairs over the type-set fixpoint's
//!   budget; every other `ShEx₀` pair is decided by [`crate::fixpoint`].

use std::collections::BTreeSet;

use shapex_graph::{Graph, Label, NodeId};
use shapex_rbe::flow::{basic_assignment, general_assignment};
use shapex_rbe::Interval;
use shapex_shex::typing::validates;
use shapex_shex::Schema;

use crate::simulation::Simulation;
use crate::unfold::{enumerate_members, SearchOptions};

/// Compute the maximal simulation of `G` in `H` by naive fix-point
/// refinement: starting from the full relation `N_G × N_H`, every pair is
/// re-examined on every iteration and pairs without a witness are removed
/// until a whole sweep changes nothing.
///
/// This is `O(iterations · |N_G| · |N_H|)` witness checks with
/// `Arc<str>`-equality label comparison and per-call interval allocation —
/// exactly the implementation the worklist engine replaced. It is retained
/// as the equivalence oracle for the property suite and as the benchmark
/// baseline; production callers should use
/// [`crate::embedding::max_simulation`].
pub fn max_simulation_baseline(g: &Graph, h: &Graph) -> Simulation {
    let all_h: BTreeSet<NodeId> = h.nodes().collect();
    let mut simulators: Vec<BTreeSet<NodeId>> = vec![all_h; g.node_count()];

    loop {
        let mut changed = false;
        for n in g.nodes() {
            let candidates: Vec<NodeId> = simulators[n.index()].iter().copied().collect();
            for m in candidates {
                if !has_witness(g, n, h, m, &simulators) {
                    simulators[n.index()].remove(&m);
                    changed = true;
                }
            }
        }
        if !changed {
            return Simulation::from_simulators(simulators);
        }
    }
}

/// Whether there is a witness of simulation of `n` (in `G`) by `m` (in `H`)
/// with respect to the candidate relation `simulators`.
fn has_witness(
    g: &Graph,
    n: NodeId,
    h: &Graph,
    m: NodeId,
    simulators: &[BTreeSet<NodeId>],
) -> bool {
    let g_edges = g.out(n);
    let h_edges = h.out(m);
    let sources: Vec<Interval> = g_edges.iter().map(|&e| g.occur(e)).collect();
    let sinks: Vec<Interval> = h_edges.iter().map(|&f| h.occur(f)).collect();
    let compatible = |v: usize, u: usize| {
        let e = g_edges[v];
        let f = h_edges[u];
        g.label(e) == h.label(f) && simulators[g.target(e).index()].contains(&h.target(f))
    };
    let all_basic = sources.iter().chain(sinks.iter()).all(|i| i.is_basic());
    if all_basic {
        basic_assignment(&sources, &sinks, compatible).is_some()
    } else {
        general_assignment(&sources, &sinks, compatible).is_some()
    }
}

/// The original one-shot counter-example search: systematic unfoldings of
/// every root at depths `1..=max_depth`, with no pooling or memoisation —
/// every candidate graph is re-enumerated and re-validated from scratch.
///
/// Retained as the answer oracle for the session-layer search of
/// [`crate::engine::ContainmentEngine`]: the engine must examine the same
/// candidates in the same order, so both return the same witness (or both
/// return `None`) — a property the `engine_session` *and* the
/// `engine_concurrency` suites assert, the latter against cold, warm, and
/// many-threaded shared-state sessions. Production callers should use
/// [`crate::unfold::search_counter_example`] or hold an engine.
pub fn search_counter_example_baseline(
    h: &Schema,
    k: &Schema,
    options: &SearchOptions,
) -> Option<Graph> {
    let mut examined = 0usize;
    for root in h.types() {
        for depth in 1..=options.max_depth {
            let scoped = SearchOptions {
                max_depth: depth,
                ..options.clone()
            };
            for graph in enumerate_members(h, root, &scoped) {
                examined += 1;
                if examined > options.max_candidates {
                    break;
                }
                if !validates(&graph, k) {
                    return Some(graph);
                }
            }
        }
    }
    None
}

/// Enumerate simple graphs with up to `max_nodes` nodes (and at most
/// `max_edges` edges) over the union of the two schemas' alphabets, returning
/// the first graph found in `L(H) \ L(K)`.
///
/// `budget` caps the number of graphs examined; `None` is returned when the
/// budget or the enumeration is exhausted without finding a counter-example,
/// which therefore does **not** prove containment beyond the explored size.
pub fn enumerate_counter_example(
    h: &Schema,
    k: &Schema,
    max_nodes: usize,
    max_edges: usize,
    budget: usize,
) -> Option<Graph> {
    let mut labels: Vec<Label> = h.labels();
    for l in k.labels() {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    if labels.is_empty() {
        // Schemas without any label: only edge-less graphs exist.
        let mut g = Graph::new();
        g.add_node();
        return if validates(&g, h) && !validates(&g, k) {
            Some(g)
        } else {
            None
        };
    }

    let mut examined = 0usize;
    for n in 1..=max_nodes {
        // All possible (source, label, target) triples over n nodes.
        let positions: Vec<(u32, usize, u32)> = (0..n as u32)
            .flat_map(|s| {
                let labels = &labels;
                (0..labels.len()).flat_map(move |l| (0..n as u32).map(move |t| (s, l, t)))
            })
            .collect();
        let p = positions.len();
        if p >= usize::BITS as usize {
            return None; // the bitmask enumeration below cannot cover this
        }
        for mask in 0u64..(1u64 << p) {
            if (mask.count_ones() as usize) > max_edges {
                continue;
            }
            examined += 1;
            if examined > budget {
                return None;
            }
            let mut g = Graph::new();
            for i in 0..n {
                g.add_named_node(format!("v{i}"));
            }
            for (bit, (s, l, t)) in positions.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    g.add_edge(
                        shapex_graph::NodeId(*s),
                        labels[*l].clone(),
                        shapex_graph::NodeId(*t),
                    );
                }
            }
            if validates(&g, h) && !validates(&g, k) {
                return Some(g);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;

    #[test]
    fn finds_the_obvious_counter_example() {
        // h allows an optional q next to the mandatory p; k forbids q. A node
        // with both edges is valid for h only.
        let h = parse_schema("A -> p::L, q::L?\nL -> EMPTY\n").unwrap();
        let k = parse_schema("A -> p::L\nL -> EMPTY\n").unwrap();
        let witness = enumerate_counter_example(&h, &k, 3, 3, 500_000).expect("found");
        assert!(validates(&witness, &h));
        assert!(!validates(&witness, &k));
        // The converse containment holds, so nothing is found.
        assert!(enumerate_counter_example(&k, &h, 2, 3, 50_000).is_none());
    }

    #[test]
    fn agrees_with_upper_bound_interval_example() {
        let h = parse_schema("T -> p::L, p::L\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        // Two p-edges are required by h and forbidden by k.
        let witness = enumerate_counter_example(&h, &k, 3, 4, 200_000).expect("found");
        assert!(validates(&witness, &h));
        assert!(!validates(&witness, &k));
    }

    #[test]
    fn label_free_schemas() {
        let h = parse_schema("T -> EMPTY\n").unwrap();
        let k = parse_schema("T -> EMPTY\n").unwrap();
        assert!(enumerate_counter_example(&h, &k, 2, 2, 1_000).is_none());
    }

    #[test]
    fn budget_is_respected() {
        let h = parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        // A tiny budget cannot reach the two-edge counter-example.
        assert!(enumerate_counter_example(&h, &k, 3, 4, 3).is_none());
        // A generous budget finds it.
        assert!(enumerate_counter_example(&h, &k, 3, 4, 500_000).is_some());
    }
}
