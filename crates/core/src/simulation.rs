//! The maximal simulation of Section 3, computed by the typing worklist.
//!
//! A simple graph's maximal typing against an RBE₀ schema is its maximal
//! simulation into the schema's shape graph (Proposition 3.2), so
//! [`max_simulation`] runs the bitset-row worklist of `shapex-shex`
//! ([`shapex_shex::typing::simulation_rows`]) with the nodes of `H` as the
//! types, each defined by its out-edges. Each witness check is one
//! `FlowScratch::solve` call whose sources are the out-edges of `n`, each
//! carrying its own interval (Definition 3.1); when no edge of `n` has two
//! candidate edges of `m`, the routing is forced and no flow network is
//! built. The full-rescan fix-point of
//! [`crate::baseline::max_simulation_baseline`] shares no code with it and
//! is the reference it is checked against.

use std::collections::BTreeSet;

use shapex_graph::{Graph, NodeId};
use shapex_shex::typing::simulation_rows;
use shapex_shex::{TypeId, TypeRow, Typing};

/// A simulation relation between the nodes of two graphs, stored as, for each
/// node of `G`, a bitset row over the nodes of `H` that simulate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simulation {
    /// Type `t` of row `n` stands for the pair `(n, NodeId(t))`.
    rows: Typing,
}

impl Simulation {
    pub(crate) fn from_simulators(h_nodes: usize, simulators: &[BTreeSet<NodeId>]) -> Simulation {
        let rows = simulators.iter().map(|row| row.iter().map(|m| TypeId(m.0)));
        Simulation {
            rows: Typing::from_rows(h_nodes, rows),
        }
    }

    /// The nodes of `H` that simulate `n`.
    pub fn simulators_of(&self, n: NodeId) -> Simulators<'_> {
        Simulators(self.rows.types_of(n))
    }

    /// Whether the pair `(n, m)` belongs to the simulation.
    pub fn contains(&self, n: NodeId, m: NodeId) -> bool {
        self.rows.has_type(n, TypeId(m.0))
    }

    /// Whether every node of `G` is simulated by at least one node of `H`,
    /// i.e. the simulation is an embedding.
    pub fn is_embedding(&self) -> bool {
        self.rows.is_total()
    }

    /// The nodes of `G` that no node of `H` simulates.
    pub fn unsimulated_nodes(&self) -> Vec<NodeId> {
        self.rows.untyped_nodes()
    }

    /// Total number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The nodes of `H` that simulate one node of `G`: a view of its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulators<'a>(TypeRow<'a>);

impl<'a> Simulators<'a> {
    /// Whether `m` simulates the node.
    pub fn contains(self, m: NodeId) -> bool {
        self.0.contains(TypeId(m.0))
    }

    /// Whether no node simulates the node.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The number of nodes that simulate the node.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// The nodes that simulate the node, ascending.
    pub fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        self.0.iter().map(|t| NodeId(t.0))
    }
}

/// Compute the maximal simulation of `G` in `H`.
///
/// Starting from the full relation `N_G × N_H`, pairs without a witness are
/// removed until no change occurs; since simulations are closed under union
/// the result is the unique maximal simulation. A node of `G` is re-checked
/// only when a successor loses a node of `H` that one of its simulators has
/// an edge into. The whole computation runs on the calling thread.
///
/// Per call, memory is the relation's `|N_G| · ⌈|N_H|/64⌉` words plus terms
/// linear in the nodes and edges of both graphs: one compiled atom and one
/// dependents entry per edge of `H`, per-node marks and queue slots for
/// `G`, and the flow buffers of the largest neighbourhood pair. Nothing
/// grows with `|N_H|²`.
pub fn max_simulation(g: &Graph, h: &Graph) -> Simulation {
    Simulation {
        rows: simulation_rows(g, h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::max_simulation_baseline;
    use crate::embedding::embeds;
    use shapex_graph::parse_graph;
    use shapex_shex::{parse_schema, validates};

    fn engines_agree(g: &Graph, h: &Graph) -> Simulation {
        let baseline = max_simulation_baseline(g, h);
        let worklist = max_simulation(g, h);
        assert_eq!(baseline, worklist, "worklist engine disagrees");
        worklist
    }

    #[test]
    fn figure_2_simulation_matches_baseline() {
        let h =
            parse_graph("t0 -a-> t1\nt1 -b-> t2\nt1 -c-> t3\nt2 -b[?]-> t2\nt2 -c-> t3\n").unwrap();
        let g = parse_graph("n0 -a-> n1\nn1 -b-> n1\nn1 -c-> n2\n").unwrap();
        let sim = engines_agree(&g, &h);
        assert!(sim.is_embedding());
        assert!(sim.contains(g.find_node("n1").unwrap(), h.find_node("t2").unwrap()));
        // And the reverse direction, which is not an embedding.
        let reverse = engines_agree(&h, &g);
        assert!(!reverse.is_embedding());
    }

    #[test]
    fn label_signature_prune_is_only_a_prune() {
        // The out-labels alone decide these pairs, through the witness
        // check. m has an extra optional label: still simulates.
        let g = parse_graph("x -p-> y\n").unwrap();
        let h = parse_graph("T -p-> U\nT -q[?]-> U\n").unwrap();
        let sim = engines_agree(&g, &h);
        assert!(sim.contains(g.find_node("x").unwrap(), h.find_node("T").unwrap()));
        // A mandatory extra label kills the pair.
        let h2 = parse_graph("T -p-> U\nT -q-> U\n").unwrap();
        let sim2 = engines_agree(&g, &h2);
        assert!(!sim2.contains(g.find_node("x").unwrap(), h2.find_node("T").unwrap()));
        // A g-label absent from m kills the pair even with interval ?.
        let g3 = parse_graph("x -p-> y\nx -r-> y\n").unwrap();
        let sim3 = engines_agree(&g3, &h);
        assert!(!sim3.contains(g3.find_node("x").unwrap(), h.find_node("T").unwrap()));
    }

    #[test]
    fn general_intervals_take_the_backtracking_path() {
        let g = parse_graph("x -p[[2;2]]-> y\n").unwrap();
        let h_ok = parse_graph("T -p[[2;3]]-> U\n").unwrap();
        let h_bad = parse_graph("T -p[[3;4]]-> U\n").unwrap();
        assert!(engines_agree(&g, &h_ok).is_embedding());
        assert!(!engines_agree(&g, &h_bad).is_embedding());
    }

    #[test]
    fn a_compressed_edge_splits_for_typing_but_maps_whole_for_simulation() {
        // Validation gives each copy of `p[2]` its own atom (Proposition
        // 6.2), so x is a T. A simulation maps the edge whole to one edge of
        // the shape graph (Definition 3.1), and [2;2] fits neither `p`-edge.
        let schema = parse_schema("T -> p::U, p::V\nU -> EMPTY\nV -> EMPTY\n").unwrap();
        let g = parse_graph("x -p[2]-> y\n").unwrap();
        assert!(validates(&g, &schema));
        let shape = schema.to_shape_graph().unwrap();
        let sim = engines_agree(&g, &shape);
        let x = g.find_node("x").unwrap();
        assert!(sim.simulators_of(x).is_empty());
        assert!(embeds(&g, &shape).is_none());
    }

    #[test]
    fn cyclic_refinement_terminates() {
        // A cycle whose pairs must be refined repeatedly.
        let g = parse_graph("a -p-> b\nb -p-> c\nc -p-> a\nc -q-> d\n").unwrap();
        let h = parse_graph("T -p-> T\nT -q[?]-> U\n").unwrap();
        let sim = engines_agree(&g, &h);
        assert!(sim.is_embedding());
        // Remove the q capability from H: the whole cycle must drain.
        let h2 = parse_graph("T -p-> T\n").unwrap();
        let sim2 = engines_agree(&g, &h2);
        assert!(!sim2.is_embedding());
        assert_eq!(sim2.unsimulated_nodes().len(), 4, "the removal propagates");
    }

    #[test]
    fn empty_graphs() {
        let empty = Graph::new();
        let h = parse_graph("T -p-> U\n").unwrap();
        assert!(engines_agree(&empty, &h).is_embedding());
        let sim = engines_agree(&h, &empty);
        assert!(!sim.is_embedding());
        assert!(engines_agree(&empty, &empty).is_embedding());
    }
}
