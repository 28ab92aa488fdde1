//! Simulations and embeddings between graphs (Section 3 of the paper).
//!
//! A binary relation `R ⊆ N_G × N_H` is a *simulation* of `G` in `H` when for
//! every `(n, m) ∈ R` there is a witness `λ : out_G(n) → out_H(m)` preserving
//! labels, relating targets by `R`, and satisfying the interval-sum condition
//! `⊕ {occur_G(e) | λ(e) = f} ⊆ occur_H(f)` for every `f ∈ out_H(m)`. An
//! *embedding* is a simulation whose domain covers all of `N_G`; we write
//! `G ≼ H`.
//!
//! Simulations are closed under union, so there is a unique maximal
//! simulation, computed by [`max_simulation`] — the typing worklist of
//! `shapex-shex` run with `H`'s nodes as the types ([`crate::simulation`],
//! re-exported here).
//! The witness check is the interval-flow problem of `shapex_rbe::flow`:
//! polynomial when both neighbourhoods use basic intervals (Theorem 3.4) and
//! NP-complete for arbitrary intervals (Theorem 3.5), where a backtracking
//! search is used instead.

use shapex_graph::{Graph, NodeId};

pub use crate::simulation::{max_simulation, Simulation, Simulators};

/// An embedding of `G` in `H`: a maximal simulation whose domain is all of
/// `N_G` (Definition 3.1).
#[derive(Debug, Clone)]
pub struct Embedding {
    simulation: Simulation,
}

impl Embedding {
    /// The nodes of `H` simulating `n` (never empty).
    pub fn images_of(&self, n: NodeId) -> Simulators<'_> {
        self.simulation.simulators_of(n)
    }
}

/// Check whether `G` can be embedded in `H` (`G ≼ H`), returning the witness
/// embedding when it exists.
pub fn embeds(g: &Graph, h: &Graph) -> Option<Embedding> {
    let simulation = max_simulation(g, h);
    if simulation.is_embedding() {
        Some(Embedding { simulation })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_graph::parse_graph;
    use shapex_rbe::Interval;

    /// The shape graph H0 corresponding to the schema S0 of Figure 2.
    fn h0() -> Graph {
        parse_graph(
            "t0 -a-> t1\n\
             t1 -b-> t2\n\
             t1 -c-> t3\n\
             t2 -b[?]-> t2\n\
             t2 -c-> t3\n",
        )
        .unwrap()
    }

    /// The simple graph G0 of Figure 2.
    fn g0() -> Graph {
        parse_graph("n0 -a-> n1\nn1 -b-> n1\nn1 -c-> n2\n").unwrap()
    }

    #[test]
    fn figure_3_embedding() {
        let g = g0();
        let h = h0();
        let embedding = embeds(&g, &h).expect("G0 embeds in H0");
        let n0 = g.find_node("n0").unwrap();
        let n1 = g.find_node("n1").unwrap();
        let n2 = g.find_node("n2").unwrap();
        let t0 = h.find_node("t0").unwrap();
        let t1 = h.find_node("t1").unwrap();
        let t2 = h.find_node("t2").unwrap();
        let t3 = h.find_node("t3").unwrap();
        assert!(embedding.images_of(n0).contains(t0));
        assert!(embedding.images_of(n1).contains(t1));
        assert!(embedding.images_of(n1).contains(t2));
        assert!(embedding.images_of(n2).contains(t3));
        assert!(!embedding.images_of(n0).contains(t3));
        // The reverse embedding does not hold: t0's mandatory a-edge targets a
        // node that needs both b and c edges, which n2 (no out-edges) lacks.
        assert!(embeds(&h, &g).is_none());
    }

    #[test]
    fn missing_mandatory_edge_blocks_simulation() {
        // H requires both a `descr` and a `reportedBy` edge.
        let h = parse_graph("Bug -descr-> Lit\nBug -reportedBy-> User\n").unwrap();
        let g_ok = parse_graph("b -descr-> l\nb -reportedBy-> u\n").unwrap();
        let g_missing = parse_graph("b -descr-> l\n").unwrap();
        assert!(embeds(&g_ok, &h).is_some());
        let sim = max_simulation(&g_missing, &h);
        let b = g_missing.find_node("b").unwrap();
        assert!(sim.simulators_of(b).is_empty());
        assert_eq!(sim.unsimulated_nodes(), vec![b]);
        assert!(embeds(&g_missing, &h).is_none());
    }

    #[test]
    fn upper_bounds_block_simulation() {
        // H allows at most one `p` edge (interval 1); G has two.
        let h = parse_graph("T -p-> U\n").unwrap();
        let g = parse_graph("x -p-> y1\nx -p-> y2\n").unwrap();
        assert!(embeds(&g, &h).is_none());
        // With a `*` interval both edges are fine.
        let h_star = parse_graph("T -p[*]-> U\n").unwrap();
        assert!(embeds(&g, &h_star).is_some());
        // With `?` a single edge is fine but two are not.
        let h_opt = parse_graph("T -p[?]-> U\n").unwrap();
        let g_one = parse_graph("x -p-> y\n").unwrap();
        assert!(embeds(&g_one, &h_opt).is_some());
        assert!(embeds(&g, &h_opt).is_none());
    }

    #[test]
    fn figure_4_embedding_holds_one_direction_only() {
        // G: a node with a* and b* edges. H: the "unfolded" variant where b*
        // is enumerated as ε | b | b⁺ across three nodes. L(G) = L(H), but
        // only H ≼ G holds; G ⋠ H (Figure 4 of the paper).
        let g = parse_graph("g -a[*]-> gleaf\ng -b[*]-> gleaf\n").unwrap();
        let h = parse_graph(
            "h0 -a[*]-> hleaf\n\
             h1 -a[*]-> hleaf\nh1 -b-> hleaf\n\
             h2 -a[*]-> hleaf\nh2 -b-> hleaf\nh2 -b[*]-> hleaf\n",
        )
        .unwrap();
        assert!(embeds(&h, &g).is_some(), "every H node is simulated by g");
        assert!(
            embeds(&g, &h).is_none(),
            "g is not simulated by any single H node"
        );
    }

    #[test]
    fn simulation_between_shape_graphs_with_general_intervals() {
        // Arbitrary intervals fall back to the backtracking witness search.
        let g = parse_graph("x -p[[2;2]]-> y\n").unwrap();
        let h_ok = parse_graph("T -p[[2;3]]-> U\n").unwrap();
        let h_bad = parse_graph("T -p[[3;4]]-> U\n").unwrap();
        assert!(embeds(&g, &h_ok).is_some());
        assert!(embeds(&g, &h_bad).is_none());
    }

    #[test]
    fn embedding_is_reflexive_and_composes() {
        let h = h0();
        assert!(embeds(&h, &h).is_some(), "every graph embeds in itself");
        let g = g0();
        // G0 ≼ H0 and H0 ≼ H0 ⊎ extra node: composition of embeddings.
        let mut h_extended = h0();
        let extra = h_extended.add_named_node("extra");
        let t0 = h_extended.find_node("t0").unwrap();
        h_extended.add_edge_with(extra, "z", Interval::STAR, t0);
        assert!(embeds(&h, &h_extended).is_some());
        assert!(embeds(&g, &h_extended).is_some());
    }

    #[test]
    fn empty_graph_embeds_everywhere() {
        let empty = Graph::new();
        let h = h0();
        assert!(embeds(&empty, &h).is_some());
        let sim = max_simulation(&empty, &h);
        assert!(sim.is_empty());
        assert!(sim.is_embedding(), "vacuously an embedding");
    }

    #[test]
    fn bug_tracker_instance_embeds_in_its_shape_graph() {
        let shape = parse_graph(
            "Bug -descr-> Literal\n\
             Bug -reportedBy-> User\n\
             Bug -reproducedBy[?]-> Employee\n\
             Bug -related[*]-> Bug\n\
             User -name-> Literal\n\
             User -email[?]-> Literal\n\
             Employee -name-> Literal\n\
             Employee -email-> Literal\n",
        )
        .unwrap();
        let instance = parse_graph(
            "bug1 -descr-> l1\nbug1 -reportedBy-> user1\nbug1 -related-> bug2\n\
             bug2 -descr-> l2\nbug2 -reportedBy-> user2\nbug2 -reproducedBy-> emp1\n\
             bug2 -related-> bug1\n\
             user1 -name-> l3\nuser2 -name-> l4\nuser2 -email-> l5\n\
             emp1 -name-> l6\nemp1 -email-> l7\n",
        )
        .unwrap();
        let embedding = embeds(&instance, &shape).expect("the Figure 1 instance is valid");
        let emp1 = instance.find_node("emp1").unwrap();
        let employee = shape.find_node("Employee").unwrap();
        let user = shape.find_node("User").unwrap();
        assert!(embedding.images_of(emp1).contains(employee));
        assert!(embedding.images_of(emp1).contains(user));
        // Remove a mandatory edge and the embedding disappears.
        let broken = parse_graph("bug1 -descr-> l1\n").unwrap();
        assert!(embeds(&broken, &shape).is_none());
    }
}
