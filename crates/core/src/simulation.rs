//! The worklist + bitset simulation engine.
//!
//! [`max_simulation`] computes the unique maximal simulation of `G` in `H`
//! (Section 3 of the paper). It replaces the naive fix-point of
//! [`crate::baseline::max_simulation_baseline`] — which rescans all
//! `|N_G| · |N_H|` pairs until nothing changes — with three structural
//! optimisations:
//!
//! * **Dense bitset relation.** The candidate relation is a row-major bitset
//!   (`⌈|N_H|/64⌉` words per `G`-node), so membership tests inside the
//!   witness check are single-word loads and the whole relation fits in
//!   cache for the workloads of the benchmark harness.
//! * **Interned labels end-to-end.** Both graphs' labels are mapped into one
//!   joint `u32` label space (via the per-graph interner of `shapex-graph`),
//!   so witness-candidate filtering is an integer compare, and a pair can be
//!   discarded without touching the flow solver when the out-label signature
//!   already rules a witness out: every out-label of `n` must appear on an
//!   out-edge of `m` (witnesses are total), and every mandatory out-label of
//!   `m` (lower bound ≥ 1) must appear on an out-edge of `n`.
//! * **Worklist refinement.** After the initial pass, removing a pair
//!   `(n, m)` only re-examines predecessor pairs `(n', m')` with
//!   `n' →ᵃ n` in `G` and `m' →ᵃ m` in `H` for a shared label `a` — the only
//!   pairs whose witness could have routed an edge onto `(n, m)` — instead
//!   of rescanning the full product. Pairs are deduplicated in the queue by
//!   a dirty bitset.
//!
//! Each witness check is one [`FlowScratch::solve`] call on one reused
//! scratch, so the steady state performs no allocation. When every out-edge
//! of `n` has at most one candidate edge of `m` — always so when no label
//! repeats among `m`'s out-edges — the routing is forced and no flow network
//! is built. The whole computation runs on the calling thread.

use std::collections::{BTreeSet, VecDeque};

use shapex_graph::{Graph, NodeId};
use shapex_rbe::{FlowScratch, Interval};

/// A simulation relation between the nodes of two graphs, stored as, for each
/// node of `G`, the set of nodes of `H` that simulate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simulation {
    simulators: Vec<BTreeSet<NodeId>>,
}

impl Simulation {
    pub(crate) fn from_simulators(simulators: Vec<BTreeSet<NodeId>>) -> Simulation {
        Simulation { simulators }
    }

    /// The nodes of `H` that simulate `n`.
    pub fn simulators_of(&self, n: NodeId) -> &BTreeSet<NodeId> {
        &self.simulators[n.index()]
    }

    /// Whether the pair `(n, m)` belongs to the simulation.
    pub fn contains(&self, n: NodeId, m: NodeId) -> bool {
        self.simulators[n.index()].contains(&m)
    }

    /// Whether every node of `G` is simulated by at least one node of `H`,
    /// i.e. the simulation is an embedding.
    pub fn is_embedding(&self) -> bool {
        self.simulators.iter().all(|s| !s.is_empty())
    }

    /// The nodes of `G` that no node of `H` simulates.
    pub fn unsimulated_nodes(&self) -> Vec<NodeId> {
        self.simulators
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Total number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.simulators.iter().map(|s| s.len()).sum()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dense row-major bitset over `rows × cols` pairs.
///
/// The hot loops of the engine run on whole 64-pair words of this structure:
/// row scans skip all-set and all-clear words with a single compare, queue
/// deduplication tests and marks a pair with one word access, and row
/// cardinalities come from `count_ones` instead of bit-by-bit probes.
#[derive(Debug, Clone)]
struct BitRel {
    blocks: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl BitRel {
    fn empty(rows: usize, cols: usize) -> BitRel {
        let blocks = cols.div_ceil(64);
        BitRel {
            blocks,
            cols,
            bits: vec![0; rows * blocks],
        }
    }

    /// The valid-bit mask of a row's block: all ones except in the final
    /// block of a row, where the columns beyond `cols` are masked off.
    #[inline]
    fn block_mask(&self, block: usize) -> u64 {
        if block + 1 == self.blocks && self.cols % 64 != 0 {
            (1u64 << (self.cols % 64)) - 1
        } else {
            !0
        }
    }

    /// The words of row `n`.
    #[inline]
    fn row(&self, n: usize) -> &[u64] {
        &self.bits[n * self.blocks..(n + 1) * self.blocks]
    }

    #[inline]
    fn contains(&self, n: usize, m: usize) -> bool {
        self.bits[n * self.blocks + m / 64] & (1u64 << (m % 64)) != 0
    }

    /// Set the bit `(n, m)` if it is clear, with a single word access;
    /// returns whether the bit was newly set. The queue-deduplication
    /// primitive (the historical `contains` + `set` pair touched the word
    /// twice).
    #[inline]
    fn try_mark(&mut self, n: usize, m: usize) -> bool {
        let word = &mut self.bits[n * self.blocks + m / 64];
        let bit = 1u64 << (m % 64);
        if *word & bit != 0 {
            false
        } else {
            *word |= bit;
            true
        }
    }

    #[inline]
    fn remove(&mut self, n: usize, m: usize) {
        self.bits[n * self.blocks + m / 64] &= !(1u64 << (m % 64));
    }

    /// Number of set pairs in row `n` (`count_ones` per word, no bit scan).
    #[inline]
    fn row_count(&self, n: usize) -> usize {
        self.row(n).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the set columns of a row. All-clear words cost one compare.
    fn row_iter(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(n).iter().enumerate().flat_map(|(block, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(block * 64 + bit)
                }
            })
        })
    }

    /// Iterate the *clear* columns of a row (within `cols`). All-set words —
    /// the common case for the dense relations of the initial pass — cost
    /// one compare, so a mostly-full row is swept in `blocks` operations
    /// rather than `cols` bit probes.
    fn row_zeros(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(n)
            .iter()
            .enumerate()
            .flat_map(move |(block, &word)| {
                let mut zeros = !word & self.block_mask(block);
                std::iter::from_fn(move || {
                    if zeros == 0 {
                        None
                    } else {
                        let bit = zeros.trailing_zeros() as usize;
                        zeros &= zeros - 1;
                        Some(block * 64 + bit)
                    }
                })
            })
    }
}

/// A graph flattened into the joint label space: out-edges per node sorted by
/// label id, and in-edges per node grouped by label id, both in contiguous
/// arrays (no pointers to chase in the hot loops).
struct GraphIndex {
    node_count: usize,
    /// `node → [out_start[n], out_start[n+1])` slice of the `out_*` arrays.
    out_start: Vec<u32>,
    out_label: Vec<u32>,
    out_target: Vec<u32>,
    out_occur: Vec<Interval>,
    /// `node → [in_group_start[n], in_group_start[n+1])` slice of
    /// `in_groups`; each group is `(label, start, end)` into `in_source`.
    in_group_start: Vec<u32>,
    in_groups: Vec<(u32, u32, u32)>,
    in_source: Vec<u32>,
}

impl GraphIndex {
    fn build(graph: &Graph, joint: &[u32]) -> GraphIndex {
        let n = graph.node_count();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out_label = Vec::with_capacity(graph.edge_count());
        let mut out_target = Vec::with_capacity(graph.edge_count());
        let mut out_occur = Vec::with_capacity(graph.edge_count());
        let mut slots: Vec<(u32, u32, Interval)> = Vec::new();
        out_start.push(0);
        for node in graph.nodes() {
            slots.clear();
            // The graph's grouped-adjacency cache is sorted by the graph's
            // own label ids; re-sort by joint id (a no-op for the `G` side,
            // whose local ids coincide with the joint ids).
            for (label, edges) in graph.out_groups(node) {
                let j = joint[label.index()];
                for &e in edges {
                    slots.push((j, graph.target(e).0, graph.occur(e)));
                }
            }
            slots.sort_unstable_by_key(|&(l, t, _)| (l, t));
            for &(l, t, occur) in &slots {
                out_label.push(l);
                out_target.push(t);
                out_occur.push(occur);
            }
            out_start.push(out_label.len() as u32);
        }

        let mut in_group_start = Vec::with_capacity(n + 1);
        let mut in_groups: Vec<(u32, u32, u32)> = Vec::new();
        let mut in_source: Vec<u32> = Vec::with_capacity(graph.edge_count());
        let mut in_slots: Vec<(u32, u32)> = Vec::new();
        in_group_start.push(0);
        for node in graph.nodes() {
            in_slots.clear();
            for (label, edges) in graph.in_groups(node) {
                let j = joint[label.index()];
                for &e in edges {
                    in_slots.push((j, graph.source(e).0));
                }
            }
            in_slots.sort_unstable();
            let mut i = 0;
            while i < in_slots.len() {
                let label = in_slots[i].0;
                let start = in_source.len() as u32;
                while i < in_slots.len() && in_slots[i].0 == label {
                    in_source.push(in_slots[i].1);
                    i += 1;
                }
                in_groups.push((label, start, in_source.len() as u32));
            }
            in_group_start.push(in_groups.len() as u32);
        }

        GraphIndex {
            node_count: n,
            out_start,
            out_label,
            out_target,
            out_occur,
            in_group_start,
            in_groups,
            in_source,
        }
    }

    #[inline]
    fn out_range(&self, node: usize) -> std::ops::Range<usize> {
        self.out_start[node] as usize..self.out_start[node + 1] as usize
    }

    fn in_groups_of(&self, node: usize) -> &[(u32, u32, u32)] {
        &self.in_groups[self.in_group_start[node] as usize..self.in_group_start[node + 1] as usize]
    }
}

/// Map both graphs' interned labels into one joint `u32` space: `G`'s ids
/// are reused verbatim and `H`-only labels get fresh ids, so string
/// comparisons happen once per distinct label instead of once per edge pair.
fn joint_label_maps(g: &Graph, h: &Graph) -> (Vec<u32>, Vec<u32>) {
    let g_map: Vec<u32> = (0..g.label_count() as u32).collect();
    let mut next = g.label_count() as u32;
    let h_map: Vec<u32> = h
        .label_ids()
        .map(|id| match g.find_label(h.label_of(id).as_str()) {
            Some(gid) => gid.0,
            None => {
                let fresh = next;
                next += 1;
                fresh
            }
        })
        .collect();
    (g_map, h_map)
}

/// The label-signature prune: `m` can only simulate `n` if every out-label
/// of `n` occurs on some out-edge of `m` (the witness is total on
/// `out_G(n)`), and every out-label of `m` carrying a lower bound ≥ 1 occurs
/// on some out-edge of `n` (a mandatory sink needs at least one source).
/// Both sides walk the label-sorted out slices in lockstep.
fn signature_allows(gi: &GraphIndex, hi: &GraphIndex, n: usize, m: usize) -> bool {
    let g_labels = &gi.out_label[gi.out_range(n)];
    let h_labels = &hi.out_label[hi.out_range(m)];
    let h_occurs = &hi.out_occur[hi.out_range(m)];
    // Every g-label must appear among the h-labels.
    let mut j = 0;
    let mut i = 0;
    while i < g_labels.len() {
        let label = g_labels[i];
        while j < h_labels.len() && h_labels[j] < label {
            j += 1;
        }
        if j == h_labels.len() || h_labels[j] != label {
            return false;
        }
        while i < g_labels.len() && g_labels[i] == label {
            i += 1;
        }
    }
    // Every mandatory h-label must appear among the g-labels.
    let mut i = 0;
    for (j, &label) in h_labels.iter().enumerate() {
        if h_occurs[j].lo() == 0 {
            continue;
        }
        while i < g_labels.len() && g_labels[i] < label {
            i += 1;
        }
        if i == g_labels.len() || g_labels[i] != label {
            return false;
        }
    }
    true
}

/// Whether `m` witnesses `n` with respect to `rel` (`None` stands for the
/// full relation of the initial pass, where every target pair is a
/// candidate).
fn has_witness(
    gi: &GraphIndex,
    hi: &GraphIndex,
    n: usize,
    m: usize,
    rel: Option<&BitRel>,
    scratch: &mut FlowScratch,
) -> bool {
    let gr = gi.out_range(n);
    let hr = hi.out_range(m);
    scratch.clear();
    scratch.sources.extend_from_slice(&gi.out_occur[gr.clone()]);
    scratch.sinks.extend_from_slice(&hi.out_occur[hr.clone()]);
    let g_label = &gi.out_label[gr.clone()];
    let g_target = &gi.out_target[gr];
    let h_label = &hi.out_label[hr.clone()];
    let h_target = &hi.out_target[hr];
    let compatible = |v: usize, u: usize| {
        g_label[v] == h_label[u]
            && match rel {
                None => true,
                Some(r) => r.contains(g_target[v] as usize, h_target[u] as usize),
            }
    };
    scratch.solve(compatible)
}

/// One row of the initial pass: prune by label signature, then check the
/// witness against the full relation.
fn initial_row(
    gi: &GraphIndex,
    hi: &GraphIndex,
    n: usize,
    row: &mut [u64],
    scratch: &mut FlowScratch,
) {
    for m in 0..hi.node_count {
        if signature_allows(gi, hi, n, m) && has_witness(gi, hi, n, m, None, scratch) {
            row[m / 64] |= 1u64 << (m % 64);
        }
    }
}

/// Compute the maximal simulation of `G` in `H`.
///
/// Starting from the full relation `N_G × N_H`, pairs without a witness are
/// removed until no change occurs; since simulations are closed under union
/// the result is the unique maximal simulation. See the module docs for what
/// makes this engine fast; the original full-rescan fix-point survives as
/// the test oracle [`crate::baseline::max_simulation_baseline`].
pub fn max_simulation(g: &Graph, h: &Graph) -> Simulation {
    let (g_map, h_map) = joint_label_maps(g, h);
    let gi = GraphIndex::build(g, &g_map);
    let hi = GraphIndex::build(h, &h_map);
    let g_n = gi.node_count;
    let h_n = hi.node_count;

    let mut rel = BitRel::empty(g_n, h_n);
    let mut scratch = FlowScratch::new();
    let blocks = rel.blocks;
    for n in 0..g_n {
        let row = &mut rel.bits[n * blocks..(n + 1) * blocks];
        initial_row(&gi, &hi, n, row, &mut scratch);
    }

    // Worklist refinement: whenever a pair (n, m) is found removed, the only
    // pairs whose witness may have depended on it are (n0, m0) with
    // n0 →ᵃ n and m0 →ᵃ m for a shared label a.
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    let mut dirty = BitRel::empty(g_n, h_n);
    let enqueue_predecessors =
        |rel: &BitRel, dirty: &mut BitRel, queue: &mut VecDeque<(u32, u32)>, n: usize, m: usize| {
            let g_groups = gi.in_groups_of(n);
            let h_groups = hi.in_groups_of(m);
            let mut j = 0;
            for &(label, gs, ge) in g_groups {
                while j < h_groups.len() && h_groups[j].0 < label {
                    j += 1;
                }
                if j == h_groups.len() {
                    break;
                }
                let (h_label, hs, he) = h_groups[j];
                if h_label != label {
                    continue;
                }
                for &n0 in &gi.in_source[gs as usize..ge as usize] {
                    let n0 = n0 as usize;
                    // Hoist the row: a drained G-row (no simulators left)
                    // skips its whole m0 sweep on a handful of word compares.
                    let rel_row = rel.row(n0);
                    if rel_row.iter().all(|&w| w == 0) {
                        continue;
                    }
                    for &m0 in &hi.in_source[hs as usize..he as usize] {
                        let m0 = m0 as usize;
                        if rel_row[m0 / 64] & (1u64 << (m0 % 64)) != 0 && dirty.try_mark(n0, m0) {
                            queue.push_back((n0 as u32, m0 as u32));
                        }
                    }
                }
            }
        };

    for n in 0..g_n {
        for m in rel.row_zeros(n) {
            enqueue_predecessors(&rel, &mut dirty, &mut queue, n, m);
        }
    }

    while let Some((n, m)) = queue.pop_front() {
        let (n, m) = (n as usize, m as usize);
        dirty.remove(n, m);
        if !rel.contains(n, m) {
            continue;
        }
        if !has_witness(&gi, &hi, n, m, Some(&rel), &mut scratch) {
            rel.remove(n, m);
            enqueue_predecessors(&rel, &mut dirty, &mut queue, n, m);
        }
    }

    let simulators: Vec<BTreeSet<NodeId>> = (0..g_n)
        .map(|n| {
            if rel.row_count(n) == 0 {
                BTreeSet::new()
            } else {
                rel.row_iter(n).map(|m| NodeId(m as u32)).collect()
            }
        })
        .collect();
    Simulation { simulators }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::max_simulation_baseline;
    use shapex_graph::parse_graph;

    fn engines_agree(g: &Graph, h: &Graph) -> Simulation {
        let baseline = max_simulation_baseline(g, h);
        let worklist = max_simulation(g, h);
        assert_eq!(baseline, worklist, "worklist engine disagrees");
        worklist
    }

    #[test]
    fn bitrel_word_kernels_respect_the_tail_mask() {
        // 70 columns: two blocks, 6 valid bits in the tail block.
        let mut rel = BitRel::empty(2, 70);
        for m in (0..70).filter(|m| m % 3 != 0) {
            assert!(rel.try_mark(0, m), "first mark of ({m}) must be new");
        }
        assert!(!rel.try_mark(0, 1), "re-marking a set bit reports not-new");
        let zeros: Vec<usize> = rel.row_zeros(0).collect();
        assert_eq!(zeros, (0..70).step_by(3).collect::<Vec<_>>());
        assert_eq!(rel.row_count(0), 70 - zeros.len());
        assert_eq!(
            rel.row_iter(0).collect::<Vec<_>>().len(),
            rel.row_count(0),
            "row_iter and count_ones agree"
        );
        // An untouched row: every valid column is a zero, none beyond cols.
        assert_eq!(rel.row_count(1), 0);
        assert_eq!(rel.row_zeros(1).count(), 70);
        rel.remove(0, 2);
        assert!(!rel.contains(0, 2));
        assert!(rel.contains(0, 4));
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
        // m has an extra optional label: still simulates.
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
