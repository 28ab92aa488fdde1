//! Interval-constrained assignment ("flow routing") problems.
//!
//! Both the witness check of an embedding (Definition 3.1, condition 3) and
//! the satisfaction of an RBE₀ type definition by a node's outbound
//! neighbourhood reduce to the same question: given *sources* and *sinks*
//! carrying occurrence intervals and a compatibility relation, is there a
//! total assignment `λ` of sources to compatible sinks such that for every
//! sink `u` the interval sum `⊕ { interval(v) | λ(v) = u }` is included in
//! `interval(u)`?
//!
//! * [`basic_assignment`] solves the problem in polynomial time when all
//!   intervals are *basic* (`1`, `?`, `+`, `*`), the tractable case of
//!   Theorem 3.4. The paper gives a direct augmenting-path algorithm
//!   (push-forth / pull-back graphs); this implementation reduces the problem
//!   to an integral feasible-circulation instance with lower bounds, which is
//!   solved by a small max-flow routine — the same polynomial complexity
//!   class with an easier correctness argument.
//! * [`general_assignment`] solves the problem for arbitrary intervals by
//!   backtracking search; the problem is NP-complete in that generality
//!   (Theorem 3.5).
//! * *Forced routing*, the first pass of [`FlowScratch::solve`], decides
//!   every instance in which no source has two compatible sinks — always
//!   the case for deterministic definitions, where no label occurs twice. A
//!   source with no compatible sink makes the instance infeasible;
//!   otherwise the routing is unique, so the instance is feasible iff that
//!   routing's loads fit every sink. No network is built, whatever the
//!   intervals.
//!
//! Hot callers should call [`FlowScratch::solve`]: the typing worklist of
//! `shapex-shex` checks every `(node, type)` pair with it, and so computes
//! both maximal typings and maximal simulations (the `(node, node)` pairs
//! of `shapex-core`'s embeddings). It owns every buffer the solvers need,
//! so repeated calls perform no allocation once the buffers have grown to
//! the workload's high-water mark. The two free functions above are the
//! reference solvers, thin wrappers that build a fresh scratch per call.

use crate::interval::Interval;

/// A sufficient statistic of the interval sum routed into a sink.
#[derive(Debug, Clone, Copy, Default)]
struct SinkLoad {
    lo_sum: u64,
    finite_hi_sum: u64,
    unbounded_sources: u32,
}

impl SinkLoad {
    fn add(&mut self, interval: Interval) {
        self.lo_sum += interval.lo();
        match interval.hi() {
            Some(h) => self.finite_hi_sum += h,
            None => self.unbounded_sources += 1,
        }
    }

    fn remove(&mut self, interval: Interval) {
        self.lo_sum -= interval.lo();
        match interval.hi() {
            Some(h) => self.finite_hi_sum -= h,
            None => self.unbounded_sources -= 1,
        }
    }

    /// Whether the load can still fit under the sink's upper bound (more
    /// sources may be added later, which only increases the sums).
    fn fits_upper(&self, sink: Interval) -> bool {
        match sink.hi() {
            None => true,
            Some(cap) => self.unbounded_sources == 0 && self.finite_hi_sum <= cap,
        }
    }

    /// Whether the final load satisfies both bounds of the sink's interval.
    fn fits(&self, sink: Interval) -> bool {
        self.fits_upper(sink) && self.lo_sum >= sink.lo()
    }
}

/// Reusable buffers for the interval-assignment solvers.
///
/// Fill [`FlowScratch::sources`] and [`FlowScratch::sinks`] (after
/// [`FlowScratch::clear`]), then call [`FlowScratch::solve`]; on success the
/// routing is available through [`FlowScratch::assignment`]. Every internal
/// buffer — the circulation network of the basic solver, the compatibility
/// lists and load tables of the backtracking solver — is retained between
/// calls, so a long-lived scratch makes repeated witness checks
/// allocation-free.
#[derive(Debug, Default)]
pub struct FlowScratch {
    /// Source intervals; filled by the caller between `clear` and `solve`.
    pub sources: Vec<Interval>,
    /// Sink intervals; filled by the caller between `clear` and `solve`.
    pub sinks: Vec<Interval>,
    assignment: Vec<usize>,
    /// Per-sink loads of the forced-routing pass and the backtracking solver.
    loads: Vec<SinkLoad>,
    // Backtracking-solver buffers.
    compat: Vec<Vec<usize>>,
    potential_lo: Vec<u64>,
    order: Vec<usize>,
    // Basic-solver buffers.
    net: LowerBoundFlow,
    source_edge_ids: Vec<Vec<(usize, usize)>>,
}

impl FlowScratch {
    /// A scratch with empty buffers.
    pub fn new() -> FlowScratch {
        FlowScratch::default()
    }

    /// Empty `sources` and `sinks` for the next instance (capacity is kept).
    pub fn clear(&mut self) {
        self.sources.clear();
        self.sinks.clear();
        // Drop the previous routing so `assignment()` can never hand out a
        // prior instance's entries re-truncated to the new source count.
        self.assignment.clear();
    }

    /// The assignment found by the last successful [`FlowScratch::solve`]:
    /// `assignment()[v]` is the sink source `v` is routed to. Empty before a
    /// successful solve of the current instance.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment[..self.sources.len().min(self.assignment.len())]
    }

    /// Decide whether a valid routing of `sources` into `sinks` exists.
    ///
    /// A first pass scans the sources in order and builds no flow network.
    /// A source with no compatible sink answers `false`. When every source
    /// has exactly one, the routing is forced and only its loads are checked.
    /// Otherwise, unless the sources with one compatible sink already
    /// overfill a sink (`false`), the instance goes to the polynomial solver
    /// when every interval is basic and to the backtracking solver if not.
    pub fn solve(&mut self, compatible: impl Fn(usize, usize) -> bool) -> bool {
        if let Some(answer) = self.solve_forced(&compatible) {
            return answer;
        }
        let all_basic = self
            .sources
            .iter()
            .chain(self.sinks.iter())
            .all(|i| i.is_basic());
        if all_basic {
            self.solve_basic(compatible)
        } else {
            self.solve_general(compatible)
        }
    }

    /// The forced-routing pass of [`FlowScratch::solve`]. A source with no
    /// compatible sink makes the instance infeasible; when each source has
    /// exactly one, the routing is unique, so it is feasible iff every
    /// sink's load fits its interval. When some source has two or more (a
    /// real choice), the answer is `None` unless the sources with one
    /// compatible sink already exceed a sink's upper bound.
    fn solve_forced(&mut self, compatible: &impl Fn(usize, usize) -> bool) -> Option<bool> {
        let n_sinks = self.sinks.len();
        self.assignment.clear();
        self.loads.clear();
        self.loads.resize(n_sinks, SinkLoad::default());
        let mut choice = false;
        for (v, &source) in self.sources.iter().enumerate() {
            let mut sinks = (0..n_sinks).filter(|&u| compatible(v, u));
            match (sinks.next(), sinks.next()) {
                (Some(u), None) => {
                    self.loads[u].add(source);
                    self.assignment.push(u);
                }
                (None, _) => {
                    self.assignment.clear();
                    return Some(false);
                }
                (Some(_), Some(_)) => choice = true,
            }
        }
        if choice {
            // The forced sources go where they must whatever the others do,
            // so a sink they already overfill refutes the instance.
            self.assignment.clear();
            let overfilled = self
                .loads
                .iter()
                .zip(&self.sinks)
                .any(|(load, sink)| !load.fits_upper(*sink));
            return overfilled.then_some(false);
        }
        let fits = self
            .loads
            .iter()
            .zip(self.sinks.iter())
            .all(|(load, sink)| load.fits(*sink));
        if fits {
            debug_assert!(verify_assignment(
                &self.sources,
                &self.sinks,
                &self.assignment
            ));
        } else {
            self.assignment.clear();
        }
        Some(fits)
    }

    /// The polynomial feasible-circulation solver (Theorem 3.4).
    ///
    /// # Panics
    /// Panics if any interval is not basic (`1`, `?`, `+`, `*`); use
    /// [`FlowScratch::solve`] or [`FlowScratch::solve_general`] for arbitrary
    /// intervals.
    pub fn solve_basic(&mut self, compatible: impl Fn(usize, usize) -> bool) -> bool {
        for i in self.sources.iter().chain(self.sinks.iter()) {
            assert!(
                i.is_basic(),
                "basic_assignment requires basic intervals, got {i}"
            );
        }
        self.assignment.clear();
        // Trivial case: no sources. Every sink must accept the empty sum
        // [0;0].
        if self.sources.is_empty() {
            return self.sinks.iter().all(|u| u.lo() == 0);
        }
        if self.sinks.is_empty() {
            return false; // a source cannot be routed anywhere
        }

        // Build a circulation-with-lower-bounds network:
        //   s → v                 [1;1]   every source is routed exactly once
        //   v → u_strong          [0;1]   if compatible, lo(v) = 1, hi-compat.
        //   v → u_weak            [0;1]   if compatible, lo(v) = 0, hi-compat.
        //   u_strong → u          [lo(u); n]
        //   u_weak   → u          [0; n]
        //   u → t                 [0; hi(u) = 1 ? 1 : n]
        //   t → s                 [0; n]  (closes the circulation)
        // where hi-compatible forbids routing an unbounded source into a sink
        // with finite upper bound.
        let n_sources = self.sources.len();
        let n_sinks = self.sinks.len();
        let big = n_sources as i64; // capacity standing in for ∞
        let node_s = 0;
        let node_t = 1;
        let source_node = |v: usize| 2 + v;
        let strong_node = |u: usize| 2 + n_sources + u;
        let weak_node = |u: usize| 2 + n_sources + n_sinks + u;
        let sink_node = |u: usize| 2 + n_sources + 2 * n_sinks + u;
        let total_nodes = 2 + n_sources + 3 * n_sinks;

        self.net.reset(total_nodes);
        if self.source_edge_ids.len() < n_sources {
            self.source_edge_ids.resize_with(n_sources, Vec::new);
        }
        for edges in self.source_edge_ids.iter_mut().take(n_sources) {
            edges.clear();
        }
        for v in 0..n_sources {
            self.net.add_edge(node_s, source_node(v), 1, 1);
        }
        for (u, sink) in self.sinks.iter().enumerate() {
            self.net
                .add_edge(strong_node(u), sink_node(u), sink.lo() as i64, big);
            self.net.add_edge(weak_node(u), sink_node(u), 0, big);
            let cap = match sink.hi() {
                Some(h) => h as i64,
                None => big,
            };
            self.net.add_edge(sink_node(u), node_t, 0, cap);
        }
        for v in 0..n_sources {
            for (u, sink) in self.sinks.iter().enumerate() {
                if !compatible(v, u) {
                    continue;
                }
                // An unbounded source cannot feed a finitely bounded sink.
                if self.sources[v].hi().is_none() && sink.hi().is_some() {
                    continue;
                }
                let mid = if self.sources[v].lo() >= 1 {
                    strong_node(u)
                } else {
                    weak_node(u)
                };
                let edge = self.net.add_edge(source_node(v), mid, 0, 1);
                self.source_edge_ids[v].push((u, edge));
            }
        }
        self.net.add_edge(node_t, node_s, 0, big);

        if !self.net.feasible() {
            return false;
        }
        self.assignment.resize(n_sources, usize::MAX);
        for v in 0..n_sources {
            for &(u, edge) in &self.source_edge_ids[v] {
                if self.net.flow_with_lower(edge) > 0 {
                    self.assignment[v] = u;
                }
            }
            if self.assignment[v] == usize::MAX {
                // Should not happen for a feasible circulation; treat as
                // failure.
                self.assignment.clear();
                return false;
            }
        }
        debug_assert!(verify_assignment(
            &self.sources,
            &self.sinks,
            &self.assignment
        ));
        true
    }

    /// The backtracking solver for arbitrary intervals (Theorem 3.5).
    ///
    /// Sound and complete, but exponential in the worst case (the problem is
    /// NP-complete). Two prunings keep it practical on the workloads in this
    /// workspace: upper bounds are checked incrementally, and a sink whose
    /// lower bound can no longer be reached by the still-unassigned
    /// compatible sources cuts the branch immediately.
    pub fn solve_general(&mut self, compatible: impl Fn(usize, usize) -> bool) -> bool {
        let n_sources = self.sources.len();
        let n_sinks = self.sinks.len();
        self.assignment.clear();
        if n_sources == 0 {
            return self.sinks.iter().all(|u| u.lo() == 0);
        }
        if n_sinks == 0 {
            return false;
        }
        // Precompute the compatibility lists.
        if self.compat.len() < n_sources {
            self.compat.resize_with(n_sources, Vec::new);
        }
        for (v, sinks_of_v) in self.compat.iter_mut().take(n_sources).enumerate() {
            sinks_of_v.clear();
            sinks_of_v.extend((0..n_sinks).filter(|&u| compatible(v, u)));
        }
        // Potential lower-bound mass still available to each sink from
        // unassigned sources; once
        // `loads[u].lo_sum + potential_lo[u] < sinks[u].lo()` a branch is
        // dead.
        self.potential_lo.clear();
        self.potential_lo.resize(n_sinks, 0);
        for (v, sinks_of_v) in self.compat.iter().take(n_sources).enumerate() {
            for &u in sinks_of_v {
                self.potential_lo[u] += self.sources[v].lo();
            }
        }
        if self
            .potential_lo
            .iter()
            .zip(self.sinks.iter())
            .any(|(&potential, sink)| potential < sink.lo())
        {
            return false;
        }

        self.loads.clear();
        self.loads.resize(n_sinks, SinkLoad::default());
        self.assignment.resize(n_sources, usize::MAX);
        // Order sources by how few sinks they are compatible with (fail
        // fast).
        self.order.clear();
        self.order.extend(0..n_sources);
        let compat = &self.compat;
        self.order.sort_by_key(|&v| compat[v].len());

        let found = general_search(
            &self.sources,
            &self.sinks,
            &self.compat,
            &self.order,
            &mut self.loads,
            &mut self.potential_lo,
            &mut self.assignment,
            0,
        );
        if found {
            debug_assert!(verify_assignment(
                &self.sources,
                &self.sinks,
                &self.assignment
            ));
        } else {
            self.assignment.clear();
        }
        found
    }
}

/// The recursive backtracking step of [`FlowScratch::solve_general`].
#[allow(clippy::too_many_arguments)]
fn general_search(
    sources: &[Interval],
    sinks: &[Interval],
    compat: &[Vec<usize>],
    order: &[usize],
    loads: &mut [SinkLoad],
    potential_lo: &mut [u64],
    assignment: &mut [usize],
    pos: usize,
) -> bool {
    if pos == order.len() {
        return loads
            .iter()
            .zip(sinks.iter())
            .all(|(load, sink)| load.fits(*sink));
    }
    let v = order[pos];
    let lo_v = sources[v].lo();
    // The source is no longer "available": remove its potential from every
    // compatible sink, then add it back to the chosen one.
    for &u in &compat[v] {
        potential_lo[u] -= lo_v;
    }
    for idx in 0..compat[v].len() {
        let u = compat[v][idx];
        loads[u].add(sources[v]);
        let feasible = loads[u].fits_upper(sinks[u])
            && loads
                .iter()
                .zip(potential_lo.iter())
                .zip(sinks.iter())
                .all(|((load, &potential), sink)| load.lo_sum + potential >= sink.lo());
        if feasible {
            assignment[v] = u;
            if general_search(
                sources,
                sinks,
                compat,
                order,
                loads,
                potential_lo,
                assignment,
                pos + 1,
            ) {
                return true;
            }
            assignment[v] = usize::MAX;
        }
        loads[u].remove(sources[v]);
    }
    for &u in &compat[v] {
        potential_lo[u] += lo_v;
    }
    false
}

/// Solve the assignment problem for **basic** intervals in polynomial time:
/// the reference solver for Theorem 3.4, always through the max-flow
/// network.
///
/// `compatible(v, u)` tells whether source `v` may be routed to sink `u`.
/// Returns the assignment (`result[v] = u`) or `None` when no valid routing
/// exists. Allocates a fresh [`FlowScratch`] per call; hot loops should hold
/// a scratch and call [`FlowScratch::solve`].
///
/// # Panics
/// Panics if any interval is not basic (`1`, `?`, `+`, `*`); use
/// [`general_assignment`] for arbitrary intervals.
pub fn basic_assignment(
    sources: &[Interval],
    sinks: &[Interval],
    compatible: impl Fn(usize, usize) -> bool,
) -> Option<Vec<usize>> {
    let mut scratch = FlowScratch::new();
    scratch.sources.extend_from_slice(sources);
    scratch.sinks.extend_from_slice(sinks);
    if scratch.solve_basic(compatible) {
        Some(scratch.assignment().to_vec())
    } else {
        None
    }
}

/// Solve the assignment problem for arbitrary intervals by backtracking: the
/// reference solver for Theorem 3.5.
///
/// Sound and complete, but exponential in the worst case (the problem is
/// NP-complete, Theorem 3.5). Allocates a fresh [`FlowScratch`] per call; hot
/// loops should hold a scratch and call [`FlowScratch::solve`].
pub fn general_assignment(
    sources: &[Interval],
    sinks: &[Interval],
    compatible: impl Fn(usize, usize) -> bool,
) -> Option<Vec<usize>> {
    let mut scratch = FlowScratch::new();
    scratch.sources.extend_from_slice(sources);
    scratch.sinks.extend_from_slice(sinks);
    if scratch.solve_general(compatible) {
        Some(scratch.assignment().to_vec())
    } else {
        None
    }
}

/// Verify that an assignment satisfies the interval-sum condition; exposed for
/// tests and used as a debug assertion by both solvers.
pub fn verify_assignment(sources: &[Interval], sinks: &[Interval], assignment: &[usize]) -> bool {
    if assignment.len() != sources.len() {
        return false;
    }
    let mut loads = vec![SinkLoad::default(); sinks.len()];
    for (v, &u) in assignment.iter().enumerate() {
        if u >= sinks.len() {
            return false;
        }
        loads[u].add(sources[v]);
    }
    loads
        .iter()
        .zip(sinks.iter())
        .all(|(load, sink)| load.fits(*sink))
}

/// A tiny max-flow network supporting lower bounds via the standard
/// excess-node reduction; capacities are small integers. All buffers are
/// retained across [`LowerBoundFlow::reset`] calls so a long-lived instance
/// (inside a [`FlowScratch`]) does not allocate per solve.
#[derive(Debug, Default)]
struct LowerBoundFlow {
    graph: Vec<Vec<usize>>, // adjacency: indices into `edges`
    edges: Vec<FlowEdge>,
    excess: Vec<i64>,
    lower: Vec<i64>,
    /// Public nodes of the current instance (the reduction appends two
    /// super-source/sink nodes after them).
    nodes: usize,
    // max-flow working buffers
    parent_edge: Vec<Option<usize>>,
    reached: Vec<bool>,
    queue: std::collections::VecDeque<usize>,
}

#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    cap: i64,
    flow: i64,
}

impl LowerBoundFlow {
    /// Prepare for a fresh instance with `nodes` public nodes, keeping
    /// buffer capacity.
    fn reset(&mut self, nodes: usize) {
        self.nodes = nodes;
        if self.graph.len() < nodes + 2 {
            self.graph.resize_with(nodes + 2, Vec::new);
        }
        for adjacency in self.graph.iter_mut().take(nodes + 2) {
            adjacency.clear();
        }
        self.edges.clear();
        self.excess.clear();
        self.excess.resize(nodes + 2, 0);
        self.lower.clear();
    }

    /// Add an edge with a lower bound and an upper capacity; returns the index
    /// used to read the final flow back.
    fn add_edge(&mut self, from: usize, to: usize, lower: i64, upper: i64) -> usize {
        debug_assert!(lower <= upper);
        let id = self.edges.len();
        // Store the reduced capacity (upper - lower); account the lower bound
        // as an excess transfer.
        self.graph[from].push(self.edges.len());
        self.edges.push(FlowEdge {
            to,
            cap: upper - lower,
            flow: 0,
        });
        self.graph[to].push(self.edges.len());
        self.edges.push(FlowEdge {
            to: from,
            cap: 0,
            flow: 0,
        });
        self.excess[to] += lower;
        self.excess[from] -= lower;
        self.lower.push(lower);
        self.lower.push(0);
        id
    }

    /// The total flow through a public edge, including its lower bound. Only
    /// meaningful after a successful [`LowerBoundFlow::feasible`].
    fn flow_with_lower(&self, edge: usize) -> i64 {
        self.edges[edge].flow + self.lower.get(edge).copied().unwrap_or(0)
    }

    /// Check feasibility of the circulation with lower bounds.
    fn feasible(&mut self) -> bool {
        let super_s = self.nodes;
        let super_t = self.nodes + 1;
        let mut required = 0;
        for node in 0..self.nodes {
            let excess = self.excess[node];
            if excess > 0 {
                required += excess;
                self.push_plain_edge(super_s, node, excess);
            } else if excess < 0 {
                self.push_plain_edge(node, super_t, -excess);
            }
        }
        self.max_flow(super_s, super_t) >= required
    }

    fn push_plain_edge(&mut self, from: usize, to: usize, cap: i64) {
        self.graph[from].push(self.edges.len());
        self.edges.push(FlowEdge { to, cap, flow: 0 });
        self.graph[to].push(self.edges.len());
        self.edges.push(FlowEdge {
            to: from,
            cap: 0,
            flow: 0,
        });
        self.lower.push(0);
        self.lower.push(0);
    }

    /// Edmonds–Karp max-flow; the networks here have a handful of nodes.
    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let active = self.nodes + 2;
        let mut total = 0;
        loop {
            // BFS for an augmenting path.
            self.parent_edge.clear();
            self.parent_edge.resize(active, None);
            self.reached.clear();
            self.reached.resize(active, false);
            self.queue.clear();
            self.queue.push_back(s);
            self.reached[s] = true;
            while let Some(x) = self.queue.pop_front() {
                if x == t {
                    break;
                }
                for &eid in &self.graph[x] {
                    let e = &self.edges[eid];
                    if !self.reached[e.to] && e.cap - e.flow > 0 {
                        self.reached[e.to] = true;
                        self.parent_edge[e.to] = Some(eid);
                        self.queue.push_back(e.to);
                    }
                }
            }
            if !self.reached[t] {
                break;
            }
            // Find the bottleneck.
            let mut bottleneck = i64::MAX;
            let mut node = t;
            while node != s {
                let eid = self.parent_edge[node].expect("path exists");
                let e = &self.edges[eid];
                bottleneck = bottleneck.min(e.cap - e.flow);
                node = self.edges[eid ^ 1].to;
            }
            // Augment.
            let mut node = t;
            while node != s {
                let eid = self.parent_edge[node].expect("path exists");
                self.edges[eid].flow += bottleneck;
                self.edges[eid ^ 1].flow -= bottleneck;
                node = self.edges[eid ^ 1].to;
            }
            total += bottleneck;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: Interval = Interval::ONE;
    const OPT: Interval = Interval::OPT;
    const PLUS: Interval = Interval::PLUS;
    const STAR: Interval = Interval::STAR;

    fn check_both(
        sources: &[Interval],
        sinks: &[Interval],
        compat: &[(usize, usize)],
        expect: bool,
    ) {
        let compatible = |v: usize, u: usize| compat.contains(&(v, u));
        let basic = basic_assignment(sources, sinks, compatible);
        let general = general_assignment(sources, sinks, compatible);
        assert_eq!(basic.is_some(), expect, "basic solver disagrees");
        assert_eq!(general.is_some(), expect, "general solver disagrees");
        if let Some(a) = &basic {
            assert!(verify_assignment(sources, sinks, a));
        }
        if let Some(a) = &general {
            assert!(verify_assignment(sources, sinks, a));
        }
    }

    #[test]
    fn single_source_single_sink() {
        check_both(&[ONE], &[ONE], &[(0, 0)], true);
        check_both(&[ONE], &[STAR], &[(0, 0)], true);
        check_both(&[ONE], &[OPT], &[(0, 0)], true);
        check_both(&[STAR], &[ONE], &[(0, 0)], false);
        check_both(&[STAR], &[STAR], &[(0, 0)], true);
        check_both(&[OPT], &[ONE], &[(0, 0)], false);
        check_both(&[OPT], &[PLUS], &[(0, 0)], false);
        check_both(&[PLUS], &[PLUS], &[(0, 0)], true);
        // Incompatible pair.
        check_both(&[ONE], &[ONE], &[], false);
    }

    #[test]
    fn mandatory_sink_requires_a_source() {
        // A sink with interval 1 and no compatible source fails even though
        // every source is routed elsewhere.
        check_both(&[ONE], &[ONE, ONE], &[(0, 0)], false);
        // With an OPT second sink it succeeds.
        check_both(&[ONE], &[ONE, OPT], &[(0, 0)], true);
        // Empty source set: only "optional" sinks are satisfied.
        check_both(&[], &[OPT, STAR], &[], true);
        check_both(&[], &[ONE], &[], false);
        check_both(&[], &[PLUS], &[], false);
    }

    #[test]
    fn capacity_one_sinks_take_at_most_one_source() {
        // Two mandatory sources, a single capacity-1 sink.
        check_both(&[ONE, ONE], &[ONE], &[(0, 0), (1, 0)], false);
        // A star sink absorbs both.
        check_both(&[ONE, ONE], &[STAR], &[(0, 0), (1, 0)], true);
        // Split across two sinks.
        check_both(
            &[ONE, ONE],
            &[ONE, ONE],
            &[(0, 0), (0, 1), (1, 0), (1, 1)],
            true,
        );
        // Both sources only compatible with the same capacity-1 sink.
        check_both(&[ONE, ONE], &[ONE, ONE], &[(0, 0), (1, 0)], false);
    }

    #[test]
    fn optional_sources_do_not_satisfy_mandatory_sinks() {
        // An OPT source alone cannot satisfy a PLUS or ONE sink (lower bound).
        check_both(&[OPT], &[STAR], &[(0, 0)], true);
        check_both(&[OPT, ONE], &[PLUS], &[(0, 0), (1, 0)], true);
        check_both(&[OPT, OPT], &[PLUS], &[(0, 0), (1, 0)], false);
    }

    #[test]
    fn unbounded_sources_need_unbounded_sinks() {
        check_both(&[STAR], &[OPT], &[(0, 0)], false);
        check_both(&[STAR], &[STAR], &[(0, 0)], true);
        check_both(&[PLUS], &[ONE], &[(0, 0)], false);
        check_both(&[PLUS], &[PLUS], &[(0, 0)], true);
        check_both(&[PLUS, ONE], &[PLUS, OPT], &[(0, 0), (1, 1)], true);
    }

    #[test]
    fn assignment_respects_compatibility() {
        let sources = [ONE, ONE, ONE];
        let sinks = [STAR, ONE];
        let compat = [(0, 0), (1, 0), (2, 1)];
        let compatible = |v: usize, u: usize| compat.contains(&(v, u));
        let a = basic_assignment(&sources, &sinks, compatible).unwrap();
        assert_eq!(a[2], 1);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 0);
    }

    #[test]
    fn general_assignment_handles_arbitrary_intervals() {
        // Source [2;2] must go to a sink that tolerates exactly two.
        let sources = [Interval::exactly(2), Interval::exactly(1)];
        let sinks = [Interval::bounded(2, 3), Interval::bounded(1, 1)];
        let compatible = |_v: usize, _u: usize| true;
        let a = general_assignment(&sources, &sinks, compatible).unwrap();
        assert!(verify_assignment(&sources, &sinks, &a));
        // Sum of lower bounds exceeding every sink's capacity is infeasible.
        let bad = general_assignment(
            &[Interval::exactly(3)],
            &[Interval::bounded(1, 2)],
            |_, _| true,
        );
        assert!(bad.is_none());
    }

    #[test]
    #[should_panic(expected = "requires basic intervals")]
    fn basic_assignment_rejects_arbitrary_intervals() {
        let _ = basic_assignment(&[Interval::exactly(2)], &[STAR], |_, _| true);
    }

    #[test]
    fn scratch_reuse_across_instances() {
        let mut scratch = FlowScratch::new();
        // A basic instance...
        scratch.sources.extend_from_slice(&[ONE, ONE]);
        scratch.sinks.push(STAR);
        assert!(scratch.solve(|_, _| true));
        assert_eq!(scratch.assignment(), &[0, 0]);
        // ...then a failing basic instance with fewer sources...
        scratch.clear();
        assert!(scratch.assignment().is_empty(), "clear drops the routing");
        scratch.sources.push(STAR);
        scratch.sinks.push(ONE);
        assert!(!scratch.solve(|_, _| true));
        assert!(
            scratch.assignment().is_empty(),
            "no stale routing after a failed solve"
        );
        // ...then a general instance reusing the same buffers.
        scratch.clear();
        scratch.sources.push(Interval::exactly(2));
        scratch.sinks.push(Interval::bounded(2, 3));
        assert!(scratch.solve(|_, _| true));
        assert_eq!(scratch.assignment(), &[0]);
        // A dispatch to the general solver happens for non-basic intervals
        // even when a stale basic network is cached.
        scratch.clear();
        scratch.sources.push(Interval::exactly(3));
        scratch.sinks.push(Interval::bounded(1, 2));
        assert!(!scratch.solve(|_, _| true));
    }

    #[test]
    fn randomized_cross_check() {
        // Exhaustively compare the solvers on all small instances with every
        // compatibility pattern, sharing one scratch across every instance to
        // exercise buffer reuse. The masks in which each source has at most
        // one compatible sink drive `solve` through its forced-routing pass;
        // the non-basic intervals reach it and the backtracking solver only.
        let intervals = [
            ONE,
            OPT,
            PLUS,
            STAR,
            Interval::ZERO,
            Interval::exactly(2),
            Interval::bounded(1, 3),
        ];
        let mut scratch = FlowScratch::new();
        for &s1 in &intervals {
            for &s2 in &intervals {
                for &u1 in &intervals {
                    for &u2 in &intervals {
                        for mask in 0..16u32 {
                            let compat: Vec<(usize, usize)> = (0..4)
                                .filter(|i| mask & (1 << i) != 0)
                                .map(|i| (i / 2, i % 2))
                                .collect();
                            let compatible = |v: usize, u: usize| compat.contains(&(v, u));
                            let sources = [s1, s2];
                            let sinks = [u1, u2];
                            let case = format!("sources {s1},{s2} sinks {u1},{u2} mask {mask:b}");
                            let g = general_assignment(&sources, &sinks, compatible).is_some();
                            if sources.iter().chain(&sinks).all(|i| i.is_basic()) {
                                let b = basic_assignment(&sources, &sinks, compatible).is_some();
                                assert_eq!(b, g, "solvers disagree on {case}");
                            }
                            scratch.clear();
                            scratch.sources.extend_from_slice(&sources);
                            scratch.sinks.extend_from_slice(&sinks);
                            assert_eq!(
                                scratch.solve_general(compatible),
                                g,
                                "scratch disagrees on {case}"
                            );
                            scratch.clear();
                            scratch.sources.extend_from_slice(&sources);
                            scratch.sinks.extend_from_slice(&sinks);
                            assert_eq!(scratch.solve(compatible), g, "solve disagrees on {case}");
                            if g {
                                assert!(
                                    verify_assignment(&sources, &sinks, scratch.assignment()),
                                    "solve routes {case} invalidly"
                                );
                            } else {
                                assert!(scratch.assignment().is_empty(), "stale routing on {case}");
                            }
                        }
                    }
                }
            }
        }
    }
}
