//! Exact containment for `ShEx₀`: a least fixpoint over abstract node states.
//!
//! Containment of shape graphs is decidable — EXP-hard and in coNEXP
//! (Theorems 5.3 and 5.4 of the paper) — and [`decide`] is a decision
//! procedure for it. It answers `L(H) ⊆ L(K)` for two RBE₀ schemas exactly,
//! up to a constant work bound ([`EVALUATION_BUDGET`]), and every
//! `NotContained` answer carries a small certified counter-example.
//!
//! # States
//!
//! A *state* `(t, S)` pairs an H-type `t` with a set `S ⊆ Γ_K`. It stands for
//! a node of some graph whose H-typing gives it `t` and whose maximal
//! K-typing gives it at most the types in `S`. `S` is a bitset row over
//! `Γ_K`.
//!
//! * **Start states.** Every H-type `t` starts as `(t, Γ_K)`. Each H-type is
//!   *realisable* — some finite graph of `L(H)` has a node of that type:
//!   under basic intervals `δ_H(t)` accepts the bag of its mandatory atoms,
//!   and graphs may be cyclic, so the graph with one node per type and one
//!   copy per mandatory atom (the *realiser*) types every node. (The
//!   greatest fixpoint that drops a type with a mandatory atom into a
//!   dropped type never drops anything here; it would only matter for
//!   definitions with an empty language.)
//! * **Step.** For an H-type `t`, pick, for each atom `a::u^I` of
//!   `δ_H(t)`, a multiset of current states of `u` whose size lies in `I`.
//!   The union is a bag of children `(a, state)` that `δ_H(t)` accepts. It
//!   yields `(t, S)`, where `S` holds the K-types `s` whose definition
//!   `δ_K(s)` accepts the bag when each child carries its own set — the
//!   typing step of `shapex_shex::typing`, run on type sets instead of graph
//!   nodes, and decided by one [`FlowScratch::solve`] per `s`.
//! * **Goal.** `L(H) ⊄ L(K)` exactly when some `(t, ∅)` is reachable.
//!
//! Three reductions keep the search finite and small:
//!
//! * **Antichains.** Only the ⊆-minimal sets are kept per H-type.
//!   Acceptance by `δ_K(s)` is monotone in the children's sets, so a larger
//!   set never helps to reach `∅` (De Wulf, Doyen, Henzinger & Raskin,
//!   *Antichains: a new algorithm for checking universality of finite
//!   automata*, CAV 2006).
//! * **Keys.** What `δ_K(s)` can tell about a child `(a, (u, S))` is which
//!   of its atoms the child is compatible with, and that depends only on
//!   the *key* `(a, S ∩ T_a)`, `T_a` being the targets of K's atoms
//!   labelled `a`. So the K-set of a bag depends only on its count of
//!   children per key: its *summary*. The bags of an atom of `δ_H(t)` are
//!   enumerated one per summary, and the bags of `δ_H(t)` are combined atom
//!   by atom keeping one bag per summary; each summary of a type is
//!   evaluated once, however many visits reach it.
//! * **Multiplicity cap.** Let `N` count the atoms of one `δ_K(s)` that the
//!   children of one key are compatible with. Under basic intervals an atom
//!   holds at most one copy, or any number. So once the key occurs `N + 1`
//!   times, some compatible atom holds two copies and is unbounded: one
//!   more copy can be added to it, or one removed, without changing
//!   acceptance. The count of a key therefore changes nothing above
//!   `1 + max_s N_s`, and summaries are capped there. (`δ_H(t)` needs no cap:
//!   each atom's choices are accepted by construction.)
//!
//! A type is visited again whenever a type it references gains a state.
//!
//! # Why it is exact
//!
//! *A reachable `(t, ∅)` yields a counter-example.* Unfold the derivation
//! into a graph with one node per `(state, copy)`: a derived node whose bag
//! holds `c` children of class `(a, X)` gets `a`-edges to copies `0..c` of
//! `X`, and a start node `(u, Γ_K)` points, for each atom of `δ_H(u)` with a
//! lower bound ≥ 1, to a fresh copy of the start node of the atom's target —
//! a realiser of the H-types, built only as far as the derivation reaches
//! it. Different parents share copies. The result is a simple graph (one
//! class, one label, distinct copies), and the typing that gives every node
//! its state's H-type is valid, so the graph is in `L(H)`. Every node's
//! maximal K-types lie within its state's set: take a node with the smallest
//! state index violating this. It is derived (start sets are all of `Γ_K`),
//! its children were derived earlier and so satisfy the claim, and by
//! monotonicity every K-type it has accepts the bag under the children's
//! sets — which is how its set was computed. The root's K-types are
//! therefore `∅`, and the graph is not in `L(K)`. Each witness is certified
//! with [`validates`] before it is returned.
//!
//! *A counter-example makes some `(t, ∅)` reachable.* Let `G ∈ L(H)` have a
//! node with no K-type. Compute its maximal K-typing by rounds: `M₀(n) = Γ_K`
//! and `M_{j+1}(n)` the K-types whose definitions accept `n`'s bag under
//! `M_j` of its children; by monotonicity the rounds decrease to the maximal
//! typing. By induction on `j`, every node `n` with an H-type `t` has a
//! reachable state `(t, S)` with `S ⊆ M_j(n)`. For `j = 0` it is the start
//! state. For `j + 1`, the H-typing
//! assigns `n`'s edges to the atoms of `δ_H(t)`; replacing each child by a
//! state for it that the hypothesis provides — a ⊆-minimal one, which only
//! shrinks the result (monotonicity) — gives a bag that `δ_H(t)` accepts,
//! atom by atom. Each atom's share has a capped summary among that atom's
//! choices, so the fixpoint evaluates a bag with the same capped summary,
//! hence the same K-set, which lies within `M_{j+1}(n)`. At the maximal
//! typing, the untyped node gives `(t, ∅)`.
//!
//! # Cost
//!
//! The state space is exponential in `|Γ_K|` (one antichain of subsets of
//! `Γ_K` per H-type), and the summaries enumerated per type can be more
//! numerous still: an unbounded atom over `m` keys has `(cap + 1)^m`
//! summaries, and a definition's atoms multiply theirs. The problem is
//! EXP-hard, so no procedure avoids this in the worst case;
//! [`EVALUATION_BUDGET`] bounds the work, and a pair over it answers
//! [`FixpointOutcome::OverBudget`]. On the benchmark's corpus no pair comes
//! close: its hardest input, the DNF-tautology gadget of Theorem 4.5, needs
//! about a thousand evaluations.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use shapex_graph::{Graph, Label, NodeId};
use shapex_rbe::{FlowScratch, Interval};
use shapex_shex::typing::validates;
use shapex_shex::Schema;

use crate::{faults, CancelToken};

/// Bag evaluations (one flow check per K-type each) one pair may spend
/// before [`decide`] gives up. A constant, not an option: the benchmark's
/// worst pair needs about a thousand.
pub const EVALUATION_BUDGET: usize = 50_000;

/// Enumeration steps (summaries combined or choices listed) allowed per
/// unit of [`EVALUATION_BUDGET`]: a step is cheap next to an evaluation,
/// but it is bounded too.
const STEPS_PER_EVALUATION: usize = 32;

/// Enumeration steps between two cancellation polls.
const POLL_EVERY: usize = 64;

/// What [`decide`] found out about one ordered pair.
#[derive(Debug, Clone)]
pub enum FixpointOutcome {
    /// `L(H) ⊆ L(K)`: no state with an empty K-set is reachable.
    Contained,
    /// `L(H) ⊄ L(K)`, with a counter-example certified by [`validates`].
    NotContained(Arc<Graph>),
    /// The pair needs more than [`EVALUATION_BUDGET`] evaluations. In
    /// release builds a witness that fails certification (a bug, caught by a
    /// `debug_assert!` in debug builds) also ends here, so no uncertified
    /// witness escapes.
    OverBudget,
    /// The cancellation token fired before the fixpoint was reached.
    Cancelled,
}

/// Decide `L(H) ⊆ L(K)` for two RBE₀ schemas with the type-set fixpoint
/// (see the [module docs](self)). `cancel` is polled every few dozen
/// enumeration steps, where the `solver-branch` fault site also fires.
///
/// # Panics
/// Panics if either schema has a definition that is not RBE₀ with basic
/// intervals.
pub fn decide(h: &Schema, k: &Schema, cancel: Option<&CancelToken>) -> FixpointOutcome {
    assert!(
        h.is_rbe0() && k.is_rbe0(),
        "the type-set fixpoint decides RBE0 schemas only"
    );
    let tables = Tables::new(h, k);
    let mut search = Search::new(&tables, cancel);
    match search.run() {
        Ok(()) => FixpointOutcome::Contained,
        Err(Stop::OverBudget) => FixpointOutcome::OverBudget,
        Err(Stop::Cancelled) => FixpointOutcome::Cancelled,
        Err(Stop::Found(root)) => {
            let witness = search.witness(root);
            let certified = validates(&witness, h) && !validates(&witness, k);
            debug_assert!(certified, "uncertified fixpoint witness:\n{witness}");
            if certified {
                FixpointOutcome::NotContained(Arc::new(witness))
            } else {
                FixpointOutcome::OverBudget
            }
        }
    }
}

/// One atom `label::target^interval` of an RBE₀ definition, with the label
/// as an id shared by both schemas of the pair.
#[derive(Debug, Clone, Copy)]
struct Atom0 {
    label: u32,
    target: u32,
    interval: Interval,
}

/// Both schemas' definitions over one label space.
#[derive(Debug)]
struct Tables {
    labels: Vec<Label>,
    h: Vec<Vec<Atom0>>,
    k: Vec<Vec<Atom0>>,
}

impl Tables {
    fn new(h: &Schema, k: &Schema) -> Tables {
        let mut ids: HashMap<Label, u32> = HashMap::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut atoms_of = |schema: &Schema| -> Vec<Vec<Atom0>> {
            schema
                .types()
                .map(|t| {
                    let rbe0 = schema.def(t).to_rbe0().expect("checked RBE0");
                    rbe0.atoms()
                        .iter()
                        .map(|(atom, interval)| {
                            let next = labels.len() as u32;
                            let label = *ids.entry(atom.label.clone()).or_insert_with(|| {
                                labels.push(atom.label.clone());
                                next
                            });
                            Atom0 {
                                label,
                                target: atom.target.0,
                                interval: *interval,
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let h_atoms = atoms_of(h);
        let k_atoms = atoms_of(k);
        Tables {
            labels,
            h: h_atoms,
            k: k_atoms,
        }
    }
}

/// `count` children of one class `(label, state)` in a derived state's bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Class {
    label: u32,
    state: u32,
    count: u32,
}

/// One reachable state. Its K-set is row `index` of [`Search::rows`].
#[derive(Debug, Clone, Copy)]
struct State {
    htype: u32,
    /// The bag it was derived from, as a range of [`Search::classes`];
    /// `None` for a start state.
    bag: Option<(u32, u32)>,
}

/// Why the fixpoint stopped before reaching its end.
enum Stop {
    /// The state with this index has an empty K-set.
    Found(u32),
    OverBudget,
    Cancelled,
}

/// What K can tell about a bag: `(key, count)` pairs sorted by key, each
/// count capped at its key's cap. A key stands for `(a, S ∩ T_a)`, `T_a`
/// being the targets of K's atoms labelled `a`: children with one key are
/// compatible with the same atoms of every `δ_K(s)`, so bags with one
/// summary have one K-set.
type Summary = Vec<(u32, u32)>;

/// One way to fill an atom of `δ_H(t)`: its summary and the concrete
/// `(state, count)` children that realise it.
struct Choice {
    summary: Summary,
    items: Vec<(u32, u32)>,
}

struct Search<'a> {
    tables: &'a Tables,
    cancel: Option<&'a CancelToken>,
    /// Words per K-set row.
    width: usize,
    rows: Vec<u64>,
    states: Vec<State>,
    classes: Vec<Class>,
    /// Per H-type: the ⊆-minimal states found so far.
    antichain: Vec<Vec<u32>>,
    /// Per label: the row of targets of K's atoms with that label.
    targets: Vec<u64>,
    /// The keys met so far, by label and masked K-set.
    keys: HashMap<(u32, Vec<u64>), u32>,
    /// Per key: the count above which one more child changes no K-type.
    key_cap: Vec<u32>,
    /// Per H-type: the summaries already evaluated.
    evaluated: Vec<HashSet<Summary>>,
    flow: FlowScratch,
    /// Per flow source: the bag class it is a copy of.
    source_class: Vec<usize>,
    /// The K-set of the bag under evaluation.
    row: Vec<u64>,
    /// The bag under evaluation.
    bag: Vec<Class>,
    evaluations: usize,
    steps: usize,
}

impl<'a> Search<'a> {
    fn new(tables: &'a Tables, cancel: Option<&'a CancelToken>) -> Search<'a> {
        let nh = tables.h.len();
        let width = tables.k.len().div_ceil(64).max(1);
        let mut targets = vec![0u64; tables.labels.len() * width];
        for atom in tables.k.iter().flatten() {
            let at = atom.label as usize * width + atom.target as usize / 64;
            targets[at] |= 1 << (atom.target % 64);
        }
        Search {
            tables,
            cancel,
            width,
            rows: Vec::new(),
            states: Vec::new(),
            classes: Vec::new(),
            antichain: vec![Vec::new(); nh],
            targets,
            keys: HashMap::new(),
            key_cap: Vec::new(),
            evaluated: vec![HashSet::new(); nh],
            flow: FlowScratch::new(),
            source_class: Vec::new(),
            row: vec![0; width],
            bag: Vec::new(),
            evaluations: 0,
            steps: 0,
        }
    }

    fn row_of(&self, state: u32) -> &[u64] {
        let at = state as usize * self.width;
        &self.rows[at..at + self.width]
    }

    /// The key of a child of `state` along `label`, interned on first use
    /// with its cap: one more than the most atoms of one `δ_K(s)` the child
    /// is compatible with.
    fn key(&mut self, label: u32, state: u32) -> u32 {
        let at = label as usize * self.width;
        let targets = &self.targets[at..at + self.width];
        let masked: Vec<u64> = self
            .row_of(state)
            .iter()
            .zip(targets)
            .map(|(r, t)| r & t)
            .collect();
        let next = self.key_cap.len() as u32;
        let Search {
            keys,
            key_cap,
            tables,
            ..
        } = self;
        *keys
            .entry((label, masked))
            .or_insert_with_key(|(_, masked)| {
                let inside = |target: u32| masked[target as usize / 64] & (1 << (target % 64)) != 0;
                let most = tables.k.iter().map(|def| {
                    def.iter()
                        .filter(|a| a.label == label && inside(a.target))
                        .count() as u32
                });
                key_cap.push(1 + most.max().unwrap_or(0));
                next
            })
    }

    /// The least fixpoint, or the reason it stopped early.
    fn run(&mut self) -> Result<(), Stop> {
        let tables = self.tables;
        let nh = tables.h.len();
        // Start states: every type, with the full K-set.
        self.row.fill(0);
        for s in 0..tables.k.len() {
            self.row[s / 64] |= 1 << (s % 64);
        }
        for t in 0..nh {
            let state = self.push_state(t as u32, None);
            self.antichain[t].push(state);
        }
        if tables.k.is_empty() && nh > 0 {
            return Err(Stop::Found(0)); // Γ_K = ∅: no node is typed.
        }
        // Types that reference each type, to revisit when it gains a state.
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); nh];
        for t in 0..nh {
            for atom in &tables.h[t] {
                let list = &mut dependents[atom.target as usize];
                if list.last() != Some(&(t as u32)) {
                    list.push(t as u32);
                }
            }
        }
        let mut queue: VecDeque<u32> = bottom_up(&tables.h).into();
        let mut queued = vec![false; nh];
        for &t in &queue {
            queued[t as usize] = true;
        }
        while let Some(t) = queue.pop_front() {
            queued[t as usize] = false;
            if self.visit(t as usize)? {
                for &d in &dependents[t as usize] {
                    if !queued[d as usize] {
                        queued[d as usize] = true;
                        queue.push_back(d);
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate one bag of `t` per summary that the current antichains
    /// reach and that no earlier visit evaluated. Returns whether `t` gained
    /// a state.
    fn visit(&mut self, t: usize) -> Result<bool, Stop> {
        let atoms = &self.tables.h[t];
        let mut choices: Vec<Vec<Choice>> = Vec::with_capacity(atoms.len());
        for atom in atoms {
            choices.push(self.choices(atom)?);
        }
        // Combine atom by atom, keeping one concrete bag per summary.
        let mut frontier: Vec<(Summary, Vec<Class>)> = vec![(Vec::new(), Vec::new())];
        for (atom, choices) in atoms.iter().zip(&choices) {
            let mut next = Vec::new();
            let mut seen: HashSet<Summary> = HashSet::new();
            for (summary, bag) in &frontier {
                for choice in choices {
                    self.step()?;
                    let merged = self.merge(summary, &choice.summary);
                    if seen.insert(merged.clone()) {
                        let mut bag = bag.clone();
                        bag.extend(choice.items.iter().map(|&(state, count)| Class {
                            label: atom.label,
                            state,
                            count,
                        }));
                        next.push((merged, bag));
                    }
                }
            }
            frontier = next;
        }
        let mut gained = false;
        for (summary, bag) in frontier {
            if self.evaluated[t].insert(summary) {
                self.bag = bag;
                self.bag.sort_unstable();
                self.bag.dedup_by(|later, kept| {
                    let same = later.label == kept.label && later.state == kept.state;
                    if same {
                        kept.count += later.count;
                    }
                    same
                });
                gained |= self.evaluate(t)?;
            }
        }
        Ok(gained)
    }

    /// The ways to fill `atom` from the current states of its target, one
    /// per summary: for `1` and `?` one child of each key (or none), for
    /// `*` and `+` every count vector over the keys up to their caps.
    fn choices(&mut self, atom: &Atom0) -> Result<Vec<Choice>, Stop> {
        let mut keyed: Vec<(u32, u32)> = Vec::new();
        for m in self.antichain[atom.target as usize].clone() {
            let key = self.key(atom.label, m);
            if keyed.iter().all(|&(k, _)| k != key) {
                keyed.push((key, m));
            }
        }
        keyed.sort_unstable();
        let mut out = Vec::new();
        if atom.interval.lo() == 0 {
            out.push(Choice {
                summary: Vec::new(),
                items: Vec::new(),
            });
        }
        if atom.interval.hi().is_some() {
            out.extend(keyed.iter().map(|&(key, m)| Choice {
                summary: vec![(key, 1)],
                items: vec![(m, 1)],
            }));
            return Ok(out);
        }
        let mut counts = vec![0u32; keyed.len()];
        loop {
            let Some(digit) =
                (0..counts.len()).find(|&d| counts[d] < self.key_cap[keyed[d].0 as usize])
            else {
                return Ok(out);
            };
            counts[..digit].fill(0);
            counts[digit] += 1;
            self.step()?;
            let picked = keyed.iter().zip(&counts).filter(|&(_, &c)| c > 0);
            out.push(Choice {
                summary: picked.clone().map(|(&(key, _), &c)| (key, c)).collect(),
                items: picked.map(|(&(_, m), &c)| (m, c)).collect(),
            });
        }
    }

    /// The summary of two bags together.
    fn merge(&self, a: &[(u32, u32)], b: &[(u32, u32)]) -> Summary {
        let mut out: Summary = a.iter().chain(b).copied().collect();
        out.sort_unstable();
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = (kept.1 + later.1).min(self.key_cap[kept.0 as usize]);
            }
            same
        });
        out
    }

    /// Compute the K-set of [`Search::bag`] and record `(t, set)` unless an
    /// existing state of `t` is ⊆ it. Returns whether it was recorded.
    fn evaluate(&mut self, t: usize) -> Result<bool, Stop> {
        self.evaluations += 1;
        if self.evaluations > EVALUATION_BUDGET {
            return Err(Stop::OverBudget);
        }
        let Search {
            tables,
            width,
            rows,
            flow,
            source_class,
            row,
            bag,
            ..
        } = self;
        let width = *width;
        flow.clear();
        source_class.clear();
        for (i, class) in bag.iter().enumerate() {
            for _ in 0..class.count {
                flow.sources.push(Interval::ONE);
                source_class.push(i);
            }
        }
        row.fill(0);
        for (s, def) in tables.k.iter().enumerate() {
            flow.sinks.clear();
            flow.sinks.extend(def.iter().map(|a| a.interval));
            let accepted = flow.solve(|v, u| {
                let class = &bag[source_class[v]];
                let atom = &def[u];
                let at = class.state as usize * width + atom.target as usize / 64;
                atom.label == class.label && rows[at] & (1 << (atom.target % 64)) != 0
            });
            if accepted {
                row[s / 64] |= 1 << (s % 64);
            }
        }
        let subset = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & !y == 0);
        if self.antichain[t]
            .iter()
            .any(|&m| subset(self.row_of(m), &self.row))
        {
            return Ok(false);
        }
        let (rows, row) = (&self.rows, &self.row);
        self.antichain[t].retain(|&m| {
            let at = m as usize * width;
            !subset(row, &rows[at..at + width])
        });
        let from = self.classes.len() as u32;
        self.classes.extend_from_slice(&self.bag);
        let state = self.push_state(t as u32, Some((from, self.classes.len() as u32)));
        self.antichain[t].push(state);
        if self.row.iter().all(|&w| w == 0) {
            return Err(Stop::Found(state));
        }
        Ok(true)
    }

    /// Add a state whose K-set is [`Search::row`].
    fn push_state(&mut self, htype: u32, bag: Option<(u32, u32)>) -> u32 {
        let index = self.states.len() as u32;
        self.states.push(State { htype, bag });
        self.rows.extend_from_slice(&self.row);
        index
    }

    /// Count one step of enumeration against the budget, polling the token
    /// (and the `solver-branch` fault site) every [`POLL_EVERY`] steps.
    fn step(&mut self) -> Result<(), Stop> {
        if self.steps % POLL_EVERY == 0 {
            faults::trigger(faults::site::SOLVER_BRANCH);
            if self.cancel.is_some_and(|c| c.fired()) {
                return Err(Stop::Cancelled);
            }
        }
        self.steps += 1;
        if self.steps > EVALUATION_BUDGET * STEPS_PER_EVALUATION {
            return Err(Stop::OverBudget);
        }
        Ok(())
    }

    /// Unfold the derivation of `root` into a simple graph with one node per
    /// `(state, copy)` reached, `root`'s first copy being node `n0`.
    fn witness(&self, root: u32) -> Graph {
        let mut graph = Graph::new();
        let mut nodes: HashMap<(u32, u32), NodeId> = HashMap::new();
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        let mut node = |key: (u32, u32), graph: &mut Graph, queue: &mut VecDeque<(u32, u32)>| {
            *nodes.entry(key).or_insert_with(|| {
                queue.push_back(key);
                graph.add_node()
            })
        };
        let mut edges: Vec<(u32, (u32, u32))> = Vec::new();
        node((root, 0), &mut graph, &mut queue);
        while let Some(key) = queue.pop_front() {
            let source = node(key, &mut graph, &mut queue);
            let state = self.states[key.0 as usize];
            edges.clear();
            match state.bag {
                Some((from, to)) => {
                    for class in &self.classes[from as usize..to as usize] {
                        edges.extend(
                            (0..class.count).map(|copy| (class.label, (class.state, copy))),
                        );
                    }
                }
                None => {
                    // The realiser: one copy per mandatory atom, numbered per
                    // (label, target) pair.
                    let atoms = &self.tables.h[state.htype as usize];
                    for (i, atom) in atoms.iter().enumerate() {
                        if atom.interval.lo() == 0 {
                            continue;
                        }
                        let copy = atoms[..i]
                            .iter()
                            .filter(|a| {
                                a.interval.lo() > 0
                                    && a.label == atom.label
                                    && a.target == atom.target
                            })
                            .count() as u32;
                        // Start states come first: the one of type `u` is state `u`.
                        edges.push((atom.label, (atom.target, copy)));
                    }
                }
            }
            for &(label, target) in &edges {
                let target = node(target, &mut graph, &mut queue);
                graph.add_edge(source, self.tables.labels[label as usize].clone(), target);
            }
        }
        graph
    }
}

/// The H-types in depth-first post-order of the reference graph: referenced
/// types before the types that reference them, so the first visit of a type
/// already sees its children's derived states.
fn bottom_up(h: &[Vec<Atom0>]) -> Vec<u32> {
    fn visit(t: usize, h: &[Vec<Atom0>], seen: &mut [bool], out: &mut Vec<u32>) {
        seen[t] = true;
        for atom in &h[t] {
            if !seen[atom.target as usize] {
                visit(atom.target as usize, h, seen, out);
            }
        }
        out.push(t as u32);
    }
    let mut seen = vec![false; h.len()];
    let mut out = Vec::new();
    for t in 0..h.len() {
        if !seen[t] {
            visit(t, h, &mut seen, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_shex::parse_schema;

    fn outcome(h: &str, k: &str) -> FixpointOutcome {
        decide(&parse_schema(h).unwrap(), &parse_schema(k).unwrap(), None)
    }

    #[test]
    fn figure_1_and_its_split_are_equivalent() {
        let original =
            "Bug  -> descr::Literal, reportedBy::User, reproducedBy::Employee?, related::Bug*\n\
             User -> name::Literal, email::Literal?\n\
             Employee -> name::Literal, email::Literal\n";
        let split = "Bug1 -> descr::Literal, reportedBy::User1, reproducedBy::Employee?, related::Bug1*, related::Bug2*\n\
             Bug2 -> descr::Literal, reportedBy::User2, reproducedBy::Employee?, related::Bug1*, related::Bug2*\n\
             User1 -> name::Literal\n\
             User2 -> name::Literal, email::Literal\n\
             Employee -> name::Literal, email::Literal\n";
        assert!(matches!(
            outcome(original, split),
            FixpointOutcome::Contained
        ));
        assert!(matches!(
            outcome(split, original),
            FixpointOutcome::Contained
        ));
    }

    #[test]
    fn figure_4_star_unfolding_is_contained() {
        let g = "G -> a::Leaf*, b::Leaf*\nLeaf -> EMPTY\n";
        let h = "H0 -> a::Leaf*\nH1 -> a::Leaf*, b::Leaf\nH2 -> a::Leaf*, b::Leaf, b::Leaf*\nLeaf -> EMPTY\n";
        assert!(matches!(outcome(g, h), FixpointOutcome::Contained));
        assert!(matches!(outcome(h, g), FixpointOutcome::Contained));
    }

    #[test]
    fn refutations_are_small_certified_graphs() {
        let h = "Bug -> descr::Literal, related::Bug*\nLiteral -> EMPTY\n";
        let k = "Bug -> descr::Literal, related::Bug?\nLiteral -> EMPTY\n";
        let FixpointOutcome::NotContained(witness) = outcome(h, k) else {
            panic!("* does not narrow to ?");
        };
        // A bug with two related bugs and their literals.
        assert!(witness.node_count() <= 5, "{witness}");
        assert!(validates(&witness, &parse_schema(h).unwrap()));
        assert!(!validates(&witness, &parse_schema(k).unwrap()));
    }

    #[test]
    fn cyclic_types_are_realised() {
        // Every node of `looped` lies on a mandatory cycle: the only
        // members are cyclic graphs, which no unfolding reaches.
        let looped = "T -> p::T, p::U\nU -> q::T\n";
        let FixpointOutcome::NotContained(witness) = outcome(looped, "T -> z::T\n") else {
            panic!("a p-edge is never a z-edge");
        };
        assert!(witness.topological_order().is_none(), "{witness}");
        assert!(matches!(
            outcome("T -> next::T\n", "T -> next::T?\n"),
            FixpointOutcome::Contained
        ));
    }

    #[test]
    fn empty_k_refutes_every_node() {
        // No K-type: any node is untyped, and the realiser of a type is the
        // witness.
        let h = parse_schema("T -> p::U\nU -> q::T\n").unwrap();
        let FixpointOutcome::NotContained(witness) = decide(&h, &Schema::new(), None) else {
            panic!("an empty schema accepts only the empty graph");
        };
        assert_eq!(witness.node_count(), 2, "{witness}");
    }

    #[test]
    fn a_fired_token_cancels() {
        let token = CancelToken::new();
        token.cancel();
        let h = parse_schema("T -> p::L*\nL -> EMPTY\n").unwrap();
        let k = parse_schema("T -> p::L?\nL -> EMPTY\n").unwrap();
        assert!(matches!(
            decide(&h, &k, Some(&token)),
            FixpointOutcome::Cancelled
        ));
    }
}
