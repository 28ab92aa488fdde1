//! Pieces every workload shares: the run result, sample statistics, the
//! verdict digest, failure bookkeeping, and the in-memory span recorder.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use shapex::containment::engine::EngineStats;
use shapex::containment::Containment;
use shapex::graph::{Graph, Label};
use shapex::service::ServiceStats;
use shapex::shex::{validates, Atom, Schema};

/// The options of one invocation, as parsed from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run as one of the measuring processes of an untraced run.
    pub child: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Failures,
    /// Digest of every verdict the run is guaranteed to produce for its
    /// seed, independent of how much work fitted in the time budget.
    pub digest: u64,
    /// Human-readable lines printed ahead of the result (workload-specific
    /// figures that are not end-to-end metrics of every workload).
    pub details: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }
}

/// Failed requests and wrong or uncertified verdicts. Only the first few
/// are kept verbatim; all are counted.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub examples: Vec<String>,
}

impl Failures {
    pub fn miss(&mut self, what: impl Into<String>) {
        self.count += 1;
        if self.examples.len() < 8 {
            self.examples.push(what.into());
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for example in other.examples {
            if self.examples.len() < 8 {
                self.examples.push(example);
            }
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// closest ranks; `0` for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; `0` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// An isomorphic copy of `schema` with every type and label name prefixed
/// by `tag`. The prefix keeps the names' relative order, so the copy costs
/// the procedures what the original does while its text, hashes and
/// interned ids differ.
pub fn renamed(schema: &Schema, tag: &str) -> Schema {
    let mut copy = Schema::new();
    for t in schema.types() {
        copy.add_type(format!("{tag}{}", schema.type_name(t)));
    }
    for t in schema.types() {
        let def = schema
            .def(t)
            .map(|a| Atom::new(Label::new(format!("{tag}{}", a.label.as_str())), a.target));
        let ct = copy
            .find_type(&format!("{tag}{}", schema.type_name(t)))
            .expect("added above");
        copy.define(ct, def);
    }
    copy
}

/// The renaming tag of a run: short, and different for every seed.
pub fn seed_tag(seed: u64) -> String {
    format!("s{seed:x}_")
}

/// One completed request, as the windowed statistics see it.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Seconds from the start of the phase to the response.
    pub at: f64,
    /// Verdicts the response carried.
    pub verdicts: u64,
    /// The round trip, for a request that asks for verdicts.
    pub read_ms: Option<f64>,
}

/// End-to-end figures of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub requests_per_s: f64,
    pub verdicts_per_s: f64,
    pub read_mean_ms: f64,
    pub read_p90_ms: f64,
}

impl Figures {
    /// The figures of a whole phase.
    pub fn of(events: &[Event], seconds: f64) -> Figures {
        let reads: Vec<f64> = events.iter().filter_map(|e| e.read_ms).collect();
        Figures {
            requests_per_s: events.len() as f64 / seconds,
            verdicts_per_s: events.iter().map(|e| e.verdicts).sum::<u64>() as f64 / seconds,
            read_mean_ms: mean(&reads),
            read_p90_ms: quantile(&reads, 0.9),
        }
    }

    /// Each figure's median over `parts` (passes, or windows of a phase).
    /// The host's speed drifts by several percent over seconds; a median
    /// over parts moves less with a slow stretch than a whole-phase figure.
    pub fn median_of(parts: &[Figures]) -> Figures {
        let m = |f: fn(&Figures) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        Figures {
            requests_per_s: m(|f| f.requests_per_s),
            verdicts_per_s: m(|f| f.verdicts_per_s),
            read_mean_ms: m(|f| f.read_mean_ms),
            read_p90_ms: m(|f| f.read_p90_ms),
        }
    }

    /// The median figures over windows of about `width` seconds between
    /// `start` and `end` (seconds into the phase), and the request rate of
    /// every window.
    pub fn windowed(events: &[Event], start: f64, end: f64, width: f64) -> (Figures, Vec<f64>) {
        let count = (((end - start) / width).floor() as usize).max(1);
        let span = (end - start) / count as f64;
        let mut windows: Vec<Vec<Event>> = vec![Vec::new(); count];
        for e in events.iter().filter(|e| e.at >= start) {
            windows[(((e.at - start) / span) as usize).min(count - 1)].push(*e);
        }
        let parts: Vec<Figures> = windows
            .iter()
            .filter(|w| w.iter().any(|e| e.read_ms.is_some()))
            .map(|w| Figures::of(w, span))
            .collect();
        let rates = parts.iter().map(|f| f.requests_per_s).collect();
        (Figures::median_of(&parts), rates)
    }

    pub fn report(&self, out: &mut Outcome) {
        out.push("requests_per_s", self.requests_per_s, "1/s");
        out.push("verdicts_per_s", self.verdicts_per_s, "1/s");
        out.push("read_mean_ms", self.read_mean_ms, "ms");
        out.push("read_p90_ms", self.read_p90_ms, "ms");
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, 64-bit: a stable digest that does not depend on the standard
/// library's hasher keys or version.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn str(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Whether `witness` certifies `L(h) ⊄ L(k)`: it satisfies `h` and
/// violates `k`, by the batch validator.
pub fn certified(witness: &Graph, h: &Schema, k: &Schema) -> bool {
    validates(witness, h) && !validates(witness, k)
}

/// A stable fingerprint of a verdict: its kind, the reason of an
/// `Unknown`, and the full edge list of a counter-example.
pub fn verdict_code(answer: &Containment) -> u64 {
    let mut h = Fnv::default();
    match answer {
        Containment::Contained => h.str("contained"),
        Containment::NotContained(witness) => {
            h.str("not-contained");
            h.u64(graph_code(witness));
        }
        Containment::Unknown(reason) => {
            h.str("unknown");
            h.str(&reason.to_string());
        }
    }
    h.0
}

/// A stable fingerprint of a graph's node and labelled-edge structure.
pub fn graph_code(graph: &Graph) -> u64 {
    let mut edges: Vec<(&str, &str, &str)> = graph
        .edges()
        .map(|e| {
            (
                graph.node_name(graph.source(e)),
                graph.label(e).as_str(),
                graph.node_name(graph.target(e)),
            )
        })
        .collect();
    edges.sort_unstable();
    let mut h = Fnv::default();
    h.u64(graph.node_count() as u64);
    for (s, l, t) in edges {
        h.str(s);
        h.str(l);
        h.str(t);
    }
    h.0
}

/// Engine counters accumulated over the measured phase, from stats
/// snapshots taken at the benchmark's call boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineWork {
    pub validate_hits: u64,
    pub validate_misses: u64,
    pub pool_hits: u64,
    pub pools_built: u64,
    pub embed_misses: u64,
    pub coalesced_queries: u64,
    pub evictions: u64,
    pub evicted_bytes: u64,
    pub sweeps: u64,
    pub admission_rejections: u64,
    pub resident_bytes: u64,
    pub solver_calls: u64,
    pub search_nodes: u64,
    pub pruned_branches: u64,
}

impl EngineWork {
    /// Add the counters that grew from `before` to `after`; resident bytes
    /// keep the largest footprint seen.
    pub fn add(&mut self, before: &EngineStats, after: &EngineStats) {
        self.validate_hits += after.validate_hits - before.validate_hits;
        self.validate_misses += after.validate_misses - before.validate_misses;
        self.pool_hits += after.pool_hits - before.pool_hits;
        self.pools_built += after.pools_built - before.pools_built;
        self.embed_misses += after.embed_misses - before.embed_misses;
        self.coalesced_queries += after.coalesced_queries - before.coalesced_queries;
        self.evictions += after.evictions - before.evictions;
        self.evicted_bytes += after.evicted_bytes - before.evicted_bytes;
        self.sweeps += after.sweeps - before.sweeps;
        self.admission_rejections += after.admission_rejections - before.admission_rejections;
        self.resident_bytes = self.resident_bytes.max(after.resident_bytes());
        self.solver_calls += after.solver_calls - before.solver_calls;
        self.search_nodes += after.solver_search_nodes - before.solver_search_nodes;
        self.pruned_branches += after.solver_pruned_branches - before.solver_pruned_branches;
    }

    /// Add another phase's counters (resident bytes: the larger).
    pub fn merge(&mut self, other: &EngineWork) {
        self.validate_hits += other.validate_hits;
        self.validate_misses += other.validate_misses;
        self.pool_hits += other.pool_hits;
        self.pools_built += other.pools_built;
        self.embed_misses += other.embed_misses;
        self.coalesced_queries += other.coalesced_queries;
        self.evictions += other.evictions;
        self.evicted_bytes += other.evicted_bytes;
        self.sweeps += other.sweeps;
        self.admission_rejections += other.admission_rejections;
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
        self.solver_calls += other.solver_calls;
        self.search_nodes += other.search_nodes;
        self.pruned_branches += other.pruned_branches;
    }
}

/// Service-layer observations of the traced phase.
#[derive(Debug, Default)]
pub struct ServiceWork {
    /// Client-side round trips, µs.
    pub roundtrip_us: Vec<f64>,
    /// Round trips of `Register` requests, µs.
    pub register_us: Vec<f64>,
    /// Sum and count of service-side handling time, µs.
    pub handle_sum_us: f64,
    pub handle_count: u64,
    pub rejected: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub engine: EngineWork,
}

impl ServiceWork {
    /// Fold in everything the service recorded from `before` to `after`.
    pub fn add_stats(&mut self, before: &ServiceStats, after: &ServiceStats) {
        let total =
            |s: &ServiceStats| us(s.latency.mean().unwrap_or_default()) * s.latency.count() as f64;
        self.handle_sum_us += total(after) - total(before);
        self.handle_count += after.latency.count() - before.latency.count();
        self.rejected += after.rejected - before.rejected;
        self.retries += after.retries - before.retries;
        self.timeouts += after.timeouts.count() - before.timeouts.count();
        self.engine.add(&before.engine, &after.engine);
    }

    pub fn absorb(&mut self, other: ServiceWork) {
        self.roundtrip_us.extend(other.roundtrip_us);
        self.register_us.extend(other.register_us);
        self.handle_sum_us += other.handle_sum_us;
        self.handle_count += other.handle_count;
        self.rejected += other.rejected;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.engine.merge(&other.engine);
    }

    pub fn report(&self, out: &mut Outcome) {
        let roundtrip = mean(&self.roundtrip_us);
        let handle = if self.handle_count == 0 {
            0.0
        } else {
            self.handle_sum_us / self.handle_count as f64
        };
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let e = &self.engine;
        out.push("service.roundtrip_mean_us", roundtrip, "us");
        out.push("service.handle_mean_us", handle, "us");
        out.push("service.queue_wait_mean_us", roundtrip - handle, "us");
        out.push("service.rejected", self.rejected as f64, "count");
        out.push("service.retries", self.retries as f64, "count");
        out.push("service.timeouts", self.timeouts as f64, "count");
        out.push("engine.register_us", mean(&self.register_us), "us");
        out.push(
            "engine.validate_hit_ratio",
            ratio(e.validate_hits, e.validate_misses),
            "ratio",
        );
        out.push("engine.validate_misses", e.validate_misses as f64, "count");
        out.push(
            "engine.pool_hit_ratio",
            ratio(e.pool_hits, e.pools_built),
            "ratio",
        );
        out.push("engine.pools_built", e.pools_built as f64, "count");
        out.push("engine.embed_misses", e.embed_misses as f64, "count");
        out.push(
            "engine.coalesced_queries",
            e.coalesced_queries as f64,
            "count",
        );
        out.push("engine.evictions", e.evictions as f64, "count");
        out.push("engine.evicted_bytes", e.evicted_bytes as f64, "bytes");
        out.push("engine.sweeps", e.sweeps as f64, "count");
        out.push(
            "engine.admission_rejections",
            e.admission_rejections as f64,
            "count",
        );
        out.push("engine.resident_bytes", e.resident_bytes as f64, "bytes");
        out.push("presburger.solver_calls", e.solver_calls as f64, "count");
        out.push("presburger.search_nodes", e.search_nodes as f64, "count");
        out.push(
            "presburger.pruned_branches",
            e.pruned_branches as f64,
            "count",
        );
    }
}

/// One traced interval: a call into a layer, or a phase around such calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder, one per thread. Disabled recorders record
/// nothing; `start`/`finish` then cost one branch.
#[derive(Debug)]
pub struct Spans {
    pub enabled: bool,
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, epoch: Instant) -> Spans {
        Spans {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Append another thread's spans, shifted onto this recorder's epoch.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Tab-separated dump: id, parent, name, start and end in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
