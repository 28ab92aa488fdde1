//! `max_simulation` — the bitset-row typing worklist of `shapex-shex`, run
//! with `H`'s nodes as the types — versus the retained full-rescan
//! fix-point (`baseline.rs`) on generated graph pairs of growing size:
//! shape-graph pairs from the `shapex-gadgets` schema generator and
//! instance-vs-shape pairs sampled from random shapes.
//!
//! The acceptance bar for this harness is a ≥ 3× speed-up of the worklist
//! over the baseline on the largest generated pair; run with
//! `cargo bench -p shapex-bench --bench sim_engine_scaling`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shapex_bench::{contained_shex0_pair, rng};
use shapex_core::baseline::max_simulation_baseline;
use shapex_core::simulation::max_simulation;
use shapex_graph::generate::{sample_from_shape, GraphGen};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine_scaling");

    // Shape-graph pairs derived from generated ShEx0 schemas (the
    // containment fast path exercised by every decision procedure).
    for &types in &[16usize, 32, 64] {
        let (h, k) = contained_shex0_pair(types, 4_000 + types as u64);
        let hg = h.to_shape_graph().unwrap();
        let kg = k.to_shape_graph().unwrap();
        group.bench_with_input(
            BenchmarkId::new("schema_pair_baseline", types),
            &(&hg, &kg),
            |b, (hg, kg)| b.iter(|| max_simulation_baseline(hg, kg).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("schema_pair_worklist", types),
            &(&hg, &kg),
            |b, (hg, kg)| b.iter(|| max_simulation(hg, kg).len()),
        );
    }

    // Instance-vs-shape pairs: a large simple graph sampled from a random
    // shape graph, the membership workload of Section 3.
    for &nodes in &[128usize, 256, 512] {
        let mut r = rng(5_000 + nodes as u64);
        // Unfoldings can die out early on unlucky shapes; retry until the
        // instance actually fills the requested node budget.
        let (shape, instance) = loop {
            let shape = GraphGen::new(24, 4).out_degree(2.5).shape(&mut r);
            let instance = sample_from_shape(&mut r, &shape, nodes);
            if instance.node_count() >= nodes {
                break (shape, instance);
            }
        };
        group.bench_with_input(
            BenchmarkId::new("instance_baseline", nodes),
            &(&instance, &shape),
            |b, (g, h)| b.iter(|| max_simulation_baseline(g, h).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("instance_worklist", nodes),
            &(&instance, &shape),
            |b, (g, h)| b.iter(|| max_simulation(g, h).len()),
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
