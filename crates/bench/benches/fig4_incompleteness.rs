//! E3 (Figure 4): embeddings are a sufficient but not necessary condition for
//! containment. `L(G) = L(H)` yet only `H ≼ G` holds; the ShEx₀ procedure
//! decides the embedding direction fast and proves the other with the
//! type-set fixpoint.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use shapex_core::embedding::embeds;
use shapex_core::shex0::{shex0_containment, Shex0Options};
use shapex_gadgets::figures;

fn bench(c: &mut Criterion) {
    let g = figures::fig4_g_schema();
    let h = figures::fig4_h_schema();
    let g_shape = g.to_shape_graph().unwrap();
    let h_shape = h.to_shape_graph().unwrap();

    let mut group = c.benchmark_group("fig4_incompleteness");
    group.bench_function("embedding_h_in_g_holds", |b| {
        b.iter(|| embeds(&h_shape, &g_shape).is_some())
    });
    group.bench_function("embedding_g_in_h_fails", |b| {
        b.iter(|| embeds(&g_shape, &h_shape).is_none())
    });
    group.bench_function("containment_h_in_g_via_embedding", |b| {
        b.iter(|| shex0_containment(&h, &g, &Shex0Options::quick()).is_contained())
    });
    group.bench_function("containment_g_in_h_budgeted_search", |b| {
        b.iter(|| shex0_containment(&g, &h, &Shex0Options::quick()).is_contained())
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
