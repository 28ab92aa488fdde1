//! Tentpole experiment: the `ContainmentEngine` session on the batch
//! schema-evolution workload — a full N×N containment matrix over an
//! evolving schema family — versus N² one-shot `general_containment` calls
//! that rebuild every shape graph, unfolding pool, and validation verdict
//! per pair.
//!
//! The acceptance bar for this harness: the engine-backed matrix ≥ 2× over
//! the one-shot N² loop at N ≥ 8. Run with
//! `cargo bench -p shapex-bench --bench batch_matrix`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shapex_bench::evolution_family;
use shapex_core::engine::ContainmentEngine;
use shapex_core::general::general_containment;
use shapex_core::unfold::SearchOptions;
use shapex_core::Containment;

/// Fold a matrix of answers into a small checksum so the optimizer keeps
/// every containment decision and both arms return comparable values.
fn checksum<'a>(answers: impl Iterator<Item = &'a Containment>) -> usize {
    answers.fold(0usize, |acc, c| {
        acc.wrapping_mul(3).wrapping_add(match c {
            Containment::Contained => 0,
            Containment::NotContained(_) => 1,
            Containment::Unknown(_) => 2,
        })
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_matrix");
    let opts = SearchOptions::quick();

    for &n in &[8usize, 12] {
        let family = evolution_family(n);

        // Baseline: N² independent one-shot calls (each constructs a
        // throwaway engine — pools and memos die with every pair).
        group.bench_with_input(BenchmarkId::new("oneshot", n), &family, |b, family| {
            b.iter(|| {
                let mut answers = Vec::with_capacity(n * n);
                for h in family {
                    for k in family {
                        answers.push(general_containment(h, k, &opts));
                    }
                }
                checksum(answers.iter())
            })
        });

        // The session: one engine computes the whole matrix, building each
        // schema's artefacts once (the engine is constructed inside the
        // timed closure — cold-start included).
        group.bench_with_input(BenchmarkId::new("engine", n), &family, |b, family| {
            b.iter(|| {
                let matrix = ContainmentEngine::with_search(opts.clone()).check_matrix(family);
                checksum(matrix.iter().flatten())
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! { name = benches; config = config(); targets = bench }
criterion_main!(benches);
