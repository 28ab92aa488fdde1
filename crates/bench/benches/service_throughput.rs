//! Corpus-scale service throughput: closed-loop client fleets hammering a
//! `ServicePool` of sharded workers over one shared engine, on the
//! duplicate-heavy request mix of `shapex_bench::throughput` (three in four
//! requests hit one hot check that the bounded search answers and the
//! engine does not memoise, so single-flight coalescing absorbs its
//! concurrent duplicates).
//!
//! Each iteration is one full drive: fresh service (cold caches), corpus
//! registration, `clients` closed-loop threads of `requests_per_client`
//! checks each. Run with
//! `cargo bench -p shapex-bench --bench service_throughput`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shapex_bench::throughput::{drive, DriveOptions};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");

    for &clients in &[1usize, 4, 16] {
        let options = DriveOptions {
            clients,
            requests_per_client: 32,
            ..DriveOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new("clients", clients),
            &options,
            |b, options| b.iter(|| drive(options).requests),
        );
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
