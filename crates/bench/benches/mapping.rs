//! Mapping materialization bench: the compiled dense replay
//! ([`Borges::mapping`]) for one feature set, and the Table 6
//! 16-combination sweep sequential vs [`Borges::mappings`].

use borges_bench::medium_pipeline;
use borges_core::FeatureSet;
use borges_telemetry::Telemetry;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mapping(c: &mut Criterion) {
    // Surfaced in the output so recorded baselines carry the host shape
    // with them instead of relying on a hand-written (and staling) note.
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let borges = medium_pipeline();
    let combinations = FeatureSet::all_combinations();

    let mut group = c.benchmark_group("mapping");
    group.sample_size(10);

    group.bench_function("single_all_compiled", |b| {
        b.iter(|| black_box(borges.mapping(FeatureSet::ALL)))
    });

    group.bench_function("sweep16_sequential_compiled", |b| {
        b.iter(|| {
            for &features in &combinations {
                black_box(borges.mapping(features));
            }
        })
    });
    for threads in [2, 4, 8] {
        group.bench_function(&format!("sweep16_parallel_{threads}"), |b| {
            b.iter(|| black_box(borges.mappings(&combinations, threads, &Telemetry::disabled())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);
