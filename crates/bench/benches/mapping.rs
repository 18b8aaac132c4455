//! Mapping materialization bench: the compiled dense replay
//! ([`Borges::mapping`]) against the legacy per-call sparse rebuild, and
//! the Table 6 16-combination sweep sequential vs
//! [`Borges::mappings`].
//!
//! The legacy comparator reconstructs what `mapping()` did before
//! evidence compilation: re-intern the universe into a `BTreeMap`-backed
//! union-find and re-filter every evidence source against a `BTreeSet`
//! of allocated ASNs, on every call.

use borges_bench::{medium_pipeline, medium_world};
use borges_core::orgkeys::{oid_p_groups, oid_w_groups};
use borges_core::{AsOrgMapping, Borges, FeatureSet, UnionFind};
use borges_telemetry::Telemetry;
use borges_types::Asn;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;

/// The pre-compilation `mapping()` algorithm, reconstructed from public
/// API: sparse union-find over `Asn` keys, per-call universe filtering.
fn sparse_rebuild(
    borges: &Borges,
    oid_w: &[Vec<Asn>],
    oid_p: &[Vec<Asn>],
    features: FeatureSet,
) -> AsOrgMapping {
    let allocated: BTreeSet<Asn> = borges.universe().iter().copied().collect();
    let mut uf = UnionFind::with_universe(borges.universe().iter().copied());
    for group in oid_w {
        uf.union_group(group);
    }
    if features.oid_p {
        for group in oid_p {
            uf.union_group(group);
        }
    }
    if features.na {
        for (a, b) in borges.ner.edges() {
            if allocated.contains(&a) && allocated.contains(&b) {
                uf.union(a, b);
            }
        }
    }
    if features.rr {
        for group in borges.rr.merging_groups() {
            let members: Vec<Asn> = group
                .iter()
                .copied()
                .filter(|a| allocated.contains(a))
                .collect();
            uf.union_group(&members);
        }
    }
    if features.favicons {
        for group in &borges.favicon.groups {
            let members: Vec<Asn> = group
                .iter()
                .copied()
                .filter(|a| allocated.contains(a))
                .collect();
            uf.union_group(&members);
        }
    }
    AsOrgMapping::from_union_find(uf)
}

fn bench_mapping(c: &mut Criterion) {
    // Surfaced in the output so recorded baselines carry the host shape
    // with them instead of relying on a hand-written (and staling) note.
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let world = medium_world();
    let borges = medium_pipeline();
    let oid_w = oid_w_groups(&world.whois);
    let oid_p = oid_p_groups(&world.pdb);
    let combinations = FeatureSet::all_combinations();

    let mut group = c.benchmark_group("mapping");
    group.sample_size(10);

    group.bench_function("single_all_compiled", |b| {
        b.iter(|| black_box(borges.mapping(FeatureSet::ALL)))
    });
    group.bench_function("single_all_sparse_rebuild", |b| {
        b.iter(|| black_box(sparse_rebuild(borges, &oid_w, &oid_p, FeatureSet::ALL)))
    });

    group.bench_function("sweep16_sequential_compiled", |b| {
        b.iter(|| {
            for &features in &combinations {
                black_box(borges.mapping(features));
            }
        })
    });
    group.bench_function("sweep16_sparse_rebuild", |b| {
        b.iter(|| {
            for &features in &combinations {
                black_box(sparse_rebuild(borges, &oid_w, &oid_p, features));
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
