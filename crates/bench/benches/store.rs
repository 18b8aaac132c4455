//! Persistent-store bench: what a `serve --store` cold start costs,
//! layer by layer, next to the full compile it replaces.
//!
//! Legs over the medium world (~11k ASNs), each one layer of the
//! loader or writer on the same artifact bytes:
//!
//! - `sha256` and `crc32`: the two integrity checks over the whole
//!   artifact (the container runs SHA-256 once over the file and CRC32
//!   once per section payload, so these bound its hashing);
//! - `container`: `decode_container` — structural walk, section CRCs,
//!   footer digest, payload copies;
//! - `payload_decode`: the six binary section payloads into a world,
//!   from an already verified container;
//! - `validate`: `CompiledWorld::validate`, the semantic checks;
//! - `encode`: the compiled world to complete artifact bytes;
//! - `replay_threads_N`: the decoded world back into a serving pipeline;
//! - `full_compile_yardstick`: the crawl-to-evidence compile that
//!   `serve` without `--store` runs instead.
//!
//! `container` + `payload_decode` + `validate` is `decode_world`; add
//! `replay` and it is the whole happy-path cold start.

use borges_bench::{medium_world, SEED};
use borges_core::pipeline::Borges;
use borges_llm::SimLlm;
use borges_store::format::decode_container;
use borges_store::{
    crc32::crc32, decode_payloads, decode_world, encode_world, sha256::sha256, STORE_SCHEMA_VERSION,
};
use borges_websim::{Scraper, SimWebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_store(c: &mut Criterion) {
    eprintln!(
        "bench host: {} CPU(s) online, sha256 backend {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        borges_store::sha256::backend()
    );
    let world = medium_world();
    let model = SimLlm::new(SEED);
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    let scrape = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
    let borges = Borges::from_scrape(
        &world.whois,
        &world.pdb,
        &scrape,
        &model,
        Default::default(),
    );
    let compiled = borges.to_world();
    let bytes = encode_world(&compiled);
    eprintln!(
        "store artifact: {} bytes for {} ASNs",
        bytes.len(),
        world.whois.asn_count()
    );
    let container = decode_container(&bytes, STORE_SCHEMA_VERSION).expect("own container");
    let loaded = decode_world(&bytes).expect("decode own encoding");

    let mut group = c.benchmark_group("store/medium");
    group.sample_size(10);
    group.bench_function("sha256", |b| {
        b.iter(|| black_box(sha256(black_box(&bytes))))
    });
    group.bench_function("crc32", |b| b.iter(|| black_box(crc32(black_box(&bytes)))));
    group.bench_function("container", |b| {
        b.iter(|| black_box(decode_container(&bytes, STORE_SCHEMA_VERSION).expect("container")))
    });
    group.bench_function("payload_decode", |b| {
        b.iter(|| black_box(decode_payloads(&container).expect("payloads")))
    });
    group.bench_function("validate", |b| {
        b.iter(|| black_box(&loaded.world).validate().expect("valid"))
    });
    group.bench_function("encode", |b| b.iter(|| black_box(encode_world(&compiled))));
    for threads in [1usize, 2] {
        group.bench_function(&format!("replay_threads_{threads}"), |b| {
            b.iter(|| black_box(Borges::from_world(&loaded.world, threads).expect("replay")))
        });
    }
    // The yardstick is what `serve` without `--store` actually does at
    // boot: crawl + extract + compile. (The sim's LLM answers in
    // microseconds; against a real model the gap widens by orders of
    // magnitude — the store also removes the boot-time dependency on
    // the web and the model being reachable at all.)
    group.bench_function("full_compile_yardstick", |b| {
        b.iter(|| {
            black_box(Borges::run(
                &world.whois,
                &world.pdb,
                SimWebClient::browser(&world.web),
                &model,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
