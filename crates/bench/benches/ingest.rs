//! Ingest bench: staged pipeline vs streaming scheduler under injected
//! fetch latency.
//!
//! The streaming scheduler's claim is *overlap*, not fan-out: while
//! fetches wait on the (simulated) network, NER and the union-find
//! precompile run on the compute thread, and up to `workers` in-flight
//! fetches hide each other's latency. To make that claim measurable on
//! any host, every fetch is wrapped in a real `thread::sleep` — the
//! only honest stand-in for network latency the simulator lacks. The
//! staged legs pay that latency serially (or across `threads` crawl
//! workers); the streaming legs pay it `workers`-wide while compiling.
//!
//! Because the win is latency hiding rather than parallel compute, it
//! shows up even on a single-CPU host; a baseline recorded there is
//! tagged "overlap-only" in results/README.md. Outputs are pinned
//! byte-identical to staged by tests/streaming.rs, so this sweep
//! measures pure schedule, not drift.
//!
//! The host CPU count is printed at startup (and recorded in the JSON
//! baseline) so recorded numbers are interpretable without trusting a
//! hand-written note.

use borges_bench::{medium_world, SEED};
use borges_core::pipeline::{Borges, BuildPlan, Engine, Source, StreamOptions};
use borges_llm::SimLlm;
use borges_resilience::TransportError;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_types::Url;
use borges_websim::{FetchResult, SimWebClient, WebClient};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Duration;

/// Injects a fixed real-time delay before every fetch — the stand-in
/// for network round-trip latency the simulator otherwise elides.
struct LatentWebClient<C> {
    inner: C,
    delay: Duration,
}

impl<C: WebClient> WebClient for LatentWebClient<C> {
    fn fetch(&self, url: &Url) -> Result<FetchResult, TransportError> {
        std::thread::sleep(self.delay);
        self.inner.fetch(url)
    }
}

fn large_world() -> &'static SyntheticInternet {
    static WORLD: OnceLock<SyntheticInternet> = OnceLock::new();
    WORLD.get_or_init(|| SyntheticInternet::generate(&GeneratorConfig::large(SEED)))
}

struct IngestFixture {
    label: &'static str,
    world: &'static SyntheticInternet,
    /// Injected per-fetch latency, sized so the staged leg fits the
    /// harness time budget while still dominating the crawl stage.
    delay_us: u64,
    samples: usize,
}

fn bench_ingest(c: &mut Criterion) {
    eprintln!(
        "bench host: {} CPU(s) online",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let fixtures = [
        IngestFixture {
            label: "medium",
            world: medium_world(),
            delay_us: 200,
            samples: 5,
        },
        IngestFixture {
            label: "large",
            world: large_world(),
            delay_us: 100,
            samples: 3,
        },
    ];

    for fixture in &fixtures {
        let world = fixture.world;
        let entries = world.pdb.nets().count();
        let delay = Duration::from_micros(fixture.delay_us);
        eprintln!(
            "{}: {} ASNs, {} crawl entries, {}µs injected fetch latency \
             (serial lower bound {:.2} s)",
            fixture.label,
            world.whois.asn_count(),
            entries,
            fixture.delay_us,
            (entries as u64 * fixture.delay_us) as f64 / 1e6,
        );
        let model = SimLlm::new(SEED);
        let client = || LatentWebClient {
            inner: SimWebClient::browser(&world.web),
            delay,
        };

        let mut group = c.benchmark_group(&format!("ingest/{}", fixture.label));
        group.sample_size(fixture.samples);
        group.bench_function("staged_sequential", |b| {
            b.iter(|| black_box(Borges::run(&world.whois, &world.pdb, client(), &model)))
        });
        group.bench_function("staged_threads_4", |b| {
            b.iter(|| {
                black_box(Borges::run_parallel(
                    &world.whois,
                    &world.pdb,
                    client(),
                    &model,
                    4,
                ))
            })
        });
        for workers in [4usize, 8] {
            let plan = BuildPlan {
                engine: Engine::Streaming(StreamOptions {
                    workers,
                    max_in_flight: workers,
                    ..StreamOptions::default()
                }),
                ..BuildPlan::default()
            };
            group.bench_function(&format!("streaming_workers_{workers}"), |b| {
                b.iter(|| {
                    black_box(Borges::build(
                        &world.whois,
                        &world.pdb,
                        Source::Crawl(&client()),
                        &model,
                        &plan,
                        &Telemetry::disabled(),
                    ))
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
