//! `build`: what `borges map --store-out` does, at paper scale.
//!
//! Set-up (`setup_s`) is `DatasetBundle::load` of the generated bundle.
//! One iteration runs the whole pipeline (`Borges::run_parallel`), then
//! materializes the all-features mapping, serializes and writes the
//! mapfile, and encodes and writes the store artifact. Every pipeline
//! layer does most of its work here; serving and decode do none.

use crate::trace::{self, remainder, Tracer};
use crate::{host, llm, sha256_hex, timed_loop, Ctx, Outcome, SETUP_REPEATS};
use borges_core::mapfile;
use borges_core::ner::{self, NerConfig};
use borges_core::pipeline::{Borges, FeatureSet};
use borges_core::web::{favicon_inference, rr_inference};
use borges_store::{decode_world, encode_world, world_digest, write_atomic};
use borges_synthnet::io::DatasetBundle;
use borges_websim::{Scraper, SimWebClient};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

struct Iteration {
    mapfile_sha: String,
    artifact_digest: String,
    stored_bytes: u64,
}

/// One `map --store-out` run over a loaded bundle.
fn iteration(
    t: &Tracer,
    bundle: &DatasetBundle,
    threads: usize,
    out: &Path,
) -> Result<(Iteration, String), String> {
    t.span("build.iteration", None, |root| {
        let root = Some(root);
        let model = llm();
        let borges = t.span_with("pipeline.run_parallel", root, |_| {
            let b = Borges::run_parallel(
                &bundle.whois,
                &bundle.pdb,
                SimWebClient::browser(&bundle.web),
                &model,
                threads,
            );
            let attrs = vec![
                ("ner_calls", b.ner.stats.llm_calls as f64),
                ("favicon_calls", b.favicon.stats.llm_calls as f64),
                ("edges", (b.edge_weight(FeatureSet::ALL) - 1) as f64),
            ];
            (b, attrs)
        });
        let mapping = t.span("mapping.materialize", root, |_| {
            borges.mapping(FeatureSet::ALL)
        });
        let text = t.span_with("mapfile.serialize", root, |_| {
            let text = mapfile::serialize(&mapping);
            let n = text.len() as f64;
            (text, vec![("bytes", n)])
        });
        t.span("mapfile.write", root, |_| {
            write_atomic(&out.join("map.psv"), text.as_bytes())
        })
        .map_err(|e| format!("write mapfile: {e}"))?;
        let world = t.span("store.to_world", root, |_| borges.to_world());
        let bytes = t.span_with("store.encode", root, |_| {
            let bytes = encode_world(&world);
            let n = bytes.len() as f64;
            (bytes, vec![("bytes", n)])
        });
        t.span("store.write", root, |_| {
            write_atomic(&out.join("world.store"), &bytes)
        })
        .map_err(|e| format!("write artifact: {e}"))?;
        let digest = borges_store::sha256::hex(&bytes[bytes.len() - 32..]);
        Ok((
            Iteration {
                mapfile_sha: String::new(),
                artifact_digest: digest,
                stored_bytes: (text.len() + bytes.len()) as u64,
            },
            text,
        ))
    })
}

/// The calls `run_parallel` makes, timed one by one on the same inputs
/// so the traced run can split the pipeline into its layers.
fn probe(t: &Tracer, bundle: &DatasetBundle, threads: usize) {
    t.span("build.probe", None, |root| {
        let root = Some(root);
        let report = t.span_with("websim.crawl", root, |_| {
            let scraper = Scraper::new(SimWebClient::browser(&bundle.web));
            let entries = bundle
                .pdb
                .nets()
                .map(|n| (n.asn, n.website.as_str()))
                .collect();
            let report = scraper.crawl_parallel(entries, threads);
            let cache = scraper.cache_stats();
            let attrs = vec![
                ("fetches", cache.misses as f64),
                ("hits", cache.hits as f64),
            ];
            (report, attrs)
        });
        t.span("pipeline.from_scrape_parallel", root, |_| {
            black_box(Borges::from_scrape_parallel(
                &bundle.whois,
                &bundle.pdb,
                &report,
                &llm(),
                NerConfig::default(),
                threads,
            ))
        });
        t.span("ner.extract", root, |_| {
            black_box(ner::extract(&bundle.pdb, &llm(), NerConfig::default()))
        });
        t.span("rr.infer", root, |_| black_box(rr_inference(&report)));
        t.span("favicon.infer", root, |_| {
            black_box(favicon_inference(&report, &llm()))
        });
    });
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = &ctx.tracer;
    let mut outcome = Outcome::default();
    let bundle_dir = ctx.work.join("bundle");
    let out = ctx.work.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create out: {e}"))?;
    let reference = std::fs::read_to_string(ctx.work.join("reference.sha256"))
        .map_err(|e| format!("read reference: {e}"))?;

    let mut setups = Vec::new();
    let mut bundle = None;
    for _ in 0..SETUP_REPEATS {
        drop(bundle.take());
        let started = Instant::now();
        let loaded = t
            .span("synthnet.load", None, |_| DatasetBundle::load(&bundle_dir))
            .map_err(|e| format!("load bundle: {e}"))?;
        setups.push(started.elapsed().as_secs_f64());
        bundle = Some(loaded);
    }
    let bundle = bundle.expect("at least one set-up");

    // Untraced phase: the end-to-end numbers. The mapfile digest is
    // taken outside the timed part of each iteration.
    let digest = |(mut it, text): (Iteration, String)| {
        it.mapfile_sha = sha256_hex(text.as_bytes());
        it
    };
    let untraced = Tracer::new(false);
    let mut runs = timed_loop(
        ctx.phase_seconds(),
        || Ok(()),
        || iteration(&untraced, &bundle, ctx.threads, &out),
        digest,
    )?;
    let peak = host::peak_rss_mb().unwrap_or(f64::NAN);
    let walls: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();

    let mut traced_walls = Vec::new();
    if t.enabled() {
        let traced = timed_loop(
            ctx.phase_seconds(),
            || Ok(()),
            || iteration(t, &bundle, ctx.threads, &out),
            |r| {
                probe(t, &bundle, ctx.threads);
                digest(r)
            },
        )?;
        traced_walls = traced.iter().map(|(w, _)| *w).collect();
        runs.extend(traced);
    }

    // Output checks, outside every timed phase.
    for (_, it) in &runs {
        outcome.attempted += 1;
        if it.mapfile_sha != reference.trim() {
            outcome.failed += 1;
        }
    }
    outcome.check("mapfile_matches_single_threaded_run", outcome.failed == 0);
    let last = &runs.last().expect("at least one iteration").1;
    let bytes =
        std::fs::read(out.join("world.store")).map_err(|e| format!("read artifact: {e}"))?;
    let round_trip = decode_world(&bytes)
        .map(|loaded| {
            loaded.digest == last.artifact_digest
                && world_digest(&loaded.world) == last.artifact_digest
        })
        .unwrap_or(false);
    outcome.check_op("artifact_round_trips_to_same_digest", round_trip);

    let stored: Vec<f64> = runs
        .iter()
        .map(|(_, it)| it.stored_bytes as f64 / 1e6)
        .collect();
    outcome.e2e_median("setup_s", "s", &setups);
    outcome.e2e_median("wall_s", "s", &walls);
    outcome.e2e("peak_rss_mb", "MB", peak, 1);
    outcome.e2e_median("stored_mb", "MB", &stored);
    outcome.layer_median("run.stored_mb", &stored);

    if t.enabled() {
        layers(ctx, &mut outcome, &walls, &traced_walls);
    }
    Ok(outcome)
}

fn layers(ctx: &Ctx, outcome: &mut Outcome, walls: &[f64], traced_walls: &[f64]) {
    let spans = ctx.tracer.spans();
    outcome.layer_spans(
        &spans,
        &[
            ("synthnet.load_ms", "synthnet.load"),
            ("pipeline.run_parallel_ms", "pipeline.run_parallel"),
            ("websim.crawl_ms", "websim.crawl"),
            ("ner.extract_ms", "ner.extract"),
            ("rr.infer_ms", "rr.infer"),
            ("favicon.infer_ms", "favicon.infer"),
            ("mapping.materialize_ms", "mapping.materialize"),
            ("mapfile.serialize_ms", "mapfile.serialize"),
            ("mapfile.write_ms", "mapfile.write"),
            ("store.to_world_ms", "store.to_world"),
            ("store.encode_ms", "store.encode"),
            ("store.write_ms", "store.write"),
        ],
    );
    outcome.layer_attrs(
        &spans,
        &[
            ("websim.fetches", "websim.crawl", "fetches"),
            ("llmsim.ner_calls", "pipeline.run_parallel", "ner_calls"),
            (
                "llmsim.favicon_calls",
                "pipeline.run_parallel",
                "favicon_calls",
            ),
            ("pipeline.edges", "pipeline.run_parallel", "edges"),
            ("mapfile.bytes", "mapfile.serialize", "bytes"),
            ("store.artifact_bytes", "store.encode", "bytes"),
        ],
    );
    let hits = trace::attr_values(&spans, "websim.crawl", "hits");
    let fetches = trace::attr_values(&spans, "websim.crawl", "fetches");
    let ratios: Vec<f64> = hits
        .iter()
        .zip(&fetches)
        .map(|(h, f)| h / (h + f))
        .collect();
    outcome.layer_median("websim.cache_hit_ratio", &ratios);

    // compile = from_scrape_parallel − ner − rr − favicon, per probe.
    let us = |name: &str| trace::durations_us(&spans, name);
    let (fsp, ner, rr, fav) = (
        us("pipeline.from_scrape_parallel"),
        us("ner.extract"),
        us("rr.infer"),
        us("favicon.infer"),
    );
    let mut compile = Vec::new();
    let mut bad = 0;
    for i in 0..fsp.len() {
        match remainder(
            "pipeline.compile_ms",
            fsp[i] / 1e3,
            &[ner[i] / 1e3, rr[i] / 1e3, fav[i] / 1e3],
        ) {
            Ok(v) => compile.push(v),
            Err(e) => {
                bad += 1;
                outcome.notes.push(e.to_string());
            }
        }
    }
    outcome.layer_median("pipeline.compile_ms", &compile);
    outcome.layer("trace.bad_samples", f64::from(bad), fsp.len());
    outcome.trace_account(&spans, "build.iteration", walls, traced_walls);
}
