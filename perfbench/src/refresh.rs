//! `refresh`: what `borges remap --timeline` followed by `borges
//! timeline diff` does, at paper scale with 1% churn.
//!
//! Set-up (`setup_s`) compiles snapshot T and appends it as the
//! timeline's genesis epoch. Each iteration starts from a copy of that
//! genesis chain, loads the churned T+1 bundle, crawls it, remaps it
//! against T's snapshot state, writes the mapfile, appends the result as
//! epoch 1 and diffs epochs 0 and 1. NER replays from the memo and
//! compile keeps most segments, so store and timeline work dominate: a
//! full-compile gain shows in `build` and not here, a delta or
//! store-write gain here and not in `build`.

use crate::trace::Tracer;
use crate::{host, llm, sha256_hex, timed_loop, Ctx, Outcome, SETUP_REPEATS};
use borges_core::mapfile;
use borges_core::ner::NerConfig;
use borges_core::pipeline::{Borges, FeatureSet};
use borges_store::{encode_world, write_atomic};
use borges_synthnet::io::DatasetBundle;
use borges_timeline::{render_diff_json, Timeline};
use borges_websim::{Scraper, SimWebClient};
use std::path::Path;
use std::time::Instant;

struct Iteration {
    mapfile_sha: String,
    stored_bytes: u64,
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// Where `Timeline::append` writes the delta of `epoch`.
fn delta_path(chain: &Path, epoch: u64) -> std::path::PathBuf {
    chain.join("deltas").join(format!("{epoch}.delta"))
}

fn load(t: &Tracer, dir: &Path, parent: Option<u64>) -> Result<DatasetBundle, String> {
    t.span("synthnet.load", parent, |_| DatasetBundle::load(dir))
        .map_err(|e| format!("load {}: {e}", dir.display()))
}

/// Compiles T and appends it to a fresh timeline at `dir` as genesis.
fn genesis(t: &Tracer, t0: &Path, dir: &Path, threads: usize) -> Result<Borges, String> {
    t.span("refresh.setup", None, |root| {
        let root = Some(root);
        let bundle = load(t, t0, root)?;
        let model = llm();
        let mut base = t.span("pipeline.run_parallel", root, |_| {
            Borges::run_parallel(
                &bundle.whois,
                &bundle.pdb,
                SimWebClient::browser(&bundle.web),
                &model,
                threads,
            )
        });
        t.span("timeline.genesis_append", root, |_| {
            Timeline::open(dir).and_then(|mut tl| tl.append(&mut base))
        })
        .map_err(|e| format!("genesis append: {e}"))?;
        Ok(base)
    })
}

/// One remap of T+1 against T, appended and diffed. `dir` holds a fresh
/// copy of the genesis chain.
fn iteration(
    t: &Tracer,
    base: &Borges,
    t1: &Path,
    dir: &Path,
    threads: usize,
) -> Result<(Iteration, String, Borges), String> {
    t.span("refresh.iteration", None, |root| {
        let root = Some(root);
        let bundle = load(t, t1, root)?;
        let report = t.span("websim.crawl", root, |_| {
            // As `borges remap` does: a sequential re-crawl.
            Scraper::new(SimWebClient::browser(&bundle.web))
                .crawl(bundle.pdb.nets().map(|n| (n.asn, n.website.as_str())))
        });
        let state = t.span("delta.snapshot", root, |_| base.snapshot_state());
        let model = llm();
        let mut borges = t.span_with("delta.remap", root, |_| {
            let b = Borges::remap_parallel(
                &bundle.whois,
                &bundle.pdb,
                &report,
                &model,
                NerConfig::default(),
                &state,
                threads,
            );
            let d = b.delta.as_ref().expect("remap records delta stats");
            let (kept, fresh) = d.edge_rows().iter().fold((0, 0), |(k, f), (_, s)| {
                (k + s.edges_retained, f + s.edges_rederived)
            });
            let attrs = vec![
                ("ner_reused", d.ner_reused as f64),
                ("ner_recomputed", d.ner_recomputed as f64),
                ("edges_retained_ratio", kept as f64 / (kept + fresh) as f64),
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
        let mapfile_path = dir.join("map.psv");
        t.span("mapfile.write", root, |_| {
            write_atomic(&mapfile_path, text.as_bytes())
        })
        .map_err(|e| format!("write mapfile: {e}"))?;
        let chain = dir.join("timeline");
        let (tl, link) = t
            .span_with("timeline.append", root, |_| {
                let appended = Timeline::open(&chain).and_then(|mut tl| {
                    let link = tl.append(&mut borges)?;
                    Ok((tl, link))
                });
                let delta = match &appended {
                    Ok((_, link)) => file_len(&delta_path(&chain, link.epoch)).unwrap_or(0),
                    Err(_) => 0,
                };
                (appended, vec![("delta_bytes", delta as f64)])
            })
            .map_err(|e| format!("append: {e}"))?;
        let diff = t
            .span("timeline.diff", root, |_| {
                tl.diff(link.epoch - 1, link.epoch)
                    .map(|d| render_diff_json(link.epoch - 1, link.epoch, &d))
            })
            .map_err(|e| format!("diff: {e}"))?;
        if diff.is_empty() {
            return Err("empty diff rendering".into());
        }
        let stored = file_len(&mapfile_path)?
            + file_len(&tl.world_path(&link))?
            + file_len(&delta_path(&chain, link.epoch))?
            + file_len(&chain.join("timeline.json"))?;
        Ok((
            Iteration {
                mapfile_sha: String::new(),
                stored_bytes: stored,
            },
            text,
            borges,
        ))
    })
}

/// Times the store calls `Timeline::append` makes, one by one, on the
/// remapped world.
fn probe(t: &Tracer, borges: &Borges, dir: &Path) -> Result<(), String> {
    t.span("refresh.probe", None, |root| {
        let root = Some(root);
        let world = t.span("store.to_world", root, |_| borges.to_world());
        let bytes = t.span_with("store.encode", root, |_| {
            let bytes = encode_world(&world);
            let n = bytes.len() as f64;
            (bytes, vec![("bytes", n)])
        });
        t.span("store.write", root, |_| {
            write_atomic(&dir.join("probe.store"), &bytes)
        })
        .map_err(|e| format!("write probe artifact: {e}"))
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = &ctx.tracer;
    let mut outcome = Outcome::default();
    let (t0, t1) = (ctx.work.join("t0"), ctx.work.join("t1"));
    let reference = std::fs::read_to_string(ctx.work.join("reference.sha256"))
        .map_err(|e| format!("read reference: {e}"))?;

    let genesis_dir = ctx.work.join("genesis");
    let mut setups = Vec::new();
    let mut base = None;
    for _ in 0..SETUP_REPEATS {
        drop(base.take());
        let _ = std::fs::remove_dir_all(&genesis_dir);
        let started = Instant::now();
        let compiled = genesis(t, &t0, &genesis_dir.join("timeline"), ctx.threads)?;
        setups.push(started.elapsed().as_secs_f64());
        base = Some(compiled);
    }
    let base = base.expect("at least one set-up");

    // Every iteration starts from the same genesis chain.
    let iter_dir = ctx.work.join("iteration");
    let fresh_chain = || -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&iter_dir);
        host::copy_dir(&genesis_dir, &iter_dir).map_err(|e| format!("copy genesis: {e}"))
    };
    let digest = |(mut it, text, _): (Iteration, String, Borges)| {
        it.mapfile_sha = sha256_hex(text.as_bytes());
        it
    };
    let untraced = Tracer::new(false);
    let mut runs = timed_loop(
        ctx.phase_seconds(),
        fresh_chain,
        || iteration(&untraced, &base, &t1, &iter_dir, ctx.threads),
        digest,
    )?;
    let peak = host::peak_rss_mb().unwrap_or(f64::NAN);
    let walls: Vec<f64> = runs.iter().map(|(w, _)| *w).collect();

    let mut traced_walls = Vec::new();
    if t.enabled() {
        let mut probe_err = None;
        let traced = timed_loop(
            ctx.phase_seconds(),
            fresh_chain,
            || iteration(t, &base, &t1, &iter_dir, ctx.threads),
            |r| {
                if let Err(e) = probe(t, &r.2, &iter_dir) {
                    probe_err = Some(e);
                }
                digest(r)
            },
        )?;
        if let Some(e) = probe_err {
            return Err(e);
        }
        traced_walls = traced.iter().map(|(w, _)| *w).collect();
        runs.extend(traced);
    }

    for (_, it) in &runs {
        outcome.attempted += 1;
        if it.mapfile_sha != reference.trim() {
            outcome.failed += 1;
        }
    }
    outcome.check("remap_matches_full_compile", outcome.failed == 0);
    // The last iteration's chain is still in place.
    let verified = Timeline::open(&iter_dir.join("timeline"))
        .and_then(|tl| tl.verify())
        .map(|report| report.links == 2 && report.deltas_ok == 1)
        .unwrap_or(false);
    outcome.check_op("timeline_verifies", verified);

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
        let spans = t.spans();
        outcome.layer_spans(
            &spans,
            &[
                ("synthnet.load_ms", "synthnet.load"),
                ("pipeline.run_parallel_ms", "pipeline.run_parallel"),
                ("websim.crawl_ms", "websim.crawl"),
                ("delta.snapshot_ms", "delta.snapshot"),
                ("delta.remap_ms", "delta.remap"),
                ("mapping.materialize_ms", "mapping.materialize"),
                ("mapfile.serialize_ms", "mapfile.serialize"),
                ("mapfile.write_ms", "mapfile.write"),
                ("timeline.append_ms", "timeline.append"),
                ("timeline.diff_ms", "timeline.diff"),
                ("store.to_world_ms", "store.to_world"),
                ("store.encode_ms", "store.encode"),
                ("store.write_ms", "store.write"),
            ],
        );
        outcome.layer_attrs(
            &spans,
            &[
                ("delta.ner_reused", "delta.remap", "ner_reused"),
                ("delta.ner_recomputed", "delta.remap", "ner_recomputed"),
                (
                    "delta.edges_retained_ratio",
                    "delta.remap",
                    "edges_retained_ratio",
                ),
                ("mapfile.bytes", "mapfile.serialize", "bytes"),
                ("store.artifact_bytes", "store.encode", "bytes"),
                ("timeline.delta_bytes", "timeline.append", "delta_bytes"),
            ],
        );
        outcome.trace_account(&spans, "refresh.iteration", &walls, &traced_walls);
    }
    Ok(outcome)
}
