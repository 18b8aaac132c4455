//! `serve`: `borges serve --store` answering lookups and evidence
//! queries at paper scale.
//!
//! Set-up (`setup_s`) is `load_artifact` of the `build` artifact,
//! `Borges::from_world`, `Server::start` with the default
//! `ServerConfig` apart from `threads`, and a warm-up that leaves all
//! 16 feature subsets resident in the LRU; each of its repeats is a
//! cold process. Then two clients run
//! together, one connection per request (the server has no
//! keep-alive):
//!
//! - the **lookup** client, closed loop, sends the seeded mix of
//!   [`LookupGen`];
//! - the **evidence** client sends `/v1/evidence/{a}/{b}`, alternating
//!   sibling and non-sibling pairs. It waits for each reply and sends
//!   at most one request per [`EVIDENCE_SLOT`], so the load it puts on
//!   the server does not grow when evidence gets faster.
//!
//! The two classes are measured apart so that an evidence gain shows on
//! the evidence numbers and a hot-path gain on the lookup numbers,
//! without one hiding the other. Every response is compared with what
//! `handlers::respond` answers in-process on the same world.

use crate::rng::{EvidenceGen, LookupGen};
use crate::stats::{fnv1a, median, percentile};
use crate::trace::{self, remainder, Tracer};
use crate::{host, Ctx, Outcome, SETUP_REPEATS};
use borges_core::pipeline::{Borges, FeatureSet};
use borges_serve::handlers::{self, feature_spec, ServeContext};
use borges_serve::http::parse_request;
use borges_serve::{
    FlightRecorder, RequestObservation, ServeClient, Server, ServerConfig, ServingWorld,
};
use borges_store::{decode_world, STORE_SCHEMA_VERSION};
use borges_telemetry::MetricsRegistry;
use borges_types::Asn;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The evidence client's pacing: at most one request per slot.
const EVIDENCE_SLOT: Duration = Duration::from_millis(75);
/// Evidence samples a phase must hold before it may end (so p95 keeps
/// ten samples beyond it).
const MIN_EVIDENCE: usize = 200;
/// A phase ends by this multiple of its budget even if short of
/// [`MIN_EVIDENCE`].
const MAX_STRETCH: f64 = 3.0;
/// Round trips the socket-floor probe makes.
const FLOOR_ROUNDS: usize = 2_000;
/// Lookup requests the in-process probes replay.
const PROBE_LOOKUPS: usize = 2_000;
/// Evidence pairs the in-process probes replay.
const PROBE_PAIRS: usize = 8;

/// What one client saw: per request, the latency and the response's
/// `(status, key)` (`None` on a connect or read error).
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    keys: Vec<Option<(u16, u64)>>,
    elapsed_s: f64,
}

impl ClientLog {
    fn rps(&self) -> f64 {
        self.keys.len() as f64 / self.elapsed_s
    }
}

/// Digest of a response for comparison. `/healthz` carries the live
/// accept ledger, which differs between any two requests, so its three
/// counters are masked and its (length-dependent) headers skipped.
fn response_key(path: &str, raw: &[u8]) -> u64 {
    if path != "/healthz" {
        return fnv1a(raw);
    }
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head.lines().next().unwrap_or("");
    let mut masked = body.to_string();
    for key in ["\"accepted\":", "\"served\":", "\"shed\":"] {
        if let Some(at) = masked.find(key) {
            let start = at + key.len();
            let end = masked[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(masked.len(), |i| start + i);
            masked.replace_range(start..end, "#");
        }
    }
    fnv1a(format!("{status}\n{masked}").as_bytes())
}

/// Counts the failed requests of one client: an error, a non-200
/// status, or a response that differs from `expected(path)`.
fn tally(
    keys: &[Option<(u16, u64)>],
    mut path_of: impl FnMut() -> String,
    mut expected: impl FnMut(&str) -> (u16, u64),
) -> u64 {
    let mut failed = 0;
    for key in keys {
        let path = path_of();
        let ok = match key {
            None => false,
            Some((status, digest)) => *status == 200 && (*status, *digest) == expected(&path),
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The evidence client's pair pools.
struct Pairs {
    siblings: Vec<(Asn, Asn)>,
    others: Vec<(Asn, Asn)>,
}

fn read_pairs(path: &Path) -> Result<Pairs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read pairs: {e}"))?;
    let (mut sib, mut other) = (Vec::new(), Vec::new());
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [kind, a, b] = fields[..] else {
            return Err(format!("bad pair line {line:?}"));
        };
        let asn = |s: &str| {
            s.parse()
                .map(Asn::new)
                .map_err(|_| format!("bad ASN {s:?}"))
        };
        let pair = (asn(a)?, asn(b)?);
        match kind {
            "s" => sib.push(pair),
            _ => other.push(pair),
        }
    }
    Ok(Pairs {
        siblings: sib,
        others: other,
    })
}

fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        ..ServerConfig::default()
    }
}

/// One cold start: returns the running server, the universe, and the
/// set-up seconds.
fn setup(t: &Tracer, artifact: &Path, threads: usize) -> Result<(Server, Vec<Asn>, f64), String> {
    t.span("serve.setup", None, |root| {
        let root = Some(root);
        let started = Instant::now();
        let bytes = t
            .span("store.read", root, |_| std::fs::read(artifact))
            .map_err(|e| format!("read artifact: {e}"))?;
        let loaded = t
            .span("store.decode_world", root, |_| decode_world(&bytes))
            .map_err(|e| format!("decode artifact: {e}"))?;
        drop(bytes);
        let borges = t
            .span("pipeline.from_world", root, |_| {
                Borges::from_world(&loaded.world, threads)
            })
            .map_err(|e| format!("replay world: {e}"))?;
        drop(loaded);
        let mut setup_s = started.elapsed().as_secs_f64();
        // The universe is the load generator's input, not set-up work.
        let universe = borges.universe();
        let started = Instant::now();
        let server = t
            .span("serve.start", root, |_| {
                Server::start(config(threads), borges, None)
            })
            .map_err(|e| format!("start server: {e}"))?;
        let client = ServeClient::new(server.local_addr());
        t.span("serve.warmup", root, |_| {
            for features in FeatureSet::all_combinations() {
                let path = format!(
                    "/v1/map/{}?features={}",
                    universe[0],
                    feature_spec(features)
                );
                match client.get(&path) {
                    Ok(r) if r.status == 200 => {}
                    other => return Err(format!("warm-up {path}: {other:?}")),
                }
            }
            Ok(())
        })?;
        setup_s += started.elapsed().as_secs_f64();
        Ok((server, universe, setup_s))
    })
}

/// A cold start alone, for [`setup_child`]: returns its set-up seconds.
pub fn setup_once(work: &Path, threads: usize) -> Result<f64, String> {
    let (server, _, seconds) = setup(&Tracer::new(false), &work.join("world.store"), threads)?;
    server.stop();
    Ok(seconds)
}

/// Times one cold start in a child process.
fn setup_child(work: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            "serve",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--setup-dir")
        .arg(work)
        .output()
        .map_err(|e| format!("spawn set-up: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "set-up child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

/// Runs both clients against `addr` for `budget` seconds (longer, up
/// to [`MAX_STRETCH`] times, until [`MIN_EVIDENCE`] evidence replies).
fn clients(
    t: &Tracer,
    addr: SocketAddr,
    seed: u64,
    universe: &[Asn],
    pairs: &Pairs,
    budget: f64,
) -> (ClientLog, ClientLog) {
    let stop = AtomicBool::new(false);
    let evidence_done = AtomicUsize::new(0);
    t.span("serve.clients", None, |root| {
        let root = Some(root);
        std::thread::scope(|s| {
            let lookups = s.spawn(|| {
                let client = ServeClient::new(addr).with_timeout(Duration::from_secs(10));
                let mut gen = LookupGen::new(seed, universe);
                let mut log = ClientLog::default();
                let started = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    let path = gen.next_path();
                    let sent = Instant::now();
                    let reply = t.span("client.lookup", root, |_| client.get(&path));
                    log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    log.keys.push(
                        reply
                            .ok()
                            .map(|r| (r.status, response_key(&path, &r.canonical_raw()))),
                    );
                }
                log.elapsed_s = started.elapsed().as_secs_f64();
                log
            });
            let evidence = s.spawn(|| {
                let client = ServeClient::new(addr).with_timeout(Duration::from_secs(30));
                let mut gen = EvidenceGen::new(seed, &pairs.siblings, &pairs.others);
                let mut log = ClientLog::default();
                let started = Instant::now();
                let mut due = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    due = Instant::now().max(due) + EVIDENCE_SLOT;
                    let path = gen.next_path();
                    let sent = Instant::now();
                    let reply = t.span("client.evidence", root, |_| client.get(&path));
                    log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    log.keys.push(
                        reply
                            .ok()
                            .map(|r| (r.status, response_key(&path, &r.canonical_raw()))),
                    );
                    evidence_done.fetch_add(1, Ordering::SeqCst);
                }
                log.elapsed_s = started.elapsed().as_secs_f64();
                log
            });
            let started = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(20));
                let elapsed = started.elapsed().as_secs_f64();
                let enough = evidence_done.load(Ordering::SeqCst) >= MIN_EVIDENCE;
                if (elapsed >= budget && enough) || elapsed >= budget * MAX_STRETCH {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            (
                lookups.join().expect("lookup client panicked"),
                evidence.join().expect("evidence client panicked"),
            )
        })
    })
}

/// The server's counter `name` from a `/metrics` scrape.
fn counter(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Median round trip (µs) of a bare loopback listener that reads the
/// request, writes a fixed reply and closes: what any one-request-per-
/// connection server pays before doing anything.
fn socket_floor(t: &Tracer) -> Result<Vec<f64>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind floor: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("floor addr: {e}"))?;
    const REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut buf = [0u8; 1024];
            for _ in 0..FLOOR_ROUNDS {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(REPLY);
            }
        });
        let mut samples = Vec::with_capacity(FLOOR_ROUNDS);
        for _ in 0..FLOOR_ROUNDS {
            let sent = Instant::now();
            t.span("serve.socket_floor", None, |_| -> Result<(), String> {
                let mut stream = TcpStream::connect(addr).map_err(|e| format!("floor: {e}"))?;
                stream
                    .write_all(b"GET / HTTP/1.1\r\nHost: floor\r\n\r\n")
                    .map_err(|e| format!("floor write: {e}"))?;
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut reply = Vec::new();
                stream
                    .read_to_end(&mut reply)
                    .map_err(|e| format!("floor read: {e}"))?;
                Ok(())
            })?;
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        server.join().expect("floor listener panicked");
        Ok(samples)
    })
}

/// The in-process answer key for `path` on `ctx`'s world.
fn answer(ctx: &ServeContext<'_>, path: &str) -> (u16, u64) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    let request = parse_request(&mut raw.as_bytes()).expect("benchmark requests parse");
    let route = handlers::route(&request);
    let response = handlers::respond(&route, &request, ctx, &mut RequestObservation::new());
    let mut bytes = Vec::new();
    response
        .write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    (response.status, response_key(path, &bytes))
}

/// Route label used to name the per-route handle spans.
fn handle_span(path: &str) -> &'static str {
    if path.starts_with("/v1/map/") {
        "serve.handle.map"
    } else if path.starts_with("/v1/org/") {
        "serve.handle.org"
    } else if path.starts_with("/v1/evidence/") {
        "serve.handle.evidence"
    } else if path == "/v1/coverage" {
        "serve.handle.coverage"
    } else {
        "serve.handle.healthz"
    }
}

/// Times parse, handle and render in-process for `paths`.
fn request_probes(t: &Tracer, ctx: &ServeContext<'_>, paths: &[String]) {
    for path in paths {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        let request = t
            .span("http.parse", None, |_| parse_request(&mut raw.as_bytes()))
            .expect("benchmark requests parse");
        let route = handlers::route(&request);
        let response = t.span(handle_span(path), None, |_| {
            black_box(handlers::respond(
                &route,
                &request,
                ctx,
                &mut RequestObservation::new(),
            ))
        });
        let mut bytes = Vec::with_capacity(256);
        t.span("http.render", None, |_| response.write_to(&mut bytes))
            .expect("writing to a Vec cannot fail");
    }
}

/// Times the parts of `decode_world` on the artifact bytes.
fn store_probes(t: &Tracer, artifact: &Path) -> Result<(), String> {
    let bytes = std::fs::read(artifact).map_err(|e| format!("read artifact: {e}"))?;
    t.span("store.probe", None, |root| {
        let root = Some(root);
        let loaded = t
            .span("store.decode_world", root, |_| decode_world(&bytes))
            .map_err(|e| format!("decode: {e}"))?;
        t.span("store.container", root, |_| {
            borges_store::format::decode_container(&bytes, STORE_SCHEMA_VERSION)
        })
        .map_err(|e| format!("container: {e}"))?;
        t.span("store.validate", root, |_| loaded.world.validate())?;
        t.span("store.sha256", root, |_| {
            black_box(borges_store::sha256::sha256(black_box(
                &bytes[..bytes.len() - 32],
            )))
        });
        t.span("store.crc32", root, |_| {
            black_box(borges_store::crc32::crc32(black_box(&bytes)))
        });
        Ok(())
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = &ctx.tracer;
    let mut outcome = Outcome::default();
    let artifact = ctx.work.join("world.store");
    let pairs = read_pairs(&ctx.work.join("pairs.txt"))?;

    // Two cold starts in fresh child processes, then the one that
    // serves: every set-up starts from a cold process, as `borges serve
    // --store` does, and the measured process's memory holds one world.
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS {
        setups.push(setup_child(&ctx.work)?);
    }
    let (server, universe, setup_s) = setup(t, &artifact, ctx.threads)?;
    setups.push(setup_s);
    let addr = server.local_addr();

    let untraced = Tracer::new(false);
    let (lookups, evidence) = clients(
        &untraced,
        addr,
        ctx.seed,
        &universe,
        &pairs,
        ctx.phase_seconds(),
    );
    let peak = host::peak_rss_mb().unwrap_or(f64::NAN);
    let mut phases = vec![(lookups, evidence)];
    if t.enabled() {
        phases.push(clients(
            t,
            addr,
            ctx.seed,
            &universe,
            &pairs,
            ctx.phase_seconds(),
        ));
    }
    let exposition = ServeClient::new(addr)
        .get("/metrics")
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    let exposition = exposition.body_text().to_string();
    server.stop();

    // Expected answers, in-process on the same world.
    let loaded = borges_store::load_artifact(&artifact).map_err(|e| format!("reload: {e}"))?;
    let borges =
        Borges::from_world(&loaded.world, ctx.threads).map_err(|e| format!("replay: {e}"))?;
    drop(loaded);
    let defaults = ServerConfig::default();
    let world = ServingWorld::new(borges, defaults.lru_capacity, 0);
    let metrics = MetricsRegistry::new();
    let recorder = FlightRecorder::new(defaults.recorder_capacity);
    let serve_ctx = ServeContext {
        world: &world,
        metrics: &metrics,
        workers: ctx.threads,
        recorder: &recorder,
        slow_ms: None,
        timeline: None,
    };
    let mut answers: HashMap<String, (u16, u64)> = HashMap::new();
    let mut expected = |path: &str| {
        *answers
            .entry(path.to_string())
            .or_insert_with(|| answer(&serve_ctx, path))
    };
    let (mut lookup_failed, mut evidence_failed) = (0, 0);
    for (lookups, evidence) in &phases {
        let mut gen = LookupGen::new(ctx.seed, &universe);
        lookup_failed += tally(&lookups.keys, || gen.next_path(), &mut expected);
        let mut gen = EvidenceGen::new(ctx.seed, &pairs.siblings, &pairs.others);
        evidence_failed += tally(&evidence.keys, || gen.next_path(), &mut expected);
        outcome.attempted += (lookups.keys.len() + evidence.keys.len()) as u64;
    }
    outcome.failed = lookup_failed + evidence_failed;
    outcome.check("lookups_match_in_process_answers", lookup_failed == 0);
    outcome.check("evidence_matches_in_process_answers", evidence_failed == 0);

    let (lookups, evidence) = &phases[0];
    outcome.e2e_median("setup_s", "s", &setups);
    // One unit of `serve` work is one lookup, as the client sees it.
    match median(&lookups.latencies_ms) {
        Some(ms) => outcome.e2e("wall_s", "s", ms / 1e3, lookups.latencies_ms.len()),
        None => return Err("no lookup completed".into()),
    }
    outcome.e2e("peak_rss_mb", "MB", peak, 1);
    let n_lookup = lookups.latencies_ms.len();
    let n_evidence = evidence.latencies_ms.len();
    let (lat_l, lat_e) = (&lookups.latencies_ms, &evidence.latencies_ms);
    for (name, layer, unit, value, n) in [
        (
            "lookup_p50_ms",
            "client.lookup_p50_ms",
            "ms",
            percentile(lat_l, 50.0),
            n_lookup,
        ),
        (
            "lookup_p99_ms",
            "client.lookup_p99_ms",
            "ms",
            percentile(lat_l, 99.0),
            n_lookup,
        ),
        (
            "lookup_rps",
            "client.lookup_rps",
            "1/s",
            Some(lookups.rps()),
            n_lookup,
        ),
        (
            "evidence_p50_ms",
            "client.evidence_p50_ms",
            "ms",
            percentile(lat_e, 50.0),
            n_evidence,
        ),
        (
            "evidence_p95_ms",
            "client.evidence_p95_ms",
            "ms",
            percentile(lat_e, 95.0),
            n_evidence,
        ),
        (
            "evidence_rps",
            "client.evidence_rps",
            "1/s",
            Some(evidence.rps()),
            n_evidence,
        ),
    ] {
        match value {
            Some(v) => {
                outcome.e2e(name, unit, v, n);
                outcome.layer(layer, v, n);
            }
            None => outcome.notes.push(format!(
                "{name}: not reported, {n} samples leave fewer than 10 beyond it"
            )),
        }
    }
    for (layer, name) in [
        ("serve.lru_hits", "borges_serve_lru_hits_total"),
        ("serve.lru_misses", "borges_serve_lru_misses_total"),
        ("serve.shed", "borges_serve_shed_total"),
    ] {
        outcome.layer(layer, counter(&exposition, name).unwrap_or(0.0), 1);
    }

    if t.enabled() {
        let floor = socket_floor(t)?;
        let mut gen = LookupGen::new(ctx.seed, &universe);
        let sample: Vec<String> = (0..PROBE_LOOKUPS).map(|_| gen.next_path()).collect();
        request_probes(t, &serve_ctx, &sample);
        let mut gen = EvidenceGen::new(ctx.seed, &pairs.siblings, &pairs.others);
        let evidence_sample: Vec<String> = (0..PROBE_PAIRS).map(|_| gen.next_path()).collect();
        request_probes(t, &serve_ctx, &evidence_sample);
        for &(a, b) in pairs.siblings.iter().chain(&pairs.others).take(PROBE_PAIRS) {
            t.span("core.evidence", None, |_| {
                black_box(world.borges.evidence(a, b))
            });
        }
        for _ in 0..SETUP_REPEATS {
            store_probes(t, &artifact)?;
        }
        layers(&mut outcome, t, &phases, &floor, &sample);
    }
    Ok(outcome)
}

fn layers(
    outcome: &mut Outcome,
    t: &Tracer,
    phases: &[(ClientLog, ClientLog)],
    floor: &[f64],
    sample: &[String],
) {
    let spans = t.spans();
    outcome.layer_spans(
        &spans,
        &[
            ("store.read_ms", "store.read"),
            ("store.container_ms", "store.container"),
            ("store.validate_ms", "store.validate"),
            ("store.sha256_ms", "store.sha256"),
            ("store.crc32_ms", "store.crc32"),
            ("pipeline.replay_ms", "pipeline.from_world"),
            ("serve.bind_ms", "serve.start"),
            ("serve.warmup_ms", "serve.warmup"),
            ("http.parse_us", "http.parse"),
            ("http.render_us", "http.render"),
            ("serve.handle_us.map", "serve.handle.map"),
            ("serve.handle_us.org", "serve.handle.org"),
            ("serve.handle_us.coverage", "serve.handle.coverage"),
            ("serve.handle_us.healthz", "serve.handle.healthz"),
            ("serve.handle_us.evidence", "serve.handle.evidence"),
            ("core.evidence_us", "core.evidence"),
        ],
    );
    outcome.layer_median("serve.socket_floor_us", floor);

    // payload = decode_world − container − validate, per probe round.
    let probe_spans: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "store.probe").collect();
    let mut payload = Vec::new();
    let mut bad = 0;
    for probe in probe_spans {
        let part = |name: &str| {
            spans
                .iter()
                .find(|s| s.parent == Some(probe.id) && s.name == name)
                .map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
        };
        match remainder(
            "store.payload_ms",
            part("store.decode_world"),
            &[part("store.container"), part("store.validate")],
        ) {
            Ok(v) => payload.push(v),
            Err(e) => {
                bad += 1;
                outcome.notes.push(e.to_string());
            }
        }
    }
    outcome.layer_median("store.payload_ms", &payload);
    outcome.layer(
        "trace.bad_samples",
        f64::from(bad),
        payload.len() + bad as usize,
    );

    // What the client sees above the socket floor and the in-process
    // parse, handle and render of the same lookup mix.
    let handle: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("serve.handle.") && s.name != "serve.handle.evidence")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let parts = [
        median(floor),
        median(&trace::durations_us(&spans, "http.parse")),
        median(&handle),
        median(&trace::durations_us(&spans, "http.render")),
    ];
    if let (Some(p50), [Some(f), Some(p), Some(h), Some(r)]) =
        (median(&phases[0].0.latencies_ms), parts)
    {
        // Reported as measured: a negative value means the in-process
        // parts overstate what the server pays per request.
        outcome.layer(
            "serve.unexplained_us",
            p50 * 1e3 - f - p - h - r,
            sample.len(),
        );
    }
    if let [(untraced, _), (traced, _)] = phases {
        if let (Some(a), Some(b)) = (median(&untraced.latencies_ms), median(&traced.latencies_ms)) {
            outcome.layer("trace.overhead_ratio", b / a, traced.latencies_ms.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_non_200_and_mismatches() {
        let paths = ["/a", "/b", "/c", "/d"];
        let keys = [Some((200, 1)), None, Some((404, 3)), Some((200, 9))];
        let right = |p: &str| match p {
            "/a" => (200, 1),
            "/c" => (404, 3),
            _ => (200, 9),
        };
        let mut i = 0;
        let mut next = || {
            i += 1;
            paths[i - 1].to_string()
        };
        // The error and the 404 fail even when the 404 was expected.
        assert_eq!(tally(&keys, &mut next, right), 2);
    }

    #[test]
    fn a_wrong_expected_answer_counts_as_a_failure() {
        let keys = [Some((200, 1)), Some((200, 2))];
        let mut n = 0;
        let next = || {
            n += 1;
            format!("/p{n}")
        };
        let wrong = |p: &str| if p == "/p2" { (200, 7) } else { (200, 1) };
        assert_eq!(tally(&keys, next, wrong), 1);
        let all_right = [Some((200, 1)), Some((200, 1))];
        assert_eq!(tally(&all_right, || "/x".into(), |_| (200, 1)), 0);
    }

    #[test]
    fn healthz_key_ignores_the_accept_ledger_only() {
        let a = b"HTTP/1.1 200 OK\r\nContent-Length: 60\r\n\r\n{\"status\":\"ok\",\"epoch\":0,\"accepted\":5,\"served\":4,\"shed\":0}";
        let b = b"HTTP/1.1 200 OK\r\nContent-Length: 62\r\n\r\n{\"status\":\"ok\",\"epoch\":0,\"accepted\":125,\"served\":9,\"shed\":0}";
        let c = b"HTTP/1.1 200 OK\r\nContent-Length: 60\r\n\r\n{\"status\":\"ok\",\"epoch\":1,\"accepted\":5,\"served\":4,\"shed\":0}";
        assert_eq!(response_key("/healthz", a), response_key("/healthz", b));
        assert_ne!(response_key("/healthz", a), response_key("/healthz", c));
        // Everywhere else every byte counts.
        assert_ne!(
            response_key("/v1/coverage", a),
            response_key("/v1/coverage", b)
        );
    }

    #[test]
    fn counter_reads_a_prometheus_line() {
        let text = "# TYPE borges_serve_lru_hits_total counter\nborges_serve_lru_hits_total 42\n";
        assert_eq!(counter(text, "borges_serve_lru_hits_total"), Some(42.0));
        assert_eq!(counter(text, "borges_serve_shed_total"), None);
    }
}
