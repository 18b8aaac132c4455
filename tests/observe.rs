//! The observability keystones, end to end over real sockets.
//!
//! PR 8's flight-recorder layer must be *visible* without becoming
//! *load-bearing*: request ids, durations, and the debug endpoints ride
//! on runtime streams, while everything canonical — response bodies,
//! the request-id-free raw form, `/metrics` counter values, access-log
//! records minus their schedule-dependent fields — stays byte-identical
//! across worker counts. Pinned here:
//!
//! 1. **Request ids** — every response echoes `x-borges-request-id`,
//!    ids are unique for the life of the process, and stripping that
//!    one header yields identical bytes across 1 vs 4 workers.
//! 2. **Counter determinism** — `/metrics` counter *values* (not just
//!    shapes) match across worker counts for an identical request
//!    sequence; only the latency histograms are wall-clock-dependent.
//! 3. **Access-log determinism** — the canonical form of every access
//!    record (id and duration fields dropped) is byte-identical across
//!    worker counts, and every record carries the 64-hex digest of the
//!    world that answered it.
//! 4. **Ledger closure** — `/metrics` as the final request before the
//!    drain still balances `shed + served == accepted` inside its own
//!    body, and the post-drain snapshot agrees with that body.
//! 5. **Flight recorder** — the debug endpoints reflect real traffic,
//!    a debug scrape excludes itself, the ring wraps at capacity, and
//!    the event journal tells the install/reload story.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use borges_core::Borges;
use borges_llm::SimLlm;
use borges_serve::{ServeClient, Server, ServerConfig, ServerHooks};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::AccessRecord;
use borges_websim::SimWebClient;

fn compile() -> Borges {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(7));
    let llm = SimLlm::flawless();
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
}

fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        queue_depth: 32,
        lru_capacity: 16,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    }
}

/// The replayed request sequence: every endpoint class the access log
/// can describe, including a 400, a 404, and a wrong-method 405.
const PROBES: &[&str] = &[
    "/healthz",
    "/v1/coverage",
    "/v1/map/AS3356?features=all",
    "/v1/map/AS3356?features=none",
    "/v1/org/AS3356",
    "/v1/evidence/AS3356/AS209",
    "/v1/map/not-an-asn",
    "/no/such/route",
];

/// Pulls `"world_digest":"…"` out of a healthz body.
fn healthz_digest(body: &str) -> String {
    let start = body
        .find("\"world_digest\":\"")
        .expect("healthz carries world_digest")
        + "\"world_digest\":\"".len();
    body[start..start + 64].to_string()
}

/// The `/metrics` body with every wall-clock-dependent line removed:
/// the latency histograms are the *only* family whose values may
/// legitimately differ between identical request sequences.
fn deterministic_metric_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|line| !line.contains("borges_serve_latency_ms"))
        .map(|line| line.to_string())
        .collect()
}

#[test]
fn request_ids_are_echoed_unique_and_excluded_from_canonical_bytes() {
    let server = Server::start(config(4), compile(), None).expect("bind loopback");
    let client = ServeClient::new(server.local_addr());

    let mut seen_ids = Vec::new();
    for _ in 0..3 {
        for probe in PROBES {
            let response = client.get(probe).expect("probe response");
            let id = response
                .headers
                .get("x-borges-request-id")
                .unwrap_or_else(|| panic!("{probe} response missing x-borges-request-id"))
                .clone();
            // Worker ids are `w<worker>-<seq>`: monotone per worker,
            // unique for the life of the process.
            assert!(
                id.starts_with('w') && id.contains('-'),
                "unexpected id shape {id:?}"
            );
            assert!(!seen_ids.contains(&id), "duplicate request id {id}");
            seen_ids.push(id);
            // The id is the one schedule-dependent header: stripping it
            // must make repeats of the same probe byte-identical.
            // `/healthz` is exempt — its body embeds the accept ledger,
            // which advances with every request by design.
            let again = client.get(probe).expect("repeat response");
            assert_ne!(
                response.headers.get("x-borges-request-id"),
                again.headers.get("x-borges-request-id"),
                "{probe} repeated an id"
            );
            if *probe != "/healthz" {
                assert_eq!(
                    response.canonical_raw(),
                    again.canonical_raw(),
                    "{probe} canonical bytes unstable across repeats"
                );
            }
            seen_ids.push(again.headers["x-borges-request-id"].clone());
        }
    }
    server.stop();
}

#[test]
fn metrics_counter_values_are_identical_across_worker_counts() {
    let borges = compile();
    let single = Server::start(config(1), borges.clone(), None).expect("bind single");
    let pooled = Server::start(config(4), borges, None).expect("bind pooled");
    let client1 = ServeClient::new(single.local_addr());
    let client4 = ServeClient::new(pooled.local_addr());

    let mut bodies = Vec::new();
    for client in [&client1, &client4] {
        for probe in PROBES {
            client.get(probe).expect("probe response");
        }
        let metrics = client.get("/metrics").expect("metrics scrape");
        assert_eq!(metrics.status, 200);
        bodies.push(metrics.body_text().to_string());
    }
    // Counter families — the request ledger, per-endpoint counts, LRU
    // traffic, status codes, the digest stamp — must agree value for
    // value; only the latency histograms may differ.
    assert_eq!(
        deterministic_metric_lines(&bodies[0]),
        deterministic_metric_lines(&bodies[1]),
        "/metrics counter values diverged between 1 and 4 workers:\n{}\nvs\n{}",
        bodies[0],
        bodies[1]
    );
    single.stop();
    pooled.stop();
}

/// Runs the probe sequence against a `threads`-worker server whose
/// access-log hook captures every record, returning the captured
/// records plus the serving world's digest.
fn capture_access_records(threads: usize, borges: Borges) -> (Vec<AccessRecord>, String) {
    let captured: Arc<Mutex<Vec<AccessRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    let hooks = ServerHooks {
        access_log: Some(Box::new(move |record| {
            sink.lock().unwrap().push(record.clone());
        })),
        slow: None,
    };
    let server =
        Server::start_with(config(threads), borges, None, hooks, None).expect("bind loopback");
    let client = ServeClient::new(server.local_addr());
    let digest = healthz_digest(client.get("/healthz").expect("healthz").body_text());
    for probe in PROBES {
        client.get(probe).expect("probe response");
    }
    server.stop();
    let records = captured.lock().unwrap().clone();
    (records, digest)
}

#[test]
fn access_log_canonical_records_are_identical_across_worker_counts() {
    let borges = compile();
    let (records1, digest1) = capture_access_records(1, borges.clone());
    let (records4, digest4) = capture_access_records(4, borges);
    assert_eq!(digest1, digest4, "same bundle must serve the same world");

    // Every record carries the digest of the world that answered it —
    // including error records, which never resolved a route.
    assert_eq!(records1.len(), PROBES.len() + 1, "healthz + probes");
    for record in records1.iter().chain(records4.iter()) {
        assert_eq!(
            record.world, digest1,
            "record {} answered by an unexpected world",
            record.id
        );
        assert_eq!(record.epoch, 0);
    }

    // Dropping the schedule-dependent fields (id, duration) leaves
    // records that must match byte for byte across worker counts.
    // Records land in *completion* order — a pooled worker can finish
    // its bookkeeping after the client has already moved on — so the
    // comparison is order-free.
    let mut canonical1: Vec<String> = records1.iter().map(|r| r.canonical_json()).collect();
    let mut canonical4: Vec<String> = records4.iter().map(|r| r.canonical_json()).collect();
    canonical1.sort();
    canonical4.sort();
    assert_eq!(
        canonical1, canonical4,
        "canonical access records diverged between 1 and 4 workers"
    );
    // A sequential client never queues behind itself.
    assert!(records1.iter().all(|r| r.queue_depth == 0));
}

#[test]
fn metrics_as_the_final_request_still_balances_its_own_ledger() {
    let server = Server::start(config(2), compile(), None).expect("bind loopback");
    let client = ServeClient::new(server.local_addr());
    for probe in PROBES {
        client.get(probe).expect("probe response");
    }
    // The very last request before the drain is the scrape itself: the
    // body must already count it on both sides of the ledger.
    let metrics = client.get("/metrics").expect("final scrape");
    let body = metrics.body_text().to_string();
    let counter = |name: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let accepted = counter("borges_serve_accepted_total");
    let served = counter("borges_serve_served_total");
    let shed = counter("borges_serve_shed_total");
    assert_eq!(accepted, (PROBES.len() + 1) as u64, "{body}");
    assert_eq!(
        shed + served,
        accepted,
        "scrape body must balance including itself:\n{body}"
    );

    // Nothing follows the scrape, so the closed post-drain ledger must
    // agree with the body exactly.
    let ledger = server.stop();
    assert_eq!(ledger.counter("borges_serve_accepted_total"), accepted);
    assert_eq!(ledger.counter("borges_serve_served_total"), served);
    assert_eq!(ledger.counter("borges_serve_shed_total"), shed);
}

#[test]
fn debug_endpoints_reflect_traffic_and_a_scrape_excludes_itself() {
    // One worker: the recorder push happens after the response is on
    // the wire, so only a strictly serial pool makes "the scrape sees
    // exactly the prior traffic" an equality rather than a race.
    let server = Server::start(config(1), compile(), None).expect("bind loopback");
    let client = ServeClient::new(server.local_addr());
    for probe in PROBES {
        client.get(probe).expect("probe response");
    }

    // The recorder snapshot is taken before the debug request's own
    // record is pushed, so the scrape sees exactly the prior traffic.
    let requests = client.get("/v1/admin/debug/requests").expect("debug");
    assert_eq!(requests.status, 200);
    let body = requests.body_text();
    assert!(
        body.starts_with(&format!("{{\"total\":{},", PROBES.len())),
        "{body}"
    );
    for probe in PROBES {
        let expected = format!("\"path\":\"{}\"", probe);
        assert!(body.contains(&expected), "{probe} missing from {body}");
    }
    assert!(!body.contains("debug/requests\""), "scrape counted itself");

    // threshold_ms=0 admits everything ever recorded; a non-numeric
    // threshold is a 400, not a default.
    let slow = client
        .get("/v1/admin/debug/slow?threshold_ms=0")
        .expect("slow scrape");
    assert_eq!(slow.status, 200);
    assert!(
        slow.body_text().starts_with(&format!(
            "{{\"threshold_ms\":0,\"total\":{},",
            PROBES.len() + 1
        )),
        "{}",
        slow.body_text()
    );
    let bad = client
        .get("/v1/admin/debug/slow?threshold_ms=soon")
        .expect("bad threshold");
    assert_eq!(bad.status, 400);

    // The journal opens with the boot install and appends on hot-swap.
    let events = client.get("/v1/admin/debug/events").expect("events");
    assert!(
        events.body_text().contains("\"kind\":\"world_installed\""),
        "{}",
        events.body_text()
    );
    assert!(events.body_text().contains("epoch 0 installed, digest "));
    server.install(compile());
    let events = client.get("/v1/admin/debug/events").expect("events again");
    assert!(events.body_text().contains("epoch 1 installed, digest "));
    server.stop();
}

#[test]
fn flight_recorder_ring_wraps_at_capacity() {
    let config = ServerConfig {
        threads: 1,
        recorder_capacity: 4,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let server = Server::start(config, compile(), None).expect("bind loopback");
    let client = ServeClient::new(server.local_addr());
    for i in 0..10 {
        // Distinct paths so the retained window is recognizable.
        client
            .get(&format!("/v1/map/AS{}", 3356 + i))
            .expect("probe response");
    }
    let scrape = client.get("/v1/admin/debug/requests").expect("debug");
    let body = scrape.body_text();
    // All ten were observed, only the last four retained.
    assert!(body.starts_with("{\"total\":10,\"capacity\":4,"), "{body}");
    for kept in 6..10 {
        let expected = format!("\"path\":\"/v1/map/AS{}\"", 3356 + kept);
        assert!(body.contains(&expected), "{expected} evicted early: {body}");
    }
    for evicted in 0..6 {
        let expected = format!("\"path\":\"/v1/map/AS{}\"", 3356 + evicted);
        assert!(!body.contains(&expected), "{expected} survived: {body}");
    }
    server.stop();
}

#[test]
fn shed_responses_carry_request_ids_and_digest_bearing_records() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let captured: Arc<Mutex<Vec<AccessRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    let hooks = ServerHooks {
        access_log: Some(Box::new(move |record| {
            sink.lock().unwrap().push(record.clone());
        })),
        slow: None,
    };
    let config = ServerConfig {
        threads: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let server = Server::start_with(config, compile(), None, hooks, None).expect("bind loopback");
    let addr = server.local_addr();

    // Plug the lone worker and the single queue slot with silent
    // connections, then force a shed.
    let plug_worker = TcpStream::connect(addr).expect("plug connect");
    std::thread::sleep(Duration::from_millis(150));
    let plug_queue = TcpStream::connect(addr).expect("queue connect");
    std::thread::sleep(Duration::from_millis(150));
    let mut stream = TcpStream::connect(addr).expect("overflow connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("shed response");
    let shed = borges_serve::client::parse_response(&raw).expect("parse shed");
    assert_eq!(shed.status, 503);
    // Sheds are numbered by the accept thread: `a-1`, `a-2`, ...
    assert_eq!(shed.headers["x-borges-request-id"], "a-1");

    drop(plug_worker);
    drop(plug_queue);
    std::thread::sleep(Duration::from_millis(400));
    ServeClient::new(addr).get("/healthz").expect("recovered");
    server.stop();

    let records = captured.lock().unwrap().clone();
    let shed_record = records
        .iter()
        .find(|r| r.id == "a-1")
        .expect("shed access record");
    // A shed was never read — no method or path — but it still names
    // the world that refused it.
    assert_eq!(shed_record.method, "-");
    assert_eq!(shed_record.path, "-");
    assert_eq!(shed_record.status, 503);
    assert_eq!(shed_record.world.len(), 64);
    // Shed at a full queue: depth one, and the lru never engaged.
    assert_eq!(shed_record.queue_depth, 1);
    assert_eq!(shed_record.lru, "none");
    // Every record in the run is digest-bearing, shed or served.
    assert!(records.iter().all(|r| r.world.len() == 64));
}
