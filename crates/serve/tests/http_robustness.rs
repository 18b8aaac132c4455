//! Robustness of the HTTP boundary: every byte stream — malformed
//! request lines, oversized headers, truncated bodies, pipelined
//! garbage, or pure noise — yields a 4xx/5xx response or a clean
//! disconnect. Never a panic, never a hang.
//!
//! Two layers: the parser is fuzzed directly (cheap, thousands of
//! cases), and a live server takes the same abuse over real sockets so
//! the connection handling (timeouts, error responses, the
//! accept/serve ledger) is exercised end to end.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use borges_core::Borges;
use borges_llm::SimLlm;
use borges_serve::{ServeClient, Server, ServerConfig};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_websim::SimWebClient;
use proptest::prelude::*;

fn tiny_borges() -> Borges {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(5));
    let llm = SimLlm::flawless();
    Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    )
}

fn start_server() -> Server {
    let config = ServerConfig {
        threads: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    Server::start(config, tiny_borges(), None).expect("bind loopback")
}

/// A response must be absent (the peer was beyond answering) or carry
/// an HTTP/1.1 status in the given class(es).
fn assert_error_class(raw: &[u8], input: &[u8]) {
    if raw.is_empty() {
        return;
    }
    let head = String::from_utf8_lossy(&raw[..raw.len().min(12)]);
    assert!(
        head.starts_with("HTTP/1.1 4") || head.starts_with("HTTP/1.1 5"),
        "input {input:?} produced non-error head {head:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // The parser never panics on arbitrary bytes.
    #[test]
    fn parser_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = borges_serve::http::parse_request(&mut BufReader::new(bytes.as_slice()));
    }

    // Structured-ish garbage (random method/target/version tokens,
    // random headers, lying content-lengths) never panics either, and
    // never parses into a request with an empty method.
    #[test]
    fn parser_survives_structured_garbage(
        method in "[A-Za-z!#$%]{0,10}",
        target in "[ -~]{0,40}",
        version in "[A-Za-z0-9/.]{0,12}",
        header in "[ -~]{0,60}",
        body_len in 0usize..200_000,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream = format!(
            "{method} {target} {version}\r\n{header}\r\nContent-Length: {body_len}\r\n\r\n"
        ).into_bytes();
        stream.extend_from_slice(&body);
        match borges_serve::http::parse_request(&mut BufReader::new(stream.as_slice())) {
            Ok(req) => prop_assert!(!req.method.is_empty()),
            Err(e) => {
                // Every answerable error is an HTTP error status.
                if let Some((status, _, _)) = e.status() {
                    prop_assert!((400..=599).contains(&status));
                }
            }
        }
    }
}

#[test]
fn live_server_answers_malformed_inputs_with_errors() {
    let server = start_server();
    let client = ServeClient::new(server.local_addr());

    let cases: &[&[u8]] = &[
        b"",
        b"\r\n",
        b"GARBAGE\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nContent-Length: not-a-number\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"\xff\xfe\x00\x01binary noise\r\n\r\n",
        b"GET /../../../etc/passwd HTTP/1.1\r\n\r\n",
    ];
    for case in cases {
        let raw = client.send_raw(case).expect("loopback io");
        assert_error_class(&raw, case);
    }

    // Oversized request line and a header flood: refused with 431, not
    // buffered without bound.
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(32 * 1024));
    let raw = client.send_raw(long_line.as_bytes()).expect("loopback io");
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 431"),
        "long line"
    );

    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        flood.extend_from_slice(format!("X-Flood-{i}: v\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    let raw = client.send_raw(&flood).expect("loopback io");
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 431"),
        "header flood"
    );

    // The server is still alive and serving after all of that.
    let health = client.get("/healthz").expect("healthz after abuse");
    assert_eq!(health.status, 200);

    let ledger = server.stop();
    assert_eq!(
        ledger.counter("borges_serve_shed_total") + ledger.counter("borges_serve_served_total"),
        ledger.counter("borges_serve_accepted_total"),
        "accept ledger must balance after abuse"
    );
}

#[test]
fn live_server_fuzz_never_hangs_or_panics() {
    let server = start_server();
    let client = ServeClient::new(server.local_addr()).with_timeout(Duration::from_secs(2));

    // Deterministic xorshift garbage: byte-noise requests over real
    // sockets, every one answered or cleanly dropped.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..64 {
        let len = (state % 300) as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state >> 32) as u8);
        }
        let raw = client.send_raw(&bytes).expect("loopback io");
        if !bytes.is_empty() {
            assert_error_class(&raw, &bytes);
        }
        let _ = round;
    }

    let health = client.get("/healthz").expect("alive after fuzz");
    assert_eq!(health.status, 200);
    server.stop();
}

#[test]
fn silent_peer_is_answered_408_after_the_read_timeout() {
    let server = start_server();
    // Send half a request line and go silent without closing: the
    // server must time the read out and answer 408 rather than hold
    // the worker hostage.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"GET /heal").expect("partial write");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read 408");
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 408"),
        "got {:?}",
        String::from_utf8_lossy(&raw)
    );
    server.stop();
}

#[test]
fn pipelined_garbage_after_a_valid_request_is_ignored() {
    let server = start_server();
    let client = ServeClient::new(server.local_addr());
    let raw = client
        .send_raw(b"GET /healthz HTTP/1.1\r\n\r\nGET /also/this HTTP/1.1\r\n\r\ntrailing junk")
        .expect("loopback io");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    // One request per connection: exactly one response comes back.
    assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");
    server.stop();
}

/// The reload body a client sends to swap in a named store artifact.
const RELOAD_STORE: &str = "/srv/borges/current.world";

/// A server whose reloader knows one store artifact, [`RELOAD_STORE`]
/// (it hands back a copy of the serving world), and refuses every other
/// path the way a missing artifact is refused.
fn start_reloadable_server() -> Server {
    let reloader: borges_serve::Reloader = Box::new(|current, store| match store {
        Some(RELOAD_STORE) | None => Ok(current.clone()),
        Some(other) => Err(format!("store artifact {other}: missing")),
    });
    let config = ServerConfig {
        threads: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    Server::start(config, tiny_borges(), Some(reloader)).expect("bind loopback")
}

#[test]
fn damaged_reload_bodies_are_refused_and_the_old_world_keeps_serving() {
    let server = start_reloadable_server();
    let client = ServeClient::new(server.local_addr()).with_timeout(Duration::from_secs(5));
    // The world a `/healthz` answer names: its epoch and digest.
    let world_of = |client: &ServeClient| {
        let health = client.get("/healthz").expect("healthz");
        let value: serde_json::Value = serde_json::from_str(health.body_text()).expect("json");
        let field = |name: &str| value.get(name).map(|v| v.to_string());
        (field("epoch"), field("world_digest"))
    };
    let before = world_of(&client);
    assert!(before.1.is_some(), "{before:?}");
    let honest = format!("{{\"store\": \"{RELOAD_STORE}\"}}").into_bytes();

    // Non-empty truncations (an empty body is the documented reload
    // from the default source), single-bit flips, and bodies made
    // non-UTF-8 by one continuation byte amid the ASCII.
    let mut corruptor = borges_store::Corruptor::new(0x0bad_b0d1);
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for _ in 0..60 {
        bodies.push(honest[..1 + corruptor.below(honest.len() - 1)].to_vec());
    }
    for _ in 0..120 {
        let mut body = honest.clone();
        corruptor.flip_bit(&mut body);
        bodies.push(body);
    }
    for _ in 0..30 {
        let mut body = honest.clone();
        let at = corruptor.below(body.len());
        body[at] = 0x80 | corruptor.below(0x40) as u8;
        bodies.push(body);
    }

    let (mut bad_request, mut refused_path) = (0, 0);
    for body in &bodies {
        let response = client.post("/v1/admin/reload", body).expect("loopback io");
        // A flip inside the path leaves a well-formed request naming
        // another artifact: the reloader refuses it as missing (500, as
        // for any failed reload). Everything else is not a reload
        // request at all: 400.
        let names_another_store = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok())
            .is_some_and(|value| value.get("store").and_then(|s| s.as_str()).is_some());
        if names_another_store {
            assert_eq!(response.status, 500, "{:?}", String::from_utf8_lossy(body));
            refused_path += 1;
        } else {
            assert_eq!(response.status, 400, "{:?}", String::from_utf8_lossy(body));
            bad_request += 1;
        }
        assert_eq!(server.epoch(), 0, "{:?}", String::from_utf8_lossy(body));
    }
    assert!(
        bad_request > 0 && refused_path > 0,
        "{bad_request}/{refused_path}"
    );
    assert_eq!(world_of(&client), before, "the old world keeps serving");

    // The honest body does reload, so the sweep damaged a live request.
    let reload = client.post("/v1/admin/reload", &honest).expect("reload");
    assert_eq!(reload.status, 200, "{reload:?}");
    assert_eq!(server.epoch(), 1);
    server.stop();
}
