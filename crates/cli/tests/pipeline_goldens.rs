//! Byte-identity goldens for every `map` engine and for `remap`.
//!
//! Generates the tiny seed-5 world, runs `map` six ways (sequential,
//! parallel, resilient at one and four threads, streaming bare and
//! streaming under chaos) and `remap` against the first run's state, and
//! compares the SHA-256 of every artifact — mapfile, canonical trace,
//! metrics, run ledger and store artifact — against the digests committed
//! in `tests/fixtures/pipeline_goldens.sha256`.
//!
//! Every artifact is deterministic except three streaming ledger rows:
//! `ingest_worker`, `ingest_in_flight` and `ingest_reassembly` count
//! per-worker completions and scheduler high-water marks, which depend on
//! thread scheduling by design (DESIGN.md §8). Their `items` values are
//! masked before hashing; the rows themselves, and every other field,
//! stay pinned.

use std::path::{Path, PathBuf};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/pipeline_goldens.sha256"
);

/// Ledger rows whose `items` depend on the fetch schedule.
const SCHEDULE_ROWS: [&str; 3] = ["ingest_worker", "ingest_in_flight", "ingest_reassembly"];

const CHAOS: [&str; 4] = ["--fault-rate", "0.2", "--chaos-seed", "3"];

fn run(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    if let Err(e) = borges_cli::run(&args) {
        panic!("borges {args:?} failed: {e}");
    }
}

fn digest(bytes: &[u8]) -> String {
    borges_store::sha256::hex(&borges_store::sha256::sha256(bytes))
}

/// The run ledger with the schedule-dependent row counts masked: the
/// `"items"` line of each worker row whose stage is in `SCHEDULE_ROWS`.
fn masked_report(path: &Path) -> Vec<u8> {
    let text = std::fs::read_to_string(path).expect("read report");
    let mut masking = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let field = line.trim_start();
        if field.starts_with("\"stage\":") {
            masking = SCHEDULE_ROWS
                .iter()
                .any(|s| field == format!("\"stage\": \"{s}\","));
        }
        if masking && field.starts_with("\"items\":") {
            out.push_str("\"items\": *,");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Hashes one run's five artifacts into `out` as `digest  name.kind` lines.
fn record(dir: &Path, name: &str, out: &mut Vec<String>) {
    for kind in ["map", "trace", "metrics", "report", "store"] {
        let path = dir.join(format!("{name}.{kind}"));
        let bytes = if kind == "report" {
            masked_report(&path)
        } else {
            std::fs::read(&path).expect("read artifact")
        };
        out.push(format!("{}  {name}.{kind}", digest(&bytes)));
    }
}

fn outputs(dir: &Path, name: &str) -> Vec<String> {
    ["out", "trace-out", "metrics-out", "report-out", "store-out"]
        .iter()
        .zip(["map", "trace", "metrics", "report", "store"])
        .flat_map(|(flag, kind)| {
            let path = dir.join(format!("{name}.{kind}"));
            [format!("--{flag}"), path.to_str().unwrap().to_string()]
        })
        .collect()
}

#[test]
fn every_engine_reproduces_the_recorded_digests() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("borges-pipeline-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = dir.join("world");
    let base = dir.join("threads1.store");
    let world_s = world.to_str().unwrap();
    let base_s = base.to_str().unwrap();
    run(&[
        "generate", "--out", world_s, "--scale", "tiny", "--seed", "5",
    ]);

    let modes: Vec<(&str, Vec<&str>)> = vec![
        ("threads1", vec!["--threads", "1"]),
        ("threads4", vec!["--threads", "4"]),
        ("chaos1", [&["--threads", "1"][..], &CHAOS].concat()),
        ("chaos4", [&["--threads", "4"][..], &CHAOS].concat()),
        (
            "streaming",
            vec!["--streaming", "--max-in-flight", "4", "--threads", "4"],
        ),
        (
            "streaming_chaos",
            [&["--streaming", "--threads", "4"][..], &CHAOS].concat(),
        ),
    ];
    let mut actual = Vec::new();
    for (name, flags) in &modes {
        let outs = outputs(&dir, name);
        let mut args = vec!["map", "-q", "--data", world_s];
        args.extend(flags.iter().copied());
        args.extend(outs.iter().map(String::as_str));
        run(&args);
        record(&dir, name, &mut actual);
    }
    let outs = outputs(&dir, "remap");
    let mut args = vec![
        "remap",
        "-q",
        "--data",
        world_s,
        "--base",
        base_s,
        "--threads",
        "4",
    ];
    args.extend(outs.iter().map(String::as_str));
    run(&args);
    record(&dir, "remap", &mut actual);
    let _ = std::fs::remove_dir_all(&dir);

    let expected: Vec<String> = std::fs::read_to_string(FIXTURE)
        .expect("read golden digests")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let mismatched: Vec<&String> = actual.iter().filter(|l| !expected.contains(l)).collect();
    assert!(
        mismatched.is_empty() && actual.len() == expected.len(),
        "artifact digests moved: {mismatched:#?}\nfull table:\n{}",
        actual.join("\n")
    );
}
