//! Byte-identity goldens for the timeline.
//!
//! Builds the two-epoch chain the CI timeline job builds — the tiny
//! seed-77 world, then the same world after a scripted Cogent/Orange
//! acquisition, mapped and remapped onto one timeline — and compares the
//! SHA-256 of what the chain stores and answers against the digests
//! committed in `tests/fixtures/timeline_goldens.sha256`: the
//! `timeline diff 0 1` output, the epoch-1 delta file, AS174's lineage
//! JSON (the `/v1/org/{asn}/history` body) and both world artifacts.

use borges_timeline::Timeline;
use borges_types::Asn;
use std::path::PathBuf;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/timeline_goldens.sha256"
);

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match borges_cli::run(&args) {
        Ok(out) => out,
        Err(e) => panic!("borges {args:?} failed: {e}"),
    }
}

fn digest(bytes: &[u8]) -> String {
    borges_store::sha256::hex(&borges_store::sha256::sha256(bytes))
}

#[test]
fn the_acquisition_chain_reproduces_the_recorded_digests() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("borges-timeline-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (t0, t1, chain) = (path("tl-t0"), path("tl-t1"), path("tl-chain"));
    let (base, map0, map1) = (path("tl-t0.world"), path("tl-t0.map"), path("tl-t1.map"));
    run(&["generate", "--out", &t0, "--scale", "tiny", "--seed", "77"]);
    run(&[
        "generate",
        "--out",
        &t1,
        "--scale",
        "tiny",
        "--seed",
        "77",
        "--evolve",
        "acquisition:cogent:orange",
    ]);
    run(&[
        "map",
        "-q",
        "--data",
        &t0,
        "--out",
        &map0,
        "--store-out",
        &base,
        "--timeline",
        &chain,
    ]);
    run(&[
        "remap",
        "-q",
        "--data",
        &t1,
        "--base",
        &base,
        "--out",
        &map1,
        "--timeline",
        &chain,
    ]);

    let mut actual = vec![format!(
        "{}  timeline-diff-0-1.json",
        digest(run(&["timeline", "diff", &chain, "0", "1"]).as_bytes())
    )];
    let chain_dir = dir.join("tl-chain");
    let delta = std::fs::read(chain_dir.join("deltas").join("1.delta")).expect("read delta");
    actual.push(format!("{}  deltas/1.delta", digest(&delta)));
    let timeline = Timeline::open(&chain_dir).expect("open chain");
    let lineage = timeline.org_lineage(Asn::new(174)).expect("lineage");
    actual.push(format!(
        "{}  lineage-AS174.json",
        digest(lineage.to_json().as_bytes())
    ));
    for link in timeline.links() {
        let world = std::fs::read(timeline.world_path(link)).expect("read world");
        actual.push(format!(
            "{}  worlds/epoch{}.world",
            digest(&world),
            link.epoch
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let expected: Vec<String> = std::fs::read_to_string(FIXTURE)
        .expect("read golden digests")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert!(
        actual == expected,
        "timeline digests moved; full table:\n{}",
        actual.join("\n")
    );
}
