//! Bundle ingest: `DatasetBundle::load` reproduces recorded digests and
//! fails closed on damaged files.
//!
//! The golden test loads generated bundles and hashes a canonical
//! re-serialization of every loaded part — the four interchange formats,
//! the registry and snapshot indexes, the full adjacency of the topology,
//! and the side files — against `tests/fixtures/bundle_load_goldens.sha256`.
//! `pipeline_goldens` only sees what the pipeline reads, so a change to
//! the topology, populations or oracle would slip past it; this does not.
//!
//! The sweep damages each bundle file with seeded truncations and
//! single-bit flips. A load must never panic, and every failure must be a
//! typed `IoError` naming the damaged file.

use borges_synthnet::io::{save, DatasetBundle, IoError};
use borges_synthnet::{generate_to_dir, GeneratorConfig, SyntheticInternet};
use borges_topology::serial1;
use borges_websim::snapshot as websnap;
use borges_whois::as2org_format;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/fixtures/bundle_load_goldens.sha256"
);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("borges-bundle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn digest(text: &str) -> String {
    borges_store::sha256::hex(&borges_store::sha256::sha256(text.as_bytes()))
}

/// Every loaded part of `bundle` as `(part, canonical text)`.
fn canonical_parts(bundle: &DatasetBundle) -> Vec<(&'static str, String)> {
    let mut whois_index = String::new();
    for org in bundle.whois.orgs() {
        let asns: Vec<String> = bundle
            .whois
            .asns_of(&org.id)
            .map(|a| a.value().to_string())
            .collect();
        writeln!(whois_index, "{}|{}", org.id, asns.join(" ")).unwrap();
    }
    writeln!(
        whois_index,
        "populated {}",
        bundle.whois.populated_org_count()
    )
    .unwrap();

    let mut pdb_index = String::new();
    for org in bundle.pdb.orgs() {
        let nets: Vec<String> = bundle
            .pdb
            .nets_of(org.id)
            .map(|n| n.id.to_string())
            .collect();
        writeln!(pdb_index, "{}|{}", org.id.value(), nets.join(" ")).unwrap();
    }
    for net in bundle.pdb.nets() {
        let by_asn = bundle.pdb.net_by_asn(net.asn).map(|n| n.id);
        writeln!(pdb_index, "{}>{:?}", net.asn.value(), by_asn).unwrap();
    }
    writeln!(pdb_index, "populated {}", bundle.pdb.populated_org_count()).unwrap();

    let list = |asns: &[borges_types::Asn]| -> String {
        let v: Vec<String> = asns.iter().map(|a| a.value().to_string()).collect();
        v.join(" ")
    };
    let topo = &bundle.topology;
    let mut adjacency = String::new();
    for node in topo.nodes() {
        writeln!(
            adjacency,
            "{}|{}|{}|{}",
            node.value(),
            list(topo.customers_of(node)),
            list(topo.providers_of(node)),
            list(topo.peers_of(node))
        )
        .unwrap();
    }
    writeln!(
        adjacency,
        "nodes {} p2c {} p2p {}",
        topo.node_count(),
        topo.p2c_count(),
        topo.p2p_count()
    )
    .unwrap();

    let mut populations = String::new();
    for (asn, rec) in &bundle.populations {
        writeln!(populations, "{}|{}|{}", asn.value(), rec.users, rec.country).unwrap();
    }
    let asrank = list(&bundle.asrank);
    let mut hypergiants = String::new();
    for (name, asn) in &bundle.hypergiants {
        writeln!(hypergiants, "{name}|{}", asn.value()).unwrap();
    }
    let mut truth = String::new();
    for (asn, (org, name)) in bundle.truth.iter().flatten() {
        writeln!(truth, "{}|{org}|{name}", asn.value()).unwrap();
    }
    let mut labels = String::new();
    for (asn, siblings) in bundle.labels.iter().flatten() {
        writeln!(labels, "{}|{}", asn.value(), list(siblings)).unwrap();
    }

    vec![
        ("as2org", as2org_format::serialize(&bundle.whois)),
        ("whois_index", whois_index),
        ("peeringdb", bundle.pdb.to_json()),
        ("pdb_index", pdb_index),
        ("web", websnap::to_json(&bundle.web)),
        ("as_rel", serial1::serialize(topo)),
        ("adjacency", adjacency),
        ("populations", populations),
        ("asrank", asrank),
        ("hypergiants", hypergiants),
        ("truth", truth),
        ("labels", labels),
        ("config", format!("{:?}", bundle.config)),
    ]
}

/// The worlds the golden covers: the CLI's tiny seed-5 world (what
/// `borges generate --scale tiny --seed 5` writes), another tiny seed,
/// and a larger world written by the streaming generator, whose files
/// are laid out differently.
const GOLDEN_WORLDS: [&str; 3] = ["tiny5", "tiny12", "small3_streamed"];

fn write_world(name: &str, dir: &Path) {
    match name {
        "tiny5" => save(&SyntheticInternet::generate(&GeneratorConfig::tiny(5)), dir).unwrap(),
        "tiny12" => save(
            &SyntheticInternet::generate(&GeneratorConfig::tiny(12)),
            dir,
        )
        .unwrap(),
        _ => {
            let config = GeneratorConfig {
                singleton_orgs: 2_000,
                small_multi_orgs: 200,
                conglomerates: 16,
                transit_orgs: 12,
                ..GeneratorConfig::tiny(3)
            };
            generate_to_dir(&config, dir).unwrap();
        }
    }
}

#[test]
fn load_reproduces_the_recorded_digests() {
    let mut actual = Vec::new();
    for name in GOLDEN_WORLDS {
        let dir = tmpdir(&format!("golden-{name}"));
        write_world(name, &dir);
        let bundle = DatasetBundle::load(&dir).expect("generated bundle loads");
        let _ = std::fs::remove_dir_all(&dir);
        for (part, text) in canonical_parts(&bundle) {
            actual.push(format!("{}  {name}.{part}", digest(&text)));
        }
    }
    let expected: Vec<String> = std::fs::read_to_string(FIXTURE)
        .expect("read golden digests")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert!(
        actual == expected,
        "loaded bundle digests moved; full table:\n{}",
        actual.join("\n")
    );
}

/// Every file a generated bundle holds.
const BUNDLE_FILES: [&str; 10] = [
    "as2org.txt",
    "peeringdb.json",
    "web.json",
    "as-rel.txt",
    "populations.psv",
    "asrank.txt",
    "hypergiants.psv",
    "truth.psv",
    "labels.psv",
    "config.json",
];

/// Seeded damage per file: this many truncations and as many bit flips.
const DAMAGE_PER_FILE: u64 = 12;

#[test]
fn damaged_bundles_fail_closed() {
    let dir = tmpdir("sweep");
    save(
        &SyntheticInternet::generate(&GeneratorConfig::tiny(7)),
        &dir,
    )
    .unwrap();
    let mut faults = Vec::new();
    let mut typed_errors = 0;
    for (f, file) in BUNDLE_FILES.iter().enumerate() {
        let path = dir.join(file);
        let pristine = std::fs::read(&path).unwrap();
        for round in 0..2 * DAMAGE_PER_FILE {
            let r = borges_types::hash::splitmix64((f as u64) << 32 | round);
            let mut damaged = pristine.clone();
            let what = if round < DAMAGE_PER_FILE {
                let cut = (r % pristine.len() as u64) as usize;
                damaged.truncate(cut);
                format!("{file} truncated to {cut} bytes")
            } else {
                let offset = (r % pristine.len() as u64) as usize;
                let bit = (r >> 60) % 8;
                damaged[offset] ^= 1 << bit;
                format!("{file} bit {bit} of byte {offset} flipped")
            };
            std::fs::write(&path, &damaged).unwrap();
            match std::panic::catch_unwind(|| DatasetBundle::load(&dir)) {
                Err(_) => faults.push(format!("{what}: load panicked")),
                Ok(Ok(_)) => {}
                Ok(Err(IoError::Fs(named, _) | IoError::Format(named, _))) if named == *file => {
                    typed_errors += 1;
                }
                Ok(Err(e)) => faults.push(format!("{what}: error names another file: {e}")),
            }
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        faults.is_empty(),
        "bundle load failed open:\n{}",
        faults.join("\n")
    );
    assert!(
        typed_errors > BUNDLE_FILES.len(),
        "the sweep should mostly produce errors, got {typed_errors}"
    );
}
