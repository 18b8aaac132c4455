//! Schema-2 payload decoding: the binary section decoder behind the
//! container's checksums.
//!
//! The corruption matrix (`corruption.rs`) never reaches payload
//! decoding, because the section CRC32 catches every flip first. These
//! tests restamp the container around a damaged payload — lengths,
//! section CRC and footer digest all recomputed — so the damage reaches
//! the column decoder itself, whose contract is: a typed
//! [`StoreError::Decode`] naming the damaged section (or `"world"` when
//! the columns decode but the world fails semantic validation), or an
//! `Ok` whose re-encoding is byte-identical. Never a panic.
//!
//! Also pinned here: the refusal of schema-1 artifacts, and
//! `encode ∘ decode ∘ encode` as the identity over random worlds.

use borges_core::delta::{
    EdgeRecord, FaviconMemoRecord, KeyFp, NerMemoRecord, SegmentRecord, SlotRecord,
    SNAPSHOT_STATE_SCHEMA,
};
use borges_core::pipeline::Borges;
use borges_core::world::{
    FaviconGroupRecord, NerEntryRecord, ResilienceStatsRecord, RrGroupRecord,
};
use borges_core::{CompiledWorld, ServingExtras, SnapshotState};
use borges_llm::SimLlm;
use borges_store::format::{decode_container, encode_container, Section};
use borges_store::{
    decode_world, encode_world, world_digest, Corruptor, StoreError, STORE_SCHEMA_VERSION,
};
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_types::WhoisOrgId;
use borges_websim::SimWebClient;
use proptest::prelude::*;
use std::sync::OnceLock;

const SECTIONS: [&str; 6] = [
    "meta",
    "slots",
    "segments",
    "fingerprints",
    "memos",
    "serving",
];

fn artifact_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(161803));
        let llm = SimLlm::new(161803);
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        encode_world(&borges.to_world())
    })
}

fn sections() -> Vec<Section> {
    decode_container(artifact_bytes(), STORE_SCHEMA_VERSION)
        .expect("clean artifact")
        .sections
}

/// A complete, checksum-valid artifact whose section `index` payload
/// is `payload`.
fn restamped(index: usize, payload: Vec<u8>) -> Vec<u8> {
    let mut sections = sections();
    sections[index].payload = payload;
    encode_container(STORE_SCHEMA_VERSION, &sections)
}

/// The payload decoder's contract on one damaged section.
fn assert_decodes_faithfully_or_names(section: &str, bytes: &[u8], what: &str) {
    match decode_world(bytes) {
        Ok(loaded) => assert_eq!(
            encode_world(&loaded.world),
            bytes,
            "{what}: an Ok decode must re-encode byte-identically"
        ),
        Err(StoreError::Decode { section: named, .. }) => assert!(
            named == section || named == "world",
            "{what}: decode error names {named:?}, damage was in {section:?}"
        ),
        Err(other) => panic!("{what}: expected a decode error, got {other:?}"),
    }
}

/// The decode error a restamped payload must produce, as
/// `(section, detail)`.
fn decode_error(index: usize, payload: Vec<u8>) -> (String, String) {
    match decode_world(&restamped(index, payload)) {
        Err(StoreError::Decode { section, detail }) => (section, detail),
        other => panic!("expected a decode error, got {other:?}"),
    }
}

fn u32_at(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap())
}

fn put_u32(bytes: &mut [u8], pos: usize, value: u32) {
    bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
}

/// Skips a CSR column of `n` rows (`width` u32s per item) at `pos`.
fn skip_csr(bytes: &[u8], pos: usize, n: usize, width: usize) -> usize {
    let items = if n == 0 {
        0
    } else {
        u32_at(bytes, pos + 4 * (n - 1)) as usize
    };
    pos + 4 * n + 4 * width * items
}

#[test]
fn the_clean_artifact_decodes() {
    let loaded = decode_world(artifact_bytes()).expect("clean artifact decodes");
    assert_eq!(encode_world(&loaded.world), artifact_bytes());
    let names: Vec<String> = sections().into_iter().map(|s| s.name).collect();
    assert_eq!(names, SECTIONS);
}

#[test]
fn seeded_payload_damage_sweep_never_panics() {
    let clean = sections();
    let mut corruptor = Corruptor::new(0x005E_C710);
    for (index, section) in clean.iter().enumerate() {
        let name = SECTIONS[index];
        let payload = &section.payload;
        for round in 0..40 {
            let cut = corruptor.truncate(payload);
            let what = format!("{name} cut to {} of {}", cut.len(), payload.len());
            assert_decodes_faithfully_or_names(name, &restamped(index, cut), &what);

            let mut flipped = payload.clone();
            let (at, bit) = corruptor.flip_bit(&mut flipped);
            let what = format!("{name} round {round}: bit flip at {at}:{bit}");
            assert_decodes_faithfully_or_names(name, &restamped(index, flipped), &what);

            let mut smashed = payload.clone();
            let at = corruptor.flip_byte(&mut smashed);
            let what = format!("{name} round {round}: byte smash at {at}");
            assert_decodes_faithfully_or_names(name, &restamped(index, smashed), &what);
        }
        // Trailing bytes after the last column are never canonical.
        let mut trailing = payload.clone();
        trailing.push(0);
        let (named, detail) = decode_error(index, trailing);
        assert_eq!(named, name);
        assert!(detail.contains("1 trailing bytes"), "{name}: {detail}");
    }
}

#[test]
fn out_of_range_and_backwards_offsets_are_refused() {
    let segments = sections()[2].payload.clone();
    let n = u32_at(&segments, 0) as usize;
    assert!(n >= 2, "the tiny world has OID_W segments");

    let mut past_end = segments.clone();
    put_u32(&mut past_end, 4 + 4 * (n - 1), u32::MAX);
    let (named, detail) = decode_error(2, past_end);
    assert_eq!(named, "segments");
    assert!(detail.contains("segment key: needs"), "{detail}");

    let mut backwards = segments.clone();
    let last = u32_at(&segments, 4 + 4 * (n - 1));
    put_u32(&mut backwards, 4, last + 1);
    let (named, detail) = decode_error(2, backwards);
    assert_eq!(named, "segments");
    assert!(detail.contains("goes backwards at row 1"), "{detail}");
}

#[test]
fn invalid_utf8_and_non_canonical_urls_are_refused() {
    // The first fingerprint table's key blob starts after its offsets.
    let fps = sections()[3].payload.clone();
    let n = u32_at(&fps, 0) as usize;
    assert!(n > 0);
    let mut bad = fps.clone();
    bad[4 + 4 * n] = 0xFF;
    let (named, detail) = decode_error(3, bad);
    assert_eq!(named, "fingerprints");
    assert!(detail.contains("not UTF-8"), "{detail}");

    let mut meta = sections()[0].payload.clone();
    meta[4] = 0xC3; // a lead byte with no continuation
    let (named, detail) = decode_error(0, meta);
    assert_eq!(named, "meta");
    assert!(detail.contains("not UTF-8"), "{detail}");

    // Walk the serving payload to the R&R URL blob: two group CSRs,
    // the NER entry table, then 18 NER stat counters.
    let serving = sections()[5].payload.clone();
    let mut pos = 0;
    for _ in 0..2 {
        let n = u32_at(&serving, pos) as usize;
        pos = skip_csr(&serving, pos + 4, n, 1);
    }
    let n = u32_at(&serving, pos) as usize;
    pos = skip_csr(&serving, pos + 4 + 4 * n, n, 1) + 18 * 8;
    let groups = u32_at(&serving, pos) as usize;
    assert!(groups > 0, "the tiny world has R&R groups");
    let blob = pos + 4 + 4 * groups;
    assert!(serving[blob..].starts_with(b"http"));
    // `HTTP://…` parses, but renders back lower-cased: not canonical.
    let mut upper = serving.clone();
    upper[blob..blob + 4].copy_from_slice(b"HTTP");
    let (named, detail) = decode_error(5, upper);
    assert_eq!(named, "serving");
    assert!(detail.contains("is not a canonical URL"), "{detail}");
}

#[test]
fn tag_bytes_other_than_zero_or_one_are_refused() {
    // Slot live bytes follow the ASN column.
    let slots = sections()[1].payload.clone();
    let n = u32_at(&slots, 0) as usize;
    let mut bad = slots.clone();
    bad[4 + 4 * n] = 2;
    let (named, detail) = decode_error(1, bad);
    assert_eq!(named, "slots");
    assert!(detail.contains("row 0 has tag byte 2"), "{detail}");

    // The favicon memo's `named` Option tag follows the NER memo table
    // and the favicon and fingerprint columns.
    let memos = sections()[4].payload.clone();
    let ner = u32_at(&memos, 0) as usize;
    let pos = skip_csr(&memos, 4 + 12 * ner, ner, 1);
    let favicons = u32_at(&memos, pos) as usize;
    assert!(favicons > 0, "the tiny world memoizes favicon replies");
    let tags = pos + 4 + 16 * favicons;
    let mut bad = memos.clone();
    bad[tags] = 7;
    let (named, detail) = decode_error(4, bad);
    assert_eq!(named, "memos");
    assert!(detail.contains("tag byte 7"), "{detail}");

    // `None` has one encoding: tag 0 *and* an empty name.
    let named_row = (0..favicons).find(|&row| memos[tags + row] == 1);
    if let Some(row) = named_row {
        let mut bad = memos.clone();
        bad[tags + row] = 0;
        let (named, detail) = decode_error(4, bad);
        assert_eq!(named, "memos");
        assert!(detail.contains("unnamed row carries a name"), "{detail}");
    }
}

#[test]
fn misplaced_or_extra_sections_are_refused() {
    let mut swapped = sections();
    swapped.swap(1, 2);
    match decode_world(&encode_container(STORE_SCHEMA_VERSION, &swapped)) {
        Err(StoreError::Decode { section, detail }) => {
            assert_eq!(section, "slots");
            assert!(detail.contains("\"segments\""), "{detail}");
        }
        other => panic!("swapped sections gave {other:?}"),
    }
    let mut extra = sections();
    extra.push(Section {
        name: "appendix".into(),
        payload: Vec::new(),
    });
    match decode_world(&encode_container(STORE_SCHEMA_VERSION, &extra)) {
        Err(StoreError::Decode { section, .. }) => assert_eq!(section, "appendix"),
        other => panic!("an extra section gave {other:?}"),
    }
}

#[test]
fn schema_1_fixture_is_a_typed_schema_mismatch() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/store_v1_tiny_seed5.world"
    ))
    .expect("committed schema-1 fixture");
    match decode_world(&bytes) {
        Err(StoreError::SchemaMismatch { found, expected }) => {
            assert_eq!((found, expected), (1, 2));
        }
        other => panic!("a schema-1 artifact gave {other:?}"),
    }
}

// ---------------------------------------------------------------------
// encode ∘ decode ∘ encode over random worlds
// ---------------------------------------------------------------------

/// Keys that stress the string columns: empty, ASCII, multi-byte.
const TEXT_KEYS: &[&str] = &["", "ORG-ARIN-1", "Straße", "東京", "🦀", "a\u{0}b"];

/// Canonical URLs, including a non-ASCII path and an empty query.
const URLS: &[&str] = &[
    "http://example.com/",
    "https://www.lumen.com/en-us/home.html",
    "https://claro.com.br:8443/ñandú?q=ü",
    "http://a.example.org/?",
];

fn random_world(seed: u64) -> CompiledWorld {
    let mut rng = Corruptor::new(seed);
    let slots_n = rng.below(13);
    let u64_edge = |rng: &mut Corruptor| match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        _ => (rng.below(usize::MAX) as u64) << 1 | 1,
    };
    let text = |rng: &mut Corruptor| TEXT_KEYS[rng.below(TEXT_KEYS.len())].to_string();
    let numeric = |rng: &mut Corruptor, v: u64| match rng.below(3) {
        0 => "0".to_string(),
        1 => u64::MAX.to_string(),
        _ => v.to_string(),
    };
    let members = |rng: &mut Corruptor| -> Vec<u32> {
        let n = rng.below(5);
        (0..n)
            .map(|_| match rng.below(3) {
                0 => u32::MAX,
                _ => rng.below(70_000) as u32,
            })
            .collect()
    };

    let slots: Vec<SlotRecord> = (0..slots_n)
        .map(|i| SlotRecord {
            asn: if i == 0 { u32::MAX } else { i as u32 * 7 },
            live: rng.below(2) == 1,
        })
        .collect();
    let segments = |rng: &mut Corruptor, numeric_keys: bool| -> Vec<SegmentRecord> {
        let n = rng.below(5);
        (0..n)
            .map(|_| SegmentRecord {
                key: if numeric_keys {
                    let v = u64_edge(rng);
                    numeric(rng, v)
                } else {
                    text(rng)
                },
                fp: u64_edge(rng),
                edges: if slots_n == 0 {
                    Vec::new()
                } else {
                    (0..rng.below(4))
                        .map(|_| EdgeRecord {
                            a: rng.below(slots_n) as u32,
                            b: rng.below(slots_n) as u32,
                        })
                        .collect()
                },
            })
            .collect()
    };
    let oid_w = segments(&mut rng, false);
    let oid_p = segments(&mut rng, true);
    // notes/aka keys are subject ASNs: valid only within `u32`.
    let mut na = segments(&mut rng, true);
    for seg in &mut na {
        seg.key = (seg.key.parse::<u64>().unwrap() & u64::from(u32::MAX)).to_string();
    }
    let rr = segments(&mut rng, false);
    let favicons = segments(&mut rng, true);
    let fps = |rng: &mut Corruptor, numeric_keys: bool| -> Vec<KeyFp> {
        let mut fps: Vec<KeyFp> = (0..rng.below(5))
            .map(|_| KeyFp {
                key: if numeric_keys {
                    let v = u64_edge(rng);
                    numeric(rng, v)
                } else {
                    text(rng)
                },
                fp: u64_edge(rng),
            })
            .collect();
        // A valid state holds each source's records strictly ascending
        // by key: handles in canonical form, the rest as numbers.
        let order = |rec: &KeyFp| match rec.key.parse::<u64>() {
            Ok(v) if numeric_keys => (v, String::new()),
            _ => (0, WhoisOrgId::new(&rec.key).to_string()),
        };
        fps.sort_by_key(order);
        fps.dedup_by(|x, y| order(x) == order(y));
        fps
    };
    let whois_org_fps = fps(&mut rng, false);
    let whois_aut_fps = fps(&mut rng, true);
    let pdb_org_fps = fps(&mut rng, true);
    let pdb_net_fps = fps(&mut rng, true);
    let site_fps = fps(&mut rng, true);
    let ner_memo = (0..rng.below(4))
        .map(|_| NerMemoRecord {
            asn: rng.below(70_000) as u32,
            fp: u64_edge(&mut rng),
            findings: members(&mut rng),
        })
        .collect();
    let favicon_memo = (0..rng.below(4))
        .map(|_| FaviconMemoRecord {
            favicon: u64_edge(&mut rng),
            fp: u64_edge(&mut rng),
            named: match rng.below(3) {
                0 => None,
                _ => Some(text(&mut rng)),
            },
        })
        .collect();

    let mut extras = ServingExtras {
        oid_w_groups: (0..rng.below(4)).map(|_| members(&mut rng)).collect(),
        oid_p_groups: (0..rng.below(4)).map(|_| members(&mut rng)).collect(),
        ner_entries: (0..rng.below(4))
            .map(|_| NerEntryRecord {
                asn: rng.below(70_000) as u32,
                siblings: members(&mut rng),
            })
            .collect(),
        rr_groups: (0..rng.below(4))
            .map(|_| RrGroupRecord {
                final_url: URLS[rng.below(URLS.len())].parse().unwrap(),
                members: members(&mut rng),
            })
            .collect(),
        favicon_groups: (0..rng.below(4))
            .map(|_| FaviconGroupRecord {
                favicon: u64_edge(&mut rng),
                members: members(&mut rng),
            })
            .collect(),
        ..ServingExtras::default()
    };
    let resilience = |rng: &mut Corruptor| ResilienceStatsRecord {
        calls: u64_edge(rng),
        attempts: u64_edge(rng),
        recovered: u64_edge(rng),
        abandoned: u64_edge(rng),
        breaker_trips: u64_edge(rng),
        breaker_fast_fails: u64_edge(rng),
    };
    extras.ner_stats.entries_total = u64_edge(&mut rng) as usize;
    extras.ner_stats.extracted_asns = u64_edge(&mut rng) as usize;
    extras.ner_stats.usage.prompt_tokens = u64_edge(&mut rng);
    extras.ner_stats.usage.completion_tokens = u64_edge(&mut rng);
    extras.ner_stats.resilience = resilience(&mut rng);
    extras.rr_stats.shared_final_urls = u64_edge(&mut rng) as usize;
    extras.favicon_stats.dont_know = u64_edge(&mut rng) as usize;
    extras.favicon_stats.usage.completion_tokens = u64_edge(&mut rng);
    extras.favicon_stats.resilience = resilience(&mut rng);
    extras.scrape_stats.unique_favicons = u64_edge(&mut rng) as usize;
    extras.scrape_stats.resilience = resilience(&mut rng);
    extras.web_cache.hits = u64_edge(&mut rng);
    extras.web_cache.entries = u64_edge(&mut rng);

    CompiledWorld {
        state: SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            slots,
            oid_w,
            oid_p,
            na,
            rr,
            favicons,
            whois_org_fps,
            whois_aut_fps,
            pdb_org_fps,
            pdb_net_fps,
            site_fps,
            ner_memo,
            favicon_memo,
        },
        extras,
        epoch: u64_edge(&mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_encode_decode_encode_is_the_identity(seed in any::<u64>()) {
        let world = random_world(seed);
        let bytes = encode_world(&world);
        let loaded = decode_world(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: a valid world failed to decode: {e}"));
        prop_assert_eq!(&loaded.world, &world);
        prop_assert_eq!(encode_world(&loaded.world), bytes);
        prop_assert_eq!(world_digest(&loaded.world), loaded.digest);
    }
}

#[test]
fn the_empty_world_round_trips() {
    let world = CompiledWorld {
        state: SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            ..SnapshotState::default()
        },
        ..CompiledWorld::default()
    };
    let bytes = encode_world(&world);
    let loaded = decode_world(&bytes).unwrap();
    assert_eq!(loaded.world, world);
    assert_eq!(encode_world(&loaded.world), bytes);
}
