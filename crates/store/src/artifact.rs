//! World artifacts: a [`CompiledWorld`] serialized into the sectioned
//! container and back, plus the file-level load/store/verify entry
//! points the CLI and server use.
//!
//! The encoding is **canonical**: encoding a decoded world reproduces
//! the artifact byte for byte, so the whole-file SHA-256 is a stable
//! content address — `world_digest` of a freshly compiled pipeline
//! equals the digest of the artifact it was loaded from, which is what
//! lets `/healthz` prove which artifact is live.
//!
//! Section payloads are schema 2: little-endian binary columns
//! (`columns.rs`) laid out as DESIGN.md §12 tabulates. Decoding
//! is a sequential copy with no intermediate value tree.

use crate::atomic::write_atomic;
use crate::columns::{ColumnReader, ColumnWriter, Csr};
use crate::error::StoreError;
use crate::format::{decode_container, encode_container, Container, Section};
use crate::sha256;
use borges_core::delta::{
    EdgeRecord, FaviconMemoRecord, KeyFp, NerMemoRecord, SegmentRecord, SlotRecord,
};
use borges_core::world::{
    FaviconGroupRecord, FaviconStatsRecord, NerEntryRecord, NerStatsRecord, ResilienceStatsRecord,
    RrGroupRecord, RrStatsRecord, ScrapeStatsRecord,
};
use borges_core::{CompiledWorld, ServingExtras, SnapshotState};
use borges_llm::chat::Usage;
use borges_telemetry::CacheStats;
use borges_types::url::Url;
use std::path::Path;

/// The world payload schema this reader writes and understands. Schema
/// 1 (JSON section payloads) is refused with
/// [`StoreError::SchemaMismatch`]; re-write such artifacts with
/// `borges map --store-out`.
pub const STORE_SCHEMA_VERSION: u32 = 2;

const SECTION_META: &str = "meta";
const SECTION_SLOTS: &str = "slots";
const SECTION_SEGMENTS: &str = "segments";
const SECTION_FINGERPRINTS: &str = "fingerprints";
const SECTION_MEMOS: &str = "memos";
const SECTION_SERVING: &str = "serving";

/// The six sections, in the only order a valid artifact holds them.
const SECTIONS: [&str; 6] = [
    SECTION_META,
    SECTION_SLOTS,
    SECTION_SEGMENTS,
    SECTION_FINGERPRINTS,
    SECTION_MEMOS,
    SECTION_SERVING,
];

/// A validated world fresh off disk (or off a byte slice), with the
/// provenance the server reports.
#[derive(Debug)]
pub struct LoadedWorld {
    /// The decoded, semantically validated world.
    pub world: CompiledWorld,
    /// Hex SHA-256 content address of the artifact bytes.
    pub digest: String,
    /// The artifact's world schema version.
    pub schema: u32,
}

/// What `store verify` prints: provenance and the section table,
/// without keeping the decoded world around.
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Hex SHA-256 content address.
    pub digest: String,
    /// Container layout version.
    pub format_version: u32,
    /// World payload schema version.
    pub schema_version: u32,
    /// Timeline epoch recorded in the meta section (`0` if the world
    /// was never published to a timeline).
    pub epoch: u64,
    /// `(name, payload bytes)` per section, in file order.
    pub sections: Vec<(String, u64)>,
    /// Total artifact size in bytes.
    pub total_len: u64,
}

/// Serializes a world into complete artifact bytes.
pub fn encode_world(world: &CompiledWorld) -> Vec<u8> {
    let state = &world.state;
    let payloads = [
        encode_meta(world),
        encode_slots(&state.slots),
        encode_segments(state),
        encode_fingerprints(state),
        encode_memos(state),
        encode_serving(&world.extras),
    ];
    let sections: Vec<Section> = SECTIONS
        .iter()
        .zip(payloads)
        .map(|(name, payload)| Section {
            name: (*name).to_string(),
            payload,
        })
        .collect();
    encode_container(STORE_SCHEMA_VERSION, &sections)
}

/// Hex content address of complete artifact bytes: the footer's last
/// 32 bytes are the SHA-256 of everything before them, so the address
/// is read, not recomputed.
pub fn encoded_digest(artifact: &[u8]) -> String {
    sha256::hex(&artifact[artifact.len() - 32..])
}

/// Hex SHA-256 content address a world *would* have on disk. For a
/// world loaded via [`load_artifact`] this equals the source file's
/// digest, because the encoding is canonical.
pub fn world_digest(world: &CompiledWorld) -> String {
    encoded_digest(&encode_world(world))
}

/// Parses, integrity-checks, and semantically validates artifact
/// bytes. Never panics: every malformed input maps to a typed
/// [`StoreError`].
pub fn decode_world(bytes: &[u8]) -> Result<LoadedWorld, StoreError> {
    let container = decode_container(bytes, STORE_SCHEMA_VERSION)?;
    Ok(LoadedWorld {
        world: world_from_container(&container)?,
        digest: sha256::hex(&container.digest),
        schema: container.schema_version,
    })
}

/// Decodes and validates the world inside an already verified
/// container.
fn world_from_container(container: &Container) -> Result<CompiledWorld, StoreError> {
    let world = decode_payloads(container)?;
    // Checksums prove the bytes are the ones written; validation proves
    // the written world was sane (inner schema tag, unique interner
    // slots, edges inside the universe). A failure here means the
    // *writer* was broken, not the disk — still a typed refusal, never
    // a panic downstream.
    world.validate().map_err(|detail| StoreError::Decode {
        section: "world".into(),
        detail,
    })?;
    Ok(world)
}

/// Decodes the six section payloads of an already verified container
/// into a world, refusing any non-canonical byte, but **without** the
/// semantic validation [`decode_world`] adds: the result must pass
/// [`CompiledWorld::validate`] before anything trusts it. Exposed so
/// benchmarks can time payload decoding on its own.
pub fn decode_payloads(container: &Container) -> Result<CompiledWorld, StoreError> {
    if let Some(extra) = container.sections.get(SECTIONS.len()) {
        return Err(StoreError::Decode {
            section: extra.name.clone(),
            detail: format!("unexpected section after {SECTION_SERVING:?}"),
        });
    }
    let payload = |index: usize| -> Result<ColumnReader<'_>, StoreError> {
        let name = SECTIONS[index];
        match container.sections.get(index) {
            Some(section) if section.name == name => Ok(ColumnReader::new(name, &section.payload)),
            Some(section) => Err(StoreError::Decode {
                section: name.to_string(),
                detail: format!("section #{index} is {:?}", section.name),
            }),
            None => Err(StoreError::Decode {
                section: name.to_string(),
                detail: "section absent".into(),
            }),
        }
    };

    let (schema, epoch) = decode_meta(payload(0)?)?;
    let slots = decode_slots(payload(1)?)?;
    let mut state = SnapshotState {
        schema,
        slots,
        ..SnapshotState::default()
    };
    decode_segments(payload(2)?, &mut state)?;
    decode_fingerprints(payload(3)?, &mut state)?;
    decode_memos(payload(4)?, &mut state)?;
    let extras = decode_serving(payload(5)?)?;

    Ok(CompiledWorld {
        epoch,
        state,
        extras,
    })
}

/// Reads and fully validates the artifact at `path`.
pub fn load_artifact(path: &Path) -> Result<LoadedWorld, StoreError> {
    let bytes = std::fs::read(path).map_err(|err| StoreError::from_io(path, err))?;
    decode_world(&bytes)
}

/// Encodes `world` and crash-safely writes it to `path`. Returns the
/// artifact's hex content digest.
pub fn write_artifact(path: &Path, world: &CompiledWorld) -> Result<String, StoreError> {
    let bytes = encode_world(world);
    write_atomic(path, &bytes).map_err(|err| StoreError::from_io(path, err))?;
    Ok(encoded_digest(&bytes))
}

/// Integrity-checks the artifact at `path` without requiring the world
/// to be loadable into this process: structural validation, checksums,
/// digest, and full decode — exactly what the loader would trust. The
/// file is read and hashed once.
pub fn verify_artifact(path: &Path) -> Result<ArtifactInfo, StoreError> {
    let bytes = std::fs::read(path).map_err(|err| StoreError::from_io(path, err))?;
    let container = decode_container(&bytes, STORE_SCHEMA_VERSION)?;
    // The semantic decode catches a well-checksummed file whose payload
    // is nonsense.
    let world = world_from_container(&container)?;
    Ok(ArtifactInfo {
        digest: sha256::hex(&container.digest),
        format_version: container.format_version,
        schema_version: container.schema_version,
        epoch: world.epoch,
        sections: container
            .sections
            .iter()
            .map(|s| (s.name.clone(), s.payload.len() as u64))
            .collect(),
        total_len: bytes.len() as u64,
    })
}

// ---------------------------------------------------------------------
// Section payloads (layout table in DESIGN.md §12)
// ---------------------------------------------------------------------

fn encode_meta(world: &CompiledWorld) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    w.str(&world.state.schema);
    w.u64(world.epoch);
    w.into_bytes()
}

fn decode_meta(mut r: ColumnReader<'_>) -> Result<(String, u64), StoreError> {
    let schema = r.str("inner schema")?;
    let epoch = r.u64("epoch")?;
    r.finish()?;
    Ok((schema, epoch))
}

fn encode_slots(slots: &[SlotRecord]) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    w.rows(slots.len());
    w.u32s(slots.iter().map(|s| s.asn));
    w.flags(slots.iter().map(|s| s.live));
    w.into_bytes()
}

fn decode_slots(mut r: ColumnReader<'_>) -> Result<Vec<SlotRecord>, StoreError> {
    let n = r.rows("slot count")?;
    let asns = r.u32s(n, "slot asn")?;
    let live = r.flags(n, "slot live")?;
    r.finish()?;
    Ok(asns
        .into_iter()
        .zip(live)
        .map(|(asn, live)| SlotRecord { asn, live })
        .collect())
}

fn encode_segments(state: &SnapshotState) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    for table in [
        &state.oid_w,
        &state.oid_p,
        &state.na,
        &state.rr,
        &state.favicons,
    ] {
        w.rows(table.len());
        w.strings(table.iter().map(|s| s.key.as_str()));
        w.u64s(table.iter().map(|s| s.fp));
        w.csr_pairs(table.iter().map(|s| s.edges.iter().map(|e| (e.a, e.b))));
    }
    w.into_bytes()
}

fn decode_segments(mut r: ColumnReader<'_>, state: &mut SnapshotState) -> Result<(), StoreError> {
    let mut table = || -> Result<Vec<SegmentRecord>, StoreError> {
        let n = r.rows("segment count")?;
        let keys = r.strings(n, "segment key")?;
        let fps = r.u64s(n, "segment fp")?;
        let edges = r.csr_pairs(n, "segment edges")?;
        Ok(keys
            .into_iter()
            .zip(fps)
            .zip(edges.rows())
            .map(|((key, fp), flat)| SegmentRecord {
                key,
                fp,
                edges: flat
                    .chunks_exact(2)
                    .map(|p| EdgeRecord { a: p[0], b: p[1] })
                    .collect(),
            })
            .collect())
    };
    state.oid_w = table()?;
    state.oid_p = table()?;
    state.na = table()?;
    state.rr = table()?;
    state.favicons = table()?;
    r.finish()
}

fn encode_fingerprints(state: &SnapshotState) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    for table in [
        &state.whois_org_fps,
        &state.whois_aut_fps,
        &state.pdb_org_fps,
        &state.pdb_net_fps,
        &state.site_fps,
    ] {
        w.rows(table.len());
        w.strings(table.iter().map(|k| k.key.as_str()));
        w.u64s(table.iter().map(|k| k.fp));
    }
    w.into_bytes()
}

fn decode_fingerprints(
    mut r: ColumnReader<'_>,
    state: &mut SnapshotState,
) -> Result<(), StoreError> {
    let mut table = || -> Result<Vec<KeyFp>, StoreError> {
        let n = r.rows("fingerprint count")?;
        let keys = r.strings(n, "fingerprint key")?;
        let fps = r.u64s(n, "fingerprint fp")?;
        Ok(keys
            .into_iter()
            .zip(fps)
            .map(|(key, fp)| KeyFp { key, fp })
            .collect())
    };
    state.whois_org_fps = table()?;
    state.whois_aut_fps = table()?;
    state.pdb_org_fps = table()?;
    state.pdb_net_fps = table()?;
    state.site_fps = table()?;
    r.finish()
}

fn encode_memos(state: &SnapshotState) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    let ner = &state.ner_memo;
    w.rows(ner.len());
    w.u32s(ner.iter().map(|m| m.asn));
    w.u64s(ner.iter().map(|m| m.fp));
    w.csr(ner.iter().map(|m| m.findings.as_slice()));
    let favicon = &state.favicon_memo;
    w.rows(favicon.len());
    w.u64s(favicon.iter().map(|m| m.favicon));
    w.u64s(favicon.iter().map(|m| m.fp));
    w.flags(favicon.iter().map(|m| m.named.is_some()));
    w.strings(favicon.iter().map(|m| m.named.as_deref().unwrap_or("")));
    w.into_bytes()
}

fn decode_memos(mut r: ColumnReader<'_>, state: &mut SnapshotState) -> Result<(), StoreError> {
    let n = r.rows("ner memo count")?;
    let asns = r.u32s(n, "ner memo asn")?;
    let fps = r.u64s(n, "ner memo fp")?;
    let findings = r.csr(n, "ner memo findings")?;
    state.ner_memo = asns
        .into_iter()
        .zip(fps)
        .zip(findings.rows())
        .map(|((asn, fp), findings)| NerMemoRecord {
            asn,
            fp,
            findings: findings.to_vec(),
        })
        .collect();

    let n = r.rows("favicon memo count")?;
    let favicons = r.u64s(n, "favicon memo favicon")?;
    let fps = r.u64s(n, "favicon memo fp")?;
    let named = r.flags(n, "favicon memo named tag")?;
    let names = r.strings(n, "favicon memo name")?;
    let mut memo = Vec::with_capacity(n);
    for (row, (((favicon, fp), named), name)) in favicons
        .into_iter()
        .zip(fps)
        .zip(named)
        .zip(names)
        .enumerate()
    {
        // `None` has exactly one encoding: tag 0 and an empty name.
        if !named && !name.is_empty() {
            return Err(r.error(format!(
                "favicon memo row {row}: unnamed row carries a name"
            )));
        }
        memo.push(FaviconMemoRecord {
            favicon,
            fp,
            named: named.then_some(name),
        });
    }
    state.favicon_memo = memo;
    r.finish()
}

fn groups(csr: &Csr) -> Vec<Vec<u32>> {
    csr.rows().map(<[u32]>::to_vec).collect()
}

fn encode_serving(extras: &ServingExtras) -> Vec<u8> {
    let mut w = ColumnWriter::default();
    for table in [&extras.oid_w_groups, &extras.oid_p_groups] {
        w.rows(table.len());
        w.csr(table.iter().map(Vec::as_slice));
    }
    let ner = &extras.ner_entries;
    w.rows(ner.len());
    w.u32s(ner.iter().map(|e| e.asn));
    w.csr(ner.iter().map(|e| e.siblings.as_slice()));
    put_ner_stats(&mut w, &extras.ner_stats);
    let rr = &extras.rr_groups;
    let urls: Vec<String> = rr.iter().map(|g| g.final_url.canonical()).collect();
    w.rows(rr.len());
    w.strings(urls.iter().map(String::as_str));
    w.csr(rr.iter().map(|g| g.members.as_slice()));
    put_rr_stats(&mut w, &extras.rr_stats);
    let favicon = &extras.favicon_groups;
    w.rows(favicon.len());
    w.u64s(favicon.iter().map(|g| g.favicon));
    w.csr(favicon.iter().map(|g| g.members.as_slice()));
    put_favicon_stats(&mut w, &extras.favicon_stats);
    put_scrape_stats(&mut w, &extras.scrape_stats);
    put_cache_stats(&mut w, &extras.web_cache);
    w.into_bytes()
}

fn decode_serving(mut r: ColumnReader<'_>) -> Result<ServingExtras, StoreError> {
    let n = r.rows("oid_w group count")?;
    let oid_w_groups = groups(&r.csr(n, "oid_w group members")?);
    let n = r.rows("oid_p group count")?;
    let oid_p_groups = groups(&r.csr(n, "oid_p group members")?);

    let n = r.rows("ner entry count")?;
    let asns = r.u32s(n, "ner entry asn")?;
    let siblings = r.csr(n, "ner entry siblings")?;
    let ner_entries = asns
        .into_iter()
        .zip(siblings.rows())
        .map(|(asn, siblings)| NerEntryRecord {
            asn,
            siblings: siblings.to_vec(),
        })
        .collect();
    let ner_stats = get_ner_stats(&mut r)?;

    let n = r.rows("rr group count")?;
    let urls = r.strings(n, "rr final url")?;
    let members = r.csr(n, "rr group members")?;
    let mut rr_groups = Vec::with_capacity(n);
    for (row, (text, members)) in urls.into_iter().zip(members.rows()).enumerate() {
        // URLs travel in their canonical string form, which must parse
        // back to a URL rendering the very same string.
        let final_url = text
            .parse::<Url>()
            .ok()
            .filter(|url| url.canonical() == text)
            .ok_or_else(|| r.error(format!("rr group {row}: {text:?} is not a canonical URL")))?;
        rr_groups.push(RrGroupRecord {
            final_url,
            members: members.to_vec(),
        });
    }
    let rr_stats = get_rr_stats(&mut r)?;

    let n = r.rows("favicon group count")?;
    let favicons = r.u64s(n, "favicon group favicon")?;
    let members = r.csr(n, "favicon group members")?;
    let favicon_groups = favicons
        .into_iter()
        .zip(members.rows())
        .map(|(favicon, members)| FaviconGroupRecord {
            favicon,
            members: members.to_vec(),
        })
        .collect();
    let favicon_stats = get_favicon_stats(&mut r)?;
    let scrape_stats = get_scrape_stats(&mut r)?;
    let web_cache = get_cache_stats(&mut r)?;
    r.finish()?;
    Ok(ServingExtras {
        oid_w_groups,
        oid_p_groups,
        ner_entries,
        ner_stats,
        rr_groups,
        rr_stats,
        favicon_groups,
        favicon_stats,
        scrape_stats,
        web_cache,
    })
}

// Funnel counters: one `u64` per field, in declaration order. Encoders
// destructure without `..` and decoders build struct literals, so a
// field added to any record fails to compile here until the layout
// (and `STORE_SCHEMA_VERSION`) is updated.

fn put_usage(w: &mut ColumnWriter, usage: &Usage) {
    let Usage {
        prompt_tokens,
        completion_tokens,
    } = *usage;
    w.u64s([prompt_tokens, completion_tokens]);
}

fn get_usage(r: &mut ColumnReader<'_>) -> Result<Usage, StoreError> {
    Ok(Usage {
        prompt_tokens: r.u64("usage")?,
        completion_tokens: r.u64("usage")?,
    })
}

fn put_resilience(w: &mut ColumnWriter, stats: &ResilienceStatsRecord) {
    let ResilienceStatsRecord {
        calls,
        attempts,
        recovered,
        abandoned,
        breaker_trips,
        breaker_fast_fails,
    } = *stats;
    w.u64s([
        calls,
        attempts,
        recovered,
        abandoned,
        breaker_trips,
        breaker_fast_fails,
    ]);
}

fn get_resilience(r: &mut ColumnReader<'_>) -> Result<ResilienceStatsRecord, StoreError> {
    const WHAT: &str = "resilience stats";
    Ok(ResilienceStatsRecord {
        calls: r.u64(WHAT)?,
        attempts: r.u64(WHAT)?,
        recovered: r.u64(WHAT)?,
        abandoned: r.u64(WHAT)?,
        breaker_trips: r.u64(WHAT)?,
        breaker_fast_fails: r.u64(WHAT)?,
    })
}

fn put_ner_stats(w: &mut ColumnWriter, stats: &NerStatsRecord) {
    let NerStatsRecord {
        entries_total,
        entries_with_text,
        entries_numeric,
        numeric_in_aka,
        numeric_in_notes,
        llm_calls,
        llm_abandoned,
        filtered_out,
        entries_with_siblings,
        extracted_asns,
        usage,
        resilience,
    } = stats;
    w.u64s(
        [
            entries_total,
            entries_with_text,
            entries_numeric,
            numeric_in_aka,
            numeric_in_notes,
            llm_calls,
            llm_abandoned,
            filtered_out,
            entries_with_siblings,
            extracted_asns,
        ]
        .into_iter()
        .map(|&v| v as u64),
    );
    put_usage(w, usage);
    put_resilience(w, resilience);
}

fn get_ner_stats(r: &mut ColumnReader<'_>) -> Result<NerStatsRecord, StoreError> {
    const WHAT: &str = "ner stats";
    Ok(NerStatsRecord {
        entries_total: r.usize(WHAT)?,
        entries_with_text: r.usize(WHAT)?,
        entries_numeric: r.usize(WHAT)?,
        numeric_in_aka: r.usize(WHAT)?,
        numeric_in_notes: r.usize(WHAT)?,
        llm_calls: r.usize(WHAT)?,
        llm_abandoned: r.usize(WHAT)?,
        filtered_out: r.usize(WHAT)?,
        entries_with_siblings: r.usize(WHAT)?,
        extracted_asns: r.usize(WHAT)?,
        usage: get_usage(r)?,
        resilience: get_resilience(r)?,
    })
}

fn put_rr_stats(w: &mut ColumnWriter, stats: &RrStatsRecord) {
    let RrStatsRecord {
        networks_with_final_url,
        blocked_networks,
        distinct_final_urls,
        shared_final_urls,
    } = *stats;
    w.u64s(
        [
            networks_with_final_url,
            blocked_networks,
            distinct_final_urls,
            shared_final_urls,
        ]
        .into_iter()
        .map(|v| v as u64),
    );
}

fn get_rr_stats(r: &mut ColumnReader<'_>) -> Result<RrStatsRecord, StoreError> {
    const WHAT: &str = "rr stats";
    Ok(RrStatsRecord {
        networks_with_final_url: r.usize(WHAT)?,
        blocked_networks: r.usize(WHAT)?,
        distinct_final_urls: r.usize(WHAT)?,
        shared_final_urls: r.usize(WHAT)?,
    })
}

fn put_favicon_stats(w: &mut ColumnWriter, stats: &FaviconStatsRecord) {
    let FaviconStatsRecord {
        favicons_total,
        favicons_shared,
        urls_in_shared,
        same_label_groups,
        merged_by_step1,
        llm_calls,
        llm_abandoned,
        merged_by_llm,
        framework_rejections,
        dont_know,
        usage,
        resilience,
    } = stats;
    w.u64s(
        [
            favicons_total,
            favicons_shared,
            urls_in_shared,
            same_label_groups,
            merged_by_step1,
            llm_calls,
            llm_abandoned,
            merged_by_llm,
            framework_rejections,
            dont_know,
        ]
        .into_iter()
        .map(|&v| v as u64),
    );
    put_usage(w, usage);
    put_resilience(w, resilience);
}

fn get_favicon_stats(r: &mut ColumnReader<'_>) -> Result<FaviconStatsRecord, StoreError> {
    const WHAT: &str = "favicon stats";
    Ok(FaviconStatsRecord {
        favicons_total: r.usize(WHAT)?,
        favicons_shared: r.usize(WHAT)?,
        urls_in_shared: r.usize(WHAT)?,
        same_label_groups: r.usize(WHAT)?,
        merged_by_step1: r.usize(WHAT)?,
        llm_calls: r.usize(WHAT)?,
        llm_abandoned: r.usize(WHAT)?,
        merged_by_llm: r.usize(WHAT)?,
        framework_rejections: r.usize(WHAT)?,
        dont_know: r.usize(WHAT)?,
        usage: get_usage(r)?,
        resilience: get_resilience(r)?,
    })
}

fn put_scrape_stats(w: &mut ColumnWriter, stats: &ScrapeStatsRecord) {
    let ScrapeStatsRecord {
        entries_with_website,
        entries_with_invalid_url,
        entries_abandoned,
        unique_urls,
        reachable_urls,
        unique_final_urls,
        final_urls_with_favicon,
        unique_favicons,
        resilience,
    } = stats;
    w.u64s(
        [
            entries_with_website,
            entries_with_invalid_url,
            entries_abandoned,
            unique_urls,
            reachable_urls,
            unique_final_urls,
            final_urls_with_favicon,
            unique_favicons,
        ]
        .into_iter()
        .map(|&v| v as u64),
    );
    put_resilience(w, resilience);
}

fn get_scrape_stats(r: &mut ColumnReader<'_>) -> Result<ScrapeStatsRecord, StoreError> {
    const WHAT: &str = "scrape stats";
    Ok(ScrapeStatsRecord {
        entries_with_website: r.usize(WHAT)?,
        entries_with_invalid_url: r.usize(WHAT)?,
        entries_abandoned: r.usize(WHAT)?,
        unique_urls: r.usize(WHAT)?,
        reachable_urls: r.usize(WHAT)?,
        unique_final_urls: r.usize(WHAT)?,
        final_urls_with_favicon: r.usize(WHAT)?,
        unique_favicons: r.usize(WHAT)?,
        resilience: get_resilience(r)?,
    })
}

fn put_cache_stats(w: &mut ColumnWriter, stats: &CacheStats) {
    let CacheStats {
        hits,
        misses,
        evictions,
        entries,
    } = *stats;
    w.u64s([hits, misses, evictions, entries]);
}

fn get_cache_stats(r: &mut ColumnReader<'_>) -> Result<CacheStats, StoreError> {
    const WHAT: &str = "web cache stats";
    Ok(CacheStats {
        hits: r.u64(WHAT)?,
        misses: r.u64(WHAT)?,
        evictions: r.u64(WHAT)?,
        entries: r.u64(WHAT)?,
    })
}
