//! Incremental snapshot re-mapping (DESIGN.md §9).
//!
//! Borges runs against periodic WHOIS/PeeringDB snapshots, and between
//! consecutive snapshots only a small fraction of records change. This
//! module holds everything the incremental path needs to avoid paying
//! the full compilation cost at snapshot T+1:
//!
//! * **Record fingerprints** ([`SourceFingerprints`]) — one 64-bit
//!   FNV-1a hash per source record (WHOIS org/aut, PeeringDB org/net,
//!   crawled site), captured at every run and persisted with the state.
//! * **Delta taxonomy** ([`SnapshotDelta`]) — comparing stored against
//!   fresh fingerprints classifies every record as unchanged / added /
//!   removed / modified, per source.
//! * **Edge segments** ([`EdgeSegment`]) — the compiled dense edge
//!   lists, partitioned by the source key that derived them (WHOIS org
//!   handle, PeeringDB org id, NER subject, final URL, favicon hash).
//!   [`merge_feature`] replays only the segments whose member
//!   fingerprint changed and retains the rest verbatim — the per-feature
//!   union-find replay the tentpole asks for.
//! * **Persisted state** ([`SnapshotState`]) — the wire form of the
//!   compiled evidence (interner slots, segments, fingerprints, and the
//!   LLM reply memos). It persists only inside a store artifact
//!   (`CompiledWorld::state`): `map --store-out` writes it and
//!   `remap --base` reloads it.
//!
//! Fingerprints are the shared 64-bit FNV-1a of [`borges_types::hash`]:
//! fast, dependency-free, and collision-safe at the paper's scale. The
//! threat model is accidental collision between honest records, not
//! adversarial preimages. `std::hash` is deliberately not used — its
//! output is unstable across releases, and these hashes persist.

use crate::ner::{NerMemoEntry, NerResult};
use crate::orgkeys;
use crate::web::favicon::{FaviconInference, FaviconMemo};
use crate::web::rr::RrInference;
use borges_peeringdb::{PdbNetwork, PdbOrganization, PdbSnapshot};
use borges_types::hash::{fnv1a_extend, FNV1A_OFFSET};
use borges_types::{Asn, AsnInterner, FaviconHash, WhoisOrgId};
use borges_websim::{ScrapeReport, ScrapedSite};
use borges_whois::{AutNum, WhoisOrg, WhoisRegistry};
use std::borrow::Borrow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::str::FromStr;

/// An incremental FNV-1a (64-bit) fingerprint builder with
/// length-prefixed field framing, so `("ab", "c")` and `("a", "bc")`
/// hash differently.
#[derive(Debug, Clone)]
pub struct Fingerprinter(u64);

impl Fingerprinter {
    /// A fresh fingerprint at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprinter(FNV1A_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    /// Mixes in a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

/// Fingerprint of a WHOIS organization record.
pub fn whois_org_fp(org: &WhoisOrg) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(org.name.as_str());
    fp.str(&org.country.to_string());
    fp.str(org.source.as_str());
    fp.u64(u64::from(org.changed));
    fp.finish()
}

/// Fingerprint of a WHOIS aut-num record (covers its org link, so a
/// reassignment dirties the record even when nothing else moved).
pub fn whois_aut_fp(aut: &AutNum) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&aut.name);
    fp.str(aut.org.as_str());
    fp.str(aut.source.as_str());
    fp.u64(u64::from(aut.changed));
    fp.finish()
}

/// Fingerprint of a PeeringDB organization record.
pub fn pdb_org_fp(org: &PdbOrganization) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&org.name);
    fp.str(&org.website);
    fp.str(&org.country);
    fp.finish()
}

/// Fingerprint of a PeeringDB network record (covers everything the
/// pipeline reads: org link, free text, website).
pub fn pdb_net_fp(net: &PdbNetwork) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.u64(net.id);
    fp.u64(net.org_id.value());
    fp.str(&net.name);
    fp.str(&net.aka);
    fp.str(&net.notes);
    fp.str(&net.website);
    fp.finish()
}

/// Fingerprint of a crawled site result (requested URL, final URL,
/// favicon — the three observations the web features consume).
pub fn site_fp(site: &ScrapedSite) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(&site.requested.canonical());
    match &site.final_url {
        Some(url) => {
            fp.u64(1);
            fp.str(&url.canonical());
        }
        None => fp.u64(0),
    }
    match site.favicon {
        Some(h) => {
            fp.u64(1);
            fp.u64(h.raw());
        }
        None => fp.u64(0),
    }
    fp.finish()
}

/// Fingerprint of the NER-relevant text of a PeeringDB entry — the memo
/// key guard for reusing an LLM extraction reply.
pub fn ner_text_fp(notes: &str, aka: &str) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.str(notes);
    fp.str(aka);
    fp.finish()
}

/// Fingerprint of a favicon group's step-2 classifier input (the
/// ordered canonical URL list) — the memo guard for reusing a
/// classification reply.
pub fn favicon_urls_fp(urls: &[String]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.u64(urls.len() as u64);
    for url in urls {
        fp.str(url);
    }
    fp.finish()
}

/// Per-record fingerprints of the three input worlds, captured at every
/// pipeline run and persisted with the compiled state. Comparing two
/// captures yields the [`SnapshotDelta`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceFingerprints {
    /// WHOIS organization records, by org handle.
    pub whois_org: BTreeMap<WhoisOrgId, u64>,
    /// WHOIS aut-num records, by ASN.
    pub whois_aut: BTreeMap<Asn, u64>,
    /// PeeringDB organization records, by org id.
    pub pdb_org: BTreeMap<u64, u64>,
    /// PeeringDB network records, by ASN.
    pub pdb_net: BTreeMap<Asn, u64>,
    /// Crawled site results, by ASN.
    pub site: BTreeMap<Asn, u64>,
}

impl SourceFingerprints {
    /// Fingerprints every record of the three inputs.
    pub fn capture(whois: &WhoisRegistry, pdb: &PdbSnapshot, report: &ScrapeReport) -> Self {
        SourceFingerprints {
            whois_org: whois
                .orgs()
                .map(|o| (o.id.clone(), whois_org_fp(o)))
                .collect(),
            whois_aut: whois.aut_nums().map(|a| (a.asn, whois_aut_fp(a))).collect(),
            pdb_org: pdb.orgs().map(|o| (o.id.value(), pdb_org_fp(o))).collect(),
            pdb_net: pdb.nets().map(|n| (n.asn, pdb_net_fp(n))).collect(),
            site: report
                .sites
                .iter()
                .map(|(&asn, site)| (asn, site_fp(site)))
                .collect(),
        }
    }
}

/// How one source's records moved between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceDelta {
    /// Records present in both snapshots with identical fingerprints.
    pub unchanged: usize,
    /// Records present only in the later snapshot.
    pub added: usize,
    /// Records present only in the earlier snapshot.
    pub removed: usize,
    /// Records present in both with differing fingerprints.
    pub modified: usize,
}

impl SourceDelta {
    /// Classifies one source's records by a merge-join of the earlier
    /// and later `(key, fingerprint)` sequences. Both must be strictly
    /// ascending by key, as every capture and every validated stored
    /// state is.
    fn compute<K: Ord, F: Borrow<u64>>(
        old: impl IntoIterator<Item = (K, F)>,
        new: impl IntoIterator<Item = (K, F)>,
    ) -> Self {
        let mut delta = SourceDelta::default();
        let mut old = old.into_iter().peekable();
        for (key, fp) in new {
            while old.next_if(|(k, _)| *k < key).is_some() {
                delta.removed += 1;
            }
            match old.next_if(|(k, _)| *k == key) {
                Some((_, old_fp)) if old_fp.borrow() == fp.borrow() => delta.unchanged += 1,
                Some(_) => delta.modified += 1,
                None => delta.added += 1,
            }
        }
        delta.removed += old.count();
        delta
    }

    /// Records whose evidence must be re-derived.
    pub fn dirty(&self) -> usize {
        self.added + self.removed + self.modified
    }

    /// All records of the later snapshot plus the removed ones.
    pub fn total(&self) -> usize {
        self.unchanged + self.added + self.removed + self.modified
    }
}

/// The record-level difference between two snapshots: one
/// [`SourceDelta`] per input source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// WHOIS organization records.
    pub whois_org: SourceDelta,
    /// WHOIS aut-num records.
    pub whois_aut: SourceDelta,
    /// PeeringDB organization records.
    pub pdb_org: SourceDelta,
    /// PeeringDB network records.
    pub pdb_net: SourceDelta,
    /// Crawled site results.
    pub site: SourceDelta,
}

/// A WHOIS org handle as stored, ordered by its canonical form — what
/// `WhoisOrgId::new` makes of it — without allocating that form.
#[derive(Debug, Clone, Copy)]
struct HandleKey<'a>(&'a str);

impl HandleKey<'_> {
    fn canonical(&self) -> impl Iterator<Item = u8> + '_ {
        self.0.trim().bytes().map(|b| b.to_ascii_uppercase())
    }
}

impl Ord for HandleKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical().cmp(other.canonical())
    }
}

impl PartialOrd for HandleKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HandleKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HandleKey<'_> {}

impl SnapshotDelta {
    /// Classifies every record by comparing the fingerprints stored in
    /// snapshot T's state against fresh (snapshot T+1) ones: a
    /// merge-join over the stored records, which a validated state
    /// holds strictly ascending by key ([`SnapshotState::validate`]).
    pub fn compute(old: &SnapshotState, new: &SourceFingerprints) -> Self {
        // A key that does not parse at the source's key width names no
        // record (the typed accessor drops it too).
        fn numeric<N: FromStr>(records: &[KeyFp]) -> impl Iterator<Item = (N, u64)> + '_ {
            records
                .iter()
                .filter_map(|rec| Some((rec.key.parse().ok()?, rec.fp)))
        }
        fn by_asn(map: &BTreeMap<Asn, u64>) -> impl Iterator<Item = (u32, u64)> + '_ {
            map.iter().map(|(asn, &fp)| (asn.value(), fp))
        }
        SnapshotDelta {
            whois_org: SourceDelta::compute(
                old.whois_org_fps
                    .iter()
                    .map(|rec| (HandleKey(&rec.key), rec.fp)),
                new.whois_org
                    .iter()
                    .map(|(org, &fp)| (HandleKey(org.as_str()), fp)),
            ),
            whois_aut: SourceDelta::compute(numeric(&old.whois_aut_fps), by_asn(&new.whois_aut)),
            pdb_org: SourceDelta::compute(
                numeric(&old.pdb_org_fps),
                new.pdb_org.iter().map(|(&org, &fp)| (org, fp)),
            ),
            pdb_net: SourceDelta::compute(numeric(&old.pdb_net_fps), by_asn(&new.pdb_net)),
            site: SourceDelta::compute(numeric(&old.site_fps), by_asn(&new.site)),
        }
    }

    /// Total dirty records across all sources.
    pub fn dirty(&self) -> usize {
        self.whois_org.dirty()
            + self.whois_aut.dirty()
            + self.pdb_org.dirty()
            + self.pdb_net.dirty()
            + self.site.dirty()
    }

    /// The five `(source, delta)` rows in fixed order, for reporting.
    pub fn rows(&self) -> [(&'static str, SourceDelta); 5] {
        [
            ("whois_org", self.whois_org),
            ("whois_aut", self.whois_aut),
            ("pdb_org", self.pdb_org),
            ("pdb_net", self.pdb_net),
            ("site", self.site),
        ]
    }
}

/// One compiled edge segment: the dense edges a single source key (a
/// WHOIS org, a PeeringDB org, an NER subject, a final URL, a favicon)
/// derived, plus the fingerprint of the in-universe member partition
/// that derived them. When key and fingerprint both match across
/// snapshots, the segment's edges are reused verbatim — surviving ASNs
/// keep their dense ids, so the pairs are still correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSegment<K> {
    /// The source key that derived this segment.
    pub key: K,
    /// Fingerprint of the universe-filtered member partition.
    pub fp: u64,
    /// Dense-id edges (a spanning chain per group).
    pub edges: Vec<(u32, u32)>,
}

/// Fingerprint of a key's group partition, restricted to in-universe
/// members. Membership filtering is part of the fingerprint on purpose:
/// an ASN entering or leaving the universe changes the derived edges
/// even when the source record text did not move.
pub fn group_fp(interner: &AsnInterner, groups: &[Vec<Asn>]) -> u64 {
    let mut fp = Fingerprinter::new();
    for group in groups {
        let members: Vec<u64> = group
            .iter()
            .filter(|&&asn| interner.contains(asn))
            .map(|&asn| u64::from(asn.value()))
            .collect();
        fp.u64(members.len() as u64);
        for m in members {
            fp.u64(m);
        }
    }
    fp.finish()
}

/// Compiles a key's groups to dense-id edges: each group's in-universe
/// members are chained pairwise, in group order — `k` members give
/// `k - 1` edges, a spanning chain whose replay into a
/// [`crate::unionfind::DenseUnionFind`] joins the whole group. Members
/// outside the interner's live universe get no id and are skipped.
pub fn chain_edges(interner: &AsnInterner, groups: &[Vec<Asn>]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for group in groups {
        ids.clear();
        ids.extend(group.iter().filter_map(|&asn| interner.id(asn)));
        out.extend(ids.windows(2).map(|pair| (pair[0], pair[1])));
    }
    out
}

/// Retained/re-derived accounting for one feature's segment merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentDelta {
    /// Segments whose fingerprint matched: edges reused verbatim.
    pub segments_retained: usize,
    /// Segments re-derived (new key, or fingerprint moved).
    pub segments_rederived: usize,
    /// Edges carried over from retained segments.
    pub edges_retained: usize,
    /// Edges freshly derived.
    pub edges_rederived: usize,
}

/// Merges one feature's segments across snapshots: for every fresh key,
/// reuse the prior segment when its member fingerprint is unchanged,
/// otherwise re-derive the edges over the current interner. Keys absent
/// from `fresh` simply drop out. Passing an empty `prior` is the full
/// (non-incremental) compile — every segment derives fresh — which
/// keeps the two paths on one code path and makes the byte-identity
/// keystone structural. Only a retained segment's stored edges are
/// converted to the live form.
pub fn merge_feature<K: SegmentKey>(
    interner: &AsnInterner,
    prior: &PriorSegments<'_, K>,
    fresh: Vec<(K, Vec<Vec<Asn>>)>,
) -> (Vec<EdgeSegment<K>>, SegmentDelta) {
    let mut segments = Vec::with_capacity(fresh.len());
    let mut delta = SegmentDelta::default();
    for (key, groups) in fresh {
        let fp = group_fp(interner, &groups);
        match prior.get(&key) {
            Some(rec) if rec.fp == fp => {
                delta.segments_retained += 1;
                delta.edges_retained += rec.edges.len();
                let edges = rec.edges.iter().map(|e| (e.a, e.b)).collect();
                segments.push(EdgeSegment { key, fp, edges });
            }
            _ => {
                let edges = chain_edges(interner, &groups);
                delta.segments_rederived += 1;
                delta.edges_rederived += edges.len();
                segments.push(EdgeSegment { key, fp, edges });
            }
        }
    }
    (segments, delta)
}

/// A segment source key, as the persisted state spells it: WHOIS org
/// handles and final URLs verbatim, PeeringDB org ids, NER subjects and
/// favicon hashes as decimals.
pub trait SegmentKey: Sized {
    /// A stored record's key read back, borrowing its text where the
    /// key is textual.
    type Stored<'a>: Ord;
    /// Reads a stored key; `None` when it does not parse.
    fn parse(key: &str) -> Option<Self::Stored<'_>>;
    /// Orders this live key against a stored one.
    fn cmp_stored(&self, stored: &Self::Stored<'_>) -> Ordering;
}

impl SegmentKey for String {
    type Stored<'a> = &'a str;
    fn parse(key: &str) -> Option<&str> {
        Some(key)
    }
    fn cmp_stored(&self, stored: &&str) -> Ordering {
        self.as_str().cmp(stored)
    }
}

macro_rules! numeric_segment_key {
    ($($t:ty),*) => {$(
        impl SegmentKey for $t {
            type Stored<'a> = $t;
            fn parse(key: &str) -> Option<$t> {
                key.parse().ok()
            }
            fn cmp_stored(&self, stored: &$t) -> Ordering {
                self.cmp(stored)
            }
        }
    )*};
}
numeric_segment_key!(u32, u64);

/// One feature's prior segments, borrowed from a stored
/// [`SnapshotState`] and sorted by key: nothing is cloned until
/// [`merge_feature`] retains a segment. Among records sharing a key the
/// last one stored wins, as a keyed-map rebuild would have it.
pub struct PriorSegments<'a, K: SegmentKey> {
    by_key: Vec<(K::Stored<'a>, &'a SegmentRecord)>,
    /// How many entries sort at or before the last key looked up.
    cursor: Cell<usize>,
}

impl<'a, K: SegmentKey> PriorSegments<'a, K> {
    /// Indexes `records`; records whose key does not parse are skipped.
    pub fn new(records: &'a [SegmentRecord]) -> Self {
        let mut by_key: Vec<_> = records
            .iter()
            .filter_map(|rec| Some((K::parse(&rec.key)?, rec)))
            .collect();
        // Stable, so duplicates stay in stored order and `get` finds the
        // last of them.
        by_key.sort_by(|x, y| x.0.cmp(&y.0));
        PriorSegments {
            by_key,
            cursor: Cell::new(0),
        }
    }

    /// The stored segment under `key`. Fresh keys arrive ascending, so
    /// each lookup walks on from where the last one stopped — a
    /// merge-join over the two key sequences; a key below the cursor
    /// falls back to a binary search.
    pub fn get(&self, key: &K) -> Option<&'a SegmentRecord> {
        let at_or_before =
            |(stored, _): &(K::Stored<'a>, _)| key.cmp_stored(stored) != Ordering::Less;
        let mut end = self.cursor.get();
        if end > 0 && !at_or_before(&self.by_key[end - 1]) {
            end = self.by_key.partition_point(at_or_before);
        } else {
            while self.by_key.get(end).is_some_and(at_or_before) {
                end += 1;
            }
        }
        self.cursor.set(end);
        let (stored, rec) = self.by_key.get(end.checked_sub(1)?)?;
        (key.cmp_stored(stored) == Ordering::Equal).then_some(*rec)
    }
}

impl<K: SegmentKey> Default for PriorSegments<'_, K> {
    fn default() -> Self {
        PriorSegments {
            by_key: Vec::new(),
            cursor: Cell::new(0),
        }
    }
}

#[cfg(test)]
impl std::ops::Index<&str> for PriorSegments<'_, String> {
    type Output = SegmentRecord;

    fn index(&self, key: &str) -> &SegmentRecord {
        self.get(&key.to_string())
            .unwrap_or_else(|| panic!("no prior segment under {key:?}"))
    }
}

/// Everything an incremental [`Borges::build`](crate::pipeline::Borges::build)
/// knows about the work it avoided — record churn, interner evolution,
/// per-feature segment reuse, and LLM reply memoization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Record-level classification per source.
    pub records: SnapshotDelta,
    /// ASNs present in both universes (ids kept stable).
    pub asns_retained: usize,
    /// ASNs new to the universe (fresh or resurrected ids).
    pub asns_added: usize,
    /// ASNs that left the universe (slots tombstoned).
    pub asns_retired: usize,
    /// OID_W segment reuse.
    pub oid_w: SegmentDelta,
    /// OID_P segment reuse.
    pub oid_p: SegmentDelta,
    /// notes/aka segment reuse.
    pub na: SegmentDelta,
    /// R&R segment reuse.
    pub rr: SegmentDelta,
    /// Favicon segment reuse.
    pub favicons: SegmentDelta,
    /// NER LLM replies reused from the memo.
    pub ner_reused: usize,
    /// NER LLM calls actually issued.
    pub ner_recomputed: usize,
    /// Favicon classifier replies reused from the memo.
    pub favicon_reused: usize,
    /// Favicon classifier calls actually issued.
    pub favicon_recomputed: usize,
}

impl DeltaStats {
    /// LLM calls the memos saved — the dominant cost of a full run.
    pub fn llm_calls_saved(&self) -> usize {
        self.ner_reused + self.favicon_reused
    }

    /// The five `(feature, delta)` edge rows in fixed order.
    pub fn edge_rows(&self) -> [(&'static str, SegmentDelta); 5] {
        [
            ("oid_w", self.oid_w),
            ("oid_p", self.oid_p),
            ("na", self.na),
            ("rr", self.rr),
            ("favicons", self.favicons),
        ]
    }
}

// ---------------------------------------------------------------------
// Persisted state (wire form)
// ---------------------------------------------------------------------

/// Schema tag stamped into every persisted state; bump on breaking
/// shape changes.
pub const SNAPSHOT_STATE_SCHEMA: &str = "borges.snapshot_state.v1";

/// One interner slot: the ASN and whether it is live (tombstones are
/// persisted too — they hold dense ids that must not be reassigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// The ASN occupying the slot.
    pub asn: u32,
    /// Whether the slot is live in the universe.
    pub live: bool,
}

/// One dense edge on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// First endpoint (dense id).
    pub a: u32,
    /// Second endpoint (dense id).
    pub b: u32,
}

#[cfg(test)]
impl PartialEq<(u32, u32)> for EdgeRecord {
    fn eq(&self, &(a, b): &(u32, u32)) -> bool {
        self.a == a && self.b == b
    }
}

/// One edge segment on the wire. Non-string keys (PeeringDB org ids,
/// NER subject ASNs, favicon hashes) are stringified decimals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecord {
    /// The segment's source key.
    pub key: String,
    /// The member-partition fingerprint.
    pub fp: u64,
    /// The compiled dense edges.
    pub edges: Vec<EdgeRecord>,
}

/// One `(key, fingerprint)` pair of a source's record map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyFp {
    /// The record key (stringified when not naturally a string).
    pub key: String,
    /// The record fingerprint.
    pub fp: u64,
}

/// One memoized NER reply: the subject, the guard fingerprint of its
/// `notes`/`aka` text, and the parsed (pre-filter) finding ASNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NerMemoRecord {
    /// The subject ASN.
    pub asn: u32,
    /// Fingerprint of `(notes, aka)` at reply time.
    pub fp: u64,
    /// Parsed finding ASNs, before the output filter.
    pub findings: Vec<u32>,
}

/// One memoized favicon classifier reply: the favicon, the guard
/// fingerprint of the URL list sent, and the parsed verdict
/// (`named: None` is "I don't know").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaviconMemoRecord {
    /// The favicon's raw 64-bit hash.
    pub favicon: u64,
    /// Fingerprint of the ordered URL list at reply time.
    pub fp: u64,
    /// The name the model replied, or `None` for "I don't know".
    pub named: Option<String>,
}

/// The persisted compiled state of one Borges run: interner slots,
/// per-feature edge segments, per-record source fingerprints, and the
/// LLM reply memos. Persisted as the `state` of a store artifact's
/// compiled world, reloaded by `remap --base`. The OID_W base closure is *not* persisted —
/// it is rebuilt from the OID_W segment edges on load, which is cheap
/// and sidesteps the fact that a union-find cannot un-union a retired
/// bridge ASN.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotState {
    /// Schema tag ([`SNAPSHOT_STATE_SCHEMA`]).
    pub schema: String,
    /// Interner slots in dense-id order (tombstones included).
    pub slots: Vec<SlotRecord>,
    /// OID_W segments, keyed by WHOIS org handle.
    pub oid_w: Vec<SegmentRecord>,
    /// OID_P segments, keyed by PeeringDB org id.
    pub oid_p: Vec<SegmentRecord>,
    /// notes/aka segments, keyed by subject ASN.
    pub na: Vec<SegmentRecord>,
    /// R&R segments, keyed by canonical final URL.
    pub rr: Vec<SegmentRecord>,
    /// Favicon segments, keyed by favicon hash.
    pub favicons: Vec<SegmentRecord>,
    /// WHOIS org fingerprints.
    pub whois_org_fps: Vec<KeyFp>,
    /// WHOIS aut-num fingerprints.
    pub whois_aut_fps: Vec<KeyFp>,
    /// PeeringDB org fingerprints.
    pub pdb_org_fps: Vec<KeyFp>,
    /// PeeringDB network fingerprints.
    pub pdb_net_fps: Vec<KeyFp>,
    /// Crawled site fingerprints.
    pub site_fps: Vec<KeyFp>,
    /// Memoized NER replies.
    pub ner_memo: Vec<NerMemoRecord>,
    /// Memoized favicon classifier replies.
    pub favicon_memo: Vec<FaviconMemoRecord>,
}

fn segment_records<K: ToString>(segments: &[EdgeSegment<K>]) -> Vec<SegmentRecord> {
    segments
        .iter()
        .map(|seg| SegmentRecord {
            key: seg.key.to_string(),
            fp: seg.fp,
            edges: seg
                .edges
                .iter()
                .map(|&(a, b)| EdgeRecord { a, b })
                .collect(),
        })
        .collect()
}

fn key_fps<K: ToString>(map: &BTreeMap<K, u64>) -> Vec<KeyFp> {
    map.iter()
        .map(|(key, &fp)| KeyFp {
            key: key.to_string(),
            fp,
        })
        .collect()
}

fn fp_map<K: Ord>(records: &[KeyFp], parse: impl Fn(&str) -> Option<K>) -> BTreeMap<K, u64> {
    records
        .iter()
        .filter_map(|rec| Some((parse(&rec.key)?, rec.fp)))
        .collect()
}

impl SnapshotState {
    /// Assembles the wire form from the live pieces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        interner: &AsnInterner,
        oid_w: &[EdgeSegment<String>],
        oid_p: &[EdgeSegment<u64>],
        na: &[EdgeSegment<u32>],
        rr: &[EdgeSegment<String>],
        favicons: &[EdgeSegment<u64>],
        fps: &SourceFingerprints,
        ner: &NerResult,
        favicon: &FaviconInference,
    ) -> Self {
        SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            slots: interner
                .slots()
                .map(|(asn, live)| SlotRecord {
                    asn: asn.value(),
                    live,
                })
                .collect(),
            oid_w: segment_records(oid_w),
            oid_p: segment_records(oid_p),
            na: segment_records(na),
            rr: segment_records(rr),
            favicons: segment_records(favicons),
            whois_org_fps: key_fps(&fps.whois_org),
            whois_aut_fps: fps
                .whois_aut
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            pdb_org_fps: key_fps(&fps.pdb_org),
            pdb_net_fps: fps
                .pdb_net
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            site_fps: fps
                .site
                .iter()
                .map(|(asn, &fp)| KeyFp {
                    key: asn.value().to_string(),
                    fp,
                })
                .collect(),
            ner_memo: ner
                .memo
                .iter()
                .map(|(asn, entry)| NerMemoRecord {
                    asn: asn.value(),
                    fp: entry.fp,
                    findings: entry.findings.iter().map(|a| a.value()).collect(),
                })
                .collect(),
            favicon_memo: favicon
                .memo
                .iter()
                .map(|(hash, memo)| FaviconMemoRecord {
                    favicon: hash.raw(),
                    fp: memo.fp,
                    named: memo.named.clone(),
                })
                .collect(),
        }
    }

    /// The structural invariants every persisted state must satisfy
    /// before any typed accessor is trusted: the schema tag matches,
    /// every numeric segment key parses back (notes/aka subjects as
    /// `u32` ASNs), and every source's fingerprint records are strictly
    /// ascending by key — WHOIS handles in their canonical form, the
    /// rest as numbers — which is the order a capture writes them in
    /// and the order [`SnapshotDelta::compute`]'s merge-join relies on.
    /// The binary store's decoder runs it on every loaded world.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SNAPSHOT_STATE_SCHEMA {
            return Err(format!(
                "snapshot state schema mismatch: found {:?}, expected {:?}",
                self.schema, SNAPSHOT_STATE_SCHEMA
            ));
        }
        fn numeric<N: FromStr>(records: &[SegmentRecord], what: &str) -> Result<(), String> {
            match records.iter().find(|rec| rec.key.parse::<N>().is_err()) {
                Some(rec) => Err(format!(
                    "non-numeric or out-of-range {what} segment key {:?}",
                    rec.key
                )),
                None => Ok(()),
            }
        }
        numeric::<u64>(&self.oid_p, "oid_p")?;
        numeric::<u32>(&self.na, "na")?;
        numeric::<u64>(&self.favicons, "favicons")?;
        fn ascending<'a, K: Ord>(
            records: &'a [KeyFp],
            what: &str,
            parse: impl Fn(&'a str) -> Option<K>,
        ) -> Result<(), String> {
            let mut prev: Option<K> = None;
            for rec in records {
                let key = parse(&rec.key)
                    .ok_or_else(|| format!("malformed {what} fingerprint key {:?}", rec.key))?;
                if prev.as_ref().is_some_and(|prev| *prev >= key) {
                    return Err(format!(
                        "{what} fingerprint key {:?} is out of order or duplicated",
                        rec.key
                    ));
                }
                prev = Some(key);
            }
            Ok(())
        }
        ascending(&self.whois_org_fps, "whois_org", |k| Some(HandleKey(k)))?;
        for (what, records) in [
            ("whois_aut", &self.whois_aut_fps),
            ("pdb_org", &self.pdb_org_fps),
            ("pdb_net", &self.pdb_net_fps),
            ("site", &self.site_fps),
        ] {
            ascending(records, what, |k| k.parse::<u64>().ok())?;
        }
        Ok(())
    }

    /// The interner slots as typed pairs, in dense-id order.
    pub fn slot_pairs(&self) -> impl Iterator<Item = (Asn, bool)> + '_ {
        self.slots.iter().map(|s| (Asn::new(s.asn), s.live))
    }

    /// Prior OID_W segments, keyed by WHOIS org handle.
    pub fn prior_oid_w(&self) -> PriorSegments<'_, String> {
        PriorSegments::new(&self.oid_w)
    }

    /// Prior OID_P segments, keyed by PeeringDB org id.
    pub fn prior_oid_p(&self) -> PriorSegments<'_, u64> {
        PriorSegments::new(&self.oid_p)
    }

    /// Prior notes/aka segments, keyed by subject ASN.
    pub fn prior_na(&self) -> PriorSegments<'_, u32> {
        PriorSegments::new(&self.na)
    }

    /// Prior R&R segments, keyed by canonical final URL.
    pub fn prior_rr(&self) -> PriorSegments<'_, String> {
        PriorSegments::new(&self.rr)
    }

    /// Prior favicon segments, keyed by favicon hash.
    pub fn prior_favicons(&self) -> PriorSegments<'_, u64> {
        PriorSegments::new(&self.favicons)
    }

    /// The stored source fingerprints, typed.
    pub fn fingerprints(&self) -> SourceFingerprints {
        SourceFingerprints {
            whois_org: fp_map(&self.whois_org_fps, |k| Some(WhoisOrgId::new(k))),
            whois_aut: fp_map(&self.whois_aut_fps, |k| k.parse().ok().map(Asn::new)),
            pdb_org: fp_map(&self.pdb_org_fps, |k| k.parse().ok()),
            pdb_net: fp_map(&self.pdb_net_fps, |k| k.parse().ok().map(Asn::new)),
            site: fp_map(&self.site_fps, |k| k.parse().ok().map(Asn::new)),
        }
    }

    /// The stored NER reply memo, typed.
    pub fn ner_memo_map(&self) -> BTreeMap<Asn, NerMemoEntry> {
        self.ner_memo
            .iter()
            .map(|rec| {
                (
                    Asn::new(rec.asn),
                    NerMemoEntry {
                        fp: rec.fp,
                        findings: rec.findings.iter().map(|&a| Asn::new(a)).collect(),
                    },
                )
            })
            .collect()
    }

    /// The stored favicon classifier memo, typed.
    pub fn favicon_memo_map(&self) -> BTreeMap<FaviconHash, FaviconMemo> {
        self.favicon_memo
            .iter()
            .map(|rec| {
                (
                    FaviconHash::from_raw(rec.favicon),
                    FaviconMemo {
                        fp: rec.fp,
                        named: rec.named.clone(),
                    },
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Fresh keyed groups (snapshot T+1 evidence, partitioned by source key)
// ---------------------------------------------------------------------

/// OID_W sibling groups keyed by WHOIS org handle, members ascending.
pub fn keyed_whois_groups(whois: &WhoisRegistry) -> Vec<(String, Vec<Vec<Asn>>)> {
    orgkeys::by_whois_org(whois)
        .into_iter()
        .map(|(org, members)| (org.to_string(), vec![members]))
        .collect()
}

/// OID_P sibling groups keyed by PeeringDB org id, members ascending.
pub fn keyed_pdb_groups(pdb: &PdbSnapshot) -> Vec<(u64, Vec<Vec<Asn>>)> {
    orgkeys::by_pdb_org(pdb)
        .into_iter()
        .map(|(org, members)| (org, vec![members]))
        .collect()
}

/// notes/aka sibling groups keyed by subject ASN: each subject chains
/// itself to its extracted siblings (same connectivity and edge count
/// as the star the subject's extraction asserts).
pub fn keyed_ner_groups(ner: &NerResult) -> Vec<(u32, Vec<Vec<Asn>>)> {
    ner.per_entry
        .iter()
        .map(|(&subject, siblings)| {
            let mut members = Vec::with_capacity(siblings.len() + 1);
            members.push(subject);
            members.extend(siblings.iter().copied());
            (subject.value(), vec![members])
        })
        .collect()
}

/// R&R merging groups keyed by canonical final URL (singleton groups
/// carry no merge evidence and are skipped, mirroring
/// [`RrInference::merging_groups`]).
pub fn keyed_rr_groups(rr: &RrInference) -> Vec<(String, Vec<Vec<Asn>>)> {
    rr.groups
        .iter()
        .zip(&rr.final_urls)
        .filter(|(group, _)| group.len() > 1)
        .map(|(group, url)| (url.canonical(), vec![group.clone()]))
        .collect()
}

/// Favicon merge groups keyed by favicon hash. One favicon may derive
/// several groups (step-1 label groups plus a step-2 whole-group
/// merge), so the segment fingerprint covers the *partition*, not just
/// the member multiset.
pub fn keyed_favicon_groups(favicon: &FaviconInference) -> Vec<(u64, Vec<Vec<Asn>>)> {
    debug_assert_eq!(favicon.groups.len(), favicon.group_favicons.len());
    let mut by_favicon: BTreeMap<u64, Vec<Vec<Asn>>> = BTreeMap::new();
    for (group, hash) in favicon.groups.iter().zip(&favicon.group_favicons) {
        by_favicon
            .entry(hash.raw())
            .or_default()
            .push(group.clone());
    }
    by_favicon.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: u32) -> Asn {
        Asn::new(v)
    }

    #[test]
    fn fingerprinter_is_stable_and_framed() {
        let mut x = Fingerprinter::new();
        x.str("ab");
        x.str("c");
        let mut y = Fingerprinter::new();
        y.str("a");
        y.str("bc");
        assert_ne!(
            x.finish(),
            y.finish(),
            "framing must prevent concat collisions"
        );

        let mut z = Fingerprinter::new();
        z.str("ab");
        z.str("c");
        let mut w = Fingerprinter::new();
        w.str("ab");
        w.str("c");
        assert_eq!(z.finish(), w.finish());
    }

    #[test]
    fn source_delta_classifies_all_four_ways() {
        let old: BTreeMap<u32, u64> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        let new: BTreeMap<u32, u64> = [(1, 10), (2, 99), (4, 40)].into_iter().collect();
        let d = SourceDelta::compute(&old, &new);
        assert_eq!(
            d,
            SourceDelta {
                unchanged: 1,
                added: 1,
                removed: 1,
                modified: 1,
            }
        );
        assert_eq!(d.dirty(), 3);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn group_fp_tracks_universe_membership() {
        let interner = AsnInterner::new([a(1), a(2)]);
        let wider = AsnInterner::new([a(1), a(2), a(3)]);
        let groups = vec![vec![a(1), a(2), a(3)]];
        assert_ne!(
            group_fp(&interner, &groups),
            group_fp(&wider, &groups),
            "an ASN entering the universe must dirty the segment"
        );
    }

    #[test]
    fn group_fp_encodes_the_partition() {
        let interner = AsnInterner::new([a(1), a(2)]);
        let merged = vec![vec![a(1), a(2)]];
        let split = vec![vec![a(1)], vec![a(2)]];
        assert_ne!(group_fp(&interner, &merged), group_fp(&interner, &split));
    }

    #[test]
    fn merge_feature_retains_and_rederives() {
        let interner = AsnInterner::new([a(1), a(2), a(3), a(4)]);
        let fresh = vec![
            ("keep".to_string(), vec![vec![a(1), a(2)]]),
            ("moved".to_string(), vec![vec![a(3), a(4)]]),
        ];
        let (full, _) = merge_feature(&interner, &PriorSegments::default(), fresh.clone());
        assert_eq!(full.len(), 2);

        // Second snapshot: "keep" unchanged, "moved" gains a member.
        let mut stored = segment_records(&full);
        // Poison the prior edges of "keep" to prove retention reuses them.
        stored[0].edges = vec![EdgeRecord { a: 0, b: 1 }];
        let prior = PriorSegments::new(&stored);
        let fresh2 = vec![
            ("keep".to_string(), vec![vec![a(1), a(2)]]),
            ("moved".to_string(), vec![vec![a(2), a(3), a(4)]]),
        ];
        let (merged, delta) = merge_feature(&interner, &prior, fresh2);
        assert_eq!(delta.segments_retained, 1);
        assert_eq!(delta.segments_rederived, 1);
        assert_eq!(delta.edges_retained, 1);
        assert_eq!(delta.edges_rederived, 2);
        assert_eq!(merged[0].edges, vec![(0, 1)], "retained verbatim");
        assert_eq!(merged[1].edges, vec![(1, 2), (2, 3)], "re-derived fresh");
    }

    #[test]
    fn prior_segments_find_keys_in_any_order_and_the_last_duplicate() {
        let rec = |key: &str, fp: u64| SegmentRecord {
            key: key.to_string(),
            fp,
            edges: vec![],
        };
        let stored = vec![
            rec("9", 1),
            rec("100", 2),
            rec("9", 3),
            rec("x", 4),
            rec("5", 5),
        ];
        let prior: PriorSegments<'_, u64> = PriorSegments::new(&stored);
        let fp = |key: u64| prior.get(&key).map(|rec| rec.fp);
        // Ascending lookups walk forward; a smaller key searches again.
        assert_eq!(fp(5), Some(5));
        assert_eq!(fp(9), Some(3), "the last record under a key wins");
        assert_eq!(fp(50), None);
        assert_eq!(fp(100), Some(2));
        assert_eq!(fp(101), None);
        assert_eq!(fp(9), Some(3));
        assert_eq!(fp(4), None);
        assert_eq!(fp(5), Some(5));
    }

    #[test]
    fn state_build_round_trips_through_typed_accessors() {
        let interner = {
            let mut i = AsnInterner::new([a(10), a(20)]);
            i.retire(a(20));
            i.append(a(5));
            i
        };
        let oid_w = vec![EdgeSegment {
            key: "ORG-1".to_string(),
            fp: 42,
            edges: vec![(0, 2)],
        }];
        let mut fps = SourceFingerprints::default();
        fps.whois_org.insert(WhoisOrgId::new("ORG-1"), 7);
        fps.whois_aut.insert(a(10), 8);
        let mut ner = NerResult::default();
        ner.memo.insert(
            a(10),
            NerMemoEntry {
                fp: 3,
                findings: vec![a(5)],
            },
        );
        let mut favicon = FaviconInference::default();
        favicon.memo.insert(
            FaviconHash::from_raw(9),
            FaviconMemo {
                fp: 4,
                named: Some("Claro".to_string()),
            },
        );
        let state =
            SnapshotState::build(&interner, &oid_w, &[], &[], &[], &[], &fps, &ner, &favicon);
        state.validate().unwrap();
        let slots: Vec<(Asn, bool)> = state.slot_pairs().collect();
        assert_eq!(slots, vec![(a(10), true), (a(20), false), (a(5), true)]);
        assert_eq!(state.prior_oid_w()["ORG-1"].edges, vec![(0, 2)]);
        assert_eq!(state.fingerprints(), fps);
        assert_eq!(state.ner_memo_map()[&a(10)].findings, vec![a(5)]);
        assert_eq!(
            state.favicon_memo_map()[&FaviconHash::from_raw(9)].named,
            Some("Claro".to_string())
        );
    }

    #[test]
    fn validate_rejects_wrong_schema_and_bad_keys() {
        let bogus = SnapshotState {
            schema: "bogus".to_string(),
            ..SnapshotState::default()
        };
        let err = bogus.validate().unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        let mut state = SnapshotState {
            schema: SNAPSHOT_STATE_SCHEMA.to_string(),
            ..SnapshotState::default()
        };
        state.oid_p.push(SegmentRecord {
            key: "not-a-number".to_string(),
            fp: 0,
            edges: vec![],
        });
        let err = state.validate().unwrap_err();
        assert!(err.contains("non-numeric"), "{err}");
    }

    use proptest::prelude::*;

    /// The record classification as a per-key map walk: every later
    /// key looked up in the earlier map, then every earlier key looked
    /// up in the later one. The oracle the stored-record merge-join is
    /// pinned to.
    fn oracle_source_delta<K: Ord>(old: &BTreeMap<K, u64>, new: &BTreeMap<K, u64>) -> SourceDelta {
        let mut delta = SourceDelta::default();
        for (key, fp) in new {
            match old.get(key) {
                Some(old_fp) if old_fp == fp => delta.unchanged += 1,
                Some(_) => delta.modified += 1,
                None => delta.added += 1,
            }
        }
        delta.removed = old.keys().filter(|k| !new.contains_key(k)).count();
        delta
    }

    fn oracle_snapshot_delta(old: &SourceFingerprints, new: &SourceFingerprints) -> SnapshotDelta {
        SnapshotDelta {
            whois_org: oracle_source_delta(&old.whois_org, &new.whois_org),
            whois_aut: oracle_source_delta(&old.whois_aut, &new.whois_aut),
            pdb_org: oracle_source_delta(&old.pdb_org, &new.pdb_org),
            pdb_net: oracle_source_delta(&old.pdb_net, &new.pdb_net),
            site: oracle_source_delta(&old.site, &new.site),
        }
    }

    /// One source's records across two snapshots: per key slot, whether
    /// it exists in the earlier / later snapshot and its two
    /// fingerprints (drawn from a tiny range, so unchanged records are
    /// common).
    fn churn() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        prop::collection::vec((0u8..4, 0u64..3, 0u64..3), 0..40)
    }

    /// Splits a churn draw into the two snapshots' maps. Keys come from
    /// `key(i)`; slot kind 0 is in both with one fingerprint, 1 only in
    /// the earlier snapshot, 2 only in the later, 3 in both with two
    /// (possibly equal) fingerprints.
    fn split<K: Ord>(
        draw: &[(u8, u64, u64)],
        key: impl Fn(usize) -> K,
    ) -> (BTreeMap<K, u64>, BTreeMap<K, u64>) {
        let (mut old, mut new) = (BTreeMap::new(), BTreeMap::new());
        for (i, &(kind, a, b)) in draw.iter().enumerate() {
            if kind != 2 {
                old.insert(key(i), a);
            }
            match kind {
                0 => {
                    new.insert(key(i), a);
                }
                2 | 3 => {
                    new.insert(key(i), b);
                }
                _ => {}
            }
        }
        (old, new)
    }

    /// Keys whose decimal strings sort differently from their values
    /// ("100" < "3"), so a string-ordered join would miscount.
    fn asn_key(i: usize) -> Asn {
        Asn::new(i as u32 * 97 + 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn record_delta_matches_the_btreemap_oracle(
            orgs in churn(),
            auts in churn(),
            pdb_orgs in churn(),
            nets in churn(),
            sites in churn(),
        ) {
            let mut old = SourceFingerprints::default();
            let mut new = SourceFingerprints::default();
            (old.whois_org, new.whois_org) =
                split(&orgs, |i| WhoisOrgId::new(format!("ORG-{i}")));
            (old.whois_aut, new.whois_aut) = split(&auts, asn_key);
            (old.pdb_org, new.pdb_org) =
                split(&pdb_orgs, |i| (i as u64) * 1_000_003 + 7);
            (old.pdb_net, new.pdb_net) = split(&nets, asn_key);
            (old.site, new.site) = split(&sites, asn_key);
            let state = SnapshotState::build(
                &AsnInterner::new([]),
                &[],
                &[],
                &[],
                &[],
                &[],
                &old,
                &NerResult::default(),
                &FaviconInference::default(),
            );
            state.validate().unwrap();
            let expected = oracle_snapshot_delta(&old, &new);
            prop_assert_eq!(oracle_snapshot_delta(&state.fingerprints(), &new), expected);
            prop_assert_eq!(SnapshotDelta::compute(&state, &new), expected);

            // Stored forms a capture never writes but validation admits:
            // lower-case handles, and an ASN key past `u32` (a record
            // the typed accessor drops).
            let mut odd = state.clone();
            for rec in &mut odd.whois_org_fps {
                rec.key = format!(" {} ", rec.key.to_lowercase());
            }
            odd.whois_aut_fps.push(KeyFp { key: "4294967296".to_string(), fp: 1 });
            odd.validate().unwrap();
            prop_assert_eq!(
                SnapshotDelta::compute(&odd, &new),
                oracle_snapshot_delta(&odd.fingerprints(), &new)
            );
        }
    }
}
