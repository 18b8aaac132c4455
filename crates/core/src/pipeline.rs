//! The Borges pipeline: feature computation and combination.
//!
//! [`Borges::run`] executes every stage once — organization keys (§4.1),
//! LLM extraction (§4.2), the web crawl and both web inferences (§4.3) —
//! and caches their merge evidence. [`Borges::mapping`] then materializes
//! the AS-to-Organization mapping for **any subset of features**
//! (Table 6 evaluates all 16 combinations).
//!
//! ## Evidence compilation
//!
//! Construction compiles every evidence source into dense-id edge lists
//! over the fixed universe (§5.4: vertices are all delegated networks):
//! ASNs are interned once through an [`AsnInterner`], evidence about
//! never-allocated ASNs is filtered out once, and the compulsory OID_W
//! closure is computed once into a [`DenseUnionFind`] base. Each
//! `mapping()` call then clones the base (two `memcpy`s) and replays
//! only the selected feature edges — no tree-map interning and no
//! membership checks on the hot path, which makes materialization both
//! cheap and embarrassingly parallel across feature combinations
//! ([`Borges::mappings`]).

use crate::delta::{
    self, DeltaStats, EdgeSegment, PriorSegments, SegmentDelta, SegmentKey, SnapshotDelta,
    SnapshotState, SourceDelta, SourceFingerprints,
};
use crate::mapping::{canonical_groups, AsOrgMapping};
use crate::ner::{extract_with_memo, NerConfig, NerMemoEntry, NerResult};
use crate::unionfind::{DenseUnionFind, SegmentFeed, ShardReport};
use crate::web::favicon::{favicon_inference_memo, FaviconInference};
use crate::web::rr::{rr_inference, RrInference};
use crate::world::{
    CompiledWorld, FaviconGroupRecord, NerEntryRecord, RrGroupRecord, ServingExtras,
};
use borges_llm::chat::ChatModel;
use borges_llm::RetryingModel;
use borges_parallel::{stream_indexed, StreamConfig, StreamLedger};
use borges_peeringdb::PdbSnapshot;
use borges_resilience::{
    stable_hash, BreakerConfig, Clock, RateLimiterRegistry, ResilienceStats, RetryPolicy, SimClock,
};
use borges_telemetry::{
    CacheReport, CacheStats, CoverageRow, CrawlFunnel, DeltaEdgeRow, DeltaRecordRow, DeltaReport,
    EvidenceSummary, FaviconFunnel, NerFunnel, ResilienceRow, RrFunnel, RunReport, Span, Telemetry,
    TimelineReport, WorkerTiming, RUN_REPORT_SCHEMA,
};
use borges_types::{Asn, AsnInterner, Url};
use borges_websim::{
    ReportAssembler, RetryingWebClient, ScrapeReport, ScrapeStats, Scraper, StreamingWebClient,
    WebClient,
};
use borges_whois::WhoisRegistry;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// A subset of Borges's four optional features. The WHOIS organization
/// key (`OID_W`) is always on — it is the compulsory base that defines
/// the universe, and with all four features off the pipeline *is* the
/// AS2Org baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureSet {
    /// PeeringDB organization keys (§4.1).
    pub oid_p: bool,
    /// notes/aka LLM extraction (§4.2).
    pub na: bool,
    /// Final-URL matching (§4.3.2).
    pub rr: bool,
    /// Favicon decision tree (§4.3.3).
    pub favicons: bool,
}

impl FeatureSet {
    /// No optional features: the AS2Org baseline.
    pub const NONE: FeatureSet = FeatureSet {
        oid_p: false,
        na: false,
        rr: false,
        favicons: false,
    };

    /// Everything on: full Borges.
    pub const ALL: FeatureSet = FeatureSet {
        oid_p: true,
        na: true,
        rr: true,
        favicons: true,
    };

    /// All 16 combinations, in binary-counting order (Table 6 rows).
    pub fn all_combinations() -> Vec<FeatureSet> {
        (0..16).map(FeatureSet::from_bits).collect()
    }

    /// Packs the four optional features into the low nibble of a byte —
    /// a dense cache/map key. Inverse of [`FeatureSet::from_bits`].
    pub fn bits(&self) -> u8 {
        (self.oid_p as u8)
            | (self.na as u8) << 1
            | (self.rr as u8) << 2
            | (self.favicons as u8) << 3
    }

    /// The feature set encoded by the low nibble of `bits` (high bits
    /// are ignored). Inverse of [`FeatureSet::bits`].
    pub fn from_bits(bits: u8) -> FeatureSet {
        FeatureSet {
            oid_p: bits & 1 != 0,
            na: bits & 2 != 0,
            rr: bits & 4 != 0,
            favicons: bits & 8 != 0,
        }
    }

    /// Parses a feature spec: `all`, `none`, or a comma-separated list
    /// of `oid_p`, `na` (alias `notes-aka`), `rr`, `favicons` (alias
    /// `f`). Shared by the CLI `--features` flag and the serving API's
    /// `features=` query parameter, so both surfaces accept the same
    /// vocabulary and reject the same typos.
    pub fn parse(spec: &str) -> Result<FeatureSet, String> {
        match spec {
            "all" => return Ok(FeatureSet::ALL),
            "none" => return Ok(FeatureSet::NONE),
            _ => {}
        }
        let mut features = FeatureSet::NONE;
        for token in spec.split(',') {
            match token.trim() {
                "oid_p" => features.oid_p = true,
                "na" | "notes-aka" => features.na = true,
                "rr" => features.rr = true,
                "favicons" | "f" => features.favicons = true,
                other => {
                    return Err(format!(
                        "unknown feature {other:?} (expected oid_p, na, rr, favicons)"
                    ))
                }
            }
        }
        Ok(features)
    }

    /// A human-readable label like `"OID_P + N&A"` (or `"AS2Org"` for the
    /// empty set).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.oid_p {
            parts.push("OID_P");
        }
        if self.na {
            parts.push("N&A");
        }
        if self.rr {
            parts.push("R&R");
        }
        if self.favicons {
            parts.push("F");
        }
        if parts.is_empty() {
            "AS2Org (base)".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

/// One of the five evidence sources of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// PeeringDB org keys.
    OidP,
    /// WHOIS org keys.
    OidW,
    /// notes/aka extraction.
    NotesAka,
    /// Final-URL matching.
    RefreshRedirect,
    /// Favicon grouping.
    Favicons,
}

impl Feature {
    /// All five, in Table 3 row order.
    pub const ALL: [Feature; 5] = [
        Feature::OidP,
        Feature::OidW,
        Feature::NotesAka,
        Feature::RefreshRedirect,
        Feature::Favicons,
    ];

    /// The row label used in Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            Feature::OidP => "OID_P",
            Feature::OidW => "OID_W",
            Feature::NotesAka => "notes and aka",
            Feature::RefreshRedirect => "R&R",
            Feature::Favicons => "Favicons",
        }
    }
}

/// Table 3 row: how many ASNs a feature says anything about, and how many
/// organizations it groups them into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureContribution {
    /// Number of ASes covered by the feature in isolation.
    pub ases: usize,
    /// Number of organizations the feature groups them into.
    pub orgs: usize,
}

/// The component id of a slot a feature's evidence never names.
const UNNAMED: u32 = u32::MAX;

/// Evidence provenance as one dense component-id array per feature,
/// built once per world from the raw evidence each feature asserts: the
/// two registries' org groups, the notes/aka extraction edges, the R&R
/// merging groups and the favicon groups. Unlike the compiled segments,
/// nothing here is filtered to the universe: an ASN that evidence names
/// but the interner does not hold gets a slot past the interner's end,
/// so a pair linked only through a never-allocated ASN stays linked, as
/// the evidence says. A slot the feature never names holds [`UNNAMED`]
/// and is linked to nothing, itself included.
#[derive(Debug, Clone)]
struct Provenance {
    /// Evidence ASNs outside the interner's live universe, ascending;
    /// the `i`-th owns slot `interner.len() + i`.
    outside: Vec<Asn>,
    /// Per feature, in [`Provenance::FEATURES`] order: every slot's
    /// component id (the slot of its root), or [`UNNAMED`].
    components: [Vec<u32>; 5],
}

impl Provenance {
    /// The order of `components`, which is the order
    /// [`Borges::evidence`] reports features in.
    const FEATURES: [Feature; 5] = [
        Feature::OidW,
        Feature::OidP,
        Feature::NotesAka,
        Feature::RefreshRedirect,
        Feature::Favicons,
    ];

    fn build(borges: &Borges) -> Self {
        let compiled = &borges.compiled;
        let interner = &compiled.interner;
        let ner_edges: Vec<[Asn; 2]> = borges
            .ner
            .edges()
            .into_iter()
            .map(|(a, b)| [a, b])
            .collect();
        let sources: [Vec<&[Asn]>; 5] = [
            compiled.oid_w_groups.iter().map(Vec::as_slice).collect(),
            compiled.oid_p_groups.iter().map(Vec::as_slice).collect(),
            ner_edges.iter().map(|edge| edge.as_slice()).collect(),
            borges.rr.merging_groups().map(Vec::as_slice).collect(),
            borges.favicon.groups.iter().map(Vec::as_slice).collect(),
        ];
        let mut outside: Vec<Asn> = sources
            .iter()
            .flatten()
            .flat_map(|group| group.iter().copied())
            .filter(|&asn| !interner.contains(asn))
            .collect();
        outside.sort_unstable();
        outside.dedup();
        let mut provenance = Provenance {
            outside,
            components: Default::default(),
        };
        let len = interner.len() + provenance.outside.len();
        let components = sources.map(|groups| {
            let mut uf = DenseUnionFind::new(len);
            let mut named = vec![false; len];
            for group in groups {
                let mut slots = group.iter().map(|&asn| {
                    let slot = provenance
                        .slot(interner, asn)
                        .expect("evidence ASN has a slot");
                    named[slot] = true;
                    slot as u32
                });
                if let Some(mut prev) = slots.next() {
                    for slot in slots {
                        uf.union(prev, slot);
                        prev = slot;
                    }
                }
            }
            let mut ids = uf.component_ids();
            for (id, named) in ids.iter_mut().zip(named) {
                if !named {
                    *id = UNNAMED;
                }
            }
            ids
        });
        provenance.components = components;
        provenance
    }

    /// `asn`'s slot: its interner id, or its place past the interner's
    /// end; `None` when no evidence names an ASN outside the universe.
    fn slot(&self, interner: &AsnInterner, asn: Asn) -> Option<usize> {
        match interner.id(asn) {
            Some(id) => Some(id as usize),
            None => self
                .outside
                .binary_search(&asn)
                .ok()
                .map(|i| interner.len() + i),
        }
    }

    fn components(&self, feature: Feature) -> &[u32] {
        let i = Self::FEATURES.iter().position(|&f| f == feature);
        &self.components[i.expect("every feature has components")]
    }
}

/// All five evidence sources compiled to dense-id edge lists over the
/// fixed universe, plus the precomputed OID_W base closure and both
/// registries' org groups.
///
/// Compiled once at pipeline construction; replayed (against a clone of
/// `base`) on every [`Borges::mapping`] call. Evidence naming ASNs
/// outside the universe is dropped here: every group is filtered
/// member-wise and then chained pairwise ([`delta::chain_edges`]) — an
/// NER subject's star of siblings becomes a chain with the same edge
/// count and closure.
///
/// The edge lists are partitioned into [`EdgeSegment`]s keyed by the
/// source record that derived them. A full compile and an incremental
/// [`CompiledEvidence::apply_delta`] run the *same* segment-merge code
/// ([`delta::merge_feature`]) — the full path just starts from an empty
/// prior, which is what makes incremental-equals-full structural rather
/// than coincidental.
#[derive(Debug, Clone)]
struct CompiledEvidence {
    interner: AsnInterner,
    /// The compulsory OID_W feature, already closed over the universe.
    base: DenseUnionFind,
    oid_w: Vec<EdgeSegment<String>>,
    oid_p: Vec<EdgeSegment<u64>>,
    na: Vec<EdgeSegment<u32>>,
    rr: Vec<EdgeSegment<String>>,
    favicons: Vec<EdgeSegment<u64>>,
    /// The WHOIS org-key groups in canonical order (members ascending,
    /// groups by smallest member), unfiltered — what provenance, Table 3
    /// and the stored world read.
    oid_w_groups: Vec<Vec<Asn>>,
    /// The PeeringDB analogue of `oid_w_groups`.
    oid_p_groups: Vec<Vec<Asn>>,
}

/// One registry's org-key feature from its single group-by-key pass:
/// the edge segments merged against `prior`, and the same groups
/// flattened into canonical order.
fn org_key_feature<K: SegmentKey>(
    interner: &AsnInterner,
    prior: &PriorSegments<'_, K>,
    keyed: Vec<(K, Vec<Vec<Asn>>)>,
) -> (Vec<EdgeSegment<K>>, SegmentDelta, Vec<Vec<Asn>>) {
    let groups = canonical_groups(keyed.iter().map(|(_, groups)| groups.concat()));
    let (segments, delta) = delta::merge_feature(interner, prior, keyed);
    (segments, delta, groups)
}

fn segment_edge_count<K>(segments: &[EdgeSegment<K>]) -> usize {
    segments.iter().map(|s| s.edges.len()).sum()
}

impl CompiledEvidence {
    /// Full (non-incremental) compilation: a fresh interner over the
    /// sorted universe, every segment derived from scratch. With
    /// `threads > 1` the OID_W base closure is replayed sharded (see
    /// [`CompiledEvidence::build`]); the result is byte-identical either
    /// way.
    fn compile(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        ner: &NerResult,
        rr: &RrInference,
        favicon: &FaviconInference,
        threads: usize,
        tel: &Telemetry,
    ) -> Self {
        let interner = AsnInterner::new(universe(whois, pdb));
        Self::build(interner, None, whois, pdb, ner, rr, favicon, threads, tel).0
    }

    /// Incremental recompilation against persisted snapshot-T state:
    /// the interner evolves append-only (surviving ASNs keep their
    /// dense ids, departures are tombstoned, arrivals get fresh or
    /// resurrected slots), and only segments whose member fingerprint
    /// moved are re-derived — the per-feature union-find replay then
    /// happens lazily in [`Borges::mapping`], exactly as on a full run.
    #[allow(clippy::too_many_arguments)]
    fn apply_delta(
        state: &SnapshotState,
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        ner: &NerResult,
        rr: &RrInference,
        favicon: &FaviconInference,
        threads: usize,
        tel: &Telemetry,
    ) -> (Self, DeltaStats) {
        let universe = universe(whois, pdb);
        let mut interner = AsnInterner::from_slots(state.slot_pairs());
        let mut stats = DeltaStats::default();
        // One merge-join of the stored live universe against the new one.
        let live = interner.live_asns();
        let mut live = live.into_iter().peekable();
        let mut arrivals = Vec::new();
        for &asn in &universe {
            while let Some(gone) = live.next_if(|&x| x < asn) {
                interner.retire(gone);
                stats.asns_retired += 1;
            }
            match live.next_if_eq(&asn) {
                Some(_) => stats.asns_retained += 1,
                None => arrivals.push(asn),
            }
        }
        for gone in live {
            interner.retire(gone);
            stats.asns_retired += 1;
        }
        // Ascending order keeps appended slot ids deterministic.
        for asn in arrivals {
            interner.append(asn);
            stats.asns_added += 1;
        }
        let (compiled, [oid_w, oid_p, na, rr_d, favicons]) = Self::build(
            interner,
            Some(state),
            whois,
            pdb,
            ner,
            rr,
            favicon,
            threads,
            tel,
        );
        stats.oid_w = oid_w;
        stats.oid_p = oid_p;
        stats.na = na;
        stats.rr = rr_d;
        stats.favicons = favicons;
        (compiled, stats)
    }

    /// The shared segment-merge tail of both compilation paths. `prior`
    /// is `None` for a full compile (every segment derives fresh). The
    /// OID_W base closure is always rebuilt from the segment edges —
    /// a union-find cannot un-union a retired bridge, and the rebuild
    /// is cheap next to group re-derivation.
    ///
    /// With `threads > 1` the base replay runs sharded
    /// ([`DenseUnionFind::union_edge_lists_sharded`], DESIGN.md §11):
    /// byte-identical output, with per-shard accounting stamped into
    /// `tel`'s worker-timing ledger only — never the canonical trace or
    /// metrics snapshot, which must not vary with thread count.
    #[allow(clippy::too_many_arguments)]
    fn build(
        interner: AsnInterner,
        prior: Option<&SnapshotState>,
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        ner: &NerResult,
        rr: &RrInference,
        favicon: &FaviconInference,
        threads: usize,
        tel: &Telemetry,
    ) -> (Self, [SegmentDelta; 5]) {
        let (p_w, p_p, p_na, p_rr, p_f) = match prior {
            Some(s) => (
                s.prior_oid_w(),
                s.prior_oid_p(),
                s.prior_na(),
                s.prior_rr(),
                s.prior_favicons(),
            ),
            None => Default::default(),
        };
        let (oid_w, d_w, oid_w_groups) =
            org_key_feature(&interner, &p_w, delta::keyed_whois_groups(whois));
        let (oid_p, d_p, oid_p_groups) =
            org_key_feature(&interner, &p_p, delta::keyed_pdb_groups(pdb));
        let (na, d_na) = delta::merge_feature(&interner, &p_na, delta::keyed_ner_groups(ner));
        let (rr, d_rr) = delta::merge_feature(&interner, &p_rr, delta::keyed_rr_groups(rr));
        let (favicons, d_f) =
            delta::merge_feature(&interner, &p_f, delta::keyed_favicon_groups(favicon));

        let mut base = DenseUnionFind::new(interner.len());
        if threads > 1 {
            let lists: Vec<&[(u32, u32)]> = oid_w.iter().map(|seg| seg.edges.as_slice()).collect();
            let report = base.union_edge_lists_sharded(&lists, threads, || tel.now_ms());
            record_shard_report(tel, "compile", &report);
        } else {
            for seg in &oid_w {
                base.union_edges(&seg.edges);
            }
        }

        (
            CompiledEvidence {
                interner,
                base,
                oid_w,
                oid_p,
                na,
                rr,
                favicons,
                oid_w_groups,
                oid_p_groups,
            },
            [d_w, d_p, d_na, d_rr, d_f],
        )
    }

    /// The streaming compile tail: finishes a [`StreamPrecompiled`]
    /// (whose registry-derived segments and OID_W base feed were built
    /// *during* the crawl overlap window) with the crawl-dependent
    /// features. Runs the exact same `merge_feature` derivations and
    /// the same sharded base replay as [`CompiledEvidence::compile`] —
    /// the work is merely scheduled earlier, so the result is
    /// byte-identical.
    fn compile_from_stream(
        pre: StreamPrecompiled,
        ner: &NerResult,
        rr: &RrInference,
        favicon: &FaviconInference,
        threads: usize,
        tel: &Telemetry,
    ) -> Self {
        let StreamPrecompiled {
            interner,
            oid_w,
            oid_p,
            feed,
            oid_w_groups,
            oid_p_groups,
        } = pre;
        let (na, _) = delta::merge_feature(
            &interner,
            &PriorSegments::default(),
            delta::keyed_ner_groups(ner),
        );
        let (rr, _) = delta::merge_feature(
            &interner,
            &PriorSegments::default(),
            delta::keyed_rr_groups(rr),
        );
        let (favicons, _) = delta::merge_feature(
            &interner,
            &PriorSegments::default(),
            delta::keyed_favicon_groups(favicon),
        );
        let mut base = DenseUnionFind::new(interner.len());
        let report = feed.finish(&mut base, || tel.now_ms());
        if threads > 1 {
            record_shard_report(tel, "compile", &report);
        }
        CompiledEvidence {
            interner,
            base,
            oid_w,
            oid_p,
            na,
            rr,
            favicons,
            oid_w_groups,
            oid_p_groups,
        }
    }
}

/// The mapping universe: every delegated network. PeeringDB networks
/// missing from WHOIS (rare, but real dumps have them) belong to it too.
fn universe(whois: &WhoisRegistry, pdb: &PdbSnapshot) -> BTreeSet<Asn> {
    let mut universe: BTreeSet<Asn> = whois.all_asns().collect();
    universe.extend(pdb.nets().map(|n| n.asn));
    universe
}

/// The crawl-independent compilation work a streaming run performs
/// while fetches are still in flight: the fixed universe, the interner,
/// both registry org-key groupings, the OID_W/OID_P edge segments, and
/// a [`SegmentFeed`] already loaded with every OID_W edge, ready for
/// the sharded base replay at compile time.
struct StreamPrecompiled {
    interner: AsnInterner,
    oid_w: Vec<EdgeSegment<String>>,
    oid_p: Vec<EdgeSegment<u64>>,
    feed: SegmentFeed,
    oid_w_groups: Vec<Vec<Asn>>,
    oid_p_groups: Vec<Vec<Asn>>,
}

impl StreamPrecompiled {
    /// Compiles everything derivable from the registries alone —
    /// scheduled on the compute thread while the crawl scheduler owns
    /// the I/O. `threads` sizes the eventual base replay's shard count,
    /// matching what the staged compile would use.
    fn build(whois: &WhoisRegistry, pdb: &PdbSnapshot, threads: usize) -> Self {
        let interner = AsnInterner::new(universe(whois, pdb));
        let (oid_w, _, oid_w_groups) = org_key_feature(
            &interner,
            &PriorSegments::default(),
            delta::keyed_whois_groups(whois),
        );
        let (oid_p, _, oid_p_groups) = org_key_feature(
            &interner,
            &PriorSegments::default(),
            delta::keyed_pdb_groups(pdb),
        );
        let mut feed = SegmentFeed::new(interner.len(), threads);
        for seg in &oid_w {
            feed.feed(&seg.edges);
        }
        StreamPrecompiled {
            interner,
            oid_w,
            oid_p,
            feed,
            oid_w_groups,
            oid_p_groups,
        }
    }
}

/// How much of one feature's attempted work survived the transport —
/// one row of the [`CoverageReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureCoverage {
    /// Units of work the stage attempted (entries, LLM calls, groups).
    pub attempted: usize,
    /// Units whose transport transaction completed (whatever the
    /// in-world answer was).
    pub succeeded: usize,
    /// Units abandoned after the resilience budget ran out (or
    /// immediately, when no retry layer was installed).
    pub abandoned: usize,
}

impl FeatureCoverage {
    fn new(attempted: usize, abandoned: usize) -> Self {
        FeatureCoverage {
            attempted,
            succeeded: attempted - abandoned,
            abandoned,
        }
    }

    /// Accounting invariant: nothing silently dropped. Holds by
    /// construction for every report the pipeline builds; exposed so
    /// callers (and the chaos tests) can assert it end to end.
    pub fn accounted(&self) -> bool {
        self.succeeded + self.abandoned == self.attempted
    }

    /// No losses at all — the degraded and flawless pipelines coincide.
    pub fn complete(&self) -> bool {
        self.abandoned == 0
    }

    /// Fraction of attempted work that survived (1.0 for an idle stage).
    pub fn fraction(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

/// Per-feature account of what the pipeline attempted, kept, and lost to
/// the transport — the "partial evidence" contract: a degraded run tells
/// you exactly what is missing instead of failing or lying by omission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageReport {
    /// The crawl: PeeringDB entries with a parseable website URL.
    pub crawl: FeatureCoverage,
    /// §4.2 extraction: LLM calls over notes/aka text.
    pub notes_aka: FeatureCoverage,
    /// §4.3.3 step 2: LLM calls over shared-favicon groups.
    pub favicon_groups: FeatureCoverage,
}

impl CoverageReport {
    /// Every row individually accounted (see
    /// [`FeatureCoverage::accounted`]).
    pub fn accounted(&self) -> bool {
        self.crawl.accounted() && self.notes_aka.accounted() && self.favicon_groups.accounted()
    }

    /// Nothing was lost anywhere: the mapping is built on full evidence.
    pub fn complete(&self) -> bool {
        self.crawl.complete() && self.notes_aka.complete() && self.favicon_groups.complete()
    }

    /// Total abandoned units across all rows.
    pub fn total_abandoned(&self) -> usize {
        self.crawl.abandoned + self.notes_aka.abandoned + self.favicon_groups.abandoned
    }
}

/// The computed pipeline: all evidence, ready to combine.
#[derive(Debug, Clone)]
pub struct Borges {
    compiled: CompiledEvidence,
    /// Per-feature component arrays for [`Borges::evidence`] and
    /// [`Borges::contribution`], built on the first call.
    provenance: OnceLock<Provenance>,
    /// §4.2 extraction output.
    pub ner: NerResult,
    /// §4.3.2 output.
    pub rr: RrInference,
    /// §4.3.3 output.
    pub favicon: FaviconInference,
    /// Crawl funnel statistics (§5.2).
    pub scrape_stats: ScrapeStats,
    /// Hit/miss counters of the crawl's fetch (redirect) cache.
    /// Observational only — under a parallel crawl, racing misses on the
    /// same URL may each count — so it feeds the run ledger, never the
    /// `PartialEq`-compared funnel stats.
    pub web_cache: CacheStats,
    /// Per-record fingerprints of the inputs this run consumed, captured
    /// so [`Borges::snapshot_state`] can persist them for a later
    /// incremental [`Borges::build`] to diff against.
    fingerprints: SourceFingerprints,
    /// Delta accounting when this pipeline was built incrementally
    /// (with [`BuildPlan::base`] set); `None` on full runs.
    pub delta: Option<DeltaStats>,
    /// Timeline epoch this world was published at; `0` until a timeline
    /// append stamps it (see [`Borges::set_world_epoch`]). Exported
    /// through [`Borges::to_world`] so the epoch participates in the
    /// artifact's content address.
    world_epoch: u64,
}

/// Runs `f` as one logical pipeline stage: a child span of `parent` plus
/// a `borges_stage_<name>_ms` duration observation on the run clock. The
/// closure gets the span to annotate with its funnel numbers — fields
/// must come from merged, schedule-independent stats so the canonical
/// journal stays identical across sequential and parallel execution.
fn stage<T>(tel: &Telemetry, parent: &Span, name: &str, f: impl FnOnce(&Span) -> T) -> T {
    let span = parent.child(name);
    let started_ms = tel.now_ms();
    let out = f(&span);
    if tel.is_enabled() {
        tel.observe_ms(
            &format!("borges_stage_{name}_ms"),
            tel.now_ms().saturating_sub(started_ms),
        );
    }
    out
}

/// Stamps one sharded replay's accounting into the worker-timing
/// ledger: a `<ctx>_shard_union` row per shard (items = bucket edges),
/// one `<ctx>_shard_cross` row (items = cross-range edges), and one
/// `<ctx>_shard_contract` row (items = edges the contraction replayed).
/// The ledger invariant `Σ contract.items ≤ Σ union.items + Σ
/// cross.items` holds because each shard's spanning output is a subset
/// of its bucket — the CI scale-equivalence job asserts it.
///
/// Worker rows only: the canonical trace and the metrics snapshot must
/// stay byte-identical across thread counts (DESIGN.md §8), and the
/// worker ledger is exactly the surface both exclude.
fn record_shard_report(tel: &Telemetry, ctx: &str, report: &ShardReport) {
    if !tel.is_enabled() {
        return;
    }
    for t in &report.shards {
        tel.record_worker(WorkerTiming {
            stage: format!("{ctx}_shard_union"),
            chunk: t.shard as u64,
            items: t.edges as u64,
            started_ms: t.started_ms,
            elapsed_ms: t.elapsed_ms,
        });
    }
    tel.record_worker(WorkerTiming {
        stage: format!("{ctx}_shard_cross"),
        chunk: 0,
        items: report.cross_edges as u64,
        started_ms: report.contraction_started_ms,
        elapsed_ms: 0,
    });
    tel.record_worker(WorkerTiming {
        stage: format!("{ctx}_shard_contract"),
        chunk: 0,
        items: report.contraction_edges as u64,
        started_ms: report.contraction_started_ms,
        elapsed_ms: report.contraction_elapsed_ms,
    });
}

// Span annotations per stage. Every value is a merged funnel number —
// proven schedule-independent by `parallel_pipeline_matches_sequential` —
// never a per-worker observation.

fn annotate_crawl(span: &Span, stats: &ScrapeStats) {
    span.field("entries_with_website", stats.entries_with_website);
    span.field("reachable_urls", stats.reachable_urls);
    span.field("entries_abandoned", stats.entries_abandoned);
}

fn annotate_ner(span: &Span, ner: &NerResult) {
    span.field("llm_calls", ner.stats.llm_calls);
    span.field("extracted_asns", ner.stats.extracted_asns);
}

fn annotate_rr(span: &Span, rr: &RrInference) {
    span.field("groups", rr.groups.len());
    span.field("shared_final_urls", rr.stats.shared_final_urls);
}

fn annotate_favicon(span: &Span, favicon: &FaviconInference) {
    span.field("groups", favicon.groups.len());
    span.field("llm_calls", favicon.stats.llm_calls);
}

/// Knobs for the streaming ingest engine ([`Engine::Streaming`]). Thread
/// budget and retry policy are [`BuildPlan`] fields shared with the
/// staged engine.
#[derive(Clone)]
pub struct StreamOptions {
    /// Worker threads in the fetch pool.
    pub workers: usize,
    /// Global cap on fetches started but not yet completed.
    pub max_in_flight: usize,
    /// Per-host admission rate (requests per second of pacing-clock
    /// time); `None` disables rate limiting.
    pub per_host_rps: Option<f64>,
    /// Instantaneous per-host burst allowance for the token buckets.
    pub burst: u32,
    /// The pacing clock token buckets read and throttled workers sleep
    /// on. Virtual ([`SimClock`]) by default, so throttled runs are
    /// deterministic and never actually wait; a production deployment
    /// passes [`borges_resilience::SystemClock`]. Pacing affects
    /// wall-clock scheduling only — never canonical outputs.
    pub pacing: Arc<dyn Clock>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            workers: 8,
            max_in_flight: 8,
            per_host_rps: None,
            burst: 1,
            pacing: Arc::new(SimClock::new()),
        }
    }
}

impl std::fmt::Debug for StreamOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamOptions")
            .field("workers", &self.workers)
            .field("max_in_flight", &self.max_in_flight)
            .field("per_host_rps", &self.per_host_rps)
            .field("burst", &self.burst)
            .finish_non_exhaustive()
    }
}

/// How a [`Borges::build`] schedules its stages. Both engines run the
/// same stage sequence and emit byte-identical canonical outputs.
#[derive(Debug, Clone)]
pub enum Engine {
    /// Each stage runs to completion before the next one starts.
    Staged,
    /// The crawl overlaps NER extraction and the registry-side evidence
    /// compile (DESIGN.md §14).
    Streaming(StreamOptions),
}

/// Everything a [`Borges::build`] can vary besides its inputs.
#[derive(Debug, Clone)]
pub struct BuildPlan<'a> {
    /// Compute parallelism: crawl and NER fan-out on a bare full build,
    /// and the shard count of the compile-time OID_W base replay. A
    /// staged build with `retry` set runs on one thread regardless.
    pub threads: usize,
    /// NER input/output filters (§4.2).
    pub ner: NerConfig,
    /// Retry policy for the web and LLM boundaries. `None` runs the bare
    /// stack; `Some` wraps the web client and each LLM stage in the
    /// resilience stack, with per-host breakers at
    /// [`BreakerConfig::standard`].
    pub retry: Option<RetryPolicy>,
    /// The ingest engine.
    pub engine: Engine,
    /// Snapshot-T state to re-map against. `Some` makes the build
    /// incremental: LLM stages replay memoized replies for unchanged
    /// records and compilation reuses every untouched edge segment.
    pub base: Option<&'a SnapshotState>,
}

impl Default for BuildPlan<'_> {
    fn default() -> Self {
        BuildPlan {
            threads: 1,
            ner: NerConfig::default(),
            retry: None,
            engine: Engine::Staged,
            base: None,
        }
    }
}

impl BuildPlan<'_> {
    /// How a build under this plan executes, as the run ledger's
    /// `pipeline` label: `remap`, `streaming`, `resilient`, `parallel`
    /// or `sequential`.
    pub fn label(&self) -> &'static str {
        match (&self.engine, self.base, self.retry) {
            (_, Some(_), _) => "remap",
            (Engine::Streaming(_), ..) => "streaming",
            (_, _, Some(_)) => "resilient",
            _ if self.threads > 1 => "parallel",
            _ => "sequential",
        }
    }
}

/// Where a build's web observation comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Crawl every PeeringDB website through this client.
    Crawl(&'a dyn WebClient),
    /// A crawl computed earlier. The build has no `crawl` stage and its
    /// redirect-cache ledger row reads zero.
    Scraped(&'a ScrapeReport),
}
/// One crawl entry prepared for the streaming scheduler: the parse and
/// host-key work is done once up front so the admission gate and the
/// per-key FIFO discipline never re-parse under the scheduler lock.
struct StreamEntry<'a> {
    asn: Asn,
    raw: &'a str,
    /// FIFO-serialization key: the host hash for fetching entries
    /// (matching breaker/rate-limit keying), a raw-string hash for
    /// entries that never reach the network.
    key: u64,
    /// The host a fetch would hit; `None` for empty/invalid websites,
    /// which are never rate-limited.
    host: Option<String>,
}

fn stream_entries(pdb: &PdbSnapshot) -> Vec<StreamEntry<'_>> {
    pdb.nets()
        .map(|n| {
            let raw = n.website.as_str();
            let host = raw
                .trim()
                .parse::<Url>()
                .ok()
                .map(|u| u.host().as_str().to_string());
            let key = match &host {
                Some(h) => stable_hash(h.as_bytes()),
                None => stable_hash(raw.as_bytes()),
            };
            StreamEntry {
                asn: n.asn,
                raw,
                key,
                host,
            }
        })
        .collect()
}

/// Stamps one streaming run's scheduler accounting into the
/// worker-timing ledger (stage names from [`borges_telemetry::ingest`]).
/// Ledger rows only — the canonical trace and metrics snapshot must
/// stay byte-identical to the staged run, and the worker ledger is
/// exactly the schedule-variant surface both exclude (DESIGN.md §8).
fn record_ingest_ledger(tel: &Telemetry, ledger: &StreamLedger) {
    if !tel.is_enabled() {
        return;
    }
    for (worker, items) in ledger.per_worker.iter().enumerate() {
        tel.record_worker(WorkerTiming {
            stage: borges_telemetry::ingest::WORKER_STAGE.to_string(),
            chunk: worker as u64,
            items: *items,
            started_ms: 0,
            elapsed_ms: 0,
        });
    }
    tel.record_worker(WorkerTiming {
        stage: borges_telemetry::ingest::IN_FLIGHT_STAGE.to_string(),
        chunk: 0,
        items: ledger.in_flight_high_water as u64,
        started_ms: 0,
        elapsed_ms: 0,
    });
    tel.record_worker(WorkerTiming {
        stage: borges_telemetry::ingest::THROTTLE_STAGE.to_string(),
        chunk: 0,
        items: ledger.throttle_waits,
        started_ms: 0,
        elapsed_ms: ledger.throttle_wait_ms,
    });
    tel.record_worker(WorkerTiming {
        stage: borges_telemetry::ingest::REASSEMBLY_STAGE.to_string(),
        chunk: 0,
        items: ledger.reassembly_high_water as u64,
        started_ms: 0,
        elapsed_ms: 0,
    });
}

/// A retrying wrapper around one LLM stage's model (NER and the favicon
/// classifier get separate retry/breaker state, so a meltdown in one
/// stage cannot poison the other's budget accounting).
fn retrying<'m>(
    model: &'m dyn ChatModel,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
    tel: &Telemetry,
    boundary: &str,
) -> RetryingModel<&'m dyn ChatModel> {
    RetryingModel::new(model, policy)
        .with_breaker(BreakerConfig::standard())
        .with_clock(clock)
        .with_telemetry(tel.clone(), boundary)
}

/// The NER pass of every build. It fans out over `threads` workers only
/// on a bare full build; a retried or memoized pass runs sequentially,
/// spending its retry backoff on `clock`.
fn extract_ner(
    pdb: &PdbSnapshot,
    model: &dyn ChatModel,
    plan: &BuildPlan<'_>,
    threads: usize,
    memo: &BTreeMap<Asn, NerMemoEntry>,
    clock: Arc<dyn Clock>,
    tel: &Telemetry,
) -> NerResult {
    match plan.retry {
        Some(policy) => {
            let ner_model = retrying(model, policy, clock, tel, "ner");
            let mut ner = extract_with_memo(pdb, &ner_model, plan.ner, memo);
            ner.stats.resilience = ner_model.stats();
            ner
        }
        None if threads > 1 && plan.base.is_none() => {
            crate::ner::extract_parallel(pdb, model, plan.ner, threads)
        }
        None => extract_with_memo(pdb, model, plan.ner, memo),
    }
}

/// The staged crawl: sequential, or fanned out over `threads` workers.
/// With a retry policy the client sits behind a [`RetryingWebClient`]
/// on the telemetry clock, so virtual backoff lands in the stage span.
fn crawl_staged(
    pdb: &PdbSnapshot,
    client: &dyn WebClient,
    retry: Option<RetryPolicy>,
    threads: usize,
    tel: &Telemetry,
) -> (ScrapeReport, CacheStats) {
    let retrying = retry.map(|policy| {
        RetryingWebClient::new(client, policy)
            .with_breakers(BreakerConfig::standard())
            .with_clock(tel.clock())
            .with_telemetry(tel.clone())
    });
    let scraper = Scraper::new(match &retrying {
        Some(web) => web as &dyn WebClient,
        None => client,
    });
    let entries = pdb.nets().map(|n| (n.asn, n.website.as_str()));
    let mut report = if threads > 1 {
        scraper.crawl_parallel(entries.collect(), threads)
    } else {
        scraper.crawl(entries)
    };
    if let Some(web) = &retrying {
        report.stats.resilience = web.stats();
    }
    (report, scraper.cache_stats())
}

/// What a streaming crawl leaves for the phase-B replay.
struct StreamedCrawl {
    report: ScrapeReport,
    web_cache: CacheStats,
    ledger: StreamLedger,
    /// Virtual retry backoff the fetches spent on private clocks.
    backoff_ms: u64,
}

/// The streaming crawl: a bounded-concurrency scheduler
/// ([`borges_parallel::stream_indexed`]) drives `opts.workers` fetch
/// workers under a global `opts.max_in_flight` cap and optional per-host
/// token-bucket rate limits, serializing fetches per host in canonical
/// input order. Completions flow through a key-canonical reassembly
/// buffer into an incremental [`ReportAssembler`].
fn crawl_streaming(
    pdb: &PdbSnapshot,
    client: &dyn WebClient,
    opts: &StreamOptions,
    retry: Option<RetryPolicy>,
    tel: &Telemetry,
) -> StreamedCrawl {
    let fetcher = match retry {
        Some(policy) => StreamingWebClient::resilient(client, policy)
            .with_breakers(BreakerConfig::standard())
            .with_telemetry(tel.clone()),
        None => StreamingWebClient::bare(client),
    };
    let scraper = Scraper::new(&fetcher);
    let entries = stream_entries(pdb);
    let limiter = opts
        .per_host_rps
        .map(|rps| RateLimiterRegistry::new(rps, opts.burst));
    let config = StreamConfig {
        workers: opts.workers,
        max_in_flight: opts.max_in_flight,
    };
    let mut assembler = ReportAssembler::new();
    let ledger = stream_indexed(
        &entries,
        &config,
        |e| e.key,
        |_key, e| match (&limiter, &e.host) {
            (Some(registry), Some(host)) => {
                registry.limiter(host).try_acquire(opts.pacing.now_ms())
            }
            _ => Ok(()),
        },
        |ms| opts.pacing.sleep_ms(ms),
        |_, e| scraper.resolve(e.raw),
        |index, resolution| assembler.push(entries[index].asn, resolution),
    );
    let mut report = assembler.finish();
    if retry.is_some() {
        report.stats.resilience = fetcher.stats();
    }
    StreamedCrawl {
        report,
        web_cache: scraper.cache_stats(),
        ledger,
        backoff_ms: fetcher.backoff_total_ms(),
    }
}

impl Borges {
    /// Runs the pipeline once: crawl → NER → R&R → favicon → compile (or,
    /// with [`BuildPlan::base`], the incremental `apply`), then stamps
    /// every stage funnel into `tel`. `source` either crawls through a
    /// client or hands over a finished [`ScrapeReport`].
    ///
    /// Every stage records a child span of one root span (`run`, or
    /// `remap` for an incremental build), a stage-duration histogram and
    /// its funnel counters. Span fields and metrics come from merged,
    /// order-canonical stats, so under a
    /// [`SimClock`](borges_resilience::SimClock) the canonical journal
    /// and the metrics snapshot do not depend on the plan's thread count
    /// or engine (DESIGN.md §8, pinned by `tests/telemetry.rs`). Worker
    /// scheduling shows up only in runtime spans and [`WorkerTiming`]
    /// ledger rows.
    ///
    /// Determinism contract: the mapping, canonical trace and metrics
    /// snapshot are **byte-identical** across thread counts and both
    /// engines. With [`BuildPlan::retry`] set, a fault-free world, or one
    /// whose faults are recoverable within budget, yields the mapping of
    /// the bare stack — retries erase recoverable faults. Unrecoverable
    /// faults still complete the run: abandoned work is counted in each
    /// stage's stats and [`Borges::coverage`]. An incremental build is
    /// byte-identical to a full build over the same inputs, because both
    /// run the same derivation code and the delta path only skips work
    /// proven unchanged.
    ///
    /// The streaming engine runs in two phases. **Phase A** overlaps the
    /// crawl scheduler with one compute thread doing the registry-side
    /// compile ([`StreamPrecompiled`]) and NER; it opens no spans and
    /// leaves the telemetry clock alone, spending retry backoff on
    /// private clocks. **Phase B** opens the root span at the same
    /// virtual instant as a staged build and replays the `crawl` and
    /// `ner` stages, sleeping the recorded backoff inside each, so
    /// timestamps land where the staged build puts them; the remaining
    /// stages run live.
    pub fn build(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        source: Source<'_>,
        model: &dyn ChatModel,
        plan: &BuildPlan<'_>,
        tel: &Telemetry,
    ) -> Self {
        // A staged resilient build is sequential end to end: fault
        // bursts are stateful per subject, so interleaving would perturb
        // which attempt of a burst each worker observes.
        let threads = match (&plan.engine, plan.retry) {
            (Engine::Staged, Some(_)) => 1,
            _ => plan.threads,
        };
        let ner_memo = plan
            .base
            .map(SnapshotState::ner_memo_map)
            .unwrap_or_default();
        let favicon_memo = plan
            .base
            .map(SnapshotState::favicon_memo_map)
            .unwrap_or_default();

        // Phase A of a streaming build: everything that overlaps the
        // crawl, with the NER retry backoff spent on a private clock. An
        // incremental build compiles in `apply`, so it precompiles
        // nothing here.
        let precompile = plan.base.is_none();
        let (streamed_crawl, pre, streamed_ner) = match &plan.engine {
            Engine::Staged => (None, None, None),
            Engine::Streaming(opts) => std::thread::scope(|scope| {
                let crawling = matches!(source, Source::Crawl(_));
                let (ner_memo, threads) = (&ner_memo, threads);
                let compute = scope.spawn(move || {
                    let pre = (crawling && precompile)
                        .then(|| StreamPrecompiled::build(whois, pdb, threads));
                    let clock = Arc::new(SimClock::new());
                    let ner = extract_ner(pdb, model, plan, threads, ner_memo, clock.clone(), tel);
                    (pre, ner, clock.now_ms())
                });
                let (crawl, main_pre) = match source {
                    Source::Crawl(client) => (
                        Some(crawl_streaming(pdb, client, opts, plan.retry, tel)),
                        None,
                    ),
                    Source::Scraped(_) => (
                        None,
                        precompile.then(|| StreamPrecompiled::build(whois, pdb, threads)),
                    ),
                };
                let (compute_pre, ner, ner_backoff_ms) = match compute.join() {
                    Ok(out) => out,
                    Err(panic) => std::panic::resume_unwind(panic),
                };
                (crawl, main_pre.or(compute_pre), Some((ner, ner_backoff_ms)))
            }),
        };

        let root = tel.span(if plan.base.is_some() { "remap" } else { "run" });
        let (report, web_cache) = match source {
            Source::Scraped(report) => (Cow::Borrowed(report), CacheStats::default()),
            Source::Crawl(client) => stage(tel, &root, "crawl", |span| {
                let (report, web_cache) = match streamed_crawl {
                    Some(c) => {
                        tel.clock().sleep_ms(c.backoff_ms);
                        record_ingest_ledger(tel, &c.ledger);
                        (c.report, c.web_cache)
                    }
                    None => crawl_staged(pdb, client, plan.retry, threads, tel),
                };
                annotate_crawl(span, &report.stats);
                (Cow::Owned(report), web_cache)
            }),
        };
        let report: &ScrapeReport = &report;

        let ner = stage(tel, &root, "ner", |span| {
            let ner = match streamed_ner {
                Some((ner, backoff_ms)) => {
                    tel.clock().sleep_ms(backoff_ms);
                    ner
                }
                None => extract_ner(pdb, model, plan, threads, &ner_memo, tel.clock(), tel),
            };
            annotate_ner(span, &ner);
            if plan.base.is_some() {
                span.field("memo_hits", ner.memo_hits);
            }
            ner
        });
        let rr = stage(tel, &root, "rr", |span| {
            let rr = rr_inference(report);
            annotate_rr(span, &rr);
            rr
        });
        let favicon = stage(tel, &root, "favicon", |span| {
            let favicon = match plan.retry {
                Some(policy) => {
                    let favicon_model = retrying(model, policy, tel.clock(), tel, "favicon");
                    let mut favicon =
                        favicon_inference_memo(report, &favicon_model, true, &favicon_memo);
                    favicon.stats.resilience = favicon_model.stats();
                    favicon
                }
                None => favicon_inference_memo(report, model, true, &favicon_memo),
            };
            annotate_favicon(span, &favicon);
            if plan.base.is_some() {
                span.field("memo_hits", favicon.memo_hits);
            }
            favicon
        });

        let fingerprints = SourceFingerprints::capture(whois, pdb, report);
        let (compiled, delta) = match plan.base {
            Some(state) => stage(tel, &root, "apply", |span| {
                let (compiled, mut d) = CompiledEvidence::apply_delta(
                    state, whois, pdb, &ner, &rr, &favicon, threads, tel,
                );
                d.records = SnapshotDelta::compute(state, &fingerprints);
                span.field("asns", compiled.interner.live_len());
                span.field("records_dirty", d.records.dirty());
                span.field(
                    "segments_retained",
                    d.edge_rows()
                        .iter()
                        .map(|(_, s)| s.segments_retained)
                        .sum::<usize>(),
                );
                d.ner_reused = ner.memo_hits;
                d.ner_recomputed = ner.stats.llm_calls;
                d.favicon_reused = favicon.memo_hits;
                d.favicon_recomputed = favicon.stats.llm_calls;
                (compiled, Some(d))
            }),
            None => stage(tel, &root, "compile", |span| {
                let compiled = match pre {
                    Some(pre) => CompiledEvidence::compile_from_stream(
                        pre, &ner, &rr, &favicon, threads, tel,
                    ),
                    None => {
                        CompiledEvidence::compile(whois, pdb, &ner, &rr, &favicon, threads, tel)
                    }
                };
                span.field("asns", compiled.interner.live_len());
                span.field("ner_links", segment_edge_count(&compiled.na));
                (compiled, None)
            }),
        };

        let borges = Borges {
            compiled,
            provenance: OnceLock::new(),
            ner,
            rr,
            favicon,
            scrape_stats: report.stats.clone(),
            web_cache,
            fingerprints,
            delta,
            world_epoch: 0,
        };
        borges.stamp_metrics(tel);
        borges.stamp_delta_metrics(tel);
        borges
    }

    /// [`Borges::build`] with the default plan: a sequential, untraced
    /// crawl through `web_client`.
    pub fn run<C: WebClient>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &dyn ChatModel,
    ) -> Self {
        Self::build(
            whois,
            pdb,
            Source::Crawl(&web_client),
            model,
            &BuildPlan::default(),
            &Telemetry::disabled(),
        )
    }

    /// [`Borges::build`] untraced, with the crawl and the LLM calls
    /// fanned out over `threads` workers.
    pub fn run_parallel<C: WebClient + Sync>(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        web_client: C,
        model: &(dyn ChatModel + Sync),
        threads: usize,
    ) -> Self {
        let plan = BuildPlan {
            threads,
            ..BuildPlan::default()
        };
        Self::build(
            whois,
            pdb,
            Source::Crawl(&web_client),
            model,
            &plan,
            &Telemetry::disabled(),
        )
    }

    /// [`Borges::build`] untraced over a pre-computed scrape report,
    /// with an explicit NER configuration (ablations and benches use it
    /// to avoid re-crawling).
    pub fn from_scrape(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        report: &ScrapeReport,
        model: &dyn ChatModel,
        ner_config: NerConfig,
    ) -> Self {
        Self::from_scrape_parallel(whois, pdb, report, model, ner_config, 1)
    }

    /// [`Borges::from_scrape`] over `threads` workers.
    pub fn from_scrape_parallel(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        report: &ScrapeReport,
        model: &dyn ChatModel,
        ner_config: NerConfig,
        threads: usize,
    ) -> Self {
        let plan = BuildPlan {
            threads,
            ner: ner_config,
            ..BuildPlan::default()
        };
        Self::build(
            whois,
            pdb,
            Source::Scraped(report),
            model,
            &plan,
            &Telemetry::disabled(),
        )
    }

    /// [`Borges::build`] untraced, incrementally against `state` over
    /// `threads` workers. `report` is the *re-crawled* T+1 web
    /// observation: crawling is cheap next to LLM calls and the web can
    /// drift even when the registries did not, so it is never carried
    /// over from T.
    pub fn remap_parallel(
        whois: &WhoisRegistry,
        pdb: &PdbSnapshot,
        report: &ScrapeReport,
        model: &dyn ChatModel,
        ner_config: NerConfig,
        state: &SnapshotState,
        threads: usize,
    ) -> Self {
        let plan = BuildPlan {
            threads,
            ner: ner_config,
            base: Some(state),
            ..BuildPlan::default()
        };
        Self::build(
            whois,
            pdb,
            Source::Scraped(report),
            model,
            &plan,
            &Telemetry::disabled(),
        )
    }

    /// The persistable compiled state of this run: interner slots, edge
    /// segments, source fingerprints, and the LLM reply memos — exactly
    /// what a later incremental [`Borges::build`] needs as its
    /// [`BuildPlan::base`]. Captured on *every* run
    /// (full or incremental), so remaps chain: T → T+1 → T+2.
    pub fn snapshot_state(&self) -> SnapshotState {
        SnapshotState::build(
            &self.compiled.interner,
            &self.compiled.oid_w,
            &self.compiled.oid_p,
            &self.compiled.na,
            &self.compiled.rr,
            &self.compiled.favicons,
            &self.fingerprints,
            &self.ner,
            &self.favicon,
        )
    }

    /// Captures this pipeline as a persistable [`CompiledWorld`]: the
    /// [`Borges::snapshot_state`] plus the [`ServingExtras`] a server
    /// reads at request time. Lossless up to the two audit-only fields
    /// `crate::world` documents (favicon decision records, memo-hit
    /// counters); [`Borges::from_world`] inverts it.
    pub fn to_world(&self) -> CompiledWorld {
        fn wire_groups(groups: &[Vec<Asn>]) -> Vec<Vec<u32>> {
            groups
                .iter()
                .map(|g| g.iter().map(|a| a.value()).collect())
                .collect()
        }
        CompiledWorld {
            state: self.snapshot_state(),
            epoch: self.world_epoch,
            extras: ServingExtras {
                oid_w_groups: wire_groups(&self.compiled.oid_w_groups),
                oid_p_groups: wire_groups(&self.compiled.oid_p_groups),
                ner_entries: self
                    .ner
                    .per_entry
                    .iter()
                    .map(|(asn, siblings)| NerEntryRecord {
                        asn: asn.value(),
                        siblings: siblings.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                ner_stats: (&self.ner.stats).into(),
                rr_groups: self
                    .rr
                    .groups
                    .iter()
                    .zip(&self.rr.final_urls)
                    .map(|(group, url)| RrGroupRecord {
                        final_url: url.clone(),
                        members: group.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                rr_stats: (&self.rr.stats).into(),
                favicon_groups: self
                    .favicon
                    .groups
                    .iter()
                    .zip(&self.favicon.group_favicons)
                    .map(|(group, hash)| FaviconGroupRecord {
                        favicon: hash.raw(),
                        members: group.iter().map(|a| a.value()).collect(),
                    })
                    .collect(),
                favicon_stats: (&self.favicon.stats).into(),
                scrape_stats: (&self.scrape_stats).into(),
                web_cache: self.web_cache,
            },
        }
    }

    /// Rebuilds a serving pipeline from a persisted [`CompiledWorld`]
    /// without re-deriving any evidence: no crawl, no LLM call, no
    /// group derivation — only the cheap OID_W base-closure replay from
    /// the stored segment edges (the same replay `remap` always does,
    /// sharded over `threads` workers when `threads > 1`,
    /// byte-identical either way).
    ///
    /// Validates before trusting ([`CompiledWorld::validate`]) and
    /// never panics on a decoded-but-insane world: duplicate interner
    /// slots, out-of-range edge ids, or a wrong inner schema come back
    /// as `Err`. The keystone contract: the returned pipeline produces
    /// byte-identical mapfiles, snapshot states, and HTTP responses to
    /// the freshly compiled pipeline [`Borges::to_world`] captured.
    pub fn from_world(world: &CompiledWorld, threads: usize) -> Result<Self, String> {
        world.validate()?;
        let state = &world.state;
        let extras = &world.extras;
        // Safe after validate(): slots are unique, so the rebuild's
        // duplicate assertion cannot fire.
        let interner = AsnInterner::from_slots(state.slot_pairs());

        // Segments are reconstructed straight from the persisted record
        // vectors, preserving compile order exactly — re-persisting a
        // loaded world must serialize byte-identically.
        fn segments<K>(
            records: &[crate::delta::SegmentRecord],
            parse: impl Fn(&str) -> Option<K>,
        ) -> Result<Vec<EdgeSegment<K>>, String> {
            records
                .iter()
                .map(|rec| {
                    let key = parse(&rec.key)
                        .ok_or_else(|| format!("unparseable segment key {:?}", rec.key))?;
                    Ok(EdgeSegment {
                        key,
                        fp: rec.fp,
                        edges: rec.edges.iter().map(|e| (e.a, e.b)).collect(),
                    })
                })
                .collect()
        }
        let oid_w = segments(&state.oid_w, |k| Some(k.to_string()))?;
        let oid_p = segments(&state.oid_p, |k| k.parse().ok())?;
        let na = segments(&state.na, |k| k.parse().ok())?;
        let rr_segments = segments(&state.rr, |k| Some(k.to_string()))?;
        let favicons = segments(&state.favicons, |k| k.parse().ok())?;

        let mut base = DenseUnionFind::new(interner.len());
        if threads > 1 {
            let lists: Vec<&[(u32, u32)]> = oid_w.iter().map(|seg| seg.edges.as_slice()).collect();
            base.union_edge_lists_sharded(&lists, threads, || 0);
        } else {
            for seg in &oid_w {
                base.union_edges(&seg.edges);
            }
        }

        fn live_groups(groups: &[Vec<u32>]) -> Vec<Vec<Asn>> {
            groups
                .iter()
                .map(|g| g.iter().map(|&n| Asn::new(n)).collect())
                .collect()
        }
        let ner = NerResult {
            per_entry: extras
                .ner_entries
                .iter()
                .map(|rec| {
                    (
                        Asn::new(rec.asn),
                        rec.siblings.iter().map(|&s| Asn::new(s)).collect(),
                    )
                })
                .collect(),
            memo: state.ner_memo_map(),
            memo_hits: 0,
            stats: (&extras.ner_stats).into(),
        };
        let rr = RrInference {
            groups: extras
                .rr_groups
                .iter()
                .map(|rec| rec.members.iter().map(|&n| Asn::new(n)).collect())
                .collect(),
            final_urls: extras
                .rr_groups
                .iter()
                .map(|rec| rec.final_url.clone())
                .collect(),
            stats: (&extras.rr_stats).into(),
        };
        let favicon = FaviconInference {
            groups: extras
                .favicon_groups
                .iter()
                .map(|rec| rec.members.iter().map(|&n| Asn::new(n)).collect())
                .collect(),
            group_favicons: extras
                .favicon_groups
                .iter()
                .map(|rec| borges_types::FaviconHash::from_raw(rec.favicon))
                .collect(),
            decisions: Vec::new(),
            memo: state.favicon_memo_map(),
            memo_hits: 0,
            stats: (&extras.favicon_stats).into(),
        };

        Ok(Borges {
            fingerprints: state.fingerprints(),
            compiled: CompiledEvidence {
                interner,
                base,
                oid_w,
                oid_p,
                na,
                rr: rr_segments,
                favicons,
                oid_w_groups: live_groups(&extras.oid_w_groups),
                oid_p_groups: live_groups(&extras.oid_p_groups),
            },
            provenance: OnceLock::new(),
            ner,
            rr,
            favicon,
            scrape_stats: (&extras.scrape_stats).into(),
            web_cache: extras.web_cache,
            delta: None,
            world_epoch: world.epoch,
        })
    }

    /// The timeline epoch this world was published at; `0` if never
    /// published.
    pub fn world_epoch(&self) -> u64 {
        self.world_epoch
    }

    /// Stamps the timeline epoch. Called by the timeline layer *before*
    /// the artifact is encoded, so the epoch participates in the
    /// content address and survives [`Borges::from_world`].
    pub fn set_world_epoch(&mut self, epoch: u64) {
        self.world_epoch = epoch;
    }

    /// Stamps the incremental-run reuse accounting as
    /// `borges_delta_*` counters.
    fn stamp_delta_metrics(&self, tel: &Telemetry) {
        let (Some(d), true) = (&self.delta, tel.is_enabled()) else {
            return;
        };
        let c = |name: &str, v: usize| tel.counter(name, v as u64);
        c("borges_delta_records_dirty_total", d.records.dirty());
        c("borges_delta_asns_retained_total", d.asns_retained);
        c("borges_delta_asns_added_total", d.asns_added);
        c("borges_delta_asns_retired_total", d.asns_retired);
        let (mut seg_ret, mut seg_red, mut edge_ret, mut edge_red) = (0, 0, 0, 0);
        for (_, s) in d.edge_rows() {
            seg_ret += s.segments_retained;
            seg_red += s.segments_rederived;
            edge_ret += s.edges_retained;
            edge_red += s.edges_rederived;
        }
        c("borges_delta_segments_retained_total", seg_ret);
        c("borges_delta_segments_rederived_total", seg_red);
        c("borges_delta_edges_retained_total", edge_ret);
        c("borges_delta_edges_rederived_total", edge_red);
        c("borges_delta_llm_calls_saved_total", d.llm_calls_saved());
    }

    /// Stamps every stage funnel and the evidence-base sizes into the
    /// metrics registry as counters, following the naming convention
    /// `borges_<stage>_<what>_total` (DESIGN.md §8).
    fn stamp_metrics(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let c = |name: &str, v: usize| tel.counter(name, v as u64);
        let s = &self.scrape_stats;
        c(
            "borges_crawl_entries_with_website_total",
            s.entries_with_website,
        );
        c(
            "borges_crawl_entries_with_invalid_url_total",
            s.entries_with_invalid_url,
        );
        c("borges_crawl_entries_abandoned_total", s.entries_abandoned);
        c("borges_crawl_unique_urls_total", s.unique_urls);
        c("borges_crawl_reachable_urls_total", s.reachable_urls);
        c("borges_crawl_unique_final_urls_total", s.unique_final_urls);
        c(
            "borges_crawl_final_urls_with_favicon_total",
            s.final_urls_with_favicon,
        );
        c("borges_crawl_unique_favicons_total", s.unique_favicons);

        let r = &self.rr.stats;
        c(
            "borges_rr_networks_with_final_url_total",
            r.networks_with_final_url,
        );
        c("borges_rr_blocked_networks_total", r.blocked_networks);
        c("borges_rr_distinct_final_urls_total", r.distinct_final_urls);
        c("borges_rr_shared_final_urls_total", r.shared_final_urls);

        let n = &self.ner.stats;
        c("borges_ner_entries_total", n.entries_total);
        c("borges_ner_entries_with_text_total", n.entries_with_text);
        c("borges_ner_entries_numeric_total", n.entries_numeric);
        c("borges_ner_numeric_in_aka_total", n.numeric_in_aka);
        c("borges_ner_numeric_in_notes_total", n.numeric_in_notes);
        c("borges_ner_llm_calls_total", n.llm_calls);
        c("borges_ner_llm_abandoned_total", n.llm_abandoned);
        c("borges_ner_filtered_out_total", n.filtered_out);
        c(
            "borges_ner_entries_with_siblings_total",
            n.entries_with_siblings,
        );
        c("borges_ner_extracted_asns_total", n.extracted_asns);
        tel.counter("borges_ner_prompt_tokens_total", n.usage.prompt_tokens);
        tel.counter(
            "borges_ner_completion_tokens_total",
            n.usage.completion_tokens,
        );

        let f = &self.favicon.stats;
        c("borges_favicon_favicons_total", f.favicons_total);
        c("borges_favicon_favicons_shared_total", f.favicons_shared);
        c("borges_favicon_urls_in_shared_total", f.urls_in_shared);
        c(
            "borges_favicon_same_label_groups_total",
            f.same_label_groups,
        );
        c("borges_favicon_merged_by_step1_total", f.merged_by_step1);
        c("borges_favicon_llm_calls_total", f.llm_calls);
        c("borges_favicon_llm_abandoned_total", f.llm_abandoned);
        c("borges_favicon_merged_by_llm_total", f.merged_by_llm);
        c(
            "borges_favicon_framework_rejections_total",
            f.framework_rejections,
        );
        c("borges_favicon_dont_know_total", f.dont_know);
        tel.counter("borges_favicon_prompt_tokens_total", f.usage.prompt_tokens);
        tel.counter(
            "borges_favicon_completion_tokens_total",
            f.usage.completion_tokens,
        );

        c(
            "borges_evidence_asns_total",
            self.compiled.interner.live_len(),
        );
        c(
            "borges_evidence_whois_groups_total",
            self.compiled.oid_w_groups.len(),
        );
        c(
            "borges_evidence_pdb_groups_total",
            self.compiled.oid_p_groups.len(),
        );
        c(
            "borges_evidence_rr_groups_total",
            self.rr.merging_groups().count(),
        );
        c(
            "borges_evidence_favicon_groups_total",
            self.favicon.groups.len(),
        );
        c(
            "borges_evidence_ner_links_total",
            segment_edge_count(&self.compiled.na),
        );
    }

    /// The mapping universe (all delegated ASNs), ascending. On an
    /// incremental run the interner may carry tombstoned slots for
    /// retired ASNs; those are excluded here.
    pub fn universe(&self) -> Vec<Asn> {
        self.compiled.interner.live_asns()
    }

    /// `true` when `asn` belongs to the live mapping universe. The
    /// membership probe of the serving read path: unlike
    /// [`Borges::universe`] it allocates nothing.
    pub fn contains(&self, asn: Asn) -> bool {
        self.compiled.interner.contains(asn)
    }

    /// Number of ASNs in the live universe, without materializing it.
    pub fn universe_len(&self) -> usize {
        self.compiled.interner.live_len()
    }

    /// Total compiled evidence edges the given feature subset would
    /// replay (the compulsory OID_W base included) — the cost model the
    /// weighted materialization scheduler and the serving layer's
    /// capacity planning both use.
    pub fn edge_weight(&self, features: FeatureSet) -> u64 {
        let mut w = 1 + segment_edge_count(&self.compiled.oid_w) as u64;
        if features.oid_p {
            w += segment_edge_count(&self.compiled.oid_p) as u64;
        }
        if features.na {
            w += segment_edge_count(&self.compiled.na) as u64;
        }
        if features.rr {
            w += segment_edge_count(&self.compiled.rr) as u64;
        }
        if features.favicons {
            w += segment_edge_count(&self.compiled.favicons) as u64;
        }
        w
    }

    /// Materializes the mapping for a feature subset. `OID_W` is always
    /// applied; selected features add their merge evidence on top, and
    /// union-find reconciles partially overlapping clusters (§4.1).
    ///
    /// Evidence about ASNs outside the delegated universe — e.g. an
    /// extraction false positive reading a year as an ASN that was never
    /// allocated — was discarded at compile time: the mapping's vertex
    /// set is fixed to the WHOIS universe (§5.4).
    ///
    /// This is a pure replay over pre-compiled state: clone the OID_W
    /// base closure, union the selected edge lists, read the groups out.
    /// Calls are independent, so any number can run concurrently — see
    /// [`Borges::mappings`].
    pub fn mapping(&self, features: FeatureSet) -> AsOrgMapping {
        let mut uf = self.compiled.base.clone();
        if features.oid_p {
            for seg in &self.compiled.oid_p {
                uf.union_edges(&seg.edges);
            }
        }
        if features.na {
            for seg in &self.compiled.na {
                uf.union_edges(&seg.edges);
            }
        }
        if features.rr {
            for seg in &self.compiled.rr {
                uf.union_edges(&seg.edges);
            }
        }
        if features.favicons {
            for seg in &self.compiled.favicons {
                uf.union_edges(&seg.edges);
            }
        }
        AsOrgMapping::from_groups(uf.into_groups(&self.compiled.interner))
    }

    /// Like [`Borges::mapping`], but replays the selected feature edge
    /// lists sharded over up to `shards` concurrent workers
    /// ([`DenseUnionFind::union_edge_lists_sharded`]). Byte-identical to
    /// the sequential replay for every feature set and shard count;
    /// `shards <= 1` *is* the sequential replay. This is the
    /// intra-mapping parallelism [`Borges::mappings`] falls
    /// back to when there are fewer feature combinations than workers.
    pub fn mapping_sharded(&self, features: FeatureSet, shards: usize) -> AsOrgMapping {
        self.mapping_sharded_traced(features, shards, &Telemetry::disabled())
    }

    fn mapping_sharded_traced(
        &self,
        features: FeatureSet,
        shards: usize,
        tel: &Telemetry,
    ) -> AsOrgMapping {
        if shards <= 1 {
            return self.mapping(features);
        }
        let mut uf = self.compiled.base.clone();
        let mut lists: Vec<&[(u32, u32)]> = Vec::new();
        if features.oid_p {
            lists.extend(self.compiled.oid_p.iter().map(|s| s.edges.as_slice()));
        }
        if features.na {
            lists.extend(self.compiled.na.iter().map(|s| s.edges.as_slice()));
        }
        if features.rr {
            lists.extend(self.compiled.rr.iter().map(|s| s.edges.as_slice()));
        }
        if features.favicons {
            lists.extend(self.compiled.favicons.iter().map(|s| s.edges.as_slice()));
        }
        let report = uf.union_edge_lists_sharded(&lists, shards, || tel.now_ms());
        record_shard_report(tel, "mapping", &report);
        AsOrgMapping::from_groups(uf.into_groups(&self.compiled.interner))
    }

    /// Materializes one mapping per feature set, fanning the independent
    /// replays out over `threads` worker threads. Results come back in
    /// input order and are bit-identical to calling [`Borges::mapping`]
    /// sequentially (assembly is key-canonical; threads change only
    /// wall-clock time). This is how the Table 6 sweep runs all 16
    /// combinations.
    ///
    /// When there are fewer feature sets than workers (e.g. the CLI's
    /// single `--features` mapping with `--threads 8`), the spare
    /// capacity moves *inside* each replay: every materialization runs
    /// [`Borges::mapping_sharded`] with `threads` shards instead. Pure
    /// scheduling — the results are byte-identical either way.
    ///
    /// An enabled `tel` records one logical `mappings/materialize` span
    /// per feature set (labelled with the combination), a
    /// `borges_mapping_materialize_ms` histogram observation per replay,
    /// and — because chunk-to-worker assignment is a scheduling detail —
    /// a *runtime* span plus a [`WorkerTiming`] ledger row per chunk.
    pub fn mappings(
        &self,
        features: &[FeatureSet],
        threads: usize,
        tel: &Telemetry,
    ) -> Vec<AsOrgMapping> {
        // With fewer combinations than workers, cross-combination
        // fan-out cannot use the spare threads; shard inside each
        // replay instead (byte-identical output either way).
        let shards = if threads > 1 && features.len() < threads {
            threads
        } else {
            1
        };
        if !tel.is_enabled() {
            // Replay cost is dominated by the selected edge lists (ALL
            // unions every segment, NONE only clones the base forest), so
            // weight-aware assignment keeps a Table 6 sweep from pinning
            // all the heavy combinations on one worker.
            return borges_parallel::map_items_weighted(
                features,
                threads,
                |&f| self.edge_weight(f),
                |&f| self.mapping_sharded(f, shards),
            );
        }
        let root = tel.span("mappings");
        root.field("combinations", features.len());
        let timed = borges_parallel::map_chunks_timed(
            features,
            threads,
            || tel.now_ms(),
            |chunk| {
                let chunk_span = root.child_runtime("chunk");
                chunk_span.field("items", chunk.len());
                chunk
                    .iter()
                    .map(|&f| {
                        let span = root.child("materialize");
                        span.field("features", f.label());
                        let started_ms = tel.now_ms();
                        let mapping = self.mapping_sharded_traced(f, shards, tel);
                        tel.observe_ms(
                            "borges_mapping_materialize_ms",
                            tel.now_ms().saturating_sub(started_ms),
                        );
                        mapping
                    })
                    .collect::<Vec<_>>()
            },
        );
        let mut out = Vec::with_capacity(features.len());
        for (mappings, timing) in timed {
            tel.record_worker(WorkerTiming {
                stage: "mapping".to_string(),
                chunk: timing.chunk as u64,
                items: timing.items as u64,
                started_ms: timing.started_ms,
                elapsed_ms: timing.elapsed_ms,
            });
            out.extend(mappings);
        }
        out
    }

    /// The AS2Org baseline (OID_W only).
    pub fn baseline_as2org(&self) -> AsOrgMapping {
        self.mapping(FeatureSet::NONE)
    }

    /// Full Borges (all features).
    pub fn full(&self) -> AsOrgMapping {
        self.mapping(FeatureSet::ALL)
    }

    /// The per-feature coverage report: what each transport-facing stage
    /// attempted, kept, and abandoned. Over a bare or fully-recovered
    /// stack this is [`complete`](CoverageReport::complete); it is
    /// [`accounted`](CoverageReport::accounted) always.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport {
            crawl: FeatureCoverage::new(
                self.scrape_stats.entries_with_website,
                self.scrape_stats.entries_abandoned,
            ),
            notes_aka: FeatureCoverage::new(self.ner.stats.llm_calls, self.ner.stats.llm_abandoned),
            favicon_groups: FeatureCoverage::new(
                self.favicon.stats.llm_calls,
                self.favicon.stats.llm_abandoned,
            ),
        }
    }

    /// Builds the unified run ledger: every stage funnel, the coverage
    /// ledger, per-boundary resilience spend, cache efficacy, sorted
    /// breaker events and worker timings, and the full metrics snapshot,
    /// in one serializable [`RunReport`]. `pipeline` names how the run
    /// executed ([`BuildPlan::label`]) and `threads` the fan-out width —
    /// pure labels, not re-derived.
    ///
    /// Pass the same `tel` the run recorded into; a disabled context
    /// yields a report with empty metrics/events but complete funnels.
    pub fn run_report(&self, tel: &Telemetry, pipeline: &str, threads: usize) -> RunReport {
        let u = |v: usize| v as u64;
        let s = &self.scrape_stats;
        let r = &self.rr.stats;
        let n = &self.ner.stats;
        let f = &self.favicon.stats;
        let resilience_row = |boundary: &str, rs: &ResilienceStats| ResilienceRow {
            boundary: boundary.to_string(),
            calls: rs.calls,
            attempts: rs.attempts,
            recovered: rs.recovered,
            abandoned: rs.abandoned,
            breaker_trips: rs.breaker_trips,
            breaker_fast_fails: rs.breaker_fast_fails,
        };
        let coverage_row = |feature: &str, cov: FeatureCoverage| CoverageRow {
            feature: feature.to_string(),
            attempted: u(cov.attempted),
            succeeded: u(cov.succeeded),
            abandoned: u(cov.abandoned),
        };
        let coverage = self.coverage();
        // Arrival order of both event streams is scheduling-dependent;
        // the ledger pins the sorted order.
        let mut breaker_events = tel.breaker_events();
        breaker_events.sort();
        let mut workers = tel.worker_timings();
        workers.sort();
        RunReport {
            schema: RUN_REPORT_SCHEMA.to_string(),
            pipeline: pipeline.to_string(),
            threads: threads as u64,
            crawl: CrawlFunnel {
                entries_with_website: u(s.entries_with_website),
                entries_with_invalid_url: u(s.entries_with_invalid_url),
                entries_abandoned: u(s.entries_abandoned),
                unique_urls: u(s.unique_urls),
                reachable_urls: u(s.reachable_urls),
                unique_final_urls: u(s.unique_final_urls),
                final_urls_with_favicon: u(s.final_urls_with_favicon),
                unique_favicons: u(s.unique_favicons),
            },
            rr: RrFunnel {
                networks_with_final_url: u(r.networks_with_final_url),
                blocked_networks: u(r.blocked_networks),
                distinct_final_urls: u(r.distinct_final_urls),
                shared_final_urls: u(r.shared_final_urls),
            },
            ner: NerFunnel {
                entries_total: u(n.entries_total),
                entries_with_text: u(n.entries_with_text),
                entries_numeric: u(n.entries_numeric),
                numeric_in_aka: u(n.numeric_in_aka),
                numeric_in_notes: u(n.numeric_in_notes),
                llm_calls: u(n.llm_calls),
                llm_abandoned: u(n.llm_abandoned),
                filtered_out: u(n.filtered_out),
                entries_with_siblings: u(n.entries_with_siblings),
                extracted_asns: u(n.extracted_asns),
                prompt_tokens: n.usage.prompt_tokens,
                completion_tokens: n.usage.completion_tokens,
            },
            favicon: FaviconFunnel {
                favicons_total: u(f.favicons_total),
                favicons_shared: u(f.favicons_shared),
                urls_in_shared: u(f.urls_in_shared),
                same_label_groups: u(f.same_label_groups),
                merged_by_step1: u(f.merged_by_step1),
                llm_calls: u(f.llm_calls),
                llm_abandoned: u(f.llm_abandoned),
                merged_by_llm: u(f.merged_by_llm),
                framework_rejections: u(f.framework_rejections),
                dont_know: u(f.dont_know),
                prompt_tokens: f.usage.prompt_tokens,
                completion_tokens: f.usage.completion_tokens,
            },
            evidence: EvidenceSummary {
                asns: u(self.compiled.interner.live_len()),
                whois_groups: u(self.compiled.oid_w_groups.len()),
                pdb_groups: u(self.compiled.oid_p_groups.len()),
                rr_groups: u(self.rr.merging_groups().count()),
                favicon_groups: u(self.favicon.groups.len()),
                ner_links: u(segment_edge_count(&self.compiled.na)),
            },
            delta: self.delta_report(),
            // The pipeline doesn't know about chains; the CLI overwrites
            // this row after a `--timeline` append.
            timeline: TimelineReport::default(),
            coverage: vec![
                coverage_row("crawl", coverage.crawl),
                coverage_row("notes_aka", coverage.notes_aka),
                coverage_row("favicon_groups", coverage.favicon_groups),
            ],
            resilience: vec![
                resilience_row("web", &s.resilience),
                resilience_row("llm.ner", &n.resilience),
                resilience_row("llm.favicon", &f.resilience),
            ],
            caches: vec![CacheReport::new("web.redirect", self.web_cache)],
            breaker_events,
            workers,
            metrics: tel.metrics_snapshot(),
        }
    }

    /// The run ledger's incremental-remap row group. On a full run this
    /// is the inert default (`incremental: false`, empty rows) so the
    /// report shape stays fixed across pipelines; on a remap it carries
    /// the record/edge delta classification and LLM-reuse accounting.
    /// Wall-clock savings are deliberately *not* ledger fields — the
    /// ledger must be byte-deterministic under the simulated clock — so
    /// the remap benchmark reports them instead.
    fn delta_report(&self) -> DeltaReport {
        let Some(d) = &self.delta else {
            return DeltaReport::default();
        };
        let record_row = |source: &str, sd: SourceDelta| DeltaRecordRow {
            source: source.to_string(),
            unchanged: sd.unchanged as u64,
            added: sd.added as u64,
            removed: sd.removed as u64,
            modified: sd.modified as u64,
        };
        let edge_row = |(feature, sd): (&'static str, SegmentDelta)| DeltaEdgeRow {
            feature: feature.to_string(),
            segments_retained: sd.segments_retained as u64,
            segments_rederived: sd.segments_rederived as u64,
            edges_retained: sd.edges_retained as u64,
            edges_rederived: sd.edges_rederived as u64,
        };
        DeltaReport {
            incremental: true,
            records: d
                .records
                .rows()
                .into_iter()
                .map(|(source, sd)| record_row(source, sd))
                .collect(),
            edges: d.edge_rows().into_iter().map(edge_row).collect(),
            asns_retained: d.asns_retained as u64,
            asns_added: d.asns_added as u64,
            asns_retired: d.asns_retired as u64,
            ner_reused: d.ner_reused as u64,
            ner_recomputed: d.ner_recomputed as u64,
            favicon_reused: d.favicon_reused as u64,
            favicon_recomputed: d.favicon_recomputed as u64,
            llm_calls_saved: d.llm_calls_saved() as u64,
        }
    }

    /// The per-feature component arrays, built on the first call.
    fn provenance(&self) -> &Provenance {
        self.provenance.get_or_init(|| Provenance::build(self))
    }

    /// Which evidence sources independently support `a` and `b` being
    /// siblings — the provenance of a merge. An empty result for a pair
    /// the full mapping merges means the link is *transitive only*
    /// (each hop supported by some feature, but no single feature sees
    /// the pair directly end to end).
    ///
    /// Two slot lookups and five compares against arrays built once per
    /// world (on the first call; see `Provenance`).
    pub fn evidence(&self, a: Asn, b: Asn) -> Vec<Feature> {
        let provenance = self.provenance();
        let interner = &self.compiled.interner;
        let (Some(x), Some(y)) = (provenance.slot(interner, a), provenance.slot(interner, b))
        else {
            return Vec::new();
        };
        Provenance::FEATURES
            .into_iter()
            .zip(&provenance.components)
            .filter(|(_, ids)| ids[x] != UNNAMED && ids[x] == ids[y])
            .map(|(feature, _)| feature)
            .collect()
    }

    /// Table 3: the feature's contribution in isolation.
    pub fn contribution(&self, feature: Feature) -> FeatureContribution {
        let count = |groups: &[Vec<Asn>]| {
            let ases: usize = groups.iter().map(Vec::len).sum();
            FeatureContribution {
                ases,
                orgs: groups.len(),
            }
        };
        match feature {
            Feature::OidW => count(&self.compiled.oid_w_groups),
            Feature::OidP => count(&self.compiled.oid_p_groups),
            Feature::RefreshRedirect => count(&self.rr.groups),
            Feature::NotesAka | Feature::Favicons => {
                // The feature's evidence clustered on its own: every
                // ASN it names, one organization per component.
                let ids = self.provenance().components(feature);
                FeatureContribution {
                    ases: ids.iter().filter(|&&id| id != UNNAMED).count(),
                    orgs: (ids.iter().enumerate())
                        .filter(|&(slot, &id)| id as usize == slot)
                        .count(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unionfind::tests::reference_groups;
    use borges_llm::SimLlm;
    use borges_synthnet::{GeneratorConfig, SyntheticInternet};
    use borges_websim::SimWebClient;

    /// A staged build with retries over `web`, recording into `tel`.
    fn resilient(
        world: &SyntheticInternet,
        web: impl WebClient,
        model: &dyn ChatModel,
        policy: RetryPolicy,
        tel: &Telemetry,
    ) -> Borges {
        let plan = BuildPlan {
            retry: Some(policy),
            ..BuildPlan::default()
        };
        Borges::build(
            &world.whois,
            &world.pdb,
            Source::Crawl(&web),
            model,
            &plan,
            tel,
        )
    }

    fn pipeline() -> (SyntheticInternet, Borges) {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        (world, borges)
    }

    #[test]
    fn baseline_reproduces_whois_split() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        assert!(
            !base.same_org(Asn::new(3356), Asn::new(209)),
            "Fig. 3 split"
        );
    }

    #[test]
    fn oid_p_feature_merges_lumen() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            oid_p: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(3356), Asn::new(209)), "Fig. 3 merge");
    }

    #[test]
    fn rr_feature_merges_edgio() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        assert!(!base.same_org(Asn::new(22822), Asn::new(15133)));
        let m = borges.mapping(FeatureSet {
            rr: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(22822), Asn::new(15133)), "§4.3.2 case");
    }

    #[test]
    fn na_feature_merges_deutsche_telekom() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            na: true,
            ..FeatureSet::NONE
        });
        assert!(m.same_org(Asn::new(3320), Asn::new(6855)), "Fig. 4 case");
        assert!(m.same_org(Asn::new(3320), Asn::new(5483)));
    }

    #[test]
    fn favicon_feature_merges_claro() {
        let (_, borges) = pipeline();
        let m = borges.mapping(FeatureSet {
            favicons: true,
            ..FeatureSet::NONE
        });
        assert!(
            m.same_org(Asn::new(27651), Asn::new(10396)),
            "Claro Chile + Claro PR via favicon + LLM"
        );
    }

    #[test]
    fn full_borges_groups_monotonically_vs_baseline() {
        let (_, borges) = pipeline();
        let base = borges.baseline_as2org();
        let full = borges.full();
        assert_eq!(base.asn_count(), full.asn_count(), "same universe");
        assert!(
            full.org_count() < base.org_count(),
            "features must merge organizations"
        );
        // Monotonicity: everything the baseline merged stays merged.
        for (_, members) in base.clusters() {
            for pair in members.windows(2) {
                assert!(full.same_org(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn all_16_combinations_enumerate() {
        let combos = FeatureSet::all_combinations();
        assert_eq!(combos.len(), 16);
        assert_eq!(combos[0], FeatureSet::NONE);
        assert_eq!(combos[15], FeatureSet::ALL);
        let labels: std::collections::BTreeSet<String> =
            combos.iter().map(FeatureSet::label).collect();
        assert_eq!(labels.len(), 16, "labels must be distinct");
    }

    #[test]
    fn feature_bits_round_trip_and_parse() {
        for (bits, combo) in FeatureSet::all_combinations().into_iter().enumerate() {
            assert_eq!(combo.bits(), bits as u8);
            assert_eq!(FeatureSet::from_bits(combo.bits()), combo);
        }
        assert_eq!(
            FeatureSet::from_bits(0xF0),
            FeatureSet::NONE,
            "high bits ignored"
        );
        assert_eq!(FeatureSet::parse("all").unwrap(), FeatureSet::ALL);
        assert_eq!(FeatureSet::parse("none").unwrap(), FeatureSet::NONE);
        let f = FeatureSet::parse("oid_p, favicons").unwrap();
        assert!(f.oid_p && f.favicons && !f.na && !f.rr);
        let err = FeatureSet::parse("oid_p,bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn read_path_accessors_agree_with_universe() {
        let (_, borges) = pipeline();
        let universe = borges.universe();
        assert_eq!(borges.universe_len(), universe.len());
        assert!(borges.contains(universe[0]));
        assert!(!borges.contains(Asn::new(4_294_000_000)));
        // Edge weight grows monotonically with the feature set.
        let none = borges.edge_weight(FeatureSet::NONE);
        let all = borges.edge_weight(FeatureSet::ALL);
        assert!(none >= 1);
        assert!(all > none, "optional features add edges");
    }

    #[test]
    fn contributions_have_sensible_shapes() {
        let (world, borges) = pipeline();
        let oid_w = borges.contribution(Feature::OidW);
        let oid_p = borges.contribution(Feature::OidP);
        assert_eq!(oid_w.ases, world.whois.asn_count());
        assert_eq!(oid_p.ases, world.pdb.net_count());
        assert!(oid_w.ases > oid_p.ases, "WHOIS covers more than PeeringDB");
        for f in Feature::ALL {
            let c = borges.contribution(f);
            assert!(c.orgs <= c.ases, "{:?}: more orgs than ASes", f);
        }
        let na = borges.contribution(Feature::NotesAka);
        assert!(na.ases > 0, "scripted sibling notes must fire");
        let rr = borges.contribution(Feature::RefreshRedirect);
        assert!(rr.ases > 0 && rr.orgs < rr.ases);
    }

    #[test]
    fn mapping_covers_the_whole_universe() {
        let (world, borges) = pipeline();
        let m = borges.full();
        assert_eq!(m.asn_count(), borges.universe().len());
        assert!(m.asn_count() >= world.whois.asn_count());
    }

    #[test]
    fn evidence_provenance_names_the_right_features() {
        let (_, borges) = pipeline();
        // Lumen/CenturyLink: merged by the PeeringDB key, not WHOIS.
        let ev = borges.evidence(Asn::new(3356), Asn::new(209));
        assert!(ev.contains(&Feature::OidP), "{ev:?}");
        assert!(!ev.contains(&Feature::OidW), "{ev:?}");
        // Edgio: merged by final-URL matching.
        let ev = borges.evidence(Asn::new(22822), Asn::new(15133));
        assert!(ev.contains(&Feature::RefreshRedirect), "{ev:?}");
        // Deutsche Telekom subsidiary: notes evidence.
        let ev = borges.evidence(Asn::new(3320), Asn::new(6855));
        assert!(ev.contains(&Feature::NotesAka), "{ev:?}");
        // Claro Chile / Claro PR: favicon evidence.
        let ev = borges.evidence(Asn::new(27651), Asn::new(10396));
        assert!(ev.contains(&Feature::Favicons), "{ev:?}");
        // Unrelated pair: no evidence at all.
        assert!(borges.evidence(Asn::new(174), Asn::new(15169)).is_empty());
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(13));
        let llm = SimLlm::new(13);
        let sequential = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        let parallel = Borges::run_parallel(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
            4,
        );
        assert_eq!(
            parallel.mapping(FeatureSet::ALL),
            sequential.mapping(FeatureSet::ALL)
        );
        assert_eq!(parallel.ner.per_entry, sequential.ner.per_entry);
        assert_eq!(parallel.scrape_stats, sequential.scrape_stats);
    }

    #[test]
    fn mappings_parallel_matches_sequential_mapping() {
        let (_, borges) = pipeline();
        let combos = FeatureSet::all_combinations();
        let sequential: Vec<_> = combos.iter().map(|&f| borges.mapping(f)).collect();
        for threads in [1, 2, 7] {
            assert_eq!(
                borges.mappings(&combos, threads, &Telemetry::disabled()),
                sequential,
                "diverged with {threads} threads"
            );
        }
    }

    #[test]
    fn compiled_replay_matches_sparse_rebuild() {
        // The dense replay must reproduce, for every feature subset, the
        // components a breadth-first search finds over the raw evidence
        // restricted to the universe.
        let (_, borges) = pipeline();
        let universe = borges.universe();
        for features in FeatureSet::all_combinations() {
            let mut groups: Vec<Vec<Asn>> = borges.compiled.oid_w_groups.clone();
            if features.oid_p {
                groups.extend(borges.compiled.oid_p_groups.iter().cloned());
            }
            if features.na {
                groups.extend(borges.ner.edges().into_iter().map(|(a, b)| vec![a, b]));
            }
            if features.rr {
                groups.extend(borges.rr.merging_groups().cloned());
            }
            if features.favicons {
                groups.extend(borges.favicon.groups.iter().cloned());
            }
            assert_eq!(
                borges.mapping(features),
                AsOrgMapping::from_groups(reference_groups(&universe, &groups)),
                "replay diverged for {}",
                features.label()
            );
        }
    }

    #[test]
    fn chaos_resilient_run_on_a_flawless_world_matches_run() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let bare = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        let resilient = resilient(
            &world,
            SimWebClient::browser(&world.web),
            &llm,
            RetryPolicy::standard(11),
            &Telemetry::disabled(),
        );
        for features in FeatureSet::all_combinations() {
            assert_eq!(resilient.mapping(features), bare.mapping(features));
        }
        let coverage = resilient.coverage();
        assert!(coverage.accounted());
        assert!(coverage.complete());
        // The stack was transparent: one attempt per call, nothing retried.
        let web = resilient.scrape_stats.resilience;
        assert_eq!(web.attempts, web.calls);
        assert_eq!(web.recovered + web.abandoned, 0);
        assert_eq!(
            resilient.ner.stats.resilience.calls as usize,
            resilient.ner.stats.llm_calls
        );
        assert_eq!(
            resilient.favicon.stats.resilience.calls as usize,
            resilient.favicon.stats.llm_calls
        );
    }

    #[test]
    fn chaos_recoverable_faults_yield_a_bit_identical_mapping() {
        use borges_llm::FlakyModel;
        use borges_resilience::{EpisodePlan, RetryPolicy};
        use borges_websim::FlakyWebClient;

        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let flawless = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &SimLlm::flawless(),
        );
        for seed in [1u64, 2, 3] {
            let flaky_web = FlakyWebClient::new(
                SimWebClient::browser(&world.web),
                EpisodePlan::calibrated(seed),
            );
            let flaky_llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::calibrated(seed ^ 1));
            let chaotic = resilient(
                &world,
                flaky_web,
                &flaky_llm,
                RetryPolicy::standard(seed),
                &Telemetry::disabled(),
            );
            // The keystone: every recoverable episode is erased entirely.
            for features in FeatureSet::all_combinations() {
                assert_eq!(
                    chaotic.mapping(features),
                    flawless.mapping(features),
                    "seed {seed}, {}",
                    features.label()
                );
            }
            let coverage = chaotic.coverage();
            assert!(coverage.complete(), "seed {seed}: nothing may be lost");
            assert!(coverage.accounted());
            assert!(
                chaotic.scrape_stats.resilience.recovered
                    + chaotic.ner.stats.resilience.recovered
                    + chaotic.favicon.stats.resilience.recovered
                    > 0,
                "seed {seed}: the plan must actually have injected faults"
            );
        }
    }

    #[test]
    fn chaos_unrecoverable_faults_degrade_with_full_accounting() {
        use borges_llm::FlakyModel;
        use borges_resilience::{EpisodePlan, RetryPolicy};
        use borges_websim::FlakyWebClient;

        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let flawless = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &SimLlm::flawless(),
        );
        // Permanent outages and no retries: losses are guaranteed.
        let flaky_web = FlakyWebClient::new(
            SimWebClient::browser(&world.web),
            EpisodePlan::with_outages(7),
        );
        let flaky_llm = FlakyModel::new(SimLlm::flawless(), EpisodePlan::with_outages(8));
        let degraded = resilient(
            &world,
            flaky_web,
            &flaky_llm,
            RetryPolicy::none(),
            &Telemetry::disabled(),
        );

        // The run completed and every loss is on the books.
        let coverage = degraded.coverage();
        assert!(coverage.accounted(), "abandoned + succeeded == attempted");
        assert!(
            coverage.total_abandoned() > 0,
            "outages must cost something"
        );
        // Client-level accounting: one call per distinct URL (the cache
        // dedups), and every call either succeeded or was abandoned.
        let web = degraded.scrape_stats.resilience;
        assert_eq!(web.calls as usize, degraded.scrape_stats.unique_urls);
        assert_eq!(web.succeeded() + web.abandoned, web.calls);

        // Degradation only removes evidence: everything still merged is
        // merged in the flawless world too, and the universe is intact.
        let full = degraded.full();
        let reference = flawless.full();
        assert_eq!(full.asn_count(), reference.asn_count());
        for (_, members) in full.clusters() {
            for pair in members.windows(2) {
                assert!(
                    reference.same_org(pair[0], pair[1]),
                    "degraded run invented a merge: {:?}",
                    pair
                );
            }
        }
    }

    #[test]
    fn traced_run_emits_stage_spans_and_funnel_counters() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = Borges::build(
            &world.whois,
            &world.pdb,
            Source::Crawl(&SimWebClient::browser(&world.web)),
            &llm,
            &BuildPlan::default(),
            &tel,
        );
        // One logical span per stage, under the root.
        let paths: Vec<String> = tel.trace_records().iter().map(|r| r.path.clone()).collect();
        for path in [
            "run",
            "run/crawl",
            "run/ner",
            "run/rr",
            "run/favicon",
            "run/compile",
        ] {
            assert!(paths.contains(&path.to_string()), "missing span {path}");
        }
        // Funnel counters come from the merged stats, verbatim.
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.counter("borges_crawl_unique_urls_total") as usize,
            borges.scrape_stats.unique_urls
        );
        assert_eq!(
            snap.counter("borges_ner_llm_calls_total") as usize,
            borges.ner.stats.llm_calls
        );
        assert_eq!(
            snap.counter("borges_evidence_asns_total") as usize,
            borges.universe().len()
        );
        // Stage durations were observed (zero under SimClock, but present).
        for metric in [
            "borges_stage_crawl_ms",
            "borges_stage_ner_ms",
            "borges_stage_rr_ms",
            "borges_stage_favicon_ms",
            "borges_stage_compile_ms",
        ] {
            assert_eq!(snap.histogram(metric).unwrap().count, 1, "{metric}");
        }
        // The redirect cache saw every unique URL miss once (sequential).
        assert_eq!(
            borges.web_cache.misses as usize,
            borges.scrape_stats.unique_urls
        );
    }

    #[test]
    fn traced_mappings_record_materializations_and_worker_timings() {
        use borges_telemetry::{Telemetry, Verbosity};
        let (_, borges) = pipeline();
        let combos = FeatureSet::all_combinations();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let mapped = borges.mappings(&combos, 4, &tel);
        assert_eq!(mapped, borges.mappings(&combos, 4, &Telemetry::disabled()));
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.histogram("borges_mapping_materialize_ms")
                .unwrap()
                .count,
            16
        );
        // One worker-timing row per chunk, accounting for every item.
        let workers = tel.worker_timings();
        assert_eq!(workers.len(), 4);
        assert_eq!(workers.iter().map(|w| w.items).sum::<u64>(), 16);
        // One logical materialize span per combination, each labelled.
        let records = tel.trace_records();
        let materialize: Vec<_> = records
            .iter()
            .filter(|r| r.path == "mappings/materialize")
            .collect();
        assert_eq!(materialize.len(), 16);
        let labels: BTreeSet<&str> = materialize
            .iter()
            .flat_map(|r| r.fields.iter())
            .filter(|f| f.key == "features")
            .map(|f| f.value.as_str())
            .collect();
        assert_eq!(labels.len(), 16, "every combination labelled distinctly");
    }

    #[test]
    fn run_report_mirrors_stats_and_balances() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let borges = resilient(
            &world,
            SimWebClient::browser(&world.web),
            &llm,
            RetryPolicy::standard(11),
            &tel,
        );
        let report = borges.run_report(&tel, "resilient", 1);
        assert_eq!(report.schema, borges_telemetry::RUN_REPORT_SCHEMA);
        assert!(report.accounted(), "abandoned + succeeded == attempted");
        assert_eq!(
            report.crawl.unique_urls as usize,
            borges.scrape_stats.unique_urls
        );
        assert_eq!(report.ner.llm_calls as usize, borges.ner.stats.llm_calls);
        assert_eq!(
            report.evidence.whois_groups as usize,
            borges.compiled.oid_w_groups.len()
        );
        // Boundary rows mirror the stamped resilience stats.
        assert_eq!(report.resilience.len(), 3);
        assert_eq!(report.resilience[0].boundary, "web");
        assert_eq!(
            report.resilience[0].calls,
            borges.scrape_stats.resilience.calls
        );
        assert_eq!(report.resilience[1].boundary, "llm.ner");
        assert_eq!(
            report.resilience[1].calls,
            borges.ner.stats.resilience.calls
        );
        // The redirect-cache ledger row is present and consistent.
        assert_eq!(report.caches.len(), 1);
        assert_eq!(report.caches[0].name, "web.redirect");
        assert_eq!(
            report.caches[0].misses as usize,
            borges.scrape_stats.unique_urls
        );
        // The embedded snapshot matches what the context holds, and the
        // whole ledger round-trips through JSON.
        assert_eq!(report.metrics, tel.metrics_snapshot());
        let back = borges_telemetry::RunReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn feature_order_does_not_matter() {
        // Union-find is order-insensitive; two different routes to the
        // same feature set must agree exactly.
        let (_, borges) = pipeline();
        let a = borges.mapping(FeatureSet::ALL);
        let b = borges.mapping(FeatureSet::ALL);
        assert_eq!(a, b);
    }

    /// Runs a full compile and an incremental remap over the same T+1
    /// inputs and asserts the keystone: every feature combination's
    /// mapfile is byte-identical.
    fn assert_remap_matches_full(world: &SyntheticInternet, state: &SnapshotState) {
        let llm = SimLlm::flawless();
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let full = Borges::from_scrape(
            &world.whois,
            &world.pdb,
            &report,
            &llm,
            NerConfig::default(),
        );
        let inc = Borges::remap_parallel(
            &world.whois,
            &world.pdb,
            &report,
            &llm,
            NerConfig::default(),
            state,
            1,
        );
        assert_eq!(inc.universe(), full.universe());
        for f in FeatureSet::all_combinations() {
            assert_eq!(
                crate::mapfile::serialize(&inc.mapping(f)),
                crate::mapfile::serialize(&full.mapping(f)),
                "remap must be byte-identical to full compile for {f:?}"
            );
        }
    }

    #[test]
    fn remap_of_unchanged_world_is_byte_identical_and_llm_free() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let t0 = Borges::from_scrape(
            &world.whois,
            &world.pdb,
            &report,
            &llm,
            NerConfig::default(),
        );
        let state = t0.snapshot_state();
        assert_remap_matches_full(&world, &state);

        // With nothing changed, every LLM answer replays from the memo
        // and every edge segment is carried over verbatim.
        let inc = Borges::remap_parallel(
            &world.whois,
            &world.pdb,
            &report,
            &llm,
            NerConfig::default(),
            &state,
            1,
        );
        assert_eq!(inc.ner.stats.llm_calls, 0, "NER must replay from memo");
        assert_eq!(
            inc.favicon.stats.llm_calls, 0,
            "favicon must replay from memo"
        );
        let d = inc.delta.as_ref().expect("remap records delta stats");
        assert_eq!(d.records.dirty(), 0);
        assert_eq!(d.asns_added + d.asns_retired, 0);
        for (feature, sd) in d.edge_rows() {
            assert_eq!(sd.segments_rederived, 0, "{feature} segments re-derived");
            assert_eq!(sd.edges_rederived, 0, "{feature} edges re-derived");
        }
        assert_eq!(d.llm_calls_saved(), d.ner_reused + d.favicon_reused);
        assert!(d.llm_calls_saved() > 0, "the memo replay saved real calls");
    }

    #[test]
    fn remap_against_a_foreign_state_still_matches_full_compile() {
        // Degenerate delta: the persisted state comes from a *different*
        // world, so essentially every record is added/removed/modified.
        // Correctness must not depend on reuse actually happening.
        let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let t1 = SyntheticInternet::generate(&GeneratorConfig::tiny(77));
        let llm = SimLlm::flawless();
        let scraper = Scraper::new(SimWebClient::browser(&t0.web));
        let report = scraper.crawl(t0.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let state = Borges::from_scrape(&t0.whois, &t0.pdb, &report, &llm, NerConfig::default())
            .snapshot_state();
        assert_remap_matches_full(&t1, &state);
    }

    #[test]
    fn remap_emits_stage_spans_and_delta_counters() {
        use borges_telemetry::{Telemetry, Verbosity};
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let llm = SimLlm::flawless();
        let scraper = Scraper::new(SimWebClient::browser(&world.web));
        let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
        let state = Borges::from_scrape(
            &world.whois,
            &world.pdb,
            &report,
            &llm,
            NerConfig::default(),
        )
        .snapshot_state();
        let tel = Telemetry::sim(Verbosity::Quiet);
        let plan = BuildPlan {
            base: Some(&state),
            ..BuildPlan::default()
        };
        let inc = Borges::build(
            &world.whois,
            &world.pdb,
            Source::Scraped(&report),
            &llm,
            &plan,
            &tel,
        );
        let paths: Vec<String> = tel.trace_records().iter().map(|r| r.path.clone()).collect();
        for path in [
            "remap",
            "remap/ner",
            "remap/rr",
            "remap/favicon",
            "remap/apply",
        ] {
            assert!(paths.contains(&path.to_string()), "missing span {path}");
        }
        let metrics = tel.metrics_snapshot();
        let counter = |name: &str| metrics.counter(name);
        assert_eq!(counter("borges_delta_records_dirty_total"), 0);
        assert_eq!(counter("borges_delta_segments_rederived_total"), 0);
        assert!(counter("borges_delta_segments_retained_total") > 0);
        assert_eq!(
            counter("borges_delta_llm_calls_saved_total") as usize,
            inc.delta.as_ref().unwrap().llm_calls_saved()
        );
        // The run ledger carries the same accounting as typed rows.
        let ledger = inc.run_report(&tel, "remap", 1);
        assert!(ledger.delta.incremental);
        assert!(ledger.delta.consistent());
        assert_eq!(ledger.delta.records.len(), 5);
        assert_eq!(ledger.delta.edges.len(), 5);
    }

    #[test]
    fn streaming_remap_matches_staged_remap() {
        // `base` with the streaming engine is a combination no wrapper
        // offers: it must fall out of the shared build body unchanged.
        use borges_telemetry::{Telemetry, Verbosity};
        let t0 = SyntheticInternet::generate(&GeneratorConfig::tiny(11));
        let t1 = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let llm = SimLlm::flawless();
        let crawl = |world: &SyntheticInternet| {
            Scraper::new(SimWebClient::browser(&world.web))
                .crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())))
        };
        let state =
            Borges::from_scrape(&t0.whois, &t0.pdb, &crawl(&t0), &llm, NerConfig::default())
                .snapshot_state();
        let report = crawl(&t1);
        let remap = |engine: Engine| {
            let tel = Telemetry::sim(Verbosity::Quiet);
            let plan = BuildPlan {
                threads: 3,
                engine,
                base: Some(&state),
                ..BuildPlan::default()
            };
            let borges = Borges::build(
                &t1.whois,
                &t1.pdb,
                Source::Scraped(&report),
                &llm,
                &plan,
                &tel,
            );
            let maps: Vec<String> = FeatureSet::all_combinations()
                .into_iter()
                .map(|f| crate::mapfile::serialize(&borges.mapping(f)))
                .collect();
            (
                maps,
                tel.trace_jsonl_canonical(),
                tel.metrics_snapshot().to_prometheus(),
                borges.delta,
            )
        };
        let staged = remap(Engine::Staged);
        assert!(staged.3.is_some(), "a based build is incremental");
        assert_eq!(remap(Engine::Streaming(StreamOptions::default())), staged);
    }
}
