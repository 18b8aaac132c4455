//! *as2org+* (Arturi et al., PAM 2023): AS2Org enriched with PeeringDB.
//!
//! Two configurations are implemented:
//!
//! * [`As2orgPlusConfig::automated`] — the §5.1 comparison setup: AS2Org
//!   plus the PeeringDB organization key, with every manual step removed.
//!   This is the "as2org+" row of Table 6 (θ = 0.3467 in the paper).
//! * [`As2orgPlusConfig::with_regex`] — additionally runs the published
//!   regex sibling extraction over `notes`/`aka`. Deliberately faithful
//!   to its failure modes: the regexes have no semantic context, so phone
//!   numbers, years, street addresses and upstream listings become
//!   sibling "evidence" — the false positives that forced the original
//!   system into manual curation and that Borges's LLM stage eliminates.

use borges_core::delta::chain_edges;
use borges_core::orgkeys::{oid_p_groups, oid_w_groups};
use borges_core::{AsOrgMapping, DenseUnionFind};
use borges_peeringdb::PdbSnapshot;
use borges_types::{Asn, AsnInterner};
use borges_whois::WhoisRegistry;
use std::collections::BTreeSet;

/// Configuration of the as2org+ reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct As2orgPlusConfig {
    /// Merge PeeringDB organization keys (`OID_P`).
    pub use_oid_p: bool,
    /// Run the regex sibling extraction over `notes`/`aka`.
    pub regex_extraction: bool,
    /// With regex extraction: also harvest bare (un-prefixed) numbers,
    /// the noisiest part of the published pipeline.
    pub bare_numbers: bool,
}

impl As2orgPlusConfig {
    /// The fully automated configuration used for the paper's comparison
    /// (§5.1): organization keys only.
    pub const fn automated() -> Self {
        As2orgPlusConfig {
            use_oid_p: true,
            regex_extraction: false,
            bare_numbers: false,
        }
    }

    /// The published pipeline including regex extraction (without the
    /// human curation that normally follows it).
    pub const fn with_regex() -> Self {
        As2orgPlusConfig {
            use_oid_p: true,
            regex_extraction: true,
            bare_numbers: true,
        }
    }
}

/// The rule-based sibling extraction of as2org+: pattern-matched ASNs
/// with no semantic context.
///
/// * `AS`/`ASN`-prefixed digit runs are always harvested;
/// * with `bare_numbers`, any digit run of 2–7 digits is harvested too
///   (this is where years and phone fragments come from).
///
/// Only basic validity filtering is applied (routable 32-bit ASN) —
/// context does not exist in a regex.
pub fn regex_extract(subject: Asn, notes: &str, aka: &str, bare_numbers: bool) -> Vec<Asn> {
    let mut out = BTreeSet::new();
    for text in [notes, aka] {
        let lower = text.to_lowercase();
        let bytes = lower.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_digit() {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let run = &lower[start..i];
                if run.len() > 10 {
                    continue;
                }
                let value: u32 = match run.parse() {
                    Ok(v) => v,
                    Err(_) => continue,
                };
                let prefixed = has_as_prefix(&lower, start);
                let asn = Asn::new(value);
                if asn == subject || !asn.is_routable() {
                    continue;
                }
                if prefixed || (bare_numbers && (2..=7).contains(&run.len())) {
                    out.insert(asn);
                }
            } else {
                i += 1;
            }
        }
    }
    out.into_iter().collect()
}

fn has_as_prefix(lower: &str, start: usize) -> bool {
    let head = lower[..start].trim_end_matches([' ', '-', ':', '#']);
    let bytes = head.as_bytes();
    let check = |word: &str| {
        head.ends_with(word)
            && (head.len() == word.len()
                || !bytes[head.len() - word.len() - 1].is_ascii_alphanumeric())
    };
    check("as") || check("asn")
}

/// Builds the as2org+ mapping.
pub fn as2orgplus(
    whois: &WhoisRegistry,
    pdb: &PdbSnapshot,
    config: As2orgPlusConfig,
) -> AsOrgMapping {
    let allocated = AsnInterner::new(whois.all_asns().chain(pdb.nets().map(|n| n.asn)));
    let mut uf = DenseUnionFind::new(allocated.len());
    uf.union_edges(&chain_edges(&allocated, &oid_w_groups(whois)));
    if config.use_oid_p {
        uf.union_edges(&chain_edges(&allocated, &oid_p_groups(pdb)));
    }
    if config.regex_extraction {
        for net in pdb.nets() {
            for sibling in regex_extract(net.asn, &net.notes, &net.aka, config.bare_numbers) {
                if let (Some(a), Some(b)) = (allocated.id(net.asn), allocated.id(sibling)) {
                    uf.union(a, b);
                }
            }
        }
    }
    AsOrgMapping::from_groups(uf.into_groups(&allocated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_synthnet::{GeneratorConfig, SyntheticInternet};

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn regex_finds_prefixed_asns() {
        let got = regex_extract(a(1), "Siblings: AS209 and AS3356.", "", false);
        assert_eq!(got, vec![a(209), a(3356)]);
    }

    #[test]
    fn regex_misreads_upstream_listings() {
        // The Maxihost case (Listing 1): regexes cannot tell upstreams
        // from siblings — the LLM can.
        let notes = "We connect directly with the following ISPs,\n- Cogent (AS174)";
        let got = regex_extract(a(262287), notes, "", false);
        assert_eq!(
            got,
            vec![a(174)],
            "as2org+ must exhibit this false positive"
        );
    }

    #[test]
    fn regex_bare_numbers_misread_years_and_phones() {
        let notes = "Founded 1998. NOC phone 555 0100.";
        let got = regex_extract(a(1), notes, "", true);
        assert!(
            got.contains(&a(1998)),
            "the year-as-ASN false positive: {got:?}"
        );
    }

    #[test]
    fn regex_without_bare_numbers_is_quieter() {
        let notes = "Founded 1998. NOC phone 555 0100.";
        assert!(regex_extract(a(1), notes, "", false).is_empty());
    }

    #[test]
    fn automated_config_is_keys_only() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(5));
        let m = as2orgplus(&world.whois, &world.pdb, As2orgPlusConfig::automated());
        // OID_P merges Lumen (Fig. 3)…
        assert!(m.same_org(a(3356), a(209)));
        // …but text-only evidence (Deutsche Telekom's notes) is not used.
        assert!(!m.same_org(a(3320), a(5483)));
    }

    #[test]
    fn as2orgplus_groups_at_least_as_much_as_as2org() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(5));
        let base = crate::as2org(&world.whois);
        let plus = as2orgplus(&world.whois, &world.pdb, As2orgPlusConfig::automated());
        assert!(plus.org_count() <= base.org_count());
    }

    #[test]
    fn regex_config_merges_more_but_wrongly() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(5));
        let automated = as2orgplus(&world.whois, &world.pdb, As2orgPlusConfig::automated());
        let with_regex = as2orgplus(&world.whois, &world.pdb, As2orgPlusConfig::with_regex());
        assert!(
            with_regex.org_count() <= automated.org_count(),
            "regex evidence can only merge further"
        );
        // And some of those merges are wrong: a network mentioning its
        // upstream (AS174, Cogent) gets fused with it.
        let mut wrong = 0;
        for (_, members) in with_regex.clusters() {
            for pair in members.windows(2) {
                if !world.truth.are_siblings(pair[0], pair[1])
                    && world.truth.org_of(pair[0]).is_some()
                    && world.truth.org_of(pair[1]).is_some()
                    && !automated.same_org(pair[0], pair[1])
                {
                    wrong += 1;
                }
            }
        }
        assert!(wrong > 0, "the regex baseline should make wrong merges");
    }
}
