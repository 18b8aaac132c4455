//! §4.1 — Organization keys: clustering by `OID_W` and `OID_P`.
//!
//! Both WHOIS and PeeringDB link networks to organization objects via a
//! one-to-many relation. Grouping ASNs by those foreign keys gives the two
//! foundational mappings; merging the *partially overlapping* clusters
//! they produce (Fig. 3's Lumen/CenturyLink case) is what the
//! pipeline's union-find does downstream.

use crate::mapping::{canonical_groups, AsOrgMapping};
use borges_peeringdb::PdbSnapshot;
use borges_types::Asn;
use borges_whois::WhoisRegistry;
use std::collections::BTreeMap;

/// Every allocated ASN grouped by its WHOIS organization handle
/// (`OID_W`): one `(handle, members)` entry per organization, handles
/// ascending, members ascending. The one WHOIS grouping pass — the
/// mapping, the flat groups and the pipeline's keyed segments
/// ([`crate::delta::keyed_whois_groups`]) all read it. It reads the
/// registry's own org-to-members index rather than regrouping the
/// aut-nums.
pub fn by_whois_org(whois: &WhoisRegistry) -> Vec<(&str, Vec<Asn>)> {
    whois
        .members()
        .map(|(org, members)| (org.as_str(), members.iter().copied().collect()))
        .collect()
}

/// Every PeeringDB-registered ASN grouped by its PeeringDB organization
/// (`OID_P`), org ids ascending, members ascending. The PeeringDB
/// analogue of [`by_whois_org`].
pub fn by_pdb_org(pdb: &PdbSnapshot) -> Vec<(u64, Vec<Asn>)> {
    let mut groups: BTreeMap<u64, Vec<Asn>> = BTreeMap::new();
    for net in pdb.nets() {
        groups.entry(net.org_id.value()).or_default().push(net.asn);
    }
    sorted_members(groups)
}

fn sorted_members<K: Ord>(groups: BTreeMap<K, Vec<Asn>>) -> Vec<(K, Vec<Asn>)> {
    groups
        .into_iter()
        .map(|(key, mut members)| {
            members.sort_unstable();
            (key, members)
        })
        .collect()
}

/// Groups every allocated ASN by its WHOIS organization handle (`OID_W`) —
/// exactly CAIDA AS2Org's core inference.
pub fn oid_w_mapping(whois: &WhoisRegistry) -> AsOrgMapping {
    AsOrgMapping::from_groups(by_whois_org(whois).into_iter().map(|(_, m)| m))
}

/// Groups every PeeringDB-registered ASN by its PeeringDB organization
/// (`OID_P`).
pub fn oid_p_mapping(pdb: &PdbSnapshot) -> AsOrgMapping {
    AsOrgMapping::from_groups(by_pdb_org(pdb).into_iter().map(|(_, m)| m))
}

/// The sibling *groups* each key source contributes as merge evidence
/// (same content and order as the mapping's clusters).
pub fn oid_w_groups(whois: &WhoisRegistry) -> Vec<Vec<Asn>> {
    canonical_groups(by_whois_org(whois).into_iter().map(|(_, m)| m))
}

/// See [`oid_w_groups`]; the PeeringDB analogue.
pub fn oid_p_groups(pdb: &PdbSnapshot) -> Vec<Vec<Asn>> {
    canonical_groups(by_pdb_org(pdb).into_iter().map(|(_, m)| m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_peeringdb::{PdbNetwork, PdbOrganization};
    use borges_types::{OrgName, PdbOrgId, WhoisOrgId};
    use borges_whois::{AutNum, Rir, WhoisOrg};

    fn whois_fixture() -> WhoisRegistry {
        let org = |id: &str| WhoisOrg {
            id: WhoisOrgId::new(id),
            name: OrgName::new(id),
            country: "US".parse().unwrap(),
            source: Rir::Arin,
            changed: 0,
        };
        let aut = |asn: u32, org: &str| AutNum {
            asn: Asn::new(asn),
            name: format!("N{asn}"),
            org: WhoisOrgId::new(org),
            source: Rir::Arin,
            changed: 0,
        };
        WhoisRegistry::builder()
            .org(org("LPL"))
            .org(org("CTL"))
            .aut(aut(3356, "LPL"))
            .aut(aut(3549, "LPL"))
            .aut(aut(209, "CTL"))
            .build()
            .unwrap()
    }

    fn pdb_fixture() -> PdbSnapshot {
        let org = |id: u64, name: &str| PdbOrganization {
            id: PdbOrgId::new(id),
            name: name.into(),
            website: String::new(),
            country: "US".into(),
        };
        let net = |id: u64, org: u64, asn: u32| PdbNetwork {
            id,
            org_id: PdbOrgId::new(org),
            asn: Asn::new(asn),
            name: format!("net{id}"),
            aka: String::new(),
            notes: String::new(),
            website: String::new(),
        };
        PdbSnapshot::builder()
            .org(org(1, "Lumen"))
            .net(net(10, 1, 3356))
            .net(net(11, 1, 209))
            .build()
            .unwrap()
    }

    #[test]
    fn oid_w_reproduces_the_whois_split() {
        let m = oid_w_mapping(&whois_fixture());
        assert_eq!(m.org_count(), 2);
        assert!(m.same_org(Asn::new(3356), Asn::new(3549)));
        assert!(!m.same_org(Asn::new(3356), Asn::new(209)));
    }

    #[test]
    fn oid_p_reproduces_the_pdb_merge() {
        let m = oid_p_mapping(&pdb_fixture());
        assert_eq!(m.org_count(), 1);
        assert!(m.same_org(Asn::new(3356), Asn::new(209)));
    }

    #[test]
    fn keys_cover_their_sources_exactly() {
        let w = oid_w_mapping(&whois_fixture());
        assert_eq!(w.asn_count(), 3);
        let p = oid_p_mapping(&pdb_fixture());
        assert_eq!(p.asn_count(), 2);
    }

    #[test]
    fn group_views_match_mappings() {
        let groups = oid_w_groups(&whois_fixture());
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    /// The WHOIS grouping as a regrouping of every aut-num through a
    /// handle-keyed map — the oracle [`by_whois_org`] is pinned to.
    fn oracle_by_whois_org(whois: &WhoisRegistry) -> Vec<(&str, Vec<Asn>)> {
        let mut groups: BTreeMap<&str, Vec<Asn>> = BTreeMap::new();
        for aut in whois.aut_nums() {
            groups.entry(aut.org.as_str()).or_default().push(aut.asn);
        }
        groups
            .into_iter()
            .map(|(key, mut members)| {
                members.sort_unstable();
                (key, members)
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn by_whois_org_equals_the_regrouping_it_replaces(
            owners in prop::collection::vec(0usize..12, 0..60),
            orgs in 1usize..14,
        ) {
            // Handles whose string order differs from their numbering
            // ("ORG-10" < "ORG-2"); some own nothing.
            let org = |i: usize| WhoisOrg {
                id: WhoisOrgId::new(format!("org-{i}")),
                name: OrgName::new(format!("org {i}")),
                country: "US".parse().unwrap(),
                source: Rir::RipeNcc,
                changed: 0,
            };
            let auts = owners.iter().enumerate().map(|(i, &owner)| AutNum {
                // Descending ASNs: registry input order is not ASN order.
                asn: Asn::new(4_000_000 - i as u32 * 613),
                name: format!("N{i}"),
                org: WhoisOrgId::new(format!("org-{}", owner % orgs)),
                source: Rir::RipeNcc,
                changed: 0,
            });
            let whois = WhoisRegistry::builder()
                .extend((0..orgs).map(org), auts)
                .build()
                .unwrap();
            prop_assert_eq!(by_whois_org(&whois), oracle_by_whois_org(&whois));
        }
    }

    #[test]
    fn by_whois_org_equals_the_regrouping_on_a_generated_world() {
        let world = borges_synthnet::SyntheticInternet::generate(
            &borges_synthnet::GeneratorConfig::tiny(5),
        );
        assert_eq!(
            by_whois_org(&world.whois),
            oracle_by_whois_org(&world.whois)
        );
    }
}
