//! Property-based tests over the core data structures and invariants.

use borges_core::orgfactor::organization_factor;
use borges_core::{AsOrgMapping, DenseUnionFind};
use borges_types::{Asn, AsnInterner, FaviconHash, Url};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn asn_strategy() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn::new)
}

/// Random partitions of a small ASN space (groups are disjoint by
/// construction: indices chunked).
fn partition_strategy() -> impl Strategy<Value = Vec<Vec<Asn>>> {
    (1usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let mut groups: Vec<Vec<Asn>> = Vec::new();
        let mut current: Vec<Asn> = Vec::new();
        let mut state = seed | 1;
        for i in 0..n {
            current.push(Asn::new(i as u32 + 1));
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state % 3 == 0 {
                groups.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }
        groups
    })
}

proptest! {
    #[test]
    fn asn_display_parse_roundtrip(asn in asn_strategy()) {
        let shown = asn.to_string();
        let parsed: Asn = shown.parse().unwrap();
        prop_assert_eq!(parsed, asn);
        let bare: Asn = asn.value().to_string().parse().unwrap();
        prop_assert_eq!(bare, asn);
    }

    #[test]
    fn asn_special_ranges_are_disjoint_from_routable(asn in asn_strategy()) {
        if asn.is_routable() {
            prop_assert!(!asn.is_private());
            prop_assert!(!asn.is_documentation());
            prop_assert!(!asn.is_reserved());
        }
    }

    #[test]
    fn url_roundtrips_through_display(
        label_a in "[a-z][a-z0-9]{0,8}",
        label_b in "[a-z][a-z0-9]{0,8}",
        tld in prop::sample::select(vec!["com", "net", "cl", "co.uk", "com.br"]),
        path in "[a-z0-9/]{0,12}",
        https in any::<bool>(),
    ) {
        let scheme = if https { "https" } else { "http" };
        let raw = format!("{scheme}://{label_a}.{label_b}.{tld}/{path}");
        let url: Url = raw.parse().unwrap();
        let reparsed: Url = url.to_string().parse().unwrap();
        prop_assert_eq!(&url, &reparsed);
        // Canonical equality is an equivalence on the canonical form.
        prop_assert_eq!(url.canonical(), reparsed.canonical());
    }

    #[test]
    fn favicon_hash_is_deterministic_and_sensitive(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let h1 = FaviconHash::of_bytes(&bytes);
        let h2 = FaviconHash::of_bytes(&bytes);
        prop_assert_eq!(h1, h2);
        let mut extended = bytes.clone();
        extended.push(0xAB);
        prop_assert_ne!(h1, FaviconHash::of_bytes(&extended));
    }

    #[test]
    fn union_find_groups_partition_the_universe(
        unions in prop::collection::vec((1u32..40, 1u32..40), 0..80)
    ) {
        let interner = AsnInterner::new((1u32..40).map(Asn::new));
        let id = |n: u32| interner.id(Asn::new(n)).unwrap();
        let mut uf = DenseUnionFind::new(interner.len());
        for (a, b) in &unions {
            uf.union(id(*a), id(*b));
        }
        let groups = uf.clone().into_groups(&interner);
        // Partition: disjoint cover of exactly the universe.
        let mut covered = BTreeSet::new();
        for group in &groups {
            for asn in group {
                prop_assert!(covered.insert(*asn), "element in two groups");
            }
        }
        prop_assert_eq!(covered, interner.live_asns().into_iter().collect::<BTreeSet<_>>());
        // same_set agrees with group membership, and every union holds.
        for group in &groups {
            for pair in group.windows(2) {
                prop_assert!(uf.same_set(id(pair[0].value()), id(pair[1].value())));
            }
        }
        for (a, b) in &unions {
            prop_assert!(uf.same_set(id(*a), id(*b)));
        }
    }

    #[test]
    fn union_find_is_order_insensitive(
        mut unions in prop::collection::vec((1u32..30, 1u32..30), 1..40)
    ) {
        let interner = AsnInterner::new((1u32..30).map(Asn::new));
        let run = |pairs: &[(u32, u32)]| {
            let mut uf = DenseUnionFind::new(interner.len());
            for (a, b) in pairs {
                let id = |n: u32| interner.id(Asn::new(n)).unwrap();
                uf.union(id(*a), id(*b));
            }
            uf.into_groups(&interner)
        };
        let forward = run(&unions);
        unions.reverse();
        let backward = run(&unions);
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn mapping_invariants(groups in partition_strategy()) {
        let expected_asns: usize = groups.iter().map(Vec::len).sum();
        let expected_orgs = groups.iter().filter(|g| !g.is_empty()).count();
        let mapping = AsOrgMapping::from_groups(groups.clone());
        prop_assert_eq!(mapping.asn_count(), expected_asns);
        prop_assert_eq!(mapping.org_count(), expected_orgs);
        let sizes = mapping.sizes_desc();
        prop_assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        prop_assert_eq!(sizes.iter().sum::<usize>(), expected_asns);
        for group in &groups {
            for pair in group.windows(2) {
                prop_assert!(mapping.same_org(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn theta_bounds_and_merge_monotonicity(groups in partition_strategy()) {
        let mapping = AsOrgMapping::from_groups(groups.clone());
        let n = mapping.asn_count();
        prop_assume!(n >= 2);
        let theta = organization_factor(&mapping, n);
        prop_assert!((0.0..0.5).contains(&theta), "θ = {theta} out of range");

        // Merging the first two groups can only increase θ.
        if groups.len() >= 2 {
            let mut merged: Vec<Vec<Asn>> = groups.clone();
            let tail = merged.remove(1);
            merged[0].extend(tail);
            let merged_mapping = AsOrgMapping::from_groups(merged);
            let merged_theta = organization_factor(&merged_mapping, n);
            prop_assert!(
                merged_theta >= theta - 1e-12,
                "merge decreased θ: {theta} → {merged_theta}"
            );
        }
    }

    #[test]
    fn extraction_respects_the_candidate_universe(
        notes in "[ -~]{0,120}",
        aka in "[ -~]{0,40}",
    ) {
        // Whatever the model extracts must be literally present in the
        // text as a number — the §4.2 output-filter invariant holds for
        // the base extraction model by construction.
        use borges_llm::ner::{all_routable_numbers, extract_siblings};
        let subject = Asn::new(1);
        let allowed: BTreeSet<u32> =
            all_routable_numbers(&format!("{notes}\n{aka}")).into_iter().collect();
        for extraction in extract_siblings(subject, &notes, &aka) {
            prop_assert!(
                allowed.contains(&extraction.asn.value()),
                "extracted {} not present in text {notes:?}/{aka:?}",
                extraction.asn
            );
        }
    }
}
