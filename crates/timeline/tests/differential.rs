//! Differential pins for the timeline's mapping arithmetic.
//!
//! `diff`, `AssignmentDelta::between`, `assignments` and
//! `mapping_from_assignments` are each checked against a test-local
//! copy of the ordered-map algorithm they replace, over random mapping
//! pairs in which ASNs appear, disappear, merge and split. The rendered
//! diff JSON must match byte for byte.

use borges_core::diff::{diff, MappingDiff, MergeEvent, SplitEvent};
use borges_core::mapping::{AsOrgMapping, ClusterId};
use borges_timeline::{
    assignments, mapping_from_assignments, render_diff_json, AssignmentDelta, DeltaRow,
    DELTA_SCHEMA,
};
use borges_types::Asn;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn oracle_diff(before: &AsOrgMapping, after: &AsOrgMapping) -> MappingDiff {
    let before_asns: BTreeSet<Asn> = before.asns().collect();
    let after_asns: BTreeSet<Asn> = after.asns().collect();
    let shared: BTreeSet<Asn> = before_asns.intersection(&after_asns).copied().collect();

    let mut out = MappingDiff {
        appeared: after_asns.difference(&before_asns).copied().collect(),
        disappeared: before_asns.difference(&after_asns).copied().collect(),
        ..Default::default()
    };
    let mut by_after: BTreeMap<ClusterId, BTreeMap<ClusterId, Vec<Asn>>> = BTreeMap::new();
    let mut by_before: BTreeMap<ClusterId, BTreeMap<ClusterId, Vec<Asn>>> = BTreeMap::new();
    for &asn in &shared {
        let b = before.cluster_of(asn).expect("shared asn is in before");
        let a = after.cluster_of(asn).expect("shared asn is in after");
        by_after
            .entry(a)
            .or_default()
            .entry(b)
            .or_default()
            .push(asn);
        by_before
            .entry(b)
            .or_default()
            .entry(a)
            .or_default()
            .push(asn);
    }
    for (after_id, fragments) in &by_after {
        if fragments.len() > 1 {
            out.merges.push(MergeEvent {
                after: *after_id,
                fragments: fragments.values().cloned().collect(),
            });
        }
    }
    for (before_id, pieces) in &by_before {
        if pieces.len() > 1 {
            out.splits.push(SplitEvent {
                before: *before_id,
                pieces: pieces.values().cloned().collect(),
            });
        }
    }
    for (after_id, fragments) in &by_after {
        if fragments.len() != 1 {
            continue;
        }
        let (before_id, members) = fragments.iter().next().expect("one fragment");
        if by_before[before_id].len() == 1
            && before.members(*before_id).len() == members.len()
            && after.members(*after_id).len() == members.len()
        {
            out.unchanged_clusters += 1;
        }
    }
    out
}

fn oracle_assignments(mapping: &AsOrgMapping) -> BTreeMap<u32, u32> {
    let mut out = BTreeMap::new();
    for (_, members) in mapping.clusters() {
        let anchor = members[0].value();
        for &asn in members {
            out.insert(asn.value(), anchor);
        }
    }
    out
}

fn oracle_mapping_from_assignments(assignments: &BTreeMap<u32, u32>) -> AsOrgMapping {
    let mut groups: BTreeMap<u32, Vec<Asn>> = BTreeMap::new();
    for (&asn, &anchor) in assignments {
        groups.entry(anchor).or_default().push(Asn::new(asn));
    }
    AsOrgMapping::from_groups(groups.into_values())
}

fn oracle_between(parent: &AsOrgMapping, child: &AsOrgMapping) -> AssignmentDelta {
    let before = oracle_assignments(parent);
    let after = oracle_assignments(child);
    let mut set = Vec::new();
    for (&asn, &anchor) in &after {
        if before.get(&asn) != Some(&anchor) {
            set.push(DeltaRow { asn, anchor });
        }
    }
    let removed = before
        .keys()
        .filter(|asn| !after.contains_key(asn))
        .copied()
        .collect();
    AssignmentDelta {
        schema: DELTA_SCHEMA.to_string(),
        set,
        removed,
    }
}

/// Builds the two mappings of a draw. Slot `i` is ASN `i * 7919 + 1`
/// (so decimal and numeric order disagree); a group of `0` leaves the
/// ASN out of that mapping, which makes it appear or disappear.
fn pair(draw: &[(u8, u8)]) -> (AsOrgMapping, AsOrgMapping) {
    let side = |pick: fn(&(u8, u8)) -> u8| {
        let mut groups: BTreeMap<u8, Vec<Asn>> = BTreeMap::new();
        for (i, slot) in draw.iter().enumerate() {
            let group = pick(slot);
            if group != 0 {
                groups
                    .entry(group)
                    .or_default()
                    .push(Asn::new(i as u32 * 7919 + 1));
            }
        }
        AsOrgMapping::from_groups(groups.into_values())
    };
    (side(|s| s.0), side(|s| s.1))
}

fn draws() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..6), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn diff_matches_the_btreemap_oracle(draw in draws()) {
        let (before, after) = pair(&draw);
        for (x, y) in [(&before, &after), (&after, &before), (&before, &before)] {
            let expected = oracle_diff(x, y);
            let actual = diff(x, y);
            prop_assert_eq!(
                render_diff_json(3, 4, &actual),
                render_diff_json(3, 4, &expected)
            );
            prop_assert_eq!(actual, expected);
        }
    }

    #[test]
    fn between_matches_the_btreemap_oracle(draw in draws()) {
        let (parent, child) = pair(&draw);
        for (x, y) in [(&parent, &child), (&child, &parent), (&parent, &parent)] {
            let expected = oracle_between(x, y);
            let actual = AssignmentDelta::between(x, y);
            prop_assert_eq!(actual.encode(), expected.encode());
            prop_assert_eq!(&actual, &expected);
            let mut assign = assignments(x);
            actual.apply(&mut assign);
            prop_assert_eq!(&assign, &oracle_assignments(y));
            prop_assert_eq!(mapping_from_assignments(&assign), (*y).clone());
        }
    }

    #[test]
    fn assignments_round_trip_matches_the_btreemap_oracle(draw in draws()) {
        let (mapping, _) = pair(&draw);
        let assign = assignments(&mapping);
        prop_assert_eq!(&assign, &oracle_assignments(&mapping));
        prop_assert_eq!(
            mapping_from_assignments(&assign),
            oracle_mapping_from_assignments(&assign)
        );
    }
}
