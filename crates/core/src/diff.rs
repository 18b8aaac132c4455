//! Longitudinal mapping comparison.
//!
//! The paper's discussion (§7) regrets that no longitudinal archive
//! exists for its web observations — organizational structures evolve
//! through mergers, spinoffs and rebrandings, and a single snapshot
//! cannot show the motion. Given two dated mappings (two releases of
//! Borges, or Borges vs. a later AS2Org), [`diff`] explains what moved:
//!
//! * **merges** — an organization in the later mapping combining several
//!   earlier organizations (the acquisition signature);
//! * **splits** — an earlier organization scattered across several later
//!   ones (the divestiture/spinoff signature: Lumen → Cirion/Colt);
//! * ASNs appearing/disappearing (new allocations, returned resources).

use crate::mapping::{AsOrgMapping, ClusterId};
use borges_types::Asn;

/// A later-mapping organization assembled from several earlier ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeEvent {
    /// Cluster in the *after* mapping.
    pub after: ClusterId,
    /// The earlier clusters it absorbed (each as its member list,
    /// restricted to ASNs present in both mappings).
    pub fragments: Vec<Vec<Asn>>,
}

/// An earlier organization scattered across several later ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitEvent {
    /// Cluster in the *before* mapping.
    pub before: ClusterId,
    /// The later clusters its members went to.
    pub pieces: Vec<Vec<Asn>>,
}

/// The full difference between two mappings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappingDiff {
    /// Organizations that combined.
    pub merges: Vec<MergeEvent>,
    /// Organizations that scattered.
    pub splits: Vec<SplitEvent>,
    /// ASNs present only in the later mapping.
    pub appeared: Vec<Asn>,
    /// ASNs present only in the earlier mapping.
    pub disappeared: Vec<Asn>,
    /// Clusters with identical membership in both mappings.
    pub unchanged_clusters: usize,
}

impl MappingDiff {
    /// `true` when nothing moved at all.
    pub fn is_empty(&self) -> bool {
        self.merges.is_empty()
            && self.splits.is_empty()
            && self.appeared.is_empty()
            && self.disappeared.is_empty()
    }
}

/// Computes the difference between two mappings. Structural comparisons
/// (merge/split detection) consider only ASNs present in *both* mappings,
/// so allocation churn does not masquerade as reorganization.
///
/// Linear apart from two sorts: one merge-join over both mappings'
/// ascending ASNs splits them into appeared, disappeared and shared;
/// the shared ASNs, tagged with their two cluster ids, are then sorted
/// once by after-cluster (merges) and once by before-cluster (splits),
/// and each event is a run of that order.
pub fn diff(before: &AsOrgMapping, after: &AsOrgMapping) -> MappingDiff {
    let mut out = MappingDiff::default();
    // (after cluster, before cluster, asn) per shared ASN.
    let mut by_after: Vec<(ClusterId, ClusterId, Asn)> = Vec::new();
    let mut earlier = before.iter().peekable();
    for (asn, a) in after.iter() {
        while let Some((gone, _)) = earlier.next_if(|&(x, _)| x < asn) {
            out.disappeared.push(gone);
        }
        match earlier.next_if(|&(x, _)| x == asn) {
            Some((_, b)) => by_after.push((a, b, asn)),
            None => out.appeared.push(asn),
        }
    }
    out.disappeared.extend(earlier.map(|(asn, _)| asn));

    let asns = |run: &[(ClusterId, ClusterId, Asn)]| run.iter().map(|t| t.2).collect();
    let mut by_before = by_after.clone();
    by_before.sort_unstable_by_key(|&(a, b, asn)| (b, a, asn));
    for run in runs(&by_before, |t| t.1) {
        let pieces: Vec<_> = runs(run, |t| t.0).collect();
        if pieces.len() > 1 {
            out.splits.push(SplitEvent {
                before: run[0].1,
                pieces: pieces.into_iter().map(asns).collect(),
            });
        }
    }

    by_after.sort_unstable();
    for run in runs(&by_after, |t| t.0) {
        let fragments: Vec<_> = runs(run, |t| t.1).collect();
        let (after_id, before_id) = (run[0].0, run[0].1);
        if fragments.len() > 1 {
            out.merges.push(MergeEvent {
                after: after_id,
                fragments: fragments.into_iter().map(asns).collect(),
            });
        } else if before.members(before_id).len() == run.len()
            && after.members(after_id).len() == run.len()
        {
            // Unchanged: one fragment that is the whole cluster on both
            // sides (so the before cluster did not split either, and no
            // appeared/disappeared members hide inside).
            out.unchanged_clusters += 1;
        }
    }
    out
}

/// The maximal runs of equal `key` in a slice sorted by it.
fn runs<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        let first = key(rest.first()?);
        let len = rest
            .iter()
            .position(|item| key(item) != first)
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn m(groups: &[&[u32]]) -> AsOrgMapping {
        AsOrgMapping::from_groups(
            groups
                .iter()
                .map(|g| g.iter().map(|&x| Asn::new(x)).collect()),
        )
    }

    #[test]
    fn identical_mappings_diff_empty() {
        let a = m(&[&[1, 2], &[3]]);
        let d = diff(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(d.unchanged_clusters, 2);
    }

    #[test]
    fn acquisition_shows_as_a_merge() {
        let before = m(&[&[1, 2], &[3, 4], &[5]]);
        let after = m(&[&[1, 2, 3, 4], &[5]]);
        let d = diff(&before, &after);
        assert_eq!(d.merges.len(), 1);
        assert_eq!(d.merges[0].fragments.len(), 2);
        assert!(d.splits.is_empty());
        assert_eq!(d.unchanged_clusters, 1);
    }

    #[test]
    fn spinoff_shows_as_a_split() {
        // The Lumen → Cirion/Colt shape.
        let before = m(&[&[1, 2, 3]]);
        let after = m(&[&[1], &[2], &[3]]);
        let d = diff(&before, &after);
        assert!(d.merges.is_empty());
        assert_eq!(d.splits.len(), 1);
        assert_eq!(d.splits[0].pieces.len(), 3);
    }

    #[test]
    fn reshuffle_is_both_merge_and_split() {
        let before = m(&[&[1, 2], &[3, 4]]);
        let after = m(&[&[1, 3], &[2, 4]]);
        let d = diff(&before, &after);
        assert_eq!(d.merges.len(), 2, "each after-cluster mixes fragments");
        assert_eq!(d.splits.len(), 2, "each before-cluster scattered");
        assert_eq!(d.unchanged_clusters, 0);
    }

    #[test]
    fn allocation_churn_is_not_reorganization() {
        let before = m(&[&[1, 2]]);
        let after = m(&[&[1, 2, 99], &[100]]);
        let d = diff(&before, &after);
        assert!(
            d.merges.is_empty(),
            "new ASN joining is not a merge of orgs"
        );
        assert!(d.splits.is_empty());
        assert_eq!(d.appeared, vec![Asn::new(99), Asn::new(100)]);
        assert!(d.disappeared.is_empty());
    }

    #[test]
    fn disappearing_asns_are_reported() {
        let before = m(&[&[1, 2, 3]]);
        let after = m(&[&[1, 2]]);
        let d = diff(&before, &after);
        assert_eq!(d.disappeared, vec![Asn::new(3)]);
        assert!(d.splits.is_empty(), "losing an ASN is not a split");
    }

    #[test]
    fn grown_cluster_is_not_unchanged() {
        let before = m(&[&[1, 2]]);
        let after = m(&[&[1, 2, 9]]);
        let d = diff(&before, &after);
        assert_eq!(d.unchanged_clusters, 0);
    }

    #[test]
    fn identity_diff_is_empty_and_equal() {
        let a = m(&[&[1, 2], &[3, 4, 5], &[9]]);
        let d = diff(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(
            d,
            MappingDiff {
                unchanged_clusters: 3,
                ..Default::default()
            }
        );
    }

    #[test]
    fn empty_world_against_populated_is_pure_churn() {
        let empty = AsOrgMapping::default();
        let populated = m(&[&[1, 2], &[7]]);
        let grown = diff(&empty, &populated);
        assert!(grown.merges.is_empty(), "appearing ASNs are not merges");
        assert!(grown.splits.is_empty());
        assert_eq!(grown.appeared, vec![Asn::new(1), Asn::new(2), Asn::new(7)]);
        assert!(grown.disappeared.is_empty());
        assert_eq!(grown.unchanged_clusters, 0);
        assert!(!grown.is_empty());

        let shrunk = diff(&populated, &empty);
        assert!(shrunk.merges.is_empty());
        assert!(shrunk.splits.is_empty());
        assert!(shrunk.appeared.is_empty());
        assert_eq!(
            shrunk.disappeared,
            vec![Asn::new(1), Asn::new(2), Asn::new(7)]
        );

        assert!(diff(&empty, &empty.clone()).is_empty());
    }

    use proptest::prelude::*;

    fn partition(assign: &[usize]) -> AsOrgMapping {
        let mut groups: BTreeMap<usize, Vec<Asn>> = BTreeMap::new();
        for (i, &g) in assign.iter().enumerate() {
            groups.entry(g).or_default().push(Asn::new(i as u32 + 1));
        }
        AsOrgMapping::from_groups(groups.into_values())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Swapping the arguments turns every merge into the equal-and-
        // opposite split (and vice versa), flips appeared/disappeared,
        // and preserves the unchanged count — diff is an involution up
        // to renaming the event kinds.
        #[test]
        fn merge_and_split_are_symmetric_under_argument_swap(
            before_assign in prop::collection::vec(0usize..5, 1..16),
            after_assign in prop::collection::vec(0usize..5, 1..16),
        ) {
            let a = partition(&before_assign);
            let b = partition(&after_assign);
            let ab = diff(&a, &b);
            let ba = diff(&b, &a);

            prop_assert_eq!(ab.merges.len(), ba.splits.len());
            for (merge, split) in ab.merges.iter().zip(&ba.splits) {
                prop_assert_eq!(merge.after, split.before);
                prop_assert_eq!(&merge.fragments, &split.pieces);
            }
            prop_assert_eq!(ab.splits.len(), ba.merges.len());
            for (split, merge) in ab.splits.iter().zip(&ba.merges) {
                prop_assert_eq!(split.before, merge.after);
                prop_assert_eq!(&split.pieces, &merge.fragments);
            }
            prop_assert_eq!(&ab.appeared, &ba.disappeared);
            prop_assert_eq!(&ab.disappeared, &ba.appeared);
            prop_assert_eq!(ab.unchanged_clusters, ba.unchanged_clusters);
        }
    }
}
