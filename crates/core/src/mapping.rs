//! The AS-to-Organization mapping type.
//!
//! [`AsOrgMapping`] is what every method in this workspace — Borges, CAIDA
//! AS2Org, *as2org+* — ultimately produces: a partition of an ASN universe
//! into inferred organizations. The Organization Factor (§5.4), the impact
//! analyses (§6) and all ground-truth scoring consume this one type, which
//! is what makes the methods comparable.

use borges_types::Asn;
use std::collections::BTreeMap;

/// An inferred organization id within one mapping (dense, 0-based,
/// assigned in order of each cluster's smallest ASN — deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

/// Puts groups in the canonical order of a mapping's clusters: members
/// ascending and de-duplicated, empty groups dropped, groups ordered by
/// their smallest member.
pub fn canonical_groups(groups: impl IntoIterator<Item = Vec<Asn>>) -> Vec<Vec<Asn>> {
    let mut sorted: Vec<Vec<Asn>> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|mut g| {
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect();
    // Cached keys: comparing through each group's heap pointer costs a
    // cache miss per comparison on large partitions.
    sorted.sort_by_cached_key(|g| g[0]);
    sorted
}

/// A partition of ASNs into inferred organizations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsOrgMapping {
    cluster_of: BTreeMap<Asn, ClusterId>,
    members: Vec<Vec<Asn>>,
}

impl AsOrgMapping {
    /// Builds a mapping from explicit groups. Group order is normalized;
    /// ASNs may appear in only one group (duplicates panic — they indicate
    /// a bug in the caller's clustering).
    pub fn from_groups(groups: impl IntoIterator<Item = Vec<Asn>>) -> Self {
        let sorted = canonical_groups(groups);
        // The index is bulk-built from ASN-sorted pairs: one sort, then
        // an append-only fill, instead of a tree insert per ASN.
        let mut pairs: Vec<(Asn, ClusterId)> = sorted
            .iter()
            .enumerate()
            .flat_map(|(i, group)| group.iter().map(move |&asn| (asn, ClusterId(i))))
            .collect();
        pairs.sort_unstable_by_key(|&(asn, _)| asn);
        if let Some(pair) = pairs.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            panic!("{} appears in two clusters", pair[0].0);
        }
        AsOrgMapping {
            cluster_of: pairs.into_iter().collect(),
            members: sorted,
        }
    }

    /// The cluster containing `asn`.
    pub fn cluster_of(&self, asn: Asn) -> Option<ClusterId> {
        self.cluster_of.get(&asn).copied()
    }

    /// The sorted members of a cluster.
    pub fn members(&self, id: ClusterId) -> &[Asn] {
        &self.members[id.0]
    }

    /// The sorted members of the cluster containing `asn` (empty slice if
    /// the ASN is unmapped).
    pub fn siblings_of(&self, asn: Asn) -> &[Asn] {
        match self.cluster_of(asn) {
            Some(id) => self.members(id),
            None => &[],
        }
    }

    /// Does this mapping place `a` and `b` under the same organization?
    pub fn same_org(&self, a: Asn, b: Asn) -> bool {
        match (self.cluster_of(a), self.cluster_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of ASNs mapped.
    pub fn asn_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of inferred organizations.
    pub fn org_count(&self) -> usize {
        self.members.len()
    }

    /// Cluster sizes in descending order — the curve the Organization
    /// Factor integrates (§5.4, Fig. 7).
    pub fn sizes_desc(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.members.iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|x, y| y.cmp(x));
        sizes
    }

    /// Iterates clusters as `(id, members)`.
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &[Asn])> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (ClusterId(i), m.as_slice()))
    }

    /// Iterates all mapped ASNs in ascending order.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.cluster_of.keys().copied()
    }

    /// Iterates every mapped ASN with its cluster, ASNs ascending.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, ClusterId)> + '_ {
        self.cluster_of.iter().map(|(&asn, &id)| (asn, id))
    }

    /// The largest cluster (id, size), if any.
    pub fn largest(&self) -> Option<(ClusterId, usize)> {
        self.members
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.len())
            .map(|(i, m)| (ClusterId(i), m.len()))
    }

    /// Mean cluster size (`ASNs / orgs`) — the "organizations manage an
    /// average of 1.23 networks" statistic of §5.2.
    pub fn mean_size(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.asn_count() as f64 / self.org_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn groups_build_and_query() {
        let m = AsOrgMapping::from_groups(vec![vec![a(3), a(1)], vec![a(2)]]);
        assert_eq!(m.asn_count(), 3);
        assert_eq!(m.org_count(), 2);
        assert!(m.same_org(a(1), a(3)));
        assert!(!m.same_org(a(1), a(2)));
        assert_eq!(m.siblings_of(a(3)), &[a(1), a(3)]);
        assert_eq!(m.siblings_of(a(99)), &[] as &[Asn]);
    }

    #[test]
    fn empty_groups_are_dropped() {
        let m = AsOrgMapping::from_groups(vec![vec![], vec![a(1)]]);
        assert_eq!(m.org_count(), 1);
    }

    #[test]
    fn duplicate_members_within_group_are_deduped() {
        let m = AsOrgMapping::from_groups(vec![vec![a(1), a(1), a(2)]]);
        assert_eq!(m.members(ClusterId(0)), &[a(1), a(2)]);
    }

    #[test]
    #[should_panic(expected = "appears in two clusters")]
    fn cross_group_duplicates_panic() {
        AsOrgMapping::from_groups(vec![vec![a(1)], vec![a(1), a(2)]]);
    }

    #[test]
    fn sizes_desc_and_largest() {
        let m =
            AsOrgMapping::from_groups(vec![vec![a(1)], vec![a(2), a(3), a(4)], vec![a(5), a(6)]]);
        assert_eq!(m.sizes_desc(), vec![3, 2, 1]);
        let (id, size) = m.largest().unwrap();
        assert_eq!(size, 3);
        assert_eq!(m.members(id), &[a(2), a(3), a(4)]);
        assert!((m.mean_size() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn construction_is_order_insensitive() {
        let m1 = AsOrgMapping::from_groups(vec![vec![a(5), a(6)], vec![a(1), a(2)]]);
        let m2 = AsOrgMapping::from_groups(vec![vec![a(2), a(1)], vec![a(6), a(5)]]);
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_mapping_behaves() {
        let m = AsOrgMapping::default();
        assert_eq!(m.asn_count(), 0);
        assert_eq!(m.org_count(), 0);
        assert!(m.largest().is_none());
        assert_eq!(m.mean_size(), 0.0);
    }
}
