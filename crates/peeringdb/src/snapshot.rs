//! Indexed PeeringDB snapshots.
//!
//! A [`PdbSnapshot`] is the frozen input the pipeline consumes — the
//! equivalent of the July 24, 2024 dump the paper uses (§5.1). It validates
//! referential integrity at build time and serializes to/from the
//! PeeringDB API dump shape:
//!
//! ```json
//! { "org": { "data": [ … ] }, "net": { "data": [ … ] } }
//! ```

use crate::schema::{PdbNetwork, PdbOrganization};
use borges_types::{Asn, PdbOrgId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;

/// Snapshot construction/parsing failures.
#[derive(Debug)]
pub enum SnapshotError {
    /// Two org records share a primary key.
    DuplicateOrg(PdbOrgId),
    /// Two net records share a primary key.
    DuplicateNet(u64),
    /// Two net records claim the same ASN (PeeringDB enforces uniqueness).
    DuplicateAsn(Asn),
    /// A net references an org that does not exist.
    DanglingOrgRef {
        /// Offending net primary key.
        net: u64,
        /// Missing org key.
        org: PdbOrgId,
    },
    /// JSON that does not match the dump shape.
    Json(serde_json::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::DuplicateOrg(id) => write!(f, "duplicate org {id}"),
            SnapshotError::DuplicateNet(id) => write!(f, "duplicate net {id}"),
            SnapshotError::DuplicateAsn(asn) => write!(f, "duplicate net for {asn}"),
            SnapshotError::DanglingOrgRef { net, org } => {
                write!(f, "net {net} references unknown {org}")
            }
            SnapshotError::Json(e) => write!(f, "snapshot json: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Json(e)
    }
}

#[derive(Serialize, Deserialize)]
struct Table<T> {
    data: Vec<T>,
}

#[derive(Serialize, Deserialize)]
struct Dump {
    org: Table<PdbOrganization>,
    net: Table<PdbNetwork>,
}

/// Builder accumulating records before validation.
#[derive(Debug, Default)]
pub struct PdbSnapshotBuilder {
    orgs: Vec<PdbOrganization>,
    nets: Vec<PdbNetwork>,
}

impl PdbSnapshotBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an organization.
    pub fn org(mut self, org: PdbOrganization) -> Self {
        self.orgs.push(org);
        self
    }

    /// Adds a network.
    pub fn net(mut self, net: PdbNetwork) -> Self {
        self.nets.push(net);
        self
    }

    /// Adds many records at once.
    pub fn extend(
        mut self,
        orgs: impl IntoIterator<Item = PdbOrganization>,
        nets: impl IntoIterator<Item = PdbNetwork>,
    ) -> Self {
        self.orgs.extend(orgs);
        self.nets.extend(nets);
        self
    }

    /// Validates and freezes the snapshot.
    ///
    /// The checks walk the records in input order, so the fault reported
    /// is the first one in the input; the records are then moved, not
    /// copied, into the indexes.
    pub fn build(self) -> Result<PdbSnapshot, SnapshotError> {
        let mut orgs: HashSet<PdbOrgId> = HashSet::with_capacity(self.orgs.len());
        for org in &self.orgs {
            if !orgs.insert(org.id) {
                return Err(SnapshotError::DuplicateOrg(org.id));
            }
        }
        let mut asns: HashSet<Asn> = HashSet::with_capacity(self.nets.len());
        let mut ids: HashSet<u64> = HashSet::with_capacity(self.nets.len());
        let mut members: BTreeMap<PdbOrgId, Vec<u64>> = BTreeMap::new();
        for net in &self.nets {
            if !orgs.contains(&net.org_id) {
                return Err(SnapshotError::DanglingOrgRef {
                    net: net.id,
                    org: net.org_id,
                });
            }
            if !asns.insert(net.asn) {
                return Err(SnapshotError::DuplicateAsn(net.asn));
            }
            members.entry(net.org_id).or_default().push(net.id);
            if !ids.insert(net.id) {
                return Err(SnapshotError::DuplicateNet(net.id));
            }
        }
        Ok(PdbSnapshot {
            by_asn: self.nets.iter().map(|n| (n.asn, n.id)).collect(),
            orgs: self.orgs.into_iter().map(|o| (o.id, o)).collect(),
            nets: self.nets.into_iter().map(|n| (n.id, n)).collect(),
            members,
        })
    }
}

/// A frozen, indexed PeeringDB snapshot.
#[derive(Debug, Clone, Default)]
pub struct PdbSnapshot {
    orgs: BTreeMap<PdbOrgId, PdbOrganization>,
    nets: BTreeMap<u64, PdbNetwork>,
    by_asn: BTreeMap<Asn, u64>,
    members: BTreeMap<PdbOrgId, Vec<u64>>,
}

impl PdbSnapshot {
    /// A builder for a new snapshot.
    pub fn builder() -> PdbSnapshotBuilder {
        PdbSnapshotBuilder::new()
    }

    /// Parses a JSON dump (`{"org": {"data": […]}, "net": {"data": […]}}`).
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let dump: Dump = serde_json::from_str(text)?;
        PdbSnapshotBuilder::new()
            .extend(dump.org.data, dump.net.data)
            .build()
    }

    /// Serializes to the JSON dump shape, deterministically ordered
    /// (orgs by id, nets by id).
    pub fn to_json(&self) -> String {
        let dump = Dump {
            org: Table {
                data: self.orgs.values().cloned().collect(),
            },
            net: Table {
                data: self.nets.values().cloned().collect(),
            },
        };
        serde_json::to_string_pretty(&dump).expect("dump serialization cannot fail")
    }

    /// The organization with primary key `id`.
    pub fn org(&self, id: PdbOrgId) -> Option<&PdbOrganization> {
        self.orgs.get(&id)
    }

    /// The network with net primary key `id`.
    pub fn net(&self, id: u64) -> Option<&PdbNetwork> {
        self.nets.get(&id)
    }

    /// The network registered for `asn`.
    pub fn net_by_asn(&self, asn: Asn) -> Option<&PdbNetwork> {
        self.by_asn.get(&asn).and_then(|id| self.nets.get(id))
    }

    /// The organization owning `asn`, traversing the `net → org` relation.
    pub fn org_of_asn(&self, asn: Asn) -> Option<&PdbOrganization> {
        self.net_by_asn(asn).and_then(|n| self.orgs.get(&n.org_id))
    }

    /// All networks registered under an organization, in net-id order.
    pub fn nets_of(&self, id: PdbOrgId) -> impl Iterator<Item = &PdbNetwork> {
        self.members
            .get(&id)
            .into_iter()
            .flatten()
            .filter_map(|nid| self.nets.get(nid))
    }

    /// All networks in net-id order.
    pub fn nets(&self) -> impl Iterator<Item = &PdbNetwork> {
        self.nets.values()
    }

    /// All organizations in id order.
    pub fn orgs(&self) -> impl Iterator<Item = &PdbOrganization> {
        self.orgs.values()
    }

    /// Number of `net` records.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of `org` records.
    pub fn org_count(&self) -> usize {
        self.orgs.len()
    }

    /// Number of distinct organizations that own at least one network.
    pub fn populated_org_count(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(id: u64, name: &str) -> PdbOrganization {
        PdbOrganization {
            id: PdbOrgId::new(id),
            name: name.to_string(),
            website: String::new(),
            country: "US".to_string(),
        }
    }

    fn net(id: u64, org: u64, asn: u32) -> PdbNetwork {
        PdbNetwork {
            id,
            org_id: PdbOrgId::new(org),
            asn: Asn::new(asn),
            name: format!("net{id}"),
            aka: String::new(),
            notes: String::new(),
            website: String::new(),
        }
    }

    #[test]
    fn builds_and_indexes() {
        let snap = PdbSnapshot::builder()
            .org(org(1, "Lumen"))
            .net(net(100, 1, 3356))
            .net(net(101, 1, 209))
            .build()
            .unwrap();
        assert_eq!(snap.net_count(), 2);
        assert_eq!(snap.org_of_asn(Asn::new(209)).unwrap().name, "Lumen");
        assert_eq!(snap.nets_of(PdbOrgId::new(1)).count(), 2);
    }

    #[test]
    fn rejects_duplicate_asn() {
        let err = PdbSnapshot::builder()
            .org(org(1, "X"))
            .net(net(100, 1, 3356))
            .net(net(101, 1, 3356))
            .build()
            .unwrap_err();
        assert!(matches!(err, SnapshotError::DuplicateAsn(a) if a == Asn::new(3356)));
    }

    #[test]
    fn rejects_dangling_org() {
        let err = PdbSnapshot::builder()
            .net(net(100, 99, 3356))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::DanglingOrgRef { net: 100, .. }
        ));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let err = PdbSnapshot::builder()
            .org(org(1, "A"))
            .org(org(1, "B"))
            .build()
            .unwrap_err();
        assert!(matches!(err, SnapshotError::DuplicateOrg(_)));

        let err = PdbSnapshot::builder()
            .org(org(1, "A"))
            .net(net(100, 1, 1))
            .net(net(100, 1, 2))
            .build()
            .unwrap_err();
        assert!(matches!(err, SnapshotError::DuplicateNet(100)));
    }

    #[test]
    fn json_roundtrip() {
        let snap = PdbSnapshot::builder()
            .org(org(1, "Lumen"))
            .org(org(2, "Cogent"))
            .net(net(100, 1, 3356))
            .net(net(101, 2, 174))
            .build()
            .unwrap();
        let text = snap.to_json();
        let back = PdbSnapshot::from_json(&text).unwrap();
        assert_eq!(back.net_count(), 2);
        assert_eq!(back.org_count(), 2);
        assert_eq!(back.to_json(), text, "serialization must be stable");
    }

    #[test]
    fn json_dump_shape_is_peeringdb_like() {
        let snap = PdbSnapshot::builder().org(org(1, "X")).build().unwrap();
        let v: serde_json::Value = serde_json::from_str(&snap.to_json()).unwrap();
        assert!(v["org"]["data"].is_array());
        assert!(v["net"]["data"].is_array());
    }

    #[test]
    fn invalid_json_is_reported() {
        assert!(matches!(
            PdbSnapshot::from_json("{").unwrap_err(),
            SnapshotError::Json(_)
        ));
    }

    #[test]
    fn empty_snapshot_queries() {
        let snap = PdbSnapshot::builder().build().unwrap();
        assert!(snap.net_by_asn(Asn::new(1)).is_none());
        assert_eq!(snap.populated_org_count(), 0);
    }

    #[test]
    fn org_without_nets_is_not_populated() {
        let snap = PdbSnapshot::builder()
            .org(org(1, "A"))
            .org(org(2, "ghost"))
            .net(net(100, 1, 1))
            .build()
            .unwrap();
        assert_eq!(snap.org_count(), 2);
        assert_eq!(snap.populated_org_count(), 1);
    }

    #[test]
    fn the_first_fault_in_input_order_is_reported() {
        let dangling_first = PdbSnapshot::builder()
            .org(org(1, "A"))
            .net(net(100, 99, 1))
            .net(net(101, 1, 2))
            .net(net(102, 1, 2))
            .build()
            .unwrap_err();
        assert!(matches!(
            dangling_first,
            SnapshotError::DanglingOrgRef { net: 100, .. }
        ));
        let duplicate_first = PdbSnapshot::builder()
            .org(org(1, "A"))
            .net(net(101, 1, 2))
            .net(net(102, 1, 2))
            .net(net(100, 99, 1))
            .build()
            .unwrap_err();
        assert!(matches!(duplicate_first, SnapshotError::DuplicateAsn(a) if a == Asn::new(2)));
        // One net repeating both an ASN and a net id: the ASN is checked first.
        let both = PdbSnapshot::builder()
            .org(org(1, "A"))
            .net(net(100, 1, 7))
            .net(net(100, 1, 7))
            .build()
            .unwrap_err();
        assert!(matches!(both, SnapshotError::DuplicateAsn(a) if a == Asn::new(7)));
        // Every org is checked before any net.
        let org_fault = PdbSnapshot::builder()
            .net(net(100, 99, 1))
            .org(org(1, "A"))
            .org(org(1, "B"))
            .build()
            .unwrap_err();
        assert!(matches!(org_fault, SnapshotError::DuplicateOrg(id) if id == PdbOrgId::new(1)));
    }

    #[test]
    fn nets_of_keeps_input_order_within_an_org() {
        let snap = PdbSnapshot::builder()
            .org(org(1, "A"))
            .org(org(2, "B"))
            .net(net(300, 1, 3))
            .net(net(100, 2, 1))
            .net(net(200, 1, 2))
            .build()
            .unwrap();
        let ids: Vec<u64> = snap.nets_of(PdbOrgId::new(1)).map(|n| n.id).collect();
        assert_eq!(ids, vec![300, 200]);
        let all: Vec<u64> = snap.nets().map(|n| n.id).collect();
        assert_eq!(all, vec![100, 200, 300]);
    }
}
