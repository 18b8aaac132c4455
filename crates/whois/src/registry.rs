//! The in-memory WHOIS registry.
//!
//! [`WhoisRegistry`] is the queryable substrate: an indexed, referentially
//! consistent collection of [`WhoisOrg`] and [`AutNum`] records. It is
//! immutable once built — the pipeline treats a registry like the paper
//! treats a CAIDA snapshot: a frozen input dated to a snapshot day.

use crate::schema::{AutNum, WhoisOrg};
use borges_types::{Asn, WhoisOrgId};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::error::Error;
use std::fmt;

/// Referential-integrity failures detected at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Two org records share a handle.
    DuplicateOrg(WhoisOrgId),
    /// Two aut-num records cover the same ASN.
    DuplicateAsn(Asn),
    /// An aut-num references a handle with no org record.
    DanglingOrgRef {
        /// The offending ASN.
        asn: Asn,
        /// The missing handle.
        org: WhoisOrgId,
    },
    /// An org handle is empty.
    EmptyOrgId,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateOrg(id) => write!(f, "duplicate organization {id}"),
            RegistryError::DuplicateAsn(asn) => write!(f, "duplicate aut-num for {asn}"),
            RegistryError::DanglingOrgRef { asn, org } => {
                write!(f, "{asn} references unknown organization {org}")
            }
            RegistryError::EmptyOrgId => write!(f, "empty organization handle"),
        }
    }
}

impl Error for RegistryError {}

/// Builder accumulating records before integrity validation.
#[derive(Debug, Default)]
pub struct WhoisRegistryBuilder {
    orgs: Vec<WhoisOrg>,
    auts: Vec<AutNum>,
}

impl WhoisRegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an organization record.
    pub fn org(mut self, org: WhoisOrg) -> Self {
        self.orgs.push(org);
        self
    }

    /// Adds an aut-num record.
    pub fn aut(mut self, aut: AutNum) -> Self {
        self.auts.push(aut);
        self
    }

    /// Adds many records at once.
    pub fn extend(
        mut self,
        orgs: impl IntoIterator<Item = WhoisOrg>,
        auts: impl IntoIterator<Item = AutNum>,
    ) -> Self {
        self.orgs.extend(orgs);
        self.auts.extend(auts);
        self
    }

    /// Validates referential integrity and freezes the registry.
    ///
    /// The checks walk the records in input order over borrowed keys, so
    /// the fault reported is the first one in the input; the records are
    /// then moved, not copied, into indexes built from sorted runs.
    pub fn build(self) -> Result<WhoisRegistry, RegistryError> {
        let mut ids: HashSet<&WhoisOrgId> = HashSet::with_capacity(self.orgs.len());
        for org in &self.orgs {
            if org.id.is_empty() {
                return Err(RegistryError::EmptyOrgId);
            }
            if !ids.insert(&org.id) {
                return Err(RegistryError::DuplicateOrg(org.id.clone()));
            }
        }
        let mut asns: HashSet<Asn> = HashSet::with_capacity(self.auts.len());
        let mut owned: Vec<(&WhoisOrgId, Asn)> = Vec::with_capacity(self.auts.len());
        for aut in &self.auts {
            if !ids.contains(&aut.org) {
                return Err(RegistryError::DanglingOrgRef {
                    asn: aut.asn,
                    org: aut.org.clone(),
                });
            }
            if !asns.insert(aut.asn) {
                return Err(RegistryError::DuplicateAsn(aut.asn));
            }
            owned.push((&aut.org, aut.asn));
        }
        owned.sort_unstable();
        let mut runs: Vec<(&WhoisOrgId, Vec<Asn>)> = Vec::new();
        for (org, asn) in owned {
            match runs.last_mut() {
                Some((last, asns)) if *last == org => asns.push(asn),
                _ => runs.push((org, vec![asn])),
            }
        }
        let members = runs
            .into_iter()
            .map(|(org, asns)| (org.clone(), asns.into_iter().collect()))
            .collect();
        Ok(WhoisRegistry {
            orgs: self.orgs.into_iter().map(|o| (o.id.clone(), o)).collect(),
            auts: self.auts.into_iter().map(|a| (a.asn, a)).collect(),
            members,
        })
    }
}

/// A frozen, indexed WHOIS snapshot.
#[derive(Debug, Clone, Default)]
pub struct WhoisRegistry {
    orgs: BTreeMap<WhoisOrgId, WhoisOrg>,
    auts: BTreeMap<Asn, AutNum>,
    members: BTreeMap<WhoisOrgId, BTreeSet<Asn>>,
}

impl WhoisRegistry {
    /// A builder for a new registry.
    pub fn builder() -> WhoisRegistryBuilder {
        WhoisRegistryBuilder::new()
    }

    /// The organization owning `asn`, if allocated.
    pub fn org_of(&self, asn: Asn) -> Option<&WhoisOrg> {
        self.auts.get(&asn).and_then(|a| self.orgs.get(&a.org))
    }

    /// The aut-num record for `asn`.
    pub fn aut_num(&self, asn: Asn) -> Option<&AutNum> {
        self.auts.get(&asn)
    }

    /// The organization record for a handle.
    pub fn org(&self, id: &WhoisOrgId) -> Option<&WhoisOrg> {
        self.orgs.get(id)
    }

    /// All ASNs registered to an organization (ascending).
    pub fn asns_of(&self, id: &WhoisOrgId) -> impl Iterator<Item = Asn> + '_ {
        self.members
            .get(id)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Every organization that owns at least one ASN, handles ascending,
    /// with its ASNs ascending — the org-to-members index the registry
    /// builds once at load.
    pub fn members(&self) -> impl Iterator<Item = (&WhoisOrgId, &BTreeSet<Asn>)> {
        self.members.iter()
    }

    /// Iterates all allocated ASNs in ascending order. This is the vertex
    /// universe of the Organization Factor graph (§5.4).
    pub fn all_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.auts.keys().copied()
    }

    /// Iterates all aut-num records in ASN order.
    pub fn aut_nums(&self) -> impl Iterator<Item = &AutNum> {
        self.auts.values()
    }

    /// Iterates all organization records in handle order.
    pub fn orgs(&self) -> impl Iterator<Item = &WhoisOrg> {
        self.orgs.values()
    }

    /// Number of allocated ASNs.
    pub fn asn_count(&self) -> usize {
        self.auts.len()
    }

    /// Number of organizations that own at least one ASN.
    pub fn populated_org_count(&self) -> usize {
        self.members.len()
    }

    /// Number of organization records (including ASN-less ones).
    pub fn org_count(&self) -> usize {
        self.orgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Rir;
    use borges_types::OrgName;

    fn org(id: &str) -> WhoisOrg {
        WhoisOrg {
            id: WhoisOrgId::new(id),
            name: OrgName::new(format!("{id} name")),
            country: "US".parse().unwrap(),
            source: Rir::Arin,
            changed: 20240701,
        }
    }

    fn aut(asn: u32, org: &str) -> AutNum {
        AutNum {
            asn: Asn::new(asn),
            name: format!("NET{asn}"),
            org: WhoisOrgId::new(org),
            source: Rir::Arin,
            changed: 20240701,
        }
    }

    #[test]
    fn builds_and_indexes() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("B"))
            .aut(aut(1, "A"))
            .aut(aut(2, "A"))
            .aut(aut(3, "B"))
            .build()
            .unwrap();
        assert_eq!(reg.asn_count(), 3);
        assert_eq!(reg.org_count(), 2);
        assert_eq!(reg.org_of(Asn::new(1)).unwrap().id, WhoisOrgId::new("A"));
        let members: Vec<Asn> = reg.asns_of(&WhoisOrgId::new("A")).collect();
        assert_eq!(members, vec![Asn::new(1), Asn::new(2)]);
    }

    #[test]
    fn rejects_duplicate_org() {
        let err = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("A"))
            .build()
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
    }

    #[test]
    fn rejects_duplicate_asn() {
        let err = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(1, "A"))
            .aut(aut(1, "A"))
            .build()
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateAsn(Asn::new(1)));
    }

    #[test]
    fn rejects_dangling_reference() {
        let err = WhoisRegistry::builder()
            .aut(aut(1, "MISSING"))
            .build()
            .unwrap_err();
        assert!(matches!(err, RegistryError::DanglingOrgRef { .. }));
    }

    #[test]
    fn rejects_empty_handle() {
        let mut o = org("A");
        o.id = WhoisOrgId::new("");
        let err = WhoisRegistry::builder().org(o).build().unwrap_err();
        assert_eq!(err, RegistryError::EmptyOrgId);
    }

    #[test]
    fn orgs_without_asns_are_counted_but_not_populated() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .org(org("EMPTY"))
            .aut(aut(1, "A"))
            .build()
            .unwrap();
        assert_eq!(reg.org_count(), 2);
        assert_eq!(reg.populated_org_count(), 1);
    }

    #[test]
    fn all_asns_is_sorted() {
        let reg = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(30, "A"))
            .aut(aut(10, "A"))
            .aut(aut(20, "A"))
            .build()
            .unwrap();
        let asns: Vec<u32> = reg.all_asns().map(Asn::value).collect();
        assert_eq!(asns, vec![10, 20, 30]);
    }

    #[test]
    fn unknown_lookups_return_none() {
        let reg = WhoisRegistry::builder().build().unwrap();
        assert!(reg.org_of(Asn::new(999)).is_none());
        assert!(reg.org(&WhoisOrgId::new("X")).is_none());
        assert_eq!(reg.asns_of(&WhoisOrgId::new("X")).count(), 0);
    }

    #[test]
    fn the_first_fault_in_input_order_is_reported() {
        let dangling_first = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(1, "MISSING"))
            .aut(aut(2, "A"))
            .aut(aut(2, "A"))
            .build()
            .unwrap_err();
        assert_eq!(
            dangling_first,
            RegistryError::DanglingOrgRef {
                asn: Asn::new(1),
                org: WhoisOrgId::new("MISSING")
            }
        );
        let duplicate_first = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(2, "A"))
            .aut(aut(2, "A"))
            .aut(aut(1, "MISSING"))
            .build()
            .unwrap_err();
        assert_eq!(duplicate_first, RegistryError::DuplicateAsn(Asn::new(2)));
        // One aut-num both repeating an ASN and dangling: the reference is
        // checked first.
        let both = WhoisRegistry::builder()
            .org(org("A"))
            .aut(aut(1, "A"))
            .aut(aut(1, "MISSING"))
            .build()
            .unwrap_err();
        assert!(matches!(both, RegistryError::DanglingOrgRef { .. }));
        // Every org is checked before any aut-num.
        let org_fault = WhoisRegistry::builder()
            .aut(aut(1, "MISSING"))
            .org(org("A"))
            .org(org("A"))
            .build()
            .unwrap_err();
        assert_eq!(org_fault, RegistryError::DuplicateOrg(WhoisOrgId::new("A")));
        let mut empty = org("A");
        empty.id = WhoisOrgId::new("");
        let empty_first = WhoisRegistry::builder()
            .org(empty)
            .org(org("B"))
            .org(org("B"))
            .build()
            .unwrap_err();
        assert_eq!(empty_first, RegistryError::EmptyOrgId);
    }
}
