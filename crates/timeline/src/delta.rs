//! Per-link assignment deltas.
//!
//! Each chain link past genesis carries a delta file describing how the
//! ASN→organization assignment moved between the parent world and the
//! child world. The representation is an *anchor map*: every mapped ASN
//! is assigned to the lowest member ASN of its organization. Because
//! [`AsOrgMapping::from_groups`] fully normalizes a partition (members
//! sorted, groups ordered by lowest ASN, dense cluster ids in that
//! order), regrouping an anchor map through `from_groups` reproduces the
//! original mapping *exactly*, cluster ids included — which is what lets
//! [`crate::Timeline::diff`] compose deltas and still return a diff
//! byte-identical to one computed from the two worlds directly.

use borges_core::mapping::AsOrgMapping;
use borges_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema tag written into every delta file.
pub const DELTA_SCHEMA: &str = "borges.timeline.delta.v1";

/// One reassignment: `asn` now belongs to the organization anchored at
/// `anchor` (the org's lowest member ASN in the child world).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaRow {
    /// The ASN whose assignment changed or appeared.
    pub asn: u32,
    /// Lowest member ASN of its organization in the child world.
    pub anchor: u32,
}

/// The difference between two assignment maps, minimal and sorted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignmentDelta {
    /// Schema tag (`borges.timeline.delta.v1`).
    pub schema: String,
    /// ASNs whose anchor changed or that appeared, ascending by ASN.
    pub set: Vec<DeltaRow>,
    /// ASNs present in the parent but absent from the child, ascending.
    pub removed: Vec<u32>,
}

/// A mapping's `(asn, anchor)` pairs — each ASN with the lowest member
/// ASN of its organization — ASNs ascending.
fn anchored(mapping: &AsOrgMapping) -> impl Iterator<Item = (u32, u32)> + '_ {
    mapping
        .iter()
        .map(|(asn, id)| (asn.value(), mapping.members(id)[0].value()))
}

/// Collapses a mapping to its anchor map: ASN → lowest member ASN of
/// its organization.
pub fn assignments(mapping: &AsOrgMapping) -> BTreeMap<u32, u32> {
    anchored(mapping).collect()
}

/// Rebuilds the mapping an anchor map describes. Exact inverse of
/// [`assignments`] thanks to `from_groups` normalization. One sort by
/// `(anchor, asn)` lays every organization out as a run.
pub fn mapping_from_assignments(assignments: &BTreeMap<u32, u32>) -> AsOrgMapping {
    let mut by_anchor: Vec<(u32, u32)> = assignments
        .iter()
        .map(|(&asn, &anchor)| (anchor, asn))
        .collect();
    by_anchor.sort_unstable();
    let mut groups: Vec<Vec<Asn>> = Vec::new();
    let mut current = None;
    for (anchor, asn) in by_anchor {
        if current != Some(anchor) {
            current = Some(anchor);
            groups.push(Vec::new());
        }
        groups
            .last_mut()
            .expect("a group is open")
            .push(Asn::new(asn));
    }
    AsOrgMapping::from_groups(groups)
}

impl AssignmentDelta {
    /// Computes the minimal delta taking `parent`'s assignment to
    /// `child`'s, by one merge-join of their ascending anchor pairs.
    pub fn between(parent: &AsOrgMapping, child: &AsOrgMapping) -> AssignmentDelta {
        let mut set = Vec::new();
        let mut removed = Vec::new();
        let mut before = anchored(parent).peekable();
        for (asn, anchor) in anchored(child) {
            while let Some((gone, _)) = before.next_if(|&(x, _)| x < asn) {
                removed.push(gone);
            }
            let was = before.next_if(|&(x, _)| x == asn).map(|(_, anchor)| anchor);
            if was != Some(anchor) {
                set.push(DeltaRow { asn, anchor });
            }
        }
        removed.extend(before.map(|(asn, _)| asn));
        AssignmentDelta {
            schema: DELTA_SCHEMA.to_string(),
            set,
            removed,
        }
    }

    /// Applies this delta to an assignment map in place.
    pub fn apply(&self, assignments: &mut BTreeMap<u32, u32>) {
        for asn in &self.removed {
            assignments.remove(asn);
        }
        for row in &self.set {
            assignments.insert(row.asn, row.anchor);
        }
    }

    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty() && self.removed.is_empty()
    }

    /// Serializes to the canonical on-disk bytes.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string_pretty(self)
            .expect("delta serializes")
            .into_bytes()
    }

    /// Parses on-disk bytes, rejecting foreign schemas.
    pub fn decode(bytes: &[u8]) -> Result<AssignmentDelta, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("delta is not utf-8: {e}"))?;
        let delta: AssignmentDelta =
            serde_json::from_str(text).map_err(|e| format!("unparseable delta: {e}"))?;
        if delta.schema != DELTA_SCHEMA {
            return Err(format!("unknown delta schema {:?}", delta.schema));
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(groups: &[&[u32]]) -> AsOrgMapping {
        AsOrgMapping::from_groups(
            groups
                .iter()
                .map(|g| g.iter().map(|&x| Asn::new(x)).collect()),
        )
    }

    #[test]
    fn assignments_round_trip_exactly() {
        let mapping = m(&[&[3356, 209, 3549], &[174], &[7018, 2386]]);
        let rebuilt = mapping_from_assignments(&assignments(&mapping));
        assert_eq!(rebuilt, mapping, "from_groups normalization is total");
    }

    #[test]
    fn delta_between_and_apply_compose() {
        let parent = m(&[&[1, 2], &[3, 4], &[5]]);
        let child = m(&[&[1, 2, 3, 4], &[6]]);
        let delta = AssignmentDelta::between(&parent, &child);
        let mut assign = assignments(&parent);
        delta.apply(&mut assign);
        assert_eq!(assign, assignments(&child));
        assert_eq!(mapping_from_assignments(&assign), child);
    }

    #[test]
    fn identity_delta_is_empty() {
        let mapping = m(&[&[1, 2], &[9]]);
        let delta = AssignmentDelta::between(&mapping, &mapping.clone());
        assert!(delta.is_empty());
    }

    #[test]
    fn delta_is_minimal() {
        // Only AS3's move is recorded; AS1/AS2 stay anchored at AS1.
        let parent = m(&[&[1, 2], &[3]]);
        let child = m(&[&[1, 2], &[3, 7]]);
        let delta = AssignmentDelta::between(&parent, &child);
        assert_eq!(
            delta.set,
            vec![DeltaRow { asn: 7, anchor: 3 }],
            "unmoved assignments are not re-stated"
        );
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let parent = m(&[&[1, 2, 3]]);
        let child = m(&[&[1], &[2, 3]]);
        let delta = AssignmentDelta::between(&parent, &child);
        let decoded = AssignmentDelta::decode(&delta.encode()).unwrap();
        assert_eq!(decoded, delta);
    }

    #[test]
    fn decode_rejects_foreign_schema() {
        let err = AssignmentDelta::decode(
            br#"{"schema":"borges.timeline.delta.v99","set":[],"removed":[]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown delta schema"), "{err}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(AssignmentDelta::decode(b"not json").is_err());
    }
}
