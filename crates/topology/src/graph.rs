//! The AS relationship graph.
//!
//! Inter-domain links carry business semantics (Gao's model): a
//! **provider–customer** edge means the customer pays the provider for
//! transit; a **peer–peer** edge means settlement-free exchange. AS-Rank
//! only walks p2c edges; peering contributes to degree but not to cones.

use borges_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// The business relationship annotating a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relationship {
    /// First AS sells transit to the second (provider → customer).
    ProviderCustomer,
    /// Settlement-free peering.
    PeerPeer,
}

/// Builder for an [`AsGraph`]. Duplicate edges collapse; conflicting
/// annotations on the same unordered pair are rejected.
///
/// Edges and nodes are appended as they arrive and sorted and
/// deduplicated once in [`build`](Self::build).
#[derive(Debug, Default)]
pub struct AsGraphBuilder {
    p2c: Vec<(Asn, Asn)>,
    p2p: Vec<(Asn, Asn)>,
    nodes: Vec<Asn>,
}

impl AsGraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS with no links yet (stub networks still rank).
    pub fn node(&mut self, asn: Asn) -> &mut Self {
        self.nodes.push(asn);
        self
    }

    /// Adds a provider→customer edge.
    pub fn provider_customer(&mut self, provider: Asn, customer: Asn) -> &mut Self {
        if provider != customer {
            self.p2c.push((provider, customer));
        }
        self
    }

    /// Adds a peering edge (stored with the smaller ASN first).
    pub fn peer_peer(&mut self, a: Asn, b: Asn) -> &mut Self {
        if a != b {
            self.p2p.push(if a < b { (a, b) } else { (b, a) });
        }
        self
    }

    /// Freezes the graph.
    pub fn build(mut self) -> AsGraph {
        self.p2c.sort_unstable();
        self.p2c.dedup();
        self.p2p.sort_unstable();
        self.p2p.dedup();
        let endpoints = self.p2c.iter().chain(&self.p2p).flat_map(|&(a, b)| [a, b]);
        self.nodes.extend(endpoints);
        self.nodes.sort_unstable();
        self.nodes.dedup();

        let providers = self.p2c.iter().map(|&(p, c)| (c, p)).collect();
        let peers = self
            .p2p
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        AsGraph {
            nodes: self.nodes.into_iter().collect(),
            customers: adjacency(self.p2c),
            providers: adjacency(providers),
            peers: adjacency(peers),
        }
    }
}

/// Groups directed `(from, to)` edges into ascending per-node lists.
fn adjacency(mut edges: Vec<(Asn, Asn)>) -> BTreeMap<Asn, Vec<Asn>> {
    edges.sort_unstable();
    let mut lists: Vec<(Asn, Vec<Asn>)> = Vec::new();
    for (from, to) in edges {
        match lists.last_mut() {
            Some((last, list)) if *last == from => list.push(to),
            _ => lists.push((from, vec![to])),
        }
    }
    lists.into_iter().collect()
}

/// An immutable annotated AS-relationship graph.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    nodes: BTreeSet<Asn>,
    customers: BTreeMap<Asn, Vec<Asn>>,
    providers: BTreeMap<Asn, Vec<Asn>>,
    peers: BTreeMap<Asn, Vec<Asn>>,
}

impl AsGraph {
    /// A new builder.
    pub fn builder() -> AsGraphBuilder {
        AsGraphBuilder::new()
    }

    /// All ASes, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of ASes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of provider–customer links.
    pub fn p2c_count(&self) -> usize {
        self.customers.values().map(Vec::len).sum()
    }

    /// Number of peering links.
    pub fn p2p_count(&self) -> usize {
        self.peers.values().map(Vec::len).sum::<usize>() / 2
    }

    /// Direct customers of `asn`.
    pub fn customers_of(&self, asn: Asn) -> &[Asn] {
        self.customers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Direct providers of `asn`.
    pub fn providers_of(&self, asn: Asn) -> &[Asn] {
        self.providers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peers of `asn`.
    pub fn peers_of(&self, asn: Asn) -> &[Asn] {
        self.peers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total degree (providers + customers + peers) — AS-Rank's
    /// secondary key.
    pub fn degree(&self, asn: Asn) -> usize {
        self.customers_of(asn).len() + self.providers_of(asn).len() + self.peers_of(asn).len()
    }

    /// `true` when the AS has no customers (a stub or pure peer).
    pub fn is_stub(&self, asn: Asn) -> bool {
        self.customers_of(asn).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn builds_and_indexes_both_directions() {
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.provider_customer(a(1), a(3));
        b.peer_peer(a(1), a(4));
        let g = b.build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.customers_of(a(1)), &[a(2), a(3)]);
        assert_eq!(g.providers_of(a(2)), &[a(1)]);
        assert_eq!(g.peers_of(a(4)), &[a(1)]);
        assert_eq!(g.degree(a(1)), 3);
        assert!(g.is_stub(a(2)));
        assert!(!g.is_stub(a(1)));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.provider_customer(a(1), a(2));
        b.peer_peer(a(3), a(4));
        b.peer_peer(a(4), a(3));
        let g = b.build();
        assert_eq!(g.p2c_count(), 1);
        assert_eq!(g.p2p_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(1));
        b.peer_peer(a(2), a(2));
        b.node(a(1));
        b.node(a(2));
        let g = b.build();
        assert_eq!(g.p2c_count(), 0);
        assert_eq!(g.p2p_count(), 0);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn isolated_nodes_are_kept() {
        let mut b = AsGraph::builder();
        b.node(a(9));
        let g = b.build();
        assert_eq!(g.node_count(), 1);
        assert!(g.is_stub(a(9)));
        assert_eq!(g.degree(a(9)), 0);
    }
}
