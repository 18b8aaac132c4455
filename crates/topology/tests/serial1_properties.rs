//! Property tests: arbitrary AS graphs — with isolated nodes, duplicate
//! edges and self-loops — survive the serial-1 format, and the builder
//! agrees with a set-based model of what it should index.

use borges_topology::{serial1, AsGraph};
use borges_types::Asn;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Small ASN ranges, so duplicates and self-loops are common.
fn edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((1u32..30, 1u32..30), 0..80)
}

/// The adjacency a graph built from these inputs must expose, derived
/// with ordered sets: self-loops dropped, duplicates collapsed, peering
/// symmetric.
struct Model {
    nodes: BTreeSet<u32>,
    customers: BTreeMap<u32, BTreeSet<u32>>,
    providers: BTreeMap<u32, BTreeSet<u32>>,
    peers: BTreeMap<u32, BTreeSet<u32>>,
}

impl Model {
    fn new(p2c: &[(u32, u32)], p2p: &[(u32, u32)], isolated: &[u32]) -> Self {
        let mut m = Model {
            nodes: isolated.iter().copied().collect(),
            customers: BTreeMap::new(),
            providers: BTreeMap::new(),
            peers: BTreeMap::new(),
        };
        for &(p, c) in p2c.iter().filter(|(p, c)| p != c) {
            m.customers.entry(p).or_default().insert(c);
            m.providers.entry(c).or_default().insert(p);
            m.nodes.extend([p, c]);
        }
        for &(a, b) in p2p.iter().filter(|(a, b)| a != b) {
            m.peers.entry(a).or_default().insert(b);
            m.peers.entry(b).or_default().insert(a);
            m.nodes.extend([a, b]);
        }
        m
    }

    fn list(index: &BTreeMap<u32, BTreeSet<u32>>, node: u32) -> Vec<Asn> {
        index
            .get(&node)
            .into_iter()
            .flatten()
            .map(|&a| Asn::new(a))
            .collect()
    }

    fn assert_matches(&self, g: &AsGraph) {
        let nodes: Vec<Asn> = self.nodes.iter().map(|&a| Asn::new(a)).collect();
        assert_eq!(g.nodes().collect::<Vec<_>>(), nodes);
        for &node in &self.nodes {
            let asn = Asn::new(node);
            assert_eq!(g.customers_of(asn), Self::list(&self.customers, node));
            assert_eq!(g.providers_of(asn), Self::list(&self.providers, node));
            assert_eq!(g.peers_of(asn), Self::list(&self.peers, node));
        }
        let p2c: usize = self.customers.values().map(BTreeSet::len).sum();
        let p2p: usize = self.peers.values().map(BTreeSet::len).sum::<usize>() / 2;
        assert_eq!((g.p2c_count(), g.p2p_count()), (p2c, p2p));
    }
}

proptest! {
    #[test]
    fn serialize_then_parse_with_nodes_reproduces_the_graph(
        p2c in edges(),
        p2p in edges(),
        isolated in prop::collection::vec(1u32..60, 0..10),
    ) {
        let mut builder = AsGraph::builder();
        for &(p, c) in &p2c {
            builder.provider_customer(Asn::new(p), Asn::new(c));
        }
        for &(a, b) in &p2p {
            builder.peer_peer(Asn::new(a), Asn::new(b));
        }
        for &n in &isolated {
            builder.node(Asn::new(n));
        }
        let graph = builder.build();
        let model = Model::new(&p2c, &p2p, &isolated);
        model.assert_matches(&graph);

        let text = serial1::serialize(&graph);
        let back = serial1::parse_with_nodes(&text).expect("own output parses");
        model.assert_matches(&back);
        prop_assert_eq!(serial1::serialize(&back), text);
    }
}
