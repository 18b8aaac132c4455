//! CAIDA's "serial-1" AS-relationship file format.
//!
//! CAIDA publishes inferred AS relationships as pipe-separated triples:
//!
//! ```text
//! # source: borges-topology
//! 3356|209|-1
//! 3356|2914|0
//! ```
//!
//! `a|b|-1` means *a is a provider of b*; `a|b|0` means *a and b peer*.
//! Comment lines start with `#`. This module reads and writes that format
//! so a genuine CAIDA `as-rel.txt` can stand in for the generated
//! topology.

use crate::graph::{AsGraph, AsGraphBuilder};
use borges_types::Asn;
use std::error::Error;
use std::fmt;

/// A serial-1 parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serial1Error {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for Serial1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl Error for Serial1Error {}

/// Parses a serial-1 relationship file.
pub fn parse(text: &str) -> Result<AsGraph, Serial1Error> {
    parse_lines(text, false)
}

/// The one pass behind [`parse`] and [`parse_with_nodes`].
fn parse_lines(text: &str, node_comments: bool) -> Result<AsGraph, Serial1Error> {
    let mut builder = AsGraphBuilder::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        if let Err(reason) = parse_line(raw.trim(), node_comments, &mut builder) {
            // A bad `# node:` comment anywhere outranks a bad edge line.
            let later = (node_comments && reason != BAD_NODE)
                .then(|| {
                    lines.find(|(_, raw)| {
                        let node = raw.trim().strip_prefix(NODE_PREFIX);
                        node.is_some_and(|n| n.parse::<Asn>().is_err())
                    })
                })
                .flatten();
            let (idx, reason) = later.map_or((idx, reason), |(later, _)| (later, BAD_NODE));
            return Err(Serial1Error {
                line: idx + 1,
                reason,
            });
        }
    }
    Ok(builder.build())
}

const NODE_PREFIX: &str = "# node: ";
const BAD_NODE: &str = "invalid node comment";

/// Adds one trimmed line's edge (or, with `node_comments`, its
/// `# node:` AS) to `builder`.
fn parse_line(
    line: &str,
    node_comments: bool,
    builder: &mut AsGraphBuilder,
) -> Result<(), &'static str> {
    if line.starts_with('#') {
        if let Some(node) = line.strip_prefix(NODE_PREFIX).filter(|_| node_comments) {
            builder.node(node.parse().map_err(|_| BAD_NODE)?);
        }
        return Ok(());
    }
    if line.is_empty() {
        return Ok(());
    }
    let mut fields = line.split('|');
    let (a, b, rel) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(a), Some(b), Some(rel), None) => (a, b, rel),
        _ => return Err("expected as1|as2|rel"),
    };
    let a: Asn = a.parse().map_err(|_| "invalid as1")?;
    let b: Asn = b.parse().map_err(|_| "invalid as2")?;
    match rel {
        "-1" => builder.provider_customer(a, b),
        "0" => builder.peer_peer(a, b),
        _ => return Err("relationship must be -1 or 0"),
    };
    Ok(())
}

/// Serializes a graph to the serial-1 format, deterministically ordered.
pub fn serialize(graph: &AsGraph) -> String {
    let mut out = String::from("# format: as1|as2|rel (-1 = as1 provider of as2, 0 = peers)\n");
    for provider in graph.nodes() {
        for &customer in graph.customers_of(provider) {
            out.push_str(&format!("{}|{}|-1\n", provider.value(), customer.value()));
        }
    }
    for a in graph.nodes() {
        for &b in graph.peers_of(a) {
            if a < b {
                out.push_str(&format!("{}|{}|0\n", a.value(), b.value()));
            }
        }
    }
    // Isolated nodes still appear (as comments) so node sets round-trip.
    for node in graph.nodes() {
        if graph.degree(node) == 0 {
            out.push_str(&format!("# node: {}\n", node.value()));
        }
    }
    out
}

/// Parses including `# node:` comments (the round-trip companion of
/// [`serialize`] — plain CAIDA files simply have no such comments).
pub fn parse_with_nodes(text: &str) -> Result<AsGraph, Serial1Error> {
    parse_lines(text, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn parses_caida_style_lines() {
        let g = parse("# inferred\n3356|209|-1\n3356|2914|0\n").unwrap();
        assert_eq!(g.customers_of(a(3356)), &[a(209)]);
        assert_eq!(g.peers_of(a(3356)), &[a(2914)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse("1|2\n").unwrap_err().line, 1);
        assert_eq!(
            parse("1|2|7\n").unwrap_err().reason,
            "relationship must be -1 or 0"
        );
        assert!(parse("x|2|-1\n").is_err());
        assert!(parse("1|2|-1|extra\n").is_err());
    }

    #[test]
    fn roundtrip_with_isolated_nodes() {
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.peer_peer(a(2), a(3));
        b.node(a(99));
        let g = b.build();
        let text = serialize(&g);
        let back = parse_with_nodes(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.p2c_count(), g.p2c_count());
        assert_eq!(back.p2p_count(), g.p2p_count());
        assert_eq!(serialize(&back), text, "stable serialization");
    }

    #[test]
    fn cones_survive_roundtrip() {
        use crate::cone::customer_cones;
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.provider_customer(a(1), a(3));
        b.provider_customer(a(3), a(4));
        let g = b.build();
        let back = parse_with_nodes(&serialize(&g)).unwrap();
        assert_eq!(customer_cones(&g), customer_cones(&back));
    }

    #[test]
    fn a_bad_node_comment_outranks_an_earlier_bad_edge() {
        assert_eq!(
            parse_with_nodes("1|2|7\n# node: x\n").unwrap_err(),
            Serial1Error {
                line: 2,
                reason: "invalid node comment"
            }
        );
        assert_eq!(parse_with_nodes("1|2|7\n# node: 5\n").unwrap_err().line, 1);
        assert!(
            parse("# node: x\n1|2|-1\n").is_ok(),
            "plain parse skips comments"
        );
    }
}
