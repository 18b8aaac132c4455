//! Figure 3 walkthrough: the Lumen / CenturyLink case.
//!
//! WHOIS still assigns Level3 (AS3356, with Global Crossing AS3549) and
//! CenturyLink (AS209) to different organizations a decade after their
//! merger; PeeringDB's operator-maintained records group them. This
//! example inspects both registries and shows how Borges's organization
//! keys (§4.1) reconcile the partially overlapping clusters.
//!
//! ```sh
//! cargo run --example lumen_centurylink
//! ```

use borges_core::delta::chain_edges;
use borges_core::orgkeys::{oid_p_mapping, oid_w_mapping};
use borges_core::DenseUnionFind;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_types::{Asn, AsnInterner};

fn main() {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(42));
    let (level3, gblx, centurylink) = (Asn::new(3356), Asn::new(3549), Asn::new(209));

    println!("== WHOIS view (what CAIDA AS2Org sees) ==");
    for asn in [level3, gblx, centurylink] {
        let org = world.whois.org_of(asn).expect("allocated");
        println!("  {asn}: org {} ({})", org.id, org.name);
    }
    let whois_map = oid_w_mapping(&world.whois);
    println!(
        "  → same organization? {}   (the Fig. 3 blind spot)",
        whois_map.same_org(level3, centurylink)
    );

    println!("\n== PeeringDB view (operator-maintained) ==");
    for asn in [level3, centurylink] {
        match world.pdb.org_of_asn(asn) {
            Some(org) => println!("  {asn}: org {} ({})", org.id, org.name),
            None => println!("  {asn}: not registered in PeeringDB"),
        }
    }
    let pdb_map = oid_p_mapping(&world.pdb);
    println!(
        "  → same organization? {}",
        pdb_map.same_org(level3, centurylink)
    );

    println!("\n== Borges: consolidating partially overlapping clusters (§4.1) ==");
    let clusters: Vec<Vec<Asn>> = whois_map
        .clusters()
        .chain(pdb_map.clusters())
        .map(|(_, members)| members.to_vec())
        .collect();
    let interner = AsnInterner::new(whois_map.asns().chain(pdb_map.asns()));
    let mut uf = DenseUnionFind::new(interner.len());
    uf.union_edges(&chain_edges(&interner, &clusters));
    let id = |asn: Asn| interner.id(asn).expect("registered");
    println!("  WHOIS brings {{AS3356, AS3549}}; PeeringDB brings {{AS3356, AS209}};");
    println!(
        "  union-find closes the triangle: AS3549 ~ AS209? {}",
        uf.same_set(id(gblx), id(centurylink))
    );
    println!(
        "  ground truth agrees: {}",
        world.truth.are_siblings(gblx, centurylink)
    );
}
