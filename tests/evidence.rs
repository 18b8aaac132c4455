//! Evidence provenance and Table 3 contributions against an independent
//! reference.
//!
//! [`Borges::evidence`] names the features whose evidence *alone*
//! connects two ASNs; [`Borges::contribution`] counts the ASes and
//! organizations one feature covers on its own (Table 3). The reference
//! here labels connected components by breadth-first search over the
//! raw inputs each feature contributes — WHOIS and PeeringDB org-key
//! groups read straight off the registries, the notes/aka extraction
//! edges, the R&R merging groups and the favicon groups — with no
//! union-find anywhere. ASNs outside the delegated universe stay in the
//! graph: evidence about a never-allocated ASN still bridges its
//! neighbours, and an ASN no evidence names is connected to nothing,
//! itself included.

use borges_core::{Borges, Feature, FeatureContribution};
use borges_llm::SimLlm;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_types::Asn;
use borges_websim::SimWebClient;
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// The tiny worlds the sweep draws pairs from.
const SEEDS: [u64; 3] = [3, 5, 11];

/// Connected components of one feature's evidence graph, by BFS.
struct Components {
    label: BTreeMap<Asn, usize>,
    count: usize,
}

impl Components {
    /// Components of the graph whose vertices are every ASN named by
    /// `groups` or `edges`, where each group is a clique and each edge
    /// joins its endpoints.
    fn of(groups: &[Vec<Asn>], edges: &[(Asn, Asn)]) -> Self {
        let mut adjacency: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
        for group in groups {
            for &x in group {
                adjacency
                    .entry(x)
                    .or_default()
                    .extend(group.iter().copied());
            }
        }
        for &(x, y) in edges {
            adjacency.entry(x).or_default().insert(y);
            adjacency.entry(y).or_default().insert(x);
        }
        let mut label = BTreeMap::new();
        let mut count = 0;
        for &start in adjacency.keys() {
            if label.contains_key(&start) {
                continue;
            }
            let mut queue = VecDeque::from([start]);
            label.insert(start, count);
            while let Some(x) = queue.pop_front() {
                for &y in &adjacency[&x] {
                    if let Entry::Vacant(slot) = label.entry(y) {
                        slot.insert(count);
                        queue.push_back(y);
                    }
                }
            }
            count += 1;
        }
        Components { label, count }
    }

    fn connects(&self, a: Asn, b: Asn) -> bool {
        matches!((self.label.get(&a), self.label.get(&b)), (Some(x), Some(y)) if x == y)
    }

    fn contribution(&self) -> FeatureContribution {
        FeatureContribution {
            ases: self.label.len(),
            orgs: self.count,
        }
    }
}

/// One feature's raw evidence: groups (cliques) and edges.
type RawEvidence = (Feature, Vec<Vec<Asn>>, Vec<(Asn, Asn)>);

/// One world, its pipeline, and the reference components of every
/// feature in [`Feature::ALL`] order.
struct Fixture {
    borges: Borges,
    inputs: Vec<RawEvidence>,
    components: Vec<(Feature, Components)>,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        Self::with(seed, |_| {})
    }

    /// The fixture of `seed`, with `edit` applied to the pipeline's
    /// evidence before any reference is taken.
    fn with(seed: u64, edit: impl FnOnce(&mut Borges)) -> Self {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(seed));
        let llm = SimLlm::new(seed);
        let mut borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        edit(&mut borges);
        let mut by_whois_org: BTreeMap<&str, Vec<Asn>> = BTreeMap::new();
        for aut in world.whois.aut_nums() {
            by_whois_org
                .entry(aut.org.as_str())
                .or_default()
                .push(aut.asn);
        }
        let mut by_pdb_org: BTreeMap<u64, Vec<Asn>> = BTreeMap::new();
        for net in world.pdb.nets() {
            by_pdb_org
                .entry(net.org_id.value())
                .or_default()
                .push(net.asn);
        }
        let oid_w: Vec<Vec<Asn>> = by_whois_org.into_values().collect();
        let oid_p: Vec<Vec<Asn>> = by_pdb_org.into_values().collect();
        let inputs = vec![
            (Feature::OidP, oid_p, Vec::new()),
            (Feature::OidW, oid_w, Vec::new()),
            (Feature::NotesAka, Vec::new(), borges.ner.edges()),
            (
                Feature::RefreshRedirect,
                borges.rr.merging_groups().cloned().collect(),
                Vec::new(),
            ),
            (Feature::Favicons, borges.favicon.groups.clone(), Vec::new()),
        ];
        let components = inputs
            .iter()
            .map(|(feature, groups, edges)| (*feature, Components::of(groups, edges)))
            .collect();
        Fixture {
            borges,
            inputs,
            components,
        }
    }

    /// The reference answer, in the order `Borges::evidence` reports.
    fn evidence(&self, a: Asn, b: Asn) -> Vec<Feature> {
        const ORDER: [Feature; 5] = [
            Feature::OidW,
            Feature::OidP,
            Feature::NotesAka,
            Feature::RefreshRedirect,
            Feature::Favicons,
        ];
        ORDER
            .into_iter()
            .filter(|f| self.components(*f).connects(a, b))
            .collect()
    }

    fn components(&self, feature: Feature) -> &Components {
        &self
            .components
            .iter()
            .find(|(f, _)| *f == feature)
            .expect("every feature has a reference")
            .1
    }

    /// Pairs of universe ASNs that some feature connects only through
    /// ASNs outside the universe — with those ASNs deleted from the
    /// graph, the pair falls apart.
    fn bridged_only_outside(&self) -> Vec<(Asn, Asn)> {
        let universe: BTreeSet<Asn> = self.borges.universe().into_iter().collect();
        let mut pairs = BTreeSet::new();
        for ((_, groups, edges), (_, full)) in self.inputs.iter().zip(&self.components) {
            let groups: Vec<Vec<Asn>> = groups
                .iter()
                .map(|g| g.iter().copied().filter(|a| universe.contains(a)).collect())
                .collect();
            let edges: Vec<(Asn, Asn)> = edges
                .iter()
                .copied()
                .filter(|(x, y)| universe.contains(x) && universe.contains(y))
                .collect();
            let inside = Components::of(&groups, &edges);
            let mut by_label: BTreeMap<usize, Vec<Asn>> = BTreeMap::new();
            for (&asn, &l) in &full.label {
                if universe.contains(&asn) {
                    by_label.entry(l).or_default().push(asn);
                }
            }
            for members in by_label.values() {
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        if !inside.connects(a, b) {
                            pairs.insert((a, b));
                        }
                    }
                }
            }
        }
        pairs.into_iter().collect()
    }
}

/// One fixture per seed in [`SEEDS`], then [`bridged_fixture`].
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut all: Vec<Fixture> = SEEDS.iter().map(|&s| Fixture::new(s)).collect();
        all.push(bridged_fixture());
        all
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn evidence_matches_a_bfs_reference(
        world in 0..SEEDS.len() + 1,
        i in any::<usize>(),
        j in any::<usize>(),
        same in any::<bool>(),
    ) {
        let fixture = &fixtures()[world];
        let universe = fixture.borges.universe();
        let a = universe[i % universe.len()];
        let b = if same { a } else { universe[j % universe.len()] };
        prop_assert_eq!(fixture.borges.evidence(a, b), fixture.evidence(a, b));
        prop_assert_eq!(fixture.borges.evidence(b, a), fixture.evidence(a, b));
    }
}

/// Seed 11's pipeline, with never-allocated ASNs planted so that each
/// of notes/aka, R&R and favicons links some universe pairs *only*
/// through them: the tiny worlds extract at most a few unallocated
/// ASNs, and none of them bridges two subjects.
fn bridged_fixture() -> Fixture {
    Fixture::with(11, |borges| {
        let mut unallocated = (64_512..)
            .map(Asn::new)
            .filter(|&a| !borges.contains(a))
            .take(4)
            .collect::<Vec<Asn>>()
            .into_iter();
        let mut plant = |groups: &mut [&mut Vec<Asn>]| {
            let u = unallocated.next().unwrap();
            for group in groups.iter_mut() {
                group.push(u);
            }
        };
        let mut subjects = borges.ner.per_entry.values_mut();
        let (s1, s2) = (subjects.next().unwrap(), subjects.next_back().unwrap());
        plant(&mut [s1, s2]);
        let (first, rest) = borges.rr.groups.split_first_mut().unwrap();
        plant(&mut [first, rest.last_mut().unwrap()]);
        let (first, rest) = borges.favicon.groups.split_first_mut().unwrap();
        plant(&mut [first, rest.last_mut().unwrap()]);
        // An unallocated ASN on its own in a favicon group.
        let lone = unallocated.next().unwrap();
        borges.favicon.groups.push(vec![lone]);
        let hash = borges.favicon.group_favicons[0];
        borges.favicon.group_favicons.push(hash);
    })
}

#[test]
fn evidence_sees_bridges_through_unallocated_asns() {
    let mut bridged = 0;
    for fixture in fixtures() {
        let universe: BTreeSet<Asn> = fixture.borges.universe().into_iter().collect();
        for (a, b) in fixture.bridged_only_outside() {
            bridged += 1;
            assert_eq!(fixture.borges.evidence(a, b), fixture.evidence(a, b));
            assert!(!fixture.borges.evidence(a, b).is_empty());
        }
        // ASNs outside the universe that evidence names: each is
        // connected to itself and to its neighbours, exactly as the
        // reference says.
        let outside: BTreeSet<Asn> = fixture
            .components
            .iter()
            .flat_map(|(_, c)| c.label.keys().copied())
            .filter(|asn| !universe.contains(asn))
            .collect();
        let some_inside = *universe.iter().next().unwrap();
        for &u in &outside {
            assert_eq!(fixture.borges.evidence(u, u), fixture.evidence(u, u));
            assert_eq!(
                fixture.borges.evidence(u, some_inside),
                fixture.evidence(u, some_inside)
            );
            for &v in &outside {
                assert_eq!(fixture.borges.evidence(u, v), fixture.evidence(u, v));
            }
        }
        // An ASN nothing names is connected to nothing, itself included.
        let stranger = Asn::new(4_199_999_999);
        assert!(fixture.borges.evidence(stranger, stranger).is_empty());
        assert!(fixture.borges.evidence(stranger, some_inside).is_empty());
    }
    assert!(
        bridged > 0,
        "no world has a pair bridged only outside the universe"
    );
}

#[test]
fn contributions_match_a_bfs_reference() {
    for fixture in fixtures() {
        // Org keys count their (disjoint) groups; notes/aka and favicons
        // cluster their evidence first. Either way: the BFS components.
        for feature in [
            Feature::OidW,
            Feature::OidP,
            Feature::NotesAka,
            Feature::Favicons,
        ] {
            assert_eq!(
                fixture.borges.contribution(feature),
                fixture.components(feature).contribution(),
                "{}",
                feature.label()
            );
        }
        // R&R counts every group as given, singletons included.
        let groups = &fixture.borges.rr.groups;
        assert_eq!(
            fixture.borges.contribution(Feature::RefreshRedirect),
            FeatureContribution {
                ases: groups.iter().map(Vec::len).sum(),
                orgs: groups.len(),
            }
        );
    }
}

#[test]
fn table3_contributions_on_the_tiny_seed_5_world() {
    let fixture = &fixtures()[SEEDS.iter().position(|&s| s == 5).unwrap()];
    let rows: Vec<(&str, usize, usize)> = Feature::ALL
        .iter()
        .map(|&f| {
            let c = fixture.borges.contribution(f);
            (f.label(), c.ases, c.orgs)
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ("OID_P", 381, 327),
            ("OID_W", 700, 587),
            ("notes and aka", 31, 11),
            ("R&R", 324, 294),
            ("Favicons", 195, 21),
        ]
    );
}
