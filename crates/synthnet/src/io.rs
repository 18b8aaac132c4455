//! Dataset persistence: a generated world as a directory of files.
//!
//! [`save`] writes every view in its native interchange format so the
//! bundle is consumable by external tooling (and by the `borges` CLI):
//!
//! | file | format |
//! |---|---|
//! | `as2org.txt` | CAIDA AS2Org flat file |
//! | `peeringdb.json` | PeeringDB dump-shaped JSON |
//! | `web.json` | web snapshot (hosts + behaviours) |
//! | `as-rel.txt` | CAIDA serial-1 AS-relationship file |
//! | `populations.psv` | `asn\|users\|country` |
//! | `asrank.txt` | one ASN per line, rank order |
//! | `hypergiants.psv` | `name\|asn` |
//! | `truth.psv` | `asn\|org_id\|org_name` (the oracle; optional on load) |
//! | `labels.psv` | `asn\|sib1 sib2 …` (IE ground truth; optional on load) |
//! | `config.json` | the generator configuration |
//!
//! [`DatasetBundle::load`] reads a bundle back; the oracle files are
//! optional, so bundles built from *real* snapshots (CAIDA + PeeringDB
//! dumps + an archived crawl) load the same way — just without
//! truth-based scoring.

use crate::config::GeneratorConfig;
use crate::generate::PopulationRecord;
use crate::SyntheticInternet;
use borges_peeringdb::PdbSnapshot;
use borges_topology::{serial1, AsGraph};
use borges_types::{Asn, CountryCode};
use borges_websim::{snapshot as websnap, SimWeb};
use borges_whois::{as2org_format, WhoisRegistry};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// A persistence failure.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem error, with the file involved.
    Fs(String, std::io::Error),
    /// A file exists but does not parse.
    Format(String, Box<dyn Error + Send + Sync>),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Fs(file, e) => write!(f, "{file}: {e}"),
            IoError::Format(file, e) => write!(f, "{file}: {e}"),
        }
    }
}

impl Error for IoError {}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), IoError> {
    std::fs::write(dir.join(name), contents).map_err(|e| IoError::Fs(name.to_string(), e))
}

fn read(dir: &Path, name: &str) -> Result<String, IoError> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| IoError::Fs(name.to_string(), e))
}

fn read_optional(dir: &Path, name: &str) -> Result<Option<String>, IoError> {
    match std::fs::read_to_string(dir.join(name)) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(IoError::Fs(name.to_string(), e)),
    }
}

/// Saves a world into `dir` (created if missing).
pub fn save(world: &SyntheticInternet, dir: &Path) -> Result<(), IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::Fs(dir.display().to_string(), e))?;

    write(dir, "as2org.txt", &as2org_format::serialize(&world.whois))?;
    write(dir, "peeringdb.json", &world.pdb.to_json())?;
    write(dir, "web.json", &websnap::to_json(&world.web))?;
    write(dir, "as-rel.txt", &serial1::serialize(&world.topology))?;

    let mut populations = String::from("# asn|users|country\n");
    for (asn, rec) in &world.populations {
        populations.push_str(&format!("{}|{}|{}\n", asn.value(), rec.users, rec.country));
    }
    write(dir, "populations.psv", &populations)?;

    let mut asrank = String::new();
    for asn in &world.asrank {
        asrank.push_str(&format!("{}\n", asn.value()));
    }
    write(dir, "asrank.txt", &asrank)?;

    let mut hypergiants = String::from("# name|asn\n");
    for (name, asn) in &world.hypergiants {
        hypergiants.push_str(&format!("{}|{}\n", name, asn.value()));
    }
    write(dir, "hypergiants.psv", &hypergiants)?;

    let mut truth = String::from("# asn|org_id|org_name\n");
    for (asn, org_id) in world.truth.assignments() {
        truth.push_str(&format!(
            "{}|{}|{}\n",
            asn.value(),
            org_id.0,
            world.truth.org(org_id).display_name
        ));
    }
    write(dir, "truth.psv", &truth)?;

    let mut labels = String::from("# asn|siblings\n");
    for (asn, siblings) in &world.text_labels {
        let list: Vec<String> = siblings.iter().map(|a| a.value().to_string()).collect();
        labels.push_str(&format!("{}|{}\n", asn.value(), list.join(" ")));
    }
    write(dir, "labels.psv", &labels)?;

    let config =
        serde_json::to_string_pretty(&world.config).expect("config serialization cannot fail");
    write(dir, "config.json", &config)
}

/// A loaded dataset bundle — the pipeline's inputs, plus optional oracle
/// files for scoring.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// WHOIS registry.
    pub whois: WhoisRegistry,
    /// PeeringDB snapshot.
    pub pdb: PdbSnapshot,
    /// Web snapshot.
    pub web: SimWeb,
    /// AS-relationship graph (CAIDA serial-1 format on disk).
    pub topology: AsGraph,
    /// APNIC-like population table.
    pub populations: BTreeMap<Asn, PopulationRecord>,
    /// AS-Rank ordering.
    pub asrank: Vec<Asn>,
    /// Hypergiant roster.
    pub hypergiants: Vec<(String, Asn)>,
    /// Oracle: ASN → (truth org id, org name), when `truth.psv` exists.
    pub truth: Option<BTreeMap<Asn, (usize, String)>>,
    /// Oracle: embedded sibling labels, when `labels.psv` exists.
    pub labels: Option<BTreeMap<Asn, Vec<Asn>>>,
    /// The generator configuration, when `config.json` exists.
    pub config: Option<GeneratorConfig>,
}

impl DatasetBundle {
    /// Loads a bundle from `dir`.
    pub fn load(dir: &Path) -> Result<Self, IoError> {
        let whois = as2org_format::parse(&read(dir, "as2org.txt")?)
            .map_err(|e| IoError::Format("as2org.txt".into(), Box::new(e)))?;
        let pdb = PdbSnapshot::from_json(&read(dir, "peeringdb.json")?)
            .map_err(|e| IoError::Format("peeringdb.json".into(), Box::new(e)))?;
        let web = websnap::from_json(&read(dir, "web.json")?)
            .map_err(|e| IoError::Format("web.json".into(), Box::new(e)))?;
        let topology = serial1::parse_with_nodes(&read(dir, "as-rel.txt")?)
            .map_err(|e| IoError::Format("as-rel.txt".into(), Box::new(e)))?;

        let mut populations = BTreeMap::new();
        for row in parse_psv(&read(dir, "populations.psv")?, "populations.psv") {
            let (asn, [users, country]) = row?;
            let users: u64 = users
                .parse()
                .map_err(|_| bad("populations.psv", "invalid user count"))?;
            let country: CountryCode = country
                .parse()
                .map_err(|_| bad("populations.psv", "invalid country"))?;
            populations.insert(asn, PopulationRecord { users, country });
        }

        let mut asrank = Vec::new();
        for line in read(dir, "asrank.txt")?.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            asrank.push(
                line.parse::<Asn>()
                    .map_err(|_| bad("asrank.txt", "invalid asn"))?,
            );
        }

        let mut hypergiants = Vec::new();
        for line in read(dir, "hypergiants.psv")?.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, asn) = line
                .split_once('|')
                .ok_or_else(|| bad("hypergiants.psv", "expected name|asn"))?;
            hypergiants.push((
                name.to_string(),
                asn.parse::<Asn>()
                    .map_err(|_| bad("hypergiants.psv", "invalid asn"))?,
            ));
        }

        let truth = match read_optional(dir, "truth.psv")? {
            Some(text) => {
                let mut map = BTreeMap::new();
                for row in parse_psv(&text, "truth.psv") {
                    let (asn, [org_id, name]) = row?;
                    let org_id: usize = org_id
                        .parse()
                        .map_err(|_| bad("truth.psv", "invalid org id"))?;
                    map.insert(asn, (org_id, name.to_string()));
                }
                Some(map)
            }
            None => None,
        };

        let labels = match read_optional(dir, "labels.psv")? {
            Some(text) => {
                let mut map = BTreeMap::new();
                for row in parse_psv(&text, "labels.psv") {
                    let (asn, [list]) = row?;
                    let mut siblings = Vec::new();
                    for token in list.split_whitespace() {
                        siblings.push(
                            token
                                .parse::<Asn>()
                                .map_err(|_| bad("labels.psv", "invalid sibling asn"))?,
                        );
                    }
                    map.insert(asn, siblings);
                }
                Some(map)
            }
            None => None,
        };

        let config = match read_optional(dir, "config.json")? {
            Some(text) => Some(
                serde_json::from_str(&text)
                    .map_err(|e| IoError::Format("config.json".into(), Box::new(e)))?,
            ),
            None => None,
        };

        Ok(DatasetBundle {
            whois,
            pdb,
            web,
            topology,
            populations,
            asrank,
            hypergiants,
            truth,
            labels,
            config,
        })
    }

    /// Are two ASNs siblings according to the bundled oracle? `None`
    /// when the bundle has no oracle.
    pub fn are_siblings(&self, a: Asn, b: Asn) -> Option<bool> {
        let truth = self.truth.as_ref()?;
        match (truth.get(&a), truth.get(&b)) {
            (Some((x, _)), Some((y, _))) => Some(x == y),
            _ => Some(false),
        }
    }
}

fn bad(file: &str, reason: &'static str) -> IoError {
    IoError::Format(
        file.to_string(),
        Box::new(borges_types::ParseError::new("field", "", reason)),
    )
}

/// Parses `asn|field|field…` lines (first field always an ASN) into the
/// ASN and `N` more fields, the last taking the rest of the line.
fn parse_psv<'a, const N: usize>(
    text: &'a str,
    file: &'a str,
) -> impl Iterator<Item = Result<(Asn, [&'a str; N]), IoError>> + 'a {
    text.lines()
        .map(|line| line.trim_end_matches('\r'))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(move |line| {
            let mut parts = line.splitn(N + 1, '|');
            let asn = parts.next().unwrap_or_default();
            let mut fields = [""; N];
            for field in &mut fields {
                *field = parts.next().ok_or_else(|| bad(file, "wrong field count"))?;
            }
            let asn: Asn = asn.parse().map_err(|_| bad(file, "invalid asn"))?;
            Ok((asn, fields))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorConfig;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borges-io-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let dir = tmpdir("roundtrip");
        save(&world, &dir).unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();

        assert_eq!(bundle.whois.asn_count(), world.whois.asn_count());
        assert_eq!(bundle.pdb.net_count(), world.pdb.net_count());
        assert_eq!(bundle.web.host_count(), world.web.host_count());
        assert_eq!(bundle.topology.node_count(), world.topology.node_count());
        assert_eq!(bundle.topology.p2c_count(), world.topology.p2c_count());
        assert_eq!(bundle.topology.p2p_count(), world.topology.p2p_count());
        assert_eq!(bundle.populations.len(), world.populations.len());
        assert_eq!(bundle.asrank, world.asrank);
        assert_eq!(bundle.hypergiants.len(), 16);
        assert_eq!(bundle.config.as_ref(), Some(&world.config));

        // The oracle survives.
        let truth = bundle.truth.as_ref().unwrap();
        assert_eq!(truth.len(), world.truth.asn_count());
        assert_eq!(
            bundle.are_siblings(Asn::new(3356), Asn::new(209)),
            Some(true)
        );
        assert_eq!(
            bundle.are_siblings(Asn::new(3356), Asn::new(174)),
            Some(false)
        );
        let labels = bundle.labels.as_ref().unwrap();
        assert_eq!(labels, &world.text_labels);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_files_are_optional() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let dir = tmpdir("no-oracle");
        save(&world, &dir).unwrap();
        std::fs::remove_file(dir.join("truth.psv")).unwrap();
        std::fs::remove_file(dir.join("labels.psv")).unwrap();
        std::fs::remove_file(dir.join("config.json")).unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();
        assert!(bundle.truth.is_none());
        assert!(bundle.labels.is_none());
        assert!(bundle.config.is_none());
        assert!(bundle.are_siblings(Asn::new(1), Asn::new(2)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_required_file_is_an_error() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let dir = tmpdir("missing");
        save(&world, &dir).unwrap();
        std::fs::remove_file(dir.join("peeringdb.json")).unwrap();
        assert!(matches!(
            DatasetBundle::load(&dir),
            Err(IoError::Fs(file, _)) if file == "peeringdb.json"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_format_error() {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let dir = tmpdir("corrupt");
        save(&world, &dir).unwrap();
        std::fs::write(dir.join("web.json"), "{not json").unwrap();
        assert!(matches!(
            DatasetBundle::load(&dir),
            Err(IoError::Format(file, _)) if file == "web.json"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
