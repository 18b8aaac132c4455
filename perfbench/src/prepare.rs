//! Input generation, run in a child process so its memory never counts
//! toward the measured program's peak RSS. Also computes the reference
//! answers the output checks compare against, outside any timed phase.
//!
//! Writes into the work directory:
//! - `bundle/` (build, serve), or `t0/` and `t1/` (refresh): dataset
//!   bundles as `borges generate` writes them;
//! - `reference.sha256` (build, refresh): SHA-256 of the mapfile the
//!   reference path produces;
//! - `world.store` and `pairs.txt` (serve): the `build` artifact, and
//!   the sibling / non-sibling evidence pair pools;
//! - `inputs.txt`: `key=value` lines recorded with the result.

use crate::rng::SplitMix64;
use crate::{llm, sha256_hex, Workload, CHURN_PERCENT};
use borges_core::mapfile;
use borges_core::ner::NerConfig;
use borges_core::pipeline::{Borges, FeatureSet};
use borges_peeringdb::PdbSnapshot;
use borges_synthnet::io::{save, DatasetBundle};
use borges_synthnet::{churn, GeneratorConfig, SyntheticInternet};
use borges_types::Asn;
use borges_websim::{Scraper, SimWeb, SimWebClient};
use borges_whois::WhoisRegistry;
use std::fmt::Write as _;
use std::path::Path;

/// Evidence pairs per pool (sibling and non-sibling each).
const PAIRS_PER_POOL: usize = 16;

fn sizes(
    inputs: &mut String,
    prefix: &str,
    whois: &WhoisRegistry,
    pdb: &PdbSnapshot,
    web: &SimWeb,
) {
    let _ = writeln!(inputs, "{prefix}asns={}", whois.asn_count());
    let _ = writeln!(inputs, "{prefix}nets={}", pdb.net_count());
    let _ = writeln!(inputs, "{prefix}hosts={}", web.host_count());
}

fn load(dir: &Path) -> Result<DatasetBundle, String> {
    DatasetBundle::load(dir).map_err(|e| format!("load {}: {e}", dir.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn generate(seed: u64, dir: &Path) -> Result<SyntheticInternet, String> {
    let world = SyntheticInternet::generate(&GeneratorConfig::paper(seed));
    save(&world, dir).map_err(|e| format!("save {}: {e}", dir.display()))?;
    Ok(world)
}

pub fn prepare(workload: Workload, seed: u64, threads: usize, dir: &Path) -> Result<(), String> {
    let mut inputs = String::new();
    match workload {
        Workload::Build => {
            drop(generate(seed, &dir.join("bundle"))?);
            let bundle = load(&dir.join("bundle"))?;
            sizes(&mut inputs, "", &bundle.whois, &bundle.pdb, &bundle.web);
            // The reference is the single-threaded run on the same bundle.
            let model = llm();
            let reference = Borges::run(
                &bundle.whois,
                &bundle.pdb,
                SimWebClient::browser(&bundle.web),
                &model,
            );
            let text = mapfile::serialize(&reference.mapping(FeatureSet::ALL));
            write(&dir.join("reference.sha256"), &sha256_hex(text.as_bytes()))?;
        }
        Workload::Refresh => {
            let base = generate(seed, &dir.join("t0"))?;
            sizes(&mut inputs, "t0_", &base.whois, &base.pdb, &base.web);
            let (next, report) = churn(&base, CHURN_PERCENT, churn_seed(seed));
            drop(base);
            save(&next, &dir.join("t1")).map_err(|e| format!("save t1: {e}"))?;
            drop(next);
            let _ = writeln!(inputs, "churn_percent={CHURN_PERCENT}");
            let _ = writeln!(inputs, "churn_selected={}", report.selected);
            let _ = writeln!(inputs, "churn_auts_touched={}", report.auts_touched);
            let _ = writeln!(inputs, "churn_notes_appended={}", report.notes_appended);
            let _ = writeln!(inputs, "churn_auts_reassigned={}", report.auts_reassigned);
            let _ = writeln!(inputs, "churn_orgs_renamed={}", report.orgs_renamed);
            let _ = writeln!(inputs, "churn_nets_removed={}", report.nets_removed);
            let bundle = load(&dir.join("t1"))?;
            sizes(&mut inputs, "", &bundle.whois, &bundle.pdb, &bundle.web);
            // The reference is a full compile of T+1 from the same crawl.
            let scraper = Scraper::new(SimWebClient::browser(&bundle.web));
            let crawl = scraper.crawl(bundle.pdb.nets().map(|n| (n.asn, n.website.as_str())));
            let model = llm();
            let full = Borges::from_scrape(
                &bundle.whois,
                &bundle.pdb,
                &crawl,
                &model,
                NerConfig::default(),
            );
            let text = mapfile::serialize(&full.mapping(FeatureSet::ALL));
            write(&dir.join("reference.sha256"), &sha256_hex(text.as_bytes()))?;
        }
        Workload::Serve => {
            drop(generate(seed, &dir.join("bundle"))?);
            let bundle = load(&dir.join("bundle"))?;
            sizes(&mut inputs, "", &bundle.whois, &bundle.pdb, &bundle.web);
            // The artifact `build` writes: `borges map --store-out`.
            let model = llm();
            let borges = Borges::run_parallel(
                &bundle.whois,
                &bundle.pdb,
                SimWebClient::browser(&bundle.web),
                &model,
                threads,
            );
            drop(bundle);
            borges_store::write_artifact(&dir.join("world.store"), &borges.to_world())
                .map_err(|e| format!("write artifact: {e}"))?;
            write(&dir.join("pairs.txt"), &evidence_pairs(&borges, seed))?;
        }
    }
    write(&dir.join("inputs.txt"), &inputs)
}

/// The churn seed of a workload seed.
fn churn_seed(seed: u64) -> u64 {
    seed ^ 0x0063_6875_726e
}

/// `s a b` lines for sibling pairs (same org under all features) and
/// `o a b` lines for pairs in different orgs, drawn by the seed.
fn evidence_pairs(borges: &Borges, seed: u64) -> String {
    let mapping = borges.mapping(FeatureSet::ALL);
    let multi: Vec<&[Asn]> = mapping
        .clusters()
        .map(|(_, members)| members)
        .filter(|m| m.len() >= 2)
        .collect();
    let universe = borges.universe();
    let mut rng = SplitMix64::new(seed ^ 0x7061_6972);
    let mut out = String::new();
    for _ in 0..PAIRS_PER_POOL {
        let members = multi[rng.below(multi.len())];
        let i = rng.below(members.len());
        let j = (i + 1 + rng.below(members.len() - 1)) % members.len();
        let _ = writeln!(out, "s {} {}", members[i].value(), members[j].value());
    }
    let mut others = 0;
    while others < PAIRS_PER_POOL {
        let a = universe[rng.below(universe.len())];
        let b = universe[rng.below(universe.len())];
        if a != b && !mapping.same_org(a, b) {
            let _ = writeln!(out, "o {} {}", a.value(), b.value());
            others += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_whois::as2org_format;

    /// The churned snapshot as the bundle would store it.
    fn churned(world_seed: u64, seed: u64) -> String {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(world_seed));
        let (next, _) = churn(&world, CHURN_PERCENT * 20.0, churn_seed(seed));
        format!(
            "{}{}",
            as2org_format::serialize(&next.whois),
            next.pdb.to_json()
        )
    }

    #[test]
    fn a_seed_gives_the_same_churned_world_and_another_seed_another() {
        assert_eq!(churned(5, 11), churned(5, 11));
        assert_ne!(churned(5, 11), churned(5, 12));
    }
}
