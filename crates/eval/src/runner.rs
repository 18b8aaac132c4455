//! Experiment context: one generated world + one pipeline run, shared by
//! every table/figure binary.

use borges_baselines::{as2org, as2orgplus, As2orgPlusConfig};
use borges_core::impact::{AsnPopulation, OrgNamer};
use borges_core::pipeline::Borges;
use borges_core::AsOrgMapping;
use borges_llm::SimLlm;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_types::Asn;
use borges_websim::SimWebClient;
use std::collections::BTreeMap;

/// The workspace-wide default seed (the snapshot date the paper uses,
/// July 24 2024, read as an integer).
pub const DEFAULT_SEED: u64 = 20240724;

/// A fully computed experiment context: the synthetic world, the Borges
/// pipeline run over it, and the two baselines.
pub struct ExperimentContext {
    /// The generated world (with its ground truth).
    pub world: SyntheticInternet,
    /// The computed pipeline (all feature evidence cached).
    pub borges: Borges,
    /// CAIDA AS2Org baseline mapping.
    pub as2org: AsOrgMapping,
    /// as2org+ baseline mapping (automated configuration, §5.1).
    pub as2orgplus: AsOrgMapping,
    /// Full Borges mapping (all features).
    pub full: AsOrgMapping,
    /// Worker threads for batched mapping materialization
    /// ([`Borges::mappings`]); defaults to the machine's
    /// available parallelism.
    pub threads: usize,
}

impl ExperimentContext {
    /// Generates a world from `config` and runs the pipeline with the
    /// paper-calibrated simulated LLM.
    pub fn new(config: &GeneratorConfig) -> Self {
        let world = SyntheticInternet::generate(config);
        let llm = SimLlm::new(config.seed);
        let borges = Borges::run(
            &world.whois,
            &world.pdb,
            SimWebClient::browser(&world.web),
            &llm,
        );
        let as2org = as2org(&world.whois);
        let as2orgplus = as2orgplus(&world.whois, &world.pdb, As2orgPlusConfig::automated());
        let full = borges.full();
        ExperimentContext {
            world,
            borges,
            as2org,
            as2orgplus,
            full,
            threads: borges_parallel::default_threads(),
        }
    }

    /// The full paper-scale context.
    pub fn paper() -> Self {
        Self::new(&GeneratorConfig::paper(DEFAULT_SEED))
    }

    /// Scale/seed from the environment: `BORGES_SCALE` ∈
    /// {`tiny`, `medium`, `paper`} (default `paper`), `BORGES_SEED`
    /// (default [`DEFAULT_SEED`]). This is how the experiment binaries are
    /// pointed at a smaller world for smoke runs.
    pub fn from_env() -> Self {
        let seed = std::env::var("BORGES_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        let config = match std::env::var("BORGES_SCALE").as_deref() {
            Ok("tiny") => GeneratorConfig::tiny(seed),
            Ok("medium") => GeneratorConfig::medium(seed),
            _ => GeneratorConfig::paper(seed),
        };
        Self::new(&config)
    }

    /// The mapping universe size `n` used by every θ computation.
    pub fn universe_size(&self) -> usize {
        self.borges.universe().len()
    }

    /// The population table in the shape the impact analyses consume.
    pub fn populations(&self) -> BTreeMap<Asn, AsnPopulation> {
        self.world
            .populations
            .iter()
            .map(|(asn, rec)| {
                (
                    *asn,
                    AsnPopulation {
                        users: rec.users,
                        country: rec.country,
                    },
                )
            })
            .collect()
    }

    /// An organization namer over this world's registries.
    pub fn namer(&self) -> OrgNamer<'_> {
        OrgNamer::new(&self.world.pdb, &self.world.whois)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_on_a_tiny_world() {
        let ctx = ExperimentContext::new(&GeneratorConfig::tiny(1));
        assert!(ctx.universe_size() > 300);
        assert_eq!(ctx.full.asn_count(), ctx.universe_size());
        assert!(ctx.full.org_count() < ctx.as2org.org_count());
        assert!(!ctx.populations().is_empty());
    }
}
