//! Reproducibility: the paper pins temperature 0 / top-p 1 so results are
//! reproducible "unless the model weights are updated" (§4.2). The
//! reproduction is stricter — every run is byte-identical under a fixed
//! seed, end to end.

use borges_core::pipeline::{Borges, FeatureSet};
use borges_llm::SimLlm;
use borges_synthnet::{GeneratorConfig, SyntheticInternet};
use borges_telemetry::Telemetry;
use borges_websim::SimWebClient;

fn full_run(seed: u64) -> (String, Vec<usize>) {
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(seed));
    let llm = SimLlm::new(seed);
    let borges = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    );
    let snapshot_json = world.pdb.to_json();
    let org_counts: Vec<usize> = FeatureSet::all_combinations()
        .into_iter()
        .map(|f| borges.mapping(f).org_count())
        .collect();
    (snapshot_json, org_counts)
}

#[test]
fn identical_seeds_are_byte_identical() {
    let (json_a, orgs_a) = full_run(7);
    let (json_b, orgs_b) = full_run(7);
    assert_eq!(json_a, json_b, "generated snapshots diverged");
    assert_eq!(orgs_a, orgs_b, "pipeline results diverged");
}

#[test]
fn different_seeds_differ() {
    let (json_a, _) = full_run(7);
    let (json_b, _) = full_run(8);
    assert_ne!(json_a, json_b);
}

#[test]
fn parallel_mappings_match_sequential_exactly() {
    // The threaded fan-out must be invisible in the output: for every
    // feature combination and any thread count, `mappings` is
    // byte-identical to the sequential replay.
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(21));
    let llm = SimLlm::new(21);
    let borges = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    );
    let combinations = FeatureSet::all_combinations();
    let sequential: Vec<_> = combinations.iter().map(|&f| borges.mapping(f)).collect();
    for threads in [1, 2, 7] {
        assert_eq!(
            borges.mappings(&combinations, threads, &Telemetry::disabled()),
            sequential,
            "parallel materialization diverged at {threads} threads"
        );
    }
}

#[test]
fn parallel_run_matches_sequential_run() {
    // The crawl and extraction fan-outs assemble key-canonically, so a
    // threaded pipeline run compiles the same evidence as a sequential
    // one: every feature combination maps identically.
    let world = SyntheticInternet::generate(&GeneratorConfig::tiny(33));
    let llm = SimLlm::new(33);
    let sequential = Borges::run(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
    );
    let parallel = Borges::run_parallel(
        &world.whois,
        &world.pdb,
        SimWebClient::browser(&world.web),
        &llm,
        4,
    );
    assert_eq!(sequential.universe(), parallel.universe());
    for features in FeatureSet::all_combinations() {
        assert_eq!(
            sequential.mapping(features),
            parallel.mapping(features),
            "run vs run_parallel diverged for {}",
            features.label()
        );
    }
}

#[test]
fn experiment_context_is_reproducible() {
    std::env::set_var("BORGES_SCALE", "tiny");
    std::env::set_var("BORGES_SEED", "123");
    let a = borges_eval::ExperimentContext::from_env();
    let b = borges_eval::ExperimentContext::from_env();
    assert_eq!(
        borges_eval::experiments::run_all(&a),
        borges_eval::experiments::run_all(&b),
        "full experiment reports must be byte-identical"
    );
}

#[test]
fn llm_replies_are_stable_across_calls() {
    use borges_llm::chat::{ChatModel, ChatRequest};
    use borges_llm::prompts::build_ie_prompt;
    use borges_types::Asn;
    let llm = SimLlm::new(99);
    let req = ChatRequest::user(build_ie_prompt(
        Asn::new(3320),
        "Our subsidiaries: AS5483, AS6855, AS5391. Upstream: AS1299.",
        "",
    ));
    let first = llm.complete(&req).unwrap().text;
    for _ in 0..10 {
        assert_eq!(llm.complete(&req).unwrap().text, first);
    }
}
