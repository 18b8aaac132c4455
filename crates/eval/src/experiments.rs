//! The experiment implementations: one function per paper table/figure.
//!
//! Each function renders the same rows/series its paper counterpart
//! reports, from an [`ExperimentContext`]. The binaries in `src/bin/` are
//! one-liners over these functions; the integration suite asserts on the
//! underlying numbers.

use crate::report::{fmt_f64, fmt_u64, Table};
use crate::runner::ExperimentContext;
use borges_core::evalsets::{classifier_confusion, ie_confusion, ClassifierEval, Confusion};
use borges_core::impact::{
    country_footprint, hypergiant_sizes, population_comparison, transit_growth,
};
use borges_core::orgfactor::{
    cumulative_curve, organization_factor, organization_factor_normalized,
};
use borges_core::orgkeys::{oid_p_mapping, oid_w_mapping};
use borges_core::pipeline::{Feature, FeatureSet};
use borges_telemetry::Telemetry;

/// Table 3 — ASes and organizations contributed by each feature, plus the
/// §5.2 funnel narrative.
pub fn table3(ctx: &ExperimentContext) -> String {
    let mut t = Table::new(["Source", "Number of ASes", "Number of Orgs"]);
    for feature in Feature::ALL {
        let c = ctx.borges.contribution(feature);
        t.row([
            feature.label().to_string(),
            fmt_u64(c.ases as u64),
            fmt_u64(c.orgs as u64),
        ]);
    }

    let oid_w = oid_w_mapping(&ctx.world.whois);
    let oid_p = oid_p_mapping(&ctx.world.pdb);
    let namer = ctx.namer();
    let largest_w = oid_w.largest().map(|(id, s)| (oid_w.members(id)[0], s));
    let largest_p = oid_p.largest().map(|(id, s)| (oid_p.members(id)[0], s));

    let ner = &ctx.borges.ner.stats;
    let scrape = &ctx.borges.scrape_stats;
    let fav = &ctx.borges.favicon.stats;

    let mut out = String::new();
    out.push_str("Table 3: Summary of ASes and Organizations obtained from each feature\n\n");
    out.push_str(&t.render());
    out.push_str("\nOrganizational IDs (§5.2):\n");
    out.push_str(&format!(
        "  AS2Org/WHOIS: {} ASNs in {} orgs (mean {} networks/org",
        fmt_u64(oid_w.asn_count() as u64),
        fmt_u64(oid_w.org_count() as u64),
        fmt_f64(oid_w.mean_size(), 2),
    ));
    if let Some((anchor, size)) = largest_w {
        out.push_str(&format!(
            "; largest: {} with {} networks",
            namer.name_of(anchor),
            fmt_u64(size as u64)
        ));
    }
    out.push_str(")\n");
    out.push_str(&format!(
        "  PeeringDB:    {} ASNs in {} orgs (mean {} networks/org",
        fmt_u64(oid_p.asn_count() as u64),
        fmt_u64(oid_p.org_count() as u64),
        fmt_f64(oid_p.mean_size(), 2),
    ));
    if let Some((anchor, size)) = largest_p {
        out.push_str(&format!(
            "; largest: {} with {} networks",
            namer.name_of(anchor),
            fmt_u64(size as u64)
        ));
    }
    out.push_str(")\n");

    out.push_str("\nnotes and aka funnel (§5.2):\n");
    out.push_str(&format!(
        "  {} entries; {} non-empty; {} numeric ({} in aka, {} in notes)\n",
        fmt_u64(ner.entries_total as u64),
        fmt_u64(ner.entries_with_text as u64),
        fmt_u64(ner.entries_numeric as u64),
        fmt_u64(ner.numeric_in_aka as u64),
        fmt_u64(ner.numeric_in_notes as u64),
    ));
    out.push_str(&format!(
        "  {} LLM calls extracted {} sibling ASNs from {} entries\n",
        fmt_u64(ner.llm_calls as u64),
        fmt_u64(ner.extracted_asns as u64),
        fmt_u64(ner.entries_with_siblings as u64),
    ));
    let total_usage = ner.usage + fav.usage;
    out.push_str(&format!(
        "  estimated LLM bill for the run: {} tokens ≈ ${:.2} at GPT-4o-mini list prices\n",
        fmt_u64(total_usage.total()),
        borges_llm::chat::estimate_cost_usd(total_usage),
    ));

    out.push_str("\nRefresh & Redirect funnel (§5.2):\n");
    out.push_str(&format!(
        "  {} entries with websites referencing {} unique URLs; {} reachable; {} unique final URLs\n",
        fmt_u64(scrape.entries_with_website as u64),
        fmt_u64(scrape.unique_urls as u64),
        fmt_u64(scrape.reachable_urls as u64),
        fmt_u64(scrape.unique_final_urls as u64),
    ));

    out.push_str("\nFavicon funnel (§5.2):\n");
    out.push_str(&format!(
        "  {} unique favicons; {} shared by >1 final URL, covering {} URLs; \
{} groups merged by the same-subdomain rule, {} by the LLM, \
{} rejected as frameworks, {} declined\n",
        fmt_u64(scrape.unique_favicons as u64),
        fmt_u64(fav.favicons_shared as u64),
        fmt_u64(fav.urls_in_shared as u64),
        fmt_u64(fav.merged_by_step1 as u64),
        fmt_u64(fav.merged_by_llm as u64),
        fmt_u64(fav.framework_rejections as u64),
        fmt_u64(fav.dont_know as u64),
    ));
    out
}

fn confusion_table(title: &str, c: &Confusion) -> String {
    let mut t = Table::new(["Metric", "Value"]);
    t.row(["True Positives (TP)", &fmt_u64(c.tp as u64)]);
    t.row(["True Negatives (TN)", &fmt_u64(c.tn as u64)]);
    t.row(["False Negatives (FN)", &fmt_u64(c.fn_ as u64)]);
    t.row(["False Positives (FP)", &fmt_u64(c.fp as u64)]);
    t.row(["Recall", &fmt_f64(c.recall(), 3)]);
    t.row(["Precision", &fmt_f64(c.precision(), 3)]);
    t.row(["Accuracy", &fmt_f64(c.accuracy(), 3)]);
    format!("{title}\n\n{}", t.render())
}

/// Table 4 — accuracy of the LLM information-extraction stage, over a
/// 320-record audit sample and over the full numeric population.
pub fn table4(ctx: &ExperimentContext) -> (Confusion, String) {
    let sample = ie_confusion(
        &ctx.world.pdb,
        &ctx.world.text_labels,
        &ctx.borges.ner,
        Some(320),
    );
    let full = ie_confusion(
        &ctx.world.pdb,
        &ctx.world.text_labels,
        &ctx.borges.ner,
        None,
    );
    let mut out = confusion_table(
        "Table 4: LLM-based Information Extraction accuracy (320-record audit sample)",
        &sample,
    );
    out.push('\n');
    out.push_str(&confusion_table(
        &format!(
            "Full numeric population ({} records)",
            fmt_u64(full.total() as u64)
        ),
        &full,
    ));
    (sample, out)
}

/// Table 5 — accuracy of the favicon classifier, per step and overall.
pub fn table5(ctx: &ExperimentContext) -> (ClassifierEval, String) {
    let eval = classifier_confusion(&ctx.borges.favicon, |a, b| {
        ctx.world.truth.are_siblings(a, b)
    });
    let mut t = Table::new(["", "Step 1", "Step 2", "All"]);
    let cells = |f: fn(&Confusion) -> usize| {
        [
            fmt_u64(f(&eval.step1) as u64),
            fmt_u64(f(&eval.step2) as u64),
            fmt_u64(f(&eval.overall) as u64),
        ]
    };
    let [a, b, c] = cells(|x| x.tp);
    t.row(["True Positives (TP)".to_string(), a, b, c]);
    let [a, b, c] = cells(|x| x.tn);
    t.row(["True Negatives (TN)".to_string(), a, b, c]);
    let [a, b, c] = cells(|x| x.fp);
    t.row(["False Positives (FP)".to_string(), a, b, c]);
    let [a, b, c] = cells(|x| x.fn_);
    t.row(["False Negatives (FN)".to_string(), a, b, c]);
    t.row([
        "Precision".to_string(),
        fmt_f64(eval.step1.precision(), 3),
        fmt_f64(eval.step2.precision(), 3),
        fmt_f64(eval.overall.precision(), 3),
    ]);
    t.row([
        "Recall".to_string(),
        fmt_f64(eval.step1.recall(), 3),
        fmt_f64(eval.step2.recall(), 3),
        fmt_f64(eval.overall.recall(), 3),
    ]);
    t.row([
        "Accuracy".to_string(),
        fmt_f64(eval.step1.accuracy(), 3),
        fmt_f64(eval.step2.accuracy(), 3),
        fmt_f64(eval.overall.accuracy(), 3),
    ]);
    let out = format!(
        "Table 5: LLM-based classifier accuracy ({} shared-favicon groups)\n\n{}",
        fmt_u64(eval.overall.total() as u64),
        t.render()
    );
    (eval, out)
}

/// Table 6 — Organization Factor θ for the baselines and all 16 feature
/// combinations.
pub fn table6(ctx: &ExperimentContext) -> (Vec<(String, f64)>, String) {
    let n = ctx.universe_size();
    let theta_as2org = organization_factor(&ctx.as2org, n);
    let theta_plus = organization_factor(&ctx.as2orgplus, n);

    let mut rows: Vec<(String, f64)> = vec![
        ("AS2Org (baseline)".to_string(), theta_as2org),
        ("as2org+ (automated)".to_string(), theta_plus),
    ];
    let combinations: Vec<FeatureSet> =
        FeatureSet::all_combinations().into_iter().skip(1).collect();
    let mappings = ctx
        .borges
        .mappings(&combinations, ctx.threads, &Telemetry::disabled());
    for (features, mapping) in combinations.iter().zip(&mappings) {
        let theta = organization_factor(mapping, n);
        let label = if *features == FeatureSet::ALL {
            "Borges (all features)".to_string()
        } else {
            features.label()
        };
        rows.push((label, theta));
    }

    let supremum = (n as f64 - 1.0) / (2.0 * n as f64);
    let mut t = Table::new(["Configuration", "θ (Eq. 1)", "θ normalized", "Δ vs AS2Org"]);
    for (label, theta) in &rows {
        let delta = if theta_as2org > 0.0 {
            format!("{:+.2}%", (theta / theta_as2org - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        t.row([
            label.clone(),
            fmt_f64(*theta, 4),
            fmt_f64(*theta / supremum, 4),
            delta,
        ]);
    }
    let out = format!(
        "Table 6: Organization Factor (θ) over {} networks\n\n{}",
        fmt_u64(n as u64),
        t.render()
    );
    (rows, out)
}

/// Figure 7 — the cumulative organization-size curves that θ integrates:
/// the all-singletons diagonal vs AS2Org vs Borges.
pub fn figure7(ctx: &ExperimentContext) -> String {
    let n = ctx.universe_size();
    let as2org_curve = cumulative_curve(&ctx.as2org, n);
    let borges_curve = cumulative_curve(&ctx.full, n);

    let mut t = Table::new(["org index i", "singletons C_i", "AS2Org C_i", "Borges C_i"]);
    for &i in sample_indices(n).iter() {
        t.row([
            fmt_u64(i as u64),
            fmt_u64(i as u64), // all-singletons: C_i = i
            fmt_u64(as2org_curve[i - 1]),
            fmt_u64(borges_curve[i - 1]),
        ]);
    }
    format!(
        "Figure 7: cumulative networks per organization (sorted descending, padded)\n\
θ(singletons) = 0.0000, θ(AS2Org) = {} (normalized {}), θ(Borges) = {} (normalized {})\n\n{}",
        fmt_f64(organization_factor(&ctx.as2org, n), 4),
        fmt_f64(organization_factor_normalized(&ctx.as2org, n), 4),
        fmt_f64(organization_factor(&ctx.full, n), 4),
        fmt_f64(organization_factor_normalized(&ctx.full, n), 4),
        t.render()
    )
}

/// Log-spaced sample of `1..=n` for printing monotone curves.
fn sample_indices(n: usize) -> Vec<usize> {
    let mut out = vec![1usize];
    let mut x = 1f64;
    while (x as usize) < n {
        x *= 1.6;
        let i = (x as usize).min(n);
        if *out.last().unwrap() != i {
            out.push(i);
        }
    }
    if *out.last().unwrap() != n {
        out.push(n);
    }
    out
}

/// Table 7 — mean AS population of changed vs unchanged organizations.
pub fn table7(ctx: &ExperimentContext) -> String {
    let pops = ctx.populations();
    let cmp = population_comparison(&ctx.as2org, &ctx.full, &pops);
    let mut t = Table::new(["", "# Organizations", "E(AS2Org)", "E(Borges)"]);
    t.row([
        "Changed".to_string(),
        fmt_u64(cmp.changed.len() as u64),
        fmt_u64(cmp.mean_base_changed as u64),
        fmt_u64(cmp.mean_improved_changed as u64),
    ]);
    t.row([
        "Unchanged".to_string(),
        fmt_u64(cmp.unchanged_count as u64),
        fmt_u64(cmp.mean_unchanged as u64),
        fmt_u64(cmp.mean_unchanged as u64),
    ]);
    format!(
        "Table 7: mean AS population, organizations with vs without changes\n\n{}\n\
Total marginal user growth: {} of {} total users ({}% of the population)\n",
        t.render(),
        fmt_u64(cmp.total_marginal_growth),
        fmt_u64(cmp.total_users),
        fmt_f64(
            cmp.total_marginal_growth as f64 / cmp.total_users.max(1) as f64 * 100.0,
            1
        ),
    )
}

/// Table 8 — top-20 marginal AS-population growths.
pub fn table8(ctx: &ExperimentContext) -> String {
    let pops = ctx.populations();
    let cmp = population_comparison(&ctx.as2org, &ctx.full, &pops);
    let namer = ctx.namer();
    let mut t = Table::new(["Company", "AS2Org", "Borges", "Difference"]);
    for change in cmp.changed.iter().take(20) {
        t.row([
            namer.name_of(change.anchor),
            fmt_u64(change.base_max_users),
            fmt_u64(change.improved_users),
            fmt_u64(change.marginal_growth()),
        ]);
    }
    format!(
        "Table 8: top 20 marginal AS population growths\n\n{}",
        t.render()
    )
}

/// Figure 8 — cumulative marginal network growth by AS-Rank, with linear
/// fits over the top-100/1,000/10,000 windows.
pub fn figure8(ctx: &ExperimentContext) -> String {
    let growth = transit_growth(&ctx.as2org, &ctx.full, &ctx.world.asrank);
    let mut out =
        String::from("Figure 8: marginal network growth of organizations sorted by AS-Rank\n\n");
    let mut fits = Table::new(["window", "slope", "avg ASNs gained/org"]);
    for fit in &growth.fits {
        fits.row([
            format!("top {}", fmt_u64(fit.top_n as u64)),
            format!("{:.4}", fit.slope),
            format!("{:.2}", fit.avg_growth),
        ]);
    }
    out.push_str(&fits.render());
    out.push('\n');
    let mut series = Table::new(["rank", "cumulative marginal ASNs"]);
    let n = growth.series.len();
    for &i in sample_indices(n).iter() {
        let (rank, cum) = growth.series[i - 1];
        series.row([fmt_u64(rank as u64), fmt_u64(cum)]);
    }
    out.push_str(&series.render());
    out
}

/// Figure 9 — hypergiant organization sizes under AS2Org, as2org+ and
/// Borges.
pub fn figure9(ctx: &ExperimentContext) -> String {
    let rows = hypergiant_sizes(
        &ctx.world.hypergiants,
        &[&ctx.as2org, &ctx.as2orgplus, &ctx.full],
    );
    let mut t = Table::new(["Hypergiant", "ASN", "AS2Org", "as2org+", "Borges"]);
    for row in &rows {
        t.row([
            row.name.clone(),
            row.asn.to_string(),
            fmt_u64(row.sizes[0] as u64),
            fmt_u64(row.sizes[1] as u64),
            fmt_u64(row.sizes[2] as u64),
        ]);
    }
    format!(
        "Figure 9: organization size of hypergiants per method\n\n{}",
        t.render()
    )
}

/// Table 9 — top-20 country-level footprint growths.
pub fn table9(ctx: &ExperimentContext) -> String {
    let pops = ctx.populations();
    let cmp = country_footprint(&ctx.as2org, &ctx.full, &pops);
    let namer = ctx.namer();
    let mut t = Table::new(["Company", "AS2Org", "Borges", "Difference"]);
    for change in cmp.expanded.iter().take(20) {
        t.row([
            namer.name_of(change.anchor),
            fmt_u64(change.base_countries as u64),
            fmt_u64(change.improved_countries as u64),
            fmt_u64(change.gain() as u64),
        ]);
    }
    format!(
        "Table 9: top 20 organizations' country-level footprint growths\n\n{}\n\
{} organizations expanded; average marginal increase {} countries\n",
        t.render(),
        fmt_u64(cmp.expanded.len() as u64),
        fmt_f64(cmp.mean_gain, 2),
    )
}

/// §5.2's "complementary effects", quantified: for each feature, the
/// number of sibling *pairs* that exist in the full mapping but vanish
/// when that one feature is removed — its unique, non-redundant
/// contribution. (Merged-pair counts are Σ s·(s−1)/2 over cluster sizes.)
pub fn feature_complementarity(ctx: &ExperimentContext) -> String {
    let pairs = |m: &borges_core::AsOrgMapping| -> u64 {
        m.sizes_desc()
            .into_iter()
            .map(|s| (s as u64) * (s as u64 - 1) / 2)
            .sum()
    };
    let full_pairs = pairs(&ctx.full);
    let base_pairs = pairs(&ctx.as2org);

    let mut t = Table::new([
        "feature removed",
        "merged pairs",
        "unique pairs lost vs full",
    ]);
    t.row([
        "(none — full Borges)".to_string(),
        fmt_u64(full_pairs),
        "-".to_string(),
    ]);
    let ablations = [
        (
            "OID_P",
            FeatureSet {
                oid_p: false,
                ..FeatureSet::ALL
            },
        ),
        (
            "N&A",
            FeatureSet {
                na: false,
                ..FeatureSet::ALL
            },
        ),
        (
            "R&R",
            FeatureSet {
                rr: false,
                ..FeatureSet::ALL
            },
        ),
        (
            "Favicons",
            FeatureSet {
                favicons: false,
                ..FeatureSet::ALL
            },
        ),
    ];
    let feature_sets: Vec<FeatureSet> = ablations.iter().map(|(_, f)| *f).collect();
    let mappings = ctx
        .borges
        .mappings(&feature_sets, ctx.threads, &Telemetry::disabled());
    for ((label, _), mapping) in ablations.iter().zip(&mappings) {
        let without = pairs(mapping);
        t.row([
            label.to_string(),
            fmt_u64(without),
            fmt_u64(full_pairs - without),
        ]);
    }
    t.row([
        "(all — AS2Org base)".to_string(),
        fmt_u64(base_pairs),
        fmt_u64(full_pairs - base_pairs),
    ]);
    format!(
        "Feature complementarity (§5.2): sibling pairs lost when one feature is removed\n\n{}\nA large \"unique pairs lost\" means the feature sees relationships no other\nfeature can reach; a small one means the evidence is redundant.\n",
        t.render()
    )
}

/// DESIGN.md ablation 4 — what the Appendix D blocklists buy: θ and
/// ground-truth merge precision of the web features with and without
/// them. Demonstrates quantitatively why θ alone cannot rank methods
/// (§5.4): removing the blocklists *raises* θ while collapsing precision.
pub fn ablation_blocklists(ctx: &ExperimentContext) -> String {
    use borges_core::delta::chain_edges;
    use borges_core::web::favicon::favicon_inference_with;
    use borges_core::web::rr::rr_inference_with;
    use borges_core::{AsOrgMapping, DenseUnionFind};
    use borges_llm::SimLlm;
    use borges_types::AsnInterner;
    use borges_websim::{Scraper, SimWebClient};

    let world = &ctx.world;
    let scraper = Scraper::new(SimWebClient::browser(&world.web));
    let report = scraper.crawl(world.pdb.nets().map(|n| (n.asn, n.website.as_str())));
    let llm = SimLlm::new(world.config.seed);
    let n = ctx.universe_size();

    let build = |apply_blocklist: bool| -> AsOrgMapping {
        let rr = rr_inference_with(&report, apply_blocklist);
        let fav = favicon_inference_with(&report, &llm, apply_blocklist);
        let allocated = AsnInterner::new(ctx.borges.universe());
        let mut uf = DenseUnionFind::new(allocated.len());
        let as2org: Vec<Vec<_>> = ctx.as2org.clusters().map(|(_, m)| m.to_vec()).collect();
        let web: Vec<Vec<_>> = rr.merging_groups().chain(&fav.groups).cloned().collect();
        uf.union_edges(&chain_edges(&allocated, &as2org));
        uf.union_edges(&chain_edges(&allocated, &web));
        AsOrgMapping::from_groups(uf.into_groups(&allocated))
    };

    let precision = |m: &AsOrgMapping| {
        let mut merged = 0usize;
        let mut correct = 0usize;
        for (_, members) in m.clusters() {
            if members.len() < 2 || members.len() > 5_000 {
                // Cap pathological mega-clusters: sample their pairs via
                // the first member against the rest.
                if members.len() > 5_000 {
                    for &b in &members[1..] {
                        merged += 1;
                        if world.truth.are_siblings(members[0], b) {
                            correct += 1;
                        }
                    }
                }
                continue;
            }
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    merged += 1;
                    if world.truth.are_siblings(members[i], members[j]) {
                        correct += 1;
                    }
                }
            }
        }
        if merged == 0 {
            1.0
        } else {
            correct as f64 / merged as f64
        }
    };

    let with = build(true);
    let without = build(false);
    let mut t = Table::new(["configuration", "orgs", "θ", "merge precision"]);
    for (label, m) in [
        ("blocklists ON (paper)", &with),
        ("blocklists OFF", &without),
    ] {
        t.row([
            label.to_string(),
            fmt_u64(m.org_count() as u64),
            fmt_f64(organization_factor(m, n), 4),
            fmt_f64(precision(m), 3),
        ]);
    }
    format!(
        "Ablation: Appendix D blocklists (web features over the AS2Org base)\n\n{}\nRemoving the blocklists merges more (higher θ) while fusing unrelated\nnetworks through facebook.com/github.com pages — the §5.4 caveat that θ\ncannot rank methods without an accuracy check.\n",
        t.render()
    )
}

/// Every experiment, concatenated (the `run_all` binary's output).
pub fn run_all(ctx: &ExperimentContext) -> String {
    let sections = [
        table3(ctx),
        table4(ctx).1,
        table5(ctx).1,
        table6(ctx).1,
        figure7(ctx),
        table7(ctx),
        table8(ctx),
        figure8(ctx),
        figure9(ctx),
        table9(ctx),
        feature_complementarity(ctx),
        ablation_blocklists(ctx),
    ];
    let mut out = String::new();
    for (i, section) in sections.iter().enumerate() {
        if i > 0 {
            out.push_str("\n================================================================\n\n");
        }
        out.push_str(section);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use borges_synthnet::GeneratorConfig;

    fn ctx() -> ExperimentContext {
        ExperimentContext::new(&GeneratorConfig::tiny(4))
    }

    #[test]
    fn every_section_renders_nonempty() {
        let ctx = ctx();
        for (name, text) in [
            ("table3", table3(&ctx)),
            ("table4", table4(&ctx).1),
            ("table5", table5(&ctx).1),
            ("table6", table6(&ctx).1),
            ("figure7", figure7(&ctx)),
            ("table7", table7(&ctx)),
            ("table8", table8(&ctx)),
            ("figure8", figure8(&ctx)),
            ("figure9", figure9(&ctx)),
            ("table9", table9(&ctx)),
        ] {
            assert!(text.len() > 100, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn table6_orders_methods_correctly() {
        let ctx = ctx();
        let (rows, _) = table6(&ctx);
        let theta = |label: &str| {
            rows.iter()
                .find(|(l, _)| l.starts_with(label))
                .map(|(_, t)| *t)
                .unwrap()
        };
        let base = theta("AS2Org");
        let plus = theta("as2org+");
        let borges = theta("Borges");
        assert!(plus > base, "as2org+ must beat AS2Org ({plus} vs {base})");
        assert!(
            borges > plus,
            "Borges must beat as2org+ ({borges} vs {plus})"
        );
    }

    #[test]
    fn table4_accuracy_is_high_with_calibrated_model() {
        let ctx = ctx();
        let (confusion, _) = table4(&ctx);
        assert!(
            confusion.accuracy() > 0.85,
            "IE accuracy collapsed: {confusion:?}"
        );
    }

    #[test]
    fn figure9_shows_the_edgio_consolidation() {
        let ctx = ctx();
        let text = figure9(&ctx);
        let edgecast_line = text
            .lines()
            .find(|l| l.starts_with("EdgeCast"))
            .expect("EdgeCast row");
        // AS2Org sees 1 network; Borges consolidates the Edgio family.
        let cols: Vec<&str> = edgecast_line.split_whitespace().collect();
        let as2org_size: usize = cols[cols.len() - 3].replace(',', "").parse().unwrap();
        let borges_size: usize = cols[cols.len() - 1].replace(',', "").parse().unwrap();
        assert!(borges_size > as2org_size, "{edgecast_line}");
        assert!(
            borges_size >= 10,
            "Edgio family is 11 ASNs: {edgecast_line}"
        );
    }

    #[test]
    fn sample_indices_are_monotone_and_bounded() {
        for n in [1usize, 2, 10, 1000, 111_111] {
            let s = sample_indices(n);
            assert_eq!(*s.first().unwrap(), 1);
            assert_eq!(*s.last().unwrap(), n);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        }
    }
}
