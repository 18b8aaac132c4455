//! Seeded inputs for the serve workload: the lookup request sequence
//! and the evidence pair schedule. Everything here is a pure function
//! of the seed and the world, so a seed always gives the same requests.

use borges_core::FeatureSet;
use borges_serve::handlers::feature_spec;
use borges_types::Asn;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the cumulative
/// distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf exponent of ASN popularity. An assumption, not measured from
/// real lookup traffic.
pub const ZIPF_S: f64 = 1.0;

/// The lookup client's request paths, in send order. The mix is an
/// assumption, not verified traffic: ~70% `/v1/map/{asn}` with default
/// features, ~15% `/v1/map/{asn}?features=` with one of the 16 subsets,
/// ~10% `/v1/org/{asn}`, ~5% split between `/v1/coverage` and
/// `/healthz`. ASNs are Zipf-ranked over a seeded permutation of the
/// universe, so the popular ASNs differ from seed to seed.
pub struct LookupGen {
    rng: SplitMix64,
    ranked: Vec<Asn>,
    zipf: Zipf,
    subsets: Vec<FeatureSet>,
}

impl LookupGen {
    pub fn new(seed: u64, universe: &[Asn]) -> LookupGen {
        let mut rng = SplitMix64::new(seed ^ 0x6c6f_6f6b_7570);
        let mut ranked = universe.to_vec();
        rng.shuffle(&mut ranked);
        let zipf = Zipf::new(ranked.len(), ZIPF_S);
        LookupGen {
            rng,
            ranked,
            zipf,
            subsets: FeatureSet::all_combinations(),
        }
    }

    pub fn next_path(&mut self) -> String {
        let roll = self.rng.next_f64();
        let asn = self.ranked[self.zipf.sample(&mut self.rng)];
        if roll < 0.70 {
            format!("/v1/map/{asn}")
        } else if roll < 0.85 {
            let features = self.subsets[self.rng.below(self.subsets.len())];
            format!("/v1/map/{asn}?features={}", feature_spec(features))
        } else if roll < 0.95 {
            format!("/v1/org/{asn}")
        } else if roll < 0.975 {
            "/v1/coverage".to_string()
        } else {
            "/healthz".to_string()
        }
    }
}

/// The evidence client's request paths: alternately a sibling pair and
/// a non-sibling pair from the given pools, each drawn by the seed.
pub struct EvidenceGen<'a> {
    rng: SplitMix64,
    pools: [&'a [(Asn, Asn)]; 2],
    sent: usize,
}

impl<'a> EvidenceGen<'a> {
    pub fn new(seed: u64, siblings: &'a [(Asn, Asn)], others: &'a [(Asn, Asn)]) -> EvidenceGen<'a> {
        assert!(
            !siblings.is_empty() && !others.is_empty(),
            "empty pair pool"
        );
        EvidenceGen {
            rng: SplitMix64::new(seed ^ 0x6576_6964_656e),
            pools: [siblings, others],
            sent: 0,
        }
    }

    pub fn next_path(&mut self) -> String {
        let pool = self.pools[self.sent % 2];
        self.sent += 1;
        let (a, b) = pool[self.rng.below(pool.len())];
        format!("/v1/evidence/{a}/{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Vec<Asn> {
        (1..=5_000u32).map(Asn::new).collect()
    }

    fn lookup_sequence(seed: u64, universe: &[Asn], count: usize) -> Vec<String> {
        let mut gen = LookupGen::new(seed, universe);
        (0..count).map(|_| gen.next_path()).collect()
    }

    fn evidence_sequence(
        seed: u64,
        siblings: &[(Asn, Asn)],
        others: &[(Asn, Asn)],
        count: usize,
    ) -> Vec<String> {
        let mut gen = EvidenceGen::new(seed, siblings, others);
        (0..count).map(|_| gen.next_path()).collect()
    }

    #[test]
    fn lookup_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let u = universe();
        let a = lookup_sequence(7, &u, 2_000);
        assert_eq!(a, lookup_sequence(7, &u, 2_000));
        assert_ne!(a, lookup_sequence(8, &u, 2_000));
    }

    #[test]
    fn lookup_mix_matches_its_stated_shares() {
        let seq = lookup_sequence(1, &universe(), 20_000);
        let share = |f: &dyn Fn(&String) -> bool| {
            seq.iter().filter(|p| f(p)).count() as f64 / seq.len() as f64
        };
        let plain_map = share(&|p| p.starts_with("/v1/map/") && !p.contains('?'));
        let subset_map = share(&|p| p.contains("?features="));
        let org = share(&|p| p.starts_with("/v1/org/"));
        let other = share(&|p| p == "/v1/coverage" || p == "/healthz");
        assert!((plain_map - 0.70).abs() < 0.02, "{plain_map}");
        assert!((subset_map - 0.15).abs() < 0.02, "{subset_map}");
        assert!((org - 0.10).abs() < 0.02, "{org}");
        assert!((other - 0.05).abs() < 0.01, "{other}");
        // Zipf: the most popular path recurs far above uniform odds.
        let mut counts = std::collections::HashMap::new();
        for p in &seq {
            *counts.entry(p).or_insert(0usize) += 1;
        }
        let top = counts
            .iter()
            .filter(|(p, _)| p.starts_with("/v1/map/"))
            .map(|(_, c)| *c)
            .max()
            .unwrap();
        assert!(top > 100, "{top}");
    }

    #[test]
    fn evidence_sequence_repeats_and_alternates_pools() {
        let sib = [(Asn::new(1), Asn::new(2)), (Asn::new(3), Asn::new(4))];
        let other = [(Asn::new(5), Asn::new(9))];
        let a = evidence_sequence(3, &sib, &other, 100);
        assert_eq!(a, evidence_sequence(3, &sib, &other, 100));
        assert_eq!(a[1], "/v1/evidence/AS5/AS9");
        let b = evidence_sequence(4, &sib, &other, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = SplitMix64::new(9);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }
}
