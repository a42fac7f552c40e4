//! Seeded generation of valid [`Scenario`]s over a declarative parameter
//! space — the sweep pipeline's unbounded scenario stream and the repo's
//! fuzzer front end.
//!
//! [`ScenarioGenerator`] samples one point of [`GenSpace`] per `next()`
//! from a single [`StdRng`] stream, applying the repair rules documented
//! on [`GenSpace`] so every emitted scenario passes both
//! [`Scenario::validate`] and [`Scenario::build_env`]. Generation is
//! deterministic: the same `(seed, space)` yields a byte-identical
//! scenario sequence — same names, same JSON/TOML bytes — across
//! processes and platforms. That determinism is what lets
//! `sweep --generate N --gen-seed S` feed the resumable store-backed
//! pipeline (a re-run regenerates specs whose digests match) and what
//! the CI census byte-identity gate pins.
//!
//! ```
//! use autocat_scenario::generate::generate;
//!
//! let batch = generate(1, 4);
//! assert_eq!(batch.len(), 4);
//! for scenario in &batch {
//!     scenario.validate().expect("every generated scenario is constructible");
//! }
//! // Same seed, same bytes.
//! assert_eq!(batch, generate(1, 4));
//! ```

use crate::Scenario;
use autocat_cache::mapping::AddressMapping;
use autocat_cache::{CacheConfig, PolicyKind, PrefetcherKind, TwoLevelConfig};
use autocat_detect::MonitorSpec;
use autocat_gym::{CacheSpec, EnvConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The declarative parameter space a [`ScenarioGenerator`] samples.
///
/// Dimensions: cache geometry (set count × associativity, capped by
/// `max_blocks`), replacement policy, prefetcher, set mapping, one- vs
/// two-level hierarchy, victim address placement, flush availability,
/// victim no-access secrets and the in-loop monitor stack.
///
/// Not every raw sample is a valid scenario; instead of rejecting, the
/// generator *repairs* deterministically:
///
/// - a geometry whose `sets × ways` exceeds `max_blocks` drops to 1 way
///   (and sets clamp to `max_blocks`);
/// - a random-replacement cache always gets a generated `policy_seed`,
///   so the scenario file fully pins backend behavior;
/// - in a two-level hierarchy, a shared L2 smaller than one private L1
///   is grown to L1 size (inclusive back-invalidation would otherwise
///   thrash every access);
/// - a single-address victim forces `victim_no_access_enable = true`,
///   so the secret always carries at least one bit;
/// - monitor parameters are sampled inside their validity ranges
///   (autocorrelation threshold in (0, 1], SVM weights sized exactly
///   `num_intervals`).
#[derive(Clone, Debug, PartialEq)]
pub struct GenSpace {
    /// Candidate set counts for the game-relevant cache level.
    pub set_counts: Vec<usize>,
    /// Candidate associativities (filtered so `sets × ways ≤ max_blocks`).
    pub ways: Vec<usize>,
    /// Cap on the total block count of any sampled level.
    pub max_blocks: usize,
    /// Replacement policies to draw from.
    pub policies: Vec<PolicyKind>,
    /// Prefetchers to draw from.
    pub prefetchers: Vec<PrefetcherKind>,
    /// Probability of a two-level hierarchy instead of a single cache.
    pub two_level_prob: f64,
    /// Probability of a randomized (permuted) set mapping.
    pub permuted_mapping_prob: f64,
    /// Probability that `clflush` is available to the attacker.
    pub flush_prob: f64,
    /// Probability that the victim may be triggered into "no access"
    /// (repaired to certainty for single-address victims).
    pub victim_no_access_prob: f64,
    /// Probability that an in-loop monitor guards episodes.
    pub monitor_prob: f64,
    /// Probability, given a monitor, of stacking two of them.
    pub composite_prob: f64,
}

impl Default for GenSpace {
    /// The full space the paper's Table IV rows live in, kept small
    /// enough that every sampled environment trains on a laptop.
    fn default() -> Self {
        Self {
            set_counts: vec![1, 2, 4, 8],
            ways: vec![1, 2, 4],
            max_blocks: 16,
            policies: vec![
                PolicyKind::Lru,
                PolicyKind::Plru,
                PolicyKind::Rrip,
                PolicyKind::Nru,
                PolicyKind::Random,
            ],
            prefetchers: vec![
                PrefetcherKind::None,
                PrefetcherKind::NextLine,
                PrefetcherKind::Stream,
            ],
            two_level_prob: 0.25,
            permuted_mapping_prob: 0.2,
            flush_prob: 0.35,
            victim_no_access_prob: 0.35,
            monitor_prob: 0.4,
            composite_prob: 0.25,
        }
    }
}

impl GenSpace {
    /// Checks the space for values the repair rules cannot absorb.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.set_counts.is_empty() || self.set_counts.contains(&0) {
            return Err("set_counts must be non-empty and positive".into());
        }
        if self.ways.is_empty() || self.ways.contains(&0) {
            return Err("ways must be non-empty and positive".into());
        }
        if self.max_blocks == 0 {
            return Err("max_blocks must be positive".into());
        }
        if self.policies.is_empty() {
            return Err("policies must be non-empty".into());
        }
        if self.prefetchers.is_empty() {
            return Err("prefetchers must be non-empty".into());
        }
        for (name, p) in [
            ("two_level_prob", self.two_level_prob),
            ("permuted_mapping_prob", self.permuted_mapping_prob),
            ("flush_prob", self.flush_prob),
            ("victim_no_access_prob", self.victim_no_access_prob),
            ("monitor_prob", self.monitor_prob),
            ("composite_prob", self.composite_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

/// The registry-file slug of a monitor spec's kind — the bucket label the
/// census report and generated-scenario summaries share.
pub fn monitor_slug(spec: &MonitorSpec) -> &'static str {
    match spec {
        MonitorSpec::Off => "off",
        MonitorSpec::VictimMiss { .. } => "victim-miss",
        MonitorSpec::Autocorr { .. } => "autocorr",
        MonitorSpec::CycloneSvm { .. } => "cyclone-svm",
        MonitorSpec::Composite(_) => "composite",
    }
}

fn pick<T: Copy>(rng: &mut StdRng, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())]
}

/// Samples one cache level; geometry repairs keep `sets × ways` within
/// `max_blocks`.
fn sample_cache(rng: &mut StdRng, space: &GenSpace, max_blocks: usize) -> CacheConfig {
    let sets = pick(rng, &space.set_counts).min(max_blocks);
    let fitting: Vec<usize> = space
        .ways
        .iter()
        .copied()
        .filter(|w| sets * w <= max_blocks)
        .collect();
    let ways = if fitting.is_empty() {
        1
    } else {
        pick(rng, &fitting)
    };
    let mut config = CacheConfig::new(sets, ways).with_policy(pick(rng, &space.policies));
    if config.policy == PolicyKind::Random {
        config.policy_seed = rng.gen();
    }
    config
}

fn sample_monitor_member(rng: &mut StdRng) -> MonitorSpec {
    match rng.gen_range(0..3u32) {
        0 => MonitorSpec::VictimMiss {
            threshold: rng.gen_range(1..=3u64),
        },
        1 => MonitorSpec::Autocorr {
            threshold: rng.gen_range(0.55f64..0.95),
            max_lag: rng.gen_range(8..=30usize),
        },
        _ => {
            let num_intervals = pick(rng, &[4usize, 8]);
            MonitorSpec::CycloneSvm {
                w: (0..num_intervals)
                    .map(|_| rng.gen_range(0.25f32..1.5))
                    .collect(),
                b: rng.gen_range(-2.0f32..-0.5),
                num_intervals,
                proximity_window: rng.gen_range(6..=16usize),
            }
        }
    }
}

fn sample_monitor(rng: &mut StdRng, space: &GenSpace) -> MonitorSpec {
    if !rng.gen_bool(space.monitor_prob) {
        return MonitorSpec::Off;
    }
    if rng.gen_bool(space.composite_prob) {
        MonitorSpec::Composite(vec![sample_monitor_member(rng), sample_monitor_member(rng)])
    } else {
        sample_monitor_member(rng)
    }
}

/// One-line description of the sampled region, built from the same
/// fields the census buckets on.
fn describe(env: &EnvConfig) -> String {
    let permuted = |m: &AddressMapping| matches!(m, AddressMapping::RandomPermutation { .. });
    let (geometry, policy, prefetcher, permuted) = match &env.cache {
        CacheSpec::Single(c) => (
            format!("{}x{}", c.num_sets, c.num_ways),
            c.policy.name(),
            c.prefetcher,
            permuted(&c.mapping),
        ),
        CacheSpec::TwoLevel(t) => (
            format!("2-level {}x{} L2", t.l2.num_sets, t.l2.num_ways),
            t.l2.policy.name(),
            t.l2.prefetcher,
            permuted(&t.l2.mapping),
        ),
        CacheSpec::Hardware(_) => ("hardware".into(), "hardware", PrefetcherKind::None, false),
    };
    let mut parts = vec![format!("generated: {geometry} {policy} cache")];
    match prefetcher {
        PrefetcherKind::None => {}
        PrefetcherKind::NextLine => parts.push("next-line prefetch".into()),
        PrefetcherKind::Stream => parts.push("stream prefetch".into()),
    }
    if permuted {
        parts.push("permuted mapping".into());
    }
    if env.flush_enable {
        parts.push("flush".into());
    }
    parts.push(format!(
        "victim {}-{}{}",
        env.victim_addr_s,
        env.victim_addr_e,
        if env.victim_no_access_enable {
            " (+no-access)"
        } else {
            ""
        }
    ));
    if !env.detection.is_off() {
        parts.push(format!("monitor {}", monitor_slug(&env.detection)));
    }
    parts.join(", ")
}

/// Draws one raw point of the space (pre-acceptance-check).
fn sample_scenario(rng: &mut StdRng, space: &GenSpace, name: String) -> Scenario {
    let two_level = rng.gen_bool(space.two_level_prob);
    let (spec, blocks) = if two_level {
        // Mirrors the paper's configs 16/17: direct-mapped private L1s
        // in front of a sampled shared inclusive L2, which is the level
        // the guessing game (and the census) is really about.
        let l1_sets = pick(rng, &[2usize, 4]);
        let mut l2 = sample_cache(rng, space, space.max_blocks);
        if l2.num_blocks() < l1_sets {
            l2.num_sets = l1_sets;
            l2.num_ways = 1;
        }
        l2.prefetcher = pick(rng, &space.prefetchers);
        if rng.gen_bool(space.permuted_mapping_prob) {
            l2.mapping = AddressMapping::RandomPermutation {
                seed: rng.gen(),
                address_space: 4 * l2.num_blocks(),
            };
        }
        let l1 = CacheConfig::direct_mapped(l1_sets).with_latencies(4, 12);
        let l2 = l2.with_latencies(12, 40);
        let blocks = l2.num_blocks();
        (
            CacheSpec::TwoLevel(TwoLevelConfig {
                num_cores: 2,
                l1,
                l2,
            }),
            blocks,
        )
    } else {
        let mut cache = sample_cache(rng, space, space.max_blocks);
        cache.prefetcher = pick(rng, &space.prefetchers);
        if rng.gen_bool(space.permuted_mapping_prob) {
            cache.mapping = AddressMapping::RandomPermutation {
                seed: rng.gen(),
                address_space: 4 * cache.num_blocks(),
            };
        }
        let blocks = cache.num_blocks();
        (CacheSpec::Single(cache), blocks)
    };

    // Victim address placement: disjoint (prime+probe layouts), shared
    // (flush/evict+reload layouts) or a one-address victim whose secret
    // is "accessed or not".
    let victim_len = rng.gen_range(1..=blocks.min(8)) as u64;
    let attacker_len = rng.gen_range(blocks..=2 * blocks) as u64;
    let (attacker, victim) = match rng.gen_range(0..3u32) {
        0 => (
            (victim_len, victim_len + attacker_len - 1),
            (0, victim_len - 1),
        ),
        1 => ((0, attacker_len - 1), (0, victim_len - 1)),
        _ => ((1, attacker_len), (0, 0)),
    };
    let mut victim_no_access = rng.gen_bool(space.victim_no_access_prob);
    if victim.0 == victim.1 {
        victim_no_access = true;
    }

    let flush = rng.gen_bool(space.flush_prob);
    let detection = sample_monitor(rng, space);

    let mut env = EnvConfig::new(CacheConfig::direct_mapped(1), attacker, victim);
    env.cache = spec;
    env.window_size = (6 * blocks).clamp(8, 64);
    env.init_accesses = blocks;
    env.flush_enable = flush;
    env.victim_no_access_enable = victim_no_access;
    env.detection = detection;

    let summary = describe(&env);
    let mut scenario = Scenario::new(name, summary, env);
    scenario.train.seed = rng.gen();
    scenario
}

/// A deterministic, seeded, unbounded iterator of valid scenarios.
///
/// Scenario names are `gen-{seed:016x}-{index:04}`, so batches from
/// different seeds never collide in one sweep directory and the natural
/// sort of the report keeps generation order.
#[derive(Clone, Debug)]
pub struct ScenarioGenerator {
    seed: u64,
    space: GenSpace,
    rng: StdRng,
    index: usize,
}

impl ScenarioGenerator {
    /// A generator over the default [`GenSpace`].
    pub fn new(seed: u64) -> Self {
        Self::with_space(seed, GenSpace::default())
    }

    /// A generator over a custom space.
    ///
    /// # Panics
    ///
    /// Panics if the space fails [`GenSpace::validate`] — a malformed
    /// space is a programming error, not a runtime condition.
    pub fn with_space(seed: u64, space: GenSpace) -> Self {
        if let Err(e) = space.validate() {
            panic!("invalid GenSpace: {e}");
        }
        Self {
            seed,
            space,
            rng: StdRng::seed_from_u64(seed),
            index: 0,
        }
    }

    /// The generator seed (also embedded in every emitted name).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The parameter space being sampled.
    pub fn space(&self) -> &GenSpace {
        &self.space
    }
}

impl Iterator for ScenarioGenerator {
    type Item = Scenario;

    /// Always yields: the stream is unbounded (use [`generate`] or
    /// `take(n)` for a batch).
    fn next(&mut self) -> Option<Scenario> {
        // The repair rules should make every raw sample constructible;
        // the bounded rejection loop is the backstop for corners of a
        // custom space they don't cover. Rejected draws advance the RNG
        // (deterministically) but not the index, so accepted names stay
        // dense.
        for _ in 0..16 {
            let name = format!("gen-{:016x}-{:04}", self.seed, self.index);
            let candidate = sample_scenario(&mut self.rng, &self.space, name);
            if candidate.validate().is_ok() && candidate.build_env().is_ok() {
                self.index += 1;
                return Some(candidate);
            }
        }
        panic!(
            "ScenarioGenerator(seed={}): 16 consecutive samples failed validation — \
             the repair rules do not cover this GenSpace",
            self.seed
        );
    }
}

/// Generates `count` scenarios from the default space — the function
/// behind `sweep --generate N --gen-seed S`.
pub fn generate(seed: u64, count: usize) -> Vec<Scenario> {
    ScenarioGenerator::new(seed).take(count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let a: Vec<String> = generate(7, 16).iter().map(Scenario::to_json).collect();
        let b: Vec<String> = generate(7, 16).iter().map(Scenario::to_json).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge_beyond_the_name() {
        let a: Vec<EnvConfig> = generate(0, 8).into_iter().map(|s| s.env).collect();
        let b: Vec<EnvConfig> = generate(1, 8).into_iter().map(|s| s.env).collect();
        assert_ne!(a, b, "8 samples from different seeds must not coincide");
    }

    #[test]
    fn every_scenario_validates_builds_and_is_uniquely_named() {
        let scenarios = generate(3, 128);
        assert_eq!(scenarios.len(), 128);
        let mut names = std::collections::BTreeSet::new();
        for (i, s) in scenarios.iter().enumerate() {
            s.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", s.name));
            s.build_env()
                .unwrap_or_else(|e| panic!("{} unbuildable: {e}", s.name));
            assert_eq!(s.name, format!("gen-{:016x}-{i:04}", 3), "dense names");
            assert!(names.insert(s.name.clone()), "duplicate name {}", s.name);
            assert!(s.summary.starts_with("generated: "), "{}", s.summary);
        }
    }

    #[test]
    fn single_address_victims_always_get_the_no_access_secret() {
        for s in generate(11, 256) {
            if s.env.victim_addr_s == s.env.victim_addr_e {
                assert!(
                    s.env.victim_no_access_enable,
                    "{}: one-address victim without no-access carries zero bits",
                    s.name
                );
            }
        }
    }

    #[test]
    fn the_whole_space_is_reachable() {
        let scenarios = generate(5, 256);
        let mut two_level = false;
        let mut permuted = false;
        let mut flush = [false; 2];
        let mut monitored = [false; 2];
        let mut policies = std::collections::BTreeSet::new();
        let mut prefetchers = std::collections::BTreeSet::new();
        for s in &scenarios {
            flush[usize::from(s.env.flush_enable)] = true;
            monitored[usize::from(!s.env.detection.is_off())] = true;
            match &s.env.cache {
                CacheSpec::Single(c) => {
                    policies.insert(c.policy.name());
                    prefetchers.insert(format!("{:?}", c.prefetcher));
                    permuted |= matches!(c.mapping, AddressMapping::RandomPermutation { .. });
                }
                CacheSpec::TwoLevel(t) => {
                    two_level = true;
                    policies.insert(t.l2.policy.name());
                    prefetchers.insert(format!("{:?}", t.l2.prefetcher));
                    permuted |= matches!(t.l2.mapping, AddressMapping::RandomPermutation { .. });
                }
                CacheSpec::Hardware(_) => panic!("generator never emits hardware backends"),
            }
        }
        assert!(two_level, "two-level hierarchies must appear");
        assert!(permuted, "permuted mappings must appear");
        assert_eq!(flush, [true; 2], "both flush settings must appear");
        assert_eq!(
            monitored, [true; 2],
            "monitored and unmonitored must appear"
        );
        assert_eq!(policies.len(), 5, "all policies must appear: {policies:?}");
        assert_eq!(prefetchers.len(), 3, "all prefetchers: {prefetchers:?}");
    }

    #[test]
    fn iterator_and_convenience_fn_agree() {
        let via_iter: Vec<Scenario> = ScenarioGenerator::new(9).take(6).collect();
        assert_eq!(via_iter, generate(9, 6));
    }

    #[test]
    #[should_panic(expected = "invalid GenSpace")]
    fn empty_space_panics_at_construction() {
        let _ = ScenarioGenerator::with_space(
            0,
            GenSpace {
                set_counts: vec![],
                ..GenSpace::default()
            },
        );
    }

    #[test]
    fn monitor_slugs_cover_every_variant() {
        assert_eq!(monitor_slug(&MonitorSpec::Off), "off");
        assert_eq!(monitor_slug(&MonitorSpec::strict_miss()), "victim-miss");
        assert_eq!(monitor_slug(&MonitorSpec::cc_hunter()), "autocorr");
        assert_eq!(monitor_slug(&MonitorSpec::Composite(vec![])), "composite");
    }
}
