//! Property suite for the scenario generator: arbitrary seeds, byte-
//! identical codecs and byte-identical generation — in-process and
//! across a subprocess boundary.

use autocat_scenario::generate::{generate, ScenarioGenerator};
use autocat_scenario::Scenario;
use proptest::prelude::*;

proptest! {
    /// Every generated scenario round-trips both text codecs with struct
    /// equality AND byte-identical re-emission (the sweep sidecar /
    /// spec-digest contract).
    #[test]
    fn generated_scenarios_round_trip_both_codecs_byte_identically(
        seed in 0u64..u64::MAX,
        count in 1usize..=6,
    ) {
        for scenario in generate(seed, count) {
            let toml = scenario.to_toml();
            let back = Scenario::from_toml(&toml)
                .map_err(|e| format!("{} TOML re-parse: {e}", scenario.name))?;
            prop_assert_eq!(&back, &scenario);
            prop_assert_eq!(back.to_toml(), toml);

            let json = scenario.to_json();
            let back = Scenario::from_json(&json)
                .map_err(|e| format!("{} JSON re-parse: {e}", scenario.name))?;
            prop_assert_eq!(&back, &scenario);
            prop_assert_eq!(back.to_json(), json);
        }
    }

    /// The generator's core guarantee: the same seed yields the same
    /// bytes, for any seed.
    #[test]
    fn generation_is_deterministic_for_any_seed(seed in 0u64..u64::MAX) {
        let a: Vec<String> = generate(seed, 4).iter().map(Scenario::to_json).collect();
        let b: Vec<String> = generate(seed, 4).iter().map(Scenario::to_json).collect();
        prop_assert_eq!(a, b);
    }

    /// Resuming an iterator mid-stream equals generating the whole batch:
    /// emission `i` depends only on (seed, draws before it), never on how
    /// the batch was sliced up.
    #[test]
    fn batches_are_prefix_stable(seed in 0u64..u64::MAX, count in 2usize..=8) {
        let whole = generate(seed, count);
        let mut stream = ScenarioGenerator::new(seed);
        let head: Vec<Scenario> = stream.by_ref().take(count / 2).collect();
        let tail: Vec<Scenario> = stream.take(count - count / 2).collect();
        let stitched: Vec<Scenario> = head.into_iter().chain(tail).collect();
        prop_assert_eq!(stitched, whole);
    }
}

/// FNV-1a digest over the concatenated JSON bytes of a batch — the
/// fingerprint the subprocess half prints.
fn batch_digest(scenarios: &[Scenario]) -> u64 {
    autocat_nn::state::fnv1a(scenarios.iter().flat_map(|s| s.to_json().into_bytes()))
}

const SUBPROCESS_SEED: u64 = 12_648_430; // 0xC0FFEE
const SUBPROCESS_COUNT: usize = 16;

/// Child half of [`subprocess_generation_is_byte_identical`]: inert (the
/// env vars are unset) unless spawned by the parent test.
#[test]
fn child_prints_generation_digest() {
    let (Ok(seed), Ok(count)) = (
        std::env::var("AUTOCAT_GEN_SEED"),
        std::env::var("AUTOCAT_GEN_COUNT"),
    ) else {
        return;
    };
    let seed: u64 = seed.parse().expect("AUTOCAT_GEN_SEED must be a u64");
    let count: usize = count.parse().expect("AUTOCAT_GEN_COUNT must be a usize");
    println!("GEN_DIGEST={:016x}", batch_digest(&generate(seed, count)));
}

/// `generate(seed)` in a fresh process produces the same bytes as in
/// this one: determinism holds across process boundaries (no global
/// state, no address-dependent iteration anywhere in the sampler).
#[test]
fn subprocess_generation_is_byte_identical() {
    let local = batch_digest(&generate(SUBPROCESS_SEED, SUBPROCESS_COUNT));
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["child_prints_generation_digest", "--exact", "--nocapture"])
        .env("AUTOCAT_GEN_SEED", SUBPROCESS_SEED.to_string())
        .env("AUTOCAT_GEN_COUNT", SUBPROCESS_COUNT.to_string())
        .output()
        .expect("child test process must spawn");
    assert!(
        out.status.success(),
        "child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // With --nocapture the harness's "test ... " prefix can share the
    // child's output line, so search for the marker rather than the
    // line start.
    let digest = stdout
        .lines()
        .find_map(|l| l.split("GEN_DIGEST=").nth(1).map(|d| d.trim()))
        .unwrap_or_else(|| panic!("no GEN_DIGEST line in:\n{stdout}"));
    assert_eq!(
        digest,
        format!("{local:016x}"),
        "generation diverged across processes"
    );
}
