//! Training determinism: the same short table4-6 run must produce
//! bit-identical weights and evaluation statistics under every
//! `RAYON_NUM_THREADS` setting and every SIMD tier — and the exact
//! fingerprints pinned below, so a change that moves the training math
//! anywhere (rollout, sharded update, optimizer, evaluation) fails here.
//!
//! The vendored rayon shim sizes its worker pool once per process, so the
//! only faithful way to vary the thread count is to vary it across
//! processes: each run spawns `scenario-run --ckpt` (the train-and-save
//! path the sweep and the daemon share) and reads back its
//! `params digest` / `eval digest` lines.

mod common;

/// `(params digest, eval digest)` of the 1-shard run (`--shards 1`).
const PINNED_1_SHARD: (&str, &str) = ("b41b8e62335642d0", "16e9a87c7c2accd0");
/// `(params digest, eval digest)` of the 4-shard run (`--shards 4`).
/// Differs from the 1-shard params: sharding reassociates the gradient
/// sums, so the shard count is part of the training math.
const PINNED_4_SHARD: (&str, &str) = ("7b77fa946649c230", "16e9a87c7c2accd0");

/// Trains table4-6 for three updates (6144 steps on 4 lanes) with
/// `shards` gradient shards under `threads` pool threads plus `envs`, and
/// returns its `(params digest, eval digest)`.
fn train_digests(shards: &str, threads: &str, envs: &[(&str, &str)]) -> (String, String) {
    let tag: Vec<&str> = envs.iter().map(|(_, value)| *value).collect();
    let dir = std::env::temp_dir().join(format!(
        "autocat-thread-determinism-{}-s{shards}-t{threads}-{}",
        std::process::id(),
        tag.join("-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "--scenario",
        "table4-6",
        "--steps",
        "6144",
        "--lanes",
        "4",
        "--seed",
        "3",
        "--eval-episodes",
        "64",
        "--shards",
        shards,
    ];
    let stdout = common::scenario_run(&args, Some(&dir.join("run.ckpt.bin")), threads, envs);
    let _ = std::fs::remove_dir_all(&dir);
    common::digests(&stdout)
}

fn pinned((params, eval): (&str, &str)) -> (String, String) {
    (params.to_string(), eval.to_string())
}

#[test]
fn sharded_training_is_bit_identical_across_thread_counts() {
    // 4 gradient shards and 4 lanes give the pool real parallel structure
    // whenever workers exist.
    for threads in ["1", "4"] {
        assert_eq!(
            train_digests("4", threads, &[]),
            pinned(PINNED_4_SHARD),
            "4-shard run under {threads} thread(s) diverged from the pinned digests"
        );
    }
}

#[test]
fn single_shard_training_is_bit_identical_across_thread_counts() {
    // One shard keeps the whole minibatch on the primary net, but rollout
    // collection still runs the 4 lanes on the pool, and the collected
    // trajectories feed the weights — so a rollout that leaked scheduling
    // into its data would move the params digest here.
    for threads in ["1", "8"] {
        assert_eq!(
            train_digests("1", threads, &[]),
            pinned(PINNED_1_SHARD),
            "1-shard run under {threads} thread(s) diverged from the pinned digests"
        );
    }
}

#[test]
fn training_is_bit_identical_across_simd_tiers() {
    // Kernel results are defined by their canonical accumulation orders,
    // so forcing a lower kernel instantiation (`SIMD_TIER=scalar`, and
    // `avx2` on AVX-512 hosts) must reproduce the dispatch-tier run to the
    // last bit, multi-threaded and sharded included. (The
    // `scalar-fallback` feature build is the compile-time version of the
    // same claim; ci.sh runs this suite under it, where every test here
    // runs on the scalar kernels.)
    let forced = [simd::Tier::Scalar, simd::Tier::Avx2]
        .into_iter()
        .filter(|&tier| tier == simd::Tier::Scalar || tier < simd::tier());
    for tier in forced {
        assert_eq!(
            train_digests("4", "2", &[("SIMD_TIER", tier.name())]),
            pinned(PINNED_4_SHARD),
            "SIMD_TIER={} diverged from the pinned 4-shard digests",
            tier.name()
        );
    }
}
