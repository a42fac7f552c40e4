//! Evaluation determinism on a trained checkpoint.
//!
//! * The same checkpointed policy evaluated under different
//!   `RAYON_NUM_THREADS` settings and SIMD tiers must produce bit-identical
//!   statistics. Like `thread_determinism.rs`, the vendored rayon shim
//!   sizes its pool once per process, so a tiny `sweep` first produces real
//!   artifacts, then `scenario-run --ckpt` is spawned per setting in its
//!   load-only mode (the checkpoint exists, so it evaluates without
//!   training) and its digest lines are compared.
//! * The batched evaluator at one lane must reproduce the serial evaluator
//!   bit for bit on a policy that has actually trained, not only on a
//!   random initialisation.

use autocat::ppo::eval;
use autocat_bench::sweep::train_trainer;
use autocat_store::Store;
use rand::Rng;
use std::path::Path;
use std::process::Command;

mod common;

/// Evaluates the checkpoint at `ckpt` in a `scenario-run` child under
/// `threads` pool threads plus `envs`, and returns its
/// `(params digest, eval digest)`.
fn eval_digests(ckpt: &Path, threads: &str, envs: &[(&str, &str)]) -> (String, String) {
    let args = ["--scenario", "table4-6", "--eval-episodes", "40"];
    let stdout = common::scenario_run(&args, Some(ckpt), threads, envs);
    assert!(
        stdout.contains("loading  :"),
        "scenario-run must load the existing checkpoint, not retrain:\n{stdout}"
    );
    common::digests(&stdout)
}

#[test]
fn batched_eval_stats_are_bit_identical_across_thread_counts_and_tiers() {
    let dir = std::env::temp_dir().join(format!("autocat-eval-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Real artifacts: a one-update training run checkpointed by the sweep
    // pipeline (2 lanes + 2 shards exercise the parallel trainer paths).
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--filter", "table4-6", "--steps", "1", "--seed", "11"])
        .args(["--lanes", "2", "--shards", "2", "--eval-episodes", "50"])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("sweep must spawn");
    assert!(
        out.status.success(),
        "sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let store = Store::open(&dir).expect("the sweep's store");
    let entry = store
        .latest("table4-6")
        .expect("a stored table4-6 checkpoint");
    let ckpt = store.object_path(entry.digest);

    let one = eval_digests(&ckpt, "1", &[]);
    for threads in ["2", "4"] {
        assert_eq!(
            one,
            eval_digests(&ckpt, threads, &[]),
            "eval stats diverged between 1 and {threads} threads"
        );
    }

    // The SIMD half of the same contract: a forced lower kernel tier must
    // reproduce the dispatch-tier evaluation bit for bit, threaded
    // included. The checkpoint was trained under the dispatch tier — the
    // artifact is shared, so this isolates the evaluation path.
    let forced = [simd::Tier::Scalar, simd::Tier::Avx2]
        .into_iter()
        .filter(|&tier| tier == simd::Tier::Scalar || tier < simd::tier());
    for tier in forced {
        assert_eq!(
            one,
            eval_digests(&ckpt, "2", &[("SIMD_TIER", tier.name())]),
            "eval stats diverged between the dispatch SIMD tier and SIMD_TIER={}",
            tier.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_eval_at_one_lane_matches_serial_on_a_trained_policy() {
    // One PPO update through the shared training path, so the evaluated
    // weights are trained ones (the ppo unit test covers a random init).
    let mut scenario = autocat_scenario::lookup("table4-6").expect("registry scenario");
    scenario.train.max_steps = 1;
    let mut trainer = train_trainer(&scenario, |_, _| {}).expect("table4-6 trains");
    assert!(trainer.total_steps() > 0, "the policy must have trained");

    // Both evaluators start from the identical state: the trainer's env,
    // weights and RNG, cloned for the serial run.
    let episodes = 200;
    let (env, net, rng) = trainer.parts_mut();
    let mut serial_env = env.clone();
    let mut serial_net = net.clone_box();
    let mut serial_rng = rng.clone();
    let serial = eval::evaluate(
        &mut serial_env,
        serial_net.as_mut(),
        episodes,
        false,
        &mut serial_rng,
    );
    let batched = eval::evaluate_batched(&*env, net, episodes, 1, false, rng).stats;
    // Digest comparison, not PartialEq: f32 == would let a -0.0/+0.0
    // association regression through, and single-bit is the contract.
    assert_eq!(
        serial.digest(),
        batched.digest(),
        "batched eval at 1 lane diverged from serial: {serial:?} vs {batched:?}"
    );
    assert_eq!(
        serial_rng.gen::<u64>(),
        rng.gen::<u64>(),
        "batched eval at 1 lane left a different RNG stream behind"
    );
}
