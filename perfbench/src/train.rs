//! The `train` workload: PPO training of table4-6 at 8 lanes and 8
//! gradient shards, driven update by update to a fixed step budget.
//!
//! The traced run wraps the environment and cache backend, times every
//! `Trainer::train_update`, then replays the same number of updates
//! through nn's and ppo's public API (see [`replay_update`]) — the
//! update's own phases are crate-private and cannot be wrapped from
//! outside.

use crate::clock;
use crate::trace::{self, Counter, Counters, SpanStats, TracedBackend, TracedEnv, TracedNet};
use crate::{Layers, RepResult};
use autocat_gym::{backend_from_spec, CacheGuessingGame, Environment, VecEnv};
use autocat_nn::grad::{load_param_values, snapshot_param_values};
use autocat_nn::matrix::with_inline_kernels;
use autocat_nn::models::{PolicyValueNet, RowGrad};
use autocat_nn::optim::clip_global_grad_norm;
use autocat_nn::state::params_digest;
use autocat_nn::{Adam, Categorical, GradBuffer, Matrix};
use autocat_ppo::{gae, rollout, PpoConfig, RolloutBatch, Trainer};
use autocat_scenario::Scenario;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Scenario trained.
const SCENARIO: &str = "table4-6";
/// Rollout lanes.
const LANES: usize = 8;
/// Gradient shards per minibatch.
const SHARDS: usize = 8;
/// PPO updates per rep (the fixed step budget is this × the horizon).
const UPDATES: usize = 4;
const SMOKE_UPDATES: usize = 1;

fn scenario(seed: u64) -> Result<Scenario, String> {
    let mut scenario =
        autocat_scenario::lookup(SCENARIO).ok_or_else(|| format!("no scenario {SCENARIO}"))?;
    scenario.train.seed = seed;
    scenario.train.ppo = scenario
        .train
        .ppo
        .with_lanes(LANES)
        .with_grad_shards(SHARDS);
    Ok(scenario)
}

/// One rep: builds the trainer (set-up), calls `ready`, then trains.
pub fn run(
    seed: u64,
    traced: bool,
    smoke: bool,
    ready: impl FnOnce(),
) -> Result<RepResult, String> {
    let scenario = scenario(seed)?;
    let updates = if smoke { SMOKE_UPDATES } else { UPDATES };
    let (backbone, ppo) = (scenario.train.backbone.clone(), scenario.train.ppo);
    if traced {
        let cfg = scenario.env.clone();
        let backend = TracedBackend::boxed(backend_from_spec(&cfg.cache, 0));
        let env = TracedEnv {
            inner: CacheGuessingGame::with_backend(cfg, backend)?,
        };
        let mut trainer = Trainer::new(env.clone(), backbone, ppo, seed);
        ready();
        let mut rep = train(&mut trainer, updates, ppo)?;
        rep.layers = Some(traced_layers(&mut trainer, &env, ppo, seed, &rep)?);
        Ok(rep)
    } else {
        let mut trainer = Trainer::new(scenario.build_env()?, backbone, ppo, seed);
        ready();
        train(&mut trainer, updates, ppo)
    }
}

fn train<E: Environment + Clone + Send>(
    trainer: &mut Trainer<E>,
    updates: usize,
    ppo: PpoConfig,
) -> Result<RepResult, String> {
    let mut rep = RepResult::default();
    let cpu0 = crate::stats::proc_cpu_s("self").unwrap_or(0.0);
    let start = clock::now();
    for _ in 0..updates {
        let t = clock::now();
        let stats = trace::span("ppo.train_update", || trainer.train_update());
        rep.ops_ms.push(clock::secs_since(t) * 1e3);
        rep.attempted += 1;
        if !(stats.policy_loss.is_finite() && stats.value_loss.is_finite()) {
            rep.failed += 1;
        }
    }
    rep.wall_s = clock::secs_since(start);
    rep.cpu_s = crate::stats::proc_cpu_s("self").unwrap_or(0.0) - cpu0;
    let steps_per_update = ppo.horizon.div_ceil(LANES) * LANES;
    let expected = (updates * steps_per_update) as u64;
    if trainer.total_steps() != expected {
        rep.failed += 1;
        eprintln!(
            "train: {} steps, expected {expected}",
            trainer.total_steps()
        );
    }
    rep.work = trainer.total_steps() as f64;
    rep.jobs_s.push(rep.wall_s);
    rep.digest = format!(
        "{:016x}/{}",
        params_digest(trainer.net_mut()),
        trainer.total_steps()
    );
    Ok(rep)
}

/// Per-layer metrics of a traced rep: the env/cache counters of the real
/// updates plus a replay of as many updates for the phases inside them.
fn traced_layers(
    trainer: &mut Trainer<TracedEnv<CacheGuessingGame>>,
    env: &TracedEnv<CacheGuessingGame>,
    ppo: PpoConfig,
    seed: u64,
    rep: &RepResult,
) -> Result<Layers, String> {
    let real = Counters::read();
    let mut replay_net = TracedNet::new(trainer.net_mut().clone_box());
    let mut replicas: Vec<Box<dyn PolicyValueNet>> =
        (1..SHARDS).map(|_| replay_net.clone_box()).collect();
    let mut venv = VecEnv::new(LANES, env.clone(), seed)?;
    let mut adam = Adam::new(ppo.lr);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..rep.ops_ms.len() {
        replay_update(
            &mut venv,
            &mut replay_net,
            &mut replicas,
            &mut adam,
            ppo,
            &mut rng,
        );
    }
    let replay = Counters::read().since(&real);
    let spans = trace::take_spans();
    let stats = SpanStats::new(&spans);

    let mut layers = Layers::new();
    crate::env_layers(&mut layers, &real, rep.wall_s);
    crate::nn_layers(&mut layers, &replay, &stats);
    let update_busy = stats.busy_s("ppo.train_update");
    let update_ms: Vec<f64> = stats
        .durations("ppo.train_update")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    // Phase walls of the replay, all spans on this thread.
    let nn_phases = [
        "nn.gather_rows",
        "nn.weight_sync",
        "nn.shard_phase",
        "nn.grad_reduce",
        "nn.clip_grad",
        "nn.adam",
    ];
    let ppo_phases = ["ppo.collect", "ppo.gae", "ppo.advantages"];
    let phase_s = |names: &[&str]| names.iter().map(|n| stats.busy_s(n)).sum::<f64>();
    let replayed = phase_s(&nn_phases) + phase_s(&ppo_phases);
    let replay_env_s = replay.secs(Counter::GymStepNs) + replay.secs(Counter::GymResetNs);
    let infer_s = replay.secs(Counter::NnInferNs);
    let collect_self = (stats.busy_s("ppo.collect") - replay_env_s - infer_s).max(0.0);
    let nn_s = phase_s(&nn_phases) + infer_s;
    let ppo_self = collect_self + stats.busy_s("ppo.gae") + stats.busy_s("ppo.advantages");
    layers.insert(
        "ppo.train_update.calls",
        stats.calls("ppo.train_update") as f64,
    );
    layers.insert("ppo.train_update.busy_s", update_busy);
    layers.insert("ppo.train_update.ms_p50", crate::stats::median(&update_ms));
    layers.insert("ppo.collect.busy_s", stats.busy_s("ppo.collect"));
    layers.insert("ppo.gae.busy_s", stats.busy_s("ppo.gae"));
    layers.insert("ppo.update.unattributed_s", update_busy - replayed);
    layers.insert("ppo.pool.cpu_per_wall", rep.cpu_s / rep.wall_s);
    layers.insert("ppo.self_share", ppo_self / rep.wall_s);
    layers.insert("nn.self_share", nn_s / rep.wall_s);
    layers.insert("nn.shard_phase.busy_s", stats.busy_s("nn.shard_phase"));
    crate::closure(&mut layers, rep.wall_s, replayed);
    crate::write_rep_spans("train", seed, &spans)?;
    Ok(layers)
}

/// The benchmark's per-row gradient for the replay (policy gradient on
/// the taken action scaled by its advantage, plus value regression); its
/// cost is a small part of `train_batch`.
fn row_grad(
    batch: &RolloutBatch,
    advantages: &[f32],
    value_coef: f32,
    inv: f32,
    row: usize,
    logits: &[f32],
    value: f32,
) -> RowGrad {
    let mut dlogits = Categorical::from_logits(logits).probs().to_vec();
    dlogits[batch.actions[row]] -= 1.0;
    for g in &mut dlogits {
        *g *= advantages[row] * inv;
    }
    (dlogits, value_coef * (value - batch.returns[row]) * inv)
}

/// Replays one PPO update with the program's public pieces, in the
/// update's own order, shapes and shard layout: `rollout::collect`
/// (which runs GAE per lane), the public `gae` over the batch, advantage
/// normalisation, then for every epoch and minibatch: `gather_rows` per
/// shard, a weight snapshot, the shard phase on the rayon pool (shard 0
/// inline on the primary, shards 1.. on weight-synced replicas, each
/// `train_batch` then a gradient harvest), the fixed-order
/// `accumulate_into`, global-norm clip and `Adam::step`. Every phase is a
/// span on this thread, so their walls add up to the update's.
fn replay_update(
    venv: &mut VecEnv<TracedEnv<CacheGuessingGame>>,
    net: &mut TracedNet,
    replicas: &mut [Box<dyn PolicyValueNet>],
    adam: &mut Adam,
    ppo: PpoConfig,
    rng: &mut StdRng,
) {
    let batch = trace::span("ppo.collect", || {
        rollout::collect(venv, net, ppo.horizon, ppo.gamma, ppo.lambda, rng)
    });
    let n = batch.actions.len();
    trace::span("ppo.gae", || {
        let mut values: Vec<f32> = batch
            .returns
            .iter()
            .zip(&batch.advantages)
            .map(|(r, a)| r - a)
            .collect();
        values.push(0.0);
        gae(&batch.rewards, &values, &batch.dones, ppo.gamma, ppo.lambda)
    });
    let advantages = trace::span("ppo.advantages", || {
        let mean = batch.advantages.iter().sum::<f32>() / n as f32;
        let var = batch
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / n as f32;
        let std = var.sqrt().max(1e-6);
        batch
            .advantages
            .iter()
            .map(|a| (a - mean) / std)
            .collect::<Vec<f32>>()
    });
    let (batch, advantages) = (&batch, &advantages[..]);
    let mut indices: Vec<usize> = (0..n).collect();
    for _ in 0..ppo.epochs_per_update {
        indices.shuffle(rng);
        for chunk in indices.chunks(ppo.minibatch) {
            let shards: Vec<&[usize]> = chunk.chunks(chunk.len().div_ceil(SHARDS)).collect();
            let inv = 1.0 / chunk.len() as f32;
            let obs: Vec<Matrix> = trace::span("nn.gather_rows", || {
                shards
                    .iter()
                    .map(|rows| batch.obs.gather_rows(rows))
                    .collect()
            });
            let weights = trace::span("nn.weight_sync", || {
                snapshot_param_values(|f| net.visit_params(f))
            });
            let mut slots: Vec<Option<GradBuffer>> = (1..shards.len()).map(|_| None).collect();
            trace::span("nn.shard_phase", || {
                let weights = &weights;
                rayon::scope(|scope| {
                    for (((replica, slot), rows), obs) in replicas
                        .iter_mut()
                        .zip(slots.iter_mut())
                        .zip(&shards[1..])
                        .zip(&obs[1..])
                    {
                        scope.spawn(move |_| {
                            load_param_values(weights, |f| replica.visit_params(f));
                            replica.zero_grad();
                            replica.train_batch(obs, &mut |i, logits, value| {
                                row_grad(
                                    batch,
                                    advantages,
                                    ppo.value_coef,
                                    inv,
                                    rows[i],
                                    logits,
                                    value,
                                )
                            });
                            *slot = Some(GradBuffer::harvest(|f| replica.visit_params(f)));
                        });
                    }
                    with_inline_kernels(|| {
                        net.zero_grad();
                        net.train_batch(&obs[0], &mut |i, logits, value| {
                            row_grad(
                                batch,
                                advantages,
                                ppo.value_coef,
                                inv,
                                shards[0][i],
                                logits,
                                value,
                            )
                        });
                    });
                });
            });
            trace::span("nn.grad_reduce", || {
                for buffer in slots.iter().flatten() {
                    buffer.accumulate_into(|f| net.visit_params(f));
                }
            });
            trace::span("nn.clip_grad", || {
                clip_global_grad_norm(ppo.max_grad_norm, |f| net.visit_params(f))
            });
            trace::span("nn.adam", || adam.step(|f| net.visit_params(f)));
        }
    }
}
