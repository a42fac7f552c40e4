//! The `eval` workload: batched evaluation of seed-initialised policies
//! over a scenario mix, then the attack-category census (one
//! `classify_sequence` per episode) — the path every sweep report and
//! daemon job ends with. No backward pass, no optimizer: small-batch
//! inference, environment stepping, cache simulation and detection.

use crate::clock;
use crate::trace::{self, Counter, Counters, SpanStats, TracedBackend, TracedEnv, TracedNet};
use crate::{Layers, RepResult};
use autocat_attacks::classify_sequence;
use autocat_gym::{backend_from_spec, Action, CacheGuessingGame, Environment};
use autocat_nn::models::PolicyValueNet;
use autocat_nn::state::fnv1a;
use autocat_ppo::eval::{evaluate_batched, EVAL_LANES};
use autocat_ppo::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scenario mix: FA LRU with flush, a two-level hierarchy with a
/// 64-step window, an in-loop autocorrelation detector, and a noisy
/// PLRU blackbox.
const MIX: [&str; 4] = [
    "table4-6",
    "table4-17",
    "defense-autocorr",
    "hardware-skylake-l1",
];
/// Chunks per rep; one chunk evaluates every scenario of the mix once and
/// is the workload's finest timed operation.
const CHUNKS: usize = 4;
/// Episodes per scenario and chunk.
const EPISODES: usize = 1_200;
const SMOKE_EPISODES: usize = 16;

struct Case<E> {
    env: E,
    game: CacheGuessingGame,
    net: Box<dyn PolicyValueNet>,
    seed: u64,
}

fn build_case<E: Environment + Clone + Send>(
    env: E,
    game: CacheGuessingGame,
    scenario: &autocat_scenario::Scenario,
    seed: u64,
    traced: bool,
) -> Case<E> {
    let mut trainer = Trainer::new(
        env.clone(),
        scenario.train.backbone.clone(),
        scenario.train.ppo,
        seed,
    );
    let net = trainer.net_mut().clone_box();
    let net: Box<dyn PolicyValueNet> = if traced {
        Box::new(TracedNet::new(net))
    } else {
        net
    };
    Case {
        env,
        game,
        net,
        seed,
    }
}

/// One rep: initialises one policy per scenario (set-up), calls `ready`,
/// then evaluates and classifies.
pub fn run(
    seed: u64,
    traced: bool,
    smoke: bool,
    ready: impl FnOnce(),
) -> Result<RepResult, String> {
    let episodes = if smoke { SMOKE_EPISODES } else { EPISODES };
    let mut plain = Vec::new();
    let mut wrapped = Vec::new();
    for (i, name) in MIX.iter().enumerate() {
        let scenario =
            autocat_scenario::lookup(name).ok_or_else(|| format!("no scenario {name}"))?;
        let case_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64);
        let cfg = scenario.env.clone();
        if traced {
            let backend = TracedBackend::boxed(backend_from_spec(&cfg.cache, 0));
            let game = CacheGuessingGame::with_backend(cfg, backend)?;
            let env = TracedEnv {
                inner: game.clone(),
            };
            wrapped.push(build_case(env, game, &scenario, case_seed, true));
        } else {
            let game = scenario.build_env()?;
            plain.push(build_case(game.clone(), game, &scenario, case_seed, false));
        }
    }
    ready();
    let chunks = if smoke { 1 } else { CHUNKS };
    let mut rep = RepResult::default();
    let mut digests = Vec::new();
    let start = clock::now();
    for chunk in 0..chunks as u64 {
        let t = clock::now();
        for case in &mut plain {
            digests.push(evaluate(case, chunk, episodes, &mut rep));
        }
        for case in &mut wrapped {
            digests.push(evaluate(case, chunk, episodes, &mut rep));
        }
        rep.ops_ms.push(clock::secs_since(t) * 1e3);
    }
    rep.wall_s = clock::secs_since(start);
    rep.jobs_s.push(rep.wall_s);
    rep.digest = format!("{:016x}", fnv1a(digests.join("/").into_bytes()));
    if traced {
        rep.layers = Some(traced_layers(&rep, seed)?);
    }
    Ok(rep)
}

/// Evaluates one chunk of a case and classifies every episode; returns
/// its digest (eval stats digest plus the category sequence).
fn evaluate<E: Environment + Clone>(
    case: &mut Case<E>,
    chunk: u64,
    episodes: usize,
    rep: &mut RepResult,
) -> String {
    let mut rng = StdRng::seed_from_u64(case.seed ^ (chunk << 48));
    let report = trace::span("ppo.evaluate_batched", || {
        evaluate_batched(
            &case.env,
            case.net.as_mut(),
            episodes,
            EVAL_LANES,
            false,
            &mut rng,
        )
    });
    let space = case.game.action_space();
    let categories: Vec<String> = report
        .episodes
        .iter()
        .map(|ep| {
            let actions: Vec<Action> = ep.actions.iter().map(|&a| space.decode(a)).collect();
            trace::span("attacks.classify", || {
                classify_sequence(&actions, case.game.config()).to_string()
            })
        })
        .collect();
    rep.attempted += episodes as u64;
    rep.work += report.stats.episodes as f64;
    if report.stats.episodes != episodes || report.episodes.len() != episodes {
        rep.failed += 1;
    }
    format!("{:016x}:{}", report.stats.digest(), categories.join(","))
}

fn traced_layers(rep: &RepResult, seed: u64) -> Result<Layers, String> {
    let counters = Counters::read();
    let spans = trace::take_spans();
    let stats = SpanStats::new(&spans);
    let mut layers = Layers::new();
    crate::env_layers(&mut layers, &counters, rep.wall_s);
    crate::nn_layers(&mut layers, &counters, &stats);
    let env_s = counters.secs(Counter::GymStepNs) + counters.secs(Counter::GymResetNs);
    let nn_s = counters.secs(Counter::NnInferNs);
    let eval_s = stats.busy_s("ppo.evaluate_batched");
    let ppo_self = eval_s - env_s - nn_s;
    let classify_s = stats.busy_s("attacks.classify");
    layers.insert("ppo.evaluate_batched.busy_s", eval_s);
    layers.insert("ppo.self_share", ppo_self / rep.wall_s);
    layers.insert("nn.self_share", nn_s / rep.wall_s);
    layers.insert(
        "attacks.classify.calls",
        stats.calls("attacks.classify") as f64,
    );
    layers.insert("attacks.classify.busy_s", classify_s);
    layers.insert("attacks.self_share", classify_s / rep.wall_s);
    crate::closure(&mut layers, rep.wall_s, eval_s + classify_s);
    crate::write_rep_spans("eval", seed, &spans)?;
    Ok(layers)
}
