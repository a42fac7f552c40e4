//! Transformer training determinism: one PPO update of table4-6 on the
//! small Transformer backbone must reproduce the pinned params digest.
//! The MLP digests are pinned by `thread_determinism.rs`; this is the
//! Transformer's, so a change to a layer only the Transformer uses
//! (attention, layer norm, the embedding's backward) fails here.

use autocat::nn::state::params_digest;
use autocat::ppo::{Backbone, Trainer};

/// Params digest after one update (seed 3, the scenario's PPO recipe).
const PINNED_1_UPDATE: u64 = 0xe75e_8313_65d4_a272;

#[test]
fn small_transformer_update_matches_the_pinned_digest() {
    let scenario = autocat_scenario::lookup("table4-6").expect("table4-6 is registered");
    let env = scenario.build_env().expect("table4-6 builds");
    let mut trainer = Trainer::new(env, Backbone::small_transformer(), scenario.train.ppo, 3);
    let stats = trainer.train_update();
    assert!(stats.policy_loss.is_finite() && stats.value_loss.is_finite());
    assert_eq!(
        format!("{:016x}", params_digest(trainer.net_mut())),
        format!("{PINNED_1_UPDATE:016x}"),
    );
}
