//! Shared helpers for the table/figure harness binaries, plus the
//! [`sweep`] pipeline (train every scenario → checkpoint → Table IV
//! reproduction report).
//!
//! Every binary regenerates one table or figure of the paper. Budgets:
//! set `AUTOCAT_BUDGET=full` for the paper-scale runs; the default
//! `quick` mode uses reduced training budgets and fewer repeat runs so a
//! full sweep finishes on a laptop.

pub mod census;
pub mod cli;
pub mod sweep;

use autocat_scenario::Scenario;
use sweep::SweepRow;

/// Run budget selected via the `AUTOCAT_BUDGET` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Reduced budgets (default): 1 training run per row, capped steps.
    Quick,
    /// Paper-scale budgets: 3 runs per row, generous step caps.
    Full,
}

impl Budget {
    /// Reads the budget from the environment.
    pub fn from_env() -> Self {
        match std::env::var("AUTOCAT_BUDGET").as_deref() {
            Ok("full") => Budget::Full,
            _ => Budget::Quick,
        }
    }

    /// Training runs per table row (the paper averages over 3).
    pub fn runs(self) -> u64 {
        match self {
            Budget::Quick => 1,
            Budget::Full => 3,
        }
    }

    /// Environment-step cap per training run.
    pub fn max_steps(self) -> u64 {
        match self {
            Budget::Quick => 400_000,
            Budget::Full => 1_500_000,
        }
    }

    /// Parallel rollout lanes for the training harnesses. Overridable with
    /// `AUTOCAT_LANES`; defaults to 1 lane in quick mode (bit-for-bit the
    /// historical scalar path) and 4 lanes for paper-scale runs.
    pub fn lanes(self) -> usize {
        if let Ok(v) = std::env::var("AUTOCAT_LANES") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        match self {
            Budget::Quick => 1,
            Budget::Full => 4,
        }
    }

    /// Applies the budget's step cap and lane count to `scenario`.
    pub fn apply(self, scenario: &mut Scenario) {
        scenario.train.max_steps = self.max_steps();
        scenario.train.ppo.num_lanes = self.lanes();
    }
}

/// Trains `scenario` through the shared sweep path
/// ([`sweep::train_trainer`]) and reports its row
/// ([`sweep::row_and_stats`]): the census-named attack, its representative
/// sequence and the evaluation statistics.
///
/// # Errors
///
/// Returns an error if the scenario's environment cannot be built.
pub fn train_and_report(scenario: &Scenario) -> Result<SweepRow, String> {
    let mut trainer = sweep::train_trainer(scenario, |_, _| {})?;
    Ok(sweep::row_and_stats(&mut trainer, scenario).0)
}

/// Paper-style epochs to convergence (`steps / ppo.steps_per_epoch`; an
/// epoch is 3000 steps by default), or `None` if the row did not
/// converge. Training stops at the update that converges, so for a
/// converged run this is `Trainer::train_until`'s `converged_at_epochs`.
pub fn epochs_to_converge(row: &SweepRow, scenario: &Scenario) -> Option<f64> {
    row.converged
        .then(|| row.steps as f64 / scenario.train.ppo.steps_per_epoch as f64)
}

/// Prints a table header with a separator line.
pub fn print_header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(100)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_budget_is_default() {
        std::env::remove_var("AUTOCAT_BUDGET");
        assert_eq!(Budget::from_env(), Budget::Quick);
        assert_eq!(Budget::Quick.runs(), 1);
        assert!(Budget::Full.max_steps() > Budget::Quick.max_steps());
    }

    #[test]
    fn lane_defaults_keep_quick_mode_scalar() {
        std::env::remove_var("AUTOCAT_LANES");
        assert_eq!(
            Budget::Quick.lanes(),
            1,
            "quick runs stay bit-for-bit scalar"
        );
        assert!(
            Budget::Full.lanes() > 1,
            "full runs use the vectorized engine"
        );
    }

    #[test]
    fn converged_epochs_match_train_until() {
        // table4-6 passes a -0.3 trailing return within a few updates; a
        // non-default epoch length shows the divisor comes from the spec.
        let mut scenario = autocat_scenario::table4(6).unwrap();
        scenario.train.max_steps = 40_000;
        scenario.train.return_threshold = -0.3;
        scenario.train.ppo.steps_per_epoch = 1000;
        let mut trainer = autocat::ppo::Trainer::new(
            scenario.build_env().unwrap(),
            scenario.train.backbone.clone(),
            scenario.train.ppo,
            scenario.train.seed,
        );
        let result = trainer.train_until(scenario.train.return_threshold, scenario.train.max_steps);
        assert!(result.converged_at_epochs.is_some(), "{result:?}");

        let row = train_and_report(&scenario).unwrap();
        assert!(row.converged);
        assert_eq!(
            epochs_to_converge(&row, &scenario),
            result.converged_at_epochs
        );
    }
}
