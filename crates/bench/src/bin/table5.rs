//! Table V: RL training statistics per deterministic replacement policy.

use autocat::cache::PolicyKind;
use autocat_bench::{epochs_to_converge, print_header, train_and_report, Budget};

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Table V: epochs to converge & episode length per policy (paper: LRU 26.0/7.0, PLRU 15.67/7.0, RRIP 70.67/12.7)",
        "Policy | Epochs to converge | Episode length | Example sequence",
    );
    for policy in [PolicyKind::Lru, PolicyKind::Plru, PolicyKind::Rrip] {
        let mut epochs_sum = 0.0;
        let mut len_sum = 0.0;
        let mut runs_converged = 0u64;
        let mut last_seq = String::new();
        for run in 0..budget.runs() {
            let mut scenario = autocat_scenario::replacement(policy);
            scenario.train.seed = 10 * run + 1;
            scenario.train.return_threshold = 0.85;
            budget.apply(&mut scenario);
            let row = train_and_report(&scenario).expect("valid replacement config");
            if let Some(e) = epochs_to_converge(&row, &scenario) {
                epochs_sum += e;
                runs_converged += 1;
            }
            len_sum += row.avg_length as f64;
            last_seq = row.sequence;
        }
        let runs = budget.runs() as f64;
        println!(
            "{:<6} | {:>18} | {:>14.1} | {}",
            policy.name(),
            if runs_converged > 0 {
                format!("{:.2}", epochs_sum / runs_converged as f64)
            } else {
                "n/a".to_string()
            },
            len_sum / runs,
            last_seq,
        );
    }
    println!("\n(expected shape: RRIP needs more epochs and longer sequences than LRU/PLRU)");
}
