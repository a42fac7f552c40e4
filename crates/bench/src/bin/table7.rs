//! Table VII: PLRU with and without the PL cache.

use autocat::gym::EnvConfig;
use autocat_bench::{epochs_to_converge, print_header, train_and_report, Budget};
use autocat_scenario::Scenario;

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Table VII: PL cache vs baseline (paper: PL 37.67 epochs/8.1 len, baseline 7.67/7.0)",
        "Cache     | Epochs to converge | Final episode length | Sequence",
    );
    for (label, locked) in [("PL Cache", true), ("Baseline", false)] {
        let mut epochs_sum = 0.0;
        let mut len_sum = 0.0;
        let mut converged = 0u64;
        let mut seq = String::new();
        for run in 0..budget.runs() {
            let mut scenario = Scenario::new(label, label, EnvConfig::pl_cache_study(locked));
            scenario.train.seed = 30 + run;
            scenario.train.return_threshold = 0.85;
            budget.apply(&mut scenario);
            let row = train_and_report(&scenario).expect("valid PL config");
            if let Some(e) = epochs_to_converge(&row, &scenario) {
                epochs_sum += e;
                converged += 1;
            }
            len_sum += row.avg_length as f64;
            seq = row.sequence;
        }
        println!(
            "{:<9} | {:>18} | {:>20.1} | {}",
            label,
            if converged > 0 {
                format!("{:.2}", epochs_sum / converged as f64)
            } else {
                "n/a".into()
            },
            len_sum / budget.runs() as f64,
            seq,
        );
    }
    println!("\n(expected shape: PL cache takes several times more epochs than the baseline)");
}
