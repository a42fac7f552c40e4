//! Table III: attack sequences found on (simulated) real hardware.
//!
//! Substitution: blackbox `SimulatedProcessor` profiles stand in for the
//! CacheQuery-driven Intel machines (DESIGN.md, substitution 1).
//!
//! ```text
//! table3          # quick subset: Skylake L2, Kaby Lake L3 (4 ways)
//! table3 --all    # every Table III row
//! ```

use autocat::gym::HardwareProfile;
use autocat_bench::{print_header, train_and_report, Budget};

fn main() {
    let budget = Budget::from_env();
    let mut all = budget == Budget::Full;
    for arg in std::env::args().skip(1) {
        if arg != "--all" {
            eprintln!("error: unknown argument `{arg}`\nusage: table3 [--all]");
            std::process::exit(2);
        }
        all = true;
    }
    let rows: Vec<HardwareProfile> = if all {
        HardwareProfile::table3_rows().to_vec()
    } else {
        vec![HardwareProfile::SkylakeL2, HardwareProfile::KabylakeL3W4]
    };
    print_header(
        "Table III: attacks found on real hardware (simulated blackbox processors)",
        "CPU                      | Lvl | Ways | Pol.   | Attack addr | Accuracy | Category | Sequence",
    );
    for (i, profile) in rows.iter().enumerate() {
        let mut scenario = autocat_scenario::hardware(*profile);
        scenario.env.window_size = (3 * profile.ways() + 6).min(40);
        scenario.train.seed = 100 + i as u64;
        scenario.train.return_threshold = 0.8;
        budget.apply(&mut scenario);
        let row = train_and_report(&scenario).expect("valid hardware config");
        println!(
            "{:<24} | {:<3} | {:>4} | {:<6} | 0-{:<9} | {:>7.3} | {:<8} | {}",
            profile.cpu(),
            profile.level(),
            profile.ways(),
            profile.policy_label(),
            profile.attacker_range().1,
            row.accuracy(),
            row.category,
            row.sequence,
        );
    }
    println!("\n(paper: accuracies 0.993-1.0, all rows classified LRU/LRU*-category attacks)");
}
