//! Table IV: attacks found across 17 cache / attacker-victim configs.
//!
//! The row configurations live in the `autocat-scenario` registry
//! (`autocat_scenario::table4`); this harness only adds budgets and the
//! table formatting.
//!
//! ```text
//! table4          # quick subset: rows 1 3 5 6 7 11
//! table4 2 16     # the given rows (1-17)
//! ```

use autocat_bench::{print_header, train_and_report, Budget};

fn main() {
    let budget = Budget::from_env();
    let mut rows: Vec<usize> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.parse() {
            Ok(no) if (1..=17).contains(&no) => rows.push(no),
            _ => {
                eprintln!("error: unknown argument `{arg}`\nusage: table4 [ROW (1-17)]...");
                std::process::exit(2);
            }
        }
    }
    if rows.is_empty() {
        rows = if budget == Budget::Full {
            (1..=17).collect()
        } else {
            vec![1, 3, 5, 6, 7, 11]
        };
    }
    print_header(
        "Table IV: attacks found per configuration (pass row numbers as args; default quick subset)",
        "No | Expected       | Found    | Acc.  | Sequence",
    );
    for no in rows {
        let mut scenario = autocat_scenario::table4(no).expect("row range checked above");
        // The registry's TrainSpec is the source of truth for seed and
        // convergence threshold; the budget only caps steps and lanes.
        budget.apply(&mut scenario);
        let row = train_and_report(&scenario).expect("valid table-4 config");
        println!(
            "{:>2} | {:<14} | {:<8} | {:.3} | {}{}",
            no,
            scenario.summary,
            row.category,
            row.accuracy(),
            row.sequence,
            if row.converged {
                ""
            } else {
                "  [not converged]"
            },
        );
    }
}
