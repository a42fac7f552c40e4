//! `scenario-run` has one train → report path: a run without `--ckpt`
//! and a run that writes a fresh `--ckpt` train the same policy through
//! `sweep::train_trainer`, report it through `sweep::row_and_stats`, and
//! so print the same report and the same fingerprints.

mod common;

/// The report lines of a `scenario-run` stdout: everything but the
/// `loading`/`wrote` checkpoint notices.
fn report_lines(stdout: &str) -> Vec<&str> {
    const PREFIXES: [&str; 6] = [
        "sequence :",
        "category :",
        "accuracy :",
        "steps    :",
        "params digest :",
        "eval digest   :",
    ];
    stdout
        .lines()
        .filter(|line| PREFIXES.iter().any(|p| line.starts_with(p)))
        .collect()
}

#[test]
fn scenario_run_reports_the_same_with_and_without_a_fresh_ckpt() {
    let dir = std::env::temp_dir().join(format!("autocat-train-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.ckpt.bin");
    let args = ["--scenario", "table4-6", "--steps", "1", "--seed", "1"];

    let plain = common::scenario_run(&args, None, "1", &[]);
    let saved = common::scenario_run(&args, Some(&ckpt), "1", &[]);
    let wrote = ckpt.exists();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(wrote, "a fresh --ckpt path is written:\n{saved}");
    assert_eq!(
        report_lines(&plain).len(),
        6,
        "every report line, digests included, is printed:\n{plain}"
    );
    assert_eq!(report_lines(&plain), report_lines(&saved));
    assert_eq!(common::digests(&plain), common::digests(&saved));
}
