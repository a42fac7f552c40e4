//! The table harnesses reject what they cannot parse — a typo or `--help`
//! must print the usage line and exit 2, not start a multi-minute
//! training run with default rows.

use std::process::Command;

fn assert_rejected(bin: &str, arg: &str) {
    let out = Command::new(bin)
        .arg(arg)
        .output()
        .expect("harness must spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {arg}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {arg}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {arg} printed a table");
}

#[test]
fn table_harnesses_reject_unknown_arguments() {
    for arg in ["--help", "6x", "0", "18"] {
        assert_rejected(env!("CARGO_BIN_EXE_table4"), arg);
    }
    for arg in ["--help", "--al"] {
        assert_rejected(env!("CARGO_BIN_EXE_table3"), arg);
    }
}
