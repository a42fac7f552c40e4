//! The `scenario-run` driver shared by the subprocess tests.

use std::path::Path;
use std::process::Command;

/// Runs `scenario-run` with `args` (plus `--ckpt ckpt` when given) under
/// `threads` pool threads plus the extra environment `envs`, checks that
/// it succeeded, and returns its stdout.
pub fn scenario_run(
    args: &[&str],
    ckpt: Option<&Path>,
    threads: &str,
    envs: &[(&str, &str)],
) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenario-run"));
    cmd.args(args).env("RAYON_NUM_THREADS", threads);
    if let Some(ckpt) = ckpt {
        cmd.arg("--ckpt").arg(ckpt);
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("scenario-run must spawn");
    assert!(
        out.status.success(),
        "scenario-run {args:?} failed under {threads} thread(s) {envs:?}:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `(params digest, eval digest)` lines of a `scenario-run` run's
/// stdout.
pub fn digests(stdout: &str) -> (String, String) {
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
            .trim()
            .to_string()
    };
    (line("params digest :"), line("eval digest   :"))
}
