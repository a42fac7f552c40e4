//! The analysis engine: walks the workspace tree, lexes every covered
//! `.rs` file, runs the rule registry, applies suppressions, and renders
//! findings.
//!
//! # Coverage
//!
//! Every `.rs` file under the workspace root is scanned except `target/`,
//! VCS metadata, the vendored dependency shims (`vendor/*` — offline
//! stand-ins for external crates, not this repo's contract surface) and
//! the linter's own seeded-violation fixture corpus. `vendor/simd` **is**
//! scanned: it is hand-written kernel code whose `unsafe` and `SIMD_TIER`
//! handling are exactly what U1/D3 exist to audit.
//!
//! # Test code
//!
//! `#[cfg(test)]`/`#[test]` regions and files under `tests/`, `benches/`
//! or `examples/` are exempt from D1 and R1 (test panics and scratch maps
//! cannot leak into shipped digests). D2, D3 and U1 apply everywhere:
//! wall-clock in a test flakes it, env reads must stay enumerable, and
//! `unsafe` needs its audit comment no matter where it lives.
//!
//! # Suppressions
//!
//! `// lint: allow(RULE) -- reason` on the offending line (or standing
//! alone on the line directly above) suppresses that rule there. The
//! reason is mandatory, `--list-allows` prints every suppression for CI
//! logs, and a suppression that stops matching anything becomes an `A0`
//! violation itself — suppressions cannot silently outlive their cause.

use crate::lexer::{lex, LexedLine};
use crate::rules::{self, Rule};
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The `file:line rule message` report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {} {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// One parsed `lint: allow` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative path.
    pub path: String,
    /// Line the comment sits on.
    pub line: usize,
    /// Rules it suppresses.
    pub rules: Vec<Rule>,
    /// The mandatory justification.
    pub reason: String,
    /// Whether it suppressed at least one finding.
    pub used: bool,
}

/// The result of scanning a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving (unsuppressed) violations, in path/line order.
    pub findings: Vec<Finding>,
    /// Every suppression encountered, in path/line order.
    pub allows: Vec<Allow>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Runs the full rule registry over the tree rooted at `root`.
///
/// # Errors
///
/// Returns an error if the tree cannot be read (I/O, non-UTF-8 source).
pub fn run(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    collect(root, Path::new(""), &mut files)?;
    files.sort();
    let registry = rules::env_registry();
    let mut report = Report::default();
    for rel in &files {
        let path = rel.to_string_lossy().replace('\\', "/");
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {path}: {e}"))?;
        scan_file(&path, &source, &registry, &mut report);
        report.files += 1;
    }
    Ok(report)
}

/// Whether a directory entry (workspace-relative path) is scanned.
fn covered(rel: &str, is_dir: bool) -> bool {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    if is_dir && (base == "target" || base.starts_with('.')) {
        return false;
    }
    // The vendored dependency shims are out of contract — except the
    // hand-written SIMD layer, which is exactly what U1/D3 audit.
    if rel == "vendor" || (rel.starts_with("vendor/") && !rel.starts_with("vendor/simd")) {
        return is_dir && rel == "vendor"; // descend into vendor/ itself
    }
    // The linter's own fixture corpus is seeded with violations.
    if rel.starts_with("crates/lint/tests/fixtures") {
        return false;
    }
    is_dir || rel.ends_with(".rs")
}

fn collect(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let child = rel.join(&name);
        let rel_str = child.to_string_lossy().replace('\\', "/");
        let is_dir = entry
            .file_type()
            .map_err(|e| format!("stat {rel_str}: {e}"))?
            .is_dir();
        if !covered(&rel_str, is_dir) {
            continue;
        }
        if is_dir {
            collect(root, &child, out)?;
        } else {
            out.push(child);
        }
    }
    Ok(())
}

/// Whether the file as a whole is test/example code (D1/R1 exempt).
fn test_file(path: &str) -> bool {
    path.split('/')
        .any(|part| part == "tests" || part == "benches" || part == "examples")
}

/// Marks the lines inside `#[cfg(test)]` / `#[test]` items by tracking
/// brace depth in the blanked code channel.
fn test_regions(lines: &[LexedLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0i64;
    let mut pending = false;
    let mut bases: Vec<i64> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !bases.is_empty() {
            in_test[i] = true;
        }
        if line.code.contains("#[cfg(test") || line.code.contains("#[test]") {
            pending = true;
            in_test[i] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        bases.push(depth - 1);
                        pending = false;
                        in_test[i] = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if bases.last().is_some_and(|&base| depth <= base) {
                        bases.pop();
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// Whether line `at` is covered by a `// SAFETY:` comment: on the line
/// itself, or in the contiguous comment/attribute block directly above.
fn safety_covered(lines: &[LexedLine], at: usize) -> bool {
    if lines[at].comment.contains("SAFETY:") {
        return true;
    }
    let mut i = at;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let is_comment = code.is_empty() && !line.comment.is_empty();
        if !is_attr && !is_comment {
            return false;
        }
        if line.comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Parses the suppressions in a file. A comment on a code-bearing line
/// targets that line; a standalone comment targets the next code line.
fn parse_allows(path: &str, lines: &[LexedLine], report: &mut Report) -> Vec<(usize, usize)> {
    // Returns (allow index in report.allows, target line index).
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // The directive must open the comment (`// lint: ...`): prose
        // *mentioning* the syntax, e.g. in rustdoc, is not a suppression.
        let text = line.comment.trim_start_matches(['/', '!', '*', ' ']);
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let parsed = (|| -> Result<(Vec<Rule>, String), String> {
            let rest = rest
                .strip_prefix("allow(")
                .ok_or("expected `lint: allow(RULE, ...) -- reason`")?;
            let close = rest.find(')').ok_or("unclosed `allow(`")?;
            let mut ids = Vec::new();
            for id in rest[..close].split(',') {
                let id = id.trim();
                ids.push(Rule::parse(id).ok_or_else(|| format!("unknown rule `{id}` in allow()"))?);
            }
            if ids.is_empty() {
                return Err("empty allow()".into());
            }
            let reason = rest[close + 1..]
                .trim_start()
                .strip_prefix("--")
                .map(str::trim)
                .unwrap_or("");
            if reason.is_empty() {
                return Err("suppression without a reason (`-- why`)".into());
            }
            Ok((ids, reason.to_string()))
        })();
        match parsed {
            Err(e) => report.findings.push(Finding {
                path: path.to_string(),
                line: i + 1,
                rule: Rule::A0,
                message: format!("malformed suppression: {e}"),
            }),
            Ok((rules, reason)) => {
                // A standalone comment line suppresses the next code line.
                let target = if line.code.trim().is_empty() {
                    (i + 1..lines.len())
                        .find(|&j| !lines[j].code.trim().is_empty())
                        .unwrap_or(i)
                } else {
                    i
                };
                out.push((report.allows.len(), target));
                report.allows.push(Allow {
                    path: path.to_string(),
                    line: i + 1,
                    rules,
                    reason,
                    used: false,
                });
            }
        }
    }
    out
}

fn scan_file(
    path: &str,
    source: &str,
    registry: &std::collections::BTreeSet<&'static str>,
    report: &mut Report,
) {
    let lines = lex(source);
    let in_test = test_regions(&lines);
    let is_test_file = test_file(path);
    let allow_sites = parse_allows(path, &lines, report);

    let d1 = rules::d1_applies(path) && !is_test_file;
    let r1 = rules::r1_applies(path) && !is_test_file;

    let mut raw: Vec<Finding> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut push = |rule: Rule, message: String| {
            raw.push(Finding {
                path: path.to_string(),
                line: i + 1,
                rule,
                message,
            });
        };
        if d1 && !in_test[i] {
            for token in rules::D1_TOKENS {
                if rules::has_token(code, token) {
                    push(
                        Rule::D1,
                        format!(
                            "`{token}` in a digest/report-path crate: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet"
                        ),
                    );
                }
            }
        }
        for token in rules::D2_TOKENS {
            if rules::has_token(code, token) {
                push(
                    Rule::D2,
                    format!(
                        "`{token}` is a wall-clock or entropy source: results must be a \
                         function of the seed alone"
                    ),
                );
            }
        }
        let mut env_messages = Vec::new();
        rules::check_env_reads(line, registry, &mut env_messages);
        for message in env_messages {
            push(Rule::D3, message);
        }
        if r1 && !in_test[i] {
            for token in rules::R1_TOKENS {
                if rules::has_token(code, token) {
                    push(
                        Rule::R1,
                        format!(
                            "`{token}` in the daemon request path: errors must flow \
                             through ErrorKind, never kill a connection thread"
                        ),
                    );
                }
            }
        }
        if rules::has_token(code, "unsafe") && !safety_covered(&lines, i) {
            push(
                Rule::U1,
                "`unsafe` without a preceding `// SAFETY:` comment documenting the \
                 invariant it relies on"
                    .to_string(),
            );
        }
    }

    // Apply suppressions; record which were used.
    for finding in raw {
        let suppressed = allow_sites.iter().any(|&(allow, target)| {
            let hit =
                target + 1 == finding.line && report.allows[allow].rules.contains(&finding.rule);
            if hit {
                report.allows[allow].used = true;
            }
            hit
        });
        if !suppressed {
            report.findings.push(finding);
        }
    }

    // A suppression that no longer suppresses anything is itself a
    // violation: stale allows must not accumulate.
    for &(allow, _) in &allow_sites {
        let allow = &report.allows[allow];
        if !allow.used {
            report.findings.push(Finding {
                path: allow.path.clone(),
                line: allow.line,
                rule: Rule::A0,
                message: format!(
                    "unused suppression for {}: nothing to suppress here any more",
                    allow
                        .rules
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
}

/// Renders the `--list-allows` audit dump.
pub fn render_allows(report: &Report) -> String {
    let mut out = String::new();
    for allow in &report.allows {
        let ids = allow
            .rules
            .iter()
            .map(|r| r.id())
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{}:{} allow({ids}) -- {}{}\n",
            allow.path,
            allow.line,
            allow.reason,
            if allow.used { "" } else { "  [UNUSED]" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, source: &str) -> Report {
        let registry = rules::env_registry();
        let mut report = Report::default();
        scan_file(path, source, &registry, &mut report);
        report
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_d1() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       fn f() { let _: HashMap<u8, u8> = HashMap::new(); }\n\
                   }\n";
        let report = scan("crates/detect/src/x.rs", src);
        let d1: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::D1)
            .collect();
        assert_eq!(d1.len(), 1, "{:?}", report.findings);
        assert_eq!(d1[0].line, 1);
    }

    #[test]
    fn suppression_consumes_and_unused_flags() {
        let src = "use std::collections::HashMap; // lint: allow(D1) -- scratch only\n\
                   // lint: allow(D1) -- stale\n\
                   let x = 1;\n";
        let report = scan("crates/detect/src/x.rs", src);
        assert_eq!(report.allows.len(), 2);
        assert!(report.allows[0].used);
        assert!(!report.allows[1].used);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::A0);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn safety_comment_forms() {
        let src = "// SAFETY: fine\nlet a = unsafe { f() };\n\
                   let b = unsafe { g() }; // SAFETY: trailing\n\
                   let c = unsafe { h() };\n";
        let report = scan("crates/core/src/x.rs", src);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn attributes_do_not_break_safety_adjacency() {
        let src = "// SAFETY: target-feature contract\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn go() {}\n";
        let report = scan("crates/core/src/x.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
