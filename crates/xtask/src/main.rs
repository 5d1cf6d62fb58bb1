//! `cargo run -p xtask -- lint`: dependency-free source lints.
//!
//! CI runs this next to `clippy`; it enforces repo conventions clippy has
//! no lints for:
//!
//! 1. **panic-free library paths** (`panic` rule): `dtc-core` library code
//!    must not call `unwrap()` / `expect()` / `panic!` / `unreachable!` /
//!    `todo!` / `unimplemented!`. Fallible-on-bad-input paths return `Err`;
//!    provably-unreachable sites use the crate's `invariant!` macro or
//!    carry an explicit `lint:allow(panic): <reason>` marker on the same
//!    or previous line. Test modules (`#[cfg(test)]` tails) are exempt.
//!    The markers themselves are rationed: their count across
//!    `crates/core/src` may not exceed [`PANIC_ALLOW_CEILING`], a ratchet
//!    that only moves down.
//! 2. **serial engine** (`thread` rule): `dtc-core` library code must not
//!    name `std::thread`. The engine is serial by design; a parallel
//!    engine is a deliberate redesign that starts by changing this rule.
//! 3. **telemetry gating** (`obs-gate` rule): every `sink.phase(..)` /
//!    `sink.round(..)` call site must sit behind an `S::ENABLED` guard
//!    (directly or via a timestamp that is `Some` only when enabled), so
//!    the no-op sink build provably pays nothing. Checked heuristically:
//!    a gate (`ENABLED` or `if let Some`) must appear within the preceding
//!    few lines.
//! 4. **feature-gate hygiene** (`features` rule): every
//!    `feature = "name"` referenced from a crate's sources must be
//!    declared in that crate's `Cargo.toml` `[features]` table —
//!    misspelled gates otherwise silently compile code out.
//!
//! The lint is intentionally line-based and dependency-free (no syn, no
//! registry access): it trades a little precision for zero build cost, and
//! the `lint:allow` escape hatch covers the false positives.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint violation, printed as `file:line: [rule] message`.
#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\nusage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    // xtask lives at <root>/crates/xtask, so the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();

    let mut findings = Vec::new();
    let core_src = root.join("crates/core/src");
    let mut panic_allows = 0;
    for file in rust_files(&core_src) {
        let Ok(text) = fs::read_to_string(&file) else {
            findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "io",
                msg: "unreadable source file".into(),
            });
            continue;
        };
        let rel = file.strip_prefix(&root).unwrap_or(&file).to_path_buf();
        panic_allows += count_panic_allows(&text);
        lint_panics(&rel, &text, &mut findings);
        lint_threads(&rel, &text, &mut findings);
        lint_obs_gating(&rel, &text, &mut findings);
    }
    lint_panic_budget(panic_allows, PANIC_ALLOW_CEILING, &mut findings);

    for crate_dir in crate_dirs(&root) {
        lint_feature_hygiene(&root, &crate_dir, &mut findings);
    }

    if findings.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// All `.rs` files under `dir`, recursively, in stable (sorted) order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// The workspace's crate directories (`crates/*` containing a Cargo.toml).
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.join("Cargo.toml").is_file() {
            out.push(p);
        }
    }
    out.sort();
    out
}

/// `true` for lines that are entirely comment (incl. doc comments), which
/// every textual rule skips.
fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

/// Parses a `lint:allow(name)` marker out of a line, returning the rule
/// name it waives.
fn allow_marker(line: &str) -> Option<&str> {
    let rest = &line[line.find("lint:allow(")? + "lint:allow(".len()..];
    let end = rest.find(')')?;
    Some(&rest[..end])
}

/// `true` when line `i` (0-based) carries the marker itself or inherits it
/// from the immediately preceding line.
fn allowed(lines: &[&str], i: usize, rule: &str) -> bool {
    let here = allow_marker(lines[i]) == Some(rule);
    let above = i > 0 && allow_marker(lines[i - 1]) == Some(rule);
    here || above
}

/// Tokens of the `panic` rule. `.unwrap()` is matched exactly so
/// `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` stay legal.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn lint_panics(file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let mut in_tests = false;
    for (i, &line) in lines.iter().enumerate() {
        // Unit-test modules conventionally trail the file behind
        // `#[cfg(test)]`; everything after that attribute is test code.
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests || is_comment(line) {
            continue;
        }
        for token in PANIC_TOKENS {
            // Only the code part of the line counts; a trailing comment
            // mentioning `panic!(` is not a call.
            let code = line.split("//").next().unwrap_or(line);
            if code.contains(token) && !allowed(&lines, i, "panic") {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: "panic",
                    msg: format!(
                        "`{token}` in library code; return an error, use `invariant!`, \
                         or mark the site `lint:allow(panic): <reason>`"
                    ),
                });
            }
        }
    }
}

/// Most `lint:allow(panic)` markers `crates/core/src` may carry. Lower it
/// whenever a change removes markers; a new marker has to retire an old
/// one first.
const PANIC_ALLOW_CEILING: usize = 11;

/// Lines of `text` carrying a `lint:allow(panic)` marker.
fn count_panic_allows(text: &str) -> usize {
    text.lines()
        .filter(|&l| allow_marker(l) == Some("panic"))
        .count()
}

/// Flags a `crates/core/src` marker count above the ratchet `ceiling`.
fn lint_panic_budget(count: usize, ceiling: usize, findings: &mut Vec<Finding>) {
    if count > ceiling {
        findings.push(Finding {
            file: PathBuf::from("crates/core/src"),
            line: 0,
            rule: "panic",
            msg: format!(
                "{count} `lint:allow(panic)` markers exceed the ceiling of {ceiling}; \
                 remove a marker rather than raise PANIC_ALLOW_CEILING"
            ),
        });
    }
}

fn lint_threads(file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    for (i, &line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        if code.contains("std::thread") && !allowed(&lines, i, "thread") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                rule: "thread",
                msg: "`std::thread` in dtc-core; the engine is serial".into(),
            });
        }
    }
}

/// How many preceding lines may separate a `sink.phase(..)` /
/// `sink.round(..)` call from its `ENABLED` / `if let Some` gate.
const OBS_GATE_WINDOW: usize = 12;

fn lint_obs_gating(file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    for (i, &line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        if !(code.contains("sink.phase(") || code.contains("sink.round(")) {
            continue;
        }
        let lo = i.saturating_sub(OBS_GATE_WINDOW);
        let gated = lines[lo..=i]
            .iter()
            .any(|l| l.contains("ENABLED") || l.contains("if let Some"));
        if !gated && !allowed(&lines, i, "obs-gate") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                rule: "obs-gate",
                msg: format!(
                    "telemetry call without an `S::ENABLED` guard within {OBS_GATE_WINDOW} \
                     lines; gate it so the no-op sink build pays nothing"
                ),
            });
        }
    }
}

/// Feature names declared in a `[features]` table, parsed line-wise.
fn declared_features(cargo_toml: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_features = false;
    for line in cargo_toml.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_features = t == "[features]";
            continue;
        }
        if in_features && !t.is_empty() && !t.starts_with('#') {
            if let Some(name) = t.split('=').next() {
                out.push(name.trim().to_string());
            }
        }
    }
    out
}

/// Every feature name referenced as `feature = "x"` on a code line.
fn feature_refs(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("feature = \"") {
        rest = &rest[pos + "feature = \"".len()..];
        if let Some(end) = rest.find('"') {
            out.push(&rest[..end]);
            rest = &rest[end..];
        } else {
            break;
        }
    }
    out
}

fn lint_feature_hygiene(root: &Path, crate_dir: &Path, findings: &mut Vec<Finding>) {
    let manifest = crate_dir.join("Cargo.toml");
    let Ok(toml) = fs::read_to_string(&manifest) else {
        return;
    };
    let declared = declared_features(&toml);
    for file in rust_files(crate_dir) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        for (i, line) in text.lines().enumerate() {
            if is_comment(line) {
                continue;
            }
            for name in feature_refs(line) {
                if !declared.iter().any(|d| d == name) {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: i + 1,
                        rule: "features",
                        msg: format!(
                            "feature `{name}` is not declared in {}'s [features] table",
                            crate_dir
                                .file_name()
                                .and_then(|n| n.to_str())
                                .unwrap_or("?")
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_marker_parses_rule_names() {
        assert_eq!(
            allow_marker("x(); // lint:allow(panic): reason"),
            Some("panic")
        );
        assert_eq!(allow_marker("// lint:allow(thread)"), Some("thread"));
        assert_eq!(allow_marker("plain code"), None);
        assert_eq!(allow_marker("lint:allow(unclosed"), None);
    }

    #[test]
    fn marker_covers_same_and_previous_line() {
        let lines = vec![
            "// lint:allow(panic): next line is fine",
            "x.unwrap();",
            "y.unwrap();",
        ];
        assert!(allowed(&lines, 1, "panic"));
        assert!(!allowed(&lines, 2, "panic"));
        assert!(!allowed(&lines, 1, "thread"));
    }

    #[test]
    fn panic_rule_flags_tokens_but_skips_tests_and_comments() {
        let src = "fn f() {\n\
                   let a = b.unwrap();\n\
                   // a comment about .unwrap()\n\
                   let c = d.unwrap_or_default();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { h.unwrap(); } }\n";
        let mut findings = Vec::new();
        lint_panics(Path::new("x.rs"), src, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn panic_budget_flags_markers_over_the_ceiling() {
        let src = "a(); // lint:allow(panic): one\n\
                   // lint:allow(panic): two\n\
                   b();\n\
                   // lint:allow(thread): not counted\n";
        let count = count_panic_allows(src);
        assert_eq!(count, 2);
        let mut findings = Vec::new();
        lint_panic_budget(count, 2, &mut findings);
        assert!(findings.is_empty(), "at the ceiling is fine: {findings:#?}");
        lint_panic_budget(count, 1, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0]
            .msg
            .contains("2 `lint:allow(panic)` markers exceed the ceiling of 1"));
    }

    #[test]
    fn thread_rule_flags_every_core_file() {
        let src = "use std::thread;\n// std::thread in a comment is fine\n";
        let mut findings = Vec::new();
        lint_threads(Path::new("crates/core/src/lib.rs"), src, &mut findings);
        lint_threads(Path::new("crates/core/src/engine.rs"), src, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().all(|f| f.line == 1));
    }

    #[test]
    fn obs_rule_wants_a_nearby_gate() {
        let gated = "if let Some(t) = start {\n    sink.phase(Phase::Plan, 0);\n}\n";
        let mut findings = Vec::new();
        lint_obs_gating(Path::new("x.rs"), gated, &mut findings);
        assert!(findings.is_empty());
        let bare = "fn f() {\n\n\n\n\n\n\n\n\n\n\n\n\n    sink.round(&rc);\n}\n";
        lint_obs_gating(Path::new("x.rs"), bare, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn obs_rule_accepts_the_propagate_span_idiom() {
        // The change-propagation pass opens its span with a gated start
        // timestamp and closes it at the end of the function; both ends
        // must satisfy the lint as written in propagate.rs.
        let src = "let start = if S::ENABLED { Some(Instant::now()) } else { None };\n\
                   // ... propagation wave ...\n\
                   if let Some(t) = start {\n\
                   \x20   sink.phase(Phase::Propagate, t.elapsed().as_nanos() as u64);\n\
                   }\n";
        let mut findings = Vec::new();
        lint_obs_gating(
            Path::new("crates/core/src/propagate.rs"),
            src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn feature_table_and_refs_parse() {
        let toml =
            "[package]\nname = \"x\"\n[features]\nparallel = []\ncheck = []\n\n[dependencies]\n";
        assert_eq!(declared_features(toml), vec!["parallel", "check"]);
        assert_eq!(
            feature_refs("#[cfg(all(feature = \"check\", feature = \"parallel\"))]"),
            vec!["check", "parallel"]
        );
        assert!(feature_refs("no features here").is_empty());
    }

    #[test]
    fn finding_formats_as_file_line_rule() {
        let f = Finding {
            file: PathBuf::from("crates/core/src/engine.rs"),
            line: 7,
            rule: "panic",
            msg: "boom".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/engine.rs:7: [panic] boom");
    }
}

// The binary's own `expect` above (workspace-root discovery) is fine: xtask
// is tooling, not library code, and the panic rule only walks
// `crates/core/src`.
