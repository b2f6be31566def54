//! Fixture-based self-tests for the static-analysis passes.
//!
//! Every file under `tests/fixtures/` is linted under the policy its
//! subdirectory maps to, and its findings must match the `//~ lint-name`
//! expectation markers exactly — both directions: a known-bad snippet
//! that stops tripping its lint fails the suite just like a known-good
//! snippet that starts tripping one. The workspace-level passes get the
//! same treatment: `fixtures/locks/` drives the global lock-order graph
//! and the mini workspace trees under `fixtures/ws/` drive the
//! crate-layer pass, and every lint in the registry must fire on at
//! least one bad fixture.
//!
//! Marker syntax (trailing comment):
//! * `//~ lint-name`    — a finding of `lint-name` on this line
//! * `//~^ lint-name`   — a finding on the previous line (one line up
//!   per `^`)
//!
//! Markers are stripped from the source before linting so they can never
//! interact with the lints themselves (e.g. with waiver parsing).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use xtask::lints::{lint_file, Diagnostic, LintPolicy, SourceFile};
use xtask::walk::classify;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Policy each fixture subdirectory is linted under.
fn policy_for(subdir: &str) -> LintPolicy {
    match subdir {
        "lib" => LintPolicy::lib(),
        "exec" => classify(Path::new("crates/slam-exec/src/lib.rs")),
        "bin" => classify(Path::new("crates/bench/src/bin/fixture.rs")),
        "orchestrator" => classify(Path::new("crates/slambench/src/fixture.rs")),
        "root" => LintPolicy {
            require_deny_unsafe: true,
            ..LintPolicy::lib()
        },
        other => panic!("fixture subdir {other:?} has no policy mapping"),
    }
}

/// Parses the expectation markers out of a fixture, returning the
/// expected `(line, lint)` multiset and the marker-stripped source.
fn parse_fixture(text: &str) -> (BTreeMap<(u32, String), usize>, String) {
    let mut expected: BTreeMap<(u32, String), usize> = BTreeMap::new();
    let mut stripped = String::new();
    for (i, line) in text.lines().enumerate() {
        let kept = match line.find("//~") {
            Some(at) => {
                let marker = &line[at + 3..];
                let carets = marker.chars().take_while(|&c| c == '^').count();
                let target = (i + 1) as u32 - carets as u32;
                for name in marker[carets..].split_whitespace() {
                    *expected.entry((target, name.to_string())).or_insert(0) += 1;
                }
                &line[..at]
            }
            None => line,
        };
        stripped.push_str(kept);
        stripped.push('\n');
    }
    (expected, stripped)
}

fn findings_multiset(findings: &[Diagnostic]) -> BTreeMap<(u32, String), usize> {
    let mut out = BTreeMap::new();
    for d in findings {
        *out.entry((d.line, d.lint.clone())).or_insert(0) += 1;
    }
    out
}

#[test]
fn fixtures_match_expected_diagnostics_exactly() {
    let root = fixtures_dir();
    let mut checked = 0usize;
    for subdir in ["lib", "exec", "bin", "root", "orchestrator"] {
        let dir = root.join(subdir);
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("fixture dir {}: {e}", dir.display()))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        entries.sort();
        assert!(!entries.is_empty(), "no fixtures in {}", dir.display());
        for path in entries {
            let text = std::fs::read_to_string(&path).unwrap();
            let (expected, stripped) = parse_fixture(&text);
            let src = SourceFile::new(&path, &stripped);
            let findings = lint_file(&src, policy_for(subdir));
            let actual = findings_multiset(&findings);
            assert_eq!(
                actual,
                expected,
                "fixture {} diagnostics diverge\nfindings:\n{}",
                path.display(),
                findings
                    .iter()
                    .map(|d| format!("  {d}\n"))
                    .collect::<String>()
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "expected >= 10 fixtures, ran {checked}");
}

#[test]
fn bad_fixtures_actually_trip_every_lint() {
    // belt-and-braces: the fixture set must exercise each lint at least
    // once, so a lint that silently stops firing cannot hide behind an
    // all-good fixture set
    let root = fixtures_dir();
    let mut fired: BTreeMap<String, usize> = BTreeMap::new();
    for subdir in ["lib", "exec", "bin", "root", "orchestrator"] {
        for entry in std::fs::read_dir(root.join(subdir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|x| x != "rs") {
                continue;
            }
            let (_, stripped) = parse_fixture(&std::fs::read_to_string(&path).unwrap());
            for d in lint_file(&SourceFile::new(&path, &stripped), policy_for(subdir)) {
                *fired.entry(d.lint).or_insert(0) += 1;
            }
        }
    }
    // the workspace-level passes fire from their own fixture sets
    for path in lock_fixture_paths() {
        let (_, stripped) = parse_fixture(&std::fs::read_to_string(&path).unwrap());
        let src = SourceFile::new(&path, &stripped);
        for d in xtask::concurrency::lint_lock_order(&[&src]) {
            *fired.entry(d.lint).or_insert(0) += 1;
        }
    }
    for case in [
        "good",
        "bad_cycle",
        "bad_order",
        "bad_internal",
        "bad_orphan",
    ] {
        for d in ws_findings(case) {
            *fired.entry(d.lint).or_insert(0) += 1;
        }
    }
    for lint in xtask::registry::LINTS {
        assert!(
            fired.get(lint.name).copied().unwrap_or(0) > 0,
            "no fixture trips lint {:?} ({}) (fired: {fired:?})",
            lint.name,
            lint.id
        );
    }
}

#[test]
fn diagnostic_rendering_is_rustc_style() {
    let src = SourceFile::new(
        Path::new("crates/demo/src/lib.rs"),
        "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    );
    let findings = lint_file(&src, LintPolicy::lib());
    assert_eq!(findings.len(), 1);
    let rendered = findings[0].to_string();
    assert_eq!(
        rendered,
        "error[XT004/panic-path]: `.unwrap()` in a library path: return a `Result` \
         or use a documented-invariant `debug_assert!`\n  --> crates/demo/src/lib.rs:2"
    );
}

#[test]
fn waivers_must_name_the_right_lint() {
    // a waiver for one lint must not leak onto another lint's finding on
    // the same line
    let text =
        "pub fn f() {\n    // xtask-allow: hash-iter — reason: wrong lint named\n    panic!(\"x\");\n}\n";
    let src = SourceFile::new(Path::new("crates/demo/src/lib.rs"), text);
    let findings = lint_file(&src, LintPolicy::lib());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "panic-path");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn multi_lint_waiver_covers_both() {
    let text = "pub fn f() {\n    // xtask-allow: threading, panic-path — reason: fixture exercising multi-name waivers\n    std::thread::spawn(|| ()).join().unwrap();\n}\n";
    let src = SourceFile::new(Path::new("crates/demo/src/lib.rs"), text);
    let findings = lint_file(&src, LintPolicy::lib());
    assert!(findings.is_empty(), "{findings:?}");
}

fn lock_fixture_paths() -> Vec<PathBuf> {
    let dir = fixtures_dir().join("locks");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixtures in {}", dir.display());
    entries
}

#[test]
fn lock_order_fixtures_match_expected_diagnostics_exactly() {
    // each lock fixture is a self-contained workspace for the global
    // acquisition-order graph: its `//~ lock-order` markers must match
    // the pass output exactly, in both directions
    for path in lock_fixture_paths() {
        let (expected, stripped) = parse_fixture(&std::fs::read_to_string(&path).unwrap());
        let src = SourceFile::new(&path, &stripped);
        let findings = xtask::concurrency::lint_lock_order(&[&src]);
        assert_eq!(
            findings_multiset(&findings),
            expected,
            "lock fixture {} diagnostics diverge\nfindings:\n{}",
            path.display(),
            findings
                .iter()
                .map(|d| format!("  {d}\n"))
                .collect::<String>()
        );
    }
}

/// Runs the crate-layer passes over the mini workspace tree at
/// `fixtures/ws/<case>` with a fixture-local layer table (`a` above `b`;
/// `c` deliberately unassigned).
fn ws_findings(case: &str) -> Vec<Diagnostic> {
    let root = fixtures_dir().join("ws").join(case);
    let model = xtask::model::Model::build(&root)
        .unwrap_or_else(|e| panic!("model for {}: {e}", root.display()));
    let table: &[(&str, u32)] = match case {
        // bad_order inverts the ranks so both the manifest dep and the
        // import point *up* the DAG
        "bad_order" => &[("a", 0), ("b", 1)],
        _ => &[("a", 1), ("b", 0)],
    };
    let mut out = Vec::new();
    xtask::layers::lint_layers(&model, table, &mut out);
    xtask::layers::lint_internal(&model, xtask::layers::INTERNAL_RULES, &mut out);
    xtask::layers::lint_mod_orphans(&model, &mut out);
    out
}

fn lint_file_line(findings: &[Diagnostic]) -> Vec<(String, String, u32)> {
    let mut v: Vec<(String, String, u32)> = findings
        .iter()
        .map(|d| (d.lint.clone(), d.file.clone(), d.line))
        .collect();
    v.sort();
    v
}

#[test]
fn layer_passes_stay_silent_on_a_clean_workspace_tree() {
    let findings = ws_findings("good");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dependency_cycles_are_reported_on_both_edges() {
    // a ⇄ b: both manifest dep edges lie on the cycle; the b → a edge is
    // additionally a layer-order violation (layer 0 depending on layer 1)
    assert_eq!(
        lint_file_line(&ws_findings("bad_cycle")),
        vec![
            ("layer-cycle".into(), "crates/a/Cargo.toml".into(), 6),
            ("layer-cycle".into(), "crates/b/Cargo.toml".into(), 6),
            ("layer-order".into(), "crates/b/Cargo.toml".into(), 6),
        ]
    );
}

#[test]
fn upward_deps_imports_and_unassigned_crates_are_reported() {
    assert_eq!(
        lint_file_line(&ws_findings("bad_order")),
        vec![
            // manifest dependency a (0) → b (1)
            ("layer-order".into(), "crates/a/Cargo.toml".into(), 6),
            // `use b::Thing;` import edge
            ("layer-order".into(), "crates/a/src/lib.rs".into(), 4),
            // crate `c` has no layer assignment
            ("layer-order".into(), "crates/c/Cargo.toml".into(), 1),
        ]
    );
}

#[test]
fn internal_pool_symbols_are_flagged_outside_their_home_crates() {
    assert_eq!(
        lint_file_line(&ws_findings("bad_internal")),
        vec![
            // `PoolShared` (protocol) and `run_tasks` (submission surface)
            ("layer-internal".into(), "crates/a/src/lib.rs".into(), 4),
            ("layer-internal".into(), "crates/a/src/lib.rs".into(), 5),
        ]
    );
}

#[test]
fn unreachable_src_files_are_reported_as_orphans() {
    assert_eq!(
        lint_file_line(&ws_findings("bad_orphan")),
        vec![("mod-orphan".into(), "crates/a/src/stray.rs".into(), 1)]
    );
}

#[test]
fn lint_repo_rejects_roots_with_no_sources() {
    // a mistyped `--root` must not look like a clean workspace: every
    // tracked tree is individually optional, so an empty walk has to be
    // an error rather than a vacuous pass
    let empty = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bin");
    let err = xtask::lint_repo(&empty).expect_err("empty root must error");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("no Rust sources"), "{err}");
}

/// The IDs of the `| XTnnn | …` table rows in `text`, in order.
fn table_ids(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.strip_prefix("| XT"))
        .map(|rest| format!("XT{}", rest.split('|').next().unwrap_or("").trim()))
        .collect()
}

#[test]
fn doc_lint_tables_list_exactly_the_registered_ids() {
    // retiring or adding a rule must update the README lint table and
    // the DESIGN §12 audit table in the same change
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| std::fs::read_to_string(repo.join(name)).unwrap();
    let design = read("DESIGN.md");
    let start = design.find("\n## 12.").expect("DESIGN.md has a §12");
    let end = start
        + design[start..]
            .find("\n## 13.")
            .expect("DESIGN.md has a §13");
    let registered: Vec<String> = xtask::registry::LINTS
        .iter()
        .map(|l| l.id.to_string())
        .collect();
    assert_eq!(
        table_ids(&read("README.md")),
        registered,
        "README.md lint table"
    );
    assert_eq!(
        table_ids(&design[start..end]),
        registered,
        "DESIGN.md §12 audit table"
    );
}
