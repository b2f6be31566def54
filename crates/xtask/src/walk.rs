//! Repository traversal and per-file lint policy.

use crate::lints::LintPolicy;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Files allowed to contain `unsafe`: the single lifetime-erasure site of
/// the exec pool. Anything else must go through safe abstractions.
const UNSAFE_ALLOWLIST: &[&str] = &["crates/slam-exec/src/lib.rs"];

/// Files allowed to create threads: the exec pool itself and its loom
/// model (whose controlled scheduler hosts the model threads).
const THREADING_ALLOWLIST: &[&str] = &[
    "crates/slam-exec/src/lib.rs",
    "crates/slam-exec/src/model.rs",
    // the campaign server's structural threads: the accept loop and
    // per-connection handlers, and the executor pool that multiplexes
    // campaigns — all of which run *around* the exec pool, never inside
    // it (kernel parallelism still flows through `slam_exec`)
    "crates/slam-serve/src/server.rs",
    "crates/slam-serve/src/scheduler.rs",
];

/// Files allowed to panic despite living under `src/`: the loom model
/// checker is compiled only under `--cfg loom` and, like any assertion
/// framework, reports failures *by* panicking the test that drives it.
const PANIC_ALLOWLIST: &[&str] = &["crates/slam-exec/src/model.rs"];

/// Files allowed to read the raw monotonic clock: the `WallClock` shim in
/// `slam-trace` is the single sanctioned `Instant::now()` site. Everything
/// else times through `slam_trace` spans or an injected `Clock`.
const CLOCK_ALLOWLIST: &[&str] = &["crates/slam-trace/src/clock.rs"];

/// Files allowed to name raw socket types: the campaign server crate
/// (HTTP front end + blocking client). Test sources are additionally
/// allowed by [`classify`] — the integration suite drives the server
/// over real loopback sockets.
const NETWORK_ALLOWLIST_PREFIX: &str = "crates/slam-serve/";

/// Returns every Rust source file to lint, as repo-relative paths:
/// `crates/*/{src,tests}`, the top-level `tests/` and `examples/` trees
/// and `suite_lib.rs`. Output is sorted for stable diagnostics.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path();
            if dir.file_name().is_some_and(|n| n == "xtask") {
                // the lint tool itself necessarily names the patterns it
                // searches for; it is linted by its own self-tests instead
                continue;
            }
            for sub in ["src", "tests", "benches"] {
                collect_rs(&dir.join(sub), &mut out)?;
            }
        }
    }
    for sub in ["tests", "examples"] {
        collect_rs(&root.join(sub), &mut out)?;
    }
    let suite = root.join("suite_lib.rs");
    if suite.is_file() {
        out.push(suite);
    }
    let mut rel: Vec<PathBuf> = out
        .into_iter()
        .map(|p| p.strip_prefix(root).map(Path::to_path_buf).unwrap_or(p))
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True for test harness sources: integration tests, benches, examples.
/// These run off the hot path, so the pool-reduction and pool-blocking
/// lints (and the global lock-order graph) skip them.
pub fn is_test_source(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.starts_with("examples/")
}

/// Derives the lint policy for a repo-relative path.
pub fn classify(rel: &Path) -> LintPolicy {
    let p = rel.to_string_lossy().replace('\\', "/");
    let is_bin = p.contains("/src/bin/");
    let is_test_source = is_test_source(rel);
    // crate roots: crates/<name>/src/lib.rs plus the workspace-root
    // integration-test library
    let is_crate_root =
        (p.starts_with("crates/") && p.ends_with("/src/lib.rs")) || p == "suite_lib.rs";
    // the orchestrator crates own the typed failure surface (EvalError,
    // RunOutcome, SuiteError); their unit tests must assert it rather
    // than panic with prose, so `.expect(…)`/`panic!` are flagged even
    // inside `#[cfg(test)]` items there
    let is_orchestrator = !is_bin
        && (p.starts_with("crates/slambench/src/") || p.starts_with("crates/slam-dse/src/"));
    LintPolicy {
        allow_threading: THREADING_ALLOWLIST.contains(&p.as_str()),
        allow_unsafe: UNSAFE_ALLOWLIST.contains(&p.as_str()),
        // panics in binaries, benches and test harnesses abort one run,
        // not a library caller; the determinism lints still apply to
        // binaries because their outputs are the recorded experiments
        allow_panics: is_bin || is_test_source || PANIC_ALLOWLIST.contains(&p.as_str()),
        allow_hash: is_test_source,
        allow_raw_clock: CLOCK_ALLOWLIST.contains(&p.as_str()),
        allow_network: is_test_source || p.starts_with(NETWORK_ALLOWLIST_PREFIX),
        require_deny_unsafe: is_crate_root,
        strict_test_panics: is_orchestrator,
        // the exec pool's workers block by design; test sources simulate
        // stragglers on purpose
        allow_pool_blocking: is_test_source || p.starts_with("crates/slam-exec/src/"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_pool_files_get_their_allowances() {
        let exec = classify(Path::new("crates/slam-exec/src/lib.rs"));
        assert!(exec.allow_unsafe && exec.allow_threading);
        assert!(!exec.allow_panics && !exec.allow_hash);
        let model = classify(Path::new("crates/slam-exec/src/model.rs"));
        assert!(model.allow_threading && !model.allow_unsafe);
        assert!(model.allow_panics, "the model checker asserts by panicking");
    }

    #[test]
    fn library_source_is_fully_strict() {
        let p = classify(Path::new("crates/slam-math/src/solve.rs"));
        assert_eq!(p, LintPolicy::lib());
    }

    #[test]
    fn crate_roots_require_deny_unsafe() {
        assert!(classify(Path::new("crates/slam-math/src/lib.rs")).require_deny_unsafe);
        assert!(classify(Path::new("suite_lib.rs")).require_deny_unsafe);
        assert!(!classify(Path::new("crates/slam-math/src/mat.rs")).require_deny_unsafe);
    }

    #[test]
    fn bins_and_tests_may_panic_but_not_thread() {
        let b = classify(Path::new("crates/bench/src/bin/kernel_table.rs"));
        assert!(b.allow_panics && !b.allow_threading && !b.allow_hash);
        let t = classify(Path::new("crates/slam-kfusion/tests/determinism.rs"));
        assert!(t.allow_panics && t.allow_hash && !t.allow_threading);
    }

    #[test]
    fn orchestrator_sources_get_the_strict_test_panic_policy() {
        assert!(classify(Path::new("crates/slambench/src/engine.rs")).strict_test_panics);
        assert!(classify(Path::new("crates/slam-dse/src/active.rs")).strict_test_panics);
        // library crates outside the orchestration layer keep the plain
        // policy, as do integration tests and binaries
        assert!(!classify(Path::new("crates/slam-math/src/solve.rs")).strict_test_panics);
        assert!(!classify(Path::new("crates/slambench/tests/explore.rs")).strict_test_panics);
        assert!(!classify(Path::new("tests/fault_tolerance.rs")).strict_test_panics);
        assert!(!classify(Path::new("crates/bench/src/bin/headline.rs")).strict_test_panics);
    }

    #[test]
    fn only_the_serve_crate_and_tests_may_open_sockets() {
        // the whole serving crate may name socket types…
        assert!(classify(Path::new("crates/slam-serve/src/server.rs")).allow_network);
        assert!(classify(Path::new("crates/slam-serve/src/client.rs")).allow_network);
        assert!(classify(Path::new("crates/slam-serve/src/bin/slam_serve.rs")).allow_network);
        // …plus test sources
        assert!(classify(Path::new("tests/serve.rs")).allow_network);
        // everything else is socket-free
        assert!(!classify(Path::new("crates/slambench/src/engine.rs")).allow_network);
        assert!(!classify(Path::new("crates/bench/src/bin/headline.rs")).allow_network);
        assert!(!classify(Path::new("crates/slam-kfusion/src/pipeline.rs")).allow_network);
    }

    #[test]
    fn serve_structural_threads_are_allowlisted_narrowly() {
        // only the accept loop / connection handlers and the executor
        // pool may spawn; the rest of the crate stays thread-free
        assert!(classify(Path::new("crates/slam-serve/src/server.rs")).allow_threading);
        assert!(classify(Path::new("crates/slam-serve/src/scheduler.rs")).allow_threading);
        assert!(!classify(Path::new("crates/slam-serve/src/campaign.rs")).allow_threading);
        assert!(!classify(Path::new("crates/slam-serve/src/client.rs")).allow_threading);
    }

    #[test]
    fn only_the_wall_clock_shim_may_read_the_raw_clock() {
        assert!(classify(Path::new("crates/slam-trace/src/clock.rs")).allow_raw_clock);
        assert!(!classify(Path::new("crates/slam-trace/src/tracer.rs")).allow_raw_clock);
        assert!(!classify(Path::new("crates/bench/src/bin/kernel_table.rs")).allow_raw_clock);
        assert!(!classify(Path::new("crates/slam-kfusion/src/pipeline.rs")).allow_raw_clock);
        assert!(!classify(Path::new("tests/trace.rs")).allow_raw_clock);
    }
}
