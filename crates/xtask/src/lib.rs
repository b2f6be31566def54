//! Correctness tooling for the `slambench-rs` workspace.
//!
//! The binary front-end (`cargo xtask lint`) runs a multi-pass static
//! analysis over the repository and enforces the project's determinism
//! and safety invariants at the source level:
//!
//! * per-file invariant lints ([`lints`], IDs `XT0xx`);
//! * the crate-layer pass over the [`model`] workspace model
//!   ([`layers`], `XT1xx`);
//! * the determinism pass ([`determinism`], `XT2xx`);
//! * the concurrency pass ([`concurrency`], `XT3xx`).
//!
//! Findings carry stable IDs from the [`registry`]; any finding fails
//! the run. See `DESIGN.md` § Static analysis for the rationale. The
//! crate is dependency-free by design so it builds in offline and
//! minimal environments before the main workspace resolves.

#![deny(unsafe_code)]

pub mod concurrency;
pub mod determinism;
pub mod layers;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod registry;
pub mod walk;

use lints::Diagnostic;
use std::path::Path;

/// Runs every pass over the repository at `root`, returning all findings
/// stable-sorted by (path, line, lint ID).
pub fn lint_repo(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let model = model::Model::build(root)?;
    // an empty walk means `root` is not the workspace (every tracked tree
    // is optional individually, so a bogus path would otherwise report a
    // clean pass) — fail loudly instead of vacuously succeeding
    if model.files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no Rust sources found under `{}`", root.display()),
        ));
    }
    let mut out = Vec::new();
    // per-file passes (invariants, entropy-source, pool-blocking)
    for f in &model.files {
        out.extend(lints::lint_file(&f.src, walk::classify(&f.rel)));
    }
    // workspace passes: crate layers and the global lock-order graph
    layers::lint_layers(&model, layers::LAYERS, &mut out);
    layers::lint_internal(&model, layers::INTERNAL_RULES, &mut out);
    layers::lint_mod_orphans(&model, &mut out);
    let non_test: Vec<&lints::SourceFile> = model
        .files
        .iter()
        .filter(|f| !walk::is_test_source(&f.rel))
        .map(|f| &f.src)
        .collect();
    out.extend(concurrency::lint_lock_order(&non_test));
    out.sort_by(|a, b| (&a.file, a.line, a.id()).cmp(&(&b.file, b.line, b.id())));
    Ok(out)
}
