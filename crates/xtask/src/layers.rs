//! The crate-layer pass: `layer-cycle` (XT101), `layer-order` (XT102),
//! `layer-internal` (XT103) and `mod-orphan` (XT104).
//!
//! The workspace is a strict layer DAG:
//!
//! ```text
//! 0  slam-math, slam-trace          (leaf utilities)
//! 1  slam-exec                      (the shared worker pool)
//! 2  slam-scene, slam-metrics, slam-dse
//! 3  slam-kfusion                   (kernels)
//! 4  slam-power
//! 5  slambench                      (engine / orchestration)
//! 6  slam-serve                     (campaign server over the engine)
//! 7  bench, slambench-suite         (binaries, integration tests)
//! ```
//!
//! Every `Cargo.toml` dependency and every observed import must point
//! strictly *down* this table (same-crate imports from a crate's own
//! `tests/` are fine). On top of the graph checks, the pass enforces
//! internal-module boundaries — the worker pool's protocol stays inside
//! `slam-exec` and its submission symbols inside the files that own
//! parallel work — and flags `src/` files no `mod` declaration reaches
//! (cargo silently stops compiling those).

use crate::lints::Diagnostic;
use crate::model::{resolve_mod, Model};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The enforced layer assignment. New workspace crates must be added
/// here (the pass reports any that are missing).
pub const LAYERS: &[(&str, u32)] = &[
    ("slam-math", 0),
    ("slam-trace", 0),
    ("slam-exec", 1),
    ("slam-scene", 2),
    ("slam-metrics", 2),
    ("slam-dse", 2),
    ("slam-kfusion", 3),
    ("slam-power", 4),
    ("slambench", 5),
    ("slam-serve", 6),
    ("bench", 7),
    ("slambench-suite", 7),
];

/// One internal-module rule: `symbols` may only be named in files whose
/// repo-relative path starts with one of `allowed`.
pub struct InternalRule {
    pub symbols: &'static [&'static str],
    pub allowed: &'static [&'static str],
    pub what: &'static str,
}

/// The enforced internal-module boundaries.
pub const INTERNAL_RULES: &[InternalRule] = &[
    InternalRule {
        symbols: &[
            "TaskGroup",
            "PoolShared",
            "WorkerPool",
            "Job",
            "worker_loop",
            "run_tasks_on",
            "erase_lifetime",
        ],
        allowed: &["crates/slam-exec/"],
        what: "exec pool protocol",
    },
    InternalRule {
        symbols: &["run_tasks", "run_bands"],
        allowed: &[
            "crates/slam-exec/",
            "crates/slam-kfusion/",
            "crates/slam-scene/src/render.rs",
            "crates/slambench/src/engine.rs",
        ],
        what: "exec pool submission surface",
    },
];

/// Runs all four layer-pass checks over the model with the given layer
/// table (the production table is [`LAYERS`]; fixtures pass their own).
pub fn lint_layers(model: &Model, table: &[(&str, u32)], out: &mut Vec<Diagnostic>) {
    let rank: BTreeMap<&str, u32> = table.iter().copied().collect();
    // unknown crates
    for c in &model.crates {
        if !rank.contains_key(c.name.as_str()) {
            out.push(Diagnostic {
                lint: "layer-order".into(),
                file: c.manifest.clone(),
                line: 1,
                message: format!(
                    "workspace crate `{}` has no layer assignment; add it to `LAYERS` \
                     in `crates/xtask/src/layers.rs` so the dependency DAG stays enforced",
                    c.name
                ),
            });
        }
    }
    // manifest dependency edges
    let workspace: BTreeSet<&str> = model.crates.iter().map(|c| c.name.as_str()).collect();
    for c in &model.crates {
        let Some(&cr) = rank.get(c.name.as_str()) else {
            continue;
        };
        for d in &c.deps {
            if !workspace.contains(d.name.as_str()) {
                continue;
            }
            let Some(&dr) = rank.get(d.name.as_str()) else {
                continue;
            };
            if dr >= cr {
                out.push(Diagnostic {
                    lint: "layer-order".into(),
                    file: c.manifest.clone(),
                    line: d.line,
                    message: format!(
                        "`{}` (layer {cr}) must not depend on `{}` (layer {dr}): \
                         dependencies point strictly down the layer DAG \
                         ({})",
                        c.name,
                        d.name,
                        layer_summary(table),
                    ),
                });
            }
        }
    }
    // import edges
    for f in &model.files {
        let Some(&fr) = rank.get(f.crate_name.as_str()) else {
            continue;
        };
        for (target, line) in &f.imports {
            if *target == f.crate_name {
                continue; // a crate's own tests import it by name
            }
            let Some(&tr) = rank.get(target.as_str()) else {
                continue;
            };
            if tr >= fr && !f.src.waived(*line, "layer-order") {
                out.push(Diagnostic {
                    lint: "layer-order".into(),
                    file: f.src.path.clone(),
                    line: *line,
                    message: format!(
                        "`{}` (layer {fr}) imports `{}` (layer {tr}): imports point \
                         strictly down the layer DAG — route through a lower layer \
                         or move the shared code down",
                        f.crate_name, target
                    ),
                });
            }
        }
    }
    lint_cycles(model, out);
}

fn layer_summary(table: &[(&str, u32)]) -> String {
    let mut by_rank: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for &(name, r) in table {
        by_rank.entry(r).or_default().push(name);
    }
    by_rank
        .values()
        .map(|names| names.join("/"))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// `layer-cycle`: reports every manifest dependency edge that lies on a
/// cycle of the workspace crate graph.
fn lint_cycles(model: &Model, out: &mut Vec<Diagnostic>) {
    let workspace: BTreeSet<&str> = model.crates.iter().map(|c| c.name.as_str()).collect();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for c in &model.crates {
        for d in &c.deps {
            if workspace.contains(d.name.as_str()) {
                adj.entry(c.name.as_str()).or_default().insert(&d.name);
            }
        }
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if visited.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for c in &model.crates {
        for d in &c.deps {
            if workspace.contains(d.name.as_str()) && reaches(&d.name, &c.name) {
                out.push(Diagnostic {
                    lint: "layer-cycle".into(),
                    file: c.manifest.clone(),
                    line: d.line,
                    message: format!(
                        "dependency `{}` → `{}` closes a cycle in the workspace crate \
                         graph: the layer architecture requires a DAG",
                        c.name, d.name
                    ),
                });
            }
        }
    }
}

/// `layer-internal`: internal symbols named outside their home crates.
pub fn lint_internal(model: &Model, rules: &[InternalRule], out: &mut Vec<Diagnostic>) {
    for f in &model.files {
        let path = &f.src.path;
        for rule in rules {
            if rule.allowed.iter().any(|a| path.starts_with(a)) {
                continue;
            }
            for t in &f.src.tokens {
                let Some(ident) = t.ident() else { continue };
                if !rule.symbols.contains(&ident) || f.src.waived(t.line, "layer-internal") {
                    continue;
                }
                out.push(Diagnostic {
                    lint: "layer-internal".into(),
                    file: path.clone(),
                    line: t.line,
                    message: format!(
                        "`{ident}` is {} — internal to {}; drive parallelism through \
                         the kernels or `slambench::engine` instead",
                        rule.what,
                        rule.allowed.join(", "),
                    ),
                });
            }
        }
    }
}

/// `mod-orphan`: `src/` files not reachable from any crate root via
/// `mod` declarations. Cargo ignores such files silently.
pub fn lint_mod_orphans(model: &Model, out: &mut Vec<Diagnostic>) {
    for c in &model.crates {
        if c.prefix.is_empty() {
            continue; // the root package's lib is named explicitly in Cargo.toml
        }
        let src_prefix = format!("{}src/", c.prefix);
        let in_src: Vec<usize> = model
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.src.path.starts_with(&src_prefix))
            .map(|(i, _)| i)
            .collect();
        let by_rel: BTreeMap<&PathBuf, usize> =
            in_src.iter().map(|&i| (&model.files[i].rel, i)).collect();
        let mut reached: BTreeSet<usize> = in_src
            .iter()
            .copied()
            .filter(|&i| {
                let p = &model.files[i].src.path;
                p == &format!("{src_prefix}lib.rs")
                    || p == &format!("{src_prefix}main.rs")
                    || p.starts_with(&format!("{src_prefix}bin/"))
            })
            .collect();
        let mut queue: Vec<usize> = reached.iter().copied().collect();
        while let Some(i) = queue.pop() {
            let file = &model.files[i];
            for (name, _) in &file.mod_decls {
                for cand in resolve_mod(&file.rel, name) {
                    if let Some(&j) = by_rel.get(&cand) {
                        if reached.insert(j) {
                            queue.push(j);
                        }
                    }
                }
            }
        }
        for &i in &in_src {
            if reached.contains(&i) {
                continue;
            }
            let f = &model.files[i];
            if f.src.waived(1, "mod-orphan") {
                continue;
            }
            out.push(Diagnostic {
                lint: "mod-orphan".into(),
                file: f.src.path.clone(),
                line: 1,
                message: format!(
                    "no `mod` declaration reaches this file from `{}`'s crate roots: \
                     cargo is silently not compiling it — declare it or delete it",
                    c.name
                ),
            });
        }
    }
}
