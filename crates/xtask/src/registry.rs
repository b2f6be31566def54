//! The lint registry: one entry per lint, with a stable diagnostic ID.
//!
//! IDs are grouped by pass family and never reused or renumbered (the
//! retired XT005 `engine-only`, XT008 `algorithm-boundary`, XT010
//! `volume-boundary` and XT201 `float-reduce` stay unassigned):
//!
//! * `XT0xx` — per-file invariant lints (the original regex-level checks)
//! * `XT1xx` — workspace-model / crate-layer pass
//! * `XT2xx` — determinism pass
//! * `XT3xx` — concurrency pass
//!
//! The registry is the single source of truth for `--list`, `--explain`
//! and waiver-name validation.

/// Metadata for one registered lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable diagnostic ID (`XT001`, …). Never renumbered.
    pub id: &'static str,
    /// Kebab-case lint name, used in diagnostics and waivers.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// Long-form rationale for `--explain`.
    pub explain: &'static str,
}

/// Every registered lint, in ID order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "XT001",
        name: "threading",
        summary: "no ad-hoc threading outside the shared exec pool",
        explain: "All parallelism must go through `slam_exec`: the pool owns \
                  thread budgets, deterministic size-only banding and panic routing. \
                  `std::thread::spawn`, `thread::Builder`, `rayon` and `crossbeam` \
                  create threads the budget cannot see, so nested parallel sections \
                  oversubscribe the machine and perf measurements stop composing. \
                  Allowlisted: the pool itself and its loom model.",
    },
    LintInfo {
        id: "XT002",
        name: "unsafe-code",
        summary: "no `unsafe` outside the exec-pool erasure site; crate roots deny it",
        explain: "The workspace invariant is a single machine-checked `unsafe` block: \
                  the lifetime-erasure site in `slam-exec/src/lib.rs`, whose safety \
                  argument is the pool's structured join. Every crate root must also \
                  carry `#![deny(unsafe_code)]` so the compiler enforces the same rule \
                  even when this tool is not run.",
    },
    LintInfo {
        id: "XT003",
        name: "hash-iter",
        summary: "no HashMap/HashSet in library code (nondeterministic iteration)",
        explain: "`HashMap`/`HashSet` iteration order is randomised per process. Any \
                  float accumulation, output ordering or work scheduling fed from one \
                  silently breaks run-to-run bit-identity. Use `BTreeMap`/`BTreeSet`, \
                  or waive with a reason when iteration order provably never escapes.",
    },
    LintInfo {
        id: "XT004",
        name: "panic-path",
        summary: "no unwrap/expect/panic! in library paths; typed errors in orchestrator tests",
        explain: "Library hot paths return `Result` or use documented-invariant \
                  `debug_assert!`; panics in a kernel tear down the whole evaluation \
                  batch. Binaries, benches and tests are exempt. The orchestrator \
                  crates (`slambench`, `slam-dse`) own the typed failure surface, so \
                  their `#[cfg(test)]` items are additionally denied `.expect(…)` and \
                  the `panic!` family — tests there assert typed outcomes, with bare \
                  `.unwrap()` as the sanctioned mechanical assertion.",
    },
    LintInfo {
        id: "XT006",
        name: "trace-clock",
        summary: "no raw Instant::now() outside slam_trace::clock",
        explain: "Raw clock reads cannot be mocked, aggregated or exported. All timing \
                  goes through `slam_trace` spans or an injected `Clock` handle so \
                  every measurement lands in one profile and deterministic tests can \
                  substitute a `MockClock`. The single sanctioned `Instant::now()` \
                  site is the `WallClock` shim in `slam-trace/src/clock.rs`.",
    },
    LintInfo {
        id: "XT007",
        name: "waiver",
        summary: "xtask-allow waivers must name a known lint and carry a `reason:` clause",
        explain: "A waiver that names no known lint, or has no `reason:` clause, is \
                  dead weight that silently stops protecting the line it sits on. The \
                  grammar is `// xtask-allow: lint-a, lint-b — reason: <justification>` \
                  on the offending line or the line above it.",
    },
    LintInfo {
        id: "XT009",
        name: "network-boundary",
        summary: "no raw sockets outside the slam-serve crate and test sources",
        explain: "The campaign server owns the workspace's network surface: every \
                  `TcpListener` / `TcpStream` / `UdpSocket` lives in \
                  `crates/slam-serve/` (the HTTP front end and its blocking client) \
                  or a test source. A socket \
                  opened anywhere else is an untracked side channel: it bypasses the \
                  campaign API's validation boundary, its latency never lands in the \
                  trace profile, and evaluations stop being replayable from the \
                  recorded requests.",
    },
    LintInfo {
        id: "XT101",
        name: "layer-cycle",
        summary: "crate dependency graph must be acyclic",
        explain: "The workspace model builds a crate dependency graph from every \
                  `Cargo.toml` plus observed imports. A cycle means the layer \
                  architecture (`slam-math`/`slam-trace` → kernels → `slambench` → \
                  orchestrators/`bench`) has collapsed; cargo would also reject it for \
                  normal deps, but the model checks dev-deps and import edges too.",
    },
    LintInfo {
        id: "XT102",
        name: "layer-order",
        summary: "crate deps and imports must point strictly down the layer DAG",
        explain: "Each workspace crate is assigned a layer: `slam-math`/`slam-trace` \
                  (0) → `slam-scene`/`slam-metrics`/`slam-dse` (1) → `slam-kfusion` \
                  (2) → `slam-power` (3) → `slambench` (4) → `slam-serve` (5) → \
                  `bench`/root suite (6). \
                  A `Cargo.toml` dependency or a `use`/qualified-path import of a \
                  same-or-higher layer from another crate is a layering violation: it \
                  lets orchestration details leak into kernels and makes the layers \
                  unbuildable in isolation. A workspace crate missing from the layer \
                  table is also reported — add it to `LAYERS` in `xtask` when a crate \
                  is introduced.",
    },
    LintInfo {
        id: "XT103",
        name: "layer-internal",
        summary: "pool protocol/submission symbols are internal to their home crates",
        explain: "The exec pool's protocol types (`TaskGroup`, `PoolShared`, `Job`, \
                  `worker_loop`, `run_tasks_on`, `erase_lifetime`) may only be named \
                  inside `crates/slam-exec/`; the submission surface (`run_tasks`, \
                  `run_bands`) additionally inside the sanctioned submitters: \
                  the kernels in `crates/slam-kfusion/`, the renderer in \
                  `crates/slam-scene/src/render.rs` and the batch scheduler in \
                  `crates/slambench/src/engine.rs`. Everything else drives parallelism \
                  through the kernels, the renderer or the engine, so the pool's \
                  invariants stay local.",
    },
    LintInfo {
        id: "XT104",
        name: "mod-orphan",
        summary: "every src/ file must be reachable via `mod` declarations",
        explain: "Cargo silently ignores a `.rs` file under `src/` that no `mod` \
                  declaration reaches — the code (and its tests) simply stop being \
                  compiled. The workspace model resolves `mod name;` declarations from \
                  each crate root (`lib.rs`, `main.rs`, `src/bin/*.rs`) and reports \
                  unreachable files.",
    },
    LintInfo {
        id: "XT202",
        name: "entropy-source",
        summary: "no ambient time or randomness; inject a Clock or a seeded RNG",
        explain: "`thread_rng`, `from_entropy`, `OsRng`, `rand::random` and \
                  `SystemTime` smuggle ambient entropy into an evaluation, so two runs \
                  of the same configuration stop being comparable. All randomness is \
                  seeded and all time is injected (`Clock`, `MockClock`) \
                  so every experiment in the paper reproduction is replayable.",
    },
    LintInfo {
        id: "XT301",
        name: "lock-order",
        summary: "lock acquisition order must be globally consistent (no inversions)",
        explain: "The concurrency pass extracts every `Mutex`/`RwLock` struct field, \
                  tracks guard lifetimes (a `let`-bound guard is held to the end of \
                  its block unless `drop`ped), and builds a workspace-wide \
                  lock-acquisition-order graph. An edge A→B means A is held while B \
                  is acquired; any cycle in the graph is a potential deadlock and \
                  every edge on it is reported. Known limit: acquisitions behind \
                  helper methods on `self` (e.g. a `fn lock(&self)` wrapper) are not \
                  attributed to a field; keep helpers single-lock.",
    },
    LintInfo {
        id: "XT302",
        name: "pool-blocking",
        summary: "no blocking calls (file IO, sleep, recv) inside pool tasks",
        explain: "A closure submitted to the worker pool (as an argument to \
                  `run_tasks` / `run_bands`, or via a `Box::new(…) as Task` cast) must \
                  not block: `sleep`, un-timed-out `recv`, file IO (`fs::…`, `File`, \
                  `read_to_string`, …) and socket work (`TcpListener` / `TcpStream` / \
                  `UdpSocket` construction, `.accept()`) park a pool worker, \
                  serialising the batch behind IO latency and deadlocking under \
                  nested submissions. Do IO outside the parallel section (the engine \
                  persists cache entries after the batch; the campaign server talks \
                  HTTP on its own connection threads) or through a dedicated \
                  non-pool path. Test sources are exempt: simulated stragglers \
                  legitimately sleep.",
    },
];

/// Looks a lint up by its kebab-case name.
pub fn by_name(name: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.name == name)
}

/// Looks a lint up by stable ID (`XT202`) or name (`entropy-source`).
pub fn by_id_or_name(key: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == key || l.name == key)
}

/// The stable ID for a lint name (`"XT000"` for unregistered names, which
/// only ever happens on a registry/lint mismatch caught by the self-tests).
pub fn id_for(name: &str) -> &'static str {
    by_name(name).map_or("XT000", |l| l.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_names_are_unique_and_well_formed() {
        for (i, a) in LINTS.iter().enumerate() {
            assert!(a.id.starts_with("XT") && a.id.len() == 5, "{}", a.id);
            assert!(!a.summary.is_empty() && !a.explain.is_empty());
            assert!(
                a.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{}",
                a.name
            );
            for b in &LINTS[i + 1..] {
                assert_ne!(a.id, b.id);
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn registry_is_sorted_by_id() {
        let ids: Vec<_> = LINTS.iter().map(|l| l.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn lookup_by_id_and_name_agree() {
        assert_eq!(
            by_id_or_name("XT202").map(|l| l.name),
            Some("entropy-source")
        );
        assert_eq!(by_id_or_name("entropy-source").map(|l| l.id), Some("XT202"));
        assert!(
            by_id_or_name("XT201").is_none(),
            "retired IDs stay unassigned"
        );
        assert!(by_id_or_name("XT999").is_none());
        assert_eq!(id_for("lock-order"), "XT301");
        assert_eq!(id_for("nonesuch"), "XT000");
    }
}
