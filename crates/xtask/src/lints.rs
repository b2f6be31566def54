//! The invariant lints.
//!
//! Each lint enforces one project-wide determinism or safety invariant
//! (see the "Correctness tooling" section of `DESIGN.md`):
//!
//! * **`threading`** — no ad-hoc threading (`std::thread::spawn`,
//!   `thread::Builder`, `rayon`, `crossbeam`) outside the shared exec
//!   pool. Every parallel kernel must go through `slam_exec`, or
//!   thread budgets and deterministic banding silently stop composing.
//! * **`unsafe-code`** — no `unsafe` outside the explicit allowlist (the
//!   single lifetime-erasure site in the exec pool), and every crate root
//!   must carry `#![deny(unsafe_code)]` so the compiler enforces the same
//!   invariant belt-and-braces.
//! * **`hash-iter`** — no `HashMap`/`HashSet` in library code: their
//!   iteration order is randomised per process, so any float accumulation
//!   or output ordering fed from one is a nondeterminism hazard. Use
//!   `BTreeMap`/`BTreeSet` (or an explicit waiver when order provably
//!   never escapes).
//! * **`panic-path`** — no `unwrap()`/`expect()`/`panic!`-family calls in
//!   library hot paths; return `Result` or use a documented-invariant
//!   `debug_assert!`. Binaries, tests and `#[cfg(test)]` modules are
//!   exempt; `assert!`-style *precondition* checks with messages are the
//!   sanctioned entry-point contract style and are not flagged. In the
//!   orchestrator crates (`slambench`, `slam-dse`) a *strict test* policy
//!   additionally flags `.expect(…)` and the `panic!` family inside
//!   `#[cfg(test)]` items: those crates own the typed failure surface
//!   (`EvalError`, `RunOutcome`, `SuiteError`), so their tests assert
//!   typed outcomes rather than burying failure semantics in prose panic
//!   messages. Bare `.unwrap()`/`.unwrap_err()` stay exempt as the
//!   mechanical "must be Ok/Some" assertion.
//! * **`network-boundary`** — no raw socket types (`TcpListener`,
//!   `TcpStream`, `UdpSocket`) outside `crates/slam-serve/` and test
//!   sources. The campaign server owns the
//!   network surface; a socket anywhere else bypasses its validation
//!   boundary and never lands in the trace profile.
//! * **`trace-clock`** — no direct `Instant::now()` outside
//!   `slam_trace::clock`. Raw clock reads scattered through the code
//!   cannot be mocked, aggregated, or exported; all timing flows
//!   through `slam_trace` spans (or a `Clock` handle), so every
//!   measurement lands in the same profile and deterministic tests can
//!   inject a `MockClock`.
//!
//! A finding can be waived with an inline comment on the same or the
//! preceding line:
//!
//! ```text
//! // xtask-allow: panic-path — reason: Index contract requires a panic here
//! ```
//!
//! The `reason:` clause is mandatory; a bare waiver is itself a finding.
//! The determinism and concurrency passes live in
//! [`crate::determinism`] and [`crate::concurrency`]; the crate-layer
//! pass in [`crate::layers`] over the [`crate::model`] workspace model.

use crate::lexer::{cfg_test_spans, lex, Token};
use crate::registry;
use std::fmt;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired (`threading`, `unsafe-code`, `hash-iter`,
    /// `panic-path`, or `waiver` for malformed waivers).
    pub lint: String,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The stable registry ID of the lint that fired (`XT004`, …).
    pub fn id(&self) -> &'static str {
        registry::id_for(&self.lint)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}/{}]: {}", self.id(), self.lint, self.message)?;
        write!(f, "  --> {}:{}", self.file, self.line)
    }
}

/// Per-file lint policy, derived from the file's path by
/// [`crate::walk::classify`] (or set directly by the fixture self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintPolicy {
    /// File may spawn threads (the exec pool itself and its loom model).
    pub allow_threading: bool,
    /// File may contain `unsafe` (the single exec-pool erasure site).
    pub allow_unsafe: bool,
    /// Panic-family calls are allowed (binaries, benches, test sources).
    pub allow_panics: bool,
    /// `HashMap`/`HashSet` are allowed (binaries and test sources, where
    /// nondeterministic iteration cannot leak into library outputs).
    pub allow_hash: bool,
    /// File may read the raw monotonic clock (`Instant::now()`) — only
    /// `slam_trace::clock`, where `WallClock` wraps it.
    pub allow_raw_clock: bool,
    /// File may name raw socket types (`TcpListener`, `TcpStream`,
    /// `UdpSocket`) — the campaign server crate and test sources.
    pub allow_network: bool,
    /// File is a crate root and must carry `#![deny(unsafe_code)]`.
    pub require_deny_unsafe: bool,
    /// `#[cfg(test)]` items are held to the orchestrator test policy:
    /// `.expect(…)` and the `panic!` family are flagged even inside
    /// tests (`.unwrap()`/`.unwrap_err()` stay exempt).
    pub strict_test_panics: bool,
    /// File may block inside pool-task closures: the exec pool internals
    /// and test sources (simulated stragglers legitimately sleep).
    pub allow_pool_blocking: bool,
}

impl LintPolicy {
    /// The strictest policy: what applies to library source files.
    pub fn lib() -> LintPolicy {
        LintPolicy {
            allow_threading: false,
            allow_unsafe: false,
            allow_panics: false,
            allow_hash: false,
            allow_raw_clock: false,
            allow_network: false,
            require_deny_unsafe: false,
            strict_test_panics: false,
            allow_pool_blocking: false,
        }
    }
}

/// A lexed source file ready for linting.
pub struct SourceFile {
    /// Repo-relative path (used in diagnostics).
    pub path: String,
    /// Raw source lines (for waiver comments).
    pub(crate) lines: Vec<String>,
    /// Token stream with comments and strings stripped.
    pub(crate) tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    test_spans: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `text` as the contents of `path`.
    pub fn new(path: &Path, text: &str) -> SourceFile {
        let tokens = lex(text);
        let test_spans = cfg_test_spans(&tokens);
        SourceFile {
            path: path.to_string_lossy().replace('\\', "/"),
            lines: text.lines().map(str::to_string).collect(),
            tokens,
            test_spans,
        }
    }

    pub(crate) fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True if `line` (or the line above it) carries a well-formed
    /// `xtask-allow:` waiver naming `lint`.
    pub(crate) fn waived(&self, line: u32, lint: &str) -> bool {
        let idx = line as usize; // 1-based
        [idx.checked_sub(1), idx.checked_sub(2)]
            .into_iter()
            .flatten()
            .filter_map(|i| self.lines.get(i))
            .filter_map(|l| parse_waiver(l))
            .any(|(names, reason)| {
                reason.is_some_and(|r| !r.is_empty()) && names.iter().any(|n| n == lint)
            })
    }
}

/// Parses an `// xtask-allow: lint-a, lint-b — reason: text` comment.
/// Returns the waived lint names and the justification after the
/// mandatory `reason:` marker (`None` when the marker is absent).
fn parse_waiver(line: &str) -> Option<(Vec<String>, Option<String>)> {
    let at = line.find("xtask-allow:")?;
    let rest = &line[at + "xtask-allow:".len()..];
    // lint names: leading comma-separated kebab-case words; everything
    // after them (conventionally set off with an em dash) must carry a
    // literal `reason:` clause with the justification
    let mut names = Vec::new();
    let mut expecting_name = true;
    for part in rest.split_whitespace() {
        let trimmed = part.trim_matches(',');
        if expecting_name && registry::by_name(trimmed).is_some() {
            names.push(trimmed.to_string());
            // a trailing comma announces another lint name
            expecting_name = part.ends_with(',');
        } else {
            break;
        }
    }
    let reason = rest
        .find("reason:")
        .map(|r| rest[r + "reason:".len()..].trim().to_string());
    Some((names, reason))
}

/// Runs every lint over one file under the given policy.
pub fn lint_file(src: &SourceFile, policy: LintPolicy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_waiver_hygiene(src, &mut out);
    if !policy.allow_threading {
        lint_threading(src, &mut out);
    }
    if !policy.allow_unsafe {
        lint_unsafe(src, &mut out);
    }
    if policy.require_deny_unsafe {
        lint_deny_unsafe_attr(src, &mut out);
    }
    if !policy.allow_hash {
        lint_hash_iter(src, &mut out);
    }
    if !policy.allow_panics {
        lint_panic_path(src, policy.strict_test_panics, &mut out);
    }
    if !policy.allow_raw_clock {
        lint_trace_clock(src, &mut out);
    }
    if !policy.allow_network {
        lint_network_boundary(src, &mut out);
    }
    crate::determinism::lint_entropy_source(src, &mut out);
    if !policy.allow_pool_blocking {
        crate::concurrency::lint_pool_blocking(src, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.id()).cmp(&(b.line, b.id())));
    out
}

/// Reports malformed waivers: an `xtask-allow:` comment with no known
/// lint name or no `reason:` clause is dead weight that would silently
/// stop protecting the line it sits on.
fn lint_waiver_hygiene(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, line) in src.lines.iter().enumerate() {
        if let Some((names, reason)) = parse_waiver(line) {
            let message = if names.is_empty() {
                let known: Vec<&str> = registry::LINTS.iter().map(|l| l.name).collect();
                format!(
                    "xtask-allow waiver names no known lint (expected one of: {})",
                    known.join(", ")
                )
            } else {
                match reason {
                    Some(r) if !r.is_empty() => continue,
                    Some(_) => "xtask-allow waiver has an empty `reason:` clause; \
                                justify the exemption"
                        .into(),
                    None => "xtask-allow waiver is missing its `reason:` clause \
                             (grammar: `xtask-allow: lint-name — reason: <justification>`)"
                        .into(),
                }
            };
            out.push(Diagnostic {
                lint: "waiver".into(),
                file: src.path.clone(),
                line: (i + 1) as u32,
                message,
            });
        }
    }
}

/// `threading`: flags `thread::spawn`, `thread::Builder`, `rayon` and
/// `crossbeam` outside the exec pool. `#[cfg(test)]` items are exempt.
fn lint_threading(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        let hit = match ident {
            "rayon" | "crossbeam" => Some(format!(
                "ad-hoc threading via `{ident}`: all parallelism must go through \
                 `slam_exec` so thread budgets and deterministic banding compose"
            )),
            "thread" => {
                // `thread :: spawn` or `thread :: Builder`
                let path_target = toks
                    .get(i + 1)
                    .zip(toks.get(i + 2))
                    .filter(|(a, b)| a.is_punct(':') && b.is_punct(':'))
                    .and_then(|_| toks.get(i + 3))
                    .and_then(Token::ident);
                match path_target {
                    Some(name @ ("spawn" | "Builder")) => Some(format!(
                        "ad-hoc threading via `thread::{name}`: all parallelism must go \
                         through `slam_exec` so thread budgets and \
                         deterministic banding compose"
                    )),
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(message) = hit {
            if src.in_test_span(t.line) || src.waived(t.line, "threading") {
                continue;
            }
            out.push(Diagnostic {
                lint: "threading".into(),
                file: src.path.clone(),
                line: t.line,
                message,
            });
        }
    }
}

/// `unsafe-code`: flags any `unsafe` token outside the allowlist. No
/// `#[cfg(test)]` exemption — tests have no business being unsafe either.
fn lint_unsafe(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &src.tokens {
        if t.is_ident("unsafe") && !src.waived(t.line, "unsafe-code") {
            out.push(Diagnostic {
                lint: "unsafe-code".into(),
                file: src.path.clone(),
                line: t.line,
                message: "`unsafe` outside the exec-pool allowlist: the workspace invariant \
                          is a single machine-checked erasure site in `slam_exec`"
                    .into(),
            });
        }
    }
}

/// `unsafe-code` (crate roots): requires a literal `#![deny(unsafe_code)]`
/// so the compiler enforces the allowlist even if this tool is not run.
fn lint_deny_unsafe_attr(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    let found = toks.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("deny")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
    });
    if !found {
        out.push(Diagnostic {
            lint: "unsafe-code".into(),
            file: src.path.clone(),
            line: 1,
            message: "crate root is missing `#![deny(unsafe_code)]`: every crate must \
                      deny unsafe at the compiler level, with the single scoped allow \
                      living in `slam-exec/src/lib.rs`"
                .into(),
        });
    }
}

/// `hash-iter`: flags `HashMap`/`HashSet` in library code. Iteration
/// order is randomised per process; feeding it into float accumulation or
/// output ordering silently breaks run-to-run determinism.
fn lint_hash_iter(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &src.tokens {
        let Some(ident) = t.ident() else { continue };
        if ident != "HashMap" && ident != "HashSet" {
            continue;
        }
        if src.in_test_span(t.line) || src.waived(t.line, "hash-iter") {
            continue;
        }
        out.push(Diagnostic {
            lint: "hash-iter".into(),
            file: src.path.clone(),
            line: t.line,
            message: format!(
                "`{ident}` in library code: its iteration order is nondeterministic; \
                 use `BTree{}` (or waive with a reason if iteration order provably \
                 never escapes)",
                &ident[4..]
            ),
        });
    }
}

/// `trace-clock`: flags `Instant::now()` outside `slam_trace::clock`. No
/// `#[cfg(test)]` exemption — tests time things through a tracer (or an
/// injected `MockClock`) too, or carry an explicit waiver.
fn lint_trace_clock(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("Instant") {
            continue;
        }
        // `Instant :: now` — mentions of the type alone (say in a
        // signature re-exporting `WallClock`) are not clock reads
        let is_now_call = toks
            .get(i + 1)
            .zip(toks.get(i + 2))
            .filter(|(a, b)| a.is_punct(':') && b.is_punct(':'))
            .and_then(|_| toks.get(i + 3))
            .is_some_and(|n| n.is_ident("now"));
        if !is_now_call || src.waived(t.line, "trace-clock") {
            continue;
        }
        out.push(Diagnostic {
            lint: "trace-clock".into(),
            file: src.path.clone(),
            line: t.line,
            message: "raw `Instant::now()` outside `slam_trace::clock`: time through \
                      `slam_trace` spans or a `Clock` handle so measurements are \
                      mockable and land in one profile"
                .into(),
        });
    }
}

/// `network-boundary`: flags the raw socket types outside the serving
/// crate. No `#[cfg(test)]` exemption — a unit test opening sockets in a
/// non-network crate is the same untracked side channel; loopback tests
/// live in test sources (which the walk allowlists) or in `slam-serve`.
fn lint_network_boundary(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &src.tokens {
        let Some(ident) = t.ident() else { continue };
        if !matches!(ident, "TcpListener" | "TcpStream" | "UdpSocket") {
            continue;
        }
        if src.waived(t.line, "network-boundary") {
            continue;
        }
        out.push(Diagnostic {
            lint: "network-boundary".into(),
            file: src.path.clone(),
            line: t.line,
            message: format!(
                "raw `{ident}` outside `slam-serve`: the campaign server owns the \
                 network surface — talk to evaluations through its HTTP API (or \
                 its `Client`) so requests stay validated, traced and replayable"
            ),
        });
    }
}

/// `panic-path`: flags `.unwrap()`, `.expect(…)` and the `panic!` macro
/// family in library code outside `#[cfg(test)]` items. With
/// `strict_tests` (the orchestrator crates), `#[cfg(test)]` items are
/// also checked for `.expect(…)` and the `panic!` family — their tests
/// must assert the typed failure surface, not prose panic messages —
/// while `.unwrap()`/`.unwrap_err()` remain the sanctioned mechanical
/// assertions.
fn lint_panic_path(src: &SourceFile, strict_tests: bool, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        let in_test = src.in_test_span(t.line);
        let message = match ident {
            // method calls only: require a preceding `.` so definitions
            // and paths named `unwrap`/`expect` do not trip the lint
            "unwrap" | "expect" | "unwrap_err" | "expect_err" => {
                let is_method = i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if !is_method {
                    continue;
                }
                if in_test {
                    // tests: only `.expect(…)` is flagged, and only under
                    // the strict orchestrator policy
                    if !strict_tests || matches!(ident, "unwrap" | "unwrap_err") {
                        continue;
                    }
                    format!(
                        "`.{ident}()` in an orchestrator test: assert the typed \
                         error/outcome (or use the exempt `.unwrap()`) instead of a \
                         prose panic message"
                    )
                } else {
                    format!(
                        "`.{ident}()` in a library path: return a `Result` or use a \
                         documented-invariant `debug_assert!`"
                    )
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                // `core::panic::…` paths and `#[panic_handler]` are not calls
                if !is_macro {
                    continue;
                }
                if in_test {
                    if !strict_tests {
                        continue;
                    }
                    format!(
                        "`{ident}!` in an orchestrator test: assert the typed \
                         error/outcome (or use the exempt `.unwrap()`) instead of \
                         panicking with prose"
                    )
                } else {
                    format!(
                        "`{ident}!` in a library path: return a `Result` or use a \
                         documented-invariant `debug_assert!`"
                    )
                }
            }
            _ => continue,
        };
        if src.waived(t.line, "panic-path") {
            continue;
        }
        out.push(Diagnostic {
            lint: "panic-path".into(),
            file: src.path.clone(),
            line: t.line,
            message,
        });
    }
}
