//! The concurrency pass: `lock-order` (XT301) and `pool-blocking`
//! (XT302).
//!
//! `lock-order` extracts every `Mutex`/`RwLock` struct field in the
//! workspace, tracks guard lifetimes lexically (a `let`-bound guard is
//! held to the end of its enclosing block unless `drop`ped; a temporary
//! to the end of its statement), and builds a global
//! lock-acquisition-order graph: an edge A→B means A was held while B
//! was acquired. Any edge that lies on a cycle is reported — two code
//! paths taking the same pair of locks in opposite orders is the classic
//! deadlock shape. Acquisitions are recognised as `field.lock()`,
//! `field.read()`, `field.write()` and the poison-recovering free-helper
//! idiom `lock(&self.field)`. Known limit: a helper method on `self`
//! (e.g. `fn lock(&self) -> MutexGuard<…>`) hides the field it locks;
//! keep such helpers single-lock.
//!
//! `pool-blocking` scans closures submitted to the worker pool — the
//! argument list of a `run_tasks` / `run_bands` call, or a `Box::new(…) as
//! …Task` cast — for calls that park the worker: `sleep`, `.recv()`
//! without a timeout, file IO (`fs::…`, `File`, `read_to_string`, …)
//! and socket work (`TcpListener` / `TcpStream` / `UdpSocket`
//! construction, `.accept()`). A blocked worker serialises the whole
//! batch behind IO latency and can deadlock nested submissions; a
//! worker parked in `accept()` never returns at all.

use crate::determinism::skip_balanced;
use crate::lexer::Token;
use crate::lints::{Diagnostic, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Calls whose argument closures run on pool workers.
const POOL_SUBMITTERS: &[&str] = &["run_tasks", "run_bands"];

/// Identifiers that block the calling thread. `recv` and `accept` are
/// matched only as method calls (`.recv()` / `.accept()`);
/// `recv_timeout`/`try_recv` are distinct identifiers and stay allowed.
const BLOCKING_IDENTS: &[&str] = &[
    "sleep",
    "File",
    "OpenOptions",
    "read_to_string",
    "read_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    // socket types: connect/bind block on the network, and a worker
    // parked in accept() never comes back
    "TcpListener",
    "TcpStream",
    "UdpSocket",
];

/// `pool-blocking`: blocking calls inside pool-task closures.
pub fn lint_pool_blocking(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    // (start, end) token ranges that execute on pool workers
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Some(ident) = t.ident() {
            if POOL_SUBMITTERS.contains(&ident) && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                regions.push((i + 2, skip_balanced(toks, i + 1, '(', ')')));
            }
            // `Box :: new ( … ) as [path ::]* Task`
            if ident == "Box"
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("new"))
                && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
            {
                let close = skip_balanced(toks, i + 4, '(', ')');
                if cast_to_task(toks, close) {
                    regions.push((i + 5, close));
                }
            }
        }
    }
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for (start, end) in regions {
        for j in start..end.min(toks.len()) {
            let Some(ident) = toks[j].ident() else {
                continue;
            };
            // a blocking name, or a `.recv(` / `.accept(` method call
            let hit = if BLOCKING_IDENTS.contains(&ident)
                || (matches!(ident, "recv" | "accept")
                    && j > 0
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('(')))
            {
                Some(ident)
            } else if ident == "fs"
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
            {
                Some("fs::")
            } else {
                None
            };
            let Some(name) = hit else { continue };
            let line = toks[j].line;
            if !flagged.insert(j) || src.in_test_span(line) || src.waived(line, "pool-blocking") {
                continue;
            }
            out.push(Diagnostic {
                lint: "pool-blocking".into(),
                file: src.path.clone(),
                line,
                message: format!(
                    "blocking `{name}` inside a pool task: a parked worker serialises \
                     the batch and can deadlock nested submissions — do IO/waiting \
                     outside the parallel section"
                ),
            });
        }
    }
}

/// True if `toks[i..]` is `as [ident ::]* Task`.
fn cast_to_task(toks: &[Token], mut i: usize) -> bool {
    if !toks.get(i).is_some_and(|t| t.is_ident("as")) {
        return false;
    }
    i += 1;
    let mut last = None;
    while let Some(t) = toks.get(i) {
        if let Some(id) = t.ident() {
            last = Some(id);
            i += 1;
        } else if t.is_punct(':') {
            i += 1;
        } else {
            break;
        }
    }
    last == Some("Task")
}

/// One lock acquisition site.
struct Acquire {
    tok: usize,
    field: String,
    line: u32,
}

/// One "held A while acquiring B" observation.
struct Edge {
    from: String,
    to: String,
    file_idx: usize,
    line: u32,
}

/// `lock-order`: builds the global acquisition-order graph over all
/// `files` and reports every edge that lies on a cycle.
pub fn lint_lock_order(files: &[&SourceFile]) -> Vec<Diagnostic> {
    // pass 1: every Mutex/RwLock field declared anywhere, name → kind
    let mut fields: BTreeMap<String, &'static str> = BTreeMap::new();
    for src in files {
        collect_lock_fields(src, &mut fields);
    }
    if fields.is_empty() {
        return Vec::new();
    }
    // pass 2: acquisition sites and guard scopes → edges
    let mut edges: Vec<Edge> = Vec::new();
    for (file_idx, src) in files.iter().enumerate() {
        let acquires = find_acquires(src, &fields);
        let braces = brace_spans(&src.tokens);
        for (ai, a) in acquires.iter().enumerate() {
            let end = guard_scope_end(&src.tokens, a, &braces);
            for b in &acquires[ai + 1..] {
                if b.tok > end {
                    break;
                }
                edges.push(Edge {
                    from: a.field.clone(),
                    to: b.field.clone(),
                    file_idx,
                    line: b.line,
                });
            }
        }
    }
    // pass 3: report edges on cycles
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, u32, String, String)> = BTreeSet::new();
    for e in &edges {
        if !reaches(&adj, &e.to, &e.from) {
            continue;
        }
        let src = files[e.file_idx];
        if src.waived(e.line, "lock-order") {
            continue;
        }
        if !seen.insert((e.file_idx, e.line, e.from.clone(), e.to.clone())) {
            continue;
        }
        out.push(Diagnostic {
            lint: "lock-order".into(),
            file: src.path.clone(),
            line: e.line,
            message: format!(
                "acquiring `{}` while `{}` is held closes an acquisition-order cycle \
                 (`{}` is also held when `{}` is taken elsewhere): order locks \
                 consistently or narrow the guard's scope",
                e.to, e.from, e.to, e.from
            ),
        });
    }
    out
}

/// Records `name: [Arc<]Mutex<…>` / `RwLock<…>` field declarations.
fn collect_lock_fields(src: &SourceFile, fields: &mut BTreeMap<String, &'static str>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        let kind = match t.ident() {
            Some("Mutex") => "Mutex",
            Some("RwLock") => "RwLock",
            _ => continue,
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) || i == 0 {
            continue;
        }
        // walk back over `Arc <` wrappers to the `name :` introducer
        let mut k = i - 1;
        while k > 0 && (toks[k].is_punct('<') || toks[k].is_ident("Arc")) {
            k -= 1;
        }
        if toks[k].is_punct(':') && k >= 1 && !toks[k - 1].is_punct(':')
        // a `::` path, not a field
        {
            if let Some(name) = toks[k - 1].ident() {
                fields.insert(name.to_string(), kind);
            }
        }
    }
}

/// Finds lock acquisitions attributable to a known field.
fn find_acquires(src: &SourceFile, fields: &BTreeMap<String, &'static str>) -> Vec<Acquire> {
    let toks = &src.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) || src.in_test_span(t.line) {
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let candidate: Option<String> = match (ident, is_method) {
            ("lock" | "read" | "write", true) => (i >= 2)
                .then(|| toks[i - 2].ident())
                .flatten()
                .map(String::from),
            // the poison-recovering free helper: `lock(&self.field)`
            ("lock", false) => {
                let close = skip_balanced(toks, i + 1, '(', ')');
                toks[i + 2..close.saturating_sub(1)]
                    .iter()
                    .rev()
                    .find_map(Token::ident)
                    .map(String::from)
            }
            _ => continue,
        };
        let Some(name) = candidate else { continue };
        let compatible = match fields.get(&name) {
            Some(&"Mutex") => ident == "lock",
            Some(&"RwLock") => ident == "read" || ident == "write",
            _ => false,
        };
        if compatible {
            out.push(Acquire {
                tok: i,
                field: name,
                line: t.line,
            });
        }
    }
    out
}

/// All `{ … }` spans as (open, close) token indexes.
fn brace_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                spans.push((open, i));
            }
        }
    }
    spans
}

/// The last token index at which the guard taken at `a` is still held.
fn guard_scope_end(toks: &[Token], a: &Acquire, braces: &[(usize, usize)]) -> usize {
    // innermost enclosing block
    let block_end = braces
        .iter()
        .filter(|&&(o, c)| o < a.tok && a.tok < c)
        .map(|&(_, c)| c)
        .min()
        .unwrap_or(toks.len());
    // bound to a `let`? scan back to the statement start
    let mut j = a.tok;
    while j > 0 {
        j -= 1;
        if toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}') {
            break;
        }
        if toks[j].is_ident("let") {
            let mut n = j + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            // bound: held to end of block, unless dropped earlier
            return match toks.get(n).and_then(Token::ident) {
                Some(g) => drop_site(toks, a.tok, block_end, g).unwrap_or(block_end),
                None => block_end,
            };
        }
    }
    // temporary: held to the end of its statement (capped by the block)
    let stmt_end = toks[a.tok..]
        .iter()
        .position(|t| t.is_punct(';'))
        .map_or(toks.len(), |p| a.tok + p);
    stmt_end.min(block_end)
}

/// The token index of a `drop ( guard )` call between `from` and `to`.
fn drop_site(toks: &[Token], from: usize, to: usize, guard: &str) -> Option<usize> {
    (from..to.min(toks.len())).find(|&i| {
        toks[i].is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(guard))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
    })
}

/// DFS reachability in the acquisition-order graph.
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if !visited.insert(node) {
            continue;
        }
        if let Some(next) = adj.get(node) {
            stack.extend(next.iter().copied());
        }
    }
    false
}
