//! The determinism pass: `entropy-source` (XT202).
//!
//! `entropy-source` flags ambient time/randomness (`thread_rng`,
//! `from_entropy`, `OsRng`, `rand::random`, `SystemTime`): every
//! experiment must be replayable from its seed and injected clock.
//! Reductions over worker-pool results need no lint: `slam_exec`
//! returns them in submission/band order over a size-only band layout,
//! so any in-order fold is bit-identical at every thread count.

use crate::lints::{Diagnostic, SourceFile};

/// Skips from an opening delimiter at `open` to just past its match.
pub(crate) fn skip_balanced(toks: &[crate::lexer::Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// `entropy-source`: ambient randomness and wall-clock time.
pub fn lint_entropy_source(src: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &src.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        let hit = match ident {
            "thread_rng" | "from_entropy" | "OsRng" | "SystemTime" => Some(ident),
            // `rand::random` only as a qualified path — a bare `random`
            // identifier is too common to flag
            "random"
                if i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("rand") =>
            {
                Some("rand::random")
            }
            _ => None,
        };
        let Some(name) = hit else { continue };
        if src.waived(t.line, "entropy-source") {
            continue;
        }
        out.push(Diagnostic {
            lint: "entropy-source".into(),
            file: src.path.clone(),
            line: t.line,
            message: format!(
                "ambient entropy via `{name}`: inject a seeded RNG (`ChaCha…::seed_from_u64`) \
                 or a `Clock` handle so the run is replayable"
            ),
        });
    }
}
