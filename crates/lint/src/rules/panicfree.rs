//! Rule `panic-free`: library code must not panic on bad input.
//!
//! A panic in a worker thread kills a whole study shard (PR 3 replaced
//! exactly that failure mode with typed `NetRunError`s). The policy,
//! per non-test library code:
//!
//! * `.unwrap()` — always a finding. `clippy::unwrap_used` already
//!   bans it crate-by-crate; the linter makes the ban uniform and
//!   CI-visible with file:line findings.
//! * `.expect(...)`, `panic!`/`unreachable!`/`todo!`/`unimplemented!`,
//!   and slice/array indexing (`x[i]`, `&x[a..b]`) — counted per file
//!   and ratcheted against the checked-in allowlist
//!   (`crates/lint/panic_allowlist.txt`), which may shrink but never
//!   grow. `expect` with an invariant message is often correct; the
//!   ratchet keeps the *count* honest without demanding a flag-day
//!   rewrite of, e.g., limb indexing in the bigint kernels.
//!
//! Test code (`#[cfg(test)]`, `tests/`, `examples/`) and tooling
//! crates are exempt: a panicking assert is how tests fail.

use crate::lexer::Tok;
use crate::report::Finding;
use crate::source::{FileClass, SourceFile};

/// Ratcheted panic-site counters for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanicCounts {
    /// `.expect(` calls.
    pub expect: u32,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` sites.
    pub panic: u32,
    /// Indexing expressions (`expr[...]`).
    pub index: u32,
}

impl PanicCounts {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == PanicCounts::default()
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that can directly precede `[` without forming an index
/// expression (`&mut [u8]`, `return [..]`, `let [a, b] = ..`, ...).
const NON_INDEX_PREFIX: &[&str] = &[
    "mut", "dyn", "impl", "as", "in", "return", "else", "match", "if", "use", "pub", "where",
    "move", "ref", "break", "const", "static", "crate", "let",
];

pub(crate) fn check(f: &SourceFile, out: &mut Vec<Finding>) -> Option<PanicCounts> {
    if f.class != FileClass::Library {
        return None;
    }
    let toks = &f.tokens;
    let mut counts = PanicCounts::default();
    for i in 0..toks.len() {
        let line = toks[i].line;
        if f.in_test(line) {
            continue;
        }
        match &toks[i].tok {
            Tok::Ident(id)
                if id == "unwrap"
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                out.push(Finding {
                    file: f.path.clone(),
                    line,
                    rule: "panic-free",
                    message: "`.unwrap()` in non-test library code".into(),
                    suggestion:
                        "return a typed error, or `.expect(\"invariant: ...\")` and ratchet the allowlist"
                            .into(),
                });
            }
            Tok::Ident(id)
                if id == "expect"
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                counts.expect += 1;
            }
            Tok::Ident(id)
                if PANIC_MACROS.contains(&id.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                counts.panic += 1;
            }
            Tok::Punct('[') if i >= 1 => {
                let is_index = match &toks[i - 1].tok {
                    Tok::Ident(prev) => !NON_INDEX_PREFIX.contains(&prev.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if is_index {
                    counts.index += 1;
                }
            }
            _ => {}
        }
    }
    // Per-file findings are only the unwraps; the expect/panic/index
    // counters are compared workspace-wide against the allowlist by
    // the driver (`lint_workspace`).
    Some(counts)
}
