//! Rule `determinism`: wall-clock and ambient-randomness sources are
//! forbidden in the deterministic crates.
//!
//! A study `Database` must be a pure function of its seed — the
//! bit-identity contract every scale PR is asserted against. One
//! `Instant::now()` in a library crate quietly breaks that across
//! machines; this rule catches the whole class at CI time. Tooling
//! crates (`bench`, `lint`) are exempt: measuring wall time is their
//! job.

use crate::report::Finding;
use crate::source::{FileClass, SourceFile};

/// Identifiers that are banned outright in deterministic code.
const BANNED_IDENTS: &[(&str, &str, &str)] = &[
    ("Instant", "wall-clock read `Instant`", "use virtual time (`Network::now_us`)"),
    ("SystemTime", "wall-clock read `SystemTime`", "use virtual time (`Network::now_us`)"),
    ("UNIX_EPOCH", "wall-clock anchor `UNIX_EPOCH`", "use virtual time (`Network::now_us`)"),
    ("thread_rng", "ambient randomness `thread_rng`", "derive a labeled `Drbg` stream"),
    ("OsRng", "ambient randomness `OsRng`", "derive a labeled `Drbg` stream"),
    ("getrandom", "ambient randomness `getrandom`", "derive a labeled `Drbg` stream"),
    (
        "RandomState",
        "per-process-seeded `RandomState`",
        "use a fixed-key hasher or an ordered container",
    ),
];

/// `env::<read>` path suffixes that make behavior environment-dependent.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

pub(crate) fn check(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.class == FileClass::Tooling {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else { continue };
        let line = toks[i].line;
        if f.in_test(line) {
            continue;
        }
        let hit: Option<(String, String)> =
            if let Some(&(_, what, fix)) = BANNED_IDENTS.iter().find(|&&(name, _, _)| name == id) {
                Some((what.to_string(), fix.to_string()))
            } else if id == "time" && path_prefix_is(toks, i, "std") {
                Some((
                    "`std::time` in deterministic code".to_string(),
                    "the simulation runs on virtual time only".to_string(),
                ))
            } else if id == "env"
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| ENV_READS.iter().any(|r| t.is_ident(r)))
            {
                Some((
                    format!("environment read `env::{}`", toks[i + 3].ident().unwrap_or_default()),
                    "thread configuration through typed config structs".to_string(),
                ))
            } else if id == "option_env" && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                Some((
                    "`option_env!` compile-environment read".to_string(),
                    "thread configuration through typed config structs".to_string(),
                ))
            } else {
                None
            };
        let Some((what, fix)) = hit else { continue };
        if f.waived("determinism", line) {
            continue;
        }
        out.push(Finding {
            file: f.path.clone(),
            line,
            rule: "determinism",
            message: format!("{what} in deterministic crate"),
            suggestion: format!("{fix}; or waive: // lint:allow(determinism, reason)"),
        });
    }
}

/// Is token `i` preceded by `prefix ::`?
fn path_prefix_is(toks: &[crate::lexer::Token], i: usize, prefix: &str) -> bool {
    i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') && toks[i - 3].is_ident(prefix)
}
