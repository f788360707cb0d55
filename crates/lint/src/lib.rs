//! # tlsfoe-lint
//!
//! The workspace determinism & discipline linter. Every scale and
//! fault PR rests on one invariant — a study `Database` is a pure
//! function of its seed, bit-identical across threads, batch sizes,
//! warm-vs-lazy caches and fault profiles. Runtime tests catch a
//! violation *after* it lands; this linter catches the whole class at
//! CI time, before clippy even runs.
//!
//! Five rule families (ids in parentheses are the waiver names):
//!
//! 1. **Determinism sources** (`determinism`) — wall-clock and ambient
//!    randomness are banned in the deterministic crates.
//! 2. **Unordered-iteration hygiene** (`unordered-iter`) — hash-order
//!    must never reach output without a visible sort.
//! 3. **DRBG fork discipline** (`fork-label`) — literal labels only,
//!    with a workspace census that flags sibling-label collisions.
//! 4. **Sealed-store discipline** (`sealed-store`) — the columnar
//!    `Database` representation stays inside `core::store`.
//! 5. **Panic freedom** (`panic-free`) — no `unwrap()` in library
//!    code; `expect`/panics/indexing ratchet against a shrink-only
//!    allowlist.
//!
//! Waiver syntax, valid on the offending line or the line above:
//! `// lint:allow(rule-id, reason)` — the reason is mandatory and
//! checked.
//!
//! Everything is hand-rolled (lexer included): the build environment
//! is offline and the linter must never be the thing that breaks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walk;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

pub use allowlist::Allowlist;
pub use report::{sort_findings, Finding};
pub use rules::fork::CensusEntry;
pub use rules::panicfree::PanicCounts;
pub use rules::FileReport;
pub use source::{FileClass, SourceFile};

/// Location of the panic allowlist, workspace-relative.
pub const ALLOWLIST_PATH: &str = "crates/lint/panic_allowlist.txt";

/// Lint a single file's contents under its workspace-relative path.
pub fn lint_file(rel_path: &str, src: &str) -> Option<FileReport> {
    let class = source::classify(rel_path)?;
    let file = SourceFile::parse(rel_path, class, src);
    Some(rules::run_all(&file))
}

/// A whole-workspace lint run.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, deterministically ordered.
    pub findings: Vec<Finding>,
    /// Measured panic counts per library file.
    pub panic_counts: BTreeMap<String, PanicCounts>,
    /// The full fork-label census (every non-test `.fork(...)` site).
    pub census: Vec<CensusEntry>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Lint every workspace file under `root` and compare panic counts
/// against the checked-in allowlist.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut rep = WorkspaceReport::default();
    for (rel, _class) in walk::workspace_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        if let Some(file_rep) = lint_file(&rel, &src) {
            rep.files += 1;
            rep.findings.extend(file_rep.findings);
            if let Some(c) = file_rep.panic_counts {
                rep.panic_counts.insert(rel.clone(), c);
            }
            rep.census.extend(file_rep.census);
        }
    }
    let allowlist_file = root.join(ALLOWLIST_PATH);
    let allowlist = match fs::read_to_string(&allowlist_file) {
        Ok(text) => Allowlist::parse(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Allowlist::default(),
        Err(e) => return Err(e),
    };
    rep.findings.extend(allowlist.compare(&rep.panic_counts));
    sort_findings(&mut rep.findings);
    Ok(rep)
}

/// Regenerate the allowlist to exactly match the current tree.
pub fn update_allowlist(root: &Path) -> io::Result<usize> {
    let rep = lint_workspace(root)?;
    let fresh = Allowlist::from_counts(&rep.panic_counts).map_err(io::Error::other)?;
    fs::write(root.join(ALLOWLIST_PATH), fresh.render())?;
    Ok(rep.panic_counts.values().filter(|c| !c.is_zero()).count())
}
