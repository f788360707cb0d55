//! Per-file source model: workspace classification, the lexed token
//! stream, test-code spans (`#[cfg(test)]` / `#[test]` items), and
//! function spans — the shared structure every rule consumes.

use crate::lexer::{self, Lexed, Tok, Token};

/// Crates whose runtime must be a pure function of seeds: the rules
/// apply in full. Everything under `crates/<name>/src` for these names
/// is "library source".
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "adsim",
    "asn1",
    "core",
    "crypto",
    "geo",
    "mitigation",
    "netsim",
    "population",
    "tls",
    "x509",
];

/// Crates that are tooling, not simulation: the experiment and perf
/// binaries, and the linter itself. Wall-clock and env reads are their
/// job, so the determinism/panic rules skip them.
pub const TOOLING_CRATES: &[&str] = &["bench", "lint"];

/// What kind of file this is, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<deterministic>/src/**` or the umbrella `src/lib.rs`.
    Library,
    /// `crates/{bench,lint}/**` — exempt from determinism
    /// and panic-freedom rules.
    Tooling,
    /// Integration tests (`tests/**`, `crates/*/tests/**`) and
    /// `examples/**`.
    Test,
}

/// Classify a workspace-relative path (forward slashes). Returns `None`
/// for files the linter should not analyze at all.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let (crate_name, tail) = rest.split_once('/')?;
        if TOOLING_CRATES.contains(&crate_name) {
            // The lint fixtures are data, not workspace code.
            if rel_path.contains("tests/fixtures/") {
                return None;
            }
            return Some(FileClass::Tooling);
        }
        if DETERMINISTIC_CRATES.contains(&crate_name) {
            if tail.starts_with("src/") {
                return Some(FileClass::Library);
            }
            if tail.starts_with("tests/") || tail.starts_with("benches/") {
                return Some(FileClass::Test);
            }
        }
        return None;
    }
    if rel_path.starts_with("src/") {
        return Some(FileClass::Library);
    }
    if rel_path.starts_with("tests/") || rel_path.starts_with("examples/") {
        return Some(FileClass::Test);
    }
    None
}

/// A function body located in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name (for census grouping and messages).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's opening `{` (== `end` for bodyless
    /// declarations).
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub end: usize,
}

/// A fully analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Path-derived class.
    pub class: FileClass,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Waiver comments.
    pub waivers: Vec<lexer::Waiver>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`
    /// items.
    pub test_ranges: Vec<(u32, u32)>,
    /// All function bodies, in source order (outer before inner).
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex and structure one file.
    pub fn parse(path: &str, class: FileClass, src: &str) -> SourceFile {
        let Lexed { tokens, waivers } = lexer::lex(src);
        let test_ranges = find_test_ranges(&tokens);
        let fns = find_fns(&tokens);
        SourceFile { path: path.to_string(), class, tokens, waivers, test_ranges, fns }
    }

    /// Is `line` inside test-gated code?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Is a finding of `rule` on `line` covered by a waiver (on the
    /// same line or the line above)?
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers.iter().any(|w| {
            w.rule == rule && !w.reason.is_empty() && (w.line == line || w.line + 1 == line)
        })
    }

    /// The innermost function span containing token index `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns.iter().filter(|f| f.start <= i && i < f.end).max_by_key(|f| f.start)
    }
}

/// Scan for `#[cfg(test)]` / `#[test]`-gated items and return their
/// line ranges. `#[cfg(not(test))]` and `#[cfg_attr(...)]` are not
/// test gates.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let (attr_end, is_test) = scan_attr(tokens, i + 1);
            if is_test {
                // Skip any further attributes between this one and the
                // item proper.
                let mut j = attr_end;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    let (e, _) = scan_attr(tokens, j + 1);
                    j = e;
                }
                let start_line = tokens.get(j).map_or(tokens[i].line, |t| t.line);
                let end = skip_item(tokens, j);
                let end_line = tokens.get(end.saturating_sub(1)).map_or(start_line, |t| t.line);
                ranges.push((tokens[i].line.min(start_line), end_line));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Scan an attribute starting at its `[` token. Returns (index one past
/// the closing `]`, whether it gates test-only code).
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            Tok::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
        i += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (i, is_test)
}

/// Skip one item starting at token `i`: consume to the first `;` at
/// depth 0 or through the first brace block. Returns the index one past
/// the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 && tokens[i].is_punct('}') {
                    return i + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Locate every `fn name ... { body }` in the stream.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else { continue };
        // Walk to the body `{` at bracket depth 0 (skipping generics,
        // params, return type, where clause) or a `;` (declaration).
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body_start = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body_start else { continue };
        let end = skip_item(tokens, body);
        fns.push(FnSpan { name: name.to_string(), start: i, body_start: body, end });
    }
    fns
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn classify_routes_paths() {
        assert_eq!(classify("crates/core/src/study.rs"), Some(FileClass::Library));
        assert_eq!(classify("crates/bench/src/bin/exp_all.rs"), Some(FileClass::Tooling));
        assert_eq!(classify("crates/lint/tests/fixtures/panic_freedom/bad.rs"), None);
        assert_eq!(classify("tests/properties.rs"), Some(FileClass::Test));
        assert_eq!(classify("examples/quickstart.rs"), Some(FileClass::Test));
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Library));
        assert_eq!(classify("ROADMAP.md"), None);
    }

    #[test]
    fn cfg_test_items_are_ranged() {
        let src = "
fn live() { x(); }

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    fn helper() { y(); }
}

fn also_live() {}
";
        let f = SourceFile::parse("crates/core/src/x.rs", FileClass::Library, src);
        assert!(!f.in_test(2));
        assert!(f.in_test(6));
        assert!(f.in_test(7));
        assert!(!f.in_test(10));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let src = "#[cfg(not(test))]\nfn live() { x(); }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", FileClass::Library, src);
        assert!(!f.in_test(2));
    }

    #[test]
    fn fn_spans_nest() {
        let src = "fn outer() { fn inner() { a(); } b(); }";
        let f = SourceFile::parse("crates/core/src/x.rs", FileClass::Library, src);
        assert_eq!(f.fns.len(), 2);
        let a_idx = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        assert_eq!(f.enclosing_fn(a_idx).unwrap().name, "inner");
        let b_idx = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert_eq!(f.enclosing_fn(b_idx).unwrap().name, "outer");
    }

    #[test]
    fn waiver_requires_reason_and_adjacency() {
        let src = "// lint:allow(fork-label, per-host streams are intentional)\nf();\n\ng();\n";
        let f = SourceFile::parse("crates/core/src/x.rs", FileClass::Library, src);
        assert!(f.waived("fork-label", 2));
        assert!(!f.waived("fork-label", 4));
        let bare =
            SourceFile::parse("x.rs", FileClass::Library, "// lint:allow(fork-label)\nf();\n");
        assert!(!bare.waived("fork-label", 2));
    }
}
