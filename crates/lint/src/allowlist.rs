//! The shrink-only panic allowlist.
//!
//! `crates/lint/panic_allowlist.txt` records, per library file, how
//! many `.expect(` / panic-macro / indexing sites it is *allowed* to
//! contain. The ratchet is exact in both directions:
//!
//! * a count above its entry fails the lint ("the allowlist never
//!   grows") — new panic surface needs a conscious decision,
//! * a count below its entry also fails, telling the author to run
//!   `tlsfoe-lint --update-allowlist` — so paid-down debt is locked in
//!   and cannot silently regrow to the stale ceiling.
//!
//! Under `crates/netsim/` the rule is hard: a file there may not carry
//! an entry (parsing rejects one and `--update-allowlist` refuses to
//! write one), so every counted site there fails `--check`.

use std::collections::BTreeMap;

use crate::report::Finding;
use crate::rules::panicfree::PanicCounts;

/// Path prefixes where `panic-free` is a hard rule: no allowlist entry.
const HARD_RULE_PREFIXES: &[&str] = &["crates/netsim/"];

/// The hard-rule prefix `path` falls under, if any.
fn hard_rule_prefix(path: &str) -> Option<&'static str> {
    HARD_RULE_PREFIXES.iter().copied().find(|prefix| path.starts_with(prefix))
}

/// Parsed allowlist: path → allowed counts, ordered for deterministic
/// rendering.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Allowlist {
    entries: BTreeMap<String, PanicCounts>,
}

impl Allowlist {
    /// Parse the on-disk format: `# comment` lines and
    /// `path expect=N panic=N index=N` lines.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = BTreeMap::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let path = parts.next().ok_or_else(|| format!("line {}: empty", ln + 1))?;
            if let Some(prefix) = hard_rule_prefix(path) {
                return Err(format!(
                    "line {}: `{path}` may not have an entry: panic-free is a hard rule under \
                     `{prefix}`",
                    ln + 1
                ));
            }
            let mut counts = PanicCounts::default();
            for kv in parts {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: expected key=N, got `{kv}`", ln + 1))?;
                let n: u32 = v.parse().map_err(|_| format!("line {}: bad count `{v}`", ln + 1))?;
                match k {
                    "expect" => counts.expect = n,
                    "panic" => counts.panic = n,
                    "index" => counts.index = n,
                    _ => return Err(format!("line {}: unknown key `{k}`", ln + 1)),
                }
            }
            entries.insert(path.to_string(), counts);
        }
        Ok(Allowlist { entries })
    }

    /// Render back to the on-disk format (used by `--update-allowlist`).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Panic-surface allowlist: per-file ceilings for `.expect(`, panic\n\
             # macros and indexing in non-test library code. Maintained by\n\
             # `cargo run -p tlsfoe-lint -- --update-allowlist`. Policy: this\n\
             # file SHRINKS, it never grows — see ROADMAP.md \"Static analysis\".\n",
        );
        for (path, c) in &self.entries {
            out.push_str(&format!(
                "{path} expect={} panic={} index={}\n",
                c.expect, c.panic, c.index
            ));
        }
        out
    }

    /// Build an allowlist that exactly matches the measured counts
    /// (zero-count files are omitted). Fails if a file under a
    /// hard-rule prefix has any counted site: those are removed, never
    /// allowlisted.
    pub fn from_counts(counts: &BTreeMap<String, PanicCounts>) -> Result<Allowlist, String> {
        let entries: BTreeMap<String, PanicCounts> =
            counts.iter().filter(|(_, c)| !c.is_zero()).map(|(p, c)| (p.clone(), *c)).collect();
        for path in entries.keys() {
            if let Some(prefix) = hard_rule_prefix(path) {
                return Err(format!(
                    "`{path}` has panic sites, and panic-free is a hard rule under `{prefix}`: \
                     remove them instead of allowlisting them"
                ));
            }
        }
        Ok(Allowlist { entries })
    }

    /// Compare measured counts against the allowlist; every mismatch is
    /// a finding.
    pub fn compare(&self, counts: &BTreeMap<String, PanicCounts>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let finding = |path: &str, message: String, grow: bool| Finding {
            file: path.to_string(),
            line: 1,
            rule: "panic-free",
            message,
            suggestion: if grow {
                "remove the new panic site (typed error / checked access), or consciously ratchet with --update-allowlist"
                    .to_string()
            } else {
                "debt was paid down — run `cargo run -p tlsfoe-lint -- --update-allowlist` to lock it in"
                    .to_string()
            },
        };
        for (path, &c) in counts {
            let allowed = self.entries.get(path).copied().unwrap_or_default();
            for (kind, have, max) in [
                ("expect", c.expect, allowed.expect),
                ("panic", c.panic, allowed.panic),
                ("index", c.index, allowed.index),
            ] {
                if have > max {
                    findings.push(finding(
                        path,
                        format!("{kind} count {have} exceeds allowlist ceiling {max}"),
                        true,
                    ));
                } else if have < max {
                    findings.push(finding(
                        path,
                        format!("{kind} count {have} is below allowlist ceiling {max}"),
                        false,
                    ));
                }
            }
        }
        // Entries for files that no longer exist (or counted nothing).
        for path in self.entries.keys() {
            if !counts.contains_key(path) {
                findings.push(finding(
                    path,
                    "stale allowlist entry (file not linted)".to_string(),
                    false,
                ));
            }
        }
        findings
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn counts(expect: u32, panic: u32, index: u32) -> PanicCounts {
        PanicCounts { expect, panic, index }
    }

    #[test]
    fn parse_render_round_trip() {
        let a = Allowlist::parse("# c\ncrates/x/src/a.rs expect=2 panic=1 index=30\n").unwrap();
        let text = a.render();
        assert!(text.contains("a.rs expect=2 panic=1 index=30"));
        assert_eq!(Allowlist::parse(&text).unwrap(), a);
    }

    #[test]
    fn ratchet_fails_both_directions() {
        let a = Allowlist::parse("f.rs expect=2 panic=0 index=5").unwrap();
        let mut measured = BTreeMap::new();
        measured.insert("f.rs".to_string(), counts(3, 0, 5));
        let grow = a.compare(&measured);
        assert_eq!(grow.len(), 1);
        assert!(grow[0].message.contains("exceeds"));
        measured.insert("f.rs".to_string(), counts(2, 0, 4));
        let shrink = a.compare(&measured);
        assert_eq!(shrink.len(), 1);
        assert!(shrink[0].message.contains("below"));
        measured.insert("f.rs".to_string(), counts(2, 0, 5));
        assert!(a.compare(&measured).is_empty());
    }

    #[test]
    fn unlisted_file_with_sites_fails() {
        let a = Allowlist::default();
        let mut measured = BTreeMap::new();
        measured.insert("new.rs".to_string(), counts(0, 1, 0));
        let f = a.compare(&measured);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("exceeds allowlist ceiling 0"));
    }

    #[test]
    fn netsim_is_a_hard_rule() {
        let path = "crates/netsim/src/net.rs";
        let err = Allowlist::parse(&format!("{path} expect=0 panic=0 index=1")).unwrap_err();
        assert!(err.contains("hard rule"), "{err}");
        let mut measured = BTreeMap::new();
        measured.insert(path.to_string(), counts(0, 0, 0));
        assert_eq!(Allowlist::from_counts(&measured).unwrap(), Allowlist::default());
        measured.insert(path.to_string(), counts(1, 0, 0));
        let err = Allowlist::from_counts(&measured).unwrap_err();
        assert!(err.contains("hard rule"), "{err}");
        // With no entry possible, any counted site fails the check.
        let f = Allowlist::default().compare(&measured);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("exceeds allowlist ceiling 0"));
        // Other crates keep the ratchet.
        assert!(Allowlist::parse("crates/core/src/store.rs expect=1 panic=0 index=0").is_ok());
    }

    #[test]
    fn stale_entry_is_flagged() {
        let a = Allowlist::parse("gone.rs expect=1 panic=0 index=0").unwrap();
        let f = a.compare(&BTreeMap::new());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("stale"));
    }
}
