//! The perf gate `exp_perf` runs on its own output.
//!
//! The gate reads no absolute time, so it judges the code, not the
//! host: a nanosecond baseline compares this run against one recorded
//! on another machine, and a shared VM's vCPUs alone swing about 2× in
//! speed. Each check is one of two kinds.
//!
//! * [`Rule::Exact`]: a deterministic count of work the code does:
//!   signatures per mint, context-memo misses, the candidates and
//!   Miller–Rabin runs of one fixed prime search, and the interned
//!   chains of one fixed study. No host can move these; a code change
//!   that moves one on purpose updates its constant here.
//! * [`Rule::Floor`]: the ratio of two timings taken in one process
//!   with interleaved sample blocks
//!   ([`crate::harness::best_ns_paired`]), so the host's speed cancels
//!   out. Each ratio compares a path with its optimisation against the
//!   same work without it, and each floor sits below every reading of
//!   the working code and above the reading with that optimisation
//!   switched off.
//!
//! A metric missing from the document fails its check, so deleting a
//! measurement cannot pass the gate.

use tlsfoe_core::json::Json;

/// What a check requires of its metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The metric equals this count.
    Exact(f64),
    /// The metric, a ratio of paired timings, is at least this.
    Floor(f64),
}

/// Every check: a metric's dotted path in the `exp_perf` document and
/// the rule it must meet.
pub const CHECKS: &[(&str, Rule)] = &[
    // CRT signing: two half-size exponentiations instead of one
    // full-size one.
    ("sizes.512.sign_no_crt_over_crt", Rule::Floor(1.8)),
    ("sizes.1024.sign_no_crt_over_crt", Rule::Floor(1.8)),
    ("sizes.2048.sign_no_crt_over_crt", Rule::Floor(1.8)),
    // `Ubig::modpow`, the entry point signing and verifying use: the
    // Montgomery ladder on a memoized context against square-and-multiply
    // with a division per step.
    ("sizes.512.modpow_schoolbook_over_modpow", Rule::Floor(1.8)),
    ("sizes.1024.modpow_schoolbook_over_modpow", Rule::Floor(1.8)),
    ("sizes.2048.modpow_schoolbook_over_modpow", Rule::Floor(1.8)),
    // The process-wide key cache: a hit against a prime search.
    ("series.keygen.keypair_cold_over_warm", Rule::Floor(1_000.0)),
    // One fixed, untimed search: `gen_prime(512)` plus one 1024-bit
    // keypair, three primes. Cutting the sieve raises the Miller–Rabin
    // runs; a hint replay instead of the search drops both.
    ("series.keygen.sieve_primes", Rule::Exact(3.0)),
    ("series.keygen.sieve_candidates", Rule::Exact(305.0)),
    ("series.keygen.sieve_mr_runs", Rule::Exact(48.0)),
    // The substitute cache: a hit against a fresh mint.
    ("series.mint.mint_cold_over_warm", Rule::Floor(1_000.0)),
    // A fresh mint signs its leaf once, with the product's root key.
    ("series.mint.signatures_per_mint", Rule::Exact(1.0)),
    // One shared Montgomery context per modulus: the three `sizes`
    // moduli miss once each, and nothing else reaches the memo.
    ("series.mint.ctx_cache_misses", Rule::Exact(3.0)),
    // Chain interning in the columnar store, on the ~10⁵-impression
    // study-1 cell.
    ("series.million.distinct_substitute_chains", Rule::Exact(25.0)),
    ("series.million.interned_chain_kb", Rule::Exact(37.0)),
    ("series.million.rowwise_chain_kb", Rule::Exact(382.0)),
];

/// One check's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The metric's dotted path.
    pub path: &'static str,
    /// What the metric must meet.
    pub rule: Rule,
    /// The metric's value, or `None` if the document lacks it.
    pub value: Option<f64>,
}

impl Outcome {
    /// Whether the metric is present and meets its rule.
    pub fn passed(&self) -> bool {
        match (self.value, self.rule) {
            (Some(v), Rule::Exact(want)) => v == want,
            (Some(v), Rule::Floor(min)) => v >= min,
            (None, _) => false,
        }
    }
}

/// The number at `path` (dot-separated object keys) in `doc`.
fn lookup(doc: &Json, path: &str) -> Option<f64> {
    match path.split('.').try_fold(doc, |v, key| v.get(key))? {
        Json::Int(i) => Some(*i as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Run every check in [`CHECKS`] against an `exp_perf` document.
pub fn evaluate(doc: &Json) -> Vec<Outcome> {
    CHECKS.iter().map(|&(path, rule)| Outcome { path, rule, value: lookup(doc, path) }).collect()
}

/// The table `exp_perf` prints: one line per check, then a verdict
/// naming every failed check.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut out = format!("perf gate\n{:<44} {:>12} {:>12}  verdict\n", "metric", "rule", "value");
    for o in outcomes {
        let rule = match o.rule {
            Rule::Exact(want) => format!("= {want}"),
            Rule::Floor(min) => format!(">= {min}"),
        };
        let value = o.value.map_or_else(|| "missing".to_string(), |v| v.to_string());
        let verdict = if o.passed() { "ok" } else { "FAIL" };
        out.push_str(&format!("{:<44} {rule:>12} {value:>12}  {verdict}\n", o.path));
    }
    let failed: Vec<_> = outcomes.iter().filter(|o| !o.passed()).map(|o| o.path).collect();
    if failed.is_empty() {
        out.push_str(&format!("perf gate: PASS ({} checks)\n", outcomes.len()));
    } else {
        out.push_str(&format!(
            "perf gate: FAIL ({} of {} checks): {}\n",
            failed.len(),
            outcomes.len(),
            failed.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH_crypto.json` as `exp_perf` writes it.
    const TODAY: &str = include_str!("perf_gate_fixture.json");

    fn failed(text: &str) -> Vec<&'static str> {
        let doc = Json::parse(text.trim()).expect("fixture parses");
        evaluate(&doc).into_iter().filter(|o| !o.passed()).map(|o| o.path).collect()
    }

    /// `TODAY` with `from` replaced by `to`, which must occur once.
    fn edited(from: &str, to: &str) -> String {
        assert_eq!(TODAY.matches(from).count(), 1, "{from:?} must occur once in the fixture");
        TODAY.replace(from, to)
    }

    #[test]
    fn todays_document_passes() {
        let doc = Json::parse(TODAY.trim()).expect("fixture parses");
        let outcomes = evaluate(&doc);
        assert_eq!(outcomes.len(), CHECKS.len());
        assert!(outcomes.iter().all(Outcome::passed), "{}", render(&outcomes));
        assert!(render(&outcomes).contains("perf gate: PASS"));
    }

    #[test]
    fn count_off_by_one_fails() {
        for (from, to, path) in [
            (r#""ctx_cache_misses":3"#, r#""ctx_cache_misses":4"#, "series.mint.ctx_cache_misses"),
            (r#""sieve_mr_runs":48"#, r#""sieve_mr_runs":49"#, "series.keygen.sieve_mr_runs"),
        ] {
            assert_eq!(failed(&edited(from, to)), [path]);
        }
    }

    #[test]
    fn ratio_under_its_floor_fails() {
        let text = edited(r#""sign_no_crt_over_crt":3.43"#, r#""sign_no_crt_over_crt":1.02"#);
        assert_eq!(failed(&text), ["sizes.1024.sign_no_crt_over_crt"]);
    }

    #[test]
    fn missing_metric_is_an_error_not_a_pass() {
        let text = edited(r#""distinct_substitute_chains":25,"#, "");
        assert_eq!(failed(&text), ["series.million.distinct_substitute_chains"]);
        let doc = Json::parse(text.trim()).expect("edited fixture parses");
        let table = render(&evaluate(&doc));
        assert!(table.contains("missing"), "{table}");
        assert!(table.contains("FAIL (1 of"), "{table}");
        // A value of the wrong type counts as missing too.
        assert!(!failed(&edited(r#""signatures_per_mint":1"#, r#""signatures_per_mint":"1""#))
            .is_empty());
        assert_eq!(failed("{}").len(), CHECKS.len());
    }
}
