//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and parent. In a traced child
//! every span also snapshots the process-wide library counters and the
//! process CPU time at both ends, so a layer's counts and utilization
//! are measured at the boundary where its work happens. Spans stay in
//! memory and are written out when the child ends.

use std::time::Instant;

use tlsfoe_core::json::Json;

/// Process-wide counters read at span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Process user + system CPU time, seconds.
    pub cpu_s: f64,
    pub signatures: u64,
    pub keys_generated: u64,
    pub mr_runs: u64,
    pub primes: u64,
    pub subst_hits: u64,
    pub subst_misses: u64,
    pub ctx_hits: u64,
    pub ctx_misses: u64,
    pub configs_built: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let keygen = tlsfoe_crypto::rsa::keygen_stats();
        let (subst_hits, subst_misses) = tlsfoe_population::cache::process_cache().stats();
        let (ctx_hits, ctx_misses) = tlsfoe_crypto::shared_ctx_cache().stats();
        Counters {
            cpu_s: process_cpu_s(),
            signatures: tlsfoe_crypto::rsa::signature_count(),
            keys_generated: tlsfoe_population::keys::stats().1,
            mr_runs: keygen.mr_runs,
            primes: keygen.primes,
            subst_hits,
            subst_misses,
            ctx_hits,
            ctx_misses,
            configs_built: tlsfoe_tls::server::configs_built(),
        }
    }

    /// `later - self`, field by field.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters {
            cpu_s: later.cpu_s - self.cpu_s,
            signatures: later.signatures - self.signatures,
            keys_generated: later.keys_generated - self.keys_generated,
            mr_runs: later.mr_runs - self.mr_runs,
            primes: later.primes - self.primes,
            subst_hits: later.subst_hits - self.subst_hits,
            subst_misses: later.subst_misses - self.subst_misses,
            ctx_hits: later.ctx_hits - self.ctx_hits,
            ctx_misses: later.ctx_misses - self.ctx_misses,
            configs_built: later.configs_built - self.configs_built,
        }
    }

    fn add(&mut self, d: &Counters) {
        self.cpu_s += d.cpu_s;
        self.signatures += d.signatures;
        self.keys_generated += d.keys_generated;
        self.mr_runs += d.mr_runs;
        self.primes += d.primes;
        self.subst_hits += d.subst_hits;
        self.subst_misses += d.subst_misses;
        self.ctx_hits += d.ctx_hits;
        self.ctx_misses += d.ctx_misses;
        self.configs_built += d.configs_built;
    }
}

/// One recorded span; times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Counter delta across the span (traced children only).
    pub counters: Option<Counters>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    origin: Instant,
    traced: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder { origin: Instant::now(), traced, spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let before = self.traced.then(Counters::read);
        let idx = self.spans.len();
        let start = self.elapsed_s();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            counters: None,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.elapsed_s();
        let span = &mut self.spans[idx];
        span.end = end;
        span.counters = before.map(|b| b.delta(&Counters::read()));
        out
    }

    /// Seconds since the recorder started.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Summed counter deltas of every span called `name`.
    pub fn counters(&self, name: &str) -> Counters {
        let mut sum = Counters::default();
        for c in self.named(name).filter_map(|s| s.counters.as_ref()) {
            sum.add(c);
        }
        sum
    }

    /// Summed duration of the spans that have no parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::secs).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        ("self_s", Json::Num(self_time(&self.spans, i))),
                        ("parent", Json::opt(s.parent, |p| Json::Int(p as i64))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's duration minus the part of its interval that its child
/// spans cover.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let span = &spans[idx];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = span.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.secs() - covered
}

/// Process user + system CPU time from `/proc/self/stat` (0 where that
/// file does not exist). The kernel reports it in clock ticks, which
/// are 1/100 s on Linux.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MB, 0 where it cannot be read.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, counters: None }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("setup", 0.0, 10.0, None),
            span("keys", 1.0, 4.0, Some(0)),
            span("hosts", 4.0, 5.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
        ];
        assert!((self_time(&spans, 0) - 6.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("body", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1, 6] and [9, 10] = 6 s.
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_totals_spans() {
        let mut rec = Recorder::new(false);
        rec.span("outer", |r| {
            r.span("inner", |_| ());
            r.span("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(rec.total_s("inner") <= rec.total_s("outer"));
        assert_eq!(rec.top_level_s(), rec.total_s("outer"));
        assert!(spans.iter().all(|s| s.counters.is_none()));
    }
}
