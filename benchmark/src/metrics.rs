//! The metric registry (mirrored by `BENCHMARK.json`) and the per-layer
//! figures a traced child derives from its spans and outputs.

use crate::child::DRIVE_WORKERS;
use crate::phases::Phases;
use crate::trace::Recorder;
use crate::workload::Output;

/// A reported metric: name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[Metric] =
    &[("setup_s", "s"), ("body_s", "s"), ("sessions_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not exercise reads 0 (analyzers outside `paper_e2e`; the 2-worker
/// reference and session phases outside `bulk_sessions`).
pub const PER_LAYER: &[Metric] = &[
    ("population.keys.busy_s", "s"),
    ("population.keys.generated", "count"),
    ("population.keys.cpu_util", "ratio"),
    ("crypto.rsa.mr_runs_per_prime", "ratio"),
    ("core.hosts.busy_s", "s"),
    ("population.model.busy_s", "s"),
    ("population.model.warm_substitutes_s", "s"),
    ("population.model.chains_prewarmed", "count"),
    ("crypto.rsa.signatures_setup", "count"),
    ("core.study.drive_s", "s"),
    ("core.study.cpu_util", "ratio"),
    ("core.study.sessions_per_s_2w", "1/s"),
    ("core.study.scaling_2w", "ratio"),
    ("crypto.rsa.signatures_drive", "count"),
    ("population.cache.hit_rate", "ratio"),
    ("population.cache.misses_drive", "count"),
    ("crypto.ctxcache.hit_rate", "ratio"),
    ("tls.server.configs_built", "count"),
    ("core.store.records", "count"),
    ("core.store.failures", "count"),
    ("core.store.malformed_uploads", "count"),
    ("core.store.distinct_chains", "count"),
    ("core.store.chain_dedup", "ratio"),
    ("core.store.ops_failed_share", "ratio"),
    ("netsim.dial_ns", "ns"),
    ("tls.handshake_ns", "ns"),
    ("core.http.upload_ns", "ns"),
    ("core.report.ingest_ns", "ns"),
    ("core.session.unattributed_ns", "ns"),
    ("core.tables.busy_s", "s"),
    ("core.negligence.busy_s", "s"),
    ("core.malware.busy_s", "s"),
    ("core.audit.busy_s", "s"),
    ("mitigation.eval.busy_s", "s"),
    ("trace.child_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Share of probe operations that ended in a typed failure: (probe
/// failures + abandoned shards) / (records + probe failures).
pub fn ops_failed_share(records: u64, probe_failures: u64, shard_failures: u64) -> f64 {
    ratio((probe_failures + shard_failures) as f64, (records + probe_failures) as f64)
}

/// The per-layer figures one traced child measured, in [`PER_LAYER`]
/// order minus the `trace.*` entries the parent adds. `setup_workers`
/// ran the setup; `reference` is the 2-worker drive's
/// `(seconds, impressions)`.
pub fn layers(
    rec: &Recorder,
    setup_workers: usize,
    output: &Output,
    reference: Option<(f64, u64)>,
    phases: Option<Phases>,
) -> Vec<(&'static str, f64)> {
    let keys = rec.counters("population.keys");
    let keys_s = rec.total_s("population.keys");
    let drive = rec.counters("core.study");
    let drive_s = rec.total_s("core.study");
    let rate_1w = ratio(output.impressions() as f64, drive_s);
    let rate_2w = reference.map_or(0.0, |(secs, imps)| ratio(imps as f64, secs));

    let sum = |f: &dyn Fn(&tlsfoe_core::study::StudyOutcome) -> u64| -> u64 {
        output.outcomes.iter().map(f).sum()
    };
    let records = sum(&|o| o.db.total());
    let failures = sum(&|o| o.db.failures().len() as u64);
    let shard_failures = sum(&|o| o.shard_failures.len() as u64);
    let logical = sum(&|o| o.db.logical_chain_bytes());
    let interned = sum(&|o| o.db.interned_chain_bytes());

    let unattributed = match phases {
        Some(p) if rate_1w > 0.0 => 1e9 / rate_1w - p.total_ns(),
        _ => 0.0,
    };
    let p = |f: fn(&Phases) -> f64| phases.as_ref().map_or(0.0, f);

    vec![
        ("population.keys.busy_s", keys_s),
        ("population.keys.generated", keys.keys_generated as f64),
        ("population.keys.cpu_util", ratio(keys.cpu_s, keys_s * setup_workers as f64)),
        ("crypto.rsa.mr_runs_per_prime", ratio(keys.mr_runs as f64, keys.primes as f64)),
        ("core.hosts.busy_s", rec.total_s("core.hosts")),
        ("population.model.busy_s", rec.total_s("population.model")),
        ("population.model.warm_substitutes_s", rec.total_s("population.model.warm_substitutes")),
        ("population.model.chains_prewarmed", rec.counters("population.model").subst_misses as f64),
        ("crypto.rsa.signatures_setup", rec.counters("setup").signatures as f64),
        ("core.study.drive_s", drive_s),
        ("core.study.cpu_util", ratio(drive.cpu_s, drive_s * DRIVE_WORKERS as f64)),
        ("core.study.sessions_per_s_2w", rate_2w),
        ("core.study.scaling_2w", ratio(rate_2w, rate_1w)),
        ("crypto.rsa.signatures_drive", drive.signatures as f64),
        (
            "population.cache.hit_rate",
            ratio(drive.subst_hits as f64, (drive.subst_hits + drive.subst_misses) as f64),
        ),
        ("population.cache.misses_drive", drive.subst_misses as f64),
        (
            "crypto.ctxcache.hit_rate",
            ratio(drive.ctx_hits as f64, (drive.ctx_hits + drive.ctx_misses) as f64),
        ),
        ("tls.server.configs_built", drive.configs_built as f64),
        ("core.store.records", records as f64),
        ("core.store.failures", failures as f64),
        ("core.store.malformed_uploads", sum(&|o| o.db.malformed_uploads()) as f64),
        ("core.store.distinct_chains", sum(&|o| o.db.distinct_substitutes() as u64) as f64),
        ("core.store.chain_dedup", ratio(logical as f64, interned as f64)),
        ("core.store.ops_failed_share", ops_failed_share(records, failures, shard_failures)),
        ("netsim.dial_ns", p(|p| p.dial_ns)),
        ("tls.handshake_ns", p(|p| p.handshake_ns)),
        ("core.http.upload_ns", p(|p| p.upload_ns)),
        ("core.report.ingest_ns", p(|p| p.ingest_ns)),
        ("core.session.unattributed_ns", unattributed),
        ("core.tables.busy_s", rec.total_s("core.tables")),
        ("core.negligence.busy_s", rec.total_s("core.negligence")),
        ("core.malware.busy_s", rec.total_s("core.malware")),
        ("core.audit.busy_s", rec.total_s("core.audit")),
        ("mitigation.eval.busy_s", rec.total_s("mitigation.eval")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;
    use tlsfoe_core::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for w in ALL {
            assert!(valid_name(w.name()), "bad workload name {}", w.name());
        }
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, Option<String>)> {
        let Some(Json::Arr(items)) = manifest.get(key) else { panic!("{key} is not a list") };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("entry has a name");
                (name.to_string(), m.get("unit").and_then(Json::as_str).map(str::to_string))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_in_code() {
        let m = manifest();
        let code = |ms: &[Metric]| -> Vec<(String, Option<String>)> {
            ms.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
        };
        assert_eq!(listed(&m, "end_to_end"), code(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), code(PER_LAYER));
        let workloads: Vec<String> = listed(&m, "workloads").into_iter().map(|(n, _)| n).collect();
        let in_code: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, in_code);
    }

    #[test]
    fn a_traced_child_reports_every_layer_the_parent_does_not() {
        let rec = Recorder::new(false);
        let output = Output { outcomes: Vec::new(), text: None };
        let names: Vec<&str> = layers(&rec, 2, &output, None, None).iter().map(|l| l.0).collect();
        let expected: Vec<&str> =
            PER_LAYER.iter().map(|m| m.0).filter(|n| !n.starts_with("trace.")).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn ops_failed_share_counts_failures_against_attempts() {
        assert_eq!(ops_failed_share(0, 0, 0), 0.0);
        assert_eq!(ops_failed_share(1000, 0, 0), 0.0);
        // 931 typed failures next to 99_069 records: 931 / 100_000.
        assert!((ops_failed_share(99_069, 931, 0) - 0.00931).abs() < 1e-12);
        // An abandoned shard counts once on top of its probe failures.
        assert!((ops_failed_share(90, 10, 1) - 0.11).abs() < 1e-12);
    }
}
