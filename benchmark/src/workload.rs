//! The three workloads: what each sets up, what its body runs, and how
//! its output is hashed and checked.
//!
//! Configs set only user-facing fields (`threads`, `proxy_boost`,
//! `faults`, `retry`, `shard_fault_budget`) on top of
//! `StudyConfig::study1/2`, so drive modes, batch sizes and cache knobs
//! stay whatever the library defaults to, and a change to them is
//! measured rather than bypassed.

use std::fmt::Write as _;
use std::io;

use tlsfoe_core::session::RetryPolicy;
use tlsfoe_core::study::{run_study, StudyConfig, StudyOutcome};
use tlsfoe_core::{analysis, audit, baseline, hosts, malware, negligence, tables, HostCatalog};
use tlsfoe_crypto::sha256::Sha256;
use tlsfoe_mitigation::eval;
use tlsfoe_netsim::FaultProfile;
use tlsfoe_population::keys;
use tlsfoe_population::model::{PopulationModel, StudyEra};

use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `exp_all` at scale 60: six study drives plus every table.
    PaperE2e,
    /// Study 1 at scale 8, fault-free: the per-session fast path.
    BulkSessions,
    /// `BulkSessions`' impressions under 5% uniform faults with retries.
    ChaosRetry,
}

pub const ALL: [Workload; 3] = [Workload::PaperE2e, Workload::BulkSessions, Workload::ChaosRetry];

/// `exp_all`'s default paper-regeneration scale.
const PAPER_SCALE: u32 = 60;

/// A host catalog a workload's studies probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Catalog {
    Study1,
    Study2,
    Baseline,
}

impl Catalog {
    fn era(self) -> StudyEra {
        match self {
            Catalog::Study2 => StudyEra::Study2,
            Catalog::Study1 | Catalog::Baseline => StudyEra::Study1,
        }
    }

    fn build(self) -> HostCatalog {
        match self {
            Catalog::Study1 => HostCatalog::study1(),
            Catalog::Study2 => HostCatalog::study2(),
            Catalog::Baseline => HostCatalog::baseline(),
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperE2e => "paper_e2e",
            Workload::BulkSessions => "bulk_sessions",
            Workload::ChaosRetry => "chaos_retry",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn catalogs(self) -> &'static [Catalog] {
        match self {
            Workload::PaperE2e => &[Catalog::Study1, Catalog::Study2, Catalog::Baseline],
            Workload::BulkSessions | Workload::ChaosRetry => &[Catalog::Study1],
        }
    }

    /// The single study a workload drives (`None` for `paper_e2e`,
    /// which drives six).
    fn study(self, seed: u64, workers: usize) -> Option<StudyConfig> {
        match self {
            Workload::PaperE2e => None,
            Workload::BulkSessions => {
                Some(StudyConfig { threads: workers, ..StudyConfig::study1(8, seed) })
            }
            Workload::ChaosRetry => Some(StudyConfig {
                threads: workers,
                faults: FaultProfile::uniform(0.05),
                retry: RetryPolicy::standard(),
                shard_fault_budget: u64::MAX,
                ..StudyConfig::study1(8, seed)
            }),
        }
    }
}

/// What setup built: the catalogs and one population model per era.
pub struct Setup {
    catalogs: Vec<(Catalog, HostCatalog)>,
    models: Vec<(StudyEra, PopulationModel)>,
}

impl Setup {
    fn catalog(&self, which: Catalog) -> Result<&HostCatalog, String> {
        self.catalogs
            .iter()
            .find(|(c, _)| *c == which)
            .map(|(_, c)| c)
            .ok_or("catalog not set up".into())
    }

    fn model(&self, era: StudyEra) -> Result<&PopulationModel, String> {
        self.models.iter().find(|(e, _)| *e == era).map(|(_, m)| m).ok_or("model not set up".into())
    }
}

/// Generate every key, build every catalog and model, and mint every
/// prewarmable substitute chain the workload's studies will touch.
/// Each of these fills a process-wide cache that the study drives then
/// hit, so this is the cold-start cost a user pays once per process.
pub fn setup(rec: &mut Recorder, workload: Workload, workers: usize) -> Setup {
    let catalogs = workload.catalogs();
    let mut eras: Vec<StudyEra> = Vec::new();
    for c in catalogs {
        if !eras.contains(&c.era()) {
            eras.push(c.era());
        }
    }
    rec.span("population.keys", |_| {
        let mut specs = Vec::new();
        for &c in catalogs {
            specs.extend(hosts::prewarm_key_specs(c == Catalog::Baseline, c.era()));
        }
        for &era in &eras {
            specs.extend(keys::product_key_specs(era));
        }
        keys::warm_keys(&specs, workers);
    });
    let catalogs: Vec<(Catalog, HostCatalog)> =
        rec.span("core.hosts", |_| catalogs.iter().map(|&c| (c, c.build())).collect());
    let models = rec.span("population.model", |rec| {
        eras.iter()
            .filter_map(|&era| {
                let (_, first) = catalogs.iter().find(|(c, _)| c.era() == era)?;
                let model = PopulationModel::new(era, first.public_roots.clone());
                let hosts: Vec<&str> = catalogs
                    .iter()
                    .filter(|(c, _)| c.era() == era)
                    .flat_map(|(_, cat)| cat.hosts.iter().map(|h| h.name))
                    .collect();
                rec.span("population.model.warm_substitutes", |_| {
                    model.warm_substitutes(&hosts, workers)
                });
                Some((era, model))
            })
            .collect()
    });
    Setup { catalogs, models }
}

/// What a body produced: every study it drove (in drive order) and, for
/// `paper_e2e`, the rendered report.
pub struct Output {
    pub outcomes: Vec<StudyOutcome>,
    pub text: Option<String>,
}

impl Output {
    pub fn impressions(&self) -> u64 {
        self.outcomes.iter().map(StudyOutcome::impressions).sum()
    }
}

/// One `run_study` call, as a `core.study` span.
pub fn drive(rec: &mut Recorder, cfg: &StudyConfig) -> Result<StudyOutcome, String> {
    rec.span("core.study", |_| run_study(cfg)).map_err(|e| format!("run_study: {e}"))
}

pub fn body(
    rec: &mut Recorder,
    workload: Workload,
    seed: u64,
    workers: usize,
    setup: &Setup,
) -> Result<Output, String> {
    match workload.study(seed, workers) {
        None => paper(rec, seed, workers, setup),
        Some(cfg) => Ok(Output { outcomes: vec![drive(rec, &cfg)?], text: None }),
    }
}

/// The `exp_all` pipeline, rendered byte for byte as `exp_all` prints
/// it at scale 60 (`TLSFOE_SCALE=60 TLSFOE_SEED=<seed> exp_all`).
fn paper(rec: &mut Recorder, seed: u64, workers: usize, setup: &Setup) -> Result<Output, String> {
    let scale = PAPER_SCALE;
    let cfg1 = StudyConfig { threads: workers, ..StudyConfig::study1(scale, seed) };
    let cfg2 = StudyConfig { threads: workers, ..StudyConfig::study2(scale, seed) };
    let boosted = |cfg: &StudyConfig| StudyConfig { proxy_boost: scale as f64, ..cfg.clone() };
    let mut out = format!(
        "=== ALL EXPERIMENTS ===  (scale 1/{scale}, seed {seed}, paper: O'Neill et al., IMC 2016)\n"
    );
    let mut table = |rec: &mut Recorder, render: &dyn Fn() -> String| {
        let text = rec.span("core.tables", |_| render());
        out.push_str(&text);
        out.push('\n');
    };

    table(rec, &tables::table1);
    let s1 = drive(rec, &cfg1)?;
    let s2 = drive(rec, &cfg2)?;
    table(rec, &|| tables::table2(&s2));
    table(rec, &|| {
        tables::table_by_country(&s1.db, "Table 3: Proxied connections by country (study 1)")
    });
    table(rec, &|| study_line(1, &s1));
    table(rec, &|| tables::table4(&s1.db));
    table(rec, &|| {
        tables::table_classification(&s1.db, "Table 5: Classification of claimed issuer (study 1)")
    });
    table(rec, &|| {
        tables::table_classification(&s2.db, "Table 6: Classification of claimed issuer (study 2)")
    });
    table(rec, &|| {
        tables::table_by_country(&s2.db, "Table 7: Connections tested by country (study 2)")
    });
    table(rec, &|| study_line(2, &s2));
    table(rec, &|| tables::table8(&s2.db));
    let min_total = (2000 / scale as u64).max(50);
    table(rec, &|| tables::figure7(&s2.db, min_total).0);

    let s1b = drive(rec, &boosted(&cfg1))?;
    let s2b = drive(rec, &boosted(&cfg2))?;
    let ca = keys::keypair(keys::server_seed(9_999), 1024);
    let real_cas = [("DigiCert Inc", &ca.public)];
    let neg = rec.span("core.negligence", |_| negligence::analyze(&s1b.db, &real_cas));
    table(rec, &|| tables::negligence_report(&neg));
    let mal = rec.span("core.malware", |_| malware::analyze(&s2b.db, 5));
    table(rec, &|| tables::malware_report(&mal));

    let model1 = setup.model(StudyEra::Study1)?;
    let rows = rec.span("core.audit", |_| audit::audit_catalog(model1, audit::AUDITED_PRODUCTS));
    table(rec, &|| tables::audit_table(&rows));
    let catalog2 = setup.catalog(Catalog::Study2)?;
    let genuine = &catalog2.hosts.first().ok_or("study-2 catalog has no host")?.chain;
    let model2 = setup.model(StudyEra::Study2)?;
    let mitigations =
        rec.span("mitigation.eval", |_| eval::render(&eval::evaluate(model2, genuine)));
    table(rec, &|| mitigations.clone());

    // `baseline::compare`, with its two drives timed one by one.
    let ours = drive(rec, &cfg1)?;
    let huang = drive(rec, &StudyConfig { baseline: true, ..cfg1.clone() })?;
    let cmp = baseline::BaselineComparison { ours, huang };
    writeln!(
        out,
        "Baseline comparison (§8): ours {:.3}% vs Huang-style {:.3}% — ratio {:.2}x (paper: 0.41% vs 0.20%, ~2x)",
        cmp.our_rate() * 100.0,
        cmp.huang_rate() * 100.0,
        cmp.ratio()
    )
    .map_err(|e| e.to_string())?;
    let baseline::BaselineComparison { ours, huang } = cmp;
    Ok(Output { outcomes: vec![s1, s2, s1b, s2b, ours, huang], text: Some(out) })
}

fn study_line(n: u32, s: &StudyOutcome) -> String {
    format!(
        "study {n}: {} measurements, {} proxied ({:.2}%), {} countries with proxies\n",
        s.db.total(),
        s.db.proxied(),
        s.db.proxied_rate() * 100.0,
        analysis::proxied_country_count(&s.db)
    )
}

/// `io::Write` into a running SHA-256.
struct HashWriter(Sha256);

impl io::Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn campaign_rows(o: &StudyOutcome) -> String {
    o.campaigns
        .iter()
        .map(|c| {
            format!("{} {} {} {:016x}\n", c.name, c.impressions, c.clicks, c.cost_usd.to_bits())
        })
        .collect()
}

/// SHA-256 of every study the body drove: campaign rows, records
/// (`write_jsonl`), typed probe failures, malformed-upload count and
/// shard failures.
pub fn digest(output: &Output) -> Result<String, String> {
    let mut h = HashWriter(Sha256::new());
    for o in &output.outcomes {
        h.0.update(campaign_rows(o).as_bytes());
        o.db.write_jsonl(&mut h).map_err(|e| e.to_string())?;
        h.0.update(format!("{:?}\n", o.db.failures()).as_bytes());
        h.0.update(format!("malformed {}\n", o.db.malformed_uploads()).as_bytes());
        h.0.update(format!("{:?}\n", o.shard_failures).as_bytes());
    }
    Ok(hex(h.0.finalize()))
}

/// The counts of every study the body drove: impressions, records,
/// proxied records, probe failures, malformed uploads, shard failures.
/// Free to compute, so every child reports it and a run's children must
/// agree on it.
pub fn fingerprint(output: &Output) -> String {
    let per_study = output.outcomes.iter().map(|o| {
        let db = &o.db;
        let counts = [db.total(), db.proxied(), db.failed(), db.malformed_uploads()];
        format!("{} {counts:?} {}", o.impressions(), o.shard_failures.len())
    });
    per_study.collect::<Vec<_>>().join("; ")
}

/// SHA-256 of `paper_e2e`'s rendered report, which equals `exp_all`'s
/// stdout. Checked only against golden digests: `analysis::by_country`
/// orders countries tied on (proxied, total) by hash-map iteration, so
/// on seeds with such a tie in Tables 3/7 the text differs from process
/// to process while the studies beneath it do not.
pub fn text_digest(output: &Output) -> Option<String> {
    output.text.as_ref().map(|t| hex(tlsfoe_crypto::sha256::sha256(t.as_bytes())))
}

/// Properties every seed's output must have, whatever its digest.
pub fn invariant_violations(workload: Workload, output: &Output) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, o) in output.outcomes.iter().enumerate() {
        if o.db.total() == 0 {
            bad.push(format!("drive {i} measured nothing"));
        }
        let faulted = workload == Workload::ChaosRetry;
        if !faulted && (o.db.failed() > 0 || !o.shard_failures.is_empty()) {
            bad.push(format!("fault-free drive {i} recorded failures"));
        }
        if faulted && o.db.failed() == 0 {
            bad.push(format!("faulted drive {i} recorded no probe failure"));
        }
    }
    if let Some(text) = &output.text {
        if !text.contains("Baseline comparison (§8)") {
            bad.push("report is missing the baseline comparison".into());
        }
    }
    bad
}

/// The body's single study again at 2 workers: same inputs, so its
/// digest must equal the body's.
pub fn reference_2w(rec: &mut Recorder, workload: Workload, seed: u64) -> Result<Output, String> {
    let cfg = workload.study(seed, 2).ok_or("no single-study body to repeat")?;
    let outcome = rec.span("core.study.2w", |_| run_study(&cfg)).map_err(|e| e.to_string())?;
    Ok(Output { outcomes: vec![outcome], text: None })
}
