//! # tlsfoe-bench
//!
//! Experiment harnesses (one `exp_*` binary per paper table/figure),
//! `exp_perf` with its self-checking perf gate ([`perf_gate`]), and the
//! `key_hints` tool.
//!
//! Every experiment accepts the environment variables:
//!
//! * `TLSFOE_SCALE` — budget divisor vs the paper's campaigns
//!   (default 20 ⇒ ~1/20th of the paper's impressions; rates are
//!   scale-invariant),
//! * `TLSFOE_SEED` — root seed (default 2014),
//! * `TLSFOE_THREADS` — shards per study, one OS thread each (default:
//!   all cores; studies under 256 impressions run as one shard; results
//!   are bit-identical for any value).
//!
//! Run everything: `cargo run -p tlsfoe-bench --release --bin exp_all`.

#![forbid(unsafe_code)]

pub mod harness;
pub mod perf_gate;

use std::sync::OnceLock;

use tlsfoe_core::study::{run_study, StudyConfig, StudyOutcome};
use tlsfoe_population::model::StudyEra;

/// Budget divisor vs the paper's campaigns (`TLSFOE_SCALE`, default 20).
pub fn scale() -> u32 {
    std::env::var("TLSFOE_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(20)
}

/// Root seed (`TLSFOE_SEED`, default 2014).
pub fn seed() -> u64 {
    std::env::var("TLSFOE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(2014)
}

/// Shards per study, one OS thread each (`TLSFOE_THREADS`, default: all
/// cores).
pub fn threads() -> usize {
    std::env::var("TLSFOE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// Study config for an era at the environment's scale.
pub fn config(era: StudyEra) -> StudyConfig {
    StudyConfig {
        era,
        scale: scale(),
        seed: seed(),
        threads: threads(),
        baseline: false,
        proxy_boost: 1.0,
        faults: tlsfoe_netsim::FaultProfile::none(),
        retry: tlsfoe_core::session::RetryPolicy::disabled(),
        shard_fault_budget: 0,
        max_net_events: None,
    }
}

/// Unwrap an experiment-level result, exiting the process with the
/// failure context otherwise (a livelocked conduit must fail the whole
/// experiment visibly, not abort a worker thread).
pub fn or_die<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("[tlsfoe] fatal: {e}");
        std::process::exit(2);
    })
}

/// Run a study via [`or_die`].
pub fn must_run(cfg: &StudyConfig) -> StudyOutcome {
    or_die(run_study(cfg))
}

fn study1_cell() -> &'static OnceLock<StudyOutcome> {
    static CELL: OnceLock<StudyOutcome> = OnceLock::new();
    &CELL
}

fn study2_cell() -> &'static OnceLock<StudyOutcome> {
    static CELL: OnceLock<StudyOutcome> = OnceLock::new();
    &CELL
}

fn boosted_cell(era: StudyEra) -> &'static OnceLock<StudyOutcome> {
    static CELL1: OnceLock<StudyOutcome> = OnceLock::new();
    static CELL2: OnceLock<StudyOutcome> = OnceLock::new();
    match era {
        StudyEra::Study1 => &CELL1,
        StudyEra::Study2 => &CELL2,
    }
}

/// Interception-oversampled run (substitute-corpus analyses: §5.1, §5.2,
/// §6.4). The boost matches the scale divisor, so the substitute corpus
/// is approximately paper-sized; prevalence tables must NOT use this.
pub fn study_boosted(era: StudyEra) -> &'static StudyOutcome {
    boosted_cell(era).get_or_init(|| {
        let mut cfg = config(era);
        cfg.proxy_boost = scale() as f64;
        eprintln!(
            "[tlsfoe] running {:?} with interception x{} (substitute-corpus mode)…",
            era, cfg.proxy_boost
        );
        must_run(&cfg)
    })
}

/// Run (once per process) and return study 1.
pub fn study1() -> &'static StudyOutcome {
    study1_cell().get_or_init(|| {
        eprintln!(
            "[tlsfoe] running study 1 (scale 1/{}, seed {}, {} threads)…",
            scale(),
            seed(),
            threads()
        );
        must_run(&config(StudyEra::Study1))
    })
}

/// Run (once per process) and return study 2.
pub fn study2() -> &'static StudyOutcome {
    study2_cell().get_or_init(|| {
        eprintln!(
            "[tlsfoe] running study 2 (scale 1/{}, seed {}, {} threads)…",
            scale(),
            seed(),
            threads()
        );
        must_run(&config(StudyEra::Study2))
    })
}

/// Read one `kB`-valued field (e.g. `VmHWM`, `VmRSS`) from
/// `/proc/self/status`. Returns `None` off Linux or if the field is
/// absent — callers print `n/a` instead of failing, so the scale
/// benches stay portable.
fn proc_status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.strip_prefix(':')?;
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Peak resident set size of this process in kB (`VmHWM`): the
/// high-water mark the kernel tracked, which is what the million-client
/// memory claims are measured against.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_kb("VmHWM")
}

/// Current resident set size of this process in kB (`VmRSS`).
pub fn current_rss_kb() -> Option<u64> {
    proc_status_kb("VmRSS")
}

/// Banner with the run parameters, printed by every experiment.
pub fn banner(what: &str) -> String {
    format!(
        "=== {what} ===  (scale 1/{}, seed {}, paper: O'Neill et al., IMC 2016)\n",
        scale(),
        seed()
    )
}

/// The simulated real-CA key set used by the negligence analyzer's
/// forged-issuer check (the study's hosts chain to this CA).
pub fn real_ca_keys() -> Vec<(&'static str, tlsfoe_crypto::RsaPublicKey)> {
    let ca = tlsfoe_population::keys::keypair(tlsfoe_population::keys::server_seed(9_999), 1024);
    vec![("DigiCert Inc", ca.public.clone())]
}
