//! Full study orchestration: campaigns → impressions → sessions → database.
//!
//! Reproduces both §4 deployments end to end:
//!
//! * **Study 1** (January 2014): one global campaign, one probed host.
//! * **Study 2** (October 2014): a global campaign plus five
//!   country-targeted mini-campaigns, 17 probed hosts.
//!
//! A `scale` divisor shrinks ad budgets (and therefore impression
//! counts) so the studies run at laptop scale; *rates* are
//! scale-invariant, which is what the paper's tables report.
//!
//! Sharding: impressions are split into contiguous shards, one OS thread
//! each; every impression's randomness is derived from `(seed,
//! impression index)`, and all shards share one [`PopulationModel`],
//! built once per run, and the study's host catalog, built once per
//! process. The product factories and the substitute-chain cache behind
//! the model are process-wide too, shared with every other study in the
//! process, and results are bit-identical regardless of thread count
//! (the cache's determinism contract, `tlsfoe_population::cache`, is
//! what makes the sharing safe). Each shard owns one long-lived network
//! and a private [`Database`]; shards 1.. are merged into shard 0's
//! database in shard order.

use std::rc::Rc;

use tlsfoe_adsim::{Campaign, Inventory};
use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_geo::countries::{by_code, CountryCode};
use tlsfoe_geo::GeoDb;
use tlsfoe_netsim::{FaultProfile, NetRunError, Shared};
use tlsfoe_population::model::{ClientProfile, PopulationModel, StudyEra};

use crate::hosts::HostCatalog;
use crate::report::{Database, ReportServer};
use crate::session::{RetryPolicy, SessionRunner};

/// One shard abandoning its remaining impressions: the network drive
/// tripped its event cap (livelocked conduit or a cap shrunk by a chaos
/// sweep). The shard's already-measured records survive — this is the
/// context for what was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Which shard (chunk index) failed.
    pub shard: usize,
    /// The global impression index being enqueued when the drive failed
    /// (for a failure in the final flush, the first impression past the
    /// shard's range).
    pub impression: u64,
    /// Country of that impression (`None` for a final-flush failure,
    /// which has no single impression to blame).
    pub country: Option<CountryCode>,
    /// The underlying network error.
    pub error: NetRunError,
}

impl core::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "shard {} failed at impression {}", self.shard, self.impression)?;
        if let Some(c) = self.country {
            write!(f, " ({})", tlsfoe_geo::countries::info(c).code)?;
        }
        write!(f, ": {}", self.error)
    }
}

/// A study failed in a way the orchestrator can report with context
/// (instead of a worker thread aborting the process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// More shards abandoned their impression ranges than
    /// [`StudyConfig::shard_fault_budget`] tolerates. Carries every
    /// shard's failure context (shard index, impression, country).
    FaultBudget {
        /// Each failed shard's context.
        failures: Vec<ShardFailure>,
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl core::fmt::Display for StudyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StudyError::FaultBudget { failures, budget } => {
                write!(f, "{} shard(s) failed (budget {budget})", failures.len())?;
                for fail in failures {
                    write!(f, "; {fail}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StudyError {}

/// Per-country geo block size (must exceed the largest per-study
/// impression count so client IPs stay distinct).
const GEO_BLOCK: u32 = 8_000_000;

/// Studies with fewer impressions run as one shard whatever
/// [`StudyConfig::threads`] asks for.
const MIN_SHARDED_IMPRESSIONS: usize = 256;

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Which study to reproduce.
    pub era: StudyEra,
    /// Budget divisor (20 ⇒ 1/20th of the paper's impressions).
    pub scale: u32,
    /// Root seed for all randomness.
    pub seed: u64,
    /// Shards the impressions are split into, one OS thread each (1 =
    /// fully serial). The calling thread drives shard 0, so `threads: n`
    /// spawns `n - 1` threads. Studies with fewer than 256 impressions
    /// always run as one shard. Before the sessions start, every key the
    /// study can touch is generated across `threads` workers and, with
    /// more than one shard, every deterministic substitute chain is
    /// pre-minted the same way. Results are bit-identical for any value.
    pub threads: usize,
    /// Use the Huang-et-al. baseline methodology (probe only a
    /// mega-popular whitelisted host) instead of the paper's catalog.
    pub baseline: bool,
    /// Interception oversampling factor (default 1.0). The §5.2/§6.4
    /// analyzers study *substitute certificates*; boosting the per-country
    /// interception rate collects a paper-sized substitute corpus from a
    /// scaled-down ad budget without touching the product mix. Prevalence
    /// tables (3/7/8) must use 1.0.
    pub proxy_boost: f64,
    /// Fault injection applied to each shard network's one link
    /// (default [`FaultProfile::none`], which samples no fault DRBGs and
    /// leaves the event stream byte-identical to a fault-free build).
    pub faults: FaultProfile,
    /// Session retry/timeout policy (default [`RetryPolicy::disabled`]:
    /// no timers, byte-identical to the retry-free path).
    pub retry: RetryPolicy,
    /// How many shards may abandon their impression range (event-cap
    /// trip) before the whole study errors. Within budget the study
    /// completes with a partial database plus per-shard failure context
    /// in [`StudyOutcome::shard_failures`]. Default 0: any shard failure
    /// fails the study, matching the old fail-fast behavior.
    pub shard_fault_budget: u64,
    /// Override each shard network's per-drive event cap (`None` keeps
    /// the netsim default). Chaos sweeps and degradation tests shrink it
    /// to force `NetRunError`s on demand.
    pub max_net_events: Option<u64>,
}

impl StudyConfig {
    /// Study 1 at the given scale.
    pub fn study1(scale: u32, seed: u64) -> StudyConfig {
        StudyConfig {
            era: StudyEra::Study1,
            scale,
            seed,
            threads: default_threads(),
            baseline: false,
            proxy_boost: 1.0,
            faults: FaultProfile::none(),
            retry: RetryPolicy::disabled(),
            shard_fault_budget: 0,
            max_net_events: None,
        }
    }

    /// Study 2 at the given scale.
    pub fn study2(scale: u32, seed: u64) -> StudyConfig {
        StudyConfig {
            era: StudyEra::Study2,
            scale,
            seed,
            threads: default_threads(),
            baseline: false,
            proxy_boost: 1.0,
            faults: FaultProfile::none(),
            retry: RetryPolicy::disabled(),
            shard_fault_budget: 0,
            max_net_events: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// A Table-2 row.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Campaign name.
    pub name: String,
    /// Impressions served.
    pub impressions: u64,
    /// Clicks.
    pub clicks: u64,
    /// Spend in USD.
    pub cost_usd: f64,
}

/// Everything a study produces.
#[derive(Debug)]
pub struct StudyOutcome {
    /// Per-campaign statistics (Table 2).
    pub campaigns: Vec<CampaignStats>,
    /// The measurement database (input to every analysis table).
    pub db: Database,
    /// Shards that abandoned their impression range (within the
    /// configured fault budget). Empty on a healthy run.
    pub shard_failures: Vec<ShardFailure>,
}

impl StudyOutcome {
    /// Total impressions across campaigns.
    pub fn impressions(&self) -> u64 {
        self.campaigns.iter().map(|c| c.impressions).sum()
    }
}

/// The study's campaigns at the configured scale.
fn build_campaigns(cfg: &StudyConfig) -> Vec<Campaign> {
    let scale = cfg.scale.max(1) as f64;
    let shrink = |mut c: Campaign| {
        c.daily_budget_usd /= scale;
        c
    };
    match cfg.era {
        StudyEra::Study1 => vec![shrink(Campaign::study1())],
        StudyEra::Study2 => {
            let mut v = vec![shrink(Campaign::study2_global())];
            for (name, code) in [
                ("China", "CN"),
                ("Egypt", "EG"),
                ("Pakistan", "PK"),
                ("Russia", "RU"),
                ("Ukraine", "UA"),
            ] {
                v.push(shrink(Campaign::study2_country(
                    name,
                    by_code(code).expect("targeted country registered"),
                )));
            }
            v
        }
    }
}

/// Run a complete study.
pub fn run_study(cfg: &StudyConfig) -> Result<StudyOutcome, StudyError> {
    // Phase 1: ad delivery.
    let inventory = match cfg.era {
        StudyEra::Study1 => Inventory::study1_global(),
        StudyEra::Study2 => Inventory::study2_global(),
    };
    let mut ad_rng = Drbg::new(cfg.seed).fork("adsim");
    let campaigns = build_campaigns(cfg);
    let mut stats = Vec::new();
    let mut impressions: Vec<CountryCode> = Vec::new();
    for c in &campaigns {
        let out = c.run(&inventory, &mut ad_rng);
        stats.push(CampaignStats {
            name: out.name.clone(),
            impressions: out.impressions.len() as u64,
            clicks: out.clicks,
            cost_usd: out.cost_usd,
        });
        impressions.extend(out.impressions.iter().map(|i| i.country));
    }

    // Phase 2: measurement sessions, sharded by impression index. The
    // population model is built ONCE and shared by every shard, with the
    // process's one copy of the study's host catalog; the model's
    // process-wide factories and substitute cache are the cross-thread
    // state that stops shard N re-minting (at RSA-signature cost) the
    // per-host chains shard M already built.
    let threads = cfg.threads.max(1);
    // Pre-pay every RSA keygen the run can touch — catalog CA/host keys
    // (otherwise generated serially by the process's first build of the
    // catalog below), product roots and the leaf slots the catalog's
    // hosts select (otherwise generated on first interception, blocking
    // a session) — across all worker threads. Slots no probed host
    // selects are never generated (see `hosts::prewarm_key_specs`). Keys
    // are pure functions of (seed, bits), so warming cannot change any
    // output byte.
    let mut specs = crate::hosts::prewarm_key_specs(cfg.baseline, cfg.era);
    specs.extend(tlsfoe_population::keys::product_key_specs(cfg.era));
    tlsfoe_population::keys::warm_keys(&specs, threads);
    let catalog = HostCatalog::for_study(cfg.baseline, cfg.era);
    let model = PopulationModel::new(cfg.era, catalog.public_roots.clone());
    let shards = if impressions.len() < MIN_SHARDED_IMPRESSIONS { 1 } else { threads };
    if shards > 1 {
        // Build every era-active product factory and pre-mint every
        // deterministic variant-0 substitute chain the session phase can
        // request lazily (active product × probed host), in parallel
        // across the shards' threads. Factories and chains are pure
        // functions of their product and cache key, so warming cannot
        // change any output byte — it only moves the root and per-chain
        // RSA signatures off the session hot path (where a miss stalls
        // every shard that needs the chain) into startup, where they mint
        // embarrassingly parallel. One shard skips it: with one worker
        // there is no contention to avoid, and chains the run never
        // requests would be paid for with nothing to amortize them
        // against (measured +68% on the single-threaded `session_ns`
        // series when warmed unconditionally).
        let hosts: Vec<&str> = catalog.hosts.iter().map(|h| h.name).collect();
        model.warm_substitutes(&hosts, shards);
    }
    let chunk_size = impressions.len().div_ceil(shards).max(1);
    let (catalog, model) = (&catalog, &model);
    // Shard 0 runs on the calling thread; only shards 1.. spawn. A drive
    // that spawned every shard measured about 6 MB more peak RSS on each
    // benchmark workload, all of which drive one shard per study (study
    // 1 at scale 8: 44.4 vs 37.9 MB); running shard 0 inline restores
    // the lower figure.
    let results: Vec<(Database, Option<ShardFailure>)> = std::thread::scope(|s| {
        let mut chunks = impressions.chunks(chunk_size).enumerate();
        let first = chunks.next();
        let spawned: Vec<_> = chunks
            .map(|(i, chunk)| {
                s.spawn(move || run_shard(cfg, catalog, model, chunk, (i * chunk_size) as u64, i))
            })
            .collect();
        let mut results: Vec<_> = first
            .map(|(_, chunk)| run_shard(cfg, catalog, model, chunk, 0, 0))
            .into_iter()
            .collect();
        results.extend(spawned.into_iter().map(|h| h.join().expect("shard panicked")));
        results
    });
    // Every shard's partial database is merged before the budget check:
    // a tripped shard loses its remaining range, never its siblings'
    // work (graceful degradation, not fail-fast). Shards 1.. merge into
    // shard 0's database: a one-shard drive then copies no column, and a
    // sharded one never holds a second copy of shard 0's.
    let mut shard_failures = Vec::new();
    let db = results
        .into_iter()
        .map(|(shard_db, failure)| {
            shard_failures.extend(failure);
            shard_db
        })
        .reduce(|mut db, shard_db| {
            db.merge(shard_db);
            db
        })
        .unwrap_or_default();
    if shard_failures.len() as u64 > cfg.shard_fault_budget {
        return Err(StudyError::FaultBudget {
            failures: shard_failures,
            budget: cfg.shard_fault_budget,
        });
    }

    Ok(StudyOutcome { campaigns: stats, db, shard_failures })
}

/// Process one contiguous range of impressions against the study's
/// catalog and the run-wide population model.
///
/// The shard owns exactly one [`SessionRunner`] — and through it exactly
/// one long-lived `Network` — for its whole impression range; sessions
/// are injected in batches into the shared event loop.
///
/// A network drive error (event-cap trip) abandons the shard's
/// *remaining* impressions but keeps everything measured so far: the
/// partial database is returned alongside the failure context, and the
/// caller decides — against the study's fault budget — whether the run
/// survives.
fn run_shard(
    cfg: &StudyConfig,
    catalog: &HostCatalog,
    model: &PopulationModel,
    countries: &[CountryCode],
    base_index: u64,
    shard: usize,
) -> (Database, Option<ShardFailure>) {
    let geo = GeoDb::allocate(GEO_BLOCK);
    let db = Shared::new(Database::new());
    let report = Rc::new(ReportServer::new(catalog, geo.clone(), db.clone()));
    let mut runner =
        SessionRunner::new(catalog.clone(), report).with_retry_policy(cfg.retry.clone());
    if cfg.era == StudyEra::Study1 && !cfg.baseline {
        // Study 1's single-probe completion rate: 2.86M measurements out
        // of 4.63M ads ≈ 61.7%.
        runner = runner.with_authors_completion(0.617);
    }
    // The shard's one link carries the study's fault profile (none by
    // default).
    runner.set_faults(cfg.faults.clone());
    if let Some(cap) = cfg.max_net_events {
        runner.set_max_events(cap);
    }

    for (offset, &country) in countries.iter().enumerate() {
        let idx = base_index + offset as u64;
        let (profile, mut rng) = derive_impression(cfg, model, &geo, idx, country);
        if let Err(error) = runner.enqueue_session(model, &profile, &mut rng, idx, cfg.seed ^ idx) {
            let failure = ShardFailure { shard, impression: idx, country: Some(country), error };
            let partial = std::mem::replace(&mut *db.lock(), Database::new());
            return (partial, Some(failure));
        }
    }
    if let Err(error) = runner.finish() {
        let impression = base_index + countries.len() as u64;
        let failure = ShardFailure { shard, impression, country: None, error };
        let partial = std::mem::replace(&mut *db.lock(), Database::new());
        return (partial, Some(failure));
    }

    let full = std::mem::replace(&mut *db.lock(), Database::new());
    (full, None)
}

/// Derive impression `idx`'s client profile and session RNG. Everything
/// comes from the impression's global identity `(cfg.seed, idx)` and its
/// country, never from which shard or batch happens to execute it.
fn derive_impression(
    cfg: &StudyConfig,
    model: &PopulationModel,
    geo: &GeoDb,
    idx: u64,
    country: CountryCode,
) -> (ClientProfile, Drbg) {
    let mut rng = Drbg::new(cfg.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
    // Distinct IP per impression (global index within country block).
    let ip = geo.client_addr(country, (idx % GEO_BLOCK as u64) as u32);
    let mut profile = if cfg.proxy_boost == 1.0 {
        model.sample_client(country, ip, &mut rng)
    } else {
        // Oversampled interception for substitute-corpus analyses.
        let rate = (model.proxy_rate(country) * cfg.proxy_boost).min(1.0);
        let product = rng.gen_bool(rate).then(|| model.sample_product(country, &mut rng));
        ClientProfile { country, ip, product }
    };
    // Single-origin products (corporate NAT egress): every client of
    // the product reports from one fixed address.
    if let Some(pid) = profile.product {
        if model.is_single_origin(pid) {
            profile.ip = geo.client_addr(country, 0);
        }
    }
    (profile, rng)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study1_runs_and_measures() {
        let cfg = StudyConfig { threads: 2, ..StudyConfig::study1(2000, 7) };
        let out = run_study(&cfg).expect("study runs");
        assert_eq!(out.campaigns.len(), 1);
        assert!(out.impressions() > 500, "impressions {}", out.impressions());
        assert!(out.db.total() > 200, "measurements {}", out.db.total());
        // Rate in the right regime (0.41% ± noise at tiny scale).
        let rate = out.db.proxied_rate();
        assert!(rate < 0.02, "rate {rate}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let base = StudyConfig::study1(20_000, 11);
        let a = run_study(&StudyConfig { threads: 1, ..base.clone() }).expect("study");
        let b = run_study(&StudyConfig { threads: 4, ..base }).expect("study");
        assert_eq!(a.impressions(), b.impressions());
        // Full-content equality: every record, every captured DER byte.
        assert_eq!(a.db, b.db);
    }

    #[test]
    fn shared_substitute_cache_bit_identical_across_thread_counts() {
        // Force heavy interception so the shared cache actually mints
        // many substitute chains, then require serial/8-thread runs to
        // agree byte-for-byte — the cache determinism contract (chains
        // are pure functions of their key, not of mint order). The
        // one-shard run mints on first interception every chain the
        // process has not minted yet, while the 8-shard run pre-mints
        // them before its sessions start: the prewarm may only move WHEN
        // a chain is minted.
        let base = StudyConfig { proxy_boost: 60.0, ..StudyConfig::study1(4_000, 23) };
        let lazy = run_study(&StudyConfig { threads: 1, ..base.clone() }).expect("study");
        let warm = run_study(&StudyConfig { threads: 8, ..base }).expect("study");
        assert!(
            lazy.impressions() >= MIN_SHARDED_IMPRESSIONS as u64,
            "the 8-thread run must shard and prewarm"
        );
        assert!(lazy.db.proxied() > 20, "need a substitute corpus, got {}", lazy.db.proxied());
        assert_eq!(lazy.db, warm.db);
    }

    #[test]
    fn batched_network_bit_identical_across_thread_counts() {
        // The shard-lifetime batched network's determinism contract:
        // the study Database must be bit-identical on one thread, three
        // or eight, whose shard boundaries cut the session batches at
        // different impressions — with heavy interception so proxies,
        // the substitute cache and the single-origin NAT path
        // (same-address collisions within a batch) are all exercised.
        let base = StudyConfig { proxy_boost: 60.0, ..StudyConfig::study1(8_000, 31) };
        let serial = run_study(&StudyConfig { threads: 1, ..base.clone() }).expect("study");
        let three = run_study(&StudyConfig { threads: 3, ..base.clone() }).expect("study");
        let eight = run_study(&StudyConfig { threads: 8, ..base }).expect("study");
        assert!(
            serial.impressions() >= MIN_SHARDED_IMPRESSIONS as u64,
            "the 3- and 8-thread runs must shard"
        );
        assert!(
            serial.db.proxied() > 10,
            "need proxied sessions in the batch mix, got {}",
            serial.db.proxied()
        );
        assert_eq!(serial.db, three.db, "three shards changed the database");
        assert_eq!(three.db, eight.db, "eight shards changed the database");
    }

    #[test]
    fn chaos_study_bit_identical_across_thread_counts() {
        // The fault-injection determinism contract: with faults and
        // retries active, the full study database — records, attempt
        // counts, typed failures — must be bit-identical whether
        // sessions run on one thread or sharded across three or eight,
        // whose shard boundaries cut the session batches at different
        // impressions. Per-connection fault streams derive from the
        // session identity and retry decisions from elapsed virtual
        // time, so nothing may depend on scheduling.
        let base = StudyConfig {
            faults: FaultProfile::uniform(0.05),
            retry: crate::session::RetryPolicy::standard(),
            ..StudyConfig::study1(3_000, 37)
        };
        let a = run_study(&StudyConfig { threads: 1, ..base.clone() }).expect("study");
        let b = run_study(&StudyConfig { threads: 3, ..base.clone() }).expect("study");
        let c = run_study(&StudyConfig { threads: 8, ..base }).expect("study");
        assert!(
            a.impressions() >= MIN_SHARDED_IMPRESSIONS as u64,
            "the 3- and 8-thread runs must shard"
        );
        assert!(
            a.db.failed() > 0 || a.db.iter().any(|r| r.attempts > 1),
            "chaos must actually bite (failures {} retried {})",
            a.db.failed(),
            a.db.iter().filter(|r| r.attempts > 1).count()
        );
        assert_eq!(a.db, b.db, "three shards changed a faulted database");
        assert_eq!(b.db, c.db, "eight shards changed a faulted database");
    }

    #[test]
    fn zero_fault_chaos_config_reproduces_plain_study() {
        // fault rates = 0 plus an armed retry policy must reproduce the
        // plain study bit for bit: no fault DRBGs are sampled, and every
        // retry check finds its probe already finished.
        let base = StudyConfig::study1(8_000, 41);
        let plain = run_study(&base).expect("study");
        let chaos = run_study(&StudyConfig {
            faults: FaultProfile::none(),
            retry: crate::session::RetryPolicy::standard(),
            shard_fault_budget: 8,
            ..base
        })
        .expect("study");
        assert!(plain.db.total() > 0);
        assert_eq!(plain.db, chaos.db, "zero-fault chaos config must be invisible");
        assert!(chaos.shard_failures.is_empty());
    }

    #[test]
    fn wedged_shard_does_not_poison_siblings() {
        // Regression (satellite): one shard tripping its event cap must
        // not disturb what a sibling shard measures — the shards share
        // the population model, key caches and substitute cache, and a
        // wedged network must leave all of that clean.
        let cfg = StudyConfig::study1(8_000, 43);
        let catalog = HostCatalog::study1();
        let model = PopulationModel::new(StudyEra::Study1, catalog.public_roots.clone());
        let us = by_code("US").unwrap();
        let de = by_code("DE").unwrap();
        // More impressions than one session batch, so an enqueue drives.
        let chunk_a = vec![us; 100];
        let chunk_b = vec![de; 100];

        // Solo baseline for the sibling's chunk.
        let (solo, f) = run_shard(&cfg, &catalog, &model, &chunk_b, 100, 1);
        assert!(f.is_none());

        // Wedge shard 0 (tiny per-drive event cap, so the first drive,
        // which the enqueue that fills the first batch starts, trips),
        // then run the sibling normally.
        let wedged_cfg = StudyConfig { max_net_events: Some(5), ..cfg.clone() };
        let (_partial, failure) = run_shard(&wedged_cfg, &catalog, &model, &chunk_a, 0, 0);
        let failure = failure.expect("a 5-event cap must trip on the first drive");
        assert_eq!(failure.shard, 0);
        assert!(failure.impression < 100, "an enqueue, not the final flush, must have tripped");
        assert_eq!(failure.country, Some(us));
        assert_eq!(failure.error.max_events, 5);

        let (after, f) = run_shard(&cfg, &catalog, &model, &chunk_b, 100, 1);
        assert!(f.is_none());
        assert_eq!(solo, after, "wedged shard poisoned its sibling's results");
    }

    #[test]
    fn fault_budget_gates_partial_completion() {
        // End-to-end degradation: with a tiny event cap every shard
        // abandons its range. Budget 0 fails the study but carries full
        // per-shard context; a generous budget completes the run with
        // the same failures attached to the outcome.
        let base =
            StudyConfig { threads: 4, max_net_events: Some(5), ..StudyConfig::study1(2_000, 47) };
        let err = run_study(&StudyConfig { shard_fault_budget: 0, ..base.clone() }).unwrap_err();
        let StudyError::FaultBudget { failures, budget } = err;
        assert_eq!(budget, 0);
        assert_eq!(failures.len(), 4, "every shard must have tripped");
        for f in &failures {
            assert!(f.country.is_some(), "enqueue-time trips must carry the country");
            assert_eq!(f.error.max_events, 5);
        }
        let shards: std::collections::HashSet<usize> = failures.iter().map(|f| f.shard).collect();
        assert_eq!(shards.len(), 4, "failures must identify distinct shards");

        let out = run_study(&StudyConfig { shard_fault_budget: 4, ..base.clone() })
            .expect("degraded run");
        assert_eq!(out.shard_failures.len(), 4);
        assert!(out.impressions() > 0, "ad-delivery stats survive degradation");

        // A study too small to shard runs as one shard whatever `threads`
        // asks for, so exactly one shard — shard 0 — trips.
        let tiny = run_study(&StudyConfig { scale: 40_000, shard_fault_budget: 4, ..base })
            .expect("degraded tiny run");
        assert!(
            tiny.impressions() > 0 && tiny.impressions() < MIN_SHARDED_IMPRESSIONS as u64,
            "need a study below the sharding threshold, got {} impressions",
            tiny.impressions()
        );
        assert_eq!(tiny.shard_failures.len(), 1, "one shard, one failure");
        assert_eq!(tiny.shard_failures[0].shard, 0);
    }

    #[test]
    fn study2_has_six_campaigns() {
        let cfg = StudyConfig { threads: 2, ..StudyConfig::study2(5000, 3) };
        let out = run_study(&cfg).expect("study runs");
        assert_eq!(out.campaigns.len(), 6);
        assert_eq!(out.campaigns[0].name, "Global");
        assert!(out.db.total() > 0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod boost_tests {
    use super::*;

    #[test]
    fn proxy_boost_multiplies_substitute_corpus() {
        let base = StudyConfig::study1(2000, 77);
        let plain = run_study(&base).expect("study");
        let boosted = run_study(&StudyConfig { proxy_boost: 30.0, ..base }).expect("study");
        // Same ad delivery, near-identical measurement counts (proxied
        // clients consume one extra RNG draw for product sampling, which
        // can shift a handful of completion gates)…
        let diff = plain.db.total().abs_diff(boosted.db.total());
        assert!(
            diff * 100 < plain.db.total(),
            "plain {} vs boosted {}",
            plain.db.total(),
            boosted.db.total()
        );
        // …but a much larger substitute corpus.
        assert!(
            boosted.db.proxied() > 10 * plain.db.proxied().max(1),
            "plain {} boosted {}",
            plain.db.proxied(),
            boosted.db.proxied()
        );
    }

    #[test]
    fn single_origin_products_share_one_ip() {
        // Force heavy interception so DSP-style products appear, then
        // check all their reports come from one address.
        let out = run_study(&StudyConfig { proxy_boost: 100.0, ..StudyConfig::study2(1500, 9) })
            .expect("study");
        let mut dsp_ips = std::collections::HashSet::new();
        for r in out.db.iter() {
            if let Some(sub) = &r.substitute {
                if sub.issuer_cn.as_deref() == Some("DSP") {
                    dsp_ips.insert(r.client_ip);
                }
            }
        }
        if !dsp_ips.is_empty() {
            assert_eq!(dsp_ips.len(), 1, "DSP must egress from one IP");
        }
    }
}
