//! Measurement sessions over a worker's shard-lifetime network.
//!
//! When the ad loads on a client, the tool (§3.2, §4.2):
//!
//! 1. fetches the socket-policy file from the authors' server (port 80,
//!    to survive captive portals),
//! 2. performs the partial TLS probe against the authors' host first,
//!    then the other catalog hosts in parallel — each gated by the
//!    per-category completion rate (slow clients don't finish, §4.2),
//! 3. POSTs each captured chain back to the reporting server as
//!    concatenated PEM.
//!
//! A [`SessionRunner`] owns **one long-lived [`Network`]** for its whole
//! shard: the catalog listeners, policy server and report server are
//! registered once, then every impression's client (interceptor, dial
//! scope, policy fetch, probes) is *injected* into the shared event
//! loop. Many concurrent sessions are batched per `run()` drive — the
//! paper's deployment had thousands of clients sharing the same servers
//! — which amortizes topology setup across the shard instead of paying
//! it per impression.
//!
//! Determinism under batching rests on three invariants:
//!
//! * each session's randomness (completion gates, probe randoms, fault
//!   streams) is derived from its own `(seed, impression)` identity, not
//!   from shared sequential streams;
//! * two sessions never share a client address within one batch (the
//!   runner drives the pending batch to completion before reusing an
//!   address, so interceptor and dial-scope state is always
//!   per-session);
//! * each batch's report records are stable-sorted by impression
//!   ordinal after the drive, collapsing the virtual-time interleaving
//!   back to injection order.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fmt::Write;
use std::rc::Rc;
use std::sync::Arc;

use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_crypto::memo::WordState;
use tlsfoe_netsim::policy::fetch_policy;
use tlsfoe_netsim::{Conduit, ConnToken, DialError, FaultProfile, IoCtx, Ipv4, NetRunError};
use tlsfoe_netsim::{Network, NetworkConfig, PolicyServer, Shared};
use tlsfoe_population::model::{ClientProfile, PopulationModel};
use tlsfoe_tls::probe::{ProbeError, ProbeOutcome, ProbeState};
use tlsfoe_tls::server::{ServerConfig, TlsCertServer};
use tlsfoe_tls::ProbeClient;
use tlsfoe_x509::pem;

use crate::hosts::{HostCatalog, ProbeHost};
use crate::http::HttpPostClient;
use crate::report::{Database, ProbeFailureRecord, ReportServer};

/// Concurrent sessions batched into one event-loop drive. Results are
/// bit-identical for any batch size (see module docs); a larger batch
/// shares each drive's fixed steps, such as the stalled-side reap over
/// the whole slab, among more sessions.
const BATCH: usize = 64;

/// Why a probe session gave up — the typed taxonomy recorded on
/// [`Database::failures`] instead of the old silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// No response before the dial timeout (blackholed SYN or stalled
    /// sender).
    TimedOut,
    /// The server answered with a fatal TLS alert.
    TlsAlert,
    /// Received bytes failed TLS parsing (wire corruption).
    TlsParse,
    /// The connection closed before a certificate was captured (reset
    /// or truncation).
    ClosedEarly,
    /// The per-probe deadline expired with retry attempts still allowed.
    DeadlineExceeded,
}

impl SessionError {
    fn from_outcome(outcome: &ProbeOutcome, deadline_hit: bool) -> SessionError {
        match outcome.error {
            Some(ProbeError::Alert) => SessionError::TlsAlert,
            Some(ProbeError::Parse(_)) => SessionError::TlsParse,
            Some(ProbeError::ClosedEarly) => SessionError::ClosedEarly,
            None if deadline_hit => SessionError::DeadlineExceeded,
            None => SessionError::TimedOut,
        }
    }

    /// Short stable label (used by `exp_chaos` tallies).
    pub fn label(self) -> &'static str {
        match self {
            SessionError::TimedOut => "timeout",
            SessionError::TlsAlert => "alert",
            SessionError::TlsParse => "parse",
            SessionError::ClosedEarly => "closed",
            SessionError::DeadlineExceeded => "deadline",
        }
    }
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Session-level robustness policy: dial timeouts, per-probe deadlines
/// and bounded exponential backoff with DRBG-jittered delays — the
/// retry behavior the paper's Flash client exhibited on real networks.
///
/// All delays are **virtual-time** microseconds. Retry decisions are
/// pure functions of per-probe DRBGs (`Drbg::new(session_seed)
/// .fork(host).fork("retry")`) and elapsed virtual time since the
/// probe's first dial, so retried runs stay bit-identical across thread
/// counts and batch boundaries. [`RetryPolicy::disabled`] schedules no timers
/// at all, leaving the event stream byte-identical to a build without
/// the retry layer. Those two constructors are the only policies.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per probe (1 = no retries).
    max_attempts: u32,
    /// Per-attempt timeout: how long after dialing to wait before
    /// declaring the attempt dead. `None` disables the whole retry
    /// machinery (no timers are ever scheduled).
    dial_timeout_us: Option<u64>,
    /// Overall per-probe deadline measured from the first dial; once
    /// past, no further attempts are scheduled. `None` = unlimited.
    probe_deadline_us: Option<u64>,
    /// Base backoff before attempt 2 (doubles per attempt).
    backoff_base_us: u64,
    /// Backoff ceiling.
    backoff_max_us: u64,
    /// Jitter fraction of the backoff (0.0–1.0), drawn from the
    /// per-probe DRBG.
    jitter: f64,
    /// Deadline for the session's policy fetch; past it the fetch
    /// resolves to `PolicyFetchResult::Timeout` instead of hanging.
    policy_timeout_us: Option<u64>,
}

impl RetryPolicy {
    /// No timeouts, no retries — exactly the pre-retry behavior, with a
    /// byte-identical event stream.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            dial_timeout_us: None,
            probe_deadline_us: None,
            backoff_base_us: 0,
            backoff_max_us: 0,
            jitter: 0.0,
            policy_timeout_us: None,
        }
    }

    /// The Flash-client-like defaults `exp_chaos` sweeps against: 3
    /// attempts, 2 s dial timeout, 15 s probe deadline, 250 ms → 2 s
    /// backoff with 50% jitter, 5 s policy deadline.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            dial_timeout_us: Some(2_000_000),
            probe_deadline_us: Some(15_000_000),
            backoff_base_us: 250_000,
            backoff_max_us: 2_000_000,
            jitter: 0.5,
            policy_timeout_us: Some(5_000_000),
        }
    }

    /// Whether any timer-driven machinery is active.
    fn is_active(&self) -> bool {
        self.dial_timeout_us.is_some()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

/// Per-worker session runner owning the shard's one long-lived network.
pub struct SessionRunner {
    catalog: HostCatalog,
    /// The authors' host address (the catalog's first host), which
    /// serves the policy file every session fetches.
    authors_ip: Ipv4,
    db: Shared<Database>,
    /// The `200 OK` flag every upload of this runner writes and nobody
    /// reads: the report server records what arrives, not what the
    /// client saw acknowledged.
    upload_ok: Shared<bool>,
    authors_completion: Option<f64>,
    net: Network,
    /// Clients injected but not yet driven; their per-client network
    /// state (interceptor, dial scope) is reverted at batch end.
    pending: Vec<Ipv4>,
    pending_ips: HashSet<Ipv4, WordState>,
    retry: RetryPolicy,
}

impl SessionRunner {
    /// Build a runner for one worker and register the full topology —
    /// catalog TLS servers, the authors' policy server, the reporting
    /// server — exactly once on its shard-lifetime network. The catalog
    /// handle reads the process's one copy of the host chains, but each
    /// runner builds its own `ServerConfig` per host: every accepted
    /// connection clones its host's `Arc`, and a process-wide one would
    /// take those clones from every shard thread. The report server (and
    /// its database) stays per-worker too.
    pub fn new(catalog: HostCatalog, report_server: Rc<ReportServer>) -> SessionRunner {
        let db = report_server.db();
        let mut net = Network::new(NetworkConfig::default(), 0);
        for host in catalog.hosts.iter() {
            let cfg: Arc<ServerConfig> = ServerConfig::new(host.chain.clone());
            net.listen(host.ip, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
        }
        let authors_ip = catalog.hosts[0].ip;
        net.listen(authors_ip, 80, Box::new(|_| Box::new(PolicyServer::permissive())));
        net.listen(catalog.report_server, 80, report_server.listener());
        SessionRunner {
            catalog,
            authors_ip,
            db,
            upload_ok: Shared::new(false),
            authors_completion: None,
            net,
            pending: Vec::new(),
            pending_ips: HashSet::default(),
            retry: RetryPolicy::disabled(),
        }
    }

    /// Override the authors'-host completion rate (study 1 probed a
    /// single host and completed 61.7% of the time, vs 46.3% when 17
    /// probes competed for client bandwidth in study 2).
    pub fn with_authors_completion(mut self, rate: f64) -> SessionRunner {
        self.authors_completion = Some(rate);
        self
    }

    /// Set the session retry/timeout policy. The default
    /// ([`RetryPolicy::disabled`]) schedules no timers and reproduces
    /// the retry-free event stream byte for byte.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> SessionRunner {
        self.retry = retry;
        self
    }

    /// Replace the faults of the shard network's one link — how a study
    /// applies one [`FaultProfile`] to every client.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.net.set_faults(faults);
    }

    /// Override the shard network's per-drive event cap (the
    /// degradation tests and chaos sweeps shrink it to force
    /// `NetRunError`s on demand).
    pub fn set_max_events(&mut self, max_events: u64) {
        self.net.set_max_events(max_events);
    }

    /// The probed-host catalog.
    pub fn catalog(&self) -> &HostCatalog {
        &self.catalog
    }

    /// Events processed by the shard network so far. Monotonically
    /// accumulates across sessions — the observable proof that one
    /// `Network` serves the whole shard.
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed()
    }

    /// High-water mark of the shard network's connection-side slab
    /// (bounded by the concurrent working set, not total sessions).
    pub fn sides_high_water(&self) -> usize {
        self.net.sides_high_water()
    }

    /// Current virtual time of the shard network (µs). Monotonic across
    /// the runner's whole life; `exp_chaos` differences it around
    /// single-session drives to measure virtual session latency.
    pub fn now_us(&self) -> u64 {
        self.net.now_us()
    }

    /// Inject one client's measurement session into the shared event
    /// loop; the batch is driven automatically once full (or explicitly
    /// via [`SessionRunner::finish`]).
    ///
    /// `impression` is the session's global impression index — recorded
    /// on every upload and used as the batch sort key, so it must be
    /// monotonically increasing across a runner's injections.
    /// `session_seed` is the impression's global random identity (the
    /// study uses `seed ^ impression`): per-connection fault streams are
    /// derived from it. Both being *global* (not shard- or batch-local)
    /// is what keeps results bit-identical across batch boundaries and
    /// thread counts.
    ///
    /// Returns the number of probes actually launched (completion-gated;
    /// refused dials never ran, so they are not counted as attempted).
    pub fn enqueue_session(
        &mut self,
        model: &PopulationModel,
        profile: &ClientProfile,
        rng: &mut dyn RngCore64,
        impression: u64,
        session_seed: u64,
    ) -> Result<usize, NetRunError> {
        if self.pending_ips.contains(&profile.ip) {
            // Same source address already live in this batch (single-
            // origin NAT products): drive to completion first so sessions
            // never observe each other's interceptor or dial scope.
            self.drive_batch()?;
        }
        let attempted = self.inject_session(model, profile, rng, impression, session_seed);
        if self.pending.len() >= BATCH {
            self.drive_batch()?;
        }
        Ok(attempted)
    }

    /// Inject one session's conduits, timers and per-client network state
    /// without driving the event loop (the caller decides when to drive).
    fn inject_session(
        &mut self,
        model: &PopulationModel,
        profile: &ClientProfile,
        rng: &mut dyn RngCore64,
        impression: u64,
        session_seed: u64,
    ) -> usize {
        self.net.begin_session(profile.ip, session_seed);
        // Interceptor, if the sampled client runs one.
        if let Some(pid) = profile.product {
            self.net.install_interceptor(profile.ip, Box::new(model.make_proxy(pid)));
        }

        // 1. Policy fetch (the Flash runtime's precondition). With a
        // policy deadline configured, a stalled or blackholed fetch
        // resolves to `PolicyFetchResult::Timeout` instead of hanging.
        let _ = fetch_policy(
            &mut self.net,
            profile.ip,
            self.authors_ip,
            80,
            self.retry.policy_timeout_us,
        );

        // 2. Completion-gated probes, authors' host first then the rest.
        let mut attempted = 0;
        for host in self.catalog.hosts {
            let rate = match (host.category, self.authors_completion) {
                (crate::hosts::HostCategory::Authors, Some(r)) => r,
                _ => host.category.completion_rate(),
            };
            if !rng.gen_bool(rate) {
                continue;
            }
            let mut random = [0u8; 32];
            rng.fill_bytes(&mut random);
            let id = ProbeIdentity {
                outcome: ProbeOutcome::new(),
                host,
                client_ip: profile.ip,
                report_server: self.catalog.report_server,
                upload_ok: self.upload_ok.clone(),
                impression,
            };
            // Only dials that actually launch count as attempted.
            let Ok(tok) = ReportingProbe::dial(&mut self.net, id.clone(), random, 1) else {
                continue;
            };
            attempted += 1;
            if self.retry.is_active() {
                // Arm the attempt check. All retry randomness comes from
                // a per-probe DRBG (pure function of the session's
                // identity), and the deadline is anchored to this dial's
                // virtual time — so retried outcomes are batch- and
                // thread-invariant.
                let ctx = Rc::new(ProbeCtx {
                    id,
                    policy: self.retry.clone(),
                    db: self.db.clone(),
                    attempts: Cell::new(1),
                    deadline_at: self.retry.probe_deadline_us.map(|d| self.net.now_us() + d),
                    // lint:allow(fork-label, per-host retry streams are intentional — host names are unique within the catalog, so the label set cannot collide)
                    rng: RefCell::new(Drbg::new(session_seed).fork(host.name).fork("retry")),
                });
                arm_probe_check(&mut self.net, ctx, tok);
            }
        }

        self.pending.push(profile.ip);
        self.pending_ips.insert(profile.ip);
        attempted
    }

    /// Drive any still-pending sessions to completion.
    pub fn finish(&mut self) -> Result<(), NetRunError> {
        self.drive_batch()
    }

    /// Run the shared event loop until the pending batch quiesces, then
    /// revert per-session network state and restore the deterministic
    /// record order.
    fn drive_batch(&mut self) -> Result<(), NetRunError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mark = self.db.lock().mark();
        let run_result = self.net.run();
        // Per-session lifecycle teardown happens even when the drive
        // errored, so the runner stays consistent for diagnostics. The
        // removals are idempotent map removes, and this runner is the
        // sole writer of both maps, so no flags are needed.
        for ip in self.pending.drain(..) {
            self.net.remove_interceptor(ip);
            self.net.end_session(ip);
        }
        self.pending_ips.clear();
        // Blackholed dials and stalled senders leave connections waiting
        // forever; at quiescence those can never wake, so reclaim their
        // slots and conduit state before the next batch.
        if run_result.is_ok() {
            self.net.reap_stalled();
        }
        // Concurrent sessions' uploads interleave by virtual completion
        // time; `finish_batch` stable-sorts the batch tail by impression
        // ordinal (failures by `(impression, host)`), restoring injection
        // order and making the database independent of batch size.
        self.db.lock().finish_batch(mark);
        run_result.map(drop)
    }

    /// Run one client's complete measurement session immediately (a
    /// batch of one — plus whatever was already pending).
    ///
    /// Returns the number of probes attempted (completion-gated).
    pub fn run_session(
        &mut self,
        model: &PopulationModel,
        profile: &ClientProfile,
        rng: &mut dyn RngCore64,
        impression: u64,
        session_seed: u64,
    ) -> Result<usize, NetRunError> {
        let attempted = self.enqueue_session(model, profile, rng, impression, session_seed)?;
        self.drive_batch()?;
        Ok(attempted)
    }
}

/// Shared state for one probe's retry ladder. Owned jointly by the
/// pending check timer and any backoff timer; everything a redial needs
/// is captured here so the closures stay `FnOnce(&mut Network)`.
struct ProbeCtx {
    id: ProbeIdentity,
    policy: RetryPolicy,
    db: Shared<Database>,
    attempts: Cell<u32>,
    /// Absolute virtual-time deadline, anchored at the first dial. Retry
    /// decisions compare `now` against it, which reduces to *elapsed*
    /// time since that dial — invariant across batch boundaries and threads.
    deadline_at: Option<u64>,
    /// Per-probe DRBG for retry randoms and backoff jitter; forked from
    /// the session's identity, never from a shared sequential stream.
    rng: RefCell<Drbg>,
}

/// Schedule the attempt check `dial_timeout_us` after a dial.
fn arm_probe_check(net: &mut Network, ctx: Rc<ProbeCtx>, tok: ConnToken) {
    let Some(timeout) = ctx.policy.dial_timeout_us else { return };
    net.after(timeout, move |net| check_probe(net, ctx, tok));
}

/// Fires once per attempt: a finished probe is left alone, anything else
/// (stalled, blackholed, reset, corrupted) is torn down and either
/// redialed after backoff or recorded as a typed failure.
fn check_probe(net: &mut Network, ctx: Rc<ProbeCtx>, tok: ConnToken) {
    if ctx.id.outcome.lock().state == ProbeState::Done {
        return;
    }
    net.close_conn(tok);
    let attempt = ctx.attempts.get();
    let deadline_hit = ctx.deadline_at.is_some_and(|d| net.now_us() >= d);
    if attempt < ctx.policy.max_attempts && !deadline_hit {
        let delay = backoff_delay(&ctx, attempt);
        net.after(delay, move |net| redial_probe(net, ctx));
    } else {
        record_probe_failure(&ctx, deadline_hit);
    }
}

/// Bounded exponential backoff before attempt `attempt + 1`, plus a
/// DRBG-drawn jitter fraction.
fn backoff_delay(ctx: &ProbeCtx, attempt: u32) -> u64 {
    let exp = (attempt - 1).min(20);
    let base = (ctx.policy.backoff_base_us << exp).min(ctx.policy.backoff_max_us);
    let span = (base as f64 * ctx.policy.jitter) as u64;
    if span > 0 {
        base + ctx.rng.borrow_mut().gen_range(span)
    } else {
        base
    }
}

/// Launch the next attempt: fresh ClientHello random from the per-probe
/// DRBG, fresh conduit, outcome cell reset in place, check re-armed.
fn redial_probe(net: &mut Network, ctx: Rc<ProbeCtx>) {
    let attempt = ctx.attempts.get() + 1;
    ctx.attempts.set(attempt);
    ctx.id.outcome.lock().reset();
    let mut random = [0u8; 32];
    ctx.rng.borrow_mut().fill_bytes(&mut random);
    match ReportingProbe::dial(net, ctx.id.clone(), random, attempt) {
        Ok(tok) => arm_probe_check(net, ctx, tok),
        // A refused redial ends the ladder with whatever the last
        // outcome showed.
        Err(_) => record_probe_failure(&ctx, false),
    }
}

/// Retry budget exhausted: append the typed failure record.
fn record_probe_failure(ctx: &ProbeCtx, deadline_hit: bool) {
    let error = SessionError::from_outcome(&ctx.id.outcome.lock(), deadline_hit);
    ctx.db.lock().push_failure(ProbeFailureRecord {
        impression: ctx.id.impression,
        client_ip: ctx.id.client_ip,
        host: ctx.id.host.name,
        error,
        attempts: ctx.attempts.get(),
    });
}

/// The §3.2 upload body of a probe of `host` that captured `chain`: the
/// concatenated PEM encoding of the chain. Only about 1 in 250
/// connections is proxied, so nearly every probe captures the host's
/// genuine chain and borrows the body the host stores, which lives as
/// long as the process; any other chain is encoded afresh.
fn upload_body(host: &'static ProbeHost, chain: &[Vec<u8>]) -> Cow<'static, [u8]> {
    let genuine = chain.len() == host.chain.len()
        && chain.iter().zip(&host.chain).all(|(der, cert)| der.as_slice() == cert.to_der());
    if genuine {
        return Cow::Borrowed(&host.body);
    }
    let mut body = Vec::with_capacity(chain.iter().map(|der| pem::pem_len(der.len())).sum());
    for der in chain {
        pem::pem_encode_into(der, &mut body);
    }
    Cow::Owned(body)
}

/// One probe of one catalog host in one session: what each of its
/// attempts shares with the others and with its retry ladder.
#[derive(Clone)]
struct ProbeIdentity {
    /// The result cell every attempt refills.
    outcome: Shared<ProbeOutcome>,
    host: &'static ProbeHost,
    client_ip: Ipv4,
    report_server: Ipv4,
    /// The runner's shared upload flag (see [`SessionRunner`]).
    upload_ok: Shared<bool>,
    impression: u64,
}

/// One attempt of a probe, which uploads its captured chain once done
/// (§3 step 3).
struct ReportingProbe {
    id: ProbeIdentity,
    probe: ProbeClient,
    /// 1-based attempt ordinal; >1 only when the retry layer redialed.
    attempt: u32,
    reported: bool,
}

impl ReportingProbe {
    /// Dial attempt `attempt` of probe `id` from its client to its host,
    /// with `random` as the ClientHello random.
    fn dial(
        net: &mut Network,
        id: ProbeIdentity,
        random: [u8; 32],
        attempt: u32,
    ) -> Result<ConnToken, DialError> {
        let (client, host) = (id.client_ip, id.host);
        let probe = ProbeClient::new(host.name, random, id.outcome.clone());
        let reporter = ReportingProbe { id, probe, attempt, reported: false };
        net.dial_from(client, host.ip, 443, Box::new(reporter))
    }

    fn maybe_report(&mut self, io: &mut IoCtx<'_>) {
        if self.reported {
            return;
        }
        let id = &self.id;
        let state = id.outcome.lock().state;
        if state != ProbeState::Done {
            // Failed probes upload nothing — the server never counts them
            // (they are the paper's incomplete measurements).
            if state == ProbeState::Failed {
                self.reported = true;
            }
            return;
        }
        self.reported = true;
        // The captured DER chain as concatenated PEM, the exact §3.2
        // wire format.
        let body = upload_body(id.host, &id.outcome.lock().chain_der);
        // `att=` rides along only on retried attempts, keeping first-
        // attempt wire bytes identical to the retry-free build. The
        // capacity covers the longest path: two decimal `u64`s at most.
        let mut path = String::with_capacity(UPLOAD_PATH_LEN + id.host.name.len());
        let _ = write!(path, "/report?host={}&imp={}", id.host.name, id.impression);
        if self.attempt > 1 {
            let _ = write!(path, "&att={}", self.attempt);
        }
        // The upload leg leaves from the probe's client, whose address
        // the report server geolocates.
        let upload = HttpPostClient::new(path, body, id.upload_ok.clone());
        let _ = io.dial(id.report_server, 80, Box::new(upload));
    }
}

/// The upload path's length beside its host name, at most:
/// `/report?host=` `&imp=` and `&att=` with their decimal values.
const UPLOAD_PATH_LEN: usize = "/report?host=&imp=&att=".len() + 2 * 20;

impl Conduit for ReportingProbe {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        self.probe.on_open(io);
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        self.probe.on_data(data, io);
        self.maybe_report(io);
    }

    fn on_close(&mut self, io: &mut IoCtx<'_>) {
        self.probe.on_close(io);
        self.maybe_report(io);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::report::Database;
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_geo::countries::by_code;
    use tlsfoe_geo::GeoDb;
    use tlsfoe_population::model::StudyEra;
    use tlsfoe_population::products::ProductId;

    fn runner() -> (SessionRunner, Shared<Database>, GeoDb) {
        let catalog = HostCatalog::study2();
        let geo = GeoDb::allocate(100_000);
        let db = Shared::new(Database::new());
        let report = Rc::new(ReportServer::new(&catalog, geo.clone(), db.clone()));
        (SessionRunner::new(catalog, report), db, geo)
    }

    fn model() -> PopulationModel {
        let catalog = HostCatalog::study2();
        PopulationModel::new(StudyEra::Study2, catalog.public_roots.clone())
    }

    #[test]
    fn clean_client_session_reports_unproxied() {
        let (mut runner, db, geo) = runner();
        let m = model();
        let us = by_code("US").unwrap();
        let profile = ClientProfile { country: us, ip: geo.client_addr(us, 0), product: None };
        // Run a few sessions so at least some probes pass the gates.
        let mut rng = Drbg::new(1);
        for i in 0..20 {
            runner.run_session(&m, &profile, &mut rng, i, 1000 + i).unwrap();
        }
        let db = db.lock();
        assert!(db.total() > 0, "some probes must have completed");
        assert_eq!(db.proxied(), 0);
        assert_eq!(db.get(0).country, Some(us));
    }

    #[test]
    fn proxied_client_session_reports_substitutes() {
        let (mut runner, db, geo) = runner();
        let m = model();
        let us = by_code("US").unwrap();
        let bitdefender = ProductId(
            m.specs().iter().position(|s| s.display_name() == "Bitdefender").unwrap() as u16,
        );
        let profile =
            ClientProfile { country: us, ip: geo.client_addr(us, 1), product: Some(bitdefender) };
        let mut rng = Drbg::new(2);
        for i in 0..20 {
            runner.run_session(&m, &profile, &mut rng, i, 2000 + i).unwrap();
        }
        let db = db.lock();
        assert!(db.total() > 0);
        assert_eq!(db.proxied(), db.total(), "every probe behind the proxy is proxied");
        for r in db.iter() {
            let sub = r.substitute.unwrap();
            assert_eq!(sub.issuer_org.as_deref(), Some("Bitdefender"));
            assert_eq!(sub.key_bits, 1024);
        }
    }

    #[test]
    fn attempted_counts_respect_completion_gates() {
        let (mut runner, _db, geo) = runner();
        let m = model();
        let us = by_code("US").unwrap();
        let profile = ClientProfile { country: us, ip: geo.client_addr(us, 2), product: None };
        let mut rng = Drbg::new(3);
        let total: usize = (0..200)
            .map(|i| runner.run_session(&m, &profile, &mut rng, i, 3000 + i).unwrap())
            .sum();
        let avg = total as f64 / 200.0;
        // Expected ≈ 0.463 + 6×0.168 + 5×0.070 + 5×0.118 ≈ 2.41 probes
        // per impression (the paper's 12.3M measurements / 5.08M ads).
        assert!((2.0..2.9).contains(&avg), "avg attempts {avg}");
    }

    #[test]
    fn one_network_serves_the_whole_shard() {
        // The runner must construct exactly one Network and reuse it:
        // its event counter accumulates monotonically across sessions,
        // and the side slab stays at the per-batch working set instead
        // of growing with the session count.
        let (mut runner, db, geo) = runner();
        let m = model();
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(5);
        let mut last_events = 0;
        for i in 0..50 {
            let profile =
                ClientProfile { country: us, ip: geo.client_addr(us, 10 + i), product: None };
            runner.run_session(&m, &profile, &mut rng, u64::from(i), 6000 + u64::from(i)).unwrap();
            let events = runner.events_processed();
            assert!(events > last_events, "session {i} must run on the SAME network");
            last_events = events;
        }
        assert!(db.lock().total() > 0);
        // 50 sessions × up to 18 probes each would need thousands of
        // side slots without recycling; one session's working set is
        // well under 150.
        assert!(
            runner.sides_high_water() < 150,
            "slot high water {} must track the concurrent working set, not total sessions",
            runner.sides_high_water()
        );
    }

    #[test]
    fn stalling_shard_does_not_accumulate_stalled_sides() {
        // Every side of every connection stalls at one of its first
        // frames, so many probes and policy fetches never finish (both
        // endpoints waiting forever), and with retry disabled no timer
        // closes them. The runner reaps stalls at each batch boundary,
        // so the slab must stay at one batch's working set across many
        // sessions instead of growing with the stall count.
        let (mut runner, _db, geo) = runner();
        runner.set_faults(FaultProfile { stall: 1.0, ..FaultProfile::none() });
        let m = model();
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(7);
        for i in 0..60 {
            let profile =
                ClientProfile { country: us, ip: geo.client_addr(us, 200 + i), product: None };
            runner.run_session(&m, &profile, &mut rng, u64::from(i), 8000 + u64::from(i)).unwrap();
        }
        assert!(
            runner.sides_high_water() < 150,
            "stalled sides must be reaped per batch, high water {}",
            runner.sides_high_water()
        );
    }

    #[test]
    fn retry_recovers_blackholed_probes() {
        // Half of all dials vanish (no Open ever fires). With 3 attempts
        // and fresh per-attempt fault streams, most probes must still
        // land — and recovered records carry attempts > 1. Probes whose
        // every attempt was swallowed end up as typed TimedOut failures,
        // never silent drops.
        let (runner, db, geo) = runner();
        let mut runner = runner.with_retry_policy(RetryPolicy::standard());
        runner.set_faults(FaultProfile { blackhole: 0.5, ..FaultProfile::none() });
        let m = model();
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(11);
        for i in 0..30 {
            let profile =
                ClientProfile { country: us, ip: geo.client_addr(us, 300 + i), product: None };
            runner.run_session(&m, &profile, &mut rng, u64::from(i), 9000 + u64::from(i)).unwrap();
        }
        let db = db.lock();
        assert!(db.total() > 0, "most probes must recover");
        assert!(db.iter().any(|r| r.attempts > 1), "some records must have needed a retry");
        for f in db.failures() {
            assert_eq!(f.error, SessionError::TimedOut, "blackhole reads as timeout");
            assert_eq!(f.attempts, 3, "failures must have exhausted the budget");
        }
    }

    #[test]
    fn reset_storm_records_typed_failures() {
        // Every connection is reset at a DRBG-chosen early frame, on
        // both sides. Client-side resets surface as TimedOut (the probe
        // never hears back), server-side resets as ClosedEarly; either
        // way the ladder exhausts and records a typed failure.
        let (runner, db, geo) = runner();
        let mut runner = runner.with_retry_policy(RetryPolicy::standard());
        runner.set_faults(FaultProfile { reset: 1.0, ..FaultProfile::none() });
        let m = model();
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(13);
        for i in 0..20 {
            let profile =
                ClientProfile { country: us, ip: geo.client_addr(us, 400 + i), product: None };
            runner.run_session(&m, &profile, &mut rng, u64::from(i), 9500 + u64::from(i)).unwrap();
        }
        let db = db.lock();
        assert!(!db.failures().is_empty(), "guaranteed resets must produce failures");
        for f in db.failures() {
            assert!(
                matches!(f.error, SessionError::TimedOut | SessionError::ClosedEarly),
                "unexpected taxonomy {:?}",
                f.error
            );
            assert!(f.attempts >= 1);
        }
    }

    #[test]
    fn active_retry_policy_without_faults_changes_nothing() {
        // On a clean network the retry machinery is pure overhead: every
        // check timer finds its probe Done. Records must be identical to
        // a disabled-policy run, with zero failures and attempts == 1.
        let run = |retry: RetryPolicy| {
            let (runner, db, geo) = runner();
            let mut runner = runner.with_retry_policy(retry);
            let m = model();
            let us = by_code("US").unwrap();
            let mut rng = Drbg::new(17);
            for i in 0..25 {
                let profile =
                    ClientProfile { country: us, ip: geo.client_addr(us, 500 + i), product: None };
                runner
                    .run_session(&m, &profile, &mut rng, u64::from(i), 9800 + u64::from(i))
                    .unwrap();
            }
            let out = std::mem::replace(&mut *db.lock(), Database::new());
            out
        };
        let plain = run(RetryPolicy::disabled());
        let retried = run(RetryPolicy::standard());
        assert!(plain.total() > 0);
        assert_eq!(plain, retried, "fault-free retry run must be bit-identical");
        assert!(retried.failures().is_empty());
        assert!(retried.iter().all(|r| r.attempts == 1));
    }

    #[test]
    fn upload_body_is_always_the_captured_chains_encoding() {
        // DRBG-drawn uploads over three hosts: each captures the host's
        // genuine chain, another host's chain (a substitute under the
        // same CA), the genuine chain with one byte of one certificate
        // flipped or cut short, or the genuine chain cut to its leaf or
        // to nothing. Whatever was captured, the body must be the fresh
        // PEM encoding of that chain, and a genuine chain's body must
        // borrow the one the host stores.
        let catalog = HostCatalog::study2();
        let ders = |h: usize| -> Vec<Vec<u8>> {
            catalog.hosts[h].chain.iter().map(|c| c.to_der().to_vec()).collect()
        };
        let genuine: Vec<_> = (0..3).map(ders).collect();
        let mut rng = Drbg::new(0x534C_4F54);
        let mut stored = 0;
        for _ in 0..2_000 {
            let host = rng.gen_range(3) as usize;
            let mut chain = genuine[host].clone();
            match rng.gen_range(8) {
                0 => chain = genuine[(host + 1 + rng.gen_range(2) as usize) % 3].clone(),
                1 => {
                    let cert = &mut chain[rng.gen_range(2) as usize];
                    let at = rng.gen_range(cert.len() as u64) as usize;
                    cert[at] ^= 1 + rng.gen_range(255) as u8;
                }
                2 => {
                    let cert = &mut chain[rng.gen_range(2) as usize];
                    cert.truncate(rng.gen_range(cert.len() as u64) as usize);
                }
                3 => chain.truncate(rng.gen_range(2) as usize),
                _ => {}
            }
            stored += usize::from(chain == genuine[host]);
            let mut fresh = Vec::new();
            for der in &chain {
                pem::pem_encode_into(der, &mut fresh);
            }
            let body = upload_body(&catalog.hosts[host], &chain);
            assert_eq!(*body, *fresh, "host {host}, {} certs", chain.len());
            if chain == genuine[host] {
                let stored = catalog.hosts[host].body.as_ptr();
                assert!(
                    matches!(body, Cow::Borrowed(b) if b.as_ptr() == stored),
                    "host {host}: a genuine chain's body must borrow the stored one"
                );
            }
        }
        assert!(stored > 500, "genuine chains must be drawn often ({stored} of 2000)");
    }

    #[test]
    fn batched_sessions_match_serial_sessions_bitwise() {
        // The same impressions, once driven one by one (`run_session`)
        // and once batched (`enqueue_session`, which drives every `BATCH`
        // sessions, then `finish` for the tail), must produce identical
        // databases.
        let run = |batched: bool| {
            let (mut runner, db, geo) = runner();
            let m = model();
            let us = by_code("US").unwrap();
            let mut rng = Drbg::new(6);
            for i in 0..(BATCH as u32 + 36) {
                let profile = ClientProfile {
                    country: us,
                    ip: geo.client_addr(us, 100 + i),
                    product: (i % 5 == 0).then_some(ProductId(0)),
                };
                let (imp, seed) = (u64::from(i), 7000 + u64::from(i));
                if batched {
                    runner.enqueue_session(&m, &profile, &mut rng, imp, seed).unwrap();
                } else {
                    runner.run_session(&m, &profile, &mut rng, imp, seed).unwrap();
                }
            }
            runner.finish().unwrap();
            let out = std::mem::replace(&mut *db.lock(), Database::new());
            out
        };
        let serial = run(false);
        let batched = run(true);
        assert!(serial.total() > 0);
        assert_eq!(serial, batched, "batching must not change any record bit");
    }
}
