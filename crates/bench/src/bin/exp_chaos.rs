//! Chaos sweep: fault rates × retry policies over the session pipeline.
//!
//! For each (fault rate, retry policy) cell, drives a fixed set of
//! sessions through one [`SessionRunner`] with a uniform
//! [`FaultProfile`] on every link — connection resets, blackholed
//! dials, truncations, byte corruption and stalls, all sampled from
//! per-connection DRBG streams — and reports:
//!
//! * completion rate (measurements / probes that got a verdict),
//! * how many completed probes needed a retry, and the mean attempts,
//! * the typed failure tally (timeout / alert / parse / closed /
//!   deadline),
//! * p50/p99 *virtual* session latency (batch of one per drive, so the
//!   network's virtual-clock delta around a drive is that session's
//!   span, retry backoffs included).
//!
//! Everything runs on virtual time with seeded DRBGs, so stdout is
//! byte-identical across runs, machines and thread counts — CI runs the
//! sweep twice and diffs the output as the determinism gate.
//!
//! Flags: `--quick` shrinks the sweep for smoke jobs.

use std::rc::Rc;

use tlsfoe_core::report::{Database, ReportServer};
use tlsfoe_core::session::{RetryPolicy, SessionRunner};
use tlsfoe_core::HostCatalog;
use tlsfoe_crypto::drbg::Drbg;
use tlsfoe_geo::countries::by_code;
use tlsfoe_geo::GeoDb;
use tlsfoe_netsim::{FaultProfile, Shared};
use tlsfoe_population::model::{ClientProfile, PopulationModel, StudyEra};

/// One sweep cell's aggregates.
struct CellStats {
    completed: u64,
    retried: u64,
    attempts_sum: u64,
    failures: Vec<(&'static str, u64)>,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn run_cell(rate: f64, retry: &RetryPolicy, sessions: u32) -> CellStats {
    let catalog = HostCatalog::study1();
    let geo = GeoDb::allocate(1_000_000);
    let db = Shared::new(Database::new());
    let report = Rc::new(ReportServer::new(&catalog, geo.clone(), db.clone()));
    let mut runner = SessionRunner::new(catalog, report).with_retry_policy(retry.clone());
    runner.set_faults(FaultProfile::uniform(rate));
    let model = PopulationModel::new(StudyEra::Study1, runner.catalog().public_roots.clone());
    let us = by_code("US").expect("US registered");

    let mut rng = Drbg::new(tlsfoe_bench::seed()).fork("chaos");
    let mut latencies = Vec::with_capacity(sessions as usize);
    for i in 0..sessions {
        let profile = ClientProfile { country: us, ip: geo.client_addr(us, i), product: None };
        // `run_session` drives this session on its own, so the
        // virtual-clock delta around it is the session's latency.
        let t0 = runner.now_us();
        runner
            .run_session(&model, &profile, &mut rng, u64::from(i), u64::from(i) ^ 0xc4a05)
            .expect("chaos cell session");
        latencies.push(runner.now_us() - t0);
    }
    latencies.sort_unstable();

    let db = db.lock();
    let mut tally: Vec<(&'static str, u64)> = Vec::new();
    for f in db.failures() {
        match tally.iter_mut().find(|(label, _)| *label == f.error.label()) {
            Some((_, n)) => *n += 1,
            None => tally.push((f.error.label(), 1)),
        }
    }
    tally.sort_by_key(|&(label, n)| (std::cmp::Reverse(n), label));
    CellStats {
        completed: db.total(),
        retried: db.iter().filter(|r| r.attempts > 1).count() as u64,
        attempts_sum: db.iter().map(|r| u64::from(r.attempts)).sum::<u64>()
            + db.failures().iter().map(|f| u64::from(f.attempts)).sum::<u64>(),
        failures: tally,
        p50_ms: percentile(&latencies, 0.50) as f64 / 1_000.0,
        p99_ms: percentile(&latencies, 0.99) as f64 / 1_000.0,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print!("{}", tlsfoe_bench::banner("Chaos sweep"));
    let (rates, sessions): (&[f64], u32) =
        if quick { (&[0.0, 0.05, 0.2], 150) } else { (&[0.0, 0.02, 0.05, 0.1, 0.2], 600) };
    let policies: &[(&str, RetryPolicy)] =
        &[("none", RetryPolicy::disabled()), ("standard", RetryPolicy::standard())];

    println!(
        "{} sessions per cell; faults uniform per type (reset/blackhole/truncate/corrupt/stall)\n",
        sessions
    );
    println!(
        "{:>6}  {:>8}  {:>9}  {:>7}  {:>7}  {:>8}  {:>8}  failures",
        "fault", "retry", "complete", "retried", "avg att", "p50 ms", "p99 ms"
    );
    for &rate in rates {
        for (name, policy) in policies {
            let s = run_cell(rate, policy, sessions);
            let verdicts = s.completed + s.failures.iter().map(|&(_, n)| n).sum::<u64>();
            let completion =
                if verdicts == 0 { 0.0 } else { 100.0 * s.completed as f64 / verdicts as f64 };
            let avg_att = if verdicts == 0 { 0.0 } else { s.attempts_sum as f64 / verdicts as f64 };
            let tally = if s.failures.is_empty() {
                "-".to_string()
            } else {
                s.failures
                    .iter()
                    .map(|(label, n)| format!("{label}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!(
                "{:>5.0}%  {:>8}  {:>8.1}%  {:>7}  {:>7.2}  {:>8.2}  {:>8.2}  {}",
                rate * 100.0,
                name,
                completion,
                s.retried,
                avg_att,
                s.p50_ms,
                s.p99_ms,
                tally
            );
        }
    }
    println!(
        "\nNotes: without retries a swallowed probe records no verdict at all (the paper's\n\
         silent incomplete measurements), so the `none` rows' completion rates only count\n\
         probes that terminated; blackholed/stalled probes simply vanish there. Latency is\n\
         the virtual-clock span of the session's drive: armed timers (2 s dial checks, 5 s\n\
         policy deadline) pop at quiescence even when nothing needed them, so `standard`\n\
         rows have a 5 s floor — the signal is in the tail above it (backoff ladders)."
    );
}
