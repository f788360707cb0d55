//! The tlsfoe benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload for about `--seconds` seconds by
//! running fresh child processes of itself, strictly one after another.
//! A fresh process starts with cold key, substitute and context caches,
//! as a user's does, and with its own peak-RSS counter. Every child
//! times a cold setup, runs the workload body once and checks its
//! output. The run prints every metric with its unit, and the median,
//! range and count of its per-child samples, then one JSON line with
//! the medians. With `--trace 1` the run alternates untraced and traced
//! children and reports per-layer metrics instead, plus the tracing
//! overhead between the two kinds; the traced children's spans go to
//! `benchmark/out/`.
//!
//! The output check: every child must satisfy the workload's invariants
//! and report the same output fingerprint (the studies' counts). The
//! first child and every traced one also hash the full output; those
//! digests must agree and match `golden.txt` where it has them (seeds
//! 2014 and 1); other seeds print `unverified`. The exit code is 0 only
//! when the outputs are correct.

mod child;
mod golden;
mod metrics;
mod phases;
mod stats;
mod trace;
mod workload;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tlsfoe_core::json::Json;

use crate::stats::summarize;
use crate::workload::Workload;

const USAGE: &str = "usage: benchmark --workload <paper_e2e|bulk_sessions|chaos_retry> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Children per run, whatever `--seconds` allows: a median needs two,
/// and a traced run one untraced and one traced child.
const MIN_CHILDREN: usize = 2;
const MAX_CHILDREN: usize = 16;
/// Hard limit on one run, child time-outs included.
const RUN_LIMIT: Duration = Duration::from_secs(170);

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as one measured child.
    child: bool,
    /// Internal: whether that child hashes its output.
    hash: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2014, 40.0, false);
    let (mut child, mut hash) = (false, true);
    while let Some(flag) = args.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        let flag_01 = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad()),
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = flag_01()?,
            "--hash" => hash = flag_01()?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, child, hash })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match child::run(args.workload, args.seed, args.trace, args.hash) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    run(&args)
}

/// A finished child: its report and the wall time the parent saw.
struct Finished {
    report: Json,
    wall_s: f64,
    traced: bool,
}

impl Finished {
    fn num(&self, key: &str) -> f64 {
        num(self.report.get(key))
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.report.get(key).and_then(Json::as_str)
    }

    /// Setup plus body: what a user waits for in a fresh process.
    fn cold_run_s(&self) -> f64 {
        self.num("setup_s") + self.num("body_s")
    }
}

fn num(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(x)) => *x,
        Some(Json::Int(i)) => *i as f64,
        _ => f64::NAN,
    }
}

fn spawn(args: &Args, traced: bool, hash: bool, timeout: Duration) -> Result<Finished, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    let bit = |b: bool| if b { "1" } else { "0" };
    cmd.args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", bit(traced), "--hash", bit(hash), "--child"]);
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait child: {e}"))? {
            break status;
        }
        if start.elapsed() > timeout {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("child timed out after {:.0} s", timeout.as_secs_f64()));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let wall_s = start.elapsed().as_secs_f64();
    let text = reader
        .join()
        .map_err(|_| "child stdout reader panicked".to_string())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    let report = Json::parse(line).map_err(|e| format!("child report: {e}"))?;
    Ok(Finished { report, wall_s, traced })
}

/// Whether the next child is traced, or `None` when the run is over:
/// a child starts only if one as long as the longest so far would end
/// within `--seconds`.
fn next_child(args: &Args, done: &[Finished], elapsed_s: f64) -> Option<bool> {
    let n = done.len();
    let longest = done.iter().map(|f| f.wall_s).fold(0.0, f64::max);
    if n >= MAX_CHILDREN || (n >= MIN_CHILDREN && elapsed_s + longest > args.seconds) {
        return None;
    }
    Some(args.trace && n % 2 == 1)
}

fn run(args: &Args) -> ExitCode {
    let start = Instant::now();
    let mut done: Vec<Finished> = Vec::new();
    let mut errors = 0;
    while let Some(traced) = next_child(args, &done, start.elapsed().as_secs_f64()) {
        let hash = done.is_empty() || traced;
        match spawn(args, traced, hash, RUN_LIMIT.saturating_sub(start.elapsed())) {
            Ok(f) => done.push(f),
            Err(e) => {
                eprintln!("benchmark: {e}");
                errors += 1;
                break;
            }
        }
    }
    let attempted = done.len() + errors;

    let mut failed = errors + check_outputs(args, &done);
    if done.is_empty() {
        failed = failed.max(1);
    }

    let metrics = if args.trace { per_layer(args, &done) } else { end_to_end(&done) };
    let mut json = Vec::new();
    for (name, unit, samples) in &metrics {
        let Some(s) = summarize(samples) else { continue };
        println!(
            "{name:<38} {:>14.6} {unit:<6} (median of n={}; min {:.6}, max {:.6})",
            s.median, s.n, s.min, s.max
        );
        json.push((
            *name,
            Json::obj(vec![("value", Json::Num(s.median)), ("unit", Json::str(*unit))]),
        ));
    }
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", Json::obj(json)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Check the children's outputs; returns how many failed.
fn check_outputs(args: &Args, bodies: &[Finished]) -> usize {
    let name = args.workload.name();
    let first = bodies.first();
    let fingerprint = first.and_then(|f| f.str("fingerprint")).unwrap_or("");
    let digest = first.and_then(|f| f.str("digest"));
    let mut failed = 0;
    for f in bodies {
        let mut ok = f.str("fingerprint") == Some(fingerprint);
        if !ok {
            println!(
                "children disagree on the output: {:?} vs {fingerprint}",
                f.str("fingerprint")
            );
        }
        if f.str("digest").is_some_and(|d| Some(d) != digest) {
            println!("children disagree on the output digest: {:?} vs {digest:?}", f.str("digest"));
            ok = false;
        }
        if let Some(Json::Arr(problems)) = f.report.get("problems") {
            for p in problems.iter().filter_map(Json::as_str) {
                println!("output problem: {p}");
                ok = false;
            }
        }
        failed += usize::from(!ok);
    }
    if digest.is_none() && !bodies.is_empty() {
        println!("the first child did not hash its output");
        return bodies.len();
    }
    let text = first.and_then(|f| f.str("text_digest"));
    let text_name = format!("{name}.text");
    for (what, digest) in [(name, digest), (text_name.as_str(), text)] {
        let Some(digest) = digest else { continue };
        match golden::check(golden::GOLDEN, what, args.seed, digest) {
            golden::Verdict::Verified => println!("{what} digest {digest} verified"),
            golden::Verdict::Unverified => {
                println!("{what} digest {digest} unverified (no golden for seed {})", args.seed)
            }
            golden::Verdict::Mismatch { expected } => {
                println!(
                    "{what} digest {digest} MISMATCH: golden for seed {} is {expected}",
                    args.seed
                );
                failed = failed.max(bodies.len());
            }
        }
    }
    failed
}

/// Each metric's per-child samples; the run reports their median.
type Samples = Vec<(&'static str, &'static str, Vec<f64>)>;

fn end_to_end(done: &[Finished]) -> Samples {
    metrics::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let sample = |f: &Finished| match name {
                "sessions_per_s" => f.num("impressions") / f.num("drive_s"),
                _ => f.num(name),
            };
            (name, unit, done.iter().map(sample).collect())
        })
        .collect()
}

fn per_layer(args: &Args, done: &[Finished]) -> Samples {
    let (traced, untraced): (Vec<&Finished>, Vec<&Finished>) = done.iter().partition(|f| f.traced);
    let median_cold = |fs: &[&Finished]| {
        let v: Vec<f64> = fs.iter().map(|f| f.cold_run_s()).collect();
        summarize(&v).map_or(f64::NAN, |s| s.median)
    };
    let overhead = (median_cold(&traced) / median_cold(&untraced) - 1.0) * 100.0;
    write_spans(args, &traced);
    metrics::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = match name {
                "trace.child_wall_s" => traced.iter().map(|f| f.wall_s).collect(),
                "trace.unattributed_s" => {
                    traced.iter().map(|f| f.wall_s - f.num("top_level_s")).collect()
                }
                "trace.overhead_pct" if overhead.is_finite() => vec![overhead],
                "trace.overhead_pct" => Vec::new(),
                _ => traced
                    .iter()
                    .map(|f| num(f.report.get("layers").and_then(|l| l.get(name))))
                    .collect(),
            };
            (name, unit, samples)
        })
        .collect()
}

/// Write the traced children's spans to `benchmark/out/`.
fn write_spans(args: &Args, traced: &[&Finished]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.json", args.workload.name(), args.seed);
    let children = traced
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("wall_s", Json::Num(f.wall_s)),
                ("spans", f.report.get("spans").cloned().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, format!("{}\n", Json::Arr(children))));
    match written {
        Ok(()) => eprintln!("benchmark: spans written to {path}"),
        Err(e) => eprintln!("benchmark: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_run_and_child_command_lines() {
        let a =
            parse(&["--workload", "chaos_retry", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ChaosRetry,
                seed: 7,
                seconds: 12.0,
                trace: true,
                child: false,
                hash: true,
            }
        );
        let c =
            parse(&["--workload", "paper_e2e", "--child", "--seed", "3", "--hash", "0"]).unwrap();
        assert!(c.child && !c.hash);
        assert_eq!(c.seed, 3);
    }

    fn finished(fingerprint: &str, digest: Option<&str>) -> Finished {
        let report = Json::obj(vec![
            ("fingerprint", Json::str(fingerprint)),
            ("digest", Json::opt(digest, Json::str)),
            ("problems", Json::Arr(Vec::new())),
        ]);
        Finished { report, wall_s: 1.0, traced: false }
    }

    #[test]
    fn children_must_agree_and_the_first_must_hash() {
        let args = parse(&["--workload", "bulk_sessions", "--seed", "987654321"]).unwrap();
        let agree = [finished("5 [3]", Some("ab")), finished("5 [3]", None)];
        assert_eq!(check_outputs(&args, &agree), 0);
        let counts_differ = [finished("5 [3]", Some("ab")), finished("5 [4]", None)];
        assert_eq!(check_outputs(&args, &counts_differ), 1);
        let digests_differ = [finished("5 [3]", Some("ab")), finished("5 [3]", Some("cd"))];
        assert_eq!(check_outputs(&args, &digests_differ), 1);
        let unhashed = [finished("5 [3]", None), finished("5 [3]", None)];
        assert_eq!(check_outputs(&args, &unhashed), 2);
    }

    #[test]
    fn schedules_children_until_the_next_would_overrun() {
        let mut args = parse(&["--workload", "bulk_sessions", "--seconds", "30"]).unwrap();
        let child = |wall_s| Finished { report: Json::Null, wall_s, traced: false };
        assert_eq!(next_child(&args, &[], 0.0), Some(false));
        // The minimum is run even when it overruns.
        assert_eq!(next_child(&args, &[child(40.0)], 40.0), Some(false));
        let two = [child(8.0), child(9.0)];
        assert_eq!(next_child(&args, &two, 17.0), Some(false));
        assert_eq!(next_child(&args, &two, 21.5), None);
        args.trace = true;
        assert_eq!(next_child(&args, &two[..1], 8.0), Some(true));
        assert_eq!(next_child(&args, &two, 17.0), Some(false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "paper_e2e", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "paper_e2e", "--hash", "yes"]).is_err());
        assert!(parse(&["--workload", "paper_e2e", "--seed"]).is_err());
        assert!(parse(&["--workload", "paper_e2e", "--bogus", "1"]).is_err());
        assert!(parse(&["--workload", "paper_e2e", "--child", "body"]).is_err());
    }
}
