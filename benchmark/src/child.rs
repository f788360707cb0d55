//! One measured child process: a cold setup, the workload body once,
//! and the output check. A traced child also repeats the body's study
//! at 2 workers (`bulk_sessions`), runs the session phase probe, and
//! derives the per-layer figures. The result is one JSON line on stdout.
//!
//! Hashing the output takes 1–3 s, so only the children the parent asks
//! to (`hash`) do it; every child reports the cheap fingerprint.

use tlsfoe_core::json::Json;

use crate::metrics;
use crate::phases;
use crate::trace::{self, Recorder};
use crate::workload::{self, Workload};

/// Worker threads for setup (key generation and substitute prewarm):
/// 2, or fewer on a machine with fewer cores.
pub fn setup_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Worker threads for the measured study drives. One: on a host whose
/// two vCPUs are shared with other tenants, a 2-worker drive finishes
/// with its slower shard, so it times whichever core is contended
/// (the same drive, back to back, took 2.2–3.7 s at 2 workers and
/// 3.9–4.0 s at 1). Multicore scaling is a traced per-layer figure.
pub const DRIVE_WORKERS: usize = 1;

/// Sample blocks per session phase (64 sessions each).
const PHASE_BLOCKS: usize = 200;

pub fn run(workload: Workload, seed: u64, traced: bool, hash: bool) -> Result<Json, String> {
    let setup_workers = setup_workers();
    let mut rec = Recorder::new(traced);
    let setup = rec.span("setup", |r| workload::setup(r, workload, setup_workers));
    let output = rec.span("body", |r| workload::body(r, workload, seed, DRIVE_WORKERS, &setup))?;
    let peak_rss_mb = trace::peak_rss_mb();
    let (digest, mut problems) = rec.span("check", |_| {
        let digest = if hash { Some(workload::digest(&output)?) } else { None };
        Ok::<_, String>((digest, workload::invariant_violations(workload, &output)))
    })?;

    let mut layers = Vec::new();
    if traced {
        let reference = if workload == Workload::BulkSessions && setup_workers > 1 {
            let (d, impressions) = rec.span("reference_2w", |r| {
                let out = workload::reference_2w(r, workload, seed)?;
                workload::digest(&out).map(|d| (d, out.impressions()))
            })?;
            if Some(&d) != digest.as_ref() {
                problems.push(format!("2-worker digest {d} differs from 1-worker {digest:?}"));
            }
            Some((rec.total_s("core.study.2w"), impressions))
        } else {
            None
        };
        let phases = match workload {
            Workload::BulkSessions => Some(rec.span("phases", |_| phases::measure(PHASE_BLOCKS))?),
            _ => None,
        };
        layers = metrics::layers(&rec, setup_workers, &output, reference, phases);
    }

    Ok(Json::obj(vec![
        ("setup_s", Json::Num(rec.total_s("setup"))),
        ("body_s", Json::Num(rec.total_s("body"))),
        ("drive_s", Json::Num(rec.total_s("core.study"))),
        ("impressions", Json::Int(output.impressions() as i64)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
        ("fingerprint", Json::str(workload::fingerprint(&output))),
        ("digest", Json::opt(digest, Json::str)),
        (
            "text_digest",
            Json::opt(hash.then(|| workload::text_digest(&output)).flatten(), Json::str),
        ),
        ("problems", Json::Arr(problems.into_iter().map(Json::Str).collect())),
        ("top_level_s", Json::Num(rec.top_level_s())),
        ("layers", Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())),
        ("spans", if traced { rec.to_json() } else { Json::Arr(Vec::new()) }),
    ]))
}
