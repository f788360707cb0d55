//! Regenerate or check the key-hint table in
//! `crates/population/src/key_hints.rs`.
//!
//! Every key a study can warm comes from a constant `(seed, bits)` spec:
//! `hosts::prewarm_key_specs(baseline, era)` together with
//! `keys::product_key_specs(era)`, over both catalog kinds and both
//! eras. This tool runs the full prime search for each spec
//! (`RsaKeyPair::generate_with_hint`) and renders the replayable ones'
//! hints as a sorted const table, which `keys::keypair` replays instead
//! of searching. Each hint is replayed through `RsaKeyPair::from_hint`
//! on the spot and must give the searched key and leave the DRBG where
//! the search left it.
//!
//! * `--check` — exit non-zero unless the committed file equals the
//!   rendered one;
//! * `--write` — overwrite the committed file.
//!
//! Rerun `--write` after changing a key spec, the product catalog or the
//! prime search (≈6–12 s in release).

use std::process::ExitCode;
use std::time::Instant;

use tlsfoe_core::hosts::prewarm_key_specs;
use tlsfoe_crypto::drbg::RngCore64;
use tlsfoe_crypto::RsaKeyPair;
use tlsfoe_population::keys;
use tlsfoe_population::model::StudyEra;

/// The table, as named in messages and relative to the workspace root.
const TABLE: &str = "crates/population/src/key_hints.rs";

const TABLE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../population/src/key_hints.rs");

const REGENERATE: &str = "cargo run --release -p tlsfoe-bench --bin key_hints -- --write";

fn main() -> ExitCode {
    let write = match std::env::args().nth(1).as_deref() {
        Some("--write") => true,
        Some("--check") => false,
        _ => {
            eprintln!("usage: key_hints --check | --write");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let specs = warmable_specs();
    let mut entries = Vec::new();
    for &(seed, bits) in &specs {
        match replayable_hint(seed, bits) {
            Ok(Some(hint)) => entries.push((seed, bits, hint)),
            Ok(None) => {}
            Err(e) => {
                eprintln!("key_hints: ({seed:#x}, {bits}): {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "key_hints: searched {} specs in {:.1} s; {} replayable",
        specs.len(),
        started.elapsed().as_secs_f64(),
        entries.len()
    );
    let fresh = render(&entries);
    if write {
        if let Err(e) = std::fs::write(TABLE_PATH, &fresh) {
            eprintln!("key_hints: writing {TABLE}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("key_hints: wrote {TABLE}");
        return ExitCode::SUCCESS;
    }
    let committed = match std::fs::read_to_string(TABLE_PATH) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("key_hints: reading {TABLE}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if committed == fresh {
        eprintln!("key_hints: {TABLE} matches the search");
        return ExitCode::SUCCESS;
    }
    let mut committed_lines = committed.lines();
    for (n, want) in fresh.lines().enumerate() {
        let have = committed_lines.next();
        if have != Some(want) {
            eprintln!("key_hints: line {}: committed {have:?}, search gives {want:?}", n + 1);
            break;
        }
    }
    eprintln!("key_hints: {TABLE} is stale; rerun `{REGENERATE}`");
    ExitCode::FAILURE
}

/// Search key `(seed, bits)` and replay its hint, if it has one.
fn replayable_hint(seed: u64, bits: usize) -> Result<Option<[u16; 2]>, String> {
    let mut searched_rng = keys::key_drbg(seed);
    let (searched, hint) =
        RsaKeyPair::generate_with_hint(bits, &mut searched_rng).map_err(|e| e.to_string())?;
    let Some(hint) = hint else { return Ok(None) };
    let mut replayed_rng = keys::key_drbg(seed);
    let replayed = RsaKeyPair::from_hint(bits, hint, &mut replayed_rng)
        .map_err(|e| format!("hint {hint:?} does not replay: {e}"))?;
    if (replayed.public, replayed.p, replayed.q) != (searched.public, searched.p, searched.q)
        || replayed_rng.next_u64() != searched_rng.next_u64()
    {
        return Err(format!("hint {hint:?} replays to a different key or DRBG state"));
    }
    Ok(Some(hint))
}

/// Every `(seed, bits)` spec `run_study` can warm, sorted and unique.
fn warmable_specs() -> Vec<(u64, usize)> {
    let mut specs = Vec::new();
    for era in [StudyEra::Study1, StudyEra::Study2] {
        for baseline in [false, true] {
            specs.extend(prewarm_key_specs(baseline, era));
        }
        specs.extend(keys::product_key_specs(era));
    }
    specs.sort_unstable();
    specs.dedup();
    specs
}

/// The table file as rustfmt would lay it out.
fn render(entries: &[(u64, usize, [u16; 2])]) -> String {
    let mut out = format!(
        "//! Generated by `{REGENERATE}`.\n\
         //! Do not edit: `key_hints --check` fails unless this file matches a fresh search.\n\
         \n\
         /// Prime-search hints for the fixed key set: `(seed, bits, [p offset, q offset])` for\n\
         /// every key spec a study can warm whose search is replayable, sorted by\n\
         /// `(seed, bits)`. See `keys::keypair`.\n\
         pub const KEY_HINTS: &[(u64, usize, [u16; 2])] = &[\n"
    );
    for &(seed, bits, [p, q]) in entries {
        let group = |shift: u32| (seed >> shift) & 0xffff;
        out.push_str(&format!(
            "    (0x{:04x}_{:04x}_{:04x}_{:04x}, {bits}, [{p}, {q}]),\n",
            group(48),
            group(32),
            group(16),
            group(0)
        ));
    }
    out.push_str("];\n");
    out
}
