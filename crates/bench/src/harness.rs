//! Wall-clock timing helpers for `exp_perf`.
//!
//! `tlsfoe-bench` is a tooling crate — exempt from the workspace
//! determinism lint — so `std::time::Instant` is allowed here (and only
//! in crates like this one; the simulation crates must stay
//! wall-clock-free).
//!
//! [`best_ns`] and [`best_ns_paired`] time calibrated ~20 ms sample
//! blocks and take the minimum across them, because external
//! interference only ever adds time; [`best_ns_paired`] also gives the
//! two closures' ratio from adjacent blocks. The session phases are
//! timed by the `benchmark/` package (`benchmark/src/phases.rs`), not
//! here.

use std::time::Instant;

/// Iterations of `f` that fit ~20 ms, time-bounded calibration.
fn calibrate(f: &mut impl FnMut()) -> u64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 5 || iters >= 1 << 20 {
            let per = elapsed.as_nanos().max(1) / iters as u128;
            return (20_000_000 / per).clamp(1, 1 << 20) as u64;
        }
        iters *= 2;
    }
}

/// Mean ns/iteration of one timed block of `iters` calls.
fn sample_ns(iters: u64, f: &mut impl FnMut()) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / iters as u128) as u64
}

/// Aggregate samples with the *minimum*: external interference (other
/// processes, frequency steps) only ever adds time, so the fastest
/// sample block is the most reproducible estimate — medians were
/// observed to spike >80% on shared runners when a noisy neighbour
/// overlapped most of a metric's sampling window, which is exactly the
/// false-positive a CI perf gate cannot afford.
fn best(v: Vec<u64>) -> u64 {
    v.into_iter().min().unwrap_or(u64::MAX)
}

/// Best (minimum) ns/iteration of `f` across sample blocks.
pub fn best_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    let iters = calibrate(&mut f);
    best((0..samples).map(|_| sample_ns(iters, &mut f)).collect())
}

/// Two closures timed by [`best_ns_paired`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Best (minimum) ns/iteration of `f`.
    pub f_ns: u64,
    /// Best (minimum) ns/iteration of `g`.
    pub g_ns: u64,
    /// Median, over the sample pairs, of `f`'s ns/iteration over `g`'s
    /// in the adjacent block.
    pub ratio: f64,
}

/// Time two closures in sample blocks interleaved `f,g,f,g,…`.
///
/// The ratio is the median of per-pair ratios, not the ratio of the
/// two bests: adjacent blocks share the machine's state, so a slow
/// stretch that covers every block of one side but spares one block of
/// the other moves a ratio of bests and not the median. With both
/// closures doing the same work, on a shared 2-vCPU VM, 96 ratios of
/// bests read 0.69–1.22 (10 beyond ±10%) and 96 medians 0.90–1.17 (3).
pub fn best_ns_paired(samples: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> Paired {
    let fi = calibrate(&mut f);
    let gi = calibrate(&mut g);
    let mut fs = Vec::with_capacity(samples);
    let mut gs = Vec::with_capacity(samples);
    for _ in 0..samples {
        fs.push(sample_ns(fi, &mut f));
        gs.push(sample_ns(gi, &mut g));
    }
    let mut ratios: Vec<f64> =
        fs.iter().zip(&gs).map(|(&f, &g)| f as f64 / g.max(1) as f64).collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios.get(ratios.len() / 2).copied().unwrap_or(f64::NAN);
    Paired { f_ns: best(fs), g_ns: best(gs), ratio }
}
