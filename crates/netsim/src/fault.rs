//! Deterministic fault injection: the typed fault model for links.
//!
//! The paper's measurement ran over real consumer networks, where dials
//! time out, handshakes truncate mid-flight and report uploads die. A
//! [`FaultProfile`] gives a link the fault taxonomy those networks
//! actually exhibit:
//!
//! * **blackhole** — the dial's SYN is never answered: neither endpoint
//!   ever observes the connection (the client stalls until its dial
//!   timeout),
//! * **reset** — the connection dies mid-stream: both endpoints observe
//!   a close instead of the in-flight frame (TCP RST),
//! * **truncate** — a frame is cut short on the wire and the connection
//!   dies right after (mid-handshake truncation),
//! * **corrupt** — one byte of a delivered frame is flipped (the frame
//!   still arrives; TLS parsers must surface it as a typed error),
//! * **stall** — an endpoint stops transmitting from some frame on
//!   (server hang; the peer waits forever).
//!
//! **Determinism contract.** Every connection derives one fault DRBG
//! from its `(network seed, client, session salt, dial ordinal)` stream
//! seed, forked under the label `"faults"`, then forked per concern
//! (`"dial"`, `"initiator"`, `"acceptor"`). Each fault type consumes a
//! fixed number of draws whether or not it triggers, so enabling one
//! fault type never shifts another's stream. Faulted runs are therefore
//! a pure function of configuration — bit-identical across thread
//! counts, batch sizes and unrelated co-scheduled sessions — and a
//! profile with every rate at zero samples nothing at all, leaving the
//! fault-free event stream byte-identical to a build without this
//! module.

use tlsfoe_crypto::drbg::{Drbg, RngCore64};

/// Per-link fault probabilities, all sampled per connection.
///
/// The default profile is fault-free. A network's link is its fault
/// profile ([`NetworkConfig::faults`](crate::NetworkConfig::faults),
/// [`Network::set_faults`](crate::Network::set_faults)) plus a fixed
/// latency.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a dial is blackholed (SYN never answered).
    pub blackhole: f64,
    /// Probability a side resets the connection mid-stream.
    pub reset: f64,
    /// Probability a side truncates one of its frames (and the
    /// connection dies immediately after).
    pub truncate: f64,
    /// Probability a side corrupts one byte of one of its frames.
    pub corrupt: f64,
    /// Probability a side stalls (stops transmitting) from some frame on.
    pub stall: f64,
}

impl FaultProfile {
    /// The fault-free profile (every probability zero).
    pub fn none() -> FaultProfile {
        FaultProfile { blackhole: 0.0, reset: 0.0, truncate: 0.0, corrupt: 0.0, stall: 0.0 }
    }

    /// Every fault type at the same probability `p` — the chaos-sweep
    /// convenience used by `exp_chaos`.
    pub fn uniform(p: f64) -> FaultProfile {
        FaultProfile { blackhole: p, reset: p, truncate: p, corrupt: p, stall: p }
    }

    /// Whether any fault can ever trigger. The hot path consults this
    /// once per connection; a fault-free profile allocates no DRBG and
    /// consumes no draws.
    pub fn any(&self) -> bool {
        self.blackhole > 0.0
            || self.reset > 0.0
            || self.truncate > 0.0
            || self.corrupt > 0.0
            || self.stall > 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// What the fault plan does with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver untouched.
    Deliver,
    /// Deliver with one byte XORed by `mask` at `offset`.
    CorruptByte {
        /// Byte offset within the frame.
        offset: usize,
        /// Nonzero XOR mask.
        mask: u8,
    },
    /// Deliver only the first `keep` bytes, then kill the connection.
    TruncateClose {
        /// Bytes delivered before the cut.
        keep: usize,
    },
    /// Drop the frame and close both endpoints (RST).
    Reset,
    /// Drop the frame silently (stalled endpoint).
    Drop,
}

/// One side's sampled fault plan: which fault types hit this connection
/// and at which outgoing-frame ordinal each fires.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Private stream for fire-time draws (corruption offset/mask,
    /// truncation length) — per-connection, so outcomes stay a pure
    /// function of the owning session.
    rng: Drbg,
    frames_sent: u64,
    reset_at: Option<u64>,
    truncate_at: Option<u64>,
    corrupt_at: Option<u64>,
    stall_at: Option<u64>,
}

/// Handshake flights are a handful of frames; scheduled faults fire
/// within the first few so they actually hit mid-handshake.
const SCHEDULE_WINDOW: u64 = 3;

impl FaultState {
    /// Sample a plan from `rng`. Draw order is fixed (reset, truncate,
    /// corrupt, stall) and every type consumes exactly two draws whether
    /// or not it triggers, so enabling one fault type never shifts the
    /// stream positions of another.
    pub(crate) fn sample(profile: &FaultProfile, mut rng: Drbg) -> FaultState {
        let mut plan = |p: f64| {
            let hit = rng.gen_bool(p);
            let at = rng.gen_range(SCHEDULE_WINDOW);
            hit.then_some(at)
        };
        let reset_at = plan(profile.reset);
        let truncate_at = plan(profile.truncate);
        let corrupt_at = plan(profile.corrupt);
        let stall_at = plan(profile.stall);
        FaultState { rng, frames_sent: 0, reset_at, truncate_at, corrupt_at, stall_at }
    }

    /// Decide this outgoing frame's fate. Precedence at one ordinal:
    /// stall (a stalled sender transmits nothing, masking everything
    /// after its stall point), then reset, truncate, corrupt.
    pub(crate) fn on_frame(&mut self, len: usize) -> FaultAction {
        let idx = self.frames_sent;
        self.frames_sent += 1;
        if self.stall_at.is_some_and(|at| idx >= at) {
            return FaultAction::Drop;
        }
        if self.reset_at.is_some_and(|at| at == idx) {
            return FaultAction::Reset;
        }
        if self.truncate_at.is_some_and(|at| at == idx) {
            let keep = if len == 0 { 0 } else { self.rng.gen_range(len as u64) as usize };
            return FaultAction::TruncateClose { keep };
        }
        if self.corrupt_at.is_some_and(|at| at == idx) && len > 0 {
            let offset = self.rng.gen_range(len as u64) as usize;
            let mask = (self.rng.gen_range(255) + 1) as u8;
            return FaultAction::CorruptByte { offset, mask };
        }
        FaultAction::Deliver
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_fault_free() {
        assert!(!FaultProfile::default().any());
        assert!(!FaultProfile::none().any());
        assert!(FaultProfile::uniform(0.1).any());
        assert!(!FaultProfile::uniform(0.0).any());
        assert!(FaultProfile { reset: 0.5, ..FaultProfile::none() }.any());
    }

    #[test]
    fn sampling_is_deterministic() {
        let profile = FaultProfile::uniform(0.5);
        let mut a = FaultState::sample(&profile, Drbg::new(42));
        let mut b = FaultState::sample(&profile, Drbg::new(42));
        for len in [5usize, 100, 0, 17, 1000] {
            assert_eq!(a.on_frame(len), b.on_frame(len));
        }
    }

    #[test]
    fn zero_profile_always_delivers() {
        let mut s = FaultState::sample(&FaultProfile::none(), Drbg::new(7));
        for _ in 0..64 {
            assert_eq!(s.on_frame(100), FaultAction::Deliver);
        }
    }

    #[test]
    fn disabling_one_fault_does_not_shift_another() {
        // The stall plan must be identical whether or not reset is
        // enabled: each type consumes a fixed number of draws.
        let with_reset = FaultProfile { reset: 1.0, stall: 1.0, ..FaultProfile::none() };
        let without = FaultProfile { reset: 0.0, stall: 1.0, ..FaultProfile::none() };
        let a = FaultState::sample(&with_reset, Drbg::new(9));
        let b = FaultState::sample(&without, Drbg::new(9));
        assert_eq!(a.stall_at, b.stall_at);
        assert!(a.reset_at.is_some() && b.reset_at.is_none());
    }

    #[test]
    fn stall_drops_everything_from_its_ordinal_on() {
        let mut s = FaultState::sample(&FaultProfile { stall: 1.0, ..FaultProfile::none() }, {
            // Find a seed whose stall ordinal is 1 so frame 0 delivers.
            let mut seed = 0;
            loop {
                let mut probe = FaultState::sample(
                    &FaultProfile { stall: 1.0, ..FaultProfile::none() },
                    Drbg::new(seed),
                );
                if probe.on_frame(1) == FaultAction::Deliver {
                    break Drbg::new(seed);
                }
                seed += 1;
            }
        });
        assert_eq!(s.on_frame(10), FaultAction::Deliver);
        // From the stall point on, every frame drops.
        let mut dropped = false;
        for _ in 0..8 {
            if s.on_frame(10) == FaultAction::Drop {
                dropped = true;
            } else {
                assert!(!dropped, "a stalled side must never resume");
            }
        }
        assert!(dropped);
    }

    #[test]
    fn corrupt_mask_is_never_zero() {
        let profile = FaultProfile { corrupt: 1.0, ..FaultProfile::none() };
        for seed in 0..200 {
            let mut s = FaultState::sample(&profile, Drbg::new(seed));
            for _ in 0..4 {
                if let FaultAction::CorruptByte { offset, mask } = s.on_frame(64) {
                    assert!(mask != 0, "zero mask would be a silent no-op");
                    assert!(offset < 64);
                }
            }
        }
    }
}
