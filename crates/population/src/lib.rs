//! # tlsfoe-population
//!
//! The generative model of "who is out there": every interception product
//! the paper observed, with its measured behaviour, plus per-country
//! prevalence. This crate is the simulation's *ground truth* — the
//! measurement pipeline in `tlsfoe-core` must recover these parameters
//! through real TLS handshakes, exactly as the field study recovered the
//! real population's parameters through real ad impressions.
//!
//! * [`products`] — the catalog: Bitdefender, PSafe, Sendori, Kurupira,
//!   Superfish, `IopFailZeroAccessCreate`, null-issuer ghosts, telecoms…
//!   each with category, prevalence weights for both studies, and
//!   certificate-minting behaviour (key size, signature hash, issuer
//!   forgery, subject mutation, shared keys),
//! * [`keys`] — deterministic per-product key material (cached; the
//!   IopFail malware's single shared 512-bit leaf key lives here),
//! * [`cache`] — the substitute-chain cache (a `tlsfoe_crypto::Memo`)
//!   one [`PopulationModel`] shares across every factory and worker
//!   thread (with the determinism contract that makes that safe),
//! * [`factory`] — substitute-certificate minting per product behaviour,
//! * [`proxy`] — the actual TLS proxy: a netsim [`tlsfoe_netsim::net::Interceptor`]
//!   that terminates TLS client-side with a substitute chain, optionally
//!   validates upstream (Bitdefender blocks forged upstreams; Kurupira
//!   masks them — §5.2), and transparently splices whitelisted hosts
//!   (§6.3),
//! * [`model`] — per-country interception rates and client sampling for
//!   study 1 and study 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod factory;
mod key_hints;
pub mod keys;
pub mod model;
pub mod products;
pub mod proxy;

pub use cache::{SubstituteCache, SubstituteEntry, SubstituteKey};
pub use factory::SubstituteFactory;
pub use model::{ClientProfile, PopulationModel, StudyEra};
pub use products::{ProductId, ProductSpec, ProxyCategory, UpstreamPolicy};
pub use proxy::TlsProxy;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` on every item of `work` across up to `threads` scoped OS
/// threads (inline on one), each thread claiming the next unclaimed
/// item, so one slow item (a 2048-bit keygen) delays only its own
/// thread. The prewarm loop behind [`keys::warm_keys`] and
/// [`PopulationModel::warm_substitutes`].
pub(crate) fn par_for_each<T: Sync>(work: &[T], threads: usize, f: impl Fn(&T) + Sync) {
    let threads = threads.clamp(1, work.len().max(1));
    if threads == 1 {
        work.iter().for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(item) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    f(item);
                }
            });
        }
    });
}
