//! # tlsfoe-core
//!
//! The paper's primary contribution: the TLS-proxy measurement pipeline
//! and the two AdWords-driven studies, end to end.
//!
//! * [`hosts`] — the probed-host catalog (Table 1): the authors' server
//!   plus the 17 Alexa sites with permissive Flash socket policies, each
//!   with its genuine chain and that chain's upload body, built once per
//!   process,
//! * [`http`] — the minimal HTTP POST used to upload reports (§3, step 3),
//! * [`report`] — the reporting server: receives PEM chains, compares
//!   them with the authoritative certificates, geolocates the client and
//!   stores a [`store::MeasurementRecord`],
//! * [`store`] — the columnar measurement database: struct-of-arrays
//!   rows, interned substitute evidence, sealed push/cursor/fold API
//!   sized for million-client studies,
//! * [`session`] — one ad impression's measurement session: policy
//!   fetch, partial TLS probes, report upload — over the simulated
//!   network with the client's interceptor installed,
//! * [`study`] — full study orchestration (campaigns × impressions,
//!   scale-divided, sharded across threads),
//! * [`classify`] — the Issuer-Organization classifier (Tables 5/6),
//! * [`analysis`] — per-country / per-issuer / per-host-type aggregation
//!   (Tables 3, 4, 7, 8 and the Figure-7 series),
//! * [`negligence`] — §5.2: key-size downgrades, MD5, forged CA issuers,
//!   subject mutations,
//! * [`malware`] — §5.1/§6.4: malware identification, shared-key
//!   clusters, kowsar-style anomalies,
//! * [`audit`] — the firewall lab audit (Kurupira masks, Bitdefender
//!   blocks),
//! * [`baseline`] — the Huang-et-al.-style single-popular-host
//!   methodology, for the §8 comparison,
//! * [`tables`] — text renderers that print each table the way the
//!   paper lays it out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod analysis;
pub mod audit;
pub mod baseline;
pub mod classify;
pub mod hosts;
pub mod http;
pub mod json;
pub mod malware;
pub mod negligence;
pub mod report;
pub mod session;
pub mod store;
pub mod study;
pub mod tables;

pub use hosts::{HostCatalog, HostCategory, ProbeHost};
pub use report::ReportServer;
pub use session::{RetryPolicy, SessionError, SessionRunner};
pub use store::{Database, MeasurementRecord, ProbeFailureRecord, RecordView, SubstituteInfo};
pub use study::{ShardFailure, StudyConfig, StudyError, StudyOutcome};
