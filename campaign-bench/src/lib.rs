//! The repository's campaign benchmark.
//!
//! It streams real [`msa_core::CampaignSpec`] matrices through the public
//! campaign API, reports end-to-end figures from untraced passes and a
//! per-layer split from a traced pass, and checks the outputs.  See
//! `README.md` in this package for the workloads and metrics.

pub mod metrics;
pub mod pass;
pub mod stats;
pub mod trace;
pub mod workload;
