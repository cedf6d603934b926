//! The repository benchmark: two workloads driven through the public
//! APIs of `rths_sim`, `rths_net` and `rths_reactor`, end-to-end and
//! per-layer metrics, bit-exact output checks. See `README.md`.

#![forbid(unsafe_code)]

pub mod clock;
pub mod digest;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
