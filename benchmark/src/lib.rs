//! The repo benchmark: five life-cycle workloads over the public API of
//! the UPI crates, measured from outside. See `README.md`.

pub mod harness;
pub mod json;
pub mod oracle;
pub mod probes;
pub mod registry;
pub mod stats;
pub mod trace;
pub mod workloads;
