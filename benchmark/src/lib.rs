//! The layered benchmark for the time-warping search engine: five named
//! workloads, end-to-end and per-layer metrics, and a traced run. See
//! `README.md` beside this crate for what each workload and metric is for.

pub mod cli;
pub mod compare;
pub mod corpus;
pub mod exec;
pub mod json;
pub mod oracle;
pub mod phases;
pub mod probes;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workload;
