//! `perfbench` — the repository benchmark.
//!
//! Three workloads drive the real `taurus-server` in-process, over a TPC-H
//! engine and a TPC-DS engine routed by the paper's optimizer
//! (`OrcaOptimizer::new(OrcaConfig::default(), threshold)`, thresholds 3
//! and 2), from one closed-loop client thread with one connection per
//! schema:
//!
//! * `serve-hot` — repeated short reads served from the plan cache;
//! * `write-mix` — the same reads with one single-row insert in ten, so
//!   plans invalidate and recompile;
//! * `suite-cold` — `ANALYZE`, then `EXPLAIN` (a cold compile) and the
//!   query (a cache hit) for all 121 TPC-H and TPC-DS templates.
//!
//! [`run`] measures end-to-end metrics over the wire ([`run::run`]); with
//! tracing on, [`trace`] replays the same statements in-process and times
//! each crate's public functions. See `perfbench/README.md`.

pub mod check;
pub mod mix;
pub mod report;
pub mod run;
pub mod sys;
pub mod system;
pub mod trace;

pub use report::{Metric, Outcome};
pub use run::{Config, Workload};
