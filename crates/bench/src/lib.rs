//! # em-bench
//!
//! Harness that regenerates the paper's evaluation:
//!
//! * `table1` binary — every row of Table 1: the classical sequential EM
//!   baseline vs the parallel EM algorithm obtained by simulation, as
//!   measured parallel-I/O-operation counts on the shared disk substrate,
//!   next to the paper-predicted complexity expressions.
//! * `figures` binary — parameter sweeps for the claims with no table of
//!   their own: the ×B blocking factor, the ×D disk parallelism, the
//!   p-processor scaling, the Lemma 2 bucket-balance tail, the Figure 2
//!   reorganization trace, λ-dependence, the Sibeyn–Kaufmann comparison,
//!   group-size (k) ablation and random-vs-deterministic placement.
//! * `traffic` and `chaos` binaries — the service load generator and the
//!   crash/fault soak, whose payload is their in-process asserts.
//!
//! Everything here is counted parallel I/O; wall clock is measured by
//! `benchmark/embench`. Shared here: seeded workload generators and
//! measurement plumbing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod measure;
pub mod report;
pub mod workloads;

pub use measure::{measure_par, measure_seq, EmRunCost};
pub use report::{print_table, write_bench_json, Row};
