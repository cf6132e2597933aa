//! # em-baselines
//!
//! The classical external-memory comparators from the second column of the
//! paper's Table 1, implemented on the same [`em_disk::DiskArray`]
//! substrate as the simulation so that counted parallel I/O operations are
//! directly comparable:
//!
//! * [`external_sort()`] — Aggarwal–Vitter multiway merge sort with
//!   `D`-striped runs: `Θ((n/DB)·log_{M/DB}(n/B))` parallel I/Os.
//! * [`external_permute()`] / [`external_transpose()`] — permutation routing
//!   and matrix transpose by destination sort.
//! * [`naive`] — unblocked record-at-a-time variants exhibiting the ×B
//!   blocking-factor penalty the paper's introduction quantifies.
//! * [`pram`] — Chiang-et-al.-style PRAM-step simulation (one external
//!   sort batch per PRAM step), the prior simulation approach the paper
//!   improves on for problems without geometrically decreasing size.
//! * [`sibeyn`] — a Sibeyn–Kaufmann-style BSP-to-EM runner: one virtual
//!   processor at a time, a `v × v` message matrix, a single disk and no
//!   blocking adaptation (the concurrent-work comparator of Section 2.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod external_permute;
pub mod external_sort;
pub mod external_transpose;
pub mod naive;
pub mod pram;
pub mod records;
pub mod sibeyn;

pub use external_permute::external_permute;
pub use external_sort::{external_sort, ExternalSort, SortStats};
pub use external_transpose::external_transpose;
pub use records::FixedRec;
pub use sibeyn::SibeynRunner;
