//! # em-algos
//!
//! The CGM algorithms of the paper's Table 1, written against the
//! [`em_bsp::BspProgram`] API so each runs unchanged on the in-memory
//! reference runner, the threaded BSP machine, or the external-memory
//! simulators of `em-core` — the portability that the paper's simulation
//! technique converts into *parallel external-memory algorithms*.
//!
//! * **Group A — fundamental** (λ = O(1)): [`sort::cgm_sort`] (sample
//!   sort), [`permute::cgm_permute`], [`transpose::cgm_transpose`],
//!   [`prefix::cgm_prefix_sums`].
//! * **Group B — GIS / computational geometry** (λ = O(1)), on exact
//!   `i64` coordinates: convex hull, 3D maxima, 2D weighted dominance
//!   counting, batched next-element (predecessor) search, lower envelope
//!   of horizontal segments, area of union of rectangles.
//! * **Group C — graph algorithms** (λ = O(log n) supersteps in our
//!   pointer-jumping/hooking formulations; the paper's cited CGM
//!   algorithms achieve O(log p) rounds — the simulation theorem consumes
//!   λ as a parameter either way): list ranking, Euler tour, tree depth,
//!   connected components, spanning forest.
//!
//! Every algorithm ships with a sequential reference implementation used
//! by unit, property and differential tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod geometry;
pub mod graph;
pub mod permute;
pub mod prefix;
pub mod sort;
pub mod transpose;

pub use common::{distribute, AlgoError, AlgoResult, Rec};
