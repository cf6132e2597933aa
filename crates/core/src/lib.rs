//! # em-core
//!
//! The paper's contribution: a simulation technique that executes any
//! [`em_bsp::BspProgram`] (a BSP / BSP\* / CGM algorithm with `v` virtual
//! processors) as an **external-memory algorithm** on a machine with `p`
//! real processors, each having `M` bytes of memory and `D` disks of block
//! size `B` — with all disk traffic *fully blocked* and *`D`-way parallel*.
//!
//! There is **one engine and two entry points**. The compound-superstep
//! engine (`par_sim.rs`) is Algorithm 3 (`ParCompoundSuperstep`) followed
//! by Algorithm 2 (`SimulateRouting`): batches of `k·p` virtual processors
//! (`k = ⌊M/μ⌋` per real processor) are simulated at a time; contexts live
//! in *standard consecutive format*; generated message blocks are sent to
//! a uniformly random real processor, scattered over its disks with a
//! fresh random permutation per write cycle, bucketed by destination in
//! *standard linked format*, and reorganized once per superstep into
//! per-batch consecutive regions.
//!
//! * [`ParEmSimulator`] enters it for the machine's `p`: `p` OS threads,
//!   one private disk array each, channels and a barrier between them.
//! * [`SeqEmSimulator`] enters it at `p = 1`, where Algorithm 3 *is*
//!   Algorithm 1 (`SeqCompoundSuperstep`): the worker runs on the calling
//!   thread, the exchange is the identity and the barrier a no-op. It
//!   borrows one array (`run_on(&mut DiskArray)`) and keeps its files
//!   directly in the backend directory.
//!
//! Both wrap one knob set, so every `with_*` builder exists once. At one
//! seed the two entry points agree on every counted quantity and every
//! drive byte when `p = 1`. Two facts of the model make that so, and the
//! engine observes both from the machine's `p` alone: a block's
//! "uniformly random processor" is the only processor, and a draw over one
//! outcome consumes no randomness; and each batch has a single owner
//! stream per producer, so a group can collect at most one partial block
//! per source group — Algorithm 1's slack.
//!
//! * [`theory`] — machine-checkable versions of the paper's bounds
//!   (Lemma 2, Lemmas 8–10, Theorem 1, Corollary 1) used by the benchmark
//!   harness to print predicted columns next to measured counts.
//!
//! Either way the results are **identical** to the in-memory reference
//! executor [`em_bsp::run_sequential`] — that is the correctness contract,
//! enforced by differential tests — while every byte of context and message
//! traffic flows through an [`em_disk::DiskArray`] whose parallel I/O
//! operations are counted exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod compute;
mod context_store;
mod error;
mod exec;
mod machine;
mod msg;
mod par_sim;
mod planner;
mod report;
mod routing;
mod seq_sim;
mod sim_config;
#[cfg(test)]
mod test_programs;
pub mod theory;

pub use checkpoint::KillPoint;
pub use context_store::{BufferPool, ContextStore};
pub use error::EmError;
pub use exec::Recording;
pub use machine::{EmMachine, ModelCheck};
pub use msg::{
    fetch_group_messages, scatter_messages, GroupCounts, InMsg, MsgGeometry, OutMsg, Placement,
    ScratchState, BLOCK_HEADER_BYTES, MSG_HEADER_BYTES,
};
pub use par_sim::ParEmSimulator;
pub use planner::{Plan, Planner, ProblemProfile};
pub use report::{CostReport, FaultReport, PhaseIo, PhaseWall, RecoveryPolicy};
pub use routing::{simulate_routing, RoutingScratch, RoutingTrace};
pub use seq_sim::SeqEmSimulator;

/// Result alias for simulation operations.
pub type EmResult<T> = Result<T, EmError>;
