//! # em-bsp
//!
//! The coarse-grained parallel models of the paper — **BSP** (Valiant 1990),
//! **BSP\*** (Bäumker–Dittrich–Meyer auf der Heide 1995) and **CGM**
//! (Dehne–Fabri–Rau-Chaplin 1993) — as a programming API plus two in-memory
//! executors:
//!
//! * [`run_sequential`] — deterministic round-robin execution; the
//!   reference semantics every other runner (including the external-memory
//!   simulation in `em-core`) must match.
//! * [`ThreadedRunner`] — a real parallel BSP machine: worker threads,
//!   barrier-separated supersteps, message routing between workers.
//!
//! A parallel algorithm is a type implementing [`BspProgram`]: per virtual
//! processor state (`State`), a message type (`Msg`), and a `superstep`
//! function called once per superstep per virtual processor with a
//! [`Mailbox`] for communication. The same program value runs unchanged on
//! every executor — that is precisely the property the paper's simulation
//! technique exploits.
//!
//! Communication is *counted* (messages, bytes, per-superstep `h`), and the
//! ledgers price a run under any of the three cost models via
//! [`BspParams`], [`BspStarParams`] and [`CgmParams`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod collectives;
mod cost;
mod error;
mod executor;
mod params;
mod program;
mod runner;

pub use collectives::{scatter_evenly, send_to_all};
pub use cost::{CommLedger, SuperstepComm};
pub use error::BspError;
pub use executor::{ExecError, Executor, SeqExecutor};
pub use params::{BspParams, BspStarParams, CgmParams};
pub use program::{BspProgram, Envelope, Mailbox, Step};
pub use runner::seq::{run_sequential, RunResult};
pub use runner::threads::ThreadedRunner;

/// Default guard against non-terminating programs.
pub const DEFAULT_MAX_SUPERSTEPS: usize = 100_000;
