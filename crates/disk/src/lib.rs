//! # em-disk
//!
//! A faithful substrate for the **EM-BSP disk model** of Dehne, Dittrich and
//! Hutchinson (and of Vitter–Shriver's parallel disk model): each processor
//! owns `D` disk drives, each drive is a sequence of *tracks* addressed by
//! number, and a track stores exactly one block of `B` bytes. In a single
//! parallel I/O operation the processor may transfer **at most one track per
//! disk** — up to `D` blocks — at cost `G`.
//!
//! The paper's cost claims are all stated in counted parallel I/O
//! operations, so this crate's job is to *count exactly those*, while also
//! optionally performing real file I/O so wall-clock trends can be observed:
//!
//! * [`MemoryBackend`] — tracks held in memory; deterministic and fast.
//! * [`FileBackend`] — one file per simulated drive, positional reads and
//!   writes at `track * B` offsets on the calling thread, one system call
//!   per run of a drive's adjacent tracks. A stripe's `≤ D` transfers are
//!   one counted operation whatever order the bytes move in, so counted
//!   [`IoStats`] and seeded I/O traces match the memory backend's.
//! * [`SharedDiskSubstrate`] — a multi-tenant store: one set of physical
//!   drives carved into disjoint per-tenant track regions, each exposed as
//!   a [`RegionBackend`] under the tenant's own [`DiskArray`]. Transfers
//!   exclude one another on the media, one lock hold each; counting stays
//!   in each tenant's array, so per-tenant [`IoStats`] are bit-identical
//!   to the same run on a private array.
//!
//! ## The canonical decorator stack
//!
//! [`DiskArray`] assembles the optional layers in one fixed order,
//! outermost first:
//!
//! ```text
//! DiskArray( Retrying( Checksum( FaultInjecting( raw ) ) ) )
//! ```
//!
//! Counting lives in [`DiskArray`] itself, *above* every decorator, so no
//! layer can change counted [`IoStats`]. Fault injection sits at the
//! bottom — directly on the raw media — so injected corruption is subject
//! to CRC verification and injected transients to the retry policy,
//! exactly like real media faults. Every layer is opt-in via
//! [`DiskConfig`]; the stack order is not configurable.
//!
//! [`BlockCacheBackend`], a write-back cache decorator, is no part of that
//! stack: no array builds one. It is kept for the benchmark's per-layer
//! ladder, which wraps a backend in one to time cache hits and spills.
//!
//! On top of the raw [`DiskArray`] this crate implements the paper's two
//! on-disk layouts:
//!
//! * [`ConsecutiveLayout`] — *standard consecutive format* (Definition 2):
//!   blocked records, per-disk block counts differing by at most one,
//!   consecutive tracks. Used for virtual-processor contexts and for
//!   reorganized message groups.
//! * *Standard linked format* has no type of its own: it is the single
//!   tracks [`TrackAllocator::alloc_track`] hands out on a chosen drive —
//!   the Writing Phase's scratch tracks and the per-drive staging tracks of
//!   `em_core::simulate_routing` — with the bucket lists kept in memory by
//!   the simulator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alloc;
mod array;
mod backend;
mod block;
mod cache;
mod checkpoint;
mod config;
mod consecutive;
mod error;
mod fault;
mod shared;
mod stats;

pub use alloc::TrackAllocator;
pub use array::{DiskArray, ReadStripeTicket, WriteStripeTicket};
pub use backend::{
    ChecksumBackend, DiskBackend, FileBackend, MemoryBackend, RetryingBackend, TrackOutcomes,
};
pub use block::{crc32, Block, Crc32, CRC_BYTES};
pub use cache::BlockCacheBackend;
pub use checkpoint::{CheckpointStore, CHECKPOINT_VERSION, MANIFEST_MAGIC};
pub use config::{uring_available, DiskConfig, EngineKind, IoMode, Pipeline, RetryPolicy};
pub use consecutive::{check_consecutive_format, ConsecutiveLayout};
pub use error::DiskError;
pub use fault::{FaultCounts, FaultInjectingBackend, FaultKind, FaultPlan, FaultStats};
pub use shared::{RegionBackend, SharedDiskSubstrate};
pub use stats::IoStats;

/// Convenience alias used throughout the workspace.
pub type DiskResult<T> = Result<T, DiskError>;
