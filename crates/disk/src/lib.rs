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
//!   writes at `track * B` offsets. With [`IoMode::Parallel`] (the default)
//!   each drive's file is owned by a dedicated worker thread and the
//!   `≤ D` transfers of one stripe overlap in time — real `D`-way
//!   parallelism, joined before the operation returns so callers, counted
//!   [`IoStats`] and seeded I/O traces are unaffected.
//! * [`BlockCacheBackend`] — optional write-back cache over the whole
//!   backend stack ([`DiskConfig::with_cache`]): reads of resident tracks
//!   and buffered writes cost no backend I/O until the barrier flush,
//!   while counted [`IoStats`] stay bit-identical by construction and the
//!   absorbed traffic is tallied in
//!   [`IoStats::cache_hit_blocks`]/[`IoStats::cache_absorbed_writes`].
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
//! DiskArray( Cache( Retrying( Checksum( FaultInjecting( raw ) ) ) ) )
//! ```
//!
//! Counting lives in [`DiskArray`] itself, *above* every decorator, so no
//! layer can change counted [`IoStats`]. Fault injection sits at the
//! bottom — directly on the raw media — so injected corruption is subject
//! to CRC verification and injected transients to the retry policy,
//! exactly like real media faults; the cache is the outermost layer, so a
//! hit short-circuits the whole stack and a flush re-traverses it like a
//! direct write. Every layer is opt-in via [`DiskConfig`]; the stack
//! order is not configurable.
//!
//! On top of the raw [`DiskArray`] this crate implements the paper's two
//! on-disk layouts:
//!
//! * [`ConsecutiveLayout`] — *standard consecutive format* (Definition 2):
//!   blocked records, per-disk block counts differing by at most one,
//!   consecutive tracks. Used for virtual-processor contexts and for
//!   reorganized message groups.
//! * [`BucketStore`] — *standard linked format*: per-disk tables of `D`
//!   bucket list heads, used by the Writing Phase of Algorithm 1 to absorb
//!   message blocks whose arrival order is randomized.

#![warn(missing_docs)]

mod affinity;
mod alloc;
mod array;
mod backend;
mod block;
mod cache;
mod checkpoint;
mod config;
mod consecutive;
mod engine;
mod error;
mod fault;
mod linked;
mod shared;
mod stats;

pub use alloc::TrackAllocator;
pub use array::{DiskArray, ReadStripeTicket, WriteBacklog, WriteStripeTicket};
pub use backend::{
    ChecksumBackend, DiskBackend, FileBackend, MemoryBackend, RetryingBackend, TrackOutcomes,
};
pub use block::{crc32, Block, Crc32, CRC_BYTES};
pub use cache::BlockCacheBackend;
pub use checkpoint::{
    CheckpointStore, JournalContents, JournalFile, CHECKPOINT_VERSION, JOURNAL_FILE, JOURNAL_MAGIC,
    MANIFEST_MAGIC,
};
pub use config::{uring_available, DiskConfig, EngineKind, IoMode, Pipeline, RetryPolicy};
pub use consecutive::{check_consecutive_format, ConsecutiveLayout};
pub use engine::{ReadTicket, WriteTicket};
pub use error::DiskError;
pub use fault::{FaultCounts, FaultInjectingBackend, FaultKind, FaultPlan, FaultStats};
pub use linked::BucketStore;
pub use shared::{RegionBackend, SharedDiskSubstrate};
pub use stats::IoStats;

/// Convenience alias used throughout the workspace.
pub type DiskResult<T> = Result<T, DiskError>;
