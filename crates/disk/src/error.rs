//! Error type for the disk substrate.

use std::fmt;
use std::io;

/// Errors raised by the disk-array substrate.
///
/// Marked `#[non_exhaustive]`: fault-model variants grow over time, so
/// downstream matches must keep a wildcard arm. Use [`DiskError::is_transient`]
/// to classify errors instead of matching variants exhaustively.
#[derive(Debug)]
#[non_exhaustive]
pub enum DiskError {
    /// A configuration parameter was invalid.
    InvalidConfig(&'static str),
    /// A request addressed a drive index `disk >= D`.
    DiskOutOfRange {
        /// Requested drive index.
        disk: usize,
        /// Number of drives in the array.
        num_disks: usize,
    },
    /// A single parallel I/O operation addressed the same drive twice —
    /// the model permits at most one track per disk per operation.
    StripeConflict {
        /// The drive that was addressed more than once.
        disk: usize,
    },
    /// A block had the wrong size for this array's track size `B`.
    BadBlockSize {
        /// Expected size (`B`).
        expected: usize,
        /// Actual buffer size.
        got: usize,
    },
    /// The array's capacity limit (if configured) was exceeded.
    CapacityExceeded {
        /// Drive that ran out of tracks.
        disk: usize,
        /// Configured maximum tracks per drive.
        max_tracks: usize,
    },
    /// An OS I/O failure that belongs to no one drive: creating, opening
    /// or inspecting the drive files, or a checkpoint manifest.
    Io(io::Error),
    /// One drive's OS I/O failure on a track transfer or a flush (file
    /// backend), or an injected transient one. When several tracks of a
    /// stripe fail at once, the merged form reports the first failing
    /// track's drive in request order, deterministically.
    WorkerIo {
        /// Drive that hit the failure.
        disk: usize,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A drive is dead: a [`crate::FaultPlan`] scheduled its death, and
    /// it refuses this and every later transfer.
    WorkerLost {
        /// Drive that died.
        disk: usize,
    },
    /// A checksummed block frame failed CRC verification on read.
    Corrupt {
        /// Drive holding the corrupt track.
        disk: usize,
        /// Track whose frame failed verification.
        track: usize,
    },
    /// A file-backed track address does not fit the arithmetic that locates
    /// it: the byte offset `track · B` (or the track's end) exceeds the
    /// largest file offset the OS can express, or — when reattaching — a
    /// drive file holds more tracks than `usize` can index.
    OffsetOverflow {
        /// Drive the address was on.
        disk: usize,
        /// The offending track index (or track count, when reattaching).
        track: u64,
    },
}

impl DiskError {
    /// Whether the failure is transient: retrying the same transfer (or
    /// replaying the enclosing superstep) has a chance of succeeding.
    ///
    /// Configuration, addressing, capacity and offset errors are
    /// deterministic and never transient; a dead drive stays dead. OS-level
    /// I/O failures and corrupt reads may be caused by transient media
    /// faults, so they are worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, DiskError::Io(_) | DiskError::WorkerIo { .. } | DiskError::Corrupt { .. })
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::InvalidConfig(msg) => write!(f, "invalid disk configuration: {msg}"),
            DiskError::DiskOutOfRange { disk, num_disks } => {
                write!(f, "disk index {disk} out of range (array has {num_disks} drives)")
            }
            DiskError::StripeConflict { disk } => write!(
                f,
                "parallel I/O addressed drive {disk} more than once (model allows one track per disk per operation)"
            ),
            DiskError::BadBlockSize { expected, got } => {
                write!(f, "block size mismatch: expected {expected} bytes, got {got}")
            }
            DiskError::CapacityExceeded { disk, max_tracks } => {
                write!(f, "drive {disk} exceeded its capacity of {max_tracks} tracks")
            }
            DiskError::Io(e) => write!(f, "I/O error: {e}"),
            DiskError::WorkerIo { disk, source } => {
                write!(f, "I/O error on drive {disk}: {source}")
            }
            DiskError::WorkerLost { disk } => {
                write!(f, "drive {disk} is dead")
            }
            DiskError::Corrupt { disk, track } => {
                write!(f, "checksum mismatch on drive {disk}, track {track}")
            }
            DiskError::OffsetOverflow { disk, track } => {
                write!(f, "track {track} on drive {disk} is beyond the addressable file offsets")
            }
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io(e) => Some(e),
            DiskError::WorkerIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}
