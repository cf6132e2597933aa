//! Error type for the EM simulation.

use crate::report::FaultReport;
use em_bsp::BspError;
use em_disk::DiskError;
use em_serial::DecodeError;
use std::fmt;

/// Errors raised while simulating a BSP program in external memory.
#[derive(Debug)]
pub enum EmError {
    /// Error from the BSP layer (bad destination, superstep limit, ...).
    Bsp(BspError),
    /// Error from the disk substrate.
    Disk(DiskError),
    /// A persisted context or message failed to decode — indicates state
    /// corruption or a `Serial` implementation violating its laws.
    Decode(DecodeError),
    /// A virtual processor's serialized context exceeded the declared
    /// μ = `max_state_bytes()` and no longer fits its disk region.
    ContextOverflow {
        /// Virtual processor whose context overflowed.
        pid: usize,
        /// Serialized size in bytes.
        need: usize,
        /// Region capacity in bytes.
        capacity: usize,
    },
    /// A virtual processor sent more traffic in one superstep than the
    /// declared γ = `max_comm_bytes()` (16-byte per-message envelope
    /// headers included).
    CommBudgetExceeded {
        /// Offending virtual processor.
        pid: usize,
        /// Envelope bytes it tried to send.
        sent: u64,
        /// Declared budget γ.
        budget: usize,
    },
    /// The message blocks destined for one group exceeded what γ allows
    /// it — `k·γ` envelope bytes plus one partial block per stream
    /// (receive-side γ violation).
    GroupRegionOverflow {
        /// Destination group.
        group: usize,
        /// Blocks generated for it.
        blocks: usize,
        /// Blocks γ allows the group.
        capacity: usize,
    },
    /// The machine's memory cannot hold even one virtual processor's
    /// context (`k = ⌊M/μ⌋ = 0`).
    MemoryTooSmall {
        /// Machine memory `M` in bytes.
        m_bytes: usize,
        /// Bytes needed for a single context plus working buffers.
        needed: usize,
    },
    /// A configuration parameter combination is invalid.
    InvalidConfig(String),
    /// Message blocks read back from disk (or passed on by another
    /// processor) do not form the stream that was written: a block of the
    /// stream is missing or repeated, the stream stops inside an envelope,
    /// or a message addresses a virtual processor the blocks were not read
    /// for.
    CorruptMessageStream {
        /// Source tag of the stream's blocks (its producer's slot).
        src_tag: u32,
        /// Destination tag of the stream's blocks.
        dst_tag: u32,
        /// What was found.
        what: &'static str,
    },
    /// A disk fault survived the substrate's retry policy and exhausted
    /// the superstep replay budget — or was inherently unrecoverable, such
    /// as a dead drive. Carries the full injection/recovery tally.
    FaultUnrecoverable {
        /// Compound superstep that could not be completed.
        step: usize,
        /// Injection and recovery tallies up to the failure.
        report: FaultReport,
        /// The underlying error that exhausted the budgets.
        source: Box<EmError>,
    },
    /// The run was terminated by a simulated crash point
    /// ([`KillPoint`](crate::KillPoint)) for chaos testing. The on-disk
    /// state is exactly what a real process crash at that moment would
    /// leave behind; a `resume` call continues the run bit-identically.
    Killed {
        /// Compound superstep at which the simulated crash fired.
        step: usize,
    },
}

impl fmt::Display for EmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmError::Bsp(e) => write!(f, "BSP error: {e}"),
            EmError::Disk(e) => write!(f, "disk error: {e}"),
            EmError::Decode(e) => write!(f, "decode error: {e}"),
            EmError::ContextOverflow { pid, need, capacity } => write!(
                f,
                "context of virtual processor {pid} is {need} bytes, exceeding its μ-region of {capacity} bytes; \
                 raise max_state_bytes()"
            ),
            EmError::CommBudgetExceeded { pid, sent, budget } => write!(
                f,
                "virtual processor {pid} sent {sent} envelope bytes in one superstep, exceeding γ = {budget}; \
                 raise max_comm_bytes()"
            ),
            EmError::GroupRegionOverflow { group, blocks, capacity } => write!(
                f,
                "group {group} received {blocks} message blocks, exceeding the {capacity} its γ allows"
            ),
            EmError::MemoryTooSmall { m_bytes, needed } => write!(
                f,
                "machine memory M = {m_bytes} bytes cannot hold one context ({needed} bytes needed); k = ⌊M/μ⌋ = 0"
            ),
            EmError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EmError::CorruptMessageStream { src_tag, dst_tag, what } => {
                write!(f, "message stream {src_tag} → {dst_tag} is corrupt on disk: {what}")
            }
            EmError::FaultUnrecoverable { step, report, source } => write!(
                f,
                "superstep {step} could not be recovered ({} replays performed, {} retried blocks): {source}",
                report.replays, report.retried_blocks
            ),
            EmError::Killed { step } => write!(
                f,
                "run killed by a simulated crash point at superstep {step}; resume from the last committed checkpoint"
            ),
        }
    }
}

impl std::error::Error for EmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmError::Bsp(e) => Some(e),
            EmError::Disk(e) => Some(e),
            EmError::Decode(e) => Some(e),
            EmError::FaultUnrecoverable { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<BspError> for EmError {
    fn from(e: BspError) -> Self {
        EmError::Bsp(e)
    }
}

impl From<DiskError> for EmError {
    fn from(e: DiskError) -> Self {
        EmError::Disk(e)
    }
}

impl From<DecodeError> for EmError {
    fn from(e: DecodeError) -> Self {
        EmError::Decode(e)
    }
}
