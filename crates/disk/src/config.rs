//! Disk-array configuration (the `D`, `B` parameters of the EM model).

use crate::DiskError;

/// How the file backend executes the `≤ D` track transfers of one stripe.
///
/// The mode changes *who* performs the file I/O (the calling thread vs one
/// dedicated worker thread per drive) and whether the transfers overlap in
/// time — never what bytes are transferred, what [`crate::IoStats`] count,
/// or what a seeded run's I/O trace looks like. The memory backend ignores
/// the mode entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMode {
    /// Execute each stripe as a loop over drives on the calling thread.
    /// Useful as a baseline and for pinning down threading-related bugs.
    Serial,
    /// Dispatch each stripe to per-drive worker threads and join them
    /// before returning, so the transfers overlap `D`-ways.
    Parallel,
}

/// Whether a simulator may overlap disk transfers of adjacent work units
/// (groups/batches) within one compound superstep, and how many of them
/// may be in flight at once.
///
/// Like [`IoMode`], the pipeline knob changes *when* transfers execute —
/// never which stripes are submitted, what [`crate::IoStats`] count, or
/// what a seeded run computes. Counting happens in
/// [`DiskArray`](crate::DiskArray) at submission time, so the counted cost
/// of a run is bit-identical at every depth by construction.
/// The superstep-boundary `sync()` is the barrier: no transfer submitted
/// inside a superstep may still be in flight after it.
///
/// The knob is a single scalar — the *window depth* returned by
/// [`Pipeline::depth`]: how many work units ahead of the one currently
/// being joined a simulator may have submitted. The classic one-ahead
/// double-buffering scheme is [`Pipeline::Stream`]`(1)`:
///
/// ```
/// use em_disk::Pipeline;
///
/// assert_eq!(Pipeline::Off.depth(), 0);
/// assert_eq!(Pipeline::Stream(4).depth(), 4);
/// // Stream(0) requests no overlap at all — it behaves like Off.
/// assert_eq!(Pipeline::Stream(0).depth(), Pipeline::Off.depth());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Every stripe is joined before the next one is submitted (the
    /// classic fetch → compute → write group loop).
    Off,
    /// Stream compound supersteps through a bounded window of up to `n`
    /// work units concurrently in flight across fetch (submitted read
    /// tickets), compute and write ([`crate::WriteBacklog`]), with the
    /// reorganization drain and the barrier `sync()` as the only full
    /// joins. `Stream(0)` degenerates to [`Pipeline::Off`]; `Stream(1)` is
    /// double buffering — while group `g` computes, group `g+1`'s contexts
    /// and inbound message blocks are already in flight and group `g-1`'s
    /// outbound blocks and contexts drain in the background; larger depths
    /// only add more prefetch distance — never different submissions.
    Stream(usize),
}

impl Pipeline {
    /// The in-flight window depth this knob requests: how many work units
    /// (groups/batches) ahead of the one being joined a simulator may
    /// have submitted. 0 means fully synchronous.
    #[inline]
    pub fn depth(&self) -> usize {
        match self {
            Pipeline::Off => 0,
            Pipeline::Stream(n) => *n,
        }
    }
}

/// The asynchronous engine behind file-backed parallel stripes. There is
/// one: a dedicated worker thread per drive. The type, the simulators'
/// `with_engine` and [`uring_available`] remain because the benchmark
/// names them (ROADMAP item 1(ii)); none of them selects anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// One dedicated worker thread per drive (`em-disk-d{idx}`), each
    /// draining a FIFO of track commands.
    #[default]
    Threaded,
}

/// Always `false`: the `io_uring` engine this used to probe for was
/// deleted (`git show a81af6a:crates/disk/src/uring.rs`).
pub fn uring_available() -> bool {
    false
}

/// Bounded, deterministic retry schedule for transient track-transfer
/// failures ([`crate::DiskError::is_transient`]).
///
/// Applied by [`crate::RetryingBackend`] around every track transfer: a
/// failed transfer is re-issued up to `max_attempts` times total, sleeping
/// `backoff_micros · 2^(k-1)` microseconds before re-attempt `k`. The
/// schedule is a pure function of the policy, so identically-seeded runs
/// retry identically. Retries are counted in
/// [`IoStats::retried_blocks`](crate::IoStats::retried_blocks), never in
/// the paper-facing `parallel_ops`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Total attempts per track transfer, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff in microseconds; doubled before each further attempt.
    /// Zero (the default) retries immediately, which keeps seeded test
    /// runs fast without changing the retry semantics.
    pub backoff_micros: u64,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with no backoff.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff_micros: 0 }
    }

    /// Set the base backoff delay in microseconds.
    pub fn with_backoff_micros(mut self, micros: u64) -> Self {
        self.backoff_micros = micros;
        self
    }

    /// Deterministic delay before re-attempt `attempt` (1-based count of
    /// retries already performed): `backoff_micros · 2^(attempt-1)` µs.
    pub fn delay_before(&self, attempt: u32) -> std::time::Duration {
        let micros = self.backoff_micros.saturating_mul(1u64 << (attempt - 1).min(20));
        std::time::Duration::from_micros(micros)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

/// Shape of a disk array: `D` drives with tracks of `B` bytes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// `D` — number of disk drives attached to one processor.
    pub num_disks: usize,
    /// `B` — bytes per track (the transfer block size).
    pub block_bytes: usize,
    /// How file-backed stripes execute (default [`IoMode::Parallel`]).
    pub io_mode: IoMode,
    /// Whether simulators overlap adjacent groups' I/O (default
    /// [`Pipeline::Off`]).
    pub pipeline: Pipeline,
    /// Whether each stored track carries a CRC32 frame suffix, verified on
    /// every read (default off). Corruption surfaces as
    /// [`DiskError::Corrupt`](crate::DiskError::Corrupt). The checksum
    /// lives *outside* the logical `B`-byte block, so enabling it changes
    /// neither block arithmetic nor counted I/O.
    pub checksums: bool,
    /// Bounded retry of transient track-transfer failures (default off).
    pub retry: Option<RetryPolicy>,
    /// Capacity in bytes of the write-back block cache layered over the
    /// whole backend stack (default 0 = no cache). Rounded down to whole
    /// tracks; capacities smaller than one track leave the cache off. Like
    /// every other knob the cache changes only wall clock: counting
    /// happens in [`DiskArray`](crate::DiskArray) at submission, so
    /// counted [`crate::IoStats`] are bit-identical with the cache on or
    /// off, and absorbed traffic is tallied separately in
    /// [`IoStats::cache_hit_blocks`](crate::IoStats::cache_hit_blocks) /
    /// [`IoStats::cache_absorbed_writes`](crate::IoStats::cache_absorbed_writes).
    pub cache_bytes: usize,
    /// Whether the drive worker threads are best-effort pinned to CPU
    /// cores at spawn (default off). Pinning is a wall-clock-only knob:
    /// drive worker `d` goes to core `d mod ncpus`; on platforms without
    /// thread affinity the request is a no-op.
    pub pin_workers: bool,
}

impl DiskConfig {
    /// Create a configuration, validating that both parameters are nonzero.
    /// The I/O mode defaults to [`IoMode::Parallel`]; pipelining defaults
    /// to [`Pipeline::Off`].
    pub fn new(num_disks: usize, block_bytes: usize) -> Result<Self, DiskError> {
        if num_disks == 0 {
            return Err(DiskError::InvalidConfig("num_disks must be >= 1"));
        }
        if block_bytes == 0 {
            return Err(DiskError::InvalidConfig("block_bytes must be >= 1"));
        }
        Ok(DiskConfig {
            num_disks,
            block_bytes,
            io_mode: IoMode::Parallel,
            pipeline: Pipeline::Off,
            checksums: false,
            retry: None,
            cache_bytes: 0,
            pin_workers: false,
        })
    }

    /// Request best-effort CPU pinning of the drive workers at spawn (see
    /// [`DiskConfig::pin_workers`]).
    pub fn with_pinned_workers(mut self, pin: bool) -> Self {
        self.pin_workers = pin;
        self
    }

    /// Select how file-backed stripes execute.
    pub fn with_io_mode(mut self, mode: IoMode) -> Self {
        self.io_mode = mode;
        self
    }

    /// Select whether — and how deep — simulators overlap adjacent
    /// groups' I/O (see [`Pipeline`]).
    ///
    /// ```
    /// use em_disk::{DiskConfig, Pipeline};
    ///
    /// let cfg = DiskConfig::new(4, 256).unwrap().with_pipeline(Pipeline::Stream(4));
    /// assert_eq!(cfg.pipeline.depth(), 4);
    /// ```
    pub fn with_pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Enable or disable per-track CRC32 frames. The frame lives outside
    /// the logical block, so neither block arithmetic nor counted I/O
    /// changes; a mismatch on read surfaces as
    /// [`DiskError::Corrupt`](crate::DiskError::Corrupt).
    ///
    /// ```
    /// use em_disk::{DiskArray, DiskConfig};
    ///
    /// let cfg = DiskConfig::new(4, 256).unwrap().with_checksums(true);
    /// assert_eq!(cfg.block_bytes, 256, "logical block size is unchanged");
    /// // Each stored track carries the 4-byte CRC suffix.
    /// assert_eq!(DiskArray::storage_block_bytes(&cfg), 260);
    /// ```
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.checksums = on;
        self
    }

    /// Enable bounded retry of transient track-transfer failures.
    /// Absorbed retries are tallied in
    /// [`IoStats::retried_blocks`](crate::IoStats::retried_blocks), never
    /// in the paper-facing `parallel_ops`.
    ///
    /// ```
    /// use em_disk::{DiskConfig, RetryPolicy};
    ///
    /// let cfg = DiskConfig::new(4, 256)
    ///     .unwrap()
    ///     .with_retry(RetryPolicy::new(4).with_backoff_micros(10));
    /// let policy = cfg.retry.unwrap();
    /// assert_eq!(policy.max_attempts, 4);
    /// assert_eq!(policy.delay_before(2).as_micros(), 20, "exponential backoff");
    /// ```
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Set the write-back block-cache capacity in bytes (0 disables it).
    /// The cache is the outermost backend decorator and counting happens
    /// above it, so counted [`crate::IoStats`] stay bit-identical at any
    /// capacity; absorbed traffic lands in the two cache tallies.
    ///
    /// ```
    /// use em_disk::DiskConfig;
    ///
    /// let cfg = DiskConfig::new(4, 256).unwrap().with_cache(1024);
    /// assert_eq!(cfg.cache_tracks(), 4, "1024 bytes hold 4 whole 256-byte tracks");
    /// assert_eq!(cfg.with_cache(0).cache_tracks(), 0, "0 disables the cache");
    /// ```
    pub fn with_cache(mut self, capacity_bytes: usize) -> Self {
        self.cache_bytes = capacity_bytes;
        self
    }

    /// Whole tracks the configured cache can hold (0 when the cache is
    /// off or the capacity is smaller than one track).
    #[inline]
    pub fn cache_tracks(&self) -> usize {
        self.cache_bytes / self.block_bytes
    }

    /// Number of blocks needed to hold `bytes` bytes.
    #[inline]
    pub fn blocks_for_bytes(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.block_bytes)
    }

    /// Number of parallel I/O operations needed to move `blocks` blocks at
    /// full `D`-way parallelism.
    #[inline]
    pub fn ops_for_blocks(&self, blocks: usize) -> usize {
        blocks.div_ceil(self.num_disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_parameters() {
        assert!(DiskConfig::new(0, 64).is_err());
        assert!(DiskConfig::new(4, 0).is_err());
        assert!(DiskConfig::new(1, 1).is_ok());
    }

    #[test]
    fn io_mode_defaults_to_parallel_and_is_overridable() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert_eq!(cfg.io_mode, IoMode::Parallel);
        let cfg = cfg.with_io_mode(IoMode::Serial);
        assert_eq!(cfg.io_mode, IoMode::Serial);
        // The mode does not affect configuration equality of shape fields.
        assert_eq!(cfg.num_disks, 4);
        assert_eq!(cfg.block_bytes, 64);
    }

    #[test]
    fn pipeline_defaults_to_off_and_is_overridable() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert_eq!(cfg.pipeline, Pipeline::Off);
        let cfg = cfg.with_pipeline(Pipeline::Stream(1));
        assert_eq!(cfg.pipeline, Pipeline::Stream(1));
        assert_eq!(cfg.io_mode, IoMode::Parallel, "pipeline knob must not disturb io_mode");
        let cfg = cfg.with_pipeline(Pipeline::Stream(8));
        assert_eq!(cfg.pipeline, Pipeline::Stream(8));
    }

    #[test]
    fn pipeline_depth_maps_every_variant_onto_the_window_scalar() {
        assert_eq!(Pipeline::Off.depth(), 0);
        for n in [0, 1, 2, 7, 64] {
            assert_eq!(Pipeline::Stream(n).depth(), n);
        }
    }

    #[test]
    fn fault_tolerance_knobs_default_off_and_are_overridable() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert!(!cfg.checksums);
        assert!(cfg.retry.is_none());
        let cfg = cfg.with_checksums(true).with_retry(RetryPolicy::new(5));
        assert!(cfg.checksums);
        assert_eq!(cfg.retry.unwrap().max_attempts, 5);
        assert_eq!(cfg.block_bytes, 64, "checksums must not change the logical block size");
    }

    #[test]
    fn retry_backoff_schedule_is_deterministic() {
        let p = RetryPolicy::new(4).with_backoff_micros(10);
        assert_eq!(p.delay_before(1).as_micros(), 10);
        assert_eq!(p.delay_before(2).as_micros(), 20);
        assert_eq!(p.delay_before(3).as_micros(), 40);
        assert_eq!(RetryPolicy::new(0).max_attempts, 1, "at least one attempt");
        assert_eq!(RetryPolicy::default().delay_before(3).as_micros(), 0);
    }

    #[test]
    fn cache_defaults_off_and_rounds_down_to_tracks() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert_eq!(cfg.cache_bytes, 0);
        assert_eq!(cfg.cache_tracks(), 0);
        let cfg = cfg.with_cache(200);
        assert_eq!(cfg.cache_tracks(), 3, "200 bytes hold 3 whole 64-byte tracks");
        assert_eq!(cfg.with_cache(63).cache_tracks(), 0, "sub-track capacity leaves the cache off");
        assert_eq!(cfg.block_bytes, 64, "cache knob must not disturb the shape");
    }

    #[test]
    fn pinning_defaults_off_and_is_overridable() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert!(!cfg.pin_workers);
        let cfg = cfg.with_pinned_workers(true);
        assert!(cfg.pin_workers);
        assert_eq!(cfg.io_mode, IoMode::Parallel, "pinning knob must not disturb io_mode");
        assert_eq!((cfg.num_disks, cfg.block_bytes), (4, 64), "shape unchanged");
    }

    #[test]
    fn block_and_op_arithmetic() {
        let cfg = DiskConfig::new(4, 64).unwrap();
        assert_eq!(cfg.blocks_for_bytes(0), 0);
        assert_eq!(cfg.blocks_for_bytes(1), 1);
        assert_eq!(cfg.blocks_for_bytes(64), 1);
        assert_eq!(cfg.blocks_for_bytes(65), 2);
        assert_eq!(cfg.ops_for_blocks(0), 0);
        assert_eq!(cfg.ops_for_blocks(4), 1);
        assert_eq!(cfg.ops_for_blocks(5), 2);
    }
}
