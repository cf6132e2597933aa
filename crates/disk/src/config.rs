//! Disk-array configuration (the `D`, `B` parameters of the EM model).

use crate::DiskError;

/// How the file backend executes the `≤ D` track transfers of one stripe.
/// There is one way: on the calling thread, drive by drive, whatever `D`
/// is. The type, the simulators' `with_io_mode` and
/// [`crate::FileBackend::create_with_opts`]'s mode argument remain because
/// the benchmark names them; none of them selects anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMode {
    /// The stripe's transfers run on the calling thread, one drive's share
    /// after another, and complete before the stripe returns.
    Parallel,
}

/// How a simulator orders its transfers. There is one order: every
/// transfer is joined where it is submitted (fetch → compute → write, one
/// group after another). The type and the simulators' `with_pipeline`
/// select nothing; `benchmark/` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Every transfer is joined before the next one is submitted.
    Off,
}

/// The engine behind file-backed stripes. There is none left to choose:
/// the file backend moves every transfer on the calling thread. The type,
/// the simulators' `with_engine` and [`uring_available`] remain because
/// the benchmark names them; none of them selects anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The name the benchmark passes; it selects the calling-thread file
    /// path, the only one there is.
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
    /// Whether each stored track carries a CRC32 frame suffix, verified on
    /// every read (default off). Corruption surfaces as
    /// [`DiskError::Corrupt`](crate::DiskError::Corrupt). The checksum
    /// lives *outside* the logical `B`-byte block, so enabling it changes
    /// neither block arithmetic nor counted I/O.
    pub checksums: bool,
    /// Bounded retry of transient track-transfer failures (default off).
    pub retry: Option<RetryPolicy>,
}

impl DiskConfig {
    /// Create a configuration, validating that both parameters are nonzero.
    pub fn new(num_disks: usize, block_bytes: usize) -> Result<Self, DiskError> {
        if num_disks == 0 {
            return Err(DiskError::InvalidConfig("num_disks must be >= 1"));
        }
        if block_bytes == 0 {
            return Err(DiskError::InvalidConfig("block_bytes must be >= 1"));
        }
        Ok(DiskConfig { num_disks, block_bytes, checksums: false, retry: None })
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
