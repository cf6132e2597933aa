//! Exact cost accounting for the EM model.
//!
//! The EM-BSP model charges `G` per parallel I/O operation regardless of how
//! many of the `D` drives the operation actually uses ("an operation
//! involving fewer disk drives incurs the same cost"). [`IoStats`] counts
//! operations and per-drive block traffic so experiments can report both the
//! charged cost `G · parallel_ops` and the achieved drive utilization.
//!
//! Counters are incremented by [`crate::DiskArray`] **where it calls the
//! backend** (after validation, one parallel I/O operation per non-empty
//! stripe), and every field is an order-independent sum. Together those two
//! facts make the counted cost of a run independent of how its stripes are
//! batched and of what the backend stack does with them.

use crate::{DiskError, DiskResult};

/// Counters for one disk array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of parallel I/O operations issued (each moved ≤ D blocks).
    pub parallel_ops: u64,
    /// Total blocks read across all operations.
    pub blocks_read: u64,
    /// Total blocks written across all operations.
    pub blocks_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Blocks read per drive.
    pub per_disk_reads: Vec<u64>,
    /// Blocks written per drive.
    pub per_disk_writes: Vec<u64>,
    /// Block transfers re-issued by a [`crate::RetryPolicy`] after a
    /// transient failure. Retries are **not** counted in `parallel_ops` or
    /// the block/byte totals above, so the paper-facing counted parallel
    /// I/O comparison is unaffected by the retry layer.
    pub retried_blocks: u64,
    /// Parallel I/O operations discarded by superstep rollbacks: the
    /// operations of rolled-back attempts
    /// ([`crate::DiskArray::rewind_stats`]). Kept separate from
    /// `parallel_ops` for the same reason as `retried_blocks`.
    pub recovery_ops: u64,
}

// Field order is checkpoint format 5: em-core's barrier manifest.
em_serial::impl_serial_struct!(IoStats {
    parallel_ops,
    blocks_read,
    blocks_written,
    bytes_read,
    bytes_written,
    per_disk_reads,
    per_disk_writes,
    retried_blocks,
    recovery_ops,
});

impl IoStats {
    /// Fresh counters for an array of `num_disks` drives.
    pub fn new(num_disks: usize) -> Self {
        IoStats {
            per_disk_reads: vec![0; num_disks],
            per_disk_writes: vec![0; num_disks],
            ..Default::default()
        }
    }

    /// Charged I/O time under the model: `G · parallel_ops`.
    pub fn io_time(&self, g: u64) -> u64 {
        g * self.parallel_ops
    }

    /// Total blocks moved in either direction.
    pub fn blocks_moved(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Fraction of the available drive-slots actually used:
    /// `blocks_moved / (parallel_ops · D)`. 1.0 means perfectly parallel,
    /// `1/D` means the array degenerated to a single disk.
    pub fn utilization(&self) -> f64 {
        let d = self.per_disk_reads.len() as f64;
        if self.parallel_ops == 0 || d == 0.0 {
            return 0.0;
        }
        self.blocks_moved() as f64 / (self.parallel_ops as f64 * d)
    }

    /// Largest per-drive block count divided by the mean — 1.0 is perfectly
    /// balanced. Used in the Lemma 2 balance experiments.
    pub fn imbalance(&self) -> f64 {
        let totals: Vec<u64> =
            self.per_disk_reads.iter().zip(&self.per_disk_writes).map(|(r, w)| r + w).collect();
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / totals.len() as f64;
        let max = *totals.iter().max().unwrap() as f64;
        max / mean
    }

    /// Accumulate another set of counters into this one, drive counts
    /// index-wise. Counters of another drive count are
    /// [`DiskError::InvalidConfig`], and leave this one as it was.
    pub fn merge(&mut self, other: &IoStats) -> DiskResult<()> {
        if other.per_disk_reads.len() != self.per_disk_reads.len()
            || other.per_disk_writes.len() != self.per_disk_writes.len()
        {
            return Err(DiskError::InvalidConfig("merged I/O counters name another drive count"));
        }
        self.parallel_ops += other.parallel_ops;
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        for (a, b) in self.per_disk_reads.iter_mut().zip(&other.per_disk_reads) {
            *a += b;
        }
        for (a, b) in self.per_disk_writes.iter_mut().zip(&other.per_disk_writes) {
            *a += b;
        }
        self.retried_blocks += other.retried_blocks;
        self.recovery_ops += other.recovery_ops;
        Ok(())
    }

    /// Reset all counters to zero, preserving the drive count.
    pub fn reset(&mut self) {
        let d = self.per_disk_reads.len();
        *self = IoStats::new(d);
    }
}

impl std::fmt::Display for IoStats {
    /// Compact one-line rendering used wherever stats are reported. The
    /// absorbed-traffic tallies (`retried`, `recovery`) are always emitted
    /// — they read 0 when the corresponding layer is off, so reports stay
    /// field-stable across configurations.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops={} blocks_r={} blocks_w={} util={:.2} retried={} recovery={}",
            self.parallel_ops,
            self.blocks_read,
            self.blocks_written,
            self.utilization(),
            self.retried_blocks,
            self.recovery_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IoStats {
        IoStats {
            parallel_ops: 10,
            blocks_read: 24,
            blocks_written: 16,
            bytes_read: 24 * 64,
            bytes_written: 16 * 64,
            per_disk_reads: vec![12, 12, 0, 0],
            per_disk_writes: vec![4, 4, 4, 4],
            retried_blocks: 3,
            recovery_ops: 2,
        }
    }

    #[test]
    fn io_time_is_g_times_ops() {
        assert_eq!(sample().io_time(5), 50);
    }

    #[test]
    fn utilization_counts_slots() {
        let s = sample();
        // 40 blocks over 10 ops * 4 disks = 1.0
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let s = sample();
        // totals = [16,16,4,4], mean 10, max 16 -> 1.6
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = sample();
        a.merge(&sample()).unwrap();
        assert_eq!(a.parallel_ops, 20);
        assert_eq!(a.blocks_moved(), 80);
        assert_eq!(a.per_disk_reads, vec![24, 24, 0, 0]);
        assert_eq!(a.retried_blocks, 6);
        assert_eq!(a.recovery_ops, 4);
    }

    /// Two drives' counters do not fold into four drives' (or the other
    /// way): the merge errs and the target keeps every counter it had.
    #[test]
    fn a_merge_across_drive_counts_errs_and_leaves_the_target() {
        let two = IoStats {
            per_disk_reads: vec![1, 2],
            per_disk_writes: vec![3, 4],
            parallel_ops: 5,
            ..IoStats::new(2)
        };
        let mut four = sample();
        assert!(matches!(four.merge(&two), Err(DiskError::InvalidConfig(_))));
        assert_eq!(four, sample());
        let mut two_again = two.clone();
        assert!(two_again.merge(&sample()).is_err());
        assert_eq!(two_again, two);
        // Reads and writes of different widths are no better.
        let skewed = IoStats { per_disk_writes: vec![0; 2], ..IoStats::new(4) };
        assert!(four.merge(&skewed).is_err());
        assert_eq!(four, sample());
    }

    #[test]
    fn reset_preserves_shape() {
        let mut a = sample();
        a.reset();
        assert_eq!(a, IoStats::new(4));
    }

    #[test]
    fn display_emits_absorbed_tallies_even_when_zero() {
        let line = IoStats::new(2).to_string();
        assert!(line.contains("retried=0 recovery=0"));
        let line = sample().to_string();
        assert!(line.contains("retried=3 recovery=2"));
    }

    #[test]
    fn empty_stats_edge_cases() {
        let s = IoStats::new(4);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.io_time(100), 0);
    }
}
