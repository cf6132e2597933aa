//! The disk array front-end: validated, counted parallel I/O.

use crate::backend::first_failure;
use crate::fault::FaultOps;
use crate::{
    Block, ChecksumBackend, DiskBackend, DiskConfig, DiskError, DiskResult, FaultInjectingBackend,
    FaultPlan, FileBackend, IoStats, MemoryBackend, RetryingBackend, CRC_BYTES,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An array of `D` track-addressed drives with blocked, `D`-way-parallel
/// I/O — the storage half of one EM-BSP processor.
///
/// Every operation is validated against the model's rules:
///
/// * blocks are exactly `B` bytes;
/// * one parallel operation touches **at most one track per drive**;
/// * each operation costs one unit (`G` time), *no matter how many drives
///   it uses* — so leaving drives idle is a measurable waste.
///
/// ```
/// use em_disk::{Block, DiskArray, DiskConfig};
///
/// let mut arr = DiskArray::new_memory(DiskConfig::new(4, 64).unwrap());
/// // One parallel I/O writes a block to each of the 4 drives.
/// let stripe: Vec<_> = (0..4)
///     .map(|d| (d, 0usize, Block::from_bytes_padded(&[d as u8], 64)))
///     .collect();
/// arr.write_stripe(&stripe).unwrap();
/// assert_eq!(arr.stats().parallel_ops, 1);
/// assert_eq!(arr.stats().blocks_written, 4);
/// ```
pub struct DiskArray {
    cfg: DiskConfig,
    backend: Box<dyn DiskBackend>,
    stats: IoStats,
    /// Scratch marker reused across stripe validations.
    seen: Vec<u64>,
    epoch: u64,
    /// The retry layer's tally of re-issued tracks, if `cfg` built one.
    retried: Option<Arc<AtomicU64>>,
    /// The fault layer's per-drive operation counters, if a plan built one.
    fault_ops: Option<FaultOps>,
}

impl DiskArray {
    /// Create an array over an in-memory backend.
    pub fn new_memory(cfg: DiskConfig) -> Self {
        Self::new_memory_with_faults(cfg, None)
    }

    /// Create an in-memory array with an optional seeded [`FaultPlan`]
    /// injected beneath the checksum and retry layers of `cfg`.
    pub fn new_memory_with_faults(cfg: DiskConfig, plan: Option<FaultPlan>) -> Self {
        let backend = Box::new(MemoryBackend::new(cfg.num_disks));
        Self::with_backend_and_faults(cfg, backend, plan)
    }

    /// Create an array backed by one new, empty file per drive inside
    /// `dir`, replacing any drive files already there
    /// ([`FileBackend::create`]).
    pub fn new_file<P: AsRef<Path>>(cfg: DiskConfig, dir: P) -> DiskResult<Self> {
        Self::new_file_with_faults(cfg, dir, None)
    }

    /// Create a file-backed array with an optional seeded [`FaultPlan`]
    /// injected beneath the checksum and retry layers of `cfg`.
    pub fn new_file_with_faults<P: AsRef<Path>>(
        cfg: DiskConfig,
        dir: P,
        plan: Option<FaultPlan>,
    ) -> DiskResult<Self> {
        let backend =
            Box::new(FileBackend::create(dir, cfg.num_disks, Self::storage_block_bytes(&cfg))?);
        Ok(Self::with_backend_and_faults(cfg, backend, plan))
    }

    /// Reattach an array to the drive files a previous process left in
    /// `dir` — the recovery counterpart of [`DiskArray::new_file`]. The
    /// files are opened without truncation; every `disk-<i>.bin` must
    /// exist.
    pub fn open_file<P: AsRef<Path>>(cfg: DiskConfig, dir: P) -> DiskResult<Self> {
        Self::open_file_with_faults(cfg, dir, None)
    }

    /// [`DiskArray::open_file`] with an optional seeded [`FaultPlan`].
    ///
    /// The plan's schedule is keyed by per-drive operation counters that
    /// start at zero in the fresh backend; a resumed run must restore the
    /// counters persisted at the last barrier (see
    /// [`DiskArray::restore_fault_op_counts`]) so it observes the same
    /// remaining schedule as the uninterrupted run.
    pub fn open_file_with_faults<P: AsRef<Path>>(
        cfg: DiskConfig,
        dir: P,
        plan: Option<FaultPlan>,
    ) -> DiskResult<Self> {
        let backend =
            Box::new(FileBackend::open(dir, cfg.num_disks, Self::storage_block_bytes(&cfg))?);
        Ok(Self::with_backend_and_faults(cfg, backend, plan))
    }

    /// Bytes one stored track occupies in the raw backend: the logical
    /// block plus the CRC frame suffix when checksums are enabled.
    pub fn storage_block_bytes(cfg: &DiskConfig) -> usize {
        cfg.block_bytes + if cfg.checksums { CRC_BYTES } else { 0 }
    }

    /// Create an array over an arbitrary backend.
    ///
    /// The backend is treated as the *raw* storage layer: if `cfg` enables
    /// checksums or retry it is wrapped accordingly, and a checksummed
    /// backend must therefore store tracks of
    /// [`DiskArray::storage_block_bytes`] bytes.
    pub fn with_backend(cfg: DiskConfig, backend: Box<dyn DiskBackend>) -> Self {
        Self::with_backend_and_faults(cfg, backend, None)
    }

    /// [`DiskArray::with_backend`] with an optional [`FaultPlan`] injected
    /// directly above the raw backend (below checksums and retry, exactly
    /// where real media faults live). The array keeps a handle to the
    /// retry layer's tally and the fault layer's operation counters, which
    /// [`IoStats::retried_blocks`] and [`DiskArray::fault_op_counts`] read.
    pub fn with_backend_and_faults(
        cfg: DiskConfig,
        backend: Box<dyn DiskBackend>,
        plan: Option<FaultPlan>,
    ) -> Self {
        assert_eq!(
            backend.num_disks(),
            cfg.num_disks,
            "backend drive count must match configuration"
        );
        let mut backend: Box<dyn DiskBackend> = backend;
        let mut fault_ops = None;
        if let Some(plan) = plan {
            let fault = FaultInjectingBackend::new(backend, plan);
            fault_ops = Some(fault.ops());
            backend = Box::new(fault);
        }
        if cfg.checksums {
            backend = Box::new(ChecksumBackend::new(backend, cfg.block_bytes));
        }
        let mut retried = None;
        if let Some(policy) = cfg.retry {
            let retrying = RetryingBackend::new(backend, policy);
            retried = Some(retrying.retried());
            backend = Box::new(retrying);
        }
        DiskArray {
            stats: IoStats::new(cfg.num_disks),
            seen: vec![0; cfg.num_disks],
            epoch: 0,
            cfg,
            backend,
            retried,
            fault_ops,
        }
    }

    /// Array shape.
    pub fn config(&self) -> DiskConfig {
        self.cfg
    }

    /// `D`.
    pub fn num_disks(&self) -> usize {
        self.cfg.num_disks
    }

    /// `B` in bytes.
    pub fn block_bytes(&self) -> usize {
        self.cfg.block_bytes
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reset counters (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Take the counters, leaving zeros behind.
    pub fn take_stats(&mut self) -> IoStats {
        self.poll_retries();
        let out = self.stats.clone();
        self.stats.reset();
        out
    }

    /// Fold the retry layer's tally into the stats. Called on every
    /// submission and sync, so `stats()` lags by at most one call.
    fn poll_retries(&mut self) {
        if let Some(retried) = &self.retried {
            self.stats.retried_blocks += retried.swap(0, Ordering::Relaxed);
        }
    }

    /// Highest written track index + 1 on `disk`.
    pub fn tracks_used(&self, disk: usize) -> usize {
        self.backend.tracks_used(disk)
    }

    /// Flush the backend (meaningful for files).
    pub fn sync(&mut self) -> DiskResult<()> {
        self.backend.sync()?;
        self.poll_retries();
        Ok(())
    }

    /// Wind the counted stats back to `snapshot`, taken when a superstep
    /// attempt began, because the attempt was discarded: its writes went
    /// only to tracks its starting barrier left free, so nothing on the
    /// drives needs undoing. The discarded parallel operations move to
    /// [`IoStats::recovery_ops`]; `retried_blocks` keeps its live value —
    /// those retries happened.
    pub fn rewind_stats(&mut self, snapshot: &IoStats) {
        self.poll_retries();
        let discarded = self.stats.parallel_ops - snapshot.parallel_ops;
        self.stats = IoStats {
            retried_blocks: self.stats.retried_blocks,
            recovery_ops: self.stats.recovery_ops + discarded,
            ..snapshot.clone()
        };
    }

    /// Per-drive counts of the track transfers the fault layer has seen,
    /// if a [`FaultPlan`] built one. The plan keys its schedule by these
    /// counters, so a checkpointed run persists them at each barrier —
    /// otherwise a resumed process would replay the schedule from
    /// operation 0 and fire already-consumed faults again.
    pub fn fault_op_counts(&self) -> Option<Vec<u64>> {
        self.fault_ops.as_ref().map(FaultOps::counts)
    }

    /// Restore fault-injection counters persisted at the last barrier, so
    /// the resumed run sees the same remaining schedule as an
    /// uninterrupted one. A no-op without a fault layer; counts for
    /// another number of drives are [`DiskError::InvalidConfig`].
    pub fn restore_fault_op_counts(&mut self, counts: &[u64]) -> DiskResult<()> {
        self.fault_ops.as_ref().map_or(Ok(()), |ops| ops.restore(counts))
    }

    /// Check the stripe rule — in-range drives, at most one track per drive
    /// — for every stripe of a batch whose tracks live on `disks`.
    fn validate_batch(
        &mut self,
        stripes: &[usize],
        mut disks: impl ExactSizeIterator<Item = usize>,
    ) -> DiskResult<()> {
        if stripes.iter().sum::<usize>() != disks.len() {
            return Err(DiskError::InvalidConfig("stripe lengths must add up to the batch"));
        }
        for &len in stripes {
            self.epoch += 1;
            for disk in disks.by_ref().take(len) {
                if disk >= self.cfg.num_disks {
                    return Err(DiskError::DiskOutOfRange { disk, num_disks: self.cfg.num_disks });
                }
                if self.seen[disk] == self.epoch {
                    return Err(DiskError::StripeConflict { disk });
                }
                self.seen[disk] = self.epoch;
            }
        }
        Ok(())
    }

    /// Count the `stripes` of a read just handed to the backend — one
    /// parallel I/O operation per non-empty stripe — and fold in what the
    /// backend absorbed while serving it.
    fn count_reads(&mut self, stripes: &[usize], addrs: &[(usize, usize)]) {
        self.poll_retries();
        for &(disk, _) in addrs {
            self.stats.per_disk_reads[disk] += 1;
        }
        self.stats.parallel_ops += stripes.iter().filter(|&&len| len > 0).count() as u64;
        self.stats.blocks_read += addrs.len() as u64;
        self.stats.bytes_read += (addrs.len() * self.cfg.block_bytes) as u64;
    }

    /// [`DiskArray::count_reads`] for a write.
    fn count_writes(&mut self, stripes: &[usize], writes: &[(usize, usize, &[u8])]) {
        self.poll_retries();
        for &(disk, _, _) in writes {
            self.stats.per_disk_writes[disk] += 1;
        }
        self.stats.parallel_ops += stripes.iter().filter(|&&len| len > 0).count() as u64;
        self.stats.blocks_written += writes.len() as u64;
        self.stats.bytes_written += (writes.len() * self.cfg.block_bytes) as u64;
    }

    /// [`DiskArray::read_stripe`] with its blocks held in a
    /// [`ReadStripeTicket`] that [`ReadStripeTicket::join`] hands back.
    /// Transfers block, so the ticket holds a finished result, and a failed
    /// stripe — rejected or not — is reported here, never at the join. It
    /// adds nothing to the blocking call and stays only for callers written
    /// against a submit-then-join shape: the benchmark's submit-and-join
    /// rung.
    pub fn submit_read_stripe(&mut self, addrs: &[(usize, usize)]) -> DiskResult<ReadStripeTicket> {
        self.read_stripe(addrs).map(ReadStripeTicket)
    }

    /// [`DiskArray::write_stripe`] as a [`WriteStripeTicket`] (see
    /// [`DiskArray::submit_read_stripe`] for why it exists).
    pub fn submit_write_stripe<T: AsRef<[u8]>>(
        &mut self,
        writes: &[(usize, usize, T)],
    ) -> DiskResult<WriteStripeTicket> {
        self.write_stripe(writes).map(|()| WriteStripeTicket(()))
    }

    /// Read a batch of parallel stripes as one transfer into buffers lent
    /// by the caller, and hand them back filled. `addrs` lists the tracks
    /// of every stripe in request order and `stripes[i]` is the length of
    /// the `i`-th stripe — the form in which a run of regions in standard
    /// consecutive format ([`crate::ConsecutiveLayout::batch`]) is handed
    /// to the drives: one command and one sequential transfer per drive,
    /// however many stripes the run spans.
    ///
    /// `lent[i]` receives track `i`: each buffer is resized to exactly `B`
    /// bytes and overwritten, and the same buffers come back in request
    /// order, so a caller that recycles them reads without allocating per
    /// block. Lending fewer buffers than tracks is allowed — the array
    /// supplies the rest; lending none reads into fresh buffers. On an
    /// error the buffers are dropped with the result.
    ///
    /// Everything is validated first — the stripe rule, the lent buffers
    /// (more than one a track is [`DiskError::InvalidConfig`]) — and a
    /// rejected batch leaves both the backend and the counters untouched. A
    /// valid batch counts exactly what its stripes read one by one would:
    /// one parallel I/O operation per non-empty stripe, even if it names
    /// fewer than `D` drives.
    ///
    /// One backend call carries the whole batch, on every stack — with a
    /// fault-injection layer or without. Every track is attempted and
    /// counted even when an earlier one failed, and the first failing
    /// track in request order is the batch's error.
    ///
    /// ```
    /// use em_disk::{Block, DiskArray, DiskConfig};
    ///
    /// let mut arr = DiskArray::new_memory(DiskConfig::new(2, 8).unwrap());
    /// arr.write_stripe(&[(0, 0, Block::from_vec(vec![1; 8])), (1, 0, Block::from_vec(vec![2; 8]))])
    ///     .unwrap();
    /// // One buffer from an earlier read, one empty: both come back `B` long.
    /// let lent = vec![vec![9; 8], Vec::with_capacity(8)];
    /// let bufs = arr.read_batch_into(&[2], &[(1, 0), (0, 0)], lent)?;
    /// assert_eq!(bufs, [[2; 8], [1; 8]]);
    /// # Ok::<(), em_disk::DiskError>(())
    /// ```
    pub fn read_batch_into(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        mut lent: Vec<Vec<u8>>,
    ) -> DiskResult<Vec<Vec<u8>>> {
        self.validate_batch(stripes, addrs.iter().map(|&(d, _)| d))?;
        if lent.len() > addrs.len() {
            return Err(DiskError::InvalidConfig("a read takes at most one lent buffer per track"));
        }
        lent.resize_with(addrs.len(), Vec::new);
        for buf in &mut lent {
            buf.resize(self.cfg.block_bytes, 0);
        }
        let mut bufs: Vec<&mut [u8]> = lent.iter_mut().map(Vec::as_mut_slice).collect();
        let outcomes = self.backend.read_batch_each(stripes, addrs, &mut bufs);
        self.count_reads(stripes, addrs);
        first_failure(outcomes).map(|_| lent)
    }

    /// Write a batch of parallel stripes as one transfer (same arguments,
    /// validation, counting and error rule as
    /// [`DiskArray::read_batch_into`]; each track must be `B` bytes).
    ///
    /// Each track's bytes are anything that is a `[u8]` of exactly `B`
    /// bytes — a [`Block`], a `Vec<u8>`, or a slice of the caller's own
    /// buffer — and the call returns once every track has landed.
    pub fn write_batch<T: AsRef<[u8]>>(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, T)],
    ) -> DiskResult<()> {
        self.validate_batch(stripes, writes.iter().map(|(d, _, _)| *d))?;
        for (_, _, data) in writes {
            let got = data.as_ref().len();
            if got != self.cfg.block_bytes {
                return Err(DiskError::BadBlockSize { expected: self.cfg.block_bytes, got });
            }
        }
        let tracks: Vec<(usize, usize, &[u8])> =
            writes.iter().map(|(d, t, data)| (*d, *t, data.as_ref())).collect();
        let outcomes = self.backend.write_batch_each(stripes, &tracks);
        self.count_writes(stripes, &tracks);
        first_failure(outcomes).map(drop)
    }

    /// One parallel read: fetch at most one track from each listed drive.
    ///
    /// Counts exactly one parallel I/O operation (even if `addrs` names
    /// fewer than `D` drives). Returns blocks in request order. On backends
    /// with real parallelism the `≤ D` transfers overlap; the call returns
    /// only after all of them complete.
    pub fn read_stripe(&mut self, addrs: &[(usize, usize)]) -> DiskResult<Vec<Block>> {
        let bufs = self.read_batch_into(&[addrs.len()], addrs, Vec::new())?;
        Ok(bufs.into_iter().map(Block::from_vec).collect())
    }

    /// One parallel write: store at most one track on each listed drive.
    ///
    /// Counts exactly one parallel I/O operation. All validation happens
    /// before any byte is written, so a rejected stripe leaves both the
    /// backend and the counters untouched.
    pub fn write_stripe<T: AsRef<[u8]>>(&mut self, writes: &[(usize, usize, T)]) -> DiskResult<()> {
        self.write_batch(&[writes.len()], writes)
    }

    /// Move a batch of blocks: read the stripes of `from` and write each
    /// block, unchanged, to the matching entry of `to` — what a
    /// reorganization (Algorithm 2) does, which places blocks and never
    /// makes one. `stripes[i]` is the length of the `i`-th stripe on *both*
    /// sides: the `i`-th read stripe's blocks are the `i`-th write stripe's.
    /// The bytes travel through `bufs`, lent by the caller — one buffer of
    /// exactly `B` bytes per block, overwritten and otherwise left alone —
    /// so a move allocates nothing per block.
    ///
    /// Everything is validated first — the stripe rule on the reads *and*
    /// on the writes, matching lengths, the lent
    /// buffers — and a rejected move leaves the backend and the counters
    /// untouched. A valid move counts exactly what
    /// [`DiskArray::read_stripe`] followed by [`DiskArray::write_stripe`],
    /// stripe by stripe, would count (two parallel I/O operations per
    /// non-empty stripe) and leaves the same bytes on the drives.
    ///
    /// It goes down as one backend call per direction, on every stack: all
    /// the reads, then all the writes. No written track may therefore be
    /// one the same move reads in a *later* stripe — stripe by stripe that
    /// read would see the new bytes, here the old. (Algorithm 2's moves
    /// read one region and write another.) A failed read — a
    /// [`DiskError::Corrupt`] frame, say — fails the move before anything
    /// is written.
    ///
    /// ```
    /// use em_disk::{Block, DiskArray, DiskConfig};
    ///
    /// let mut arr = DiskArray::new_memory(DiskConfig::new(2, 8).unwrap());
    /// arr.write_stripe(&[(0, 0, Block::from_vec(vec![1; 8])), (1, 0, Block::from_vec(vec![2; 8]))])
    ///     .unwrap();
    /// // Two stripes of one block each, onto the other drive's track 5.
    /// let mut lent = vec![vec![0u8; 8]; 2];
    /// arr.move_batch(&[1, 1], &[(0, 0), (1, 0)], &[(1, 5), (0, 5)], &mut lent).unwrap();
    /// assert_eq!(arr.stats().parallel_ops, 1 + 2 * 2);
    /// assert_eq!(arr.read_block(1, 5).unwrap().as_bytes(), &[1; 8]);
    /// assert_eq!(arr.read_block(0, 5).unwrap().as_bytes(), &[2; 8]);
    /// ```
    pub fn move_batch(
        &mut self,
        stripes: &[usize],
        from: &[(usize, usize)],
        to: &[(usize, usize)],
        bufs: &mut [Vec<u8>],
    ) -> DiskResult<()> {
        if from.len() != to.len() {
            return Err(DiskError::InvalidConfig("a move reads and writes the same blocks"));
        }
        self.validate_batch(stripes, from.iter().map(|&(d, _)| d))?;
        self.validate_batch(stripes, to.iter().map(|&(d, _)| d))?;
        let Some(bufs) = bufs.get_mut(..from.len()) else {
            return Err(DiskError::InvalidConfig("a move needs one lent buffer per block"));
        };
        if let Some(buf) = bufs.iter().find(|buf| buf.len() != self.cfg.block_bytes) {
            return Err(DiskError::BadBlockSize { expected: self.cfg.block_bytes, got: buf.len() });
        }
        let mut lent: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let read = self.backend.read_batch_each(stripes, from, &mut lent);
        self.count_reads(stripes, from);
        first_failure(read)?;
        let writes: Vec<(usize, usize, &[u8])> = (to.iter().zip(bufs.iter()))
            .map(|(&(disk, track), buf)| (disk, track, buf.as_slice()))
            .collect();
        let written = self.backend.write_batch_each(stripes, &writes);
        self.count_writes(stripes, &writes);
        first_failure(written).map(drop)
    }

    /// Read a single block. Costs a full parallel I/O operation — this is
    /// exactly the "unblocked / single-disk" penalty the model charges.
    pub fn read_block(&mut self, disk: usize, track: usize) -> DiskResult<Block> {
        let mut blocks = self.read_stripe(&[(disk, track)])?;
        // A backend that answers a one-track read with no track is broken;
        // that is an error to report, not a reason to bring the process down.
        blocks
            .pop()
            .ok_or(DiskError::InvalidConfig("backend returned no block for a one-track read"))
    }

    /// Write a single block. Costs a full parallel I/O operation.
    pub fn write_block(&mut self, disk: usize, track: usize, block: Block) -> DiskResult<()> {
        self.write_stripe(&[(disk, track, block)])
    }
}

/// A stripe read that has already run, as [`DiskArray::submit_read_stripe`]
/// returns it.
pub struct ReadStripeTicket(Vec<Block>);

impl ReadStripeTicket {
    /// The stripe's blocks, in request order.
    pub fn join(self) -> DiskResult<Vec<Block>> {
        Ok(self.0)
    }
}

/// A stripe write that has already landed, as
/// [`DiskArray::submit_write_stripe`] returns it.
pub struct WriteStripeTicket(());

impl WriteStripeTicket {
    /// Always `Ok`: the write's outcome was the submission's.
    pub fn join(self) -> DiskResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(d: usize, b: usize) -> DiskArray {
        DiskArray::new_memory(DiskConfig::new(d, b).unwrap())
    }

    #[test]
    fn stripe_round_trip_counts_one_op() {
        let mut a = array(4, 16);
        let writes: Vec<_> =
            (0..4).map(|d| (d, 0, Block::from_bytes_padded(&[d as u8 + 1], 16))).collect();
        a.write_stripe(&writes).unwrap();
        assert_eq!(a.stats().parallel_ops, 1);
        assert_eq!(a.stats().blocks_written, 4);

        let blocks = a.read_stripe(&[(0, 0), (1, 0), (2, 0), (3, 0)]).unwrap();
        assert_eq!(a.stats().parallel_ops, 2);
        for (d, b) in blocks.iter().enumerate() {
            assert_eq!(b.as_bytes()[0], d as u8 + 1);
        }
    }

    #[test]
    fn stripe_conflict_is_rejected() {
        let mut a = array(2, 8);
        let err = a.read_stripe(&[(1, 0), (1, 1)]).unwrap_err();
        assert!(matches!(err, DiskError::StripeConflict { disk: 1 }));
        // Counters unchanged by failed ops.
        assert_eq!(a.stats().parallel_ops, 0);
    }

    #[test]
    fn out_of_range_disk_is_rejected() {
        let mut a = array(2, 8);
        let err = a.read_stripe(&[(2, 0)]).unwrap_err();
        assert!(matches!(err, DiskError::DiskOutOfRange { disk: 2, num_disks: 2 }));
    }

    #[test]
    fn wrong_block_size_is_rejected() {
        let mut a = array(1, 8);
        let err = a.write_stripe(&[(0, 0, Block::zeroed(9))]).unwrap_err();
        assert!(matches!(err, DiskError::BadBlockSize { expected: 8, got: 9 }));
    }

    #[test]
    fn single_block_costs_full_op() {
        let mut a = array(8, 8);
        for t in 0..10 {
            a.write_block(0, t, Block::zeroed(8)).unwrap();
        }
        // 10 ops for 10 blocks on one drive out of 8: utilization 10/(10*8).
        assert_eq!(a.stats().parallel_ops, 10);
        assert!((a.stats().utilization() - 1.0 / 8.0).abs() < 1e-12);
    }

    /// How [`consecutive_workload`] hands its transfers to the array.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Transfers {
        /// `write_stripe` and `read_stripe`, one stripe at a time.
        Stripes,
        /// One `write_batch` of `Block`s and one `read_batch_into` that
        /// lends nothing per run of regions.
        Batches,
        /// The same batches, writing slices of one buffer and reading into
        /// lent buffers: stale, empty and over-long ones, and one too few.
        Lent,
    }

    /// A consecutive-format workload — ragged first and last stripes,
    /// overwrites, reads that cross never-written tracks (inside the files
    /// and past their ends) — issued as `how` says. Returns every byte
    /// read and the counters.
    fn consecutive_workload(a: &mut DiskArray, how: Transfers) -> (Vec<u8>, IoStats) {
        use crate::ConsecutiveLayout;
        let (d, b) = (a.num_disks(), a.block_bytes());
        // Three blocks per region on four drives: no region starts or ends
        // on a stripe boundary.
        let layout = ConsecutiveLayout::new(3, 3, 12, d).unwrap();
        let write = |a: &mut DiskArray, first: usize, count: usize, gen: u8| {
            let (stripes, addrs) = layout.batch(first, count);
            let writes: Vec<(usize, usize, Block)> = (addrs.iter().enumerate())
                .map(|(i, &(disk, track))| {
                    let fill = gen ^ (first * 16 + i) as u8;
                    // One all-zero block: it stores as a "formatted" frame.
                    (disk, track, Block::from_vec(vec![if i == 4 { 0 } else { fill }; b]))
                })
                .collect();
            match how {
                Transfers::Stripes => {
                    let mut at = 0;
                    for len in stripes {
                        a.write_stripe(&writes[at..at + len]).unwrap();
                        at += len;
                    }
                }
                Transfers::Batches => a.write_batch(&stripes, &writes).unwrap(),
                Transfers::Lent => {
                    let staged: Vec<u8> =
                        writes.iter().flat_map(|w| w.2.as_bytes()).copied().collect();
                    let slices: Vec<(usize, usize, &[u8])> = (addrs.iter().zip(staged.chunks(b)))
                        .map(|(&(disk, track), chunk)| (disk, track, chunk))
                        .collect();
                    a.write_batch(&stripes, &slices).unwrap();
                }
            }
        };
        let read = |a: &mut DiskArray, first: usize, count: usize, out: &mut Vec<u8>| {
            let (stripes, addrs) = layout.batch(first, count);
            let bufs: Vec<Vec<u8>> = match how {
                Transfers::Stripes => {
                    let mut at = 0;
                    (stripes.iter())
                        .flat_map(|&len| {
                            at += len;
                            a.read_stripe(&addrs[at - len..at]).unwrap()
                        })
                        .map(Block::into_vec)
                        .collect()
                }
                Transfers::Batches => a.read_batch_into(&stripes, &addrs, Vec::new()).unwrap(),
                Transfers::Lent => {
                    let lent = (1..addrs.len())
                        .map(|i| match i % 3 {
                            0 => vec![0xEE; b],
                            1 => Vec::new(),
                            _ => vec![0x11; 2 * b],
                        })
                        .collect();
                    a.read_batch_into(&stripes, &addrs, lent).unwrap()
                }
            };
            assert_eq!(bufs.len(), addrs.len());
            assert!(bufs.iter().all(|buf| buf.len() == b));
            out.extend(bufs.concat());
        };
        let mut bytes = Vec::new();
        write(a, 1, 5, 0x40);
        read(a, 0, 9, &mut bytes);
        write(a, 2, 2, 0x80); // overwrites
        write(a, 7, 3, 0xC0); // fresh tracks past the end of the files
        write(a, 4, 6, 0x20);
        write(a, 4, 1, 0x21); // a second overwrite of the same tracks
        read(a, 3, 4, &mut bytes);
        read(a, 0, 12, &mut bytes);
        a.sync().unwrap();
        (bytes, a.take_stats())
    }

    #[test]
    fn a_batch_equals_its_stripes_one_by_one() {
        use crate::RetryPolicy;
        let pid = std::process::id();
        let drive_files = |dir: &std::path::Path| -> Vec<Vec<u8>> {
            (0..4).map(|d| std::fs::read(dir.join(format!("disk-{d}.bin"))).unwrap()).collect()
        };
        for checksums in [false, true] {
            let mut cfg = DiskConfig::new(4, 32).unwrap().with_checksums(checksums);
            if checksums {
                cfg = cfg.with_retry(RetryPolicy::default());
            }
            let reference =
                consecutive_workload(&mut DiskArray::new_memory(cfg), Transfers::Stripes);
            assert!(reference.0.iter().any(|&x| x != 0));
            let batched = consecutive_workload(&mut DiskArray::new_memory(cfg), Transfers::Batches);
            assert_eq!(batched, reference, "memory, checksums {checksums}");

            let dir = |tag: &str| {
                std::env::temp_dir().join(format!("em-array-batch-{tag}-{checksums}-{pid}"))
            };
            let mut by_stripe = DiskArray::new_file(cfg, dir("s")).unwrap();
            let mut by_batch = DiskArray::new_file(cfg, dir("b")).unwrap();
            let what = format!("file, checksums {checksums}");
            assert_eq!(
                consecutive_workload(&mut by_stripe, Transfers::Stripes),
                reference,
                "{what}"
            );
            assert_eq!(
                consecutive_workload(&mut by_batch, Transfers::Batches),
                reference,
                "{what}"
            );
            assert_eq!(drive_files(&dir("b")), drive_files(&dir("s")), "{what}: drive bytes");
            for disk in 0..4 {
                assert_eq!(by_batch.tracks_used(disk), by_stripe.tracks_used(disk), "{what}");
            }
            drop((by_stripe, by_batch));
            std::fs::remove_dir_all(dir("s")).ok();
            std::fs::remove_dir_all(dir("b")).ok();
        }
    }

    #[test]
    fn a_rejected_batch_leaves_backend_and_counters_untouched() {
        let mut a = array(2, 8);
        // The second stripe is the illegal one; the first must not land.
        let conflict = [(0, 0), (1, 0), (1, 1), (1, 2)];
        assert!(matches!(
            a.read_batch_into(&[2, 2], &conflict, Vec::new()),
            Err(DiskError::StripeConflict { disk: 1 })
        ));
        let writes: Vec<(usize, usize, Block)> =
            conflict.iter().map(|&(d, t)| (d, t, Block::zeroed(8))).collect();
        assert!(matches!(
            a.write_batch(&[2, 2], &writes),
            Err(DiskError::StripeConflict { disk: 1 })
        ));
        assert!(matches!(
            a.read_batch_into(&[3], &conflict, Vec::new()),
            Err(DiskError::InvalidConfig(_))
        ));
        assert_eq!(a.stats(), &IoStats::new(2), "failed transfers must not count");
        assert_eq!(a.tracks_used(0), 0);
        assert_eq!(a.read_batch_into(&[2, 1], &conflict[..3], Vec::new()).unwrap().len(), 3);
        assert_eq!(a.stats().parallel_ops, 2);
    }

    /// Reads into lent buffers and writes of slices move the bytes, make
    /// the errors and count the operations that reads into fresh buffers
    /// and writes of `Block`s do, on every stack: memory, checksummed and
    /// retried, files (plain, and checksummed and retried), and a tenant's
    /// region of shared media. The fault-plan stack is
    /// `under_a_seeded_plan_lent_and_block_batches_agree`'s.
    #[test]
    fn lent_reads_and_slice_writes_equal_block_ones_on_every_stack() {
        use crate::{RetryPolicy, SharedDiskSubstrate};
        let plain = DiskConfig::new(4, 32).unwrap();
        let sealed = plain.with_checksums(true).with_retry(RetryPolicy::default());
        let both = |a: &mut DiskArray, b: &mut DiskArray, what: &str| {
            let blocks = consecutive_workload(a, Transfers::Batches);
            assert!(blocks.0.iter().any(|&x| x != 0), "{what}");
            assert_eq!(consecutive_workload(b, Transfers::Lent), blocks, "{what}");
        };
        for cfg in [plain, sealed] {
            let what = format!("memory, {cfg:?}");
            both(&mut DiskArray::new_memory(cfg), &mut DiskArray::new_memory(cfg), &what);
        }

        let pid = std::process::id();
        for cfg in [plain, sealed] {
            let what = format!("file, checksums {}", cfg.checksums);
            let dir = |tag: &str| {
                std::env::temp_dir().join(format!("em-array-lent-{tag}-{}-{pid}", cfg.checksums))
            };
            let mut by_blocks = DiskArray::new_file(cfg, dir("b")).unwrap();
            let mut by_lent = DiskArray::new_file(cfg, dir("l")).unwrap();
            both(&mut by_blocks, &mut by_lent, &what);
            for disk in 0..4 {
                let file = format!("disk-{disk}.bin");
                assert_eq!(
                    std::fs::read(dir("l").join(&file)).unwrap(),
                    std::fs::read(dir("b").join(&file)).unwrap(),
                    "{what}: drive {disk} bytes"
                );
                assert_eq!(by_lent.tracks_used(disk), by_blocks.tracks_used(disk), "{what}");
            }
            drop((by_blocks, by_lent));
            std::fs::remove_dir_all(dir("b")).ok();
            std::fs::remove_dir_all(dir("l")).ok();
        }

        let shared = SharedDiskSubstrate::new(4, 64);
        for cfg in [plain, sealed] {
            let tenant = || {
                let region = shared.region(shared.reserve_region(16).unwrap(), 16);
                DiskArray::with_backend(cfg, Box::new(region))
            };
            let (mut by_blocks, mut by_lent) = (tenant(), tenant());
            both(&mut by_blocks, &mut by_lent, &format!("region, checksums {}", cfg.checksums));
        }
    }

    #[test]
    fn a_lent_read_takes_a_buffer_a_track_at_most_and_hands_the_same_ones_back() {
        let mut a = array(2, 8);
        a.write_stripe(&[(0, 0, [1u8; 8]), (1, 0, [2u8; 8])]).unwrap();
        let written = a.stats().clone();
        let addrs = [(0, 0), (1, 0)];
        // A buffer more than tracks, and a short slice to write: rejected
        // before anything reaches the backend or the counters.
        assert!(matches!(
            a.read_batch_into(&[2], &addrs, vec![vec![0; 8]; 3]),
            Err(DiskError::InvalidConfig(_))
        ));
        assert!(matches!(
            a.read_batch_into(&[2], &[(1, 0), (1, 1)], vec![vec![0; 8]; 2]),
            Err(DiskError::StripeConflict { disk: 1 })
        ));
        assert!(matches!(
            a.write_stripe(&[(0, 1, &[7u8; 8][..]), (1, 1, &[7u8; 7][..])]),
            Err(DiskError::BadBlockSize { expected: 8, got: 7 })
        ));
        assert_eq!(a.stats(), &written, "rejected transfers must not count");
        assert_eq!((a.tracks_used(0), a.tracks_used(1)), (1, 1));
        let lent = vec![vec![0xEE; 8], Vec::with_capacity(8)];
        let at: Vec<*const u8> = lent.iter().map(|buf| buf.as_ptr()).collect();
        let bufs = a.read_batch_into(&[2], &addrs, lent).unwrap();
        assert_eq!(bufs, [[1u8; 8], [2u8; 8]]);
        assert_eq!(bufs[0].as_ptr(), at[0], "the lent buffer, not a copy, comes back");
        a.sync().unwrap();
        assert_eq!(a.stats().parallel_ops, written.parallel_ops + 1);
    }

    #[test]
    fn under_a_seeded_plan_lent_and_block_batches_agree() {
        use crate::{FaultPlan, RetryPolicy};
        // The same seeded plan against the same batched workload, into lent
        // buffers or fresh ones, writing slices or blocks: bytes, counters,
        // injected faults and each drive's operation count agree.
        let cfg =
            DiskConfig::new(4, 32).unwrap().with_checksums(true).with_retry(RetryPolicy::new(8));
        let run = |how: Transfers| {
            let plan = FaultPlan::seeded(0xBA7C, 4, 400, 60);
            let stats = plan.stats();
            let mut a = DiskArray::new_memory_with_faults(cfg, Some(plan));
            let out = consecutive_workload(&mut a, how);
            (out, stats.counts(), a.fault_op_counts())
        };
        let by_batch = run(Transfers::Batches);
        assert!(by_batch.1.total() > 0 && by_batch.0 .1.retried_blocks > 0);
        assert_eq!(run(Transfers::Lent), by_batch);
    }

    #[test]
    fn unretried_a_fault_in_a_later_stripe_is_the_batchs_error() {
        use crate::FaultPlan;
        let cfg = DiskConfig::new(2, 8).unwrap();
        let writes: Vec<(usize, usize, Block)> =
            (0..6).map(|g| (g % 2, g / 2, Block::from_bytes_padded(&[g as u8 + 1], 8))).collect();
        let addrs: Vec<(usize, usize)> = writes.iter().map(|&(d, t, _)| (d, t)).collect();
        // Drive 1's operations 0, 1 and 2 are its tracks of the first,
        // second and third stripe, for reads as for writes.
        for failing_op in 0..3 {
            let faulty = || {
                let plan = FaultPlan::none().with_transient(1, failing_op);
                DiskArray::new_memory_with_faults(cfg, Some(plan))
            };
            let mut a = faulty();
            let read = a.read_batch_into(&[2, 2, 2], &addrs, Vec::new());
            assert!(matches!(read, Err(DiskError::WorkerIo { disk: 1, .. })), "op {failing_op}");
            assert_eq!(a.read_batch_into(&[2, 2, 2], &addrs, Vec::new()).unwrap().len(), 6);
            let mut lent = faulty();
            let read = lent.read_batch_into(&[2, 2, 2], &addrs, vec![vec![0; 8]; 6]);
            assert!(matches!(read, Err(DiskError::WorkerIo { disk: 1, .. })), "op {failing_op}");
            assert_eq!(lent.read_batch_into(&[2, 2, 2], &addrs, Vec::new()).unwrap().len(), 6);
            assert_eq!(lent.stats(), a.stats(), "op {failing_op}");
            assert_eq!(lent.fault_op_counts(), a.fault_op_counts(), "op {failing_op}");
            let written = faulty().write_batch(&[2, 2, 2], &writes);
            assert!(matches!(written, Err(DiskError::WorkerIo { disk: 1, .. })), "op {failing_op}");
        }

        // A move whose read fails in its second stripe writes nothing.
        let from = [(0, 0), (1, 0), (0, 1), (1, 1)];
        let to = [(1, 5), (0, 5), (1, 6), (0, 6)];
        let mut a =
            DiskArray::new_memory_with_faults(cfg, Some(FaultPlan::none().with_transient(1, 1)));
        let moved = a.move_batch(&[2, 2], &from, &to, &mut vec![vec![0u8; 8]; 4]);
        assert!(matches!(moved, Err(DiskError::WorkerIo { disk: 1, .. })), "{moved:?}");
        assert_eq!(a.fault_op_counts(), Some(vec![2, 2]));
        assert_eq!((a.stats().parallel_ops, a.stats().blocks_written), (2, 0));
        assert_eq!((a.tracks_used(0), a.tracks_used(1)), (0, 0));
    }

    /// Algorithm 2's shape — blocks read from one region and written,
    /// rotated over the drives, to another: ragged stripes, an all-zero
    /// block, overwrites, a track written by two stripes of one move and
    /// by two moves — issued either
    /// as moves or as `read_stripe` + `write_stripe` per stripe. Returns
    /// every byte read back and the counters.
    fn move_workload(a: &mut DiskArray, moved: bool) -> (Vec<u8>, IoStats) {
        let (d, b) = (a.num_disks(), a.block_bytes());
        let shift = |a: &mut DiskArray, stripes: &[usize], from: &[(usize, usize)], by: usize| {
            // Each block goes `by` drives on and ten tracks up.
            let to: Vec<(usize, usize)> =
                from.iter().map(|&(disk, track)| ((disk + by) % d, track + 10)).collect();
            if moved {
                let mut lent = vec![vec![0xEE; b]; from.len() + 1];
                a.move_batch(stripes, from, &to, &mut lent).unwrap();
            } else {
                let mut at = 0;
                for &len in stripes {
                    let blocks = a.read_stripe(&from[at..at + len]).unwrap();
                    let writes: Vec<(usize, usize, Block)> = (to[at..at + len].iter().zip(blocks))
                        .map(|(&(disk, track), block)| (disk, track, block))
                        .collect();
                    a.write_stripe(&writes).unwrap();
                    at += len;
                }
            }
        };
        let read_back = |a: &mut DiskArray, out: &mut Vec<u8>| {
            for track in (0..6).chain(10..16) {
                let addrs: Vec<(usize, usize)> = (0..d).map(|disk| (disk, track)).collect();
                let blocks = a.read_stripe(&addrs).unwrap();
                out.extend(blocks.iter().flat_map(|block| block.as_bytes().iter().copied()));
            }
        };
        for track in 0..6 {
            let stripe: Vec<(usize, usize, Block)> = (0..d)
                .map(|disk| {
                    let fill =
                        if (disk, track) == (2, 1) { 0 } else { (track * d + disk + 1) as u8 };
                    (disk, track, Block::from_vec(vec![fill; b]))
                })
                .collect();
            a.write_stripe(&stripe).unwrap();
        }
        let mut bytes = Vec::new();
        // Ragged stripes, an empty one among them, onto fresh tracks.
        let from = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (0, 2), (3, 3), (2, 3)];
        shift(a, &[4, 3, 0, 1, 2], &from, 1);
        // Overwrites, one track written twice: by (1, 4) on to (3, 14)
        // and, two stripes later, by (1, 4) again.
        shift(a, &[2, 1, 1], &[(3, 0), (0, 1), (1, 4), (1, 4)], 2);
        read_back(a, &mut bytes);
        shift(a, &[4, 4], &[(0, 5), (1, 5), (2, 5), (3, 5), (0, 4), (1, 3), (2, 2), (3, 1)], 3);
        shift(a, &[1], &[(2, 5)], 3); // a second move onto the same track
        read_back(a, &mut bytes);
        a.sync().unwrap();
        (bytes, a.take_stats())
    }

    #[test]
    fn a_move_equals_read_then_write_stripe_by_stripe() {
        use crate::RetryPolicy;
        let pid = std::process::id();
        let plain = DiskConfig::new(4, 32).unwrap();
        let reference = move_workload(&mut DiskArray::new_memory(plain), false);
        assert!(reference.0.iter().any(|&x| x != 0));
        assert_eq!(reference.1.per_disk_reads.iter().sum::<u64>(), reference.1.blocks_read);
        assert_eq!(move_workload(&mut DiskArray::new_memory(plain), true), reference, "memory");

        // Checksummed and retried, in memory and on files: same bytes read
        // back, same counters, same drive files.
        let sealed = plain.with_checksums(true).with_retry(RetryPolicy::default());
        assert_eq!(move_workload(&mut DiskArray::new_memory(sealed), false), reference);
        assert_eq!(move_workload(&mut DiskArray::new_memory(sealed), true), reference);
        let dir = |tag: &str| std::env::temp_dir().join(format!("em-array-move-{tag}-{pid}"));
        let mut by_stripe = DiskArray::new_file(sealed, dir("s")).unwrap();
        let mut by_move = DiskArray::new_file(sealed, dir("m")).unwrap();
        assert_eq!(move_workload(&mut by_stripe, false), reference, "file");
        assert_eq!(move_workload(&mut by_move, true), reference, "file");
        for disk in 0..4 {
            let file = format!("disk-{disk}.bin");
            assert_eq!(
                std::fs::read(dir("m").join(&file)).unwrap(),
                std::fs::read(dir("s").join(&file)).unwrap(),
                "file: drive {disk} bytes"
            );
            assert_eq!(by_move.tracks_used(disk), by_stripe.tracks_used(disk), "file");
        }
        drop((by_stripe, by_move));
        std::fs::remove_dir_all(dir("s")).ok();
        std::fs::remove_dir_all(dir("m")).ok();
    }

    #[test]
    fn a_rejected_move_leaves_backend_and_counters_untouched() {
        let mut a = array(2, 8);
        let mut lent = vec![vec![0u8; 8]; 4];
        let ok = [(0, 0), (1, 0), (0, 1), (1, 1)];
        // The second stripe is the illegal one, on either side.
        let clash = [(0, 0), (1, 0), (1, 1), (1, 2)];
        assert!(matches!(
            a.move_batch(&[2, 2], &clash, &ok, &mut lent),
            Err(DiskError::StripeConflict { disk: 1 })
        ));
        assert!(matches!(
            a.move_batch(&[2, 2], &ok, &clash, &mut lent),
            Err(DiskError::StripeConflict { disk: 1 })
        ));
        assert!(matches!(
            a.move_batch(&[2, 2], &ok, &[(0, 2), (1, 2), (0, 3), (2, 3)], &mut lent),
            Err(DiskError::DiskOutOfRange { disk: 2, num_disks: 2 })
        ));
        assert!(matches!(
            a.move_batch(&[2, 2], &ok, &ok[..3], &mut lent),
            Err(DiskError::InvalidConfig(_))
        ));
        assert!(matches!(
            a.move_batch(&[2, 1], &ok, &ok, &mut lent),
            Err(DiskError::InvalidConfig(_))
        ));
        // Too few lent buffers, and one that is short.
        assert!(matches!(
            a.move_batch(&[2, 2], &ok, &ok, &mut lent[..3]),
            Err(DiskError::InvalidConfig(_))
        ));
        lent[3].truncate(7);
        assert!(matches!(
            a.move_batch(&[2, 2], &ok, &ok, &mut lent),
            Err(DiskError::BadBlockSize { expected: 8, got: 7 })
        ));
        assert_eq!(a.stats(), &IoStats::new(2), "rejected moves must not count");
        assert_eq!((a.tracks_used(0), a.tracks_used(1)), (0, 0));
        // An empty move is free.
        a.move_batch(&[], &[], &[], &mut []).unwrap();
        assert_eq!(a.stats().parallel_ops, 0);
    }

    #[test]
    fn a_corrupt_source_fails_the_move_before_anything_is_written() {
        let dir = std::env::temp_dir().join(format!("em-array-move-crc-{}", std::process::id()));
        let cfg = DiskConfig::new(2, 32).unwrap().with_checksums(true);
        let mut a = DiskArray::new_file(cfg, &dir).unwrap();
        for track in 0..2 {
            let fill = |disk: usize| Block::from_vec(vec![(track * 2 + disk + 1) as u8; 32]);
            a.write_stripe(&[(0, track, fill(0)), (1, track, fill(1))]).unwrap();
        }
        a.sync().unwrap();
        // Flip a stored byte of (1, 1) — the second stripe's source —
        // behind the substrate's back.
        let path = dir.join("disk-1.bin");
        let mut raw = std::fs::read(&path).unwrap();
        raw[32 + CRC_BYTES + 2] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let (from, to) = ([(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 4), (0, 4), (1, 5), (0, 5)]);
        let moved = a.move_batch(&[2, 2], &from, &to, &mut vec![vec![0u8; 32]; 4]);
        assert!(matches!(moved, Err(DiskError::Corrupt { disk: 1, track: 1 })), "{moved:?}");
        assert_eq!(a.stats().blocks_written, 4, "only the set-up writes");
        assert_eq!((a.tracks_used(0), a.tracks_used(1)), (2, 2), "nothing of the move landed");
        drop(a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_stripe_is_free() {
        let mut a = array(2, 8);
        assert!(a.read_stripe(&[]).unwrap().is_empty());
        a.write_stripe::<Block>(&[]).unwrap();
        assert_eq!(a.stats().parallel_ops, 0);
    }

    #[test]
    fn submitted_stripes_count_at_submission_and_join_later() {
        let mut a = array(4, 16);
        let writes: Vec<_> =
            (0..4).map(|d| (d, 0, Block::from_bytes_padded(&[d as u8 + 1], 16))).collect();
        let wt = a.submit_write_stripe(&writes).unwrap();
        // Counted before the join, identically to the synchronous path.
        assert_eq!(a.stats().parallel_ops, 1);
        assert_eq!(a.stats().blocks_written, 4);
        wt.join().unwrap();
        let rt = a.submit_read_stripe(&[(0, 0), (1, 0)]).unwrap();
        assert_eq!(a.stats().parallel_ops, 2);
        assert_eq!(a.stats().blocks_read, 2);
        let blocks = rt.join().unwrap();
        assert_eq!(blocks[1].as_bytes()[0], 2);
    }

    #[test]
    fn rejected_submission_leaves_counters_untouched() {
        let mut a = array(2, 8);
        assert!(matches!(
            a.submit_read_stripe(&[(1, 0), (1, 1)]).err(),
            Some(DiskError::StripeConflict { disk: 1 })
        ));
        assert!(matches!(
            a.submit_write_stripe(&[(0, 0, Block::zeroed(9))]).err(),
            Some(DiskError::BadBlockSize { expected: 8, got: 9 })
        ));
        assert_eq!(a.stats(), &IoStats::new(2), "failed submissions must not count");
    }

    #[test]
    fn submitted_and_synchronous_arrays_count_identically() {
        // The same logical workload issued through tickets vs the
        // synchronous calls must produce bit-identical IoStats.
        let run = |submitted: bool| {
            let mut a = DiskArray::new_memory(DiskConfig::new(3, 16).unwrap());
            let writes: Vec<_> =
                (0..3).map(|d| (d, 1, Block::from_bytes_padded(&[d as u8], 16))).collect();
            if submitted {
                let wt = a.submit_write_stripe(&writes).unwrap();
                let rt = a.submit_read_stripe(&[(0, 1), (2, 1)]).unwrap();
                wt.join().unwrap();
                rt.join().unwrap();
            } else {
                a.write_stripe(&writes).unwrap();
                a.read_stripe(&[(0, 1), (2, 1)]).unwrap();
            }
            a.take_stats()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn retrying_array_counts_identically_to_a_clean_run() {
        use crate::{FaultPlan, RetryPolicy};
        let workload = |mut a: DiskArray| -> (IoStats, Vec<u8>) {
            for t in 0..4 {
                let writes: Vec<_> = (0..3)
                    .map(|d| (d, t, Block::from_bytes_padded(&[(d * 16 + t) as u8 + 1], 16)))
                    .collect();
                a.write_stripe(&writes).unwrap();
            }
            let blocks = a.read_stripe(&[(0, 2), (1, 2), (2, 2)]).unwrap();
            let bytes = blocks.iter().flat_map(|b| b.as_bytes().to_vec()).collect();
            a.sync().unwrap();
            (a.take_stats(), bytes)
        };
        let cfg =
            DiskConfig::new(3, 16).unwrap().with_checksums(true).with_retry(RetryPolicy::new(3));
        let (clean_stats, clean_bytes) = workload(DiskArray::new_memory(cfg));
        let plan = FaultPlan::none()
            .with_transient(0, 1)
            .with_torn_write(1, 2, 7)
            .with_bit_flip(2, 4, 5, 1);
        let faulty = DiskArray::new_memory_with_faults(cfg, Some(plan));
        let (faulty_stats, faulty_bytes) = workload(faulty);
        assert_eq!(faulty_bytes, clean_bytes, "retries must hide recoverable faults");
        assert!(faulty_stats.retried_blocks >= 3);
        let mut masked = faulty_stats.clone();
        masked.retried_blocks = clean_stats.retried_blocks;
        assert_eq!(masked, clean_stats, "only the retry counter may differ");
    }

    #[test]
    fn unretried_fault_surfaces_as_typed_error() {
        use crate::FaultPlan;
        let cfg = DiskConfig::new(2, 8).unwrap();
        let plan = FaultPlan::none().with_transient(0, 0);
        let mut a = DiskArray::new_memory_with_faults(cfg, Some(plan));
        let err = a.write_block(0, 0, Block::zeroed(8)).unwrap_err();
        assert!(err.is_transient());
        assert!(matches!(err, DiskError::WorkerIo { disk: 0, .. }));
    }

    #[test]
    fn rewinding_restores_the_counted_stats_and_tallies_the_discarded_ops() {
        use crate::{FaultPlan, RetryPolicy};
        let cfg = DiskConfig::new(2, 8).unwrap().with_retry(RetryPolicy::new(3));
        let plan = FaultPlan::none().with_transient(0, 1);
        let mut a = DiskArray::new_memory_with_faults(cfg, Some(plan));
        a.write_stripe(&[(0, 0, [1u8; 8]), (1, 0, [2u8; 8])]).unwrap();
        let snapshot = a.stats().clone();
        // A discarded attempt: two operations, one track of them retried.
        a.write_stripe(&[(0, 1, [3u8; 8]), (1, 1, [4u8; 8])]).unwrap();
        a.read_block(1, 0).unwrap();
        a.rewind_stats(&snapshot);
        let s = a.stats().clone();
        assert_eq!((s.recovery_ops, s.retried_blocks), (2, 1), "discarded ops, live retries");
        assert_eq!(IoStats { recovery_ops: 0, retried_blocks: 0, ..s }, snapshot);
        assert_eq!(a.read_block(0, 1).unwrap().as_bytes(), &[3; 8], "the drives are untouched");
    }

    #[test]
    fn checksummed_file_array_round_trips_and_detects_on_disk_corruption() {
        let dir = std::env::temp_dir().join(format!("em-array-crc-{}", std::process::id()));
        let cfg = DiskConfig::new(2, 32).unwrap().with_checksums(true);
        let mut a = DiskArray::new_file(cfg, &dir).unwrap();
        a.write_stripe(&[
            (0, 0, Block::from_bytes_padded(&[0xAB; 4], 32)),
            (1, 0, Block::from_bytes_padded(&[0xCD; 4], 32)),
        ])
        .unwrap();
        a.sync().unwrap();
        let blocks = a.read_stripe(&[(0, 0), (1, 0)]).unwrap();
        assert_eq!(blocks[0].as_bytes()[3], 0xAB);
        // Flip a stored byte behind the substrate's back.
        let path = dir.join("disk-1.bin");
        let mut raw = std::fs::read(&path).unwrap();
        raw[2] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let err = a.read_stripe(&[(1, 0)]).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { disk: 1, track: 0 }));
        drop(a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backed_array_round_trip() {
        let dir = std::env::temp_dir().join(format!("em-array-test-{}", std::process::id()));
        let cfg = DiskConfig::new(3, 32).unwrap();
        let mut a = DiskArray::new_file(cfg, &dir).unwrap();
        let writes: Vec<_> =
            (0..3).map(|d| (d, 5, Block::from_bytes_padded(&[d as u8 * 7], 32))).collect();
        a.write_stripe(&writes).unwrap();
        a.sync().unwrap();
        let blocks = a.read_stripe(&[(0, 5), (1, 5), (2, 5)]).unwrap();
        assert_eq!(blocks[2].as_bytes()[0], 14);
        std::fs::remove_dir_all(&dir).ok();
    }
}
