//! Persisted virtual-processor contexts in standard consecutive format —
//! the "Details of Steps 1(a) and 1(e)" of Algorithm 1.
//!
//! Each context `V_j` gets a fixed region of `⌈(4 + μ)/B⌉` blocks; block
//! `i` of `V_j` lives on disk `(i + j·(μ/B)) mod D`, track
//! `base + ⌊(i + j·(μ/B))/D⌋` — i.e. the regions are striped round-robin,
//! so the contexts of `k` consecutive virtual processors are read/written
//! with full `D`-way parallelism.
//!
//! They are also, on every drive, *consecutive tracks* — the point of the
//! format. A group sweep (load, fetch, write-back, final read-back)
//! therefore reaches the array as **one batch**
//! ([`DiskArray::submit_read_batch`] / [`DiskArray::submit_write_batch`]):
//! moved as one command and one sequential transfer per drive, counted as
//! the parallel I/O operations its stripes are. Over the group's
//! `n = k·⌈(4+μ)/B⌉` blocks a write is cut into `⌈n/D⌉` stripes of `D`
//! successive blocks from the group's first; a read into stripes that end
//! on drive `D − 1` ([`ConsecutiveLayout::batch`]), which is `⌈n/D⌉` when
//! the group starts on drive 0 and one more when a ragged head and tail
//! both spill. The liberty is Robillard's (PEMS): swap a context as one
//! large sequential transfer per disk while charging the model's per-block
//! cost.
//!
//! On-disk encoding of one context: `u32` length prefix followed by the
//! serialized state, zero-padded to the region size.
//!
//! No block is made on either side. A write lays the group's regions end to
//! end in one pooled buffer and hands its `B`-byte chunks to the array as
//! slices; a read lends `B`-byte buffers for the blocks to land in, copies
//! each context's payload straight out of them into a pooled context
//! buffer, and gives them back.

use crate::{EmError, EmResult};
use em_disk::{ConsecutiveLayout, DiskArray, ReadStripeTicket, TrackAllocator, WriteBacklog};

/// A free list of byte buffers recycled across group reads and writes.
///
/// The simulators keep two per worker (DESIGN §3.2.5): one of context-sized
/// buffers — [`PendingGroupRead::join_into`] draws the decoded contexts
/// from it, [`ContextStore::submit_write_group`] its staging buffer, and
/// the contexts return via [`BufferPool::put_all`] once their write is
/// submitted (the array has copied or written the bytes by then) — and one
/// of `B`-byte block buffers, which [`ContextStore::submit_read_group`]
/// lends to the array and `join_into` hands back. Steady state is
/// therefore allocation-free in the context path: a run touches at most
/// one group's worth of live buffers plus the pools. An empty pool is
/// always valid — `take` falls back to a fresh allocation.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Pop a cleared buffer, or allocate a fresh one when the pool is dry.
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool (cleared, capacity kept).
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Return a batch of buffers to the pool.
    pub fn put_all(&mut self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        for buf in bufs {
            self.put(buf);
        }
    }

    /// Buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no buffer is pooled.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// The context area of one simulating processor.
#[derive(Debug, Clone)]
pub struct ContextStore {
    layout: ConsecutiveLayout,
    capacity_bytes: usize,
}

impl ContextStore {
    /// Reserve disk space for `v` contexts of at most `mu` serialized bytes
    /// each on an array of shape (`num_disks`, `block_bytes`).
    pub fn allocate(
        alloc: &mut TrackAllocator,
        num_disks: usize,
        block_bytes: usize,
        v: usize,
        mu: usize,
    ) -> EmResult<Self> {
        let capacity_bytes = 4 + mu; // u32 length prefix + payload
        let blocks_per_region = capacity_bytes.div_ceil(block_bytes);
        let layout = ConsecutiveLayout::new(0, blocks_per_region, v, num_disks)?;
        let base = alloc.reserve_region(layout.tracks_per_disk());
        let layout = ConsecutiveLayout { base_track: base, ..layout };
        Ok(ContextStore { layout, capacity_bytes: blocks_per_region * block_bytes })
    }

    /// Blocks per context region (`⌈(4+μ)/B⌉`).
    pub fn blocks_per_context(&self) -> usize {
        self.layout.blocks_per_region
    }

    /// Bytes a serialized context may occupy (excluding the length prefix).
    pub fn payload_capacity(&self) -> usize {
        self.capacity_bytes - 4
    }

    /// Tracks this store occupies per disk — the `O(vμ/DB)` of Lemma 1.
    pub fn tracks_per_disk(&self) -> usize {
        self.layout.tracks_per_disk()
    }

    /// Write the already-serialized contexts of virtual processors
    /// `first..first+bufs.len()` (Step 1(e)). Full `D`-way-parallel stripes.
    pub fn write_group(
        &self,
        disks: &mut DiskArray,
        first: usize,
        bufs: &[Vec<u8>],
    ) -> EmResult<()> {
        let mut backlog = WriteBacklog::new();
        self.submit_write_group(disks, first, bufs, &mut backlog, &mut BufferPool::new())?;
        backlog.drain()?;
        Ok(())
    }

    /// Submit the stripes of [`Self::write_group`] without waiting for them.
    ///
    /// The group's regions — each its length prefix, the serialized state
    /// and zero padding — are laid end to end in one buffer drawn from
    /// `pool`, and its `B`-byte chunks go down as slices of it; the array
    /// has copied or written them when the submission returns, so the
    /// buffer is back in `pool` when this returns.
    ///
    /// The tickets land in `backlog`; counted I/O is identical to the
    /// synchronous call because [`DiskArray`] counts at submission. The
    /// caller must [`WriteBacklog::drain`] before reading these regions
    /// back (the simulators drain before Algorithm 2's reorganization).
    pub fn submit_write_group(
        &self,
        disks: &mut DiskArray,
        first: usize,
        bufs: &[Vec<u8>],
        backlog: &mut WriteBacklog,
        pool: &mut BufferPool,
    ) -> EmResult<()> {
        if let Some((off, buf)) =
            bufs.iter().enumerate().find(|(_, buf)| 4 + buf.len() > self.capacity_bytes)
        {
            return Err(EmError::ContextOverflow {
                pid: first + off,
                need: buf.len(),
                capacity: self.payload_capacity(),
            });
        }
        let mut staged = pool.take();
        staged.reserve(bufs.len() * self.capacity_bytes);
        for (off, buf) in bufs.iter().enumerate() {
            staged.extend_from_slice(&(buf.len() as u32).to_le_bytes());
            staged.extend_from_slice(buf);
            staged.resize((off + 1) * self.capacity_bytes, 0);
        }
        // The blocks in global-index order. Consecutive global indices
        // stripe cleanly: every chunk of D successive writes targets
        // distinct disks, and the whole run is one batch of those stripes.
        let (_, addrs) = self.layout.batch(first, bufs.len());
        let writes: Vec<(usize, usize, &[u8])> = (addrs.iter())
            .zip(staged.chunks_exact(disks.block_bytes()))
            .map(|(&(disk, track), chunk)| (disk, track, chunk))
            .collect();
        let stripes: Vec<usize> = writes.chunks(disks.num_disks()).map(<[_]>::len).collect();
        backlog.push(disks.submit_write_batch(&stripes, &writes)?);
        pool.put(staged);
        Ok(())
    }

    /// Read back the serialized contexts of `count` virtual processors
    /// starting at `first` (Step 1(a)).
    pub fn read_group(
        &self,
        disks: &mut DiskArray,
        first: usize,
        count: usize,
    ) -> EmResult<Vec<Vec<u8>>> {
        self.submit_read_group(disks, first, count, &mut BufferPool::new())?.join()
    }

    /// Submit the stripe reads of [`Self::read_group`] into `B`-byte
    /// buffers lent from `blocks` and return a handle;
    /// [`PendingGroupRead::join_into`] waits for the transfers, decodes the
    /// contexts and gives the buffers back. Counted I/O happens here, at
    /// submission, so prefetching a group early costs exactly what fetching
    /// it on demand costs.
    pub fn submit_read_group(
        &self,
        disks: &mut DiskArray,
        first: usize,
        count: usize,
        blocks: &mut BufferPool,
    ) -> EmResult<PendingGroupRead> {
        let (stripes, addrs) = self.layout.batch(first, count);
        let lent = addrs.iter().map(|_| blocks.take()).collect();
        let ticket = disks.submit_read_batch_into(&stripes, &addrs, lent)?;
        Ok(PendingGroupRead { ticket, first, count, capacity_bytes: self.capacity_bytes })
    }
}

/// Contexts in flight from [`ContextStore::submit_read_group`].
pub struct PendingGroupRead {
    ticket: ReadStripeTicket,
    first: usize,
    count: usize,
    capacity_bytes: usize,
}

impl PendingGroupRead {
    /// Wait for the submitted batch (every track is joined even on failure,
    /// so the first failing track in request order wins deterministically)
    /// and decode the length-prefixed contexts.
    pub fn join(self) -> EmResult<Vec<Vec<u8>>> {
        self.join_into(&mut BufferPool::new(), &mut BufferPool::new())
    }

    /// [`PendingGroupRead::join`], copying each context's payload straight
    /// from the blocks it arrived in into a buffer drawn from `contexts`,
    /// then giving the block buffers to `blocks` — the pool
    /// [`ContextStore::submit_read_group`] lent them from. The simulators
    /// recycle each group's context buffers back into `contexts` after
    /// writing the group, so the context path stops allocating once both
    /// pools are warm.
    pub fn join_into(
        self,
        contexts: &mut BufferPool,
        blocks: &mut BufferPool,
    ) -> EmResult<Vec<Vec<u8>>> {
        let payload_capacity = self.capacity_bytes - 4;
        let read = self.ticket.join_bufs()?;
        // Every block arrives in one `B`-byte buffer; an empty group has
        // none, and no context to cut out of them.
        let (bb, arrived) = (read.first().map_or(0, Vec::len), &read[..]);
        // Bytes `at..at + len` of the blocks laid end to end, as the slices
        // of the blocks they lie in.
        let spans = |at: usize, len: usize| {
            (at / bb..(at + len).div_ceil(bb)).map(move |i| {
                &arrived[i][at.max(i * bb) - i * bb..(at + len).min((i + 1) * bb) - i * bb]
            })
        };
        let mut out = Vec::with_capacity(self.count);
        for r in 0..self.count {
            let start = r * self.capacity_bytes;
            let mut prefix = [0u8; 4];
            for (byte, &b) in prefix.iter_mut().zip(spans(start, 4).flatten()) {
                *byte = b;
            }
            let len = u32::from_le_bytes(prefix) as usize;
            if len > payload_capacity {
                contexts.put_all(out);
                blocks.put_all(read);
                return Err(EmError::ContextOverflow {
                    pid: self.first + r,
                    need: len,
                    capacity: payload_capacity,
                });
            }
            let mut ctx = contexts.take();
            ctx.reserve(len);
            spans(start + 4, len).for_each(|span| ctx.extend_from_slice(span));
            out.push(ctx);
        }
        blocks.put_all(read);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_disk::DiskConfig;

    fn setup(v: usize, mu: usize, d: usize, b: usize) -> (DiskArray, ContextStore) {
        let mut alloc = TrackAllocator::new(d);
        let store = ContextStore::allocate(&mut alloc, d, b, v, mu).unwrap();
        let disks = DiskArray::new_memory(DiskConfig::new(d, b).unwrap());
        (disks, store)
    }

    #[test]
    fn round_trip_group() {
        // Three-byte blocks split even the length prefix.
        for b in [32, 3] {
            let (mut disks, store) = setup(8, 60, 4, b);
            let bufs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 10 + i]).collect();
            store.write_group(&mut disks, 2, &bufs).unwrap();
            let back = store.read_group(&mut disks, 2, 4).unwrap();
            assert_eq!(back, bufs, "B = {b}");
        }
    }

    #[test]
    fn io_ops_are_fully_parallel() {
        // 8 contexts x 2 blocks on 4 disks: writing all of them should be
        // 16/4 = 4 ops; reading the same.
        let (mut disks, store) = setup(8, 60, 4, 32);
        assert_eq!(store.blocks_per_context(), 2);
        let bufs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 60]).collect();
        store.write_group(&mut disks, 0, &bufs).unwrap();
        assert_eq!(disks.stats().parallel_ops, 4);
        assert!((disks.stats().utilization() - 1.0).abs() < 1e-9);
        disks.reset_stats();
        store.read_group(&mut disks, 0, 8).unwrap();
        assert_eq!(disks.stats().parallel_ops, 4);
    }

    #[test]
    fn oversized_context_is_rejected() {
        let (mut disks, store) = setup(4, 60, 2, 32);
        let too_big = vec![vec![0u8; 61]];
        let err = store.write_group(&mut disks, 0, &too_big).unwrap_err();
        assert!(matches!(err, EmError::ContextOverflow { pid: 0, need: 61, .. }));
    }

    #[test]
    fn empty_context_round_trips() {
        let (mut disks, store) = setup(2, 16, 2, 32);
        store.write_group(&mut disks, 0, &[vec![], vec![7]]).unwrap();
        let back = store.read_group(&mut disks, 0, 2).unwrap();
        assert_eq!(back, vec![vec![], vec![7]]);
    }

    #[test]
    fn submitted_group_io_round_trips_and_counts_identically() {
        // Deferred writes + prefetch-style reads must move the same data and
        // count the same ops as the synchronous entry points.
        let (mut disks, store) = setup(8, 60, 4, 32);
        let bufs: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 60]).collect();
        store.write_group(&mut disks, 0, &bufs).unwrap();
        let sync_stats = disks.take_stats();

        let (mut backlog, mut pool) = (WriteBacklog::new(), BufferPool::new());
        store.submit_write_group(&mut disks, 0, &bufs, &mut backlog, &mut pool).unwrap();
        // Overlap: both groups' reads submitted while writes are in flight
        // is illegal (read-after-write); drain first, as the simulators do.
        backlog.drain().unwrap();
        let a = store.submit_read_group(&mut disks, 0, 4, &mut pool).unwrap();
        let b = store.submit_read_group(&mut disks, 4, 4, &mut pool).unwrap();
        let mut back = a.join().unwrap();
        back.extend(b.join().unwrap());
        assert_eq!(back, bufs);
        let mut deferred_stats = disks.take_stats();
        // The deferred run also performed the reads; remove them to compare
        // the write halves, then compare the read half against a sync read.
        store.read_group(&mut disks, 0, 8).unwrap();
        let read_stats = disks.take_stats();
        deferred_stats.parallel_ops -= read_stats.parallel_ops;
        deferred_stats.blocks_read -= read_stats.blocks_read;
        deferred_stats.bytes_read -= read_stats.bytes_read;
        for (a, b) in deferred_stats.per_disk_reads.iter_mut().zip(&read_stats.per_disk_reads) {
            *a -= b;
        }
        assert_eq!(deferred_stats, sync_stats);
    }

    /// A memory backend that counts the batch calls reaching it and how
    /// many stripes they carried.
    struct BatchCounting {
        inner: em_disk::MemoryBackend,
        /// `(read batches, write batches, stripes in them)`.
        calls: std::sync::Arc<std::sync::Mutex<(u64, u64, u64)>>,
    }

    impl em_disk::DiskBackend for BatchCounting {
        fn num_disks(&self) -> usize {
            self.inner.num_disks()
        }
        fn read_track(&mut self, d: usize, t: usize, buf: &mut [u8]) -> em_disk::DiskResult<()> {
            self.inner.read_track(d, t, buf)
        }
        fn write_track(&mut self, d: usize, t: usize, data: &[u8]) -> em_disk::DiskResult<()> {
            self.inner.write_track(d, t, data)
        }
        fn read_batch_each(
            &mut self,
            stripes: &[usize],
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> em_disk::TrackOutcomes {
            let mut calls = self.calls.lock().unwrap();
            (calls.0, calls.2) = (calls.0 + 1, calls.2 + stripes.len() as u64);
            self.inner.read_batch_each(stripes, addrs, bufs)
        }
        fn write_batch_each(
            &mut self,
            stripes: &[usize],
            writes: &[(usize, usize, &[u8])],
        ) -> em_disk::TrackOutcomes {
            let mut calls = self.calls.lock().unwrap();
            (calls.1, calls.2) = (calls.1 + 1, calls.2 + stripes.len() as u64);
            self.inner.write_batch_each(stripes, writes)
        }
        fn tracks_used(&self, disk: usize) -> usize {
            self.inner.tracks_used(disk)
        }
    }

    #[test]
    fn a_group_sweep_is_one_backend_call_under_the_decorators() {
        use em_disk::RetryPolicy;
        let (d, b, k) = (4, 32, 6);
        let mut alloc = TrackAllocator::new(d);
        let store = ContextStore::allocate(&mut alloc, d, b, 8, 60).unwrap();
        let cfg =
            DiskConfig::new(d, b).unwrap().with_checksums(true).with_retry(RetryPolicy::default());
        let calls = std::sync::Arc::new(std::sync::Mutex::new((0, 0, 0)));
        let raw = BatchCounting { inner: em_disk::MemoryBackend::new(d), calls: calls.clone() };
        let mut disks = DiskArray::with_backend(cfg, Box::new(raw));
        // Contexts 1..7 of two blocks each: global blocks 2..14, a start
        // that is not on drive 0. Batching must not move the stripe cuts
        // stripe-at-a-time submission made, so the counts are the ones it
        // gave: the write is cut every D blocks from its first (4 + 4 + 4,
        // three ops), the read at drive D − 1 (2 + 4 + 4 + 2, four ops).
        let bufs: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; 40 + i]).collect();
        store.write_group(&mut disks, 1, &bufs).unwrap();
        assert_eq!(*calls.lock().unwrap(), (0, 1, 3), "k contexts out: one inner write batch");
        assert_eq!(disks.stats().parallel_ops, 3);
        assert_eq!(store.read_group(&mut disks, 1, k).unwrap(), bufs);
        assert_eq!(*calls.lock().unwrap(), (1, 1, 7), "k contexts in: one inner read batch");
        assert_eq!(disks.stats().parallel_ops, 7);
        assert_eq!(disks.stats().blocks_moved(), 2 * 2 * k as u64);
    }

    /// Where every pooled buffer's bytes live, in order: equal lists mean
    /// the same allocations.
    fn held(pool: &BufferPool) -> Vec<usize> {
        let mut at: Vec<usize> = pool.free.iter().map(|buf| buf.as_ptr() as usize).collect();
        at.sort_unstable();
        at
    }

    #[test]
    fn pooled_join_round_trips_and_recycles() {
        // Regions of three 8-byte blocks: payloads start inside a block and
        // end in any of the three.
        let (mut disks, store) = setup(8, 20, 4, 8);
        let bufs: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 3 + 5 * i]).collect();
        store.write_group(&mut disks, 0, &bufs).unwrap();
        let (mut contexts, mut blocks) = (BufferPool::new(), BufferPool::new());
        // A round's sweep: read the group, write it back, recycle.
        let mut sweep = |contexts: &mut BufferPool, blocks: &mut BufferPool| {
            let pending = store.submit_read_group(&mut disks, 0, 4, blocks).unwrap();
            let back = pending.join_into(contexts, blocks).unwrap();
            assert_eq!(back, bufs);
            let mut backlog = WriteBacklog::new();
            store.submit_write_group(&mut disks, 0, &back, &mut backlog, contexts).unwrap();
            backlog.drain().unwrap();
            contexts.put_all(back);
        };
        sweep(&mut contexts, &mut blocks);
        assert_eq!(blocks.len(), 4 * store.blocks_per_context(), "every lent block came back");
        assert_eq!(contexts.len(), 4 + 1, "the contexts and the write's staging buffer");
        // Warm, a sweep makes no block buffer: the blocks land in the ones
        // lent and go back, and the write cuts none.
        let cold = held(&blocks);
        sweep(&mut contexts, &mut blocks);
        assert_eq!(held(&blocks), cold, "the warm sweep made a block buffer");
        assert!(blocks.free.iter().all(|buf| buf.capacity() == 8));
        // The context pool is a free list: the second sweep hands last
        // round's largest buffer to the smallest context and regrows the
        // small ones once. From then on it makes nothing either.
        let warm = held(&contexts);
        sweep(&mut contexts, &mut blocks);
        assert_eq!((held(&contexts), held(&blocks)), (warm, cold), "a warm sweep allocated");
        assert_eq!(store.read_group(&mut disks, 0, 4).unwrap(), bufs);
    }

    #[test]
    fn writes_do_not_clobber_neighbours() {
        let (mut disks, store) = setup(6, 20, 3, 16);
        let all: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 20]).collect();
        store.write_group(&mut disks, 0, &all).unwrap();
        // Overwrite the middle two only.
        store.write_group(&mut disks, 2, &[vec![99; 5], vec![98; 5]]).unwrap();
        let back = store.read_group(&mut disks, 0, 6).unwrap();
        assert_eq!(back[0], vec![0u8; 20]);
        assert_eq!(back[2], vec![99u8; 5]);
        assert_eq!(back[3], vec![98u8; 5]);
        assert_eq!(back[5], vec![5u8; 20]);
    }
}
