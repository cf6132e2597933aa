//! Storage backends: where track bytes actually live.
//!
//! The [`DiskArray`](crate::DiskArray) front-end is backend-agnostic. The
//! memory backend gives deterministic, allocation-cheap simulation for unit
//! tests and I/O-op counting experiments; the file backend performs real
//! positional file I/O (one file per simulated drive) and, in
//! [`IoMode::Parallel`](crate::IoMode), overlaps the `≤ D` track transfers
//! of a stripe across one dedicated worker thread per drive — so the
//! wall-clock behaviour of the blocked access patterns can show the
//! model's `D`-way parallelism, not just count it.

use crate::block::{crc32, CRC_BYTES};
use crate::engine::{first_failure, read_full_track, track_offset, write_at, IoEngine};
use crate::{DiskError, DiskResult, EngineKind, IoMode, ReadTicket, RetryPolicy, WriteTicket};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// Raw track storage for an array of `D` drives.
///
/// Tracks that have never been written read back as zeros — the model's
/// disks are "formatted" at creation, matching the paper's preallocated
/// context and message regions.
///
/// A stripe is `≤ D` tracks, at most one per drive. Its entry points,
/// [`DiskBackend::read_stripe_each`] and [`DiskBackend::write_stripe_each`],
/// report **one outcome per track**: every listed track is attempted, and
/// the call returns only after all of them have completed — callers never
/// observe in-flight I/O, and one track's failure never hides what happened
/// to the others. The default implementation is the per-track loop, which
/// is all a backend with nothing to overlap needs (`read_track` and
/// `write_track` suffice to be correct).
///
/// A **batch** is a run of stripes handed over as one transfer — the form
/// a group's contexts and routed messages arrive in, since standard
/// consecutive format puts them on consecutive tracks of every drive. Its
/// entry points, [`DiskBackend::read_batch_each`] and
/// [`DiskBackend::write_batch_each`], take the tracks of all the stripes in
/// request order plus the length of each stripe, and report one outcome per
/// track under the same contract. The default implementation is the
/// stripe-by-stripe loop, so a backend that must see every stripe on its
/// own — one cache lookup per stripe ([`crate::BlockCacheBackend`]), one
/// draw per track of a per-drive fault schedule
/// ([`crate::FaultInjectingBackend`]) — gets exactly that by not
/// overriding it. Backends with real parallelism (the file backend's
/// threaded engine) override the `_batch_each` pair to give each drive its
/// whole share at once, [`crate::RegionBackend`] overrides it to take the
/// shared media once per transfer, and [`ChecksumBackend`] and
/// [`RetryingBackend`] override it to do their per-track work around a
/// *single* inner batch call, so one dispatch per drive at the bottom
/// survives the stack above it. In every layer that overrides the batch, a
/// stripe is the batch of one stripe and a track the stripe of one track:
/// one implementation per layer.
///
/// [`DiskBackend::read_stripe`] / [`DiskBackend::write_stripe`] are the
/// merged view — `Ok` when every track succeeded, else the error of the
/// first failing track in request order — and are never overridden.
///
/// Bytes never pass through a backend in buffers it made. A read fills
/// buffers its caller lends — slices for the `_each` entry points, owned
/// `Vec`s for [`DiskBackend::submit_read_batch`], whose ticket hands the
/// same `Vec`s back at join — and a write reads slices of its caller's
/// memory, copying them (the threaded engine) or consuming them (every
/// synchronous layer) before the submission returns.
pub trait DiskBackend: Send {
    /// Number of drives this backend was created with.
    fn num_disks(&self) -> usize;

    /// Read one track into `buf` (whose length is the block size `B`).
    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()>;

    /// Write one track from `data` (whose length is the block size `B`).
    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()>;

    /// Read one track from each listed drive into the matching buffer and
    /// report one outcome per track, in request order.
    ///
    /// `addrs[i]` is `(disk, track)` and fills `bufs[i]`; the buffer of a
    /// failed track holds unspecified bytes. The caller (the array
    /// front-end) has already validated the one-track-per-drive stripe
    /// rule; backends may execute the transfers in any order or in
    /// parallel, but must attempt and complete all of them before
    /// returning.
    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        (addrs.iter().zip(bufs.iter_mut()))
            .map(|(&(disk, track), buf)| self.read_track(disk, track, buf))
            .collect()
    }

    /// Write one track on each listed drive (same contract as
    /// [`DiskBackend::read_stripe_each`]).
    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        writes.iter().map(|&(disk, track, data)| self.write_track(disk, track, data)).collect()
    }

    /// Read a batch of stripes: `addrs` lists the tracks of every stripe in
    /// request order, `stripes[i]` is the length of the `i`-th stripe (the
    /// lengths sum to `addrs.len()`), and `bufs[i]` receives `addrs[i]`.
    /// One outcome per track, in request order, all tracks attempted —
    /// the contract of [`DiskBackend::read_stripe_each`], which the default
    /// applies stripe by stripe.
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let mut at = 0;
        let mut stripes = stripes.iter().map(|&len| {
            at += len;
            self.read_stripe_each(&addrs[at - len..at], &mut bufs[at - len..at])
        });
        // The first stripe's outcomes become the batch's, so a batch of
        // one stripe costs what the stripe costs.
        let mut outcomes = stripes.next().unwrap_or_default();
        stripes.for_each(|stripe| outcomes.extend(stripe));
        outcomes
    }

    /// Write a batch of stripes (same contract as
    /// [`DiskBackend::read_batch_each`]).
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let mut at = 0;
        let mut stripes = stripes.iter().map(|&len| {
            at += len;
            self.write_stripe_each(&writes[at - len..at])
        });
        let mut outcomes = stripes.next().unwrap_or_default();
        stripes.for_each(|stripe| outcomes.extend(stripe));
        outcomes
    }

    /// [`DiskBackend::read_stripe_each`] merged: every track was attempted;
    /// the first failing track's error (request order) is returned.
    fn read_stripe(&mut self, addrs: &[(usize, usize)], bufs: &mut [&mut [u8]]) -> DiskResult<()> {
        first_failure(self.read_stripe_each(addrs, bufs)).map(drop)
    }

    /// [`DiskBackend::write_stripe_each`] merged (same rule as
    /// [`DiskBackend::read_stripe`]).
    fn write_stripe(&mut self, writes: &[(usize, usize, &[u8])]) -> DiskResult<()> {
        first_failure(self.write_stripe_each(writes)).map(drop)
    }

    /// Submit a batch read (see [`DiskBackend::read_batch_each`] for
    /// `stripes` and `addrs`) into `lent` — one buffer per track, each
    /// exactly one block long, lent by the array's caller — and return a
    /// joinable ticket. A successful [`ReadTicket::join`] hands the same
    /// buffers back, track `i`'s bytes in `lent[i]`; nothing is allocated
    /// per track.
    ///
    /// The default implementation reads the batch into `lent` synchronously
    /// and wraps the outcome in an already-completed ticket, so every
    /// backend supports the submission API; backends with real asynchrony
    /// (the file backend's threaded engine) override this to return with
    /// the transfers still in flight, keeping `lent` in the ticket until the
    /// join copies each track in. Submission itself never fails —
    /// validation happens in the array front-end before this is called, and
    /// I/O errors are deferred to [`ReadTicket::join`].
    fn submit_read_batch(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        lent: Vec<Vec<u8>>,
    ) -> ReadTicket {
        read_batch_now(self, stripes, addrs, lent)
    }

    /// Submit a batch write and return a joinable ticket (same contract
    /// as [`DiskBackend::submit_read_batch`]).
    fn submit_write_batch(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> WriteTicket {
        WriteTicket::ready(first_failure(self.write_batch_each(stripes, writes)).map(drop))
    }

    /// Highest track index written so far on `disk`, plus one (0 if never
    /// written). Used for disk-space accounting.
    fn tracks_used(&self, disk: usize) -> usize;

    /// Flush any buffered state to stable storage (no-op for memory).
    fn sync(&mut self) -> DiskResult<()> {
        Ok(())
    }

    /// Drain the count of track transfers re-issued after transient
    /// failures since the last call. Only [`RetryingBackend`] produces a
    /// nonzero count; decorator backends forward to their inner backend so
    /// the count survives any stacking order.
    fn take_retried_blocks(&mut self) -> u64 {
        0
    }

    /// Drain the count of block reads served from a cache layer since the
    /// last call (same drain-and-forward contract as
    /// [`DiskBackend::take_retried_blocks`]; only
    /// [`crate::BlockCacheBackend`] produces a nonzero count).
    fn take_cache_hit_blocks(&mut self) -> u64 {
        0
    }

    /// Drain the count of block writes absorbed (buffered until a flush)
    /// by a cache layer since the last call.
    fn take_cache_absorbed_writes(&mut self) -> u64 {
        0
    }

    /// Write every dirty cached block through to the layer below. A no-op
    /// for backends without a cache. Called by the array inside `sync()`
    /// and at recovery-epoch boundaries, so durability barriers and the
    /// pre-image journal always observe fully flushed storage.
    fn flush_cache(&mut self) -> DiskResult<()> {
        Ok(())
    }

    /// Per-drive counts of track transfers seen by a fault-injection layer
    /// since it was constructed (or since the counters were last
    /// restored). `None` when no layer in the stack injects faults.
    /// Decorators forward, so the counters survive any stacking order.
    ///
    /// A [`crate::FaultPlan`] keys its schedule by these counters, so a
    /// resumed run must persist and restore them — otherwise the new
    /// process would replay the schedule from operation 0 and fire
    /// already-consumed faults again.
    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restore counters exported by [`DiskBackend::fault_op_counts`] in a
    /// previous process, so the resumed run observes the same *remaining*
    /// fault schedule as an uninterrupted one. A no-op without a
    /// fault-injection layer.
    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        let _ = counts;
    }
}

/// Execute a batch read into the lent buffers on the calling thread and
/// wrap the merged outcome in an already-completed ticket — what submission
/// means on a backend with nothing in flight.
fn read_batch_now<B: DiskBackend + ?Sized>(
    backend: &mut B,
    stripes: &[usize],
    addrs: &[(usize, usize)],
    mut lent: Vec<Vec<u8>>,
) -> ReadTicket {
    let mut bufs: Vec<&mut [u8]> = lent.iter_mut().map(Vec::as_mut_slice).collect();
    let res = first_failure(backend.read_batch_each(stripes, addrs, &mut bufs));
    ReadTicket::ready(res.map(|_| lent))
}

/// One outcome per track of a stripe or a batch, in request order (see
/// [`DiskBackend::read_stripe_each`]).
pub type TrackOutcomes = Vec<DiskResult<()>>;

/// Boxed backends forward every method (including the overridable stripe
/// and submission fast paths) to the inner backend, so decorator layers can
/// compose over `Box<dyn DiskBackend>` without losing overrides.
impl<B: DiskBackend + ?Sized> DiskBackend for Box<B> {
    fn num_disks(&self) -> usize {
        (**self).num_disks()
    }
    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        (**self).read_track(disk, track, buf)
    }
    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        (**self).write_track(disk, track, data)
    }
    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        (**self).read_stripe_each(addrs, bufs)
    }
    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        (**self).write_stripe_each(writes)
    }
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        (**self).read_batch_each(stripes, addrs, bufs)
    }
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        (**self).write_batch_each(stripes, writes)
    }
    fn submit_read_batch(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        lent: Vec<Vec<u8>>,
    ) -> ReadTicket {
        (**self).submit_read_batch(stripes, addrs, lent)
    }
    fn submit_write_batch(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> WriteTicket {
        (**self).submit_write_batch(stripes, writes)
    }
    fn tracks_used(&self, disk: usize) -> usize {
        (**self).tracks_used(disk)
    }
    fn sync(&mut self) -> DiskResult<()> {
        (**self).sync()
    }
    fn take_retried_blocks(&mut self) -> u64 {
        (**self).take_retried_blocks()
    }
    fn take_cache_hit_blocks(&mut self) -> u64 {
        (**self).take_cache_hit_blocks()
    }
    fn take_cache_absorbed_writes(&mut self) -> u64 {
        (**self).take_cache_absorbed_writes()
    }
    fn flush_cache(&mut self) -> DiskResult<()> {
        (**self).flush_cache()
    }
    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        (**self).fault_op_counts()
    }
    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        (**self).restore_fault_op_counts(counts)
    }
}

/// In-memory backend: tracks are boxed byte buffers.
///
/// Always serial and deterministic regardless of the configured
/// [`IoMode`] — a memcpy cannot be usefully overlapped, and the memory
/// backend is the reference for seeded-trace tests.
pub struct MemoryBackend {
    disks: Vec<Vec<Option<Box<[u8]>>>>,
}

impl MemoryBackend {
    /// Create a memory backend for `num_disks` drives.
    pub fn new(num_disks: usize) -> Self {
        MemoryBackend { disks: vec![Vec::new(); num_disks] }
    }

    /// Total bytes currently resident across all drives (for tests).
    pub fn resident_bytes(&self) -> usize {
        self.disks.iter().flatten().filter_map(|t| t.as_ref().map(|b| b.len())).sum()
    }
}

impl DiskBackend for MemoryBackend {
    fn num_disks(&self) -> usize {
        self.disks.len()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        match self.disks[disk].get(track).and_then(Option::as_ref) {
            Some(data) => {
                debug_assert_eq!(data.len(), buf.len());
                buf.copy_from_slice(data);
            }
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        let tracks = &mut self.disks[disk];
        if tracks.len() <= track {
            tracks.resize_with(track + 1, || None);
        }
        match &mut tracks[track] {
            // Rewriting a track reuses the buffer it already holds.
            Some(held) if held.len() == data.len() => held.copy_from_slice(data),
            slot => *slot = Some(data.into()),
        }
        Ok(())
    }

    /// A memcpy per track whatever the stripes are: one list of outcomes
    /// for the whole batch, not one per stripe.
    fn read_batch_each(
        &mut self,
        _stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.read_stripe_each(addrs, bufs)
    }

    fn write_batch_each(
        &mut self,
        _stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        self.write_stripe_each(writes)
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.disks[disk].len()
    }
}

/// A [`DiskBackend`] decorator that frames every track with a CRC32
/// checksum, verified on read.
///
/// The stored *frame* is `payload ‖ crc32(payload)` — [`CRC_BYTES`] bytes
/// longer than the logical block, so the inner backend must be created
/// with the frame size as its track size. The checksum lives outside the
/// logical block: callers, block arithmetic and counted [`crate::IoStats`]
/// all keep seeing `B`-byte blocks.
///
/// An all-zero frame is a never-written ("formatted") track and reads back
/// as a zero block without verification, preserving the substrate's
/// zeros-before-first-write contract. Any other frame whose checksum does
/// not match fails with [`DiskError::Corrupt`].
pub struct ChecksumBackend<B: DiskBackend> {
    inner: B,
    payload_bytes: usize,
    /// One reusable frame per track of a batch (grown to the largest batch
    /// seen — a group's contexts under the simulators), so steady-state
    /// framing and verification allocate nothing per block.
    frames: Vec<Vec<u8>>,
}

impl<B: DiskBackend> ChecksumBackend<B> {
    /// Wrap `inner` (whose track size must be `payload_bytes + CRC_BYTES`).
    pub fn new(inner: B, payload_bytes: usize) -> Self {
        ChecksumBackend { inner, payload_bytes, frames: Vec::new() }
    }

    fn reserve_frames(&mut self, tracks: usize) {
        if self.frames.len() < tracks {
            self.frames.resize(tracks, vec![0u8; self.payload_bytes + CRC_BYTES]);
        }
    }
}

/// Store `payload ‖ crc32(payload)` in `frame`.
fn seal_frame(payload: &[u8], frame: &mut [u8]) {
    let (body, tail) = frame.split_at_mut(payload.len());
    body.copy_from_slice(payload);
    // A zero payload stores as the all-zero ("formatted") frame, so a
    // recovery rollback that re-zeroes a freshly allocated track leaves
    // the drive byte-identical to one that never wrote it.
    let crc = if payload.iter().all(|&b| b == 0) {
        [0u8; CRC_BYTES]
    } else {
        crc32(payload).to_le_bytes()
    };
    tail.copy_from_slice(&crc);
}

/// Verify `frame` (read from `(disk, track)`) and copy its payload out.
fn open_frame(frame: &[u8], payload: &mut [u8], disk: usize, track: usize) -> DiskResult<()> {
    if frame.iter().all(|&b| b == 0) {
        payload.fill(0);
        return Ok(());
    }
    let (body, stored) = frame.split_at(payload.len());
    let stored = u32::from_le_bytes(stored.try_into().expect("CRC_BYTES == 4"));
    if crc32(body) != stored {
        return Err(DiskError::Corrupt { disk, track });
    }
    payload.copy_from_slice(body);
    Ok(())
}

impl<B: DiskBackend> DiskBackend for ChecksumBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        self.read_stripe(&[(disk, track)], &mut [buf])
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.write_stripe(&[(disk, track, data)])
    }

    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.read_batch_each(&[addrs.len()], addrs, bufs)
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        self.write_batch_each(&[writes.len()], writes)
    }

    /// Read every frame with one inner batch call, then verify each track
    /// that arrived.
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.reserve_frames(addrs.len());
        let mut frames: Vec<&mut [u8]> =
            self.frames[..addrs.len()].iter_mut().map(Vec::as_mut_slice).collect();
        let mut outcomes = self.inner.read_batch_each(stripes, addrs, &mut frames);
        for (((outcome, frame), buf), &(disk, track)) in
            outcomes.iter_mut().zip(&frames).zip(bufs.iter_mut()).zip(addrs)
        {
            debug_assert_eq!(buf.len(), self.payload_bytes);
            if outcome.is_ok() {
                *outcome = open_frame(frame, buf, disk, track);
            }
        }
        outcomes
    }

    /// Frame every track, then write them with one inner batch call.
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        self.reserve_frames(writes.len());
        for (frame, &(_, _, data)) in self.frames.iter_mut().zip(writes) {
            debug_assert_eq!(data.len(), self.payload_bytes);
            seal_frame(data, frame);
        }
        let framed: Vec<(usize, usize, &[u8])> = (writes.iter().zip(&self.frames))
            .map(|(&(disk, track, _), frame)| (disk, track, frame.as_slice()))
            .collect();
        self.inner.write_batch_each(stripes, &framed)
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.inner.sync()
    }

    fn take_retried_blocks(&mut self) -> u64 {
        self.inner.take_retried_blocks()
    }

    fn take_cache_hit_blocks(&mut self) -> u64 {
        self.inner.take_cache_hit_blocks()
    }

    fn take_cache_absorbed_writes(&mut self) -> u64 {
        self.inner.take_cache_absorbed_writes()
    }

    fn flush_cache(&mut self) -> DiskResult<()> {
        self.inner.flush_cache()
    }

    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        self.inner.fault_op_counts()
    }

    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        self.inner.restore_fault_op_counts(counts)
    }
}

/// Stripe lengths of the batch that keeps only the tracks at the ascending
/// indices `kept` of a batch with stripe lengths `stripes`: every kept
/// track stays in its stripe, and a stripe left empty drops out.
pub(crate) fn sub_batch(stripes: &[usize], kept: &[usize]) -> Vec<usize> {
    let mut kept = kept.iter().peekable();
    let mut end = 0;
    (stripes.iter())
        .map(|&len| {
            end += len;
            std::iter::from_fn(|| kept.next_if(|&&i| i < end)).count()
        })
        .filter(|&len| len > 0)
        .collect()
}

/// A [`DiskBackend`] decorator that re-issues transiently failing track
/// transfers under a bounded, deterministic [`RetryPolicy`].
///
/// Sits at the top of the backend stack (directly under the array
/// front-end) so a retried read passes checksum verification again and a
/// retried write re-frames the block. A transfer — a stripe, or a batch
/// of stripes — goes down whole; each further *round* re-issues only the
/// tracks that failed transiently, as one smaller batch in which every
/// track keeps its stripe, after one backoff delay. Since a stripe holds
/// at most one track per drive, a stripe's drives each see the same
/// attempts in the same order as if their track had been retried alone;
/// across the stripes of a batch a drive sees every first attempt before
/// any retry, which is why the array hands a batch down stripe by stripe
/// when a per-drive fault schedule is listening (see
/// [`crate::DiskArray::submit_read_batch`]). A track that is still failing
/// after `max_attempts` keeps its last error — by then the transfer's
/// other tracks have all been attempted too. Per-track retries are
/// tallied and drained by the array into
/// [`IoStats::retried_blocks`](crate::IoStats::retried_blocks); they are
/// never counted as parallel I/O operations.
pub struct RetryingBackend<B: DiskBackend> {
    inner: B,
    policy: RetryPolicy,
    retried: u64,
}

impl<B: DiskBackend> RetryingBackend<B> {
    /// Wrap `inner` with `policy`.
    pub fn new(inner: B, policy: RetryPolicy) -> Self {
        RetryingBackend { inner, policy, retried: 0 }
    }

    /// The retry rounds after a batch's first attempt produced
    /// `outcomes`: `reissue(inner, failed)` sends the tracks at the
    /// (ascending) indices `failed` down again as one smaller batch and
    /// returns their new outcomes.
    fn retry_failed(
        &mut self,
        mut outcomes: TrackOutcomes,
        mut reissue: impl FnMut(&mut B, &[usize]) -> TrackOutcomes,
    ) -> TrackOutcomes {
        for attempt in 1..self.policy.max_attempts {
            let failed: Vec<usize> = (outcomes.iter().enumerate())
                .filter(|(_, outcome)| matches!(outcome, Err(e) if e.is_transient()))
                .map(|(i, _)| i)
                .collect();
            if failed.is_empty() {
                break;
            }
            self.retried += failed.len() as u64;
            let delay = self.policy.delay_before(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            for (&i, outcome) in failed.iter().zip(reissue(&mut self.inner, &failed)) {
                outcomes[i] = outcome;
            }
        }
        outcomes
    }
}

impl<B: DiskBackend> DiskBackend for RetryingBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        self.read_stripe(&[(disk, track)], &mut [buf])
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.write_stripe(&[(disk, track, data)])
    }

    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.read_batch_each(&[addrs.len()], addrs, bufs)
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        self.write_batch_each(&[writes.len()], writes)
    }

    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let first = self.inner.read_batch_each(stripes, addrs, bufs);
        self.retry_failed(first, |inner, failed| {
            let (addrs, mut bufs): (Vec<(usize, usize)>, Vec<&mut [u8]>) =
                (bufs.iter_mut().enumerate())
                    .filter(|(i, _)| failed.contains(i))
                    .map(|(i, buf)| (addrs[i], &mut **buf))
                    .unzip();
            inner.read_batch_each(&sub_batch(stripes, failed), &addrs, &mut bufs)
        })
    }

    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let first = self.inner.write_batch_each(stripes, writes);
        self.retry_failed(first, |inner, failed| {
            let writes: Vec<(usize, usize, &[u8])> = failed.iter().map(|&i| writes[i]).collect();
            inner.write_batch_each(&sub_batch(stripes, failed), &writes)
        })
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.inner.sync()
    }

    fn take_retried_blocks(&mut self) -> u64 {
        std::mem::take(&mut self.retried) + self.inner.take_retried_blocks()
    }

    fn take_cache_hit_blocks(&mut self) -> u64 {
        self.inner.take_cache_hit_blocks()
    }

    fn take_cache_absorbed_writes(&mut self) -> u64 {
        self.inner.take_cache_absorbed_writes()
    }

    fn flush_cache(&mut self) -> DiskResult<()> {
        self.inner.flush_cache()
    }

    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        self.inner.fault_op_counts()
    }

    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        self.inner.restore_fault_op_counts(counts)
    }
}

/// Where a file backend's track transfers execute.
enum FileIo {
    /// Positional I/O on the calling thread, one drive after another.
    Serial(Vec<File>),
    /// One worker thread per drive; stripes are dispatched to all listed
    /// drives at once and joined before the operation returns.
    Parallel(IoEngine),
}

impl FileIo {
    /// Pick the execution strategy for `files` from the configured mode
    /// and pinning flag: a single drive has nothing to overlap, so it is
    /// always served on the calling thread.
    fn spawn(files: Vec<File>, block_bytes: usize, mode: IoMode, pin: bool) -> Self {
        if files.len() <= 1 || mode == IoMode::Serial {
            return FileIo::Serial(files);
        }
        FileIo::Parallel(IoEngine::spawn(files, block_bytes, pin))
    }
}

/// File-backed backend: one file per drive, positional I/O at
/// `track * block_bytes` offsets.
///
/// In [`IoMode::Parallel`] (the default of [`crate::DiskConfig::new`]) the
/// drive files are owned by an `IoEngine` worker per drive and each
/// stripe's transfers overlap; in [`IoMode::Serial`] the transfers run on
/// the calling thread in drive order. Both modes produce identical bytes,
/// identical [`crate::IoStats`] and identical seeded I/O traces — the mode
/// only changes who performs the file I/O and when, never what is
/// transferred.
pub struct FileBackend {
    io: FileIo,
    paths: Vec<PathBuf>,
    block_bytes: usize,
    tracks_used: Vec<usize>,
}

impl FileBackend {
    /// Create (or truncate) `num_disks` drive files named `disk-<i>.bin`
    /// inside `dir`, with the parallel worker engine enabled.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
    ) -> DiskResult<Self> {
        Self::create_with_mode(dir, num_disks, block_bytes, IoMode::Parallel)
    }

    /// Create (or truncate) the drive files with an explicit I/O mode.
    ///
    /// A single-drive array has nothing to overlap, so it always uses the
    /// serial path regardless of `mode`.
    pub fn create_with_mode<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
        mode: IoMode,
    ) -> DiskResult<Self> {
        Self::create_with_opts(dir, num_disks, block_bytes, mode, EngineKind::Threaded, false)
    }

    /// [`FileBackend::create_with_mode`] with an explicit worker pinning
    /// flag (normally [`crate::DiskConfig::pin_workers`]). [`EngineKind`]
    /// has one value, so `_engine` selects nothing: the argument is kept
    /// because the benchmark passes it (ROADMAP item 1(ii)).
    pub fn create_with_opts<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
        mode: IoMode,
        _engine: EngineKind,
        pin_workers: bool,
    ) -> DiskResult<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        let mut files = Vec::with_capacity(num_disks);
        let mut paths = Vec::with_capacity(num_disks);
        for i in 0..num_disks {
            let path = dir.as_ref().join(format!("disk-{i}.bin"));
            let file = match OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
            {
                Ok(f) => f,
                Err(e) => {
                    // Don't leak a partial array: remove the drive files
                    // already created before this one failed.
                    drop(files);
                    for p in &paths {
                        let _ = std::fs::remove_file(p);
                    }
                    return Err(e.into());
                }
            };
            files.push(file);
            paths.push(path);
        }
        let io = FileIo::spawn(files, block_bytes, mode, pin_workers);
        Ok(FileBackend { io, paths, block_bytes, tracks_used: vec![0; num_disks] })
    }

    /// Reopen `num_disks` existing drive files inside `dir` **without
    /// truncating them**, with the parallel worker engine enabled — the
    /// reattachment half of crash recovery: a resumed process opens the
    /// drive files a killed one left behind.
    pub fn open<P: AsRef<Path>>(dir: P, num_disks: usize, block_bytes: usize) -> DiskResult<Self> {
        Self::open_with_mode(dir, num_disks, block_bytes, IoMode::Parallel)
    }

    /// Reopen existing drive files with an explicit I/O mode. Every
    /// `disk-<i>.bin` must already exist (a missing drive file surfaces as
    /// the underlying `NotFound` I/O error); `tracks_used` is
    /// reconstructed from each file's length.
    pub fn open_with_mode<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
        mode: IoMode,
    ) -> DiskResult<Self> {
        Self::open_with_opts(dir, num_disks, block_bytes, mode, false)
    }

    /// [`FileBackend::open_with_mode`] with an explicit worker pinning
    /// flag.
    pub fn open_with_opts<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
        mode: IoMode,
        pin_workers: bool,
    ) -> DiskResult<Self> {
        let mut files = Vec::with_capacity(num_disks);
        let mut paths = Vec::with_capacity(num_disks);
        let mut tracks_used = Vec::with_capacity(num_disks);
        for i in 0..num_disks {
            let path = dir.as_ref().join(format!("disk-{i}.bin"));
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            let tracks = file.metadata()?.len().div_ceil(block_bytes as u64);
            tracks_used.push(
                usize::try_from(tracks)
                    .map_err(|_| DiskError::OffsetOverflow { disk: i, track: tracks })?,
            );
            files.push(file);
            paths.push(path);
        }
        let io = FileIo::spawn(files, block_bytes, mode, pin_workers);
        Ok(FileBackend { io, paths, block_bytes, tracks_used })
    }

    /// Paths of the backing files (for inspection in examples/tests).
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// True when stripes overlap across drives (one worker thread each)
    /// instead of running serially on the calling thread.
    pub fn is_parallel(&self) -> bool {
        !matches!(self.io, FileIo::Serial(_))
    }

    fn note_write(&mut self, disk: usize, track: usize) {
        self.tracks_used[disk] = self.tracks_used[disk].max(track + 1);
    }
}

impl DiskBackend for FileBackend {
    fn num_disks(&self) -> usize {
        self.paths.len()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        self.read_stripe(&[(disk, track)], &mut [buf])
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.write_stripe(&[(disk, track, data)])
    }

    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.read_batch_each(&[addrs.len()], addrs, bufs)
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        self.write_batch_each(&[writes.len()], writes)
    }

    /// Both execution strategies take a batch as one list of tracks,
    /// wherever its stripes end: the serial path moves them one after
    /// another and the threaded engine gives each drive its share as one
    /// command — the same bytes at the same offsets on each.
    fn read_batch_each(
        &mut self,
        _stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        match &self.io {
            FileIo::Serial(files) => (addrs.iter().zip(bufs.iter_mut()))
                .map(|(&(disk, track), buf)| {
                    let offset = track_offset(disk, track, self.block_bytes)?;
                    Ok(read_full_track(&files[disk], buf, offset)?)
                })
                .collect(),
            FileIo::Parallel(engine) => engine.read_each(addrs, bufs),
        }
    }

    fn write_batch_each(
        &mut self,
        _stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let outcomes: TrackOutcomes = match &self.io {
            FileIo::Serial(files) => writes
                .iter()
                .map(|&(disk, track, data)| {
                    let offset = track_offset(disk, track, self.block_bytes)?;
                    Ok(write_at(&files[disk], data, offset)?)
                })
                .collect(),
            FileIo::Parallel(engine) => engine.write_each(writes),
        };
        for (&(disk, track, _), outcome) in writes.iter().zip(&outcomes) {
            if outcome.is_ok() {
                self.note_write(disk, track);
            }
        }
        outcomes
    }

    fn submit_read_batch(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        lent: Vec<Vec<u8>>,
    ) -> ReadTicket {
        match &self.io {
            FileIo::Parallel(engine) => engine.submit_reads(addrs, lent),
            FileIo::Serial(_) => read_batch_now(self, stripes, addrs, lent),
        }
    }

    fn submit_write_batch(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> WriteTicket {
        let ticket = match &self.io {
            FileIo::Parallel(engine) => engine.submit_writes(writes),
            FileIo::Serial(_) => {
                let done = first_failure(self.write_batch_each(stripes, writes));
                return WriteTicket::ready(done.map(drop));
            }
        };
        // The addresses are known at submission, so space accounting stays
        // deterministic regardless of when the transfers land.
        for &(disk, track, _) in writes {
            self.note_write(disk, track);
        }
        ticket
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.tracks_used[disk]
    }

    fn sync(&mut self) -> DiskResult<()> {
        match &self.io {
            FileIo::Serial(files) => {
                for f in files {
                    f.sync_data()?;
                }
                Ok(())
            }
            FileIo::Parallel(engine) => engine.sync_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_unwritten_tracks_read_zero() {
        let mut be = MemoryBackend::new(2);
        let mut buf = [0xAAu8; 16];
        be.read_track(1, 5, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn memory_round_trip() {
        let mut be = MemoryBackend::new(1);
        be.write_track(0, 3, &[7u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        be.read_track(0, 3, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert_eq!(be.tracks_used(0), 4);
        // A rewrite replaces the bytes, whether or not the length is the
        // one the track holds.
        be.write_track(0, 3, &[9u8; 8]).unwrap();
        be.read_track(0, 3, &mut buf).unwrap();
        assert_eq!((buf, be.resident_bytes()), ([9u8; 8], 8));
        be.write_track(0, 3, &[5u8; 12]).unwrap();
        let mut wider = [0u8; 12];
        be.read_track(0, 3, &mut wider).unwrap();
        assert_eq!((wider, be.resident_bytes(), be.tracks_used(0)), ([5u8; 12], 12, 4));
    }

    fn file_round_trip(mode: IoMode, tag: &str) {
        let dir = std::env::temp_dir().join(format!("em-disk-test-{tag}-{}", std::process::id()));
        let mut be = FileBackend::create_with_mode(&dir, 2, 32, mode).unwrap();
        be.write_track(0, 2, &[9u8; 32]).unwrap();
        let mut buf = [0u8; 32];
        be.read_track(0, 2, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 32]);
        // Unwritten track (including holes before a written one) is zeros.
        be.read_track(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        be.read_track(1, 99, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(be.tracks_used(0), 3);
        assert_eq!(be.tracks_used(1), 0);
        be.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_round_trip_serial() {
        file_round_trip(IoMode::Serial, "serial");
    }

    #[test]
    fn file_backend_round_trip_parallel() {
        file_round_trip(IoMode::Parallel, "parallel");
    }

    #[test]
    fn open_reattaches_existing_drive_files() {
        let dir = std::env::temp_dir().join(format!("em-disk-reopen-{}", std::process::id()));
        {
            let mut be = FileBackend::create_with_mode(&dir, 2, 32, IoMode::Serial).unwrap();
            be.write_track(0, 4, &[7u8; 32]).unwrap();
            be.write_track(1, 1, &[8u8; 32]).unwrap();
            be.sync().unwrap();
        }
        let mut be = FileBackend::open_with_mode(&dir, 2, 32, IoMode::Serial).unwrap();
        assert_eq!(be.tracks_used(0), 5, "space accounting rebuilt from file length");
        assert_eq!(be.tracks_used(1), 2);
        let mut buf = [0u8; 32];
        be.read_track(0, 4, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 32], "reopen must not truncate");
        be.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
        // Opening a missing array is an error, unlike create.
        drop(be);
        std::fs::remove_dir_all(&dir).ok();
        assert!(FileBackend::open_with_mode(&dir, 2, 32, IoMode::Serial).is_err());
    }

    #[test]
    fn create_cleans_up_partial_array_on_midway_failure() {
        let dir = std::env::temp_dir().join(format!("em-disk-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory squatting on drive 2's path makes its open fail after
        // drives 0 and 1 were already created.
        std::fs::create_dir_all(dir.join("disk-2.bin")).unwrap();
        let err = FileBackend::create(&dir, 4, 32);
        assert!(err.is_err());
        assert!(!dir.join("disk-0.bin").exists(), "partial drive files must be removed");
        assert!(!dir.join("disk-1.bin").exists(), "partial drive files must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_backend_round_trips_and_detects_corruption() {
        let mut be = ChecksumBackend::new(MemoryBackend::new(1), 16);
        // Never-written tracks still read back as zeros.
        let mut buf = [0xAAu8; 16];
        be.read_track(0, 3, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        be.write_track(0, 0, &[5u8; 16]).unwrap();
        be.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 16]);
        // A zero payload is a valid written block, distinct from formatted.
        be.write_track(0, 1, &[0u8; 16]).unwrap();
        be.read_track(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        // Corrupt the stored frame behind the checksum layer's back.
        let mut frame = vec![0u8; 16 + CRC_BYTES];
        be.inner.read_track(0, 0, &mut frame).unwrap();
        frame[7] ^= 0x01;
        be.inner.write_track(0, 0, &frame).unwrap();
        let err = be.read_track(0, 0, &mut buf).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { disk: 0, track: 0 }));
        assert!(err.is_transient());
    }

    #[test]
    fn retrying_backend_absorbs_transients_and_counts_them() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        // Two stacked transients on drive 0's ops 1 and 2: a 3-attempt
        // policy retries through both.
        let plan = FaultPlan::none().with_transient(0, 1).with_transient(0, 2);
        let inner = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        let mut be = RetryingBackend::new(inner, RetryPolicy::new(3));
        be.write_track(0, 0, &[1u8; 8]).unwrap(); // op 0 clean
        be.write_track(0, 4, &[2u8; 8]).unwrap(); // ops 1,2 fail, op 3 lands
        assert_eq!(be.take_retried_blocks(), 2);
        assert_eq!(be.take_retried_blocks(), 0, "draining resets the count");
        let mut buf = [0u8; 8];
        be.read_track(0, 4, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn retrying_backend_gives_up_past_its_budget() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        let plan = FaultPlan::none().with_transient(0, 0).with_transient(0, 1).with_transient(0, 2);
        let inner = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        let mut be = RetryingBackend::new(inner, RetryPolicy::new(3));
        let err = be.write_track(0, 0, &[1u8; 8]).unwrap_err();
        assert!(err.is_transient(), "the final transient error is surfaced");
        assert_eq!(be.take_retried_blocks(), 2);
        // The next write succeeds: the schedule was consumed.
        be.write_track(0, 0, &[3u8; 8]).unwrap();
    }

    #[test]
    fn exhausted_track_keeps_its_error_and_the_rest_of_the_stripe_lands() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        // Drives 1 and 2 fail three times in a row — the whole budget of a
        // 3-attempt policy; drives 0 and 3 are clean.
        let burst = || {
            (0..3).fold(FaultPlan::none(), |p, op| p.with_transient(1, op).with_transient(2, op))
        };
        let stack = |plan| {
            let fault = FaultInjectingBackend::new(MemoryBackend::new(4), plan);
            RetryingBackend::new(ChecksumBackend::new(fault, 8), RetryPolicy::new(3))
        };
        let plan = burst();
        let stats = plan.stats();
        let mut be = stack(plan);
        let payload = [5u8; 8];
        // Request order puts drive 2 ahead of drive 1.
        let writes: Vec<(usize, usize, &[u8])> =
            [0, 2, 1, 3].iter().map(|&d| (d, 0, &payload[..])).collect();

        let outcomes = be.write_stripe_each(&writes);
        assert!(outcomes[0].is_ok() && outcomes[3].is_ok());
        for (slot, disk) in [(1, 2), (2, 1)] {
            match &outcomes[slot] {
                Err(DiskError::WorkerIo { disk: d, .. }) => assert_eq!(*d, disk),
                other => panic!("slot {slot}: expected drive {disk}'s transient, got {other:?}"),
            }
        }
        // Every track was attempted; only the failing ones were re-issued.
        assert_eq!(be.fault_op_counts().unwrap(), vec![1, 3, 3, 1]);
        assert_eq!(be.take_retried_blocks(), 4);
        assert_eq!(stats.counts().transient, 6);
        let mut buf = [0u8; 8];
        be.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(buf, payload, "the stripe's healthy tracks landed");

        // The merged form reports the first failing track in request order.
        let mut be = stack(burst());
        match be.write_stripe(&writes) {
            Err(DiskError::WorkerIo { disk: 2, .. }) => {}
            other => panic!("expected drive 2's error (first in request order), got {other:?}"),
        }
        // The schedule is consumed: the same stripe now lands everywhere.
        be.write_stripe(&writes).unwrap();
    }

    #[test]
    fn a_batch_retries_and_blames_one_track_at_a_time() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        const D: usize = 3;
        // Three full stripes; drive 1's second transfer — the middle
        // stripe's track — fails once.
        let stripes = [D; 3];
        let addrs: Vec<(usize, usize)> = (0..3 * D).map(|g| (g % D, g / D)).collect();
        let payloads: Vec<[u8; 8]> = (0..addrs.len()).map(|i| [i as u8 + 1; 8]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
        let fault = FaultInjectingBackend::new(
            MemoryBackend::new(D),
            FaultPlan::none().with_transient(1, 1),
        );
        let mut be = RetryingBackend::new(ChecksumBackend::new(fault, 8), RetryPolicy::new(3));
        assert!(be.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));
        assert_eq!(be.take_retried_blocks(), 1, "only the failed track went down again");
        assert_eq!(be.fault_op_counts().unwrap(), vec![3, 4, 3]);

        // A corrupt frame in the middle of a batch: its own slot carries
        // its own `(disk, track)`; every other track arrives intact.
        let check = &mut be.inner;
        let mut frame = vec![0u8; 8 + CRC_BYTES];
        check.inner.read_track(2, 1, &mut frame).unwrap();
        frame[3] ^= 0x10;
        check.inner.write_track(2, 1, &frame).unwrap();
        let mut blocks = vec![[0u8; 8]; addrs.len()];
        let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
        let outcomes = check.read_batch_each(&stripes, &addrs, &mut bufs);
        for (i, (outcome, addr)) in outcomes.iter().zip(&addrs).enumerate() {
            if *addr == (2, 1) {
                assert!(matches!(outcome, Err(DiskError::Corrupt { disk: 2, track: 1 })));
            } else {
                assert!(outcome.is_ok(), "{addr:?}: {outcome:?}");
                assert_eq!(blocks[i], payloads[i]);
            }
        }
    }

    #[test]
    fn sub_batch_keeps_every_track_in_its_stripe() {
        assert_eq!(sub_batch(&[1, 4, 4, 2], &[0, 1, 4, 9, 10]), [1, 2, 2]);
        assert_eq!(sub_batch(&[3, 3], &[4]), [1]);
        assert_eq!(sub_batch(&[3, 0, 2], &[0, 1, 2, 3, 4]), [3, 2]);
        assert!(sub_batch(&[2, 2], &[]).is_empty());
    }

    /// The reference: forwards single tracks only, so its stripes run as
    /// the trait's per-track loop over whatever stack it wraps.
    struct PerTrack<B: DiskBackend>(B);

    impl<B: DiskBackend> DiskBackend for PerTrack<B> {
        fn num_disks(&self) -> usize {
            self.0.num_disks()
        }
        fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
            self.0.read_track(disk, track, buf)
        }
        fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
            self.0.write_track(disk, track, data)
        }
        fn tracks_used(&self, disk: usize) -> usize {
            self.0.tracks_used(disk)
        }
        fn take_retried_blocks(&mut self) -> u64 {
            self.0.take_retried_blocks()
        }
        fn fault_op_counts(&self) -> Option<Vec<u64>> {
            self.0.fault_op_counts()
        }
    }

    /// Full and partial stripes written, overwritten and read back;
    /// returns everything a fault schedule could perturb.
    fn faulty_workload(mut be: impl DiskBackend) -> (Vec<u8>, u64, Vec<u64>) {
        const B: usize = 24;
        let d = be.num_disks();
        let payload = |disk: usize, track: usize, gen: usize| {
            let mut p = [0u8; B];
            p.iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = (disk * 31 + track * 7 + gen + i) as u8);
            p
        };
        for gen in 0..2 {
            for track in 0..12 {
                // Every third stripe leaves the highest drives idle.
                let width = if track % 3 == 2 { d - 1 } else { d };
                let blocks: Vec<[u8; B]> = (0..width).map(|k| payload(k, track, gen)).collect();
                let writes: Vec<(usize, usize, &[u8])> =
                    blocks.iter().enumerate().map(|(k, p)| (k, track, &p[..])).collect();
                be.write_stripe(&writes).expect("every track recovers within the budget");
            }
        }
        let mut bytes = Vec::new();
        for track in (0..12).rev() {
            let addrs: Vec<(usize, usize)> = (0..d).rev().map(|disk| (disk, track)).collect();
            let mut blocks = vec![[0u8; B]; d];
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            be.read_stripe(&addrs, &mut bufs).expect("every track recovers within the budget");
            bytes.extend(blocks.iter().flatten());
        }
        (bytes, be.take_retried_blocks(), be.fault_op_counts().expect("a fault layer is present"))
    }

    #[test]
    fn stripe_path_equals_the_per_track_reference_under_recoverable_faults() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        const D: usize = 3;
        let pid = std::process::id();
        let stack = |raw: Box<dyn DiskBackend>, plan: FaultPlan| {
            let fault = FaultInjectingBackend::new(raw, plan);
            RetryingBackend::new(ChecksumBackend::new(fault, 24), RetryPolicy::new(8))
        };
        for seed in [0xF16u64, 7, 0xBEEF] {
            // ~8 % of transfers faulted: transients, torn writes, bit flips.
            let plan = || FaultPlan::seeded(seed, D, 400, 80);
            let mem = || Box::new(MemoryBackend::new(D)) as Box<dyn DiskBackend>;

            let (plan_s, plan_r) = (plan(), plan());
            let (stats_s, stats_r) = (plan_s.stats(), plan_r.stats());
            let striped = faulty_workload(stack(mem(), plan_s));
            let reference = faulty_workload(PerTrack(stack(mem(), plan_r)));
            assert!(striped.1 > 0, "seed {seed:#x} must actually fire faults");
            assert_eq!(striped, reference, "memory, seed {seed:#x}");
            assert_eq!(stats_s.counts(), stats_r.counts(), "memory, seed {seed:#x}");

            for mode in [IoMode::Serial, IoMode::Parallel] {
                let dir = |tag: &str| {
                    std::env::temp_dir().join(format!("em-disk-ident-{tag}-{mode:?}-{seed}-{pid}"))
                };
                let file = |tag: &str| {
                    let be = FileBackend::create_with_mode(dir(tag), D, 24 + CRC_BYTES, mode);
                    Box::new(be.unwrap()) as Box<dyn DiskBackend>
                };
                let plan_f = plan();
                let stats_f = plan_f.stats();
                let on_file = faulty_workload(stack(file("s"), plan_f));
                assert_eq!(on_file, reference, "file {mode:?}, seed {seed:#x}");
                assert_eq!(stats_f.counts(), stats_r.counts(), "file {mode:?}, seed {seed:#x}");
                // Drive bytes: the stripe path and the reference leave the
                // same media behind, frame for frame.
                faulty_workload(PerTrack(stack(file("r"), plan())));
                for disk in 0..D {
                    let name = format!("disk-{disk}.bin");
                    let a = std::fs::read(dir("s").join(&name)).unwrap();
                    let b = std::fs::read(dir("r").join(&name)).unwrap();
                    assert_eq!(a, b, "drive {disk}, file {mode:?}, seed {seed:#x}");
                }
                std::fs::remove_dir_all(dir("s")).ok();
                std::fs::remove_dir_all(dir("r")).ok();
            }
        }
    }

    #[test]
    fn track_offsets_are_computed_in_64_bits() {
        assert_eq!(track_offset(0, 3, 4096).unwrap(), 12288);
        // 2^33 tracks of 2^20 bytes: past u32, well inside a file offset.
        assert_eq!(track_offset(0, 1 << 33, 1 << 20).unwrap(), 1u64 << 53);
        // The product fits u64 but not a signed file offset; then not u64.
        for track in [1usize << 43, usize::MAX] {
            match track_offset(2, track, 1 << 20) {
                Err(DiskError::OffsetOverflow { disk: 2, track: t }) => assert_eq!(t, track as u64),
                other => panic!("expected OffsetOverflow, got {other:?}"),
            }
        }
        // Through the backend it is a typed, permanent error in both modes.
        for mode in [IoMode::Serial, IoMode::Parallel] {
            let dir = std::env::temp_dir()
                .join(format!("em-disk-overflow-{mode:?}-{}", std::process::id()));
            let mut be = FileBackend::create_with_mode(&dir, 2, 1 << 20, mode).unwrap();
            let mut buf = vec![0u8; 1 << 20];
            let err = be.read_track(1, usize::MAX, &mut buf).unwrap_err();
            assert!(matches!(err, DiskError::OffsetOverflow { disk: 1, .. }), "{mode:?}: {err:?}");
            assert!(!err.is_transient());
            assert_eq!(be.tracks_used(1), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn retry_over_checksum_recovers_from_transient_read_corruption() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        // Stack exactly like the array composes it:
        // retry → checksum → fault → memory. A bit flip injected into a
        // checksummed read surfaces as Corrupt, and the retry re-reads the
        // clean media.
        let plan = FaultPlan::none().with_bit_flip(0, 1, 3, 0);
        let fault = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        let check = ChecksumBackend::new(fault, 16);
        let mut be = RetryingBackend::new(check, RetryPolicy::new(2));
        be.write_track(0, 0, &[9u8; 16]).unwrap(); // op 0
        let mut buf = [0u8; 16];
        be.read_track(0, 0, &mut buf).unwrap(); // op 1 flipped, retried clean
        assert_eq!(buf, [9u8; 16]);
        assert_eq!(be.take_retried_blocks(), 1);
    }

    #[test]
    fn serial_and_parallel_write_identical_files() {
        let pid = std::process::id();
        let dir_s = std::env::temp_dir().join(format!("em-disk-eq-s-{pid}"));
        let dir_p = std::env::temp_dir().join(format!("em-disk-eq-p-{pid}"));
        let mut serial = FileBackend::create_with_mode(&dir_s, 3, 16, IoMode::Serial).unwrap();
        let mut parallel = FileBackend::create_with_mode(&dir_p, 3, 16, IoMode::Parallel).unwrap();
        assert!(!serial.is_parallel());
        assert!(parallel.is_parallel());
        let writes: Vec<(usize, usize, Vec<u8>)> = (0..3)
            .flat_map(|d| (0..4).map(move |t| (d, t, vec![(d * 16 + t) as u8; 16])))
            .collect();
        for be in [&mut serial as &mut FileBackend, &mut parallel] {
            let stripe: Vec<(usize, usize, &[u8])> =
                writes.iter().map(|(d, t, v)| (*d, *t, v.as_slice())).collect();
            for chunk in stripe.chunks(3) {
                be.write_stripe(chunk).unwrap();
            }
            be.sync().unwrap();
        }
        for d in 0..3 {
            let a = std::fs::read(dir_s.join(format!("disk-{d}.bin"))).unwrap();
            let b = std::fs::read(dir_p.join(format!("disk-{d}.bin"))).unwrap();
            assert_eq!(a, b, "drive {d} bytes diverge between serial and parallel");
            assert_eq!(serial.tracks_used(d), parallel.tracks_used(d));
        }
        std::fs::remove_dir_all(&dir_s).ok();
        std::fs::remove_dir_all(&dir_p).ok();
    }
}
