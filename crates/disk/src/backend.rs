//! Storage backends: where track bytes actually live.
//!
//! The [`DiskArray`](crate::DiskArray) front-end is backend-agnostic. The
//! memory backend gives deterministic, allocation-cheap simulation for unit
//! tests and I/O-op counting experiments; the file backend performs real
//! positional file I/O (one file per simulated drive) on the calling
//! thread, one system call per run of adjacent tracks of a drive — so the
//! wall clock of the blocked access patterns can be observed, while the
//! model's `D`-way parallelism is what the array counts.

use crate::block::{crc32, CRC_BYTES};
use crate::{DiskError, DiskResult, EngineKind, IoMode, RetryPolicy};
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Raw track storage for an array of `D` drives.
///
/// Tracks that have never been written read back as zeros — the model's
/// disks are "formatted" at creation, matching the paper's preallocated
/// context and message regions.
///
/// A **batch** is a run of stripes handed over as one transfer, a stripe
/// being `≤ D` tracks, at most one per drive — the form a group's contexts
/// and routed messages arrive in, since standard consecutive format puts
/// them on consecutive tracks of every drive. The batch pair,
/// [`DiskBackend::read_batch_each`] and [`DiskBackend::write_batch_each`],
/// is the only way bytes move: it takes the tracks of all the stripes in
/// request order plus the length of each stripe, and reports **one outcome
/// per track**: every listed track is attempted, and the call returns only
/// after all of them have completed — callers never observe in-flight I/O,
/// and one track's failure never hides what happened to the others. Both
/// methods are required, so every layer has exactly one implementation per
/// direction. A stripe is the batch of one stripe, and a single track the
/// stripe of one track.
///
/// [`FileBackend`] moves each drive's whole share at once (one system call
/// per run of adjacent tracks), [`crate::RegionBackend`] takes the shared
/// media once per transfer, and [`ChecksumBackend`], [`RetryingBackend`]
/// and [`crate::FaultInjectingBackend`] do their per-track work around a
/// *single* inner batch call, so one transfer per drive at the bottom
/// survives the stack above it. Only [`crate::BlockCacheBackend`], which
/// looks up and fetches misses one stripe at a time, runs a batch stripe
/// by stripe.
///
/// [`DiskBackend::read_stripe`] / [`DiskBackend::write_stripe`] are the
/// merged view of a one-stripe batch — `Ok` when every track succeeded,
/// else the error of the first failing track in request order — and are
/// never overridden.
///
/// Every entry point blocks: it returns only after each listed transfer
/// has completed. Bytes never pass through a backend in buffers it made:
/// a read fills slices its caller lends, and a write reads slices of its
/// caller's memory, copying them (the file backend's staging buffer) or
/// consuming them (every other layer) before the call returns.
///
/// The trait carries transfers only. What a layer tallies on the side —
/// [`RetryingBackend`]'s re-issued tracks, a fault layer's per-drive
/// operation counters — it shares through a handle taken when the layer
/// is built, as [`crate::FaultPlan::stats`] shares its counters, so
/// nothing has to be forwarded through the layers above it.
pub trait DiskBackend: Send {
    /// Number of drives this backend was created with.
    fn num_disks(&self) -> usize;

    /// Read a batch of stripes: `addrs` lists the tracks of every stripe in
    /// request order, `stripes[i]` is the length of the `i`-th stripe (the
    /// lengths sum to `addrs.len()`), and `bufs[i]` receives `addrs[i]`
    /// (`(disk, track)`); the buffer of a failed track holds unspecified
    /// bytes. One outcome per track, in request order. The caller (the
    /// array front-end) has already validated the one-track-per-drive
    /// stripe rule; backends may execute the transfers in any order or in
    /// parallel, but must attempt and complete all of them before
    /// returning.
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes;

    /// Write a batch of stripes: `writes[i]` is `(disk, track, data)` with
    /// `data` one track long (same contract as
    /// [`DiskBackend::read_batch_each`]).
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes;

    /// Read one stripe as a batch of one, merged: every track was
    /// attempted; the first failing track's error (request order) is
    /// returned.
    fn read_stripe(&mut self, addrs: &[(usize, usize)], bufs: &mut [&mut [u8]]) -> DiskResult<()> {
        first_failure(self.read_batch_each(&[addrs.len()], addrs, bufs)).map(drop)
    }

    /// Write one stripe as a batch of one, merged (same rule as
    /// [`DiskBackend::read_stripe`]).
    fn write_stripe(&mut self, writes: &[(usize, usize, &[u8])]) -> DiskResult<()> {
        first_failure(self.write_batch_each(&[writes.len()], writes)).map(drop)
    }

    /// Highest track index written so far on `disk`, plus one (0 if never
    /// written). Used for disk-space accounting.
    fn tracks_used(&self, disk: usize) -> usize;

    /// Flush any buffered state to stable storage (no-op for memory).
    fn sync(&mut self) -> DiskResult<()> {
        Ok(())
    }
}

/// One outcome per track of a batch, in request order (see
/// [`DiskBackend::read_batch_each`]).
pub type TrackOutcomes = Vec<DiskResult<()>>;

/// The merged view of a transfer: every value, or the error of the first
/// failing track in request order — deterministic, because every outcome
/// was collected before this looks at any of them.
pub(crate) fn first_failure<T>(outcomes: Vec<DiskResult<T>>) -> DiskResult<Vec<T>> {
    outcomes.into_iter().collect()
}

/// Boxed backends forward every method to the inner backend, so decorator
/// layers can compose over `Box<dyn DiskBackend>`.
impl<B: DiskBackend + ?Sized> DiskBackend for Box<B> {
    fn num_disks(&self) -> usize {
        (**self).num_disks()
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
    fn tracks_used(&self, disk: usize) -> usize {
        (**self).tracks_used(disk)
    }
    fn sync(&mut self) -> DiskResult<()> {
        (**self).sync()
    }
}

/// In-memory backend: tracks are boxed byte buffers.
///
/// Always serial and deterministic — a memcpy cannot be usefully
/// overlapped, and the memory backend is the reference for seeded-trace
/// tests.
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

    /// Read one track into `buf` (whose length is the track's).
    pub(crate) fn read_track(
        &mut self,
        disk: usize,
        track: usize,
        buf: &mut [u8],
    ) -> DiskResult<()> {
        match self.disks[disk].get(track).and_then(Option::as_ref) {
            Some(data) => {
                debug_assert_eq!(data.len(), buf.len());
                buf.copy_from_slice(data);
            }
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Write one track from `data`.
    pub(crate) fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
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
}

impl DiskBackend for MemoryBackend {
    fn num_disks(&self) -> usize {
        self.disks.len()
    }

    /// A memcpy per track whatever the stripes are: one list of outcomes
    /// for the whole batch, not one per stripe.
    fn read_batch_each(
        &mut self,
        _stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        (addrs.iter().zip(bufs.iter_mut()))
            .map(|(&(disk, track), buf)| self.read_track(disk, track, buf))
            .collect()
    }

    fn write_batch_each(
        &mut self,
        _stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        writes.iter().map(|&(disk, track, data)| self.write_track(disk, track, data)).collect()
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

/// True when every byte of `bytes` is zero: the OR of each 64-byte chunk,
/// a chunk at a time, stopping at the first that is not zero. (A chunk's
/// OR compiles to a few wide loads; a byte-at-a-time test reads, and
/// branches on, every byte of a zero frame.)
fn is_zero(bytes: &[u8]) -> bool {
    let mut chunks = bytes.chunks_exact(64);
    chunks.all(|c| c.iter().fold(0, |acc, &b| acc | b) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

/// Store `payload ‖ crc32(payload)` in `frame`.
fn seal_frame(payload: &[u8], frame: &mut [u8]) {
    let (body, tail) = frame.split_at_mut(payload.len());
    body.copy_from_slice(payload);
    // A zero payload stores as the all-zero ("formatted") frame, so a
    // recovery rollback that re-zeroes a freshly allocated track leaves
    // the drive byte-identical to one that never wrote it.
    let crc = if is_zero(payload) { [0u8; CRC_BYTES] } else { crc32(payload).to_le_bytes() };
    tail.copy_from_slice(&crc);
}

/// Verify `frame` (read from `(disk, track)`) and copy its payload out.
fn open_frame(frame: &[u8], payload: &mut [u8], disk: usize, track: usize) -> DiskResult<()> {
    if is_zero(frame) {
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

/// A batch run one stripe at a time: `stripe(range)` transfers the tracks
/// at indices `range` of the batch — one of its stripes — and the outcomes
/// are concatenated in request order. For the cache, which looks up and
/// fetches misses stripe by stripe.
pub(crate) fn stripe_by_stripe(
    stripes: &[usize],
    mut stripe: impl FnMut(std::ops::Range<usize>) -> TrackOutcomes,
) -> TrackOutcomes {
    let mut at = 0;
    let mut each = stripes.iter().map(|&len| {
        at += len;
        stripe(at - len..at)
    });
    // The first stripe's outcomes become the batch's, so a batch of one
    // stripe costs what the stripe costs.
    let mut outcomes = each.next().unwrap_or_default();
    each.for_each(|outcomes_of| outcomes.extend(outcomes_of));
    outcomes
}

/// A [`DiskBackend`] decorator that re-issues transiently failing track
/// transfers under a bounded, deterministic [`RetryPolicy`].
///
/// Sits at the top of the backend stack (directly under the array
/// front-end) so a retried read passes checksum verification again and a
/// retried write re-frames the block. A transfer — a stripe, or a batch
/// of stripes — goes down whole; each further *round* re-issues only the
/// tracks that failed transiently, as one smaller batch in which every
/// track keeps its stripe, after one backoff delay, so across the stripes
/// of a batch a drive sees every first attempt before any retry. A track
/// that is still failing after `max_attempts` keeps its last error — by
/// then the transfer's other tracks have all been attempted too.
/// Per-track retries are tallied in a counter the array holds a handle
/// to and drains into
/// [`IoStats::retried_blocks`](crate::IoStats::retried_blocks); they are
/// never counted as parallel I/O operations.
pub struct RetryingBackend<B: DiskBackend> {
    inner: B,
    policy: RetryPolicy,
    retried: Arc<AtomicU64>,
}

impl<B: DiskBackend> RetryingBackend<B> {
    /// Wrap `inner` with `policy`.
    pub fn new(inner: B, policy: RetryPolicy) -> Self {
        RetryingBackend { inner, policy, retried: Arc::default() }
    }

    /// Handle to the count of track transfers re-issued so far; whoever
    /// drains it (`swap(0, ..)`) owns the tally from then on.
    pub(crate) fn retried(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.retried)
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
            self.retried.fetch_add(failed.len() as u64, Ordering::Relaxed);
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
        let mut first = self.inner.write_batch_each(stripes, writes);
        // A failed write of a track that the batch writes again later is
        // not re-issued, or its stale bytes would land last. It is `Ok`
        // once the track's last write lands, and keeps its error otherwise.
        let mut superseded = Vec::new();
        for i in 0..first.len() {
            if first[i].is_ok() {
                continue;
            }
            let (disk, track, _) = writes[i];
            let same_track = |&j: &usize| (writes[j].0, writes[j].1) == (disk, track);
            if let Some(last) = (i + 1..writes.len()).rev().find(same_track) {
                superseded.push((i, last, std::mem::replace(&mut first[i], Ok(()))));
            }
        }
        let mut outcomes = self.retry_failed(first, |inner, failed| {
            let writes: Vec<(usize, usize, &[u8])> = failed.iter().map(|&i| writes[i]).collect();
            inner.write_batch_each(&sub_batch(stripes, failed), &writes)
        });
        for (i, last, own) in superseded {
            if outcomes[last].is_err() {
                outcomes[i] = own;
            }
        }
        outcomes
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.inner.sync()
    }
}

/// Read `buf.len()` bytes — one track, or a run of adjacent ones — at
/// `offset`, zero-filling any part past EOF: never-written tracks read
/// back as zeros, matching the memory backend and the model's "formatted"
/// disks.
fn read_full_track(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_at(file, &mut buf[filled..], offset + filled as u64) {
            Ok(0) => break, // EOF: the rest was never written
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    buf[filled..].fill(0);
    Ok(())
}

/// Byte offset of `track` in a drive file of `block_bytes`-byte tracks,
/// computed in 64 bits. A track whose last byte would lie past the largest
/// file offset the OS can express (`i64::MAX`) is a typed error instead of
/// a wrapped multiplication.
fn track_offset(disk: usize, track: usize, block_bytes: usize) -> DiskResult<u64> {
    let (track, block_bytes) = (track as u64, block_bytes as u64);
    track
        .checked_mul(block_bytes)
        .filter(|offset| offset.checked_add(block_bytes).is_some_and(|end| end <= i64::MAX as u64))
        .ok_or(DiskError::OffsetOverflow { disk, track })
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, data: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(data, offset)
}

#[cfg(not(unix))]
fn read_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<usize> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "FileBackend requires a unix platform"))
}

#[cfg(not(unix))]
fn write_at(_file: &File, _data: &[u8], _offset: u64) -> io::Result<()> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "FileBackend requires a unix platform"))
}

/// Move one drive's share of a batch: `tracks` in request order, their
/// bytes laid track after track in one buffer. Every maximal run of tracks
/// that are adjacent on the drive is one call of `io(bytes, offset)` — the
/// run's byte range in that buffer and its offset in the drive file. A run
/// whose call fails is redone track by track, so a sound track never
/// inherits a neighbour's error. Returns the tracks that failed, by
/// position in `tracks`, each with its own error.
fn transfer_runs(
    disk: usize,
    tracks: &[usize],
    block_bytes: usize,
    mut io: impl FnMut(Range<usize>, u64) -> io::Result<()>,
) -> Vec<(usize, DiskError)> {
    let mut attempt = |first: usize, len: usize| -> DiskResult<()> {
        let offset = track_offset(disk, tracks[first], block_bytes)?;
        track_offset(disk, tracks[first + len - 1], block_bytes)?;
        io(first * block_bytes..(first + len) * block_bytes, offset)
            .map_err(|source| DiskError::WorkerIo { disk, source })
    };
    let mut failed = Vec::new();
    let mut first = 0;
    while first < tracks.len() {
        let mut len = 1;
        while first + len < tracks.len()
            && tracks[first + len - 1].checked_add(1) == Some(tracks[first + len])
        {
            len += 1;
        }
        match attempt(first, len) {
            Ok(()) => {}
            Err(error) if len == 1 => failed.push((first, error)),
            Err(_) => failed.extend(
                (first..first + len).filter_map(|i| attempt(i, 1).err().map(|error| (i, error))),
            ),
        }
        first += len;
    }
    failed
}

/// The request indices `0..n` of a batch cut into drive shares, each the
/// indices `disk_of` maps to one drive. The grouping is a stable sort, so
/// every share keeps request order.
fn drive_shares(n: usize, disk_of: impl Fn(usize) -> usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| disk_of(i));
    order.chunk_by(|&i, &j| disk_of(i) == disk_of(j)).map(<[usize]>::to_vec).collect()
}

/// The check [`crate::DiskConfig::new`] makes, for the backend's own
/// constructors: a track holds at least one byte.
fn check_block_bytes(block_bytes: usize) -> DiskResult<()> {
    if block_bytes == 0 {
        return Err(DiskError::InvalidConfig("block_bytes must be >= 1"));
    }
    Ok(())
}

/// File-backed backend: one file per drive, positional I/O at
/// `track * block_bytes` offsets, on the calling thread.
///
/// A batch moves drive by drive: each drive's share, in request order,
/// goes through one staging buffer, and every run of its tracks that are
/// adjacent on the drive (`t, t + 1, …` — what standard consecutive format
/// gives a group's contexts and routed messages) is one `pread`/`pwrite`.
/// A run that fails is redone track by track, so only the tracks that
/// really fail report an error, and every OS error of a transfer or a
/// flush is [`DiskError::WorkerIo`] tagged with its drive, whatever `D`
/// is. The
/// counted [`crate::IoStats`] — one parallel operation per stripe — are the
/// array's and do not depend on how the bytes move.
pub struct FileBackend {
    files: Vec<File>,
    paths: Vec<PathBuf>,
    block_bytes: usize,
    tracks_used: Vec<usize>,
    /// One drive's share of a batch, track after track; grown to the
    /// largest share seen and reused.
    stage: Vec<u8>,
}

impl FileBackend {
    /// Create (or truncate) `num_disks` drive files named `disk-<i>.bin`
    /// inside `dir`.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
    ) -> DiskResult<Self> {
        check_block_bytes(block_bytes)?;
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
        Ok(Self::from_files(files, paths, block_bytes, vec![0; num_disks]))
    }

    /// [`FileBackend::create`]. [`IoMode`] and [`EngineKind`] have one
    /// value each and there is no worker to pin, so `_mode`, `_engine` and
    /// `_pin_workers` select nothing: the arguments are kept because the
    /// benchmark passes them.
    pub fn create_with_opts<P: AsRef<Path>>(
        dir: P,
        num_disks: usize,
        block_bytes: usize,
        _mode: IoMode,
        _engine: EngineKind,
        _pin_workers: bool,
    ) -> DiskResult<Self> {
        Self::create(dir, num_disks, block_bytes)
    }

    /// Reopen `num_disks` existing drive files inside `dir` **without
    /// truncating them** — the reattachment half of crash recovery: a
    /// resumed process opens the drive files a killed one left behind.
    /// Every `disk-<i>.bin` must already exist (a missing drive file
    /// surfaces as the underlying `NotFound` I/O error); `tracks_used` is
    /// reconstructed from each file's length.
    pub fn open<P: AsRef<Path>>(dir: P, num_disks: usize, block_bytes: usize) -> DiskResult<Self> {
        check_block_bytes(block_bytes)?;
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
        Ok(Self::from_files(files, paths, block_bytes, tracks_used))
    }

    /// The one constructor: `create`, `open` and the tests' arrays of
    /// read-only files all end here.
    fn from_files(
        files: Vec<File>,
        paths: Vec<PathBuf>,
        block_bytes: usize,
        tracks_used: Vec<usize>,
    ) -> Self {
        FileBackend { files, paths, block_bytes, tracks_used, stage: Vec::new() }
    }

    /// Paths of the backing files (for inspection in examples/tests).
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }
}

impl DiskBackend for FileBackend {
    fn num_disks(&self) -> usize {
        self.files.len()
    }

    /// A batch is one list of tracks wherever its stripes end: each drive's
    /// share is read into the staging buffer, then every track that
    /// arrived is copied to its caller's buffer.
    fn read_batch_each(
        &mut self,
        _stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let FileBackend { files, block_bytes, stage, .. } = self;
        let b = *block_bytes;
        let mut outcomes: TrackOutcomes = addrs.iter().map(|_| Ok(())).collect();
        for share in drive_shares(addrs.len(), |i| addrs[i].0) {
            let disk = addrs[share[0]].0;
            let tracks: Vec<usize> = share.iter().map(|&i| addrs[i].1).collect();
            stage.resize(share.len() * b, 0);
            let failed = transfer_runs(disk, &tracks, b, |run, offset| {
                read_full_track(&files[disk], &mut stage[run], offset)
            });
            for (at, error) in failed {
                outcomes[share[at]] = Err(error);
            }
            for (&i, track) in share.iter().zip(stage.chunks_exact(b)) {
                if outcomes[i].is_ok() {
                    bufs[i].copy_from_slice(track);
                }
            }
        }
        outcomes
    }

    /// Each drive's share is copied into the staging buffer and written
    /// from there.
    fn write_batch_each(
        &mut self,
        _stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let FileBackend { files, block_bytes, tracks_used, stage, .. } = self;
        let b = *block_bytes;
        let mut outcomes: TrackOutcomes = writes.iter().map(|_| Ok(())).collect();
        for share in drive_shares(writes.len(), |i| writes[i].0) {
            let disk = writes[share[0]].0;
            let tracks: Vec<usize> = share.iter().map(|&i| writes[i].1).collect();
            stage.clear();
            for &i in &share {
                debug_assert_eq!(writes[i].2.len(), b);
                stage.extend_from_slice(writes[i].2);
            }
            let failed = transfer_runs(disk, &tracks, b, |run, offset| {
                write_at(&files[disk], &stage[run], offset)
            });
            for (at, error) in failed {
                outcomes[share[at]] = Err(error);
            }
        }
        for (&(disk, track, _), outcome) in writes.iter().zip(&outcomes) {
            if outcome.is_ok() {
                tracks_used[disk] = tracks_used[disk].max(track + 1);
            }
        }
        outcomes
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.tracks_used[disk]
    }

    /// Flush every drive; the lowest failing drive's error is reported.
    fn sync(&mut self) -> DiskResult<()> {
        let synced: TrackOutcomes = (self.files.iter().enumerate())
            .map(|(disk, file)| {
                file.sync_data().map_err(|source| DiskError::WorkerIo { disk, source })
            })
            .collect();
        first_failure(synced).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_unwritten_tracks_read_zero() {
        let mut be = MemoryBackend::new(2);
        let mut buf = [0xAAu8; 16];
        be.read_stripe(&[(1, 5)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn memory_round_trip() {
        let mut be = MemoryBackend::new(1);
        be.write_stripe(&[(0, 3, &[7u8; 8])]).unwrap();
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 3)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [7u8; 8]);
        assert_eq!(be.tracks_used(0), 4);
        // A rewrite replaces the bytes, whether or not the length is the
        // one the track holds.
        be.write_stripe(&[(0, 3, &[9u8; 8])]).unwrap();
        be.read_stripe(&[(0, 3)], &mut [&mut buf]).unwrap();
        assert_eq!((buf, be.resident_bytes()), ([9u8; 8], 8));
        be.write_stripe(&[(0, 3, &[5u8; 12])]).unwrap();
        let mut wider = [0u8; 12];
        be.read_stripe(&[(0, 3)], &mut [&mut wider]).unwrap();
        assert_eq!((wider, be.resident_bytes(), be.tracks_used(0)), ([5u8; 12], 12, 4));
    }

    fn file_round_trip(num_disks: usize, tag: &str) {
        let dir = std::env::temp_dir().join(format!("em-disk-test-{tag}-{}", std::process::id()));
        let mut be = FileBackend::create(&dir, num_disks, 32).unwrap();
        be.write_stripe(&[(0, 2, &[9u8; 32])]).unwrap();
        let mut buf = [0u8; 32];
        be.read_stripe(&[(0, 2)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 32]);
        // Unwritten track (including holes before a written one) is zeros.
        be.read_stripe(&[(0, 1)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 32]);
        let last = num_disks - 1;
        be.read_stripe(&[(last, 99)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(be.tracks_used(0), 3);
        assert_eq!(be.tracks_used(last), if last == 0 { 3 } else { 0 });
        be.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_round_trip_one_drive() {
        file_round_trip(1, "one");
    }

    #[test]
    fn file_backend_round_trip_parallel() {
        file_round_trip(2, "parallel");
    }

    #[test]
    fn open_reattaches_existing_drive_files() {
        let dir = std::env::temp_dir().join(format!("em-disk-reopen-{}", std::process::id()));
        {
            let mut be = FileBackend::create(&dir, 2, 32).unwrap();
            be.write_stripe(&[(0, 4, &[7u8; 32])]).unwrap();
            be.write_stripe(&[(1, 1, &[8u8; 32])]).unwrap();
            be.sync().unwrap();
        }
        let mut be = FileBackend::open(&dir, 2, 32).unwrap();
        assert_eq!(be.tracks_used(0), 5, "space accounting rebuilt from file length");
        assert_eq!(be.tracks_used(1), 2);
        let mut buf = [0u8; 32];
        be.read_stripe(&[(0, 4)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [7u8; 32], "reopen must not truncate");
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 32]);
        // Zero-byte tracks are refused by both constructors, as
        // `DiskConfig::new` refuses them, and create makes no file first.
        assert!(matches!(FileBackend::open(&dir, 2, 0), Err(DiskError::InvalidConfig(_))));
        let empty = dir.join("zero");
        assert!(matches!(FileBackend::create(&empty, 2, 0), Err(DiskError::InvalidConfig(_))));
        assert!(!empty.exists());
        // Opening a missing array is an error, unlike create.
        drop(be);
        std::fs::remove_dir_all(&dir).ok();
        assert!(FileBackend::open(&dir, 2, 32).is_err());
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
    fn the_zero_test_agrees_with_the_bytewise_one() {
        // Every length up to two frames (4 104 bytes), all zero and with one
        // non-zero byte first or last; and one non-zero byte at every
        // position — the first chunk, a later one, the last full chunk or
        // the remainder after it — at every length up to three chunks and
        // at the lengths around a payload, a frame and two of each. (Every
        // position at every length is 2·10¹⁰ byte reads.)
        let mut buf = vec![0u8; 4104];
        let agrees = |bytes: &[u8]| is_zero(bytes) == bytes.iter().all(|&b| b == 0);
        let swept = |len: usize| len <= 192 || [2047, 2048, 2052, 4095, 4096, 4104].contains(&len);
        for len in 0..=buf.len() {
            assert!(is_zero(&buf[..len]), "len {len}");
            let positions: Vec<usize> =
                if swept(len) { (0..len).collect() } else { vec![0, len - 1] };
            for pos in positions {
                buf[pos] = 1 << (pos % 8);
                assert!(agrees(&buf[..len]), "len {len}, byte {pos}");
                buf[pos] = 0;
            }
        }
    }

    #[test]
    fn checksum_backend_round_trips_and_detects_corruption() {
        let mut be = ChecksumBackend::new(MemoryBackend::new(1), 16);
        // Never-written tracks still read back as zeros.
        let mut buf = [0xAAu8; 16];
        be.read_stripe(&[(0, 3)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 16]);
        be.write_stripe(&[(0, 0, &[5u8; 16])]).unwrap();
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [5u8; 16]);
        // A zero payload is a valid written block, distinct from formatted.
        be.write_stripe(&[(0, 1, &[0u8; 16])]).unwrap();
        be.read_stripe(&[(0, 1)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 16]);
        // Corrupt the stored frame behind the checksum layer's back.
        let mut frame = vec![0u8; 16 + CRC_BYTES];
        be.inner.read_stripe(&[(0, 0)], &mut [&mut frame]).unwrap();
        frame[7] ^= 0x01;
        be.inner.write_stripe(&[(0, 0, &frame)]).unwrap();
        let err = be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap_err();
        assert!(matches!(err, DiskError::Corrupt { disk: 0, track: 0 }));
        assert!(err.is_transient());
    }

    /// Frames mangled behind the checksum layer's back: 200 seeded cases
    /// each write three tracks (two drives, two stripes) through a
    /// [`ChecksumBackend`] over memory or over drive files, then change
    /// one stored frame — a bit flip in its payload or in its CRC tail, a
    /// zeroed prefix, suffix or whole frame, or a zero payload under the
    /// CRC tail it had — or write an all-zero payload, and read all three
    /// back as one batch. The changed track reads its exact payload if
    /// the frame is unchanged, the zero block if the frame is all zero and
    /// [`DiskError::Corrupt`] naming it otherwise; the other two read
    /// their exact payloads. None panics; a failing case prints its seed.
    #[test]
    fn mangled_frames_read_exactly_as_zero_or_corrupt() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        struct Seed(u64);
        impl Drop for Seed {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("failing case: StdRng::seed_from_u64({:#x})", self.0);
                }
            }
        }
        fn mangle<B: DiskBackend>(be: &mut ChecksumBackend<B>, rng: &mut StdRng) -> usize {
            let payload = be.payload_bytes;
            let addrs = [(0, 1), (1, 1), (0, 2)];
            let kind = rng.gen_range(0..7usize);
            let at = rng.gen_range(0..addrs.len());
            let mut payloads: Vec<Vec<u8>> = (0..addrs.len())
                .map(|_| (0..payload).map(|_| rng.next_u32() as u8 | 1).collect())
                .collect();
            if kind == 5 {
                payloads[at].fill(0);
            }
            let writes: Vec<(usize, usize, &[u8])> =
                addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, p.as_slice())).collect();
            assert!(be.write_batch_each(&[2, 1], &writes).iter().all(Result::is_ok));
            let (disk, track) = addrs[at];
            let mut frame = vec![0u8; payload + CRC_BYTES];
            be.inner.read_stripe(&[(disk, track)], &mut [&mut frame]).unwrap();
            let stored = frame.clone();
            match kind {
                0 => frame[rng.gen_range(0..payload)] ^= 1 << rng.gen_range(0..8u32),
                1 => frame[payload + rng.gen_range(0..CRC_BYTES)] ^= 1 << rng.gen_range(0..8u32),
                2 => frame[..rng.gen_range(1..=payload + CRC_BYTES)].fill(0),
                3 => frame[rng.gen_range(0..payload + CRC_BYTES)..].fill(0),
                4 => frame.fill(0),
                5 => {}
                _ => frame[..payload].fill(0),
            }
            be.inner.write_stripe(&[(disk, track, &frame)]).unwrap();
            let mut bufs = vec![vec![0xEEu8; payload]; addrs.len()];
            let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            let outcomes = be.read_batch_each(&[2, 1], &addrs, &mut views);
            for (i, (outcome, buf)) in outcomes.iter().zip(&bufs).enumerate() {
                let what = format!("mutation {kind}, track {i} of 3 (changed: {at})");
                if i != at || frame == stored {
                    assert!(outcome.is_ok() && *buf == payloads[i], "{what}: {outcome:?}");
                } else if frame.iter().all(|&b| b == 0) {
                    assert!(outcome.is_ok() && buf.iter().all(|&b| b == 0), "{what}: {outcome:?}");
                } else {
                    let corrupt = matches!(outcome, Err(DiskError::Corrupt { disk: d, track: t })
                        if (*d, *t) == (disk, track));
                    assert!(corrupt, "{what}: {outcome:?}");
                }
            }
            kind
        }
        // Cases per mutation, on memory and on drive files.
        let mut drawn = [[0usize; 7]; 2];
        let dir = std::env::temp_dir().join(format!("em-disk-frames-{}", std::process::id()));
        for case in 0..200 {
            let seed = Seed(0xF4A3E ^ case);
            let rng = &mut StdRng::seed_from_u64(seed.0);
            // Payloads from a few bytes, all in the remainder of the zero
            // test, to a frame of the simulators' 2 KiB blocks and past it.
            let payload = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(1..130usize),
                1 => 2048,
                _ => rng.gen_range(1..4200usize),
            };
            let on_file = rng.next_u32() & 1 == 1;
            let kind = if on_file {
                let file = FileBackend::create(&dir, 2, payload + CRC_BYTES).unwrap();
                mangle(&mut ChecksumBackend::new(file, payload), rng)
            } else {
                mangle(&mut ChecksumBackend::new(MemoryBackend::new(2), payload), rng)
            };
            drawn[on_file as usize][kind] += 1;
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(drawn.iter().flatten().all(|&n| n > 0), "{drawn:?}");
    }

    #[test]
    fn retrying_backend_absorbs_transients_and_counts_them() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        // Two stacked transients on drive 0's ops 1 and 2: a 3-attempt
        // policy retries through both.
        let plan = FaultPlan::none().with_transient(0, 1).with_transient(0, 2);
        let inner = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        let mut be = RetryingBackend::new(inner, RetryPolicy::new(3));
        let retried = be.retried();
        be.write_stripe(&[(0, 0, &[1u8; 8])]).unwrap(); // op 0 clean
        be.write_stripe(&[(0, 4, &[2u8; 8])]).unwrap(); // ops 1,2 fail, op 3 lands
        assert_eq!(retried.swap(0, Ordering::Relaxed), 2);
        assert_eq!(be.retried().load(Ordering::Relaxed), 0, "every handle sees the drain");
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 4)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    /// Two writes of one track in one batch, the earlier failing once:
    /// the retry must not re-issue it over the later write's bytes.
    #[test]
    fn a_retried_batch_leaves_a_twice_written_track_with_its_last_bytes() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        let plan = FaultPlan::none().with_transient(0, 0);
        let inner = FaultInjectingBackend::new(MemoryBackend::new(2), plan);
        let mut be = RetryingBackend::new(inner, RetryPolicy::new(3));
        let writes: [(usize, usize, &[u8]); 3] =
            [(0, 5, &[1u8; 8]), (1, 5, &[2u8; 8]), (0, 5, &[3u8; 8])];
        let outcomes = be.write_batch_each(&[2, 1], &writes);
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        assert_eq!(be.retried().load(Ordering::Relaxed), 0, "nothing to re-issue");
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 5)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [3u8; 8], "the later write's bytes stay");
    }

    #[test]
    fn retrying_backend_gives_up_past_its_budget() {
        use crate::fault::{FaultInjectingBackend, FaultPlan};
        let plan = FaultPlan::none().with_transient(0, 0).with_transient(0, 1).with_transient(0, 2);
        let inner = FaultInjectingBackend::new(MemoryBackend::new(1), plan);
        let mut be = RetryingBackend::new(inner, RetryPolicy::new(3));
        let err = be.write_stripe(&[(0, 0, &[1u8; 8])]).unwrap_err();
        assert!(err.is_transient(), "the final transient error is surfaced");
        assert_eq!(be.retried().load(Ordering::Relaxed), 2);
        // The next write succeeds: the schedule was consumed.
        be.write_stripe(&[(0, 0, &[3u8; 8])]).unwrap();
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
            let ops = fault.ops();
            (RetryingBackend::new(ChecksumBackend::new(fault, 8), RetryPolicy::new(3)), ops)
        };
        let plan = burst();
        let stats = plan.stats();
        let (mut be, ops) = stack(plan);
        let payload = [5u8; 8];
        // Request order puts drive 2 ahead of drive 1.
        let writes: Vec<(usize, usize, &[u8])> =
            [0, 2, 1, 3].iter().map(|&d| (d, 0, &payload[..])).collect();

        let outcomes = be.write_batch_each(&[writes.len()], &writes);
        assert!(outcomes[0].is_ok() && outcomes[3].is_ok());
        for (slot, disk) in [(1, 2), (2, 1)] {
            match &outcomes[slot] {
                Err(DiskError::WorkerIo { disk: d, .. }) => assert_eq!(*d, disk),
                other => panic!("slot {slot}: expected drive {disk}'s transient, got {other:?}"),
            }
        }
        // Every track was attempted; only the failing ones were re-issued.
        assert_eq!(ops.counts(), vec![1, 3, 3, 1]);
        assert_eq!(be.retried().load(Ordering::Relaxed), 4);
        assert_eq!(stats.counts().transient, 6);
        let mut buf = [0u8; 8];
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, payload, "the stripe's healthy tracks landed");

        // The merged form reports the first failing track in request order.
        let (mut be, _) = stack(burst());
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
        let ops = fault.ops();
        let mut be = RetryingBackend::new(ChecksumBackend::new(fault, 8), RetryPolicy::new(3));
        assert!(be.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));
        let retried = be.retried().load(Ordering::Relaxed);
        assert_eq!(retried, 1, "only the failed track went down again");
        assert_eq!(ops.counts(), vec![3, 4, 3]);

        // A corrupt frame in the middle of a batch: its own slot carries
        // its own `(disk, track)`; every other track arrives intact.
        let check = &mut be.inner;
        let mut frame = vec![0u8; 8 + CRC_BYTES];
        check.inner.read_stripe(&[(2, 1)], &mut [&mut frame]).unwrap();
        frame[3] ^= 0x10;
        check.inner.write_stripe(&[(2, 1, &frame)]).unwrap();
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

    /// The reference: hands its inner backend one-track batches only, so
    /// every stripe runs as a per-track loop over whatever stack it wraps.
    struct PerTrack<B: DiskBackend>(B);

    impl<B: DiskBackend> DiskBackend for PerTrack<B> {
        fn num_disks(&self) -> usize {
            self.0.num_disks()
        }
        fn read_batch_each(
            &mut self,
            _stripes: &[usize],
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> TrackOutcomes {
            (addrs.iter().zip(bufs.iter_mut()))
                .flat_map(|(addr, buf)| self.0.read_batch_each(&[1], &[*addr], &mut [&mut **buf]))
                .collect()
        }
        fn write_batch_each(
            &mut self,
            _stripes: &[usize],
            writes: &[(usize, usize, &[u8])],
        ) -> TrackOutcomes {
            writes.iter().flat_map(|write| self.0.write_batch_each(&[1], &[*write])).collect()
        }
        fn tracks_used(&self, disk: usize) -> usize {
            self.0.tracks_used(disk)
        }
    }

    /// `Retrying(Checksum(FaultInjecting(raw)))`, with the handles to the
    /// retry tally and the fault layer's counters.
    fn stack(
        raw: Box<dyn DiskBackend>,
        plan: crate::FaultPlan,
    ) -> (impl DiskBackend, Arc<AtomicU64>, crate::fault::FaultOps) {
        let fault = crate::FaultInjectingBackend::new(raw, plan);
        let ops = fault.ops();
        let be = RetryingBackend::new(ChecksumBackend::new(fault, 24), RetryPolicy::new(8));
        let retried = be.retried();
        (be, retried, ops)
    }

    /// Full and partial stripes written, overwritten and read back through
    /// `be`, a [`stack`] (or a wrapper of one); returns everything a
    /// fault schedule could perturb.
    fn faulty_workload(
        (mut be, retried, ops): (impl DiskBackend, Arc<AtomicU64>, crate::fault::FaultOps),
    ) -> (Vec<u8>, u64, Vec<u64>) {
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
        (bytes, retried.load(Ordering::Relaxed), ops.counts())
    }

    /// The reference is the per-track loop over each raw input: memory,
    /// a tenant's region of shared media (the stack of a service job with
    /// a fault plan) and drive files, one drive and three.
    #[test]
    fn stripe_path_equals_the_per_track_reference_under_recoverable_faults() {
        use crate::fault::FaultPlan;
        use crate::SharedDiskSubstrate;
        let pid = std::process::id();
        let per_track = |(be, retried, ops)| (PerTrack(be), retried, ops);
        for (d, seed) in [1, 3].into_iter().flat_map(|d| [0xF16u64, 7, 0xBEEF].map(|s| (d, s))) {
            let what = |raw: &str| format!("{raw}, {d} drives, seed {seed:#x}");
            // ~8 % of transfers faulted: transients, torn writes, bit flips.
            let plan = || FaultPlan::seeded(seed, d, 400, 80);
            let mem = || Box::new(MemoryBackend::new(d)) as Box<dyn DiskBackend>;

            let (plan_s, plan_r) = (plan(), plan());
            let (stats_s, stats_r) = (plan_s.stats(), plan_r.stats());
            let striped = faulty_workload(stack(mem(), plan_s));
            let reference = faulty_workload(per_track(stack(mem(), plan_r)));
            assert!(striped.1 > 0, "{} must actually fire faults", what("memory"));
            assert_eq!(striped, reference, "{}", what("memory"));
            assert_eq!(stats_s.counts(), stats_r.counts(), "{}", what("memory"));

            let shared = SharedDiskSubstrate::new(d, 64);
            let region = Box::new(shared.region(shared.reserve_region(16).unwrap(), 16));
            let plan_g = plan();
            let stats_g = plan_g.stats();
            assert_eq!(faulty_workload(stack(region, plan_g)), reference, "{}", what("region"));
            assert_eq!(stats_g.counts(), stats_r.counts(), "{}", what("region"));

            let dir = |tag: &str| {
                std::env::temp_dir().join(format!("em-disk-ident-{tag}-{d}-{seed}-{pid}"))
            };
            let file = |tag: &str| {
                let be = FileBackend::create(dir(tag), d, 24 + CRC_BYTES);
                Box::new(be.unwrap()) as Box<dyn DiskBackend>
            };
            let plan_f = plan();
            let stats_f = plan_f.stats();
            assert_eq!(faulty_workload(stack(file("s"), plan_f)), reference, "{}", what("file"));
            assert_eq!(stats_f.counts(), stats_r.counts(), "{}", what("file"));
            // Drive bytes: the stripe path and the reference leave the
            // same media behind, frame for frame.
            faulty_workload(per_track(stack(file("r"), plan())));
            for disk in 0..d {
                let name = format!("disk-{disk}.bin");
                let a = std::fs::read(dir("s").join(&name)).unwrap();
                let b = std::fs::read(dir("r").join(&name)).unwrap();
                assert_eq!(a, b, "drive {disk}, {}", what("file"));
            }
            std::fs::remove_dir_all(dir("s")).ok();
            std::fs::remove_dir_all(dir("r")).ok();
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
        // Through the backend it is a typed, permanent error, with one
        // drive and with two.
        for d in [1, 2] {
            let dir =
                std::env::temp_dir().join(format!("em-disk-overflow-{d}-{}", std::process::id()));
            let mut be = FileBackend::create(&dir, d, 1 << 20).unwrap();
            let mut buf = vec![0u8; 1 << 20];
            let last = d - 1;
            let err = be.read_stripe(&[(last, usize::MAX)], &mut [&mut buf]).unwrap_err();
            assert!(
                matches!(err, DiskError::OffsetOverflow { disk, .. } if disk == last),
                "{err:?}"
            );
            assert!(!err.is_transient());
            assert_eq!(be.tracks_used(last), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn adjacent_tracks_of_a_drive_are_one_transfer() {
        // (byte range in the command's buffer, file offset) of every call,
        // and the positions that failed.
        let shape = |tracks: &[usize], fail: &[u64]| {
            let mut calls = Vec::new();
            let failed = transfer_runs(3, tracks, 10, |bytes, offset| {
                calls.push((bytes, offset));
                if fail.contains(&offset) {
                    Err(io::Error::other("injected"))
                } else {
                    Ok(())
                }
            });
            (calls, failed)
        };
        // A consecutive-format share: one call, however many tracks.
        let (calls, failed) = shape(&[5, 6, 7, 8], &[]);
        assert_eq!(calls, [(0..40, 50)]);
        assert!(failed.is_empty());
        // Runs break where adjacency does — a gap, a step back, a repeat.
        let (calls, _) = shape(&[5, 6, 9, 10, 3, 3], &[]);
        assert_eq!(calls, [(0..20, 50), (20..40, 90), (40..50, 30), (50..60, 30)]);
        // A failed run is redone track by track: the sound tracks land and
        // the failing one keeps its own error.
        let (calls, failed) = shape(&[1, 2, 3], &[10]);
        assert_eq!(calls, [(0..30, 10), (0..10, 10), (10..20, 20), (20..30, 30)]);
        assert!(matches!(failed[..], [(0, DiskError::WorkerIo { disk: 3, .. })]));
        // An unaddressable track is its own typed error, not its run's.
        let (calls, failed) = shape(&[7, usize::MAX - 1, usize::MAX], &[]);
        assert_eq!(calls, [(0..10, 70)]);
        assert!(matches!(
            failed[..],
            [(1, DiskError::OffsetOverflow { .. }), (2, DiskError::OffsetOverflow { .. })]
        ));
    }

    #[test]
    fn a_batch_is_one_share_per_drive_in_request_order() {
        // Interleaved drives: each drive's requests are gathered into one
        // share, lowest drive first, and keep the order they were asked in.
        let drives = [1, 0, 1, 0, 2, 1];
        let shares = drive_shares(drives.len(), |i| drives[i]);
        assert_eq!(shares, [vec![1, 3], vec![0, 2, 5], vec![4]]);
        assert!(drive_shares(0, |_| 0).is_empty());
    }

    #[test]
    fn a_batch_reads_back_what_stripes_wrote() {
        const D: usize = 3;
        let dir = std::env::temp_dir().join(format!("em-disk-batch-{}", std::process::id()));
        let mut be = FileBackend::create(&dir, D, 8).unwrap();
        // Global blocks 2..16 of a round-robin layout: ragged first and
        // last stripes, five tracks on drive 2 and four on the others.
        let addrs: Vec<(usize, usize)> = (2..16).map(|g| (g % D, 4 + g / D)).collect();
        let payloads: Vec<[u8; 8]> = (2..16).map(|g| [g as u8; 8]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
        let stripes = [1, 3, 3, 3, 3, 1];
        assert_eq!(
            drive_shares(addrs.len(), |i| addrs[i].0).len(),
            D,
            "one share per drive, however many stripes"
        );
        assert!(be.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));

        // The same tracks stripe by stripe, then one batch that also
        // crosses never-written tracks before and past the end of file.
        for (addr, payload) in addrs.iter().zip(&payloads) {
            let mut buf = [0u8; 8];
            be.read_stripe(&[*addr], &mut [&mut buf[..]]).unwrap();
            assert_eq!(&buf, payload);
        }
        let wide: Vec<(usize, usize)> = (0..30).map(|g| (g % D, 4 + g / D)).collect();
        let mut tracks = vec![[0xEEu8; 8]; wide.len()];
        let mut bufs: Vec<&mut [u8]> = tracks.iter_mut().map(|t| &mut t[..]).collect();
        let outcomes = be.read_batch_each(&[D; 10], &wide, &mut bufs);
        assert!(outcomes.iter().all(Result::is_ok));
        for (g, track) in tracks.iter().enumerate() {
            let want = if (2..16).contains(&g) { g as u8 } else { 0 };
            assert_eq!(track, &[want; 8], "global block {g}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A backend over `n` read-only drive files, so every write really
    /// fails in the OS.
    fn read_only_backend(name: &str, n: usize) -> (PathBuf, FileBackend) {
        let dir = std::env::temp_dir().join(format!("em-disk-ro-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (files, paths): (Vec<File>, Vec<PathBuf>) = (0..n)
            .map(|i| {
                let path = dir.join(format!("disk-{i}.bin"));
                std::fs::write(&path, []).unwrap();
                (OpenOptions::new().read(true).open(&path).unwrap(), path)
            })
            .unzip();
        (dir, FileBackend::from_files(files, paths, 8, vec![0; n]))
    }

    #[test]
    fn a_failed_write_leaves_the_drive_serving() {
        let dir = std::env::temp_dir().join(format!("em-disk-serving-{}", std::process::id()));
        let mut be = FileBackend::create(&dir, 2, 8).unwrap();
        // Drive 1 fails the write of a track no file offset can reach, and
        // keeps serving: the sync and the next write go through.
        match be.write_stripe(&[(0, 0, &[6u8; 8]), (1, usize::MAX, &[7u8; 8])]) {
            Err(DiskError::OffsetOverflow { disk: 1, .. }) => {}
            other => panic!("expected drive 1's OffsetOverflow, got {other:?}"),
        }
        be.sync().unwrap();
        be.write_stripe(&[(1, 0, &[7u8; 8])]).unwrap();
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        be.read_stripe(&[(0, 0), (1, 0)], &mut [&mut a[..], &mut b[..]]).unwrap();
        assert_eq!((a, b), ([6u8; 8], [7u8; 8]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_drive_failure_reports_lowest_drive_deterministically() {
        for _ in 0..20 {
            let (dir, mut be) = read_only_backend("lowest", 4);
            let writes: Vec<(usize, usize, &[u8])> =
                (1..4).map(|d| (d, 0, &[0u8; 8][..])).collect();
            match be.write_stripe(&writes) {
                Err(DiskError::WorkerIo { disk: 1, .. }) => {}
                other => panic!("expected the lowest failing drive (1), got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_track_of_a_failed_batch_reports_its_own_drive() {
        let (dir, mut be) = read_only_backend("batch-fail", 2);
        // Two adjacent tracks per drive: the merged write fails, each track
        // is retried alone and fails under its own drive's name.
        let writes: Vec<(usize, usize, &[u8])> =
            [(1, 0), (0, 0), (1, 1), (0, 1)].iter().map(|&(d, t)| (d, t, &[0u8; 8][..])).collect();
        let outcomes = be.write_batch_each(&[2, 2], &writes);
        for (outcome, &(disk, _, _)) in outcomes.iter().zip(&writes) {
            assert!(matches!(outcome, Err(DiskError::WorkerIo { disk: d, .. }) if *d == disk));
        }
        assert_eq!((be.tracks_used(0), be.tracks_used(1)), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_one_drive_os_error_names_its_drive() {
        // The same failure has one shape whatever `D` is.
        let (dir, mut be) = read_only_backend("one", 1);
        match be.write_stripe(&[(0, 2, &[1u8; 8])]) {
            Err(DiskError::WorkerIo { disk: 0, .. }) => {}
            other => panic!("expected drive 0's WorkerIo, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
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
        be.write_stripe(&[(0, 0, &[9u8; 16])]).unwrap(); // op 0
        let mut buf = [0u8; 16];
        be.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap(); // op 1 flipped, retried clean
        assert_eq!(buf, [9u8; 16]);
        assert_eq!(be.retried().load(Ordering::Relaxed), 1);
    }
}
