//! A shared multi-tenant disk substrate: one physical store, many
//! disjoint track regions, one transfer on the media at a time.
//!
//! [`SharedDiskSubstrate`] owns `D` physical drives (an in-memory store in
//! this version) whose track space is carved into disjoint per-tenant
//! *regions*. Each region is exposed as a [`RegionBackend`] — an ordinary
//! [`DiskBackend`] whose track addresses are offset by the region base and
//! bounded by the region length — so every tenant builds its own private
//! [`crate::DiskArray`] (with its own decorator stack and counters) over
//! its slice of the shared media.
//!
//! Two properties make the substrate safe to meter:
//!
//! * **Isolation** — regions are disjoint by construction, and a transfer
//!   addressed past the region end fails with
//!   [`DiskError::CapacityExceeded`] before touching the store. A view
//!   reads a track it has not itself written as zeros, without touching
//!   the store — the model's formatted disk — so a recycled region shows
//!   nothing of the tenant that held it before. A tenant cannot read,
//!   write or even observe another tenant's tracks.
//! * **Counting above sharing** — each tenant's [`crate::IoStats`] are
//!   counted by the tenant's own `DiskArray` at submission time, *above*
//!   this layer. Co-tenancy can therefore delay a transfer (a wall-clock
//!   concern) but can never change what any tenant's counted parallel I/O
//!   looks like: it is bit-identical to the same run on a private array.
//!
//! Transfers are **mutually exclusive** on the media: a transfer — a
//! stripe, or a batch of stripes handed down as one — takes the media lock
//! once and holds it for the bound check and the memcpy of its tracks, so
//! a hold is bounded by one transfer (at most one group's sweep, `≤ M`
//! bytes). The order among tenants waiting for the lock is the OS mutex's
//! and is **not promised**. A strict hand-off arbiter is deliberately not
//! built: with holds this short it convoys — every stripe would pay a
//! futex park and a wake, which is why std's and parking_lot's mutexes
//! barge — and nothing metered depends on the order. What the substrate
//! does report is how often a transfer found the media taken
//! ([`SharedDiskSubstrate::contended`]).

use crate::backend::{DiskBackend, MemoryBackend, TrackOutcomes};
use crate::{DiskError, DiskResult};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Book-keeping guarded by the substrate mutex.
struct SharedState {
    /// The physical media. Memory-backed: per-track frames may have
    /// different lengths, so tenants with different checksum settings can
    /// coexist in disjoint regions.
    store: MemoryBackend,
    /// Next never-allocated track (regions grow from track 0 upward).
    frontier: usize,
    /// Released regions available for reuse, as `(base, len)` pairs.
    free: Vec<(usize, usize)>,
    /// Transfers (lock holds) served since creation.
    transfers: u64,
    /// Stripes those transfers carried: one slot per counted stripe.
    slots_granted: u64,
    /// Transfers that found the media lock taken and had to block.
    contended: u64,
}

struct SharedInner {
    num_disks: usize,
    tracks_per_disk: usize,
    state: Mutex<SharedState>,
}

impl SharedInner {
    /// Lock the shared state, ignoring poison (a tenant that panicked
    /// while holding the media lock must not wedge every other tenant —
    /// the store itself is only mutated through infallible memory writes).
    fn lock(&self) -> MutexGuard<'_, SharedState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Take the media for one transfer of `stripes` stripes, counting it —
    /// and counting it as contended when the lock was not free.
    fn lock_for_transfer(&self, stripes: usize) -> MutexGuard<'_, SharedState> {
        let mut st = match self.state.try_lock() {
            Ok(st) => st,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let mut st = self.lock();
                st.contended += 1;
                st
            }
        };
        st.transfers += 1;
        st.slots_granted += stripes as u64;
        st
    }
}

/// A shared disk array substrate serving many tenants at once.
///
/// Cloning the handle is cheap (it is an [`Arc`]); all clones refer to the
/// same physical store, region map and media lock.
///
/// ```
/// use em_disk::{DiskArray, DiskConfig, SharedDiskSubstrate};
///
/// let shared = SharedDiskSubstrate::new(4, 1024);
/// let cfg = DiskConfig::new(4, 64).unwrap();
///
/// // Two tenants, disjoint 128-track regions on the same media.
/// let a = shared.reserve_region(128).unwrap();
/// let b = shared.reserve_region(128).unwrap();
/// let mut arr_a = DiskArray::with_backend(cfg, Box::new(shared.region(a, 128)));
/// let mut arr_b = DiskArray::with_backend(cfg, Box::new(shared.region(b, 128)));
///
/// let stripe: Vec<_> = (0..4)
///     .map(|d| (d, 0usize, em_disk::Block::from_bytes_padded(&[d as u8], 64)))
///     .collect();
/// arr_a.write_stripe(&stripe).unwrap();
/// // Tenant B's track 0 is untouched: per-tenant counting and content
/// // are exactly as on a private array.
/// assert_eq!(arr_a.stats().parallel_ops, 1);
/// assert_eq!(arr_b.stats().parallel_ops, 0);
/// ```
#[derive(Clone)]
pub struct SharedDiskSubstrate {
    inner: Arc<SharedInner>,
}

impl SharedDiskSubstrate {
    /// A substrate of `num_disks` drives with `tracks_per_disk` tracks of
    /// reservable space on each.
    pub fn new(num_disks: usize, tracks_per_disk: usize) -> Self {
        SharedDiskSubstrate {
            inner: Arc::new(SharedInner {
                num_disks,
                tracks_per_disk,
                state: Mutex::new(SharedState {
                    store: MemoryBackend::new(num_disks),
                    frontier: 0,
                    free: Vec::new(),
                    transfers: 0,
                    slots_granted: 0,
                    contended: 0,
                }),
            }),
        }
    }

    /// `D` — the number of physical drives.
    pub fn num_disks(&self) -> usize {
        self.inner.num_disks
    }

    /// Total reservable tracks per drive.
    pub fn tracks_per_disk(&self) -> usize {
        self.inner.tracks_per_disk
    }

    /// Tracks per drive not currently reserved by any region.
    pub fn tracks_free(&self) -> usize {
        let st = self.inner.lock();
        self.inner.tracks_per_disk - st.frontier
            + st.free.iter().map(|&(_, len)| len).sum::<usize>()
    }

    /// Reserve a region of `tracks` tracks on every drive, returning its
    /// base track, or `None` when no contiguous region of that size is
    /// available. Released regions (see
    /// [`SharedDiskSubstrate::release_region`]) are reused first-fit
    /// before the frontier grows.
    pub fn reserve_region(&self, tracks: usize) -> Option<usize> {
        if tracks == 0 {
            return None;
        }
        let mut st = self.inner.lock();
        if let Some(pos) = st.free.iter().position(|&(_, len)| len >= tracks) {
            let (base, len) = st.free.remove(pos);
            if len > tracks {
                st.free.push((base + tracks, len - tracks));
            }
            return Some(base);
        }
        let base = st.frontier;
        st.frontier = base.checked_add(tracks).filter(|&end| end <= self.inner.tracks_per_disk)?;
        Some(base)
    }

    /// Return a previously reserved region to the free pool. The caller
    /// must no longer hold a [`RegionBackend`] over it. The tracks are not
    /// scrubbed and need not be: the next view over them reads every track
    /// it has not itself written as zeros.
    pub fn release_region(&self, base: usize, tracks: usize) {
        if tracks == 0 {
            return;
        }
        let mut st = self.inner.lock();
        // Coalesce with the frontier when possible so back-to-back
        // reserve/release cycles do not fragment the track space.
        if base + tracks == st.frontier {
            st.frontier = base;
            // Fold in any free blocks now adjacent to the new frontier.
            loop {
                let frontier = st.frontier;
                match st.free.iter().position(|&(b, len)| b + len == frontier) {
                    Some(pos) => {
                        let (b, _) = st.free.remove(pos);
                        st.frontier = b;
                    }
                    None => break,
                }
            }
        } else {
            st.free.push((base, tracks));
        }
    }

    /// A fresh [`DiskBackend`] view of the region `[base, base + tracks)`:
    /// every track reads as zeros until this view writes it. Track 0 of
    /// the view is physical track `base`; addresses at or past `tracks`
    /// fail with [`DiskError::CapacityExceeded`].
    pub fn region(&self, base: usize, tracks: usize) -> RegionBackend {
        RegionBackend {
            shared: self.inner.clone(),
            base,
            max_tracks: tracks,
            tracks_used: vec![0; self.inner.num_disks],
            written: vec![0; self.inner.num_disks * tracks.div_ceil(WORD_BITS)],
        }
    }

    /// Transfers served since creation: each took the media lock once,
    /// whether it carried one stripe or a batch of them.
    pub fn transfers(&self) -> u64 {
        self.inner.lock().transfers
    }

    /// Stripe slots granted since creation: one per stripe of every
    /// transfer, i.e. one per parallel I/O operation the tenants' arrays
    /// counted (a retry round is a transfer of its own).
    pub fn slots_granted(&self) -> u64 {
        self.inner.lock().slots_granted
    }

    /// Transfers that found the media lock taken and had to block for it.
    /// Depends on thread timing: an observation, never part of a metered
    /// or reproducible result.
    pub fn contended(&self) -> u64 {
        self.inner.lock().contended
    }
}

/// One tenant's bounded, offset view of a [`SharedDiskSubstrate`].
///
/// Implements [`DiskBackend`], so it slots under a private
/// [`crate::DiskArray`] exactly like a raw [`MemoryBackend`] would — the
/// tenant's decorators (checksums, retry) and counters all live in
/// the tenant's own array, above this view. A transfer takes the media
/// lock once, however many stripes it carries.
pub struct RegionBackend {
    shared: Arc<SharedInner>,
    base: usize,
    max_tracks: usize,
    tracks_used: Vec<usize>,
    /// One bit per track of the region, `⌈max_tracks / 64⌉` words per
    /// drive: set once this view has written the track. Private to the
    /// view, so consulting it takes no lock, and a track whose bit is clear
    /// is never read from the store — whatever a previous holder of the
    /// region left there.
    written: Vec<u64>,
}

const WORD_BITS: usize = u64::BITS as usize;

impl RegionBackend {
    /// The region's base track on the physical store.
    pub fn base_track(&self) -> usize {
        self.base
    }

    /// The region's length in tracks per drive.
    pub fn max_tracks(&self) -> usize {
        self.max_tracks
    }

    fn check(&self, disk: usize, track: usize) -> DiskResult<()> {
        if track >= self.max_tracks {
            return Err(DiskError::CapacityExceeded { disk, max_tracks: self.max_tracks });
        }
        Ok(())
    }

    /// Word index and mask of in-range `(disk, track)`'s bit in `written`.
    fn written_bit(&self, disk: usize, track: usize) -> (usize, u64) {
        let words_per_disk = self.max_tracks.div_ceil(WORD_BITS);
        (disk * words_per_disk + track / WORD_BITS, 1 << (track % WORD_BITS))
    }

    fn is_written(&self, disk: usize, track: usize) -> bool {
        let (word, mask) = self.written_bit(disk, track);
        self.written[word] & mask != 0
    }

    fn note_write(&mut self, disk: usize, track: usize) {
        self.tracks_used[disk] = self.tracks_used[disk].max(track + 1);
        let (word, mask) = self.written_bit(disk, track);
        self.written[word] |= mask;
    }
}

impl DiskBackend for RegionBackend {
    fn num_disks(&self) -> usize {
        self.shared.num_disks
    }

    /// One hold of the media lock for the whole batch: the bound check and
    /// the memcpy of each track, nothing else.
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        let mut outcomes = TrackOutcomes::with_capacity(addrs.len());
        let mut st = self.shared.lock_for_transfer(stripes.len());
        for (&(disk, track), buf) in addrs.iter().zip(bufs.iter_mut()) {
            outcomes.push(match self.check(disk, track) {
                Ok(()) if self.is_written(disk, track) => {
                    st.store.read_track(disk, self.base + track, buf)
                }
                Ok(()) => {
                    buf.fill(0);
                    Ok(())
                }
                Err(e) => Err(e),
            });
        }
        drop(st);
        outcomes
    }

    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        let mut outcomes = TrackOutcomes::with_capacity(writes.len());
        let mut st = self.shared.lock_for_transfer(stripes.len());
        for &(disk, track, data) in writes {
            outcomes.push(
                (self.check(disk, track))
                    .and_then(|()| st.store.write_track(disk, self.base + track, data)),
            );
        }
        drop(st);
        for (&(disk, track, _), outcome) in writes.iter().zip(&outcomes) {
            if outcome.is_ok() {
                self.note_write(disk, track);
            }
        }
        outcomes
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.tracks_used[disk]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, DiskArray, DiskConfig};

    fn cfg(d: usize, b: usize) -> DiskConfig {
        DiskConfig::new(d, b).unwrap()
    }

    fn stripe(d: usize, track: usize, tag: u8, b: usize) -> Vec<(usize, usize, Block)> {
        (0..d).map(|disk| (disk, track, Block::from_bytes_padded(&[tag], b))).collect()
    }

    #[test]
    fn regions_are_disjoint_and_isolated() {
        let shared = SharedDiskSubstrate::new(2, 64);
        let a = shared.reserve_region(8).unwrap();
        let b = shared.reserve_region(8).unwrap();
        assert_ne!(a, b);
        let mut arr_a = DiskArray::with_backend(cfg(2, 32), Box::new(shared.region(a, 8)));
        let mut arr_b = DiskArray::with_backend(cfg(2, 32), Box::new(shared.region(b, 8)));
        arr_a.write_stripe(&stripe(2, 0, 0xAA, 32)).unwrap();
        arr_b.write_stripe(&stripe(2, 0, 0xBB, 32)).unwrap();
        let got_a = arr_a.read_stripe(&[(0, 0), (1, 0)]).unwrap();
        let got_b = arr_b.read_stripe(&[(0, 0), (1, 0)]).unwrap();
        assert_eq!(got_a[0].as_bytes()[0], 0xAA);
        assert_eq!(got_b[0].as_bytes()[0], 0xBB);
        // Per-tenant counting is private.
        assert_eq!(arr_a.stats().parallel_ops, 2);
        assert_eq!(arr_b.stats().parallel_ops, 2);
    }

    #[test]
    fn out_of_region_access_is_a_typed_capacity_error() {
        let shared = SharedDiskSubstrate::new(2, 64);
        let base = shared.reserve_region(4).unwrap();
        let mut region = shared.region(base, 4);
        let mut buf = [0u8; 32];
        assert!(region.read_stripe(&[(0, 3)], &mut [&mut buf]).is_ok());
        let err = region.read_stripe(&[(0, 4)], &mut [&mut buf]).unwrap_err();
        assert!(matches!(err, DiskError::CapacityExceeded { max_tracks: 4, .. }));
        let err = region.write_stripe(&[(1, 100, &buf)]).unwrap_err();
        assert!(matches!(err, DiskError::CapacityExceeded { max_tracks: 4, .. }));
    }

    #[test]
    fn reservation_exhaustion_and_release_reuse() {
        let shared = SharedDiskSubstrate::new(1, 10);
        let a = shared.reserve_region(6).unwrap();
        let b = shared.reserve_region(4).unwrap();
        assert_eq!(shared.tracks_free(), 0);
        assert_eq!(shared.reserve_region(1), None);
        shared.release_region(a, 6);
        assert_eq!(shared.tracks_free(), 6);
        // First-fit reuse of the released block.
        let c = shared.reserve_region(3).unwrap();
        assert_eq!(c, a);
        let d = shared.reserve_region(3).unwrap();
        assert_eq!(d, a + 3);
        assert_eq!(shared.reserve_region(1), None);
        // Releasing the tail region rolls the frontier back.
        shared.release_region(b, 4);
        shared.release_region(d, 3);
        assert_eq!(shared.reserve_region(7).unwrap(), 3);
    }

    #[test]
    fn zero_track_region_is_rejected() {
        let shared = SharedDiskSubstrate::new(1, 10);
        assert_eq!(shared.reserve_region(0), None);
    }

    #[test]
    fn region_counted_io_matches_private_array() {
        // The same operation sequence on a region-backed array and on a
        // private memory array produces identical IoStats and bytes.
        let shared = SharedDiskSubstrate::new(3, 32);
        let base = shared.reserve_region(16).unwrap();
        let mut on_region = DiskArray::with_backend(cfg(3, 64), Box::new(shared.region(base, 16)));
        let mut private = DiskArray::new_memory(cfg(3, 64));
        for arr in [&mut on_region, &mut private] {
            arr.write_stripe(&stripe(3, 0, 1, 64)).unwrap();
            arr.write_stripe(&stripe(3, 5, 2, 64)).unwrap();
            let _ = arr.read_stripe(&[(0, 0), (2, 5)]).unwrap();
        }
        assert_eq!(on_region.stats(), private.stats());
        let a = on_region.read_stripe(&[(1, 5)]).unwrap();
        let b = private.read_stripe(&[(1, 5)]).unwrap();
        assert_eq!(a[0].as_bytes(), b[0].as_bytes());
    }

    #[test]
    fn decorated_tenant_takes_one_slot_per_stripe() {
        // Checksums and retry sit between the tenant's array and its
        // region view; they pass each stripe down whole, so the media
        // grants one slot per counted operation, not one per track.
        use crate::RetryPolicy;
        const D: usize = 4;
        let shared = SharedDiskSubstrate::new(D, 64);
        let base = shared.reserve_region(16).unwrap();
        let cfg = cfg(D, 32).with_checksums(true).with_retry(RetryPolicy::new(3));
        let mut arr = DiskArray::with_backend(cfg, Box::new(shared.region(base, 16)));
        for track in 0..5 {
            arr.write_stripe(&stripe(D, track, track as u8 + 1, 32)).unwrap();
        }
        for track in 0..5 {
            let addrs: Vec<(usize, usize)> = (0..D).map(|disk| (disk, track)).collect();
            let got = arr.read_stripe(&addrs).unwrap();
            assert!(got.iter().all(|b| b.as_bytes()[0] == track as u8 + 1));
        }
        // A partial stripe is still one operation and one slot.
        arr.write_stripe(&stripe(2, 9, 0xEE, 32)).unwrap();
        assert_eq!(arr.stats().parallel_ops, 11);
        assert_eq!(arr.stats().retried_blocks, 0);
        assert_eq!(shared.slots_granted(), 11, "N fault-free stripes, N slots — not N·D");
        assert_eq!(shared.transfers(), 11, "a stripe on its own is one transfer");

        // A batch is counted stripe by stripe but takes the media once:
        // co-tenants interleave between transfers, not inside one.
        let (stripes, addrs) = crate::ConsecutiveLayout::new(10, 3, 4, D).unwrap().batch(0, 3);
        let writes: Vec<(usize, usize, Block)> = (addrs.iter())
            .map(|&(disk, track)| (disk, track, Block::from_bytes_padded(&[0xB7], 32)))
            .collect();
        arr.write_batch(&stripes, &writes).unwrap();
        let got = arr.read_batch_into(&stripes, &addrs, Vec::new()).unwrap();
        assert!(got.len() == 9 && got.iter().all(|b| b[0] == 0xB7));
        assert_eq!(stripes.len(), 3);
        assert_eq!(arr.stats().parallel_ops, 11 + 6);
        assert_eq!(shared.slots_granted(), 11 + 6, "one slot per counted stripe of a batch");
        assert_eq!(shared.transfers(), 11 + 2, "a 3-stripe write and a 3-stripe read");
        assert_eq!(shared.contended(), 0, "nobody else was on the media");
    }

    #[test]
    fn recycled_region_reads_as_formatted() {
        let shared = SharedDiskSubstrate::new(1, 8);
        let base = shared.reserve_region(4).unwrap();
        shared.region(base, 4).write_stripe(&[(0, 0, &[7u8; 32])]).unwrap();
        shared.release_region(base, 4);
        assert_eq!(shared.reserve_region(4), Some(base));
        let mut next = shared.region(base, 4);
        let mut buf = [0xFFu8; 32];
        next.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 32], "the last tenant's bytes are not observable");
        assert_eq!(next.tracks_used(0), 0);
        // What the new holder writes is what it reads.
        next.write_stripe(&[(0, 0, &[9u8; 32])]).unwrap();
        next.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 32]);
    }

    #[test]
    fn recycled_region_holding_a_frame_of_another_length_reads_as_formatted() {
        // A checksummed predecessor leaves 36-byte frames; a plain 32-byte
        // successor must neither see them nor trip over their length.
        let shared = SharedDiskSubstrate::new(2, 8);
        let base = shared.reserve_region(4).unwrap();
        let mut first = DiskArray::with_backend(
            cfg(2, 32).with_checksums(true),
            Box::new(shared.region(base, 4)),
        );
        first.write_stripe(&stripe(2, 0, 7, 32)).unwrap();
        drop(first);
        shared.release_region(base, 4);
        assert_eq!(shared.reserve_region(4), Some(base));
        let mut next = DiskArray::with_backend(cfg(2, 32), Box::new(shared.region(base, 4)));
        let got = next.read_stripe(&[(0, 0), (1, 0)]).unwrap();
        assert!(got.iter().all(|b| b.as_bytes() == [0u8; 32]));
        next.write_stripe(&stripe(2, 0, 9, 32)).unwrap();
        let got = next.read_stripe(&[(0, 0), (1, 0)]).unwrap();
        assert!(got.iter().all(|b| b.as_bytes()[0] == 9));
    }

    #[test]
    fn concurrent_tenants_make_progress_and_stay_isolated() {
        const D: usize = 2;
        let shared = SharedDiskSubstrate::new(D, 256);
        let rounds = 50usize;
        // Round `r` also moves a batch of 1–4 full stripes.
        let batch_stripes = |r: usize| 1 + r % 4;
        let in_batches: usize = (0..rounds).map(batch_stripes).sum();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shared = shared.clone();
                scope.spawn(move || {
                    let base = shared.reserve_region(32).unwrap();
                    let mut arr =
                        DiskArray::with_backend(cfg(D, 32), Box::new(shared.region(base, 32)));
                    for r in 0..rounds {
                        let tag = (t * rounds + r) as u8;
                        arr.write_stripe(&stripe(D, r % 32, tag, 32)).unwrap();
                        let got = arr.read_stripe(&[(0, r % 32), (1, r % 32)]).unwrap();
                        assert_eq!(got[0].as_bytes()[0], tag, "tenant {t} round {r}");
                        assert_eq!(got[1].as_bytes()[0], tag, "tenant {t} round {r}");

                        let stripes = vec![D; batch_stripes(r)];
                        let addrs: Vec<(usize, usize)> = (0..stripes.len())
                            .flat_map(|s| (0..D).map(move |disk| (disk, r % 28 + s)))
                            .collect();
                        let writes: Vec<(usize, usize, Block)> = (addrs.iter())
                            .map(|&(disk, track)| {
                                (disk, track, Block::from_bytes_padded(&[!tag], 32))
                            })
                            .collect();
                        arr.write_batch(&stripes, &writes).unwrap();
                        let got = arr.read_batch_into(&stripes, &addrs, Vec::new()).unwrap();
                        assert_eq!(got.len(), addrs.len());
                        assert!(got.iter().all(|b| b[0] == !tag), "tenant {t} round {r}");
                    }
                    assert_eq!(arr.stats().parallel_ops, 2 * (rounds + in_batches) as u64);
                });
            }
        });
        // Every counted stripe took exactly one slot, every call one transfer.
        assert_eq!(shared.slots_granted(), 4 * 2 * (rounds + in_batches) as u64);
        assert_eq!(shared.transfers(), 4 * 4 * rounds as u64);
    }

    #[test]
    fn a_tenant_that_panics_inside_a_transfer_leaves_the_others_served() {
        // The panic happens under the media lock (a 16-byte buffer against
        // a 32-byte track) and poisons it; co-tenants transfer both while
        // the culprit runs and — held back on a channel — after it has died.
        let shared = SharedDiskSubstrate::new(2, 64);
        let rounds = 20usize;
        std::thread::scope(|scope| {
            let culprit = scope.spawn(|| {
                let mut region = shared.region(shared.reserve_region(4).unwrap(), 4);
                region.write_stripe(&[(0, 0, &[1u8; 32])]).unwrap();
                region.read_stripe(&[(0, 0)], &mut [&mut [0u8; 16]])
            });
            let mut died = Vec::new();
            for t in 0..3usize {
                let shared = &shared;
                let (tell, told) = std::sync::mpsc::channel::<()>();
                died.push(tell);
                scope.spawn(move || {
                    let base = shared.reserve_region(8).unwrap();
                    let mut arr =
                        DiskArray::with_backend(cfg(2, 32), Box::new(shared.region(base, 8)));
                    for r in 0..2 * rounds {
                        if r == rounds {
                            told.recv().unwrap();
                        }
                        let tag = (t * 2 * rounds + r) as u8;
                        arr.write_stripe(&stripe(2, r % 8, tag, 32)).unwrap();
                        let got = arr.read_stripe(&[(0, r % 8), (1, r % 8)]).unwrap();
                        assert!(got.iter().all(|b| b.as_bytes()[0] == tag), "tenant {t} round {r}");
                    }
                });
            }
            assert!(culprit.join().is_err(), "the short buffer panics inside the store");
            died.iter().for_each(|tell| tell.send(()).unwrap());
        });
        // The culprit's write and the read it died in, then everybody else's.
        assert_eq!(shared.slots_granted(), 2 + 3 * 2 * 2 * rounds as u64);
        assert_eq!(shared.transfers(), shared.slots_granted());
        assert!(shared.reserve_region(4).is_some(), "the region map survives the poisoned lock");
    }
}
