//! A shared multi-tenant disk substrate: one physical store, many
//! disjoint track regions, fair stripe scheduling.
//!
//! [`SharedDiskSubstrate`] owns `D` physical drives (an in-memory store in
//! this version) whose track space is carved into disjoint per-tenant
//! *regions*. Each region is exposed as a [`RegionBackend`] — an ordinary
//! [`DiskBackend`] whose track addresses are offset by the region base and
//! bounded by the region length — so every tenant builds its own private
//! [`crate::DiskArray`] (with its own decorator stack, counters and
//! recovery journal) over its slice of the shared media.
//!
//! Two properties make the substrate safe to meter:
//!
//! * **Isolation** — regions are disjoint by construction, and a transfer
//!   addressed past the region end fails with
//!   [`DiskError::CapacityExceeded`] before touching the store. A tenant
//!   cannot read, write or even observe another tenant's tracks.
//! * **Counting above sharing** — each tenant's [`crate::IoStats`] are
//!   counted by the tenant's own `DiskArray` at submission time, *above*
//!   this layer. Co-tenancy can therefore delay a transfer (fairness is a
//!   wall-clock concern) but can never change what any tenant's counted
//!   parallel I/O looks like: it is bit-identical to the same run on a
//!   private array.
//!
//! Concurrent stripes from different tenants are serialized by a **fair
//! round-robin arbiter**: when several tenants are waiting for the media,
//! grants cycle through the waiters in tenant-id order, so a chatty tenant
//! cannot starve a quiet one. A tenant alone on the substrate is granted
//! back-to-back slots without waiting.

use crate::backend::{DiskBackend, MemoryBackend, TrackOutcomes};
use crate::{DiskError, DiskResult};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// Tenant-id allocator for [`RegionBackend`] handles.
    next_tenant: usize,
    /// Tenants currently blocked waiting for a stripe slot.
    waiting: Vec<usize>,
    /// Tenant that held the most recent slot (round-robin pivot).
    last_granted: usize,
    /// Total stripe slots granted since creation (observability).
    slots_granted: u64,
}

struct SharedInner {
    num_disks: usize,
    tracks_per_disk: usize,
    state: Mutex<SharedState>,
    turnstile: Condvar,
}

impl SharedInner {
    /// Lock the shared state, ignoring poison (a tenant that panicked
    /// while holding the media lock must not wedge every other tenant —
    /// the store itself is only mutated through infallible memory writes).
    fn lock(&self) -> MutexGuard<'_, SharedState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A shared disk array substrate serving many tenants at once.
///
/// Cloning the handle is cheap (it is an [`Arc`]); all clones refer to the
/// same physical store, region map and arbiter.
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
                    next_tenant: 0,
                    waiting: Vec::new(),
                    last_granted: 0,
                    slots_granted: 0,
                }),
                turnstile: Condvar::new(),
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
        if st.frontier + tracks > self.inner.tracks_per_disk {
            return None;
        }
        let base = st.frontier;
        st.frontier += tracks;
        Some(base)
    }

    /// Return a previously reserved region to the free pool. The caller
    /// must no longer hold a [`RegionBackend`] over it; the tracks are
    /// *not* scrubbed, so reuse relies on the next tenant's own formatting
    /// discipline (the simulators rewrite every region they allocate).
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

    /// A [`DiskBackend`] view of the region `[base, base + tracks)` with a
    /// fresh tenant id for arbitration. Track 0 of the view is physical
    /// track `base`; addresses at or past `tracks` fail with
    /// [`DiskError::CapacityExceeded`].
    pub fn region(&self, base: usize, tracks: usize) -> RegionBackend {
        let tenant = {
            let mut st = self.inner.lock();
            let id = st.next_tenant;
            st.next_tenant += 1;
            id
        };
        RegionBackend {
            shared: self.inner.clone(),
            tenant,
            base,
            max_tracks: tracks,
            tracks_used: vec![0; self.inner.num_disks],
        }
    }

    /// Total fair stripe slots granted since creation.
    pub fn slots_granted(&self) -> u64 {
        self.inner.lock().slots_granted
    }
}

/// Next tenant to grant: the smallest waiting id strictly greater than
/// `last`, wrapping to the smallest waiting id — i.e. round-robin in
/// tenant-id order over the tenants actually waiting.
fn next_grant(waiting: &[usize], last: usize) -> Option<usize> {
    let above = waiting.iter().copied().filter(|&t| t > last).min();
    above.or_else(|| waiting.iter().copied().min())
}

/// One tenant's bounded, offset view of a [`SharedDiskSubstrate`].
///
/// Implements [`DiskBackend`], so it slots under a private
/// [`crate::DiskArray`] exactly like a raw [`MemoryBackend`] would — the
/// tenant's decorators (checksums, retry, cache) and counters all live in
/// the tenant's own array, above this view. Each stripe acquires one fair
/// arbiter slot for the whole `≤ D`-track transfer — through any decorator
/// stack, since the decorators pass stripes down whole; a single-track
/// call is a one-track stripe.
pub struct RegionBackend {
    shared: Arc<SharedInner>,
    tenant: usize,
    base: usize,
    max_tracks: usize,
    tracks_used: Vec<usize>,
}

impl RegionBackend {
    /// The region's base track on the physical store.
    pub fn base_track(&self) -> usize {
        self.base
    }

    /// The region's length in tracks per drive.
    pub fn max_tracks(&self) -> usize {
        self.max_tracks
    }

    /// The arbiter tenant id of this view.
    pub fn tenant_id(&self) -> usize {
        self.tenant
    }

    fn check(&self, disk: usize, track: usize) -> DiskResult<()> {
        if track >= self.max_tracks {
            return Err(DiskError::CapacityExceeded { disk, max_tracks: self.max_tracks });
        }
        Ok(())
    }

    /// Run `op` on the physical store while holding one fair stripe slot.
    ///
    /// Waiting tenants are granted the media round-robin in tenant-id
    /// order ([`next_grant`]); the slot is held for the duration of the
    /// physical transfer, which is the model's "one parallel I/O at a
    /// time on the media" semantics.
    fn with_slot<R>(&self, op: impl FnOnce(&mut MemoryBackend) -> R) -> R {
        let mut st = self.shared.lock();
        st.waiting.push(self.tenant);
        while next_grant(&st.waiting, st.last_granted) != Some(self.tenant) {
            st = self.shared.turnstile.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let pos = st.waiting.iter().position(|&t| t == self.tenant).expect("registered above");
        st.waiting.swap_remove(pos);
        st.last_granted = self.tenant;
        st.slots_granted += 1;
        let out = op(&mut st.store);
        drop(st);
        self.shared.turnstile.notify_all();
        out
    }

    fn note_write(&mut self, disk: usize, track: usize) {
        self.tracks_used[disk] = self.tracks_used[disk].max(track + 1);
    }
}

impl DiskBackend for RegionBackend {
    fn num_disks(&self) -> usize {
        self.shared.num_disks
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
        self.with_slot(|store| {
            (addrs.iter().zip(bufs.iter_mut()))
                .map(|(&(disk, track), buf)| {
                    self.check(disk, track)?;
                    store.read_track(disk, self.base + track, buf)
                })
                .collect()
        })
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        let outcomes: TrackOutcomes = self.with_slot(|store| {
            writes
                .iter()
                .map(|&(disk, track, data)| {
                    self.check(disk, track)?;
                    store.write_track(disk, self.base + track, data)
                })
                .collect()
        });
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
        assert!(region.read_track(0, 3, &mut buf).is_ok());
        let err = region.read_track(0, 4, &mut buf).unwrap_err();
        assert!(matches!(err, DiskError::CapacityExceeded { max_tracks: 4, .. }));
        let err = region.write_track(1, 100, &buf).unwrap_err();
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
        // region view; they pass each stripe down whole, so the arbiter
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

        // A batch is counted — and arbitrated — stripe by stripe: the
        // region view keeps the default, so co-tenants still interleave at
        // stripe granularity inside another tenant's batch.
        let (stripes, addrs) = crate::ConsecutiveLayout::new(10, 3, 4, D).unwrap().batch(0, 3);
        let writes: Vec<(usize, usize, Block)> = (addrs.iter())
            .map(|&(disk, track)| (disk, track, Block::from_bytes_padded(&[0xB7], 32)))
            .collect();
        arr.submit_write_batch(&stripes, &writes).unwrap().join().unwrap();
        let got = arr.submit_read_batch(&stripes, &addrs).unwrap().join().unwrap();
        assert!(got.len() == 9 && got.iter().all(|b| b.as_bytes()[0] == 0xB7));
        assert_eq!(stripes.len(), 3);
        assert_eq!(arr.stats().parallel_ops, 11 + 6);
        assert_eq!(shared.slots_granted(), 11 + 6, "one slot per counted stripe of a batch");
    }

    #[test]
    fn round_robin_grant_order() {
        // With waiters {1, 2, 5} the grants cycle 1 → 2 → 5 → 1 …
        assert_eq!(next_grant(&[5, 1, 2], 0), Some(1));
        assert_eq!(next_grant(&[5, 1, 2], 1), Some(2));
        assert_eq!(next_grant(&[5, 1, 2], 2), Some(5));
        assert_eq!(next_grant(&[5, 1, 2], 5), Some(1));
        assert_eq!(next_grant(&[], 3), None);
        // A lone waiter is always next, regardless of the pivot.
        assert_eq!(next_grant(&[7], 7), Some(7));
    }

    #[test]
    fn concurrent_tenants_make_progress_and_stay_isolated() {
        let shared = SharedDiskSubstrate::new(2, 256);
        let rounds = 50usize;
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shared = shared.clone();
                scope.spawn(move || {
                    let base = shared.reserve_region(32).unwrap();
                    let mut arr =
                        DiskArray::with_backend(cfg(2, 32), Box::new(shared.region(base, 32)));
                    for r in 0..rounds {
                        let tag = (t * rounds + r) as u8;
                        arr.write_stripe(&stripe(2, r % 32, tag, 32)).unwrap();
                        let got = arr.read_stripe(&[(0, r % 32), (1, r % 32)]).unwrap();
                        assert_eq!(got[0].as_bytes()[0], tag, "tenant {t} round {r}");
                        assert_eq!(got[1].as_bytes()[0], tag, "tenant {t} round {r}");
                    }
                    assert_eq!(arr.stats().parallel_ops, 2 * rounds as u64);
                });
            }
        });
        // Every stripe acquired exactly one slot.
        assert_eq!(shared.slots_granted(), 4 * 2 * rounds as u64);
    }
}
