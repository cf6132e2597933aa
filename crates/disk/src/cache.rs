//! Write-back block cache: absorb reads of resident tracks and buffer
//! writes until the barrier flush.
//!
//! [`BlockCacheBackend`] is a [`DiskBackend`] decorator that sits at the
//! very top of the backend stack, directly under the
//! [`DiskArray`](crate::DiskArray) front-end — above retries and checksums
//! (`Cache(Retrying(Checksum(FaultInjecting(raw))))`) — so it caches
//! *logical* `B`-byte blocks and every miss or flush still passes through
//! the full fault-tolerance machinery below it.
//!
//! The cache changes wall clock only. The array counts parallel I/O at
//! submission, before the backend sees the request, so counted
//! [`IoStats`](crate::IoStats) are bit-identical with the cache on or off
//! by construction; absorbed traffic is tallied separately in
//! [`IoStats::cache_hit_blocks`](crate::IoStats::cache_hit_blocks) and
//! [`IoStats::cache_absorbed_writes`](crate::IoStats::cache_absorbed_writes),
//! exactly like `retried_blocks` tallies absorbed retry traffic.
//!
//! Determinism: the cache holds no randomness at all. Eviction is LRU over
//! a strictly increasing access counter (every access gets a unique tick,
//! so there are never ties), flushes walk the dirty set in sorted
//! `(track, disk)` order batched into legal one-track-per-drive stripes,
//! and an identical request sequence therefore produces an identical
//! backend I/O trace — the same contract `tests/file_backend.rs` asserts
//! for the I/O modes.

use crate::{DiskBackend, DiskResult, TrackOutcomes};
use std::collections::{BTreeMap, HashMap};

/// One resident track.
struct CacheEntry {
    data: Vec<u8>,
    dirty: bool,
    /// Key into the LRU order map; unique per access.
    tick: u64,
}

/// A deterministic write-back cache over any [`DiskBackend`].
///
/// * **Reads** of resident tracks are served from memory (tallied as cache
///   hits); misses read through the inner backend — still as one `≤ D`-way
///   stripe for the missing subset — and allocate the fetched tracks. A
///   miss stripe in which any track failed allocates nothing.
/// * **Writes** are absorbed into the cache and marked dirty (tallied as
///   absorbed writes); they reach the inner backend only when evicted or
///   flushed.
/// * **`sync()`** flushes every dirty track and then syncs the inner
///   backend, so a durability barrier means the same thing with or
///   without the cache. Entries stay resident (clean) across a flush —
///   a warm cache keeps absorbing reads superstep after superstep.
/// * **Eviction** (capacity is a fixed number of whole tracks, ≥ 1) picks
///   the least-recently-used entry; a dirty victim is written back to the
///   inner backend first.
pub struct BlockCacheBackend<B: DiskBackend> {
    inner: B,
    capacity_tracks: usize,
    map: HashMap<(usize, usize), CacheEntry>,
    /// LRU order: access tick → resident key. `BTreeMap` keeps eviction
    /// (pop the smallest tick) deterministic and `O(log n)`.
    lru: BTreeMap<u64, (usize, usize)>,
    tick: u64,
    hits: u64,
    absorbed: u64,
    /// Per-drive high-water mark of absorbed writes, so
    /// [`DiskBackend::tracks_used`] accounts for tracks that have not been
    /// flushed yet.
    high_water: Vec<usize>,
}

impl<B: DiskBackend> BlockCacheBackend<B> {
    /// Wrap `inner` with a cache holding up to `capacity_tracks` whole
    /// tracks (clamped to at least 1).
    pub fn new(inner: B, capacity_tracks: usize) -> Self {
        let d = inner.num_disks();
        BlockCacheBackend {
            inner,
            capacity_tracks: capacity_tracks.max(1),
            map: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            hits: 0,
            absorbed: 0,
            high_water: vec![0; d],
        }
    }

    /// Tracks currently resident (for tests and capacity diagnostics).
    pub fn resident_tracks(&self) -> usize {
        self.map.len()
    }

    /// Tracks currently resident and dirty.
    pub fn dirty_tracks(&self) -> usize {
        self.map.values().filter(|e| e.dirty).count()
    }

    fn touch(&mut self, key: (usize, usize)) {
        let e = self.map.get_mut(&key).expect("touched key is resident");
        self.lru.remove(&e.tick);
        self.tick += 1;
        e.tick = self.tick;
        self.lru.insert(self.tick, key);
    }

    /// Evict the least-recently-used entry, writing it back if dirty.
    fn evict_one(&mut self) -> DiskResult<()> {
        let (_, key) = self.lru.pop_first().expect("evicting from a non-empty cache");
        let entry = self.map.remove(&key).expect("lru and map agree");
        if entry.dirty {
            self.inner.write_track(key.0, key.1, &entry.data)?;
        }
        Ok(())
    }

    /// Make `key` resident with `data`, evicting first when full. A write
    /// (`dirty = true`) marks the entry dirty; a read-allocate
    /// (`dirty = false`) must never clear an existing dirty mark.
    fn insert(&mut self, key: (usize, usize), data: Vec<u8>, dirty: bool) -> DiskResult<()> {
        if let Some(e) = self.map.get_mut(&key) {
            e.data = data;
            e.dirty |= dirty;
            self.lru.remove(&e.tick);
            self.tick += 1;
            e.tick = self.tick;
            self.lru.insert(self.tick, key);
            return Ok(());
        }
        if self.map.len() >= self.capacity_tracks {
            self.evict_one()?;
        }
        self.tick += 1;
        self.map.insert(key, CacheEntry { data, dirty, tick: self.tick });
        self.lru.insert(self.tick, key);
        Ok(())
    }

    fn absorb_write(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.absorbed += 1;
        self.high_water[disk] = self.high_water[disk].max(track + 1);
        self.insert((disk, track), data.to_vec(), true)
    }
}

impl<B: DiskBackend> DiskBackend for BlockCacheBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
        self.read_stripe(&[(disk, track)], &mut [buf])
    }

    fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
        self.absorb_write(disk, track, data)
    }

    fn read_stripe_each(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        // Serve resident tracks from memory; fetch only the missing subset
        // from the inner backend, still as a single stripe so the engine's
        // D-way overlap is preserved for the part that does real I/O.
        let mut outcomes: TrackOutcomes = addrs.iter().map(|_| Ok(())).collect();
        let mut miss_addrs: Vec<(usize, usize)> = Vec::new();
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, &(disk, track)) in addrs.iter().enumerate() {
            let key = (disk, track);
            if self.map.contains_key(&key) {
                self.touch(key);
                bufs[i].copy_from_slice(&self.map[&key].data);
                self.hits += 1;
            } else {
                miss_addrs.push(key);
                miss_idx.push(i);
            }
        }
        if miss_addrs.is_empty() {
            return outcomes;
        }
        let block_bytes = bufs[miss_idx[0]].len();
        let mut fetched: Vec<Vec<u8>> = miss_addrs.iter().map(|_| vec![0u8; block_bytes]).collect();
        let mut fb: Vec<&mut [u8]> = fetched.iter_mut().map(Vec::as_mut_slice).collect();
        let missed = self.inner.read_stripe_each(&miss_addrs, &mut fb);
        if missed.iter().all(Result::is_ok) {
            for ((key, data), i) in miss_addrs.into_iter().zip(fetched).zip(miss_idx) {
                bufs[i].copy_from_slice(&data);
                outcomes[i] = self.insert(key, data, false);
            }
        } else {
            for (i, outcome) in miss_idx.into_iter().zip(missed) {
                outcomes[i] = outcome;
            }
        }
        outcomes
    }

    fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
        writes.iter().map(|&(disk, track, data)| self.absorb_write(disk, track, data)).collect()
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk).max(self.high_water[disk])
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.flush_cache()?;
        self.inner.sync()
    }

    fn take_retried_blocks(&mut self) -> u64 {
        self.inner.take_retried_blocks()
    }

    fn fault_op_counts(&self) -> Option<Vec<u64>> {
        self.inner.fault_op_counts()
    }

    fn restore_fault_op_counts(&mut self, counts: &[u64]) {
        self.inner.restore_fault_op_counts(counts)
    }

    fn take_cache_hit_blocks(&mut self) -> u64 {
        std::mem::take(&mut self.hits) + self.inner.take_cache_hit_blocks()
    }

    fn take_cache_absorbed_writes(&mut self) -> u64 {
        std::mem::take(&mut self.absorbed) + self.inner.take_cache_absorbed_writes()
    }

    fn flush_cache(&mut self) -> DiskResult<()> {
        // Deterministic flush order: dirty keys sorted by (track, disk),
        // greedily batched into one-track-per-drive stripes. Sorting by
        // track first keeps consecutive entries on distinct drives for the
        // striped layouts the simulators produce, so flushes stay close to
        // fully D-way parallel on the engine below.
        let mut dirty: Vec<(usize, usize)> =
            self.map.iter().filter(|(_, e)| e.dirty).map(|(&k, _)| k).collect();
        if dirty.is_empty() {
            return Ok(());
        }
        dirty.sort_unstable_by_key(|&(disk, track)| (track, disk));
        let mut used = vec![false; self.high_water.len()];
        let mut stripe: Vec<(usize, usize, &[u8])> = Vec::new();
        for &(disk, track) in &dirty {
            if used[disk] || stripe.len() == used.len() {
                self.inner.write_stripe(&stripe)?;
                stripe.clear();
                used.fill(false);
            }
            used[disk] = true;
            stripe.push((disk, track, self.map[&(disk, track)].data.as_slice()));
        }
        if !stripe.is_empty() {
            self.inner.write_stripe(&stripe)?;
        }
        drop(stripe);
        // Entries stay resident and clean: a warm cache keeps serving
        // reads after the barrier.
        for key in dirty {
            self.map.get_mut(&key).expect("flushed key is resident").dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChecksumBackend, MemoryBackend, RetryPolicy, RetryingBackend};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Stripe calls that reached a [`CountingBackend`], shared so a test
    /// can read them with the backend buried under a decorator stack.
    #[derive(Default)]
    struct StripeCalls {
        reads: AtomicU64,
        writes: AtomicU64,
        batch_reads: AtomicU64,
        batch_writes: AtomicU64,
    }

    impl StripeCalls {
        fn take(&self) -> (u64, u64) {
            (self.reads.swap(0, Ordering::Relaxed), self.writes.swap(0, Ordering::Relaxed))
        }

        fn take_batches(&self) -> (u64, u64) {
            (
                self.batch_reads.swap(0, Ordering::Relaxed),
                self.batch_writes.swap(0, Ordering::Relaxed),
            )
        }
    }

    /// A [`MemoryBackend`] wrapper tallying how many track transfers
    /// (and how many stripe calls) actually reach it, so tests can prove
    /// what the layers above absorbed and how they dispatched the rest.
    struct CountingBackend {
        inner: MemoryBackend,
        reads: u64,
        writes: u64,
        stripes: Arc<StripeCalls>,
    }

    impl CountingBackend {
        fn new(d: usize) -> Self {
            CountingBackend {
                inner: MemoryBackend::new(d),
                reads: 0,
                writes: 0,
                stripes: Arc::default(),
            }
        }
    }

    impl DiskBackend for CountingBackend {
        fn num_disks(&self) -> usize {
            self.inner.num_disks()
        }
        fn read_track(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> DiskResult<()> {
            self.reads += 1;
            self.inner.read_track(disk, track, buf)
        }
        fn write_track(&mut self, disk: usize, track: usize, data: &[u8]) -> DiskResult<()> {
            self.writes += 1;
            self.inner.write_track(disk, track, data)
        }
        fn read_stripe_each(
            &mut self,
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> TrackOutcomes {
            self.stripes.reads.fetch_add(1, Ordering::Relaxed);
            (addrs.iter().zip(bufs.iter_mut()))
                .map(|(&(disk, track), buf)| self.read_track(disk, track, buf))
                .collect()
        }
        fn write_stripe_each(&mut self, writes: &[(usize, usize, &[u8])]) -> TrackOutcomes {
            self.stripes.writes.fetch_add(1, Ordering::Relaxed);
            writes.iter().map(|&(disk, track, data)| self.write_track(disk, track, data)).collect()
        }
        // Counted, then stripe by stripe as the trait's default would.
        fn read_batch_each(
            &mut self,
            stripes: &[usize],
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> TrackOutcomes {
            self.stripes.batch_reads.fetch_add(1, Ordering::Relaxed);
            let mut at = 0;
            (stripes.iter())
                .flat_map(|&len| {
                    at += len;
                    self.read_stripe_each(&addrs[at - len..at], &mut bufs[at - len..at])
                })
                .collect()
        }
        fn write_batch_each(
            &mut self,
            stripes: &[usize],
            writes: &[(usize, usize, &[u8])],
        ) -> TrackOutcomes {
            self.stripes.batch_writes.fetch_add(1, Ordering::Relaxed);
            let mut at = 0;
            (stripes.iter())
                .flat_map(|&len| {
                    at += len;
                    self.write_stripe_each(&writes[at - len..at])
                })
                .collect()
        }
        fn tracks_used(&self, disk: usize) -> usize {
            self.inner.tracks_used(disk)
        }
    }

    fn cache(d: usize, capacity: usize) -> BlockCacheBackend<CountingBackend> {
        BlockCacheBackend::new(CountingBackend::new(d), capacity)
    }

    #[test]
    fn writes_are_absorbed_until_flush() {
        let mut c = cache(2, 8);
        c.write_track(0, 0, &[1u8; 8]).unwrap();
        c.write_track(1, 0, &[2u8; 8]).unwrap();
        assert_eq!(c.inner.writes, 0, "writes buffered, none landed");
        assert_eq!(c.dirty_tracks(), 2);
        assert_eq!(c.take_cache_absorbed_writes(), 2);
        c.flush_cache().unwrap();
        assert_eq!(c.inner.writes, 2, "flush lands every dirty track");
        assert_eq!(c.dirty_tracks(), 0);
        // Flushing again is free: nothing is dirty.
        c.flush_cache().unwrap();
        assert_eq!(c.inner.writes, 2);
        let mut buf = [0u8; 8];
        c.inner.read_track(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn resident_reads_never_touch_the_inner_backend() {
        let mut c = cache(2, 8);
        c.write_track(0, 3, &[7u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        for _ in 0..5 {
            c.read_track(0, 3, &mut buf).unwrap();
            assert_eq!(buf, [7u8; 8]);
        }
        assert_eq!(c.inner.reads, 0);
        assert_eq!(c.take_cache_hit_blocks(), 5);
        assert_eq!(c.take_cache_hit_blocks(), 0, "draining resets the tally");
    }

    #[test]
    fn misses_read_allocate_and_stay_warm_across_flush() {
        let mut c = cache(1, 4);
        c.inner.write_track(0, 0, &[9u8; 4]).unwrap();
        c.inner.writes = 0;
        let mut buf = [0u8; 4];
        c.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 4]);
        assert_eq!(c.inner.reads, 1, "first read misses");
        c.flush_cache().unwrap();
        c.read_track(0, 0, &mut buf).unwrap();
        assert_eq!(c.inner.reads, 1, "entry survives the flush and hits");
        assert_eq!(c.take_cache_hit_blocks(), 1);
    }

    #[test]
    fn never_written_tracks_read_zero_through_the_cache() {
        let mut c = cache(2, 4);
        let mut buf = [0xAAu8; 8];
        c.read_track(1, 5, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        // The zero track was allocated: the second read hits.
        c.read_track(1, 5, &mut buf).unwrap();
        assert_eq!(c.inner.reads, 1);
        assert_eq!(c.take_cache_hit_blocks(), 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_writes_back_dirty_victims() {
        let mut c = cache(1, 2);
        c.write_track(0, 0, &[1u8; 4]).unwrap();
        c.write_track(0, 1, &[2u8; 4]).unwrap();
        // Touch track 0 so track 1 is the LRU victim.
        let mut buf = [0u8; 4];
        c.read_track(0, 0, &mut buf).unwrap();
        c.write_track(0, 2, &[3u8; 4]).unwrap();
        assert_eq!(c.resident_tracks(), 2);
        assert_eq!(c.inner.writes, 1, "the dirty victim was written back");
        c.inner.read_track(0, 1, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 4], "victim content landed");
        // Tracks 0 and 2 are still resident and serve hits.
        c.take_cache_hit_blocks();
        c.read_track(0, 0, &mut buf).unwrap();
        c.read_track(0, 2, &mut buf).unwrap();
        assert_eq!(c.take_cache_hit_blocks(), 2);
    }

    #[test]
    fn mixed_stripe_fetches_only_the_missing_subset() {
        let mut c = cache(3, 8);
        c.write_track(0, 0, &[1u8; 4]).unwrap();
        c.inner.write_track(1, 0, &[2u8; 4]).unwrap();
        c.inner.write_track(2, 0, &[3u8; 4]).unwrap();
        c.inner.writes = 0;
        let mut b0 = [0u8; 4];
        let mut b1 = [0u8; 4];
        let mut b2 = [0u8; 4];
        {
            let mut bufs: Vec<&mut [u8]> = vec![&mut b0, &mut b1, &mut b2];
            c.read_stripe(&[(0, 0), (1, 0), (2, 0)], &mut bufs).unwrap();
        }
        assert_eq!((b0, b1, b2), ([1u8; 4], [2u8; 4], [3u8; 4]));
        assert_eq!(c.inner.reads, 2, "only the two misses reached the backend");
        assert_eq!(c.take_cache_hit_blocks(), 1);
        // Dirty residents must be served from the cache, not stale media.
        c.write_track(1, 0, &[9u8; 4]).unwrap();
        let mut buf = [0u8; 4];
        c.read_track(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 4]);
    }

    #[test]
    fn one_outer_stripe_is_one_inner_stripe_through_the_decorators() {
        const D: usize = 4;
        let raw = CountingBackend::new(D);
        let calls = Arc::clone(&raw.stripes);
        let stack = |raw| RetryingBackend::new(ChecksumBackend::new(raw, 16), RetryPolicy::new(3));
        let payload = [7u8; 16];
        let writes: Vec<(usize, usize, &[u8])> = (0..D).map(|d| (d, 0, &payload[..])).collect();
        let addrs: Vec<(usize, usize)> = (0..D).map(|d| (d, 0)).collect();
        let mut blocks = vec![[0u8; 16]; D];

        // Retrying(Checksum(raw)): one D-way dispatch per stripe.
        let mut be = stack(raw);
        be.write_stripe(&writes).unwrap();
        assert_eq!(calls.take(), (0, 1), "one framed write stripe reaches the raw backend");
        {
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            be.read_stripe(&addrs, &mut bufs).unwrap();
        }
        assert_eq!(calls.take(), (1, 0), "one read stripe, verified after it returns");
        assert_eq!(blocks, vec![payload; D]);

        // Cache(Retrying(Checksum(raw))): a cold stripe misses as one
        // stripe; the warm re-read reaches nothing.
        let mut cached = BlockCacheBackend::new(be, 2 * D);
        for pass in 0..2 {
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            cached.read_stripe(&addrs, &mut bufs).unwrap();
            assert_eq!(calls.take(), (1 - pass, 0), "pass {pass}");
        }
        assert_eq!(cached.take_cache_hit_blocks(), D as u64);
        // A partly resident stripe fetches its misses as one stripe too.
        let mixed: Vec<(usize, usize)> = (0..D).map(|d| (d, d % 2)).collect();
        {
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            cached.read_stripe(&mixed, &mut bufs).unwrap();
        }
        assert_eq!(calls.take(), (1, 0));
        // Dirty tracks flush as one stripe per legal batch.
        cached.write_stripe(&writes).unwrap();
        assert_eq!(calls.take(), (0, 0), "absorbed");
        cached.flush_cache().unwrap();
        assert_eq!(calls.take(), (0, 1));
    }

    #[test]
    fn one_outer_batch_is_one_inner_batch_through_the_decorators() {
        use crate::ConsecutiveLayout;
        const D: usize = 4;
        let raw = CountingBackend::new(D);
        let calls = Arc::clone(&raw.stripes);
        let mut be = RetryingBackend::new(ChecksumBackend::new(raw, 16), RetryPolicy::new(3));
        // Five regions of three blocks from global block 3: ragged first
        // and last stripes, five stripes in all.
        let (stripes, addrs) = ConsecutiveLayout::new(0, 3, 8, D).unwrap().batch(1, 5);
        assert_eq!(stripes, [1, 4, 4, 4, 2]);
        let payloads: Vec<[u8; 16]> = (0..addrs.len()).map(|i| [i as u8 + 1; 16]).collect();
        let writes: Vec<(usize, usize, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
        let mut blocks = vec![[0u8; 16]; addrs.len()];

        // Retrying(Checksum(raw)): the whole run is one inner call, which
        // sees it with its stripe boundaries intact.
        assert!(be.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));
        assert_eq!(calls.take_batches(), (0, 1), "one framed write batch reaches the raw backend");
        assert_eq!(calls.take(), (0, 5));
        {
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            assert!(be.read_batch_each(&stripes, &addrs, &mut bufs).iter().all(Result::is_ok));
        }
        assert_eq!(calls.take_batches(), (1, 0), "one read batch, verified after it returns");
        assert_eq!(calls.take(), (5, 0));
        assert_eq!(blocks, payloads);
        // A stripe is the batch of one stripe, a track the stripe of one.
        be.read_stripe(
            &addrs[1..5],
            &mut blocks[1..5].iter_mut().map(|b| &mut b[..]).collect::<Vec<_>>(),
        )
        .unwrap();
        be.write_track(0, 9, &payloads[0]).unwrap();
        assert_eq!(calls.take_batches(), (1, 1));
        assert_eq!(calls.take(), (1, 1));

        // The cache keeps the stripe-by-stripe default: one lookup — and
        // one miss fetch — per stripe, each a batch of one below it.
        let mut cached = BlockCacheBackend::new(be, 8 * D);
        {
            let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
            assert!(cached.read_batch_each(&stripes, &addrs, &mut bufs).iter().all(Result::is_ok));
        }
        assert_eq!(calls.take_batches(), (5, 0));
        assert_eq!(calls.take(), (5, 0));
        assert_eq!(blocks, payloads);
    }

    #[test]
    fn a_failed_miss_stripe_allocates_nothing() {
        use crate::{FaultInjectingBackend, FaultPlan};
        // Drive 1's first transfer fails; drive 0's succeeds. Neither
        // track becomes resident, so the retry by the caller re-reads both.
        let plan = FaultPlan::none().with_transient(1, 0);
        let mut c =
            BlockCacheBackend::new(FaultInjectingBackend::new(CountingBackend::new(2), plan), 8);
        let (mut a, mut b) = ([0u8; 4], [0u8; 4]);
        let outcomes = c.read_stripe_each(&[(0, 0), (1, 0)], &mut [&mut a, &mut b]);
        assert!(outcomes[0].is_ok() && outcomes[1].as_ref().is_err_and(|e| e.is_transient()));
        assert_eq!(c.resident_tracks(), 0);
        c.read_stripe(&[(0, 0), (1, 0)], &mut [&mut a, &mut b]).unwrap();
        assert_eq!(c.resident_tracks(), 2);
        assert_eq!(c.take_cache_hit_blocks(), 0);
    }

    #[test]
    fn flush_batches_into_legal_stripes_in_deterministic_order() {
        let mut c = cache(2, 16);
        // Three tracks on drive 0, one on drive 1: a legal flush needs at
        // least three stripes, each touching each drive at most once.
        for t in 0..3 {
            c.write_track(0, t, &[t as u8 + 1; 4]).unwrap();
        }
        c.write_track(1, 0, &[9u8; 4]).unwrap();
        c.flush_cache().unwrap();
        assert_eq!(c.inner.writes, 4);
        let mut buf = [0u8; 4];
        for t in 0..3 {
            c.inner.read_track(0, t, &mut buf).unwrap();
            assert_eq!(buf, [t as u8 + 1; 4]);
        }
        c.inner.read_track(1, 0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 4]);
    }

    #[test]
    fn tracks_used_accounts_for_unflushed_writes() {
        let mut c = cache(2, 8);
        c.write_track(0, 6, &[1u8; 4]).unwrap();
        assert_eq!(c.tracks_used(0), 7, "high-water covers buffered writes");
        assert_eq!(c.tracks_used(1), 0);
        c.flush_cache().unwrap();
        assert_eq!(c.tracks_used(0), 7);
    }

    #[test]
    fn sync_implies_flush() {
        let mut c = cache(1, 4);
        c.write_track(0, 0, &[5u8; 4]).unwrap();
        c.sync().unwrap();
        assert_eq!(c.inner.writes, 1);
        assert_eq!(c.dirty_tracks(), 0);
    }
}
