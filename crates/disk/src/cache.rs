//! Write-back block cache: absorb reads of resident tracks and buffer
//! writes until the next `sync()`.
//!
//! [`BlockCacheBackend`] is a [`DiskBackend`] decorator over any backend
//! stack, caching whole `B`-byte tracks; every miss or flush passes through
//! the layers below it. No [`DiskArray`](crate::DiskArray) builds one: it
//! is no part of the canonical stack, and stays only because the
//! benchmark's per-layer ladder wraps a backend in one to time cache hits
//! and spills. Its hits are tallied here, in
//! [`BlockCacheBackend::take_cache_hit_blocks`].
//!
//! Determinism: the cache holds no randomness at all. Eviction is LRU over
//! a strictly increasing access counter (every access gets a unique tick,
//! so there are never ties), flushes walk the dirty set in sorted
//! `(track, disk)` order batched into legal one-track-per-drive stripes,
//! and an identical request sequence therefore produces an identical
//! backend I/O trace — the same contract `tests/file_backend.rs` asserts
//! for memory and file drives.

use crate::backend::stripe_by_stripe;
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
/// * **Writes** are absorbed into the cache and marked dirty; they reach
///   the inner backend only when evicted or flushed.
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
            high_water: vec![0; d],
        }
    }

    /// Drain the count of block reads served from the cache since the last
    /// call.
    pub fn take_cache_hit_blocks(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
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
            self.inner.write_stripe(&[(key.0, key.1, &entry.data)])?;
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
        self.high_water[disk] = self.high_water[disk].max(track + 1);
        self.insert((disk, track), data.to_vec(), true)
    }

    /// Write every dirty track through to the inner backend. Deterministic
    /// order: dirty keys sorted by (track, disk), greedily batched into
    /// one-track-per-drive stripes. Sorting by track first keeps
    /// consecutive entries on distinct drives for striped layouts, so
    /// flushes stay close to fully D-way parallel on the engine below.
    fn flush(&mut self) -> DiskResult<()> {
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
        // reads after the flush.
        for key in dirty {
            self.map.get_mut(&key).expect("flushed key is resident").dirty = false;
        }
        Ok(())
    }

    /// Serve one stripe's resident tracks from memory; fetch only the
    /// missing subset from the inner backend, still as a single stripe so
    /// the engine's D-way overlap is preserved for the part that does real
    /// I/O.
    fn read_one_stripe(
        &mut self,
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
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
        let missed = self.inner.read_batch_each(&[miss_addrs.len()], &miss_addrs, &mut fb);
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
}

impl<B: DiskBackend> DiskBackend for BlockCacheBackend<B> {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }

    /// Stripe by stripe: one lookup, and one miss fetch, per stripe.
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        stripe_by_stripe(stripes, |at| self.read_one_stripe(&addrs[at.clone()], &mut bufs[at]))
    }

    fn write_batch_each(
        &mut self,
        _stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        writes.iter().map(|&(disk, track, data)| self.absorb_write(disk, track, data)).collect()
    }

    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk).max(self.high_water[disk])
    }

    fn sync(&mut self) -> DiskResult<()> {
        self.flush()?;
        self.inner.sync()
    }
}

/// The cache's tests, and the counting backend the fault layer's tests
/// share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ChecksumBackend, MemoryBackend, RetryPolicy, RetryingBackend};
    use std::sync::{Arc, Mutex};

    /// One batch call: whether it wrote, its stripe lengths, its tracks.
    pub(crate) type BatchCall = (bool, Vec<usize>, Vec<(usize, usize)>);

    /// Batch calls that reached a [`CountingBackend`], shared so a test
    /// can read them with the backend buried under a decorator stack.
    #[derive(Default)]
    pub(crate) struct BatchCalls(Mutex<Vec<BatchCall>>);

    impl BatchCalls {
        /// The calls since the last `drain` or `take`, in order.
        pub(crate) fn drain(&self) -> Vec<BatchCall> {
            std::mem::take(&mut self.0.lock().unwrap())
        }

        /// `((read batches, write batches), (read stripes, write stripes))`
        /// since the last call.
        fn take(&self) -> ((u64, u64), (u64, u64)) {
            let calls = self.drain();
            let sum = |write, n: fn(&BatchCall) -> usize| -> u64 {
                calls.iter().filter(|call| call.0 == write).map(|call| n(call) as u64).sum()
            };
            (
                (sum(false, |_| 1), sum(true, |_| 1)),
                (sum(false, |c| c.1.len()), sum(true, |c| c.1.len())),
            )
        }
    }

    /// A [`MemoryBackend`] wrapper tallying how many track transfers
    /// (and which batch calls) actually reach it, so tests can prove
    /// what the layers above absorbed and how they dispatched the rest.
    pub(crate) struct CountingBackend {
        inner: MemoryBackend,
        reads: u64,
        writes: u64,
        pub(crate) calls: Arc<BatchCalls>,
    }

    impl CountingBackend {
        pub(crate) fn new(d: usize) -> Self {
            CountingBackend {
                inner: MemoryBackend::new(d),
                reads: 0,
                writes: 0,
                calls: Arc::default(),
            }
        }
    }

    impl DiskBackend for CountingBackend {
        fn num_disks(&self) -> usize {
            self.inner.num_disks()
        }
        fn read_batch_each(
            &mut self,
            stripes: &[usize],
            addrs: &[(usize, usize)],
            bufs: &mut [&mut [u8]],
        ) -> TrackOutcomes {
            self.calls.0.lock().unwrap().push((false, stripes.to_vec(), addrs.to_vec()));
            self.reads += addrs.len() as u64;
            self.inner.read_batch_each(stripes, addrs, bufs)
        }
        fn write_batch_each(
            &mut self,
            stripes: &[usize],
            writes: &[(usize, usize, &[u8])],
        ) -> TrackOutcomes {
            let tracks = writes.iter().map(|&(disk, track, _)| (disk, track)).collect();
            self.calls.0.lock().unwrap().push((true, stripes.to_vec(), tracks));
            self.writes += writes.len() as u64;
            self.inner.write_batch_each(stripes, writes)
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
        c.write_stripe(&[(0, 0, &[1u8; 8])]).unwrap();
        c.write_stripe(&[(1, 0, &[2u8; 8])]).unwrap();
        assert_eq!(c.inner.writes, 0, "writes buffered, none landed");
        assert_eq!(c.dirty_tracks(), 2);
        c.flush().unwrap();
        assert_eq!(c.inner.writes, 2, "flush lands every dirty track");
        assert_eq!(c.dirty_tracks(), 0);
        // Flushing again is free: nothing is dirty.
        c.flush().unwrap();
        assert_eq!(c.inner.writes, 2);
        let mut buf = [0u8; 8];
        c.inner.read_stripe(&[(1, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn resident_reads_never_touch_the_inner_backend() {
        let mut c = cache(2, 8);
        c.write_stripe(&[(0, 3, &[7u8; 8])]).unwrap();
        let mut buf = [0u8; 8];
        for _ in 0..5 {
            c.read_stripe(&[(0, 3)], &mut [&mut buf]).unwrap();
            assert_eq!(buf, [7u8; 8]);
        }
        assert_eq!(c.inner.reads, 0);
        assert_eq!(c.take_cache_hit_blocks(), 5);
        assert_eq!(c.take_cache_hit_blocks(), 0, "draining resets the tally");
    }

    #[test]
    fn misses_read_allocate_and_stay_warm_across_flush() {
        let mut c = cache(1, 4);
        c.inner.write_stripe(&[(0, 0, &[9u8; 4])]).unwrap();
        c.inner.writes = 0;
        let mut buf = [0u8; 4];
        c.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 4]);
        assert_eq!(c.inner.reads, 1, "first read misses");
        c.flush().unwrap();
        c.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(c.inner.reads, 1, "entry survives the flush and hits");
        assert_eq!(c.take_cache_hit_blocks(), 1);
    }

    #[test]
    fn never_written_tracks_read_zero_through_the_cache() {
        let mut c = cache(2, 4);
        let mut buf = [0xAAu8; 8];
        c.read_stripe(&[(1, 5)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [0u8; 8]);
        // The zero track was allocated: the second read hits.
        c.read_stripe(&[(1, 5)], &mut [&mut buf]).unwrap();
        assert_eq!(c.inner.reads, 1);
        assert_eq!(c.take_cache_hit_blocks(), 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_writes_back_dirty_victims() {
        let mut c = cache(1, 2);
        c.write_stripe(&[(0, 0, &[1u8; 4])]).unwrap();
        c.write_stripe(&[(0, 1, &[2u8; 4])]).unwrap();
        // Touch track 0 so track 1 is the LRU victim.
        let mut buf = [0u8; 4];
        c.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        c.write_stripe(&[(0, 2, &[3u8; 4])]).unwrap();
        assert_eq!(c.resident_tracks(), 2);
        assert_eq!(c.inner.writes, 1, "the dirty victim was written back");
        c.inner.read_stripe(&[(0, 1)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [2u8; 4], "victim content landed");
        // Tracks 0 and 2 are still resident and serve hits.
        c.take_cache_hit_blocks();
        c.read_stripe(&[(0, 0)], &mut [&mut buf]).unwrap();
        c.read_stripe(&[(0, 2)], &mut [&mut buf]).unwrap();
        assert_eq!(c.take_cache_hit_blocks(), 2);
    }

    #[test]
    fn mixed_stripe_fetches_only_the_missing_subset() {
        let mut c = cache(3, 8);
        c.write_stripe(&[(0, 0, &[1u8; 4])]).unwrap();
        c.inner.write_stripe(&[(1, 0, &[2u8; 4])]).unwrap();
        c.inner.write_stripe(&[(2, 0, &[3u8; 4])]).unwrap();
        c.inner.writes = 0;
        c.inner.calls.take();
        let mut b0 = [0u8; 4];
        let mut b1 = [0u8; 4];
        let mut b2 = [0u8; 4];
        {
            let mut bufs: Vec<&mut [u8]> = vec![&mut b0, &mut b1, &mut b2];
            c.read_stripe(&[(0, 0), (1, 0), (2, 0)], &mut bufs).unwrap();
        }
        assert_eq!((b0, b1, b2), ([1u8; 4], [2u8; 4], [3u8; 4]));
        assert_eq!(c.inner.reads, 2, "only the two misses reached the backend");
        assert_eq!(c.inner.calls.take(), ((1, 0), (1, 0)), "the misses travel as one batch");
        assert_eq!(c.take_cache_hit_blocks(), 1);
        // Dirty residents must be served from the cache, not stale media.
        c.write_stripe(&[(1, 0, &[9u8; 4])]).unwrap();
        let mut buf = [0u8; 4];
        c.read_stripe(&[(1, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 4]);
    }

    fn read_into(
        be: &mut impl DiskBackend,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        blocks: &mut [[u8; 16]],
    ) {
        let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(|b| &mut b[..]).collect();
        assert!(be.read_batch_each(stripes, addrs, &mut bufs).iter().all(Result::is_ok));
    }

    /// One outer transfer — a single stripe, or a run of five — reaches the
    /// raw backend through `Retrying(Checksum(·))` as one batch with its
    /// stripe boundaries intact. The cache above them looks up, and fetches
    /// misses, one stripe at a time, and holds writes until a flush.
    #[test]
    fn one_outer_transfer_is_one_inner_batch_through_the_decorators() {
        use crate::ConsecutiveLayout;
        const D: usize = 4;
        let one_stripe = (vec![D], (0..D).map(|d| (d, 0)).collect());
        // Five regions of three blocks from global block 3: ragged first
        // and last stripes, five stripes in all.
        let run_of_five = ConsecutiveLayout::new(0, 3, 8, D).unwrap().batch(1, 5);
        assert_eq!(run_of_five.0, [1, 4, 4, 4, 2]);
        // The second value: the full legal stripes a flush packs the
        // input's tracks into, in `(track, disk)` order.
        for ((stripes, addrs), flushed) in [(one_stripe, 1), (run_of_five, 4)] {
            let raw = CountingBackend::new(D);
            let calls = Arc::clone(&raw.calls);
            let mut be = RetryingBackend::new(ChecksumBackend::new(raw, 16), RetryPolicy::new(3));
            let n = stripes.len() as u64;
            let what = format!("{stripes:?}");
            let payloads: Vec<[u8; 16]> = (0..addrs.len()).map(|i| [i as u8 + 1; 16]).collect();
            let writes: Vec<(usize, usize, &[u8])> =
                addrs.iter().zip(&payloads).map(|(&(d, t), p)| (d, t, &p[..])).collect();
            let mut blocks = vec![[0u8; 16]; addrs.len()];

            assert!(be.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));
            assert_eq!(calls.take(), ((0, 1), (0, n)), "{what}: one framed write batch");
            read_into(&mut be, &stripes, &addrs, &mut blocks);
            assert_eq!(calls.take(), ((1, 0), (n, 0)), "{what}: one read batch, then verified");
            assert_eq!(blocks, payloads, "{what}");

            // Cache(Retrying(Checksum(raw))): a cold read fetches each
            // stripe as a batch of one; the warm re-read reaches nothing.
            let mut cached = BlockCacheBackend::new(be, 8 * D);
            for cold in [1, 0] {
                read_into(&mut cached, &stripes, &addrs, &mut blocks);
                assert_eq!(calls.take(), ((cold * n, 0), (cold * n, 0)), "{what}: cold {cold}");
            }
            assert_eq!(cached.take_cache_hit_blocks(), addrs.len() as u64, "{what}");
            assert_eq!(blocks, payloads, "{what}");
            assert!(cached.write_batch_each(&stripes, &writes).iter().all(Result::is_ok));
            assert_eq!(calls.take(), ((0, 0), (0, 0)), "{what}: absorbed");
            cached.flush().unwrap();
            assert_eq!(calls.take(), ((0, flushed), (0, flushed)), "{what}: one batch a stripe");
        }
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
        let outcomes = c.read_batch_each(&[2], &[(0, 0), (1, 0)], &mut [&mut a, &mut b]);
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
            c.write_stripe(&[(0, t, &[t as u8 + 1; 4])]).unwrap();
        }
        c.write_stripe(&[(1, 0, &[9u8; 4])]).unwrap();
        c.flush().unwrap();
        assert_eq!(c.inner.writes, 4);
        let mut buf = [0u8; 4];
        for t in 0..3 {
            c.inner.read_stripe(&[(0, t)], &mut [&mut buf]).unwrap();
            assert_eq!(buf, [t as u8 + 1; 4]);
        }
        c.inner.read_stripe(&[(1, 0)], &mut [&mut buf]).unwrap();
        assert_eq!(buf, [9u8; 4]);
    }

    #[test]
    fn tracks_used_accounts_for_unflushed_writes() {
        let mut c = cache(2, 8);
        c.write_stripe(&[(0, 6, &[1u8; 4])]).unwrap();
        assert_eq!(c.tracks_used(0), 7, "high-water covers buffered writes");
        assert_eq!(c.tracks_used(1), 0);
        c.flush().unwrap();
        assert_eq!(c.tracks_used(0), 7);
    }

    #[test]
    fn sync_implies_flush() {
        let mut c = cache(1, 4);
        c.write_stripe(&[(0, 0, &[5u8; 4])]).unwrap();
        c.sync().unwrap();
        assert_eq!(c.inner.writes, 1);
        assert_eq!(c.dirty_tracks(), 0);
    }
}
