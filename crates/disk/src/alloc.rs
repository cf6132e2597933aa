//! Track allocation.
//!
//! The simulation holds two kinds of disk space, both from one allocator
//! that knows, per drive, which tracks are held:
//!
//! * **Regions** — `t` consecutive tracks *at the same positions on every
//!   drive* (contexts, and one superstep's reorganized message groups in
//!   standard consecutive format). [`TrackAllocator::reserve_region`]
//!   takes the lowest base at which `t` tracks are free on every drive —
//!   first fit — and a region can be released again, so the space of a
//!   region whose contents are consumed is reused by the next one.
//!   [`TrackAllocator::reserve_region_over`] also lays a region over held
//!   tracks whose contents are consumed before it is written: Algorithm 2
//!   puts a superstep's final region over the scratch tracks its Step 1
//!   reads, so the superstep's messages hold two bands of tracks at once,
//!   not three.
//! * **Single tracks** — one track on a *specific* drive, taken as message
//!   blocks arrive during the Writing Phase (standard linked format:
//!   "whenever we write a block of bucket i to disk D_j, we allocate a free
//!   track on D_j") and while Algorithm 2 stages them.
//!   [`TrackAllocator::alloc_track`] hands out the drive's lowest free
//!   track.
//!
//! Held tracks are one bit each. Each drive also keeps a mark below which
//! every track is held, so the search for the lowest free track starts
//! there and moves past each run of held tracks once, not once per block.
//!
//! A drive's *frontier* is one past the highest track it ever handed out.
//! Releasing space never lowers it, so [`TrackAllocator::max_frontier`] is
//! the run's peak footprint — the space Lemma 1 bounds by `O(vμ/DB)`.

use crate::{DiskError, DiskResult};

/// Allocator of tracks for an array of `D` drives.
#[derive(Debug, Clone)]
pub struct TrackAllocator {
    /// Per drive, one bit per track (bit `t % 64` of word `t / 64`), set
    /// while the track is held. Tracks past a drive's words are free.
    held: Vec<Vec<u64>>,
    /// Per drive, one past the highest track ever handed out.
    frontier: Vec<usize>,
    /// Per drive, a track below which every track is held.
    first_free: Vec<usize>,
}

impl TrackAllocator {
    /// A fresh allocator for `num_disks` drives with every track free.
    pub fn new(num_disks: usize) -> Self {
        TrackAllocator {
            held: vec![Vec::new(); num_disks],
            frontier: vec![0; num_disks],
            first_free: vec![0; num_disks],
        }
    }

    /// Number of drives managed.
    pub fn num_disks(&self) -> usize {
        self.frontier.len()
    }

    /// Reserve `tracks_per_disk` consecutive tracks at a common base track
    /// on *every* drive; returns the base track: the lowest one at which
    /// that many tracks are free on all drives. Reserving nothing holds
    /// nothing and returns 0.
    pub fn reserve_region(&mut self, tracks_per_disk: usize) -> usize {
        if tracks_per_disk == 0 {
            return 0;
        }
        // Below every drive's mark all tracks are held, so no run of free
        // tracks starts before the lowest mark.
        let from = self.first_free.iter().copied().min().unwrap_or(0);
        let base = self.first_fit(tracks_per_disk, from);
        self.hold_region(base, tracks_per_disk);
        base
    }

    /// Reserve a region as [`TrackAllocator::reserve_region`] does, over
    /// held tracks whose contents are `consumed` — read already, or to be
    /// read before the region is written. Those tracks count as free for
    /// the search, which starts at the lowest of them; the ones the region
    /// covers become the region's, and the others stay held for the caller
    /// to free. With nothing consumed this is
    /// [`TrackAllocator::reserve_region`].
    pub fn reserve_region_over<I>(&mut self, tracks_per_disk: usize, consumed: I) -> usize
    where
        I: IntoIterator<Item = (usize, usize)> + Clone,
    {
        let from = consumed.clone().into_iter().map(|(_, track)| track).min();
        let Some(from) = from.filter(|_| tracks_per_disk > 0) else {
            return self.reserve_region(tracks_per_disk);
        };
        for (disk, track) in consumed.clone() {
            debug_assert!(self.holds(disk, track, 1), "consuming a free track");
            clear_range(&mut self.held[disk], track, track + 1);
        }
        let base = self.first_fit(tracks_per_disk, from);
        self.hold_region(base, tracks_per_disk);
        for (disk, track) in consumed {
            if !(base..base + tracks_per_disk).contains(&track) {
                set_range(&mut self.held[disk], track, track + 1);
            }
        }
        base
    }

    /// The lowest base at or above track `from` at which `tracks_per_disk`
    /// tracks are free on every drive.
    fn first_fit(&self, tracks_per_disk: usize, from: usize) -> usize {
        let words = self.held.iter().map(Vec::len).max().unwrap_or(0);
        let mut run = from;
        for w in from / 64..words {
            let mut union = self.held.iter().fold(0, |u, h| u | h.get(w).copied().unwrap_or(0));
            if w == from / 64 {
                // Tracks below `from` are out of the search.
                union &= u64::MAX << (from % 64);
            }
            while union != 0 {
                let held = w * 64 + union.trailing_zeros() as usize;
                if held >= run + tracks_per_disk {
                    return run;
                }
                run = held + 1;
                union &= union - 1;
            }
        }
        run
    }

    /// Hold `base..base + tracks_per_disk` on every drive.
    fn hold_region(&mut self, base: usize, tracks_per_disk: usize) {
        for disk in 0..self.num_disks() {
            set_range(&mut self.held[disk], base, base + tracks_per_disk);
            self.frontier[disk] = self.frontier[disk].max(base + tracks_per_disk);
        }
    }

    /// Release a region [`TrackAllocator::reserve_region`] returned: its
    /// tracks are free again on every drive.
    pub fn release_region(&mut self, base: usize, tracks_per_disk: usize) {
        if tracks_per_disk == 0 {
            return;
        }
        for disk in 0..self.num_disks() {
            debug_assert!(self.holds(disk, base, tracks_per_disk), "releasing a free region");
            clear_range(&mut self.held[disk], base, base + tracks_per_disk);
            self.first_free[disk] = self.first_free[disk].min(base);
        }
    }

    /// Allocate one track on drive `disk`: its lowest free track.
    pub fn alloc_track(&mut self, disk: usize) -> usize {
        let words = &mut self.held[disk];
        let mut w = self.first_free[disk] / 64;
        while words.get(w) == Some(&u64::MAX) {
            w += 1;
        }
        // Every track below the mark is held, so the word's lowest free
        // bit is at or above it.
        let track = w * 64 + words.get(w).map_or(0, |&word| word.trailing_ones() as usize);
        set_range(words, track, track + 1);
        self.first_free[disk] = track + 1;
        self.frontier[disk] = self.frontier[disk].max(track + 1);
        track
    }

    /// Free one track of drive `disk`.
    pub fn free_track(&mut self, disk: usize, track: usize) {
        debug_assert!(self.holds(disk, track, 1), "freeing a free track");
        clear_range(&mut self.held[disk], track, track + 1);
        self.first_free[disk] = self.first_free[disk].min(track);
    }

    /// Free many `(disk, track)`s at once.
    pub fn free_tracks<I: IntoIterator<Item = (usize, usize)>>(&mut self, iter: I) {
        for (disk, track) in iter {
            self.free_track(disk, track);
        }
    }

    /// Whether drive `disk` holds all of tracks `base..base + tracks`.
    pub fn holds(&self, disk: usize, base: usize, tracks: usize) -> bool {
        let words = &self.held[disk];
        (base..base + tracks).all(|t| words.get(t / 64).is_some_and(|w| w >> (t % 64) & 1 == 1))
    }

    /// Tracks drive `disk` holds now.
    pub fn held_tracks(&self, disk: usize) -> usize {
        self.held[disk].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// One past the highest track drive `disk` ever handed out.
    pub fn frontier(&self, disk: usize) -> usize {
        self.frontier[disk]
    }

    /// Largest frontier across all drives — the array's peak disk-space
    /// usage in tracks per drive, the quantity bounded by `O(vμ/DB)` in
    /// Lemma 1.
    pub fn max_frontier(&self) -> usize {
        self.frontier.iter().copied().max().unwrap_or(0)
    }

    /// Snapshot the allocator's full state for a durable checkpoint: per
    /// drive, the frontier and the free tracks below it, ascending.
    pub fn export_state(&self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let free = (0..self.num_disks())
            .map(|disk| {
                let words = &self.held[disk];
                (0..self.frontier[disk])
                    .filter(|&t| words.get(t / 64).is_none_or(|w| w >> (t % 64) & 1 == 0))
                    .collect()
            })
            .collect();
        (self.frontier.clone(), free)
    }

    /// Restore a state previously exported with
    /// [`TrackAllocator::export_state`]: every track below a drive's
    /// frontier is held except the listed free ones. A state that names a
    /// different drive count, a free track at or past its drive's frontier
    /// or the same free track twice is [`DiskError::InvalidConfig`], and
    /// leaves the allocator as it was.
    pub fn restore_state(&mut self, frontier: Vec<usize>, free: Vec<Vec<usize>>) -> DiskResult<()> {
        if frontier.len() != self.num_disks() || free.len() != self.num_disks() {
            return Err(DiskError::InvalidConfig("allocator state names another drive count"));
        }
        let mut held = Vec::with_capacity(frontier.len());
        let mut first_free = Vec::with_capacity(frontier.len());
        for (&top, free) in frontier.iter().zip(&free) {
            if free.iter().any(|&t| t >= top) {
                return Err(DiskError::InvalidConfig(
                    "allocator state frees a track past its frontier",
                ));
            }
            let mut words = Vec::new();
            set_range(&mut words, 0, top);
            for &t in free {
                if words[t / 64] >> (t % 64) & 1 == 0 {
                    return Err(DiskError::InvalidConfig("allocator state frees a track twice"));
                }
                clear_range(&mut words, t, t + 1);
            }
            first_free.push(free.iter().copied().min().unwrap_or(top));
            held.push(words);
        }
        *self = TrackAllocator { held, frontier, first_free };
        Ok(())
    }
}

/// Set bits `start..end`, growing `words` as needed.
fn set_range(words: &mut Vec<u64>, start: usize, end: usize) {
    if end > words.len() * 64 {
        words.resize(end.div_ceil(64), 0);
    }
    for t in start..end {
        words[t / 64] |= 1 << (t % 64);
    }
}

/// Clear bits `start..end` (all within `words`).
fn clear_range(words: &mut [u64], start: usize, end: usize) {
    for t in start..end {
        words[t / 64] &= !(1 << (t % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_aligned_across_disks() {
        let mut a = TrackAllocator::new(3);
        let r0 = a.reserve_region(10);
        assert_eq!(r0, 0);
        let r1 = a.reserve_region(5);
        assert_eq!(r1, 10);
        assert_eq!(a.max_frontier(), 15);
    }

    #[test]
    fn scratch_allocation_is_per_disk() {
        let mut a = TrackAllocator::new(2);
        assert_eq!(a.alloc_track(0), 0);
        assert_eq!(a.alloc_track(0), 1);
        assert_eq!(a.alloc_track(1), 0);
        // A region reserved afterwards starts above every held track.
        let base = a.reserve_region(4);
        assert_eq!(base, 2);
        assert_eq!(a.frontier(0), 6);
        assert_eq!(a.frontier(1), 6);
        // Drive 1's track 1 lies below the region and is still free.
        assert_eq!(a.alloc_track(1), 1);
        assert_eq!(a.alloc_track(1), 6);
    }

    #[test]
    fn freed_tracks_are_recycled() {
        let mut a = TrackAllocator::new(1);
        let t0 = a.alloc_track(0);
        let t1 = a.alloc_track(0);
        a.free_track(0, t0);
        assert_eq!(a.alloc_track(0), t0);
        a.free_tracks([(0, t1)]);
        assert_eq!(a.alloc_track(0), t1);
        assert_eq!(a.max_frontier(), 2);
    }

    #[test]
    fn a_released_region_is_reused_first_fit() {
        let mut a = TrackAllocator::new(2);
        let ctx = a.reserve_region(3);
        let r = a.reserve_region(8);
        let above = a.reserve_region(2);
        assert_eq!((ctx, r, above), (0, 3, 11));
        a.release_region(r, 8);
        // A smaller region fits the hole at its lowest track...
        assert_eq!(a.reserve_region(5), 3);
        // ...a larger one does not, and goes past every held track...
        assert_eq!(a.reserve_region(4), 13);
        // ...and what is left of the hole takes the next one that fits.
        assert_eq!(a.reserve_region(3), 8);
        // A single track held on one drive keeps a region off that track
        // on every drive.
        a.release_region(8, 3);
        assert_eq!(a.alloc_track(1), 8);
        assert_eq!(a.reserve_region(2), 9);
        assert_eq!(a.max_frontier(), 17);
    }

    #[test]
    fn a_region_over_consumed_tracks_starts_at_the_lowest_of_them() {
        let mut a = TrackAllocator::new(2);
        assert_eq!(a.reserve_region(2), 0);
        let fetched = a.reserve_region(1);
        let scratch: Vec<(usize, usize)> =
            [0, 0, 0, 1, 1].into_iter().map(|disk| (disk, a.alloc_track(disk))).collect();
        assert_eq!(scratch, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4)]);
        a.release_region(fetched, 1);
        // Plain first fit steps over the scratch band to track 6; over the
        // consumed tracks the region starts at the lowest of them, not in
        // the free track below.
        assert_eq!(a.clone().reserve_region(2), 6);
        assert_eq!(a.reserve_region_over(2, scratch.iter().copied()), 3);
        assert!((0..2).all(|disk| a.holds(disk, 3, 2)));
        // The consumed track past the region stays held, for its owner to
        // free; the free track below is the next single track handed out.
        assert!(a.holds(0, 5, 1) && !a.holds(1, 5, 1));
        assert_eq!((a.alloc_track(1), a.alloc_track(1), a.alloc_track(0)), (2, 5, 2));
        assert_eq!(a.max_frontier(), 6);
        // Nothing consumed is plain first fit; nothing reserved holds nothing.
        assert_eq!(a.reserve_region_over(1, std::iter::empty()), 6);
        assert_eq!(a.reserve_region_over(0, scratch.iter().copied()), 0);
        assert_eq!((a.held_tracks(0), a.held_tracks(1)), (7, 7));
    }

    #[test]
    fn the_lowest_free_track_comes_first() {
        let mut a = TrackAllocator::new(1);
        let tracks: Vec<usize> = (0..200).map(|_| a.alloc_track(0)).collect();
        assert_eq!(tracks, (0..200).collect::<Vec<_>>());
        for t in [150, 7, 64, 199, 63] {
            a.free_track(0, t);
        }
        let again: Vec<usize> = (0..6).map(|_| a.alloc_track(0)).collect();
        assert_eq!(again, [7, 63, 64, 150, 199, 200]);
        // A region in the way is stepped over, not split.
        a.free_track(0, 10);
        let base = a.reserve_region(70);
        assert_eq!(base, 201);
        assert_eq!(a.alloc_track(0), 10);
        assert_eq!(a.alloc_track(0), 271);
    }

    #[test]
    fn the_frontier_never_drops() {
        let mut a = TrackAllocator::new(2);
        let base = a.reserve_region(40);
        let t = a.alloc_track(1);
        assert_eq!((a.frontier(0), a.frontier(1)), (40, 41));
        a.release_region(base, 40);
        a.free_track(1, t);
        assert_eq!((a.frontier(0), a.frontier(1)), (40, 41));
        assert_eq!((a.held_tracks(0), a.held_tracks(1)), (0, 0));
        assert_eq!(a.reserve_region(10), 0);
        assert_eq!(a.max_frontier(), 41);
    }

    #[test]
    fn state_round_trips_and_bad_states_are_typed() {
        let mut a = TrackAllocator::new(2);
        a.reserve_region(5);
        let (t0, t1) = (a.alloc_track(0), a.alloc_track(1));
        a.reserve_region(3);
        a.free_track(0, t0);
        a.release_region(0, 2);
        let (frontier, free) = a.export_state();
        assert_eq!(frontier, [9, 9]);
        assert_eq!(free, [vec![0, 1, 5], vec![0, 1]]);
        let mut b = TrackAllocator::new(2);
        b.restore_state(frontier.clone(), free.clone()).unwrap();
        assert_eq!(b.export_state(), a.export_state());
        assert!(b.holds(1, t1, 1) && !b.holds(0, t0, 1));
        assert_eq!((b.alloc_track(0), a.alloc_track(0)), (0, 0));
        assert_eq!(b.reserve_region(2), a.reserve_region(2));

        let mut c = TrackAllocator::new(2);
        assert!(c.restore_state(vec![9], free.clone()).is_err());
        assert!(c.restore_state(frontier.clone(), vec![vec![9], vec![]]).is_err());
        assert!(c.restore_state(frontier, vec![vec![1, 1], vec![]]).is_err());
        assert_eq!(c.max_frontier(), 0, "a rejected state leaves the allocator as it was");
    }
}
