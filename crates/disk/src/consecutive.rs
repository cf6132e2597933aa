//! *Standard consecutive format* (Definition 2 of the paper) and the
//! context-layout arithmetic of Algorithm 1, Steps 1(a)/1(e).
//!
//! A collection of records stored on `D` disks is in standard consecutive
//! format if (i) the records are blocked, (ii) per-disk block counts differ
//! by at most one, and (iii) on each disk the blocks occupy consecutive
//! tracks.
//!
//! The paper places the `i`-th block of context `V_j` (each context is
//! `μ/B` blocks) on disk `(i + j·(μ/B)) mod D`, track
//! `⌊(i + j·(μ/B)) / D⌋`. Writing `g = j·(μ/B) + i` for the *global block
//! index*, this is simply `disk = g mod D`, `track = base + g div D` — a
//! round-robin stripe. A run of `k` consecutive regions is therefore a run
//! of `k·(μ/B)` consecutive global blocks and can be moved with full
//! `D`-way parallelism, `D` blocks per I/O operation.
//!
//! It is also, on every drive, a run of *consecutive tracks* — condition
//! (iii) is what the format is for. [`ConsecutiveLayout::batch`] therefore
//! describes such a run as one batch of stripes, which
//! [`crate::DiskArray::submit_read_batch`] /
//! [`crate::DiskArray::submit_write_batch`] hand to the drives as one
//! command and one sequential transfer each, counted stripe by stripe as
//! the model charges it.

use crate::DiskError;

/// Layout of `num_regions` equal-sized regions (contexts or message groups)
/// striped round-robin across `num_disks` drives starting at `base_track`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsecutiveLayout {
    /// First track of the layout on every drive.
    pub base_track: usize,
    /// Blocks per region (`μ/B` for contexts).
    pub blocks_per_region: usize,
    /// Number of regions (`v` for contexts).
    pub num_regions: usize,
    /// `D`.
    pub num_disks: usize,
}

impl ConsecutiveLayout {
    /// Create a layout, validating shape parameters.
    pub fn new(
        base_track: usize,
        blocks_per_region: usize,
        num_regions: usize,
        num_disks: usize,
    ) -> Result<Self, DiskError> {
        if num_disks == 0 {
            return Err(DiskError::InvalidConfig("layout needs at least one disk"));
        }
        if blocks_per_region == 0 {
            return Err(DiskError::InvalidConfig("blocks_per_region must be >= 1"));
        }
        Ok(ConsecutiveLayout { base_track, blocks_per_region, num_regions, num_disks })
    }

    /// Total blocks across all regions.
    #[inline]
    pub fn total_blocks(&self) -> usize {
        self.blocks_per_region * self.num_regions
    }

    /// Tracks this layout occupies on each drive (`⌈v·(μ/B)/D⌉`).
    #[inline]
    pub fn tracks_per_disk(&self) -> usize {
        self.total_blocks().div_ceil(self.num_disks)
    }

    /// Global block index of block `block` of region `region`.
    #[inline]
    pub fn global_index(&self, region: usize, block: usize) -> usize {
        debug_assert!(region < self.num_regions);
        debug_assert!(block < self.blocks_per_region);
        region * self.blocks_per_region + block
    }

    /// `(disk, track)` of block `block` of region `region` — the paper's
    /// `(i + j·(μ/B)) mod D` / `⌊(i + j·(μ/B))/D⌋` mapping.
    #[inline]
    pub fn location(&self, region: usize, block: usize) -> (usize, usize) {
        let g = self.global_index(region, block);
        (g % self.num_disks, self.base_track + g / self.num_disks)
    }

    /// The blocks of regions `[first, first + count)` as one batch of
    /// parallel stripes, in the form [`crate::DiskArray::submit_read_batch`]
    /// takes: the stripe lengths, and every block's `(disk, track)` in
    /// global-index order. Each stripe touches each drive at most once, so
    /// it is a legal single parallel I/O operation, and all but the first
    /// and last use all `D` drives. On every drive the batch's tracks are
    /// consecutive (Definition 2 (iii)), which is what lets the array move
    /// the whole run with one sequential transfer per drive while still
    /// charging one operation per stripe.
    pub fn batch(&self, first_region: usize, count: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        if count == 0 {
            return (Vec::new(), Vec::new());
        }
        let start = self.global_index(first_region, 0);
        let end = start + count * self.blocks_per_region; // exclusive
        let addrs = (start..end)
            .map(|g| (g % self.num_disks, self.base_track + g / self.num_disks))
            .collect();
        let mut stripes = Vec::with_capacity((end - start).div_ceil(self.num_disks) + 1);
        let mut g = start;
        while g < end {
            // A stripe is a maximal run of global indices mapping to
            // distinct drives; since disk = g mod D, that is the run up to
            // the next multiple of D (clipped to the range end).
            let run = (self.num_disks - g % self.num_disks).min(end - g);
            stripes.push(run);
            g += run;
        }
        (stripes, addrs)
    }

    /// [`ConsecutiveLayout::batch`] with each stripe's addresses in a
    /// vector of its own. No transfer path calls it any more; it stays for
    /// `tests/prop_disk.rs`, which checks stripe legality through it.
    pub fn stripes(&self, first_region: usize, count: usize) -> Vec<Vec<(usize, usize)>> {
        let (stripes, addrs) = self.batch(first_region, count);
        let mut rest = addrs.as_slice();
        (stripes.iter())
            .map(|&len| {
                let (stripe, tail) = rest.split_at(len);
                rest = tail;
                stripe.to_vec()
            })
            .collect()
    }
}

/// Check Definition 2 over a set of `(disk, track)` block locations:
/// per-disk counts differ by at most one and each disk's tracks are
/// consecutive. Returns the per-disk track ranges on success.
pub fn check_consecutive_format(
    locations: &[(usize, usize)],
    num_disks: usize,
) -> Result<Vec<Option<(usize, usize)>>, String> {
    let mut per_disk: Vec<Vec<usize>> = vec![Vec::new(); num_disks];
    for &(d, t) in locations {
        if d >= num_disks {
            return Err(format!("disk {d} out of range"));
        }
        per_disk[d].push(t);
    }
    let counts: Vec<usize> = per_disk.iter().map(Vec::len).collect();
    let (min, max) =
        (counts.iter().copied().min().unwrap_or(0), counts.iter().copied().max().unwrap_or(0));
    if max - min > 1 {
        return Err(format!("per-disk block counts differ by more than one: {counts:?}"));
    }
    let mut ranges = Vec::with_capacity(num_disks);
    for (d, tracks) in per_disk.iter_mut().enumerate() {
        if tracks.is_empty() {
            ranges.push(None);
            continue;
        }
        tracks.sort_unstable();
        for w in tracks.windows(2) {
            if w[1] != w[0] + 1 {
                return Err(format!("disk {d}: tracks not consecutive ({} then {})", w[0], w[1]));
            }
        }
        ranges.push(Some((tracks[0], *tracks.last().unwrap())));
    }
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_matches_paper_formula() {
        // μ/B = 3 blocks per context, D = 4.
        let l = ConsecutiveLayout::new(10, 3, 8, 4).unwrap();
        for j in 0..8 {
            for i in 0..3 {
                let (disk, track) = l.location(j, i);
                assert_eq!(disk, (i + j * 3) % 4);
                assert_eq!(track, 10 + (i + j * 3) / 4);
            }
        }
    }

    #[test]
    fn layout_is_consecutive_format() {
        let l = ConsecutiveLayout::new(0, 3, 8, 4).unwrap();
        let locs: Vec<(usize, usize)> = (0..8)
            .flat_map(|j| (0..3).map(move |i| (j, i)))
            .map(|(j, i)| l.location(j, i))
            .collect();
        let ranges = check_consecutive_format(&locs, 4).unwrap();
        // 24 blocks over 4 disks = 6 tracks each, starting at 0.
        for r in ranges {
            assert_eq!(r, Some((0, 5)));
        }
    }

    #[test]
    fn stripes_touch_each_disk_once_and_cover_all_blocks() {
        let l = ConsecutiveLayout::new(5, 3, 8, 4).unwrap();
        let stripes = l.stripes(2, 3); // regions 2,3,4 -> 9 blocks
        let total: usize = stripes.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
        for s in &stripes {
            let mut disks: Vec<usize> = s.iter().map(|&(d, _)| d).collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), s.len(), "stripe reuses a disk: {s:?}");
        }
        // Interior stripes are full width.
        for s in &stripes[1..stripes.len().saturating_sub(1)] {
            assert_eq!(s.len(), 4);
        }
        // Blocks are exactly the layout's addresses for those regions.
        let mut got: Vec<(usize, usize)> = stripes.into_iter().flatten().collect();
        let mut want: Vec<(usize, usize)> = (2..5)
            .flat_map(|j| (0..3).map(move |i| (j, i)))
            .map(|(j, i)| l.location(j, i))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn io_op_count_is_ceil_blocks_over_d() {
        // Lemma 1: reading k contexts of μ/B blocks takes ⌈kμ/DB⌉ ops when
        // the run starts on a disk boundary.
        let l = ConsecutiveLayout::new(0, 4, 16, 4).unwrap();
        let stripes = l.stripes(0, 16);
        assert_eq!(stripes.len(), (16 * 4) / 4);
    }

    #[test]
    fn detector_rejects_gaps_and_imbalance() {
        // Gap on disk 0.
        assert!(check_consecutive_format(&[(0, 0), (0, 2)], 2).is_err());
        // Imbalance of two.
        assert!(check_consecutive_format(&[(0, 0), (0, 1), (1, 0), (0, 2)], 2).is_err());
        // Fine: counts 2 and 1.
        assert!(check_consecutive_format(&[(0, 0), (0, 1), (1, 0)], 2).is_ok());
    }

    #[test]
    fn empty_and_degenerate_layouts() {
        assert!(ConsecutiveLayout::new(0, 0, 4, 4).is_err());
        assert!(ConsecutiveLayout::new(0, 1, 4, 0).is_err());
        let l = ConsecutiveLayout::new(0, 1, 0, 2).unwrap();
        assert_eq!(l.tracks_per_disk(), 0);
        assert!(l.stripes(0, 0).is_empty());
    }
}
