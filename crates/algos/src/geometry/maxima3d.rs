//! CGM 3D maxima — Table 1, Group B. A point is *maximal* when no other
//! point strictly dominates it in all three coordinates.
//!
//! λ = O(1): sort by `x` (CGM sample sort), then every processor builds
//! the 2D `(y, z)` staircase of its chunk and sends it to all
//! lower-numbered processors; a point survives if neither its own chunk's
//! suffix nor any higher chunk's staircase strictly dominates its `(y, z)`.
//!
//! Requires **pairwise distinct x coordinates** (checked by the driver):
//! chunk boundaries of the x-sort are then strict, so "higher chunk" means
//! "strictly larger x". This is the usual general-position assumption; the
//! sequential reference handles arbitrary inputs.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::geometry::point::Point3;
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// A 2D staircase over `(y, z)`: the set of points not strictly dominated
/// in `(y, z)`, kept sorted by ascending `y` with strictly descending `z`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Staircase {
    entries: Vec<(i64, i64)>, // (y, z), y ascending, z strictly descending
}

impl Staircase {
    /// Build from arbitrary `(y, z)` pairs.
    pub fn build(mut pts: Vec<(i64, i64)>) -> Self {
        pts.sort_unstable_by_key(|&(y, z)| (std::cmp::Reverse(y), std::cmp::Reverse(z)));
        let mut entries: Vec<(i64, i64)> = Vec::new();
        let mut best_z = i64::MIN;
        for (y, z) in pts {
            if z > best_z {
                entries.push((y, z));
                best_z = z;
            }
        }
        entries.reverse();
        Staircase { entries }
    }

    /// Does some staircase point strictly dominate `(y, z)` (both
    /// coordinates strictly larger)?
    pub fn dominates(&self, y: i64, z: i64) -> bool {
        // First entry with y' > y; its z is the max z among all y' > y
        // because z decreases as y increases... it *increases* towards
        // smaller y, so the max z among entries with y' > y is attained at
        // the smallest such y'.
        let idx = self.entries.partition_point(|&(ey, _)| ey <= y);
        idx < self.entries.len() && self.entries[idx].1 > z
    }

    /// Insert one point, keeping the staircase invariant (amortized
    /// O(log n) plus removals).
    pub fn insert(&mut self, y: i64, z: i64) {
        // Skip if some entry weakly dominates (y', z') ≥ (y, z).
        let idx = self.entries.partition_point(|&(ey, _)| ey < y);
        if idx < self.entries.len() && self.entries[idx].1 >= z {
            return; // entry with y' ≥ y and z' ≥ z exists
        }
        // Remove entries weakly dominated by the new point: y' ≤ y, z' ≤ z.
        // They form a suffix of entries[..idx] (z grows towards smaller y),
        // plus possibly one same-y entry at idx with smaller z.
        let end = if idx < self.entries.len() && self.entries[idx].0 == y { idx + 1 } else { idx };
        let mut first = idx;
        while first > 0 && self.entries[first - 1].1 <= z {
            first -= 1;
        }
        self.entries.splice(first..end, [(y, z)]);
    }

    /// Raw entries (for message transport).
    pub fn entries(&self) -> &[(i64, i64)] {
        &self.entries
    }

    /// Reconstruct from transported entries (already staircase-shaped).
    pub fn from_entries(entries: Vec<(i64, i64)>) -> Self {
        Staircase { entries }
    }
}

/// State of the maxima sweep stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaximaState {
    /// x-sorted points of this chunk.
    pub pts: Vec<Point3>,
    /// Surviving maximal points (output).
    pub maxima: Vec<Point3>,
}
impl_serial_struct!(MaximaState { pts, maxima });

/// The staircase-exchange BSP program (run after a CGM sort by x).
#[derive(Debug, Clone)]
pub struct MaximaSweep {
    /// ⌈n/v⌉ for sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
}

impl BspProgram for MaximaSweep {
    type State = MaximaState;
    type Msg = Vec<(i64, i64)>;

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<Vec<(i64, i64)>>,
        state: &mut MaximaState,
    ) -> Step {
        match step {
            0 => {
                let stair = Staircase::build(state.pts.iter().map(|p| (p.y, p.z)).collect());
                for dst in 0..mb.pid() {
                    mb.send(dst, stair.entries().to_vec());
                }
                Step::Continue
            }
            _ => {
                let received: Vec<Staircase> = mb
                    .take_incoming()
                    .into_iter()
                    .map(|e| Staircase::from_entries(e.msg))
                    .collect();
                // Sweep own chunk right-to-left (descending x): a point is
                // killed by its chunk's strict suffix or any higher chunk.
                let mut local = Staircase::default();
                let mut maxima = Vec::new();
                for p in state.pts.iter().rev() {
                    let dominated =
                        local.dominates(p.y, p.z) || received.iter().any(|s| s.dominates(p.y, p.z));
                    if !dominated {
                        maxima.push(*p);
                    }
                    local.insert(p.y, p.z);
                }
                maxima.reverse();
                state.maxima = maxima;
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 24 * (2 * self.chunk + 4) + 24 * self.chunk
    }

    fn max_comm_bytes(&self) -> usize {
        // A processor may broadcast its staircase (≤ chunk entries) to all
        // lower processors, and receive up to v staircases.
        16 * self.chunk * self.v + 40 * self.v + 256
    }
}

/// Maximal points of `points` (strict dominance), in ascending `(x, y, z)`
/// order. Requires pairwise distinct x coordinates.
pub fn cgm_maxima3d<E: Executor>(
    exec: &E,
    v: usize,
    points: Vec<Point3>,
) -> AlgoResult<Vec<Point3>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if points.is_empty() {
        return Ok(points);
    }
    let mut xs: Vec<i64> = points.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    if xs.windows(2).any(|w| w[0] == w[1]) {
        return Err(AlgoError::Input(
            "cgm_maxima3d requires pairwise distinct x coordinates".into(),
        ));
    }
    let n = points.len();
    let sorted = cgm_sort(exec, v, points)?;
    let prog = MaximaSweep { chunk: n.div_ceil(v).max(1), v };
    let states = distribute(sorted, v)
        .into_iter()
        .map(|pts| MaximaState { pts, maxima: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;
    Ok(res.states.into_iter().flat_map(|s| s.maxima).collect())
}

/// Sequential reference (handles arbitrary inputs, including equal x):
/// O(n²) pairwise check, used as ground truth.
pub fn seq_maxima3d(points: &[Point3]) -> Vec<Point3> {
    let mut out: Vec<Point3> = points
        .iter()
        .copied()
        .filter(|p| !points.iter().any(|q| q.x > p.x && q.y > p.y && q.z > p.z))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<i64> = (0..n as i64).collect();
        xs.shuffle(&mut rng);
        xs.into_iter()
            .map(|x| Point3::new(x, signed(&mut rng, -100..100), signed(&mut rng, -100..100)))
            .collect()
    }

    #[test]
    fn staircase_dominance() {
        let s = Staircase::build(vec![(0, 10), (5, 5), (10, 1), (3, 3)]);
        assert!(s.dominates(-1, 9)); // (0,10)
        assert!(s.dominates(4, 4)); // (5,5)
        assert!(!s.dominates(10, 1)); // nothing strictly beyond
        assert!(!s.dominates(0, 10)); // strict: equal doesn't dominate
        assert!(s.dominates(9, 0)); // (10,1)
        assert!(!s.dominates(11, 0));
    }

    #[test]
    fn matches_reference_on_random_points() {
        for seed in [8, 9, 10] {
            let pts = random_points(300, seed);
            let mut want = seq_maxima3d(&pts);
            want.sort_unstable();
            let mut got = cgm_maxima3d(&SeqExecutor, 6, pts).unwrap();
            got.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn single_chain_keeps_only_top() {
        // Strictly increasing in all coords: only the last is maximal.
        let pts: Vec<Point3> = (0..50).map(|i| Point3::new(i, i, i)).collect();
        let got = cgm_maxima3d(&SeqExecutor, 4, pts).unwrap();
        assert_eq!(got, vec![Point3::new(49, 49, 49)]);
    }

    #[test]
    fn anti_chain_keeps_everything() {
        // x up, y down: nothing dominates anything.
        let pts: Vec<Point3> = (0..30).map(|i| Point3::new(i, -i, 0)).collect();
        let got = cgm_maxima3d(&SeqExecutor, 4, pts.clone()).unwrap();
        assert_eq!(got.len(), 30);
    }

    #[test]
    fn duplicate_x_rejected() {
        let pts = vec![Point3::new(1, 2, 3), Point3::new(1, 5, 6)];
        assert!(matches!(cgm_maxima3d(&SeqExecutor, 2, pts), Err(AlgoError::Input(_))));
    }

    #[test]
    fn empty_input() {
        assert!(cgm_maxima3d(&SeqExecutor, 3, vec![]).unwrap().is_empty());
    }
}
