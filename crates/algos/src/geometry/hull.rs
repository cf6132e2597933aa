//! CGM 2D convex hull — the Table 1 Group B representative for the
//! hull/Voronoi family. λ = O(1): sort by `(x, y)` (CGM sample sort),
//! compute local hulls of the x-contiguous chunks, gather the local hull
//! vertices on processor 0 and stitch.
//!
//! Correctness of the gather: every vertex of the global hull is a vertex
//! of the local hull of its own x-contiguous chunk (a point inside its
//! chunk's hull is inside the global hull). Memory: the gathered set can
//! degenerate to all `n` points (e.g. points on a circle); the driver
//! takes an explicit `max_hull_points` budget and the external-memory
//! simulators raise a typed γ-violation if it is exceeded, instead of
//! silently corrupting state.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::geometry::point::{cross, Point2};
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// State of the gather stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HullState {
    /// This processor's x-sorted points.
    pub pts: Vec<Point2>,
    /// The final hull (populated on processor 0).
    pub hull: Vec<Point2>,
}
impl_serial_struct!(HullState { pts, hull });

/// The local-hull + gather BSP program (run after a CGM sort).
#[derive(Debug, Clone)]
pub struct HullGather {
    /// ⌈n/v⌉ for sizing.
    pub chunk: usize,
    /// Gather budget: max points processor 0 may receive.
    pub max_hull_points: usize,
}

impl BspProgram for HullGather {
    type State = HullState;
    type Msg = Vec<Point2>;

    fn superstep(&self, step: usize, mb: &mut Mailbox<Vec<Point2>>, state: &mut HullState) -> Step {
        match step {
            0 => {
                let local = monotone_chain(&state.pts);
                mb.send(0, local);
                Step::Continue
            }
            _ => {
                if mb.pid() == 0 {
                    let mut candidates: Vec<Point2> =
                        mb.take_incoming().into_iter().flat_map(|e| e.msg).collect();
                    candidates.sort_unstable();
                    candidates.dedup();
                    state.hull = monotone_chain(&candidates);
                }
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 16 * (2 * self.chunk + self.max_hull_points + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        16 * self.max_hull_points + 1024
    }
}

/// Convex hull of `points`, counter-clockwise starting from the
/// lexicographically smallest vertex. Collinear boundary points are
/// dropped. Uses the default gather budget `max(n/2, 4096)`.
pub fn cgm_convex_hull<E: Executor>(
    exec: &E,
    v: usize,
    points: Vec<Point2>,
) -> AlgoResult<Vec<Point2>> {
    let budget = (points.len() / 2).max(4096).min(points.len().max(16));
    cgm_convex_hull_with_budget(exec, v, points, budget)
}

/// [`cgm_convex_hull`] with an explicit gather budget (`max_hull_points`
/// total local-hull vertices across all processors). Raise it if the
/// executor reports a communication-budget violation.
pub fn cgm_convex_hull_with_budget<E: Executor>(
    exec: &E,
    v: usize,
    points: Vec<Point2>,
    max_hull_points: usize,
) -> AlgoResult<Vec<Point2>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if points.len() < 3 {
        let mut p = points;
        p.sort_unstable();
        p.dedup();
        return Ok(p);
    }
    let n = points.len();
    let sorted = cgm_sort(exec, v, points)?;
    let prog = HullGather { chunk: n.div_ceil(v).max(1), max_hull_points };
    let states =
        distribute(sorted, v).into_iter().map(|pts| HullState { pts, hull: Vec::new() }).collect();
    let res = exec.execute(&prog, states)?;
    Ok(res.states.into_iter().next().expect("processor 0").hull)
}

/// Andrew's monotone chain on a *sorted, deduplicated-enough* slice;
/// sorts/dedups defensively. Returns the hull counter-clockwise from the
/// lexicographically smallest point, without collinear boundary points.
pub fn monotone_chain(points: &[Point2]) -> Vec<Point2> {
    let mut pts: Vec<Point2> = points.to_vec();
    pts.sort_unstable();
    pts.dedup();
    let n = pts.len();
    if n <= 2 {
        return pts;
    }
    let mut hull: Vec<Point2> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev() {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0 {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point repeats the first
                // Degenerate all-collinear input: the two passes leave [a, b].
    hull
}

/// Sequential reference — identical algorithm run on the full input.
pub fn seq_convex_hull(points: &[Point2]) -> Vec<Point2> {
    monotone_chain(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn square_with_interior_points() {
        let mut pts =
            vec![Point2::new(0, 0), Point2::new(10, 0), Point2::new(10, 10), Point2::new(0, 10)];
        for i in 1..9 {
            pts.push(Point2::new(i, 5));
        }
        let got = cgm_convex_hull(&SeqExecutor, 3, pts.clone()).unwrap();
        assert_eq!(got, seq_convex_hull(&pts));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn random_points_match_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new(signed(&mut rng, -1000..1000), signed(&mut rng, -1000..1000)))
            .collect();
        let want = seq_convex_hull(&pts);
        let got = cgm_convex_hull(&SeqExecutor, 8, pts).unwrap();
        assert_eq!(got, want);
        assert!(got.len() >= 3);
    }

    #[test]
    fn collinear_input() {
        let pts: Vec<Point2> = (0..20).map(|i| Point2::new(i, 2 * i)).collect();
        let got = cgm_convex_hull(&SeqExecutor, 4, pts).unwrap();
        assert_eq!(got, vec![Point2::new(0, 0), Point2::new(19, 38)]);
    }

    #[test]
    fn duplicates_and_tiny_inputs() {
        let got = cgm_convex_hull(&SeqExecutor, 2, vec![Point2::new(1, 1); 10]).unwrap();
        assert_eq!(got, vec![Point2::new(1, 1)]);
        assert!(cgm_convex_hull(&SeqExecutor, 2, vec![]).unwrap().is_empty());
        let two = vec![Point2::new(3, 1), Point2::new(1, 2)];
        assert_eq!(
            cgm_convex_hull(&SeqExecutor, 2, two).unwrap(),
            vec![Point2::new(1, 2), Point2::new(3, 1)]
        );
    }

    #[test]
    fn hull_is_convex_and_contains_all_points() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point2> = (0..200)
            .map(|_| Point2::new(signed(&mut rng, -50..50), signed(&mut rng, -50..50)))
            .collect();
        let hull = cgm_convex_hull(&SeqExecutor, 5, pts.clone()).unwrap();
        let m = hull.len();
        // Strictly convex turns.
        for i in 0..m {
            let a = hull[i];
            let b = hull[(i + 1) % m];
            let c = hull[(i + 2) % m];
            assert!(cross(a, b, c) > 0, "non-convex corner at {i}");
        }
        // Every input point on or inside.
        for p in &pts {
            for i in 0..m {
                let a = hull[i];
                let b = hull[(i + 1) % m];
                assert!(cross(a, b, *p) >= 0, "point {p:?} outside edge {i}");
            }
        }
    }
}
