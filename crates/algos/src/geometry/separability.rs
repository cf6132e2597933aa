//! CGM linear separability of two point sets — Table 1, Group B ("uni-
//! and multi-directional separability"). Two sets are linearly separable
//! (by a line they don't cross) exactly when their convex hulls do not
//! intersect; the CGM algorithm computes both hulls (λ = O(1) each) and
//! decides disjointness locally on the (small) hulls with exact `i128`
//! predicates.
//!
//! *Uni-directional* separability — is there a separating line
//! perpendicular to a **given** direction? — needs only the extreme
//! projections of each set: a single λ = 2 reduction, also provided.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::geometry::hull::cgm_convex_hull_with_budget;
use crate::geometry::point::{cross, Point2};
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// Does point `p` lie on segment `a..b` (inclusive)? Assumes collinear.
fn on_segment(a: Point2, b: Point2, p: Point2) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

/// Exact closed segment intersection test.
pub fn segments_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool {
    let d1 = cross(c, d, a);
    let d2 = cross(c, d, b);
    let d3 = cross(a, b, c);
    let d4 = cross(a, b, d);
    if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
        return true;
    }
    (d1 == 0 && on_segment(c, d, a))
        || (d2 == 0 && on_segment(c, d, b))
        || (d3 == 0 && on_segment(a, b, c))
        || (d4 == 0 && on_segment(a, b, d))
}

/// Is `p` inside or on the boundary of the convex polygon `poly` (CCW,
/// may be degenerate: a point or a segment)?
pub fn point_in_convex(poly: &[Point2], p: Point2) -> bool {
    match poly.len() {
        0 => false,
        1 => poly[0] == p,
        2 => cross(poly[0], poly[1], p) == 0 && on_segment(poly[0], poly[1], p),
        m => (0..m).all(|i| cross(poly[i], poly[(i + 1) % m], p) >= 0),
    }
}

/// Do two convex polygons (possibly degenerate) intersect (closed sets)?
pub fn convex_polygons_intersect(a: &[Point2], b: &[Point2]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // A vertex of one inside the other covers containment; otherwise any
    // boundary crossing shows up as an edge pair intersection.
    if a.iter().any(|&p| point_in_convex(b, p)) || b.iter().any(|&p| point_in_convex(a, p)) {
        return true;
    }
    let edges = |poly: &[Point2]| -> Vec<(Point2, Point2)> {
        match poly.len() {
            0 | 1 => Vec::new(),
            2 => vec![(poly[0], poly[1])],
            m => (0..m).map(|i| (poly[i], poly[(i + 1) % m])).collect(),
        }
    };
    for &(p1, p2) in &edges(a) {
        for &(q1, q2) in &edges(b) {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    false
}

/// Multi-directional separability: is there *any* line separating the two
/// sets (hulls disjoint as closed sets)? Empty sets are trivially
/// separable.
pub fn cgm_separable<E: Executor>(
    exec: &E,
    v: usize,
    a: Vec<Point2>,
    b: Vec<Point2>,
) -> AlgoResult<bool> {
    let budget = (a.len().max(b.len()) / 2).max(1024);
    cgm_separable_with_budget(exec, v, a, b, budget)
}

/// [`cgm_separable`] with an explicit hull-gather budget (see
/// [`cgm_convex_hull_with_budget`]) for out-of-core machines whose memory
/// cannot hold half the input.
pub fn cgm_separable_with_budget<E: Executor>(
    exec: &E,
    v: usize,
    a: Vec<Point2>,
    b: Vec<Point2>,
    max_hull_points: usize,
) -> AlgoResult<bool> {
    let ha = cgm_convex_hull_with_budget(exec, v, a, max_hull_points)?;
    let hb = cgm_convex_hull_with_budget(exec, v, b, max_hull_points)?;
    Ok(!convex_polygons_intersect(&ha, &hb))
}

/// State of the uni-directional reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniState {
    /// `(projection, set_tag)` pairs held by this processor.
    pub proj: Vec<(i64, u8)>,
    /// Verdict computed on processor 0: 0 = no, 1 = A before B,
    /// 2 = B before A.
    pub verdict: u8,
}
impl_serial_struct!(UniState { proj, verdict });

/// Uni-directional separability program: reduce per-set extremes of the
/// projections, decide on processor 0. λ = 2.
#[derive(Debug, Clone)]
pub struct UniSeparable {
    /// ⌈(|A|+|B|)/v⌉ for sizing.
    pub chunk: usize,
}

impl BspProgram for UniSeparable {
    type State = UniState;
    /// `(set_tag, min_proj, max_proj)` per processor.
    type Msg = (u8, i64, i64);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, i64, i64)>,
        state: &mut UniState,
    ) -> Step {
        match step {
            0 => {
                for tag in [0u8, 1] {
                    let it = state.proj.iter().filter(|&&(_, t)| t == tag).map(|&(x, _)| x);
                    if let (Some(lo), Some(hi)) = (it.clone().min(), it.max()) {
                        mb.send(0, (tag, lo, hi));
                    }
                }
                Step::Continue
            }
            _ => {
                if mb.pid() == 0 {
                    let mut a = (i64::MAX, i64::MIN);
                    let mut b = (i64::MAX, i64::MIN);
                    for env in mb.take_incoming() {
                        let (tag, lo, hi) = env.msg;
                        let slot = if tag == 0 { &mut a } else { &mut b };
                        slot.0 = slot.0.min(lo);
                        slot.1 = slot.1.max(hi);
                    }
                    state.verdict = if a.1 <= b.0 && a.0 != i64::MAX && b.0 != i64::MAX {
                        1
                    } else if b.1 <= a.0 && a.0 != i64::MAX && b.0 != i64::MAX {
                        2
                    } else if a.0 == i64::MAX || b.0 == i64::MAX {
                        1 // an empty set is trivially separable
                    } else {
                        0
                    };
                }
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 17 * (self.chunk + 2)
    }

    fn max_comm_bytes(&self) -> usize {
        40 * 8 + 256
    }
}

/// Uni-directional separability: can `a` and `b` be separated by a line
/// perpendicular to direction `(dx, dy)` (overlapping extremes touch is
/// allowed)? Direction components must fit 31 bits (projections are exact
/// in `i64` for 31-bit coordinates).
pub fn cgm_separable_in_direction<E: Executor>(
    exec: &E,
    v: usize,
    a: &[Point2],
    b: &[Point2],
    dir: (i64, i64),
) -> AlgoResult<bool> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if dir == (0, 0) {
        return Err(AlgoError::Input("zero direction".into()));
    }
    let limit = 1i64 << 31;
    if dir.0.abs() >= limit
        || dir.1.abs() >= limit
        || a.iter().chain(b).any(|p| p.x.abs() >= limit || p.y.abs() >= limit)
    {
        return Err(AlgoError::Input("coordinates/direction must fit 31 bits".into()));
    }
    let proj = |p: &Point2| p.x * dir.0 + p.y * dir.1;
    let tagged: Vec<(i64, u8)> =
        a.iter().map(|p| (proj(p), 0u8)).chain(b.iter().map(|p| (proj(p), 1u8))).collect();
    if tagged.is_empty() {
        return Ok(true);
    }
    let prog = UniSeparable { chunk: tagged.len().div_ceil(v).max(1) };
    let states =
        distribute(tagged, v).into_iter().map(|proj| UniState { proj, verdict: 0 }).collect();
    let res = exec.execute(&prog, states)?;
    Ok(res.states[0].verdict != 0)
}

/// Sequential reference for multi-directional separability.
pub fn seq_separable(a: &[Point2], b: &[Point2]) -> bool {
    use crate::geometry::hull::seq_convex_hull;
    !convex_polygons_intersect(&seq_convex_hull(a), &seq_convex_hull(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn cloud(n: usize, cx: i64, cy: i64, r: i64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point2::new(cx + signed(&mut rng, -r..r + 1), cy + signed(&mut rng, -r..r + 1))
            })
            .collect()
    }

    #[test]
    fn disjoint_clouds_are_separable() {
        let a = cloud(100, -500, 0, 100, 90);
        let b = cloud(100, 500, 0, 100, 91);
        assert!(seq_separable(&a, &b));
        assert!(cgm_separable(&SeqExecutor, 5, a.clone(), b.clone()).unwrap());
        assert!(cgm_separable_in_direction(&SeqExecutor, 5, &a, &b, (1, 0)).unwrap());
        // Perpendicular direction does not separate them.
        assert!(!cgm_separable_in_direction(&SeqExecutor, 5, &a, &b, (0, 1)).unwrap());
    }

    #[test]
    fn interleaved_clouds_are_not_separable() {
        let a = cloud(120, 0, 0, 300, 92);
        let b = cloud(120, 50, 50, 300, 93);
        assert!(!seq_separable(&a, &b));
        assert!(!cgm_separable(&SeqExecutor, 5, a, b).unwrap());
    }

    #[test]
    fn nested_hulls_are_not_separable() {
        // b strictly inside hull of a, without vertex containment failing.
        let a = vec![
            Point2::new(-100, -100),
            Point2::new(100, -100),
            Point2::new(100, 100),
            Point2::new(-100, 100),
        ];
        let b = vec![Point2::new(0, 0), Point2::new(5, 5)];
        assert!(!cgm_separable(&SeqExecutor, 3, a, b).unwrap());
    }

    #[test]
    fn crossing_segments_without_contained_vertices() {
        // Two thin crossing "X" sets: no vertex inside the other hull.
        let a = vec![Point2::new(-10, -10), Point2::new(10, 10)];
        let b = vec![Point2::new(-10, 10), Point2::new(10, -10)];
        assert!(!cgm_separable(&SeqExecutor, 2, a, b).unwrap());
    }

    #[test]
    fn touching_hulls_count_as_intersecting() {
        let a = vec![Point2::new(0, 0), Point2::new(0, 10), Point2::new(-10, 5)];
        let b = vec![Point2::new(0, 5), Point2::new(10, 0), Point2::new(10, 10)];
        assert!(!cgm_separable(&SeqExecutor, 2, a, b).unwrap());
    }

    #[test]
    fn empty_sets_are_trivially_separable() {
        assert!(cgm_separable(&SeqExecutor, 2, vec![], cloud(5, 0, 0, 10, 94)).unwrap());
        assert!(cgm_separable_in_direction(&SeqExecutor, 2, &[], &[], (1, 1)).unwrap());
    }

    #[test]
    fn matches_reference_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(95);
        for _ in 0..10 {
            let gap: i64 = signed(&mut rng, -200..400);
            let a = cloud(60, 0, 0, 150, rng.next_u64());
            let b = cloud(60, 150 + gap, 0, 150, rng.next_u64());
            let want = seq_separable(&a, &b);
            let got = cgm_separable(&SeqExecutor, 6, a, b).unwrap();
            assert_eq!(got, want, "gap {gap}");
        }
    }
}
