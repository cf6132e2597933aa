//! CGM 2D closest pair — the computational core of Table 1's "2D-nearest
//! neighbors" row. λ = O(1):
//!
//! 1. CGM-sort the points by `(x, y)`;
//! 2. every processor solves its x-contiguous chunk locally (sweep over
//!    the y-ordered active set) and broadcasts its local minimum;
//! 3. with the global candidate δ known, every processor sends the points
//!    within δ of its right chunk boundary to its right neighbour, which
//!    checks the cross-boundary pairs.
//!
//! Distances are compared as exact squared Euclidean distances in `u128`.
//! Cross-boundary strips hold O(points within δ of a boundary); under the
//! usual density assumptions that is O(n/v) — the strip budget is explicit
//! and a violation surfaces as a typed communication-budget error.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::geometry::point::Point2;
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// Exact squared distance.
fn dist2(a: Point2, b: Point2) -> u128 {
    let dx = (a.x - b.x).unsigned_abs() as u128;
    let dy = (a.y - b.y).unsigned_abs() as u128;
    dx * dx + dy * dy
}

/// Sweep a slice sorted by `(x, y)` for its closest pair; returns
/// `(dist², a, b)`.
fn sweep_closest(pts: &[Point2]) -> Option<(u128, Point2, Point2)> {
    if pts.len() < 2 {
        return None;
    }
    use std::collections::BTreeSet;
    let mut active: BTreeSet<(i64, i64)> = BTreeSet::new();
    let mut best: Option<(u128, Point2, Point2)> = None;
    let mut left = 0usize;
    for &p in pts {
        let limit =
            |best: &Option<(u128, Point2, Point2)>| best.map_or(i64::MAX as u128, |(d, _, _)| d);
        // Shrink the active window to x within the current best radius.
        while left < pts.len() {
            let q = pts[left];
            if q == p {
                break;
            }
            let dx = (p.x - q.x).unsigned_abs() as u128;
            if dx * dx > limit(&best) {
                active.remove(&(q.y, q.x));
                left += 1;
            } else {
                break;
            }
        }
        // Scan the y-window around p.
        let d = limit(&best);
        let dy_window = ((d as f64).sqrt() as i64).saturating_add(1);
        let lo = p.y.saturating_sub(dy_window);
        let hi = p.y.saturating_add(dy_window);
        for &(qy, qx) in active.range((lo, i64::MIN)..=(hi, i64::MAX)) {
            let q = Point2::new(qx, qy);
            let dq = dist2(p, q);
            if best.is_none() || dq < best.unwrap().0 {
                best = Some((dq, q, p));
            }
        }
        active.insert((p.y, p.x));
    }
    best
}

/// State of the closest-pair stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpState {
    /// x-sorted chunk.
    pub pts: Vec<Point2>,
    /// Best pair found so far: `(dist², ax, ay, bx, by)` flattened
    /// (`u64::MAX` markers when none).
    pub best: Vec<u64>,
}
impl_serial_struct!(CpState { pts, best });

/// The closest-pair BSP program (run after a CGM sort). 3 supersteps.
#[derive(Debug, Clone)]
pub struct ClosestPair {
    /// ⌈n/v⌉ for sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
    /// Budget for boundary-strip points sent to a neighbour.
    pub max_strip: usize,
}

impl BspProgram for ClosestPair {
    type State = CpState;
    /// `(tag, payload)`: tag 0 = local δ² candidate (16 bytes hi/lo),
    /// tag 1 = strip points, tag 2 = chunk boundary x (for empty-aware
    /// neighbour discovery).
    type Msg = (u8, Vec<i64>);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, Vec<i64>)>,
        state: &mut CpState,
    ) -> Step {
        match step {
            0 => {
                // Local solve + broadcast candidate and my presence.
                let local = sweep_closest(&state.pts);
                if let Some((d, a, b)) = local {
                    state.best = vec![
                        (d >> 64) as u64,
                        d as u64,
                        a.x as u64,
                        a.y as u64,
                        b.x as u64,
                        b.y as u64,
                    ];
                    for dst in 0..mb.nprocs() {
                        mb.send(dst, (0, vec![(d >> 64) as i64, d as i64]));
                    }
                }
                if !state.pts.is_empty() {
                    for dst in 0..mb.nprocs() {
                        mb.send(dst, (2, vec![state.pts[0].x]));
                    }
                }
                Step::Continue
            }
            1 => {
                // Global δ, then ship my right-boundary strip to the next
                // non-empty processor.
                let mut delta: Option<u128> = None;
                let mut present: Vec<(usize, i64)> = Vec::new();
                for env in mb.take_incoming() {
                    match env.msg.0 {
                        0 => {
                            let d =
                                ((env.msg.1[0] as u64 as u128) << 64) | env.msg.1[1] as u64 as u128;
                            delta = Some(delta.map_or(d, |x| x.min(d)));
                        }
                        _ => present.push((env.src, env.msg.1[0])),
                    }
                }
                present.sort_unstable();
                let me = mb.pid();
                // No candidate yet (every chunk held < 2 points): fall
                // back to δ = ∞, which ships whole chunks — still O(n)
                // because n < 2v in that case.
                let d = delta.unwrap_or(u128::MAX);
                if let Some(my_idx) = present.iter().position(|&(src, _)| src == me) {
                    let boundary = state.pts.last().expect("non-empty").x;
                    let w = ((d as f64).sqrt() as i64).saturating_add(1);
                    let strip: Vec<i64> = state
                        .pts
                        .iter()
                        .filter(|p| p.x >= boundary.saturating_sub(w))
                        .flat_map(|p| [p.x, p.y])
                        .collect();
                    // A sub-δ pair can span a narrow intermediate chunk, so
                    // the strip goes to *every* later processor whose chunk
                    // starts within δ of my boundary.
                    for &(dst, first_x) in &present[my_idx + 1..] {
                        if first_x <= boundary.saturating_add(w) {
                            mb.send(dst, (1, strip.clone()));
                        }
                    }
                }
                Step::Continue
            }
            _ => {
                // Check cross-boundary pairs against my chunk.
                let mut best = decode_best(&state.best);
                for env in mb.take_incoming() {
                    if env.msg.0 != 1 {
                        continue;
                    }
                    let strip: Vec<Point2> =
                        env.msg.1.chunks(2).map(|c| Point2::new(c[0], c[1])).collect();
                    // Merge the strip with my own left portion and sweep.
                    let d = best.map_or(u128::MAX, |(d, _, _)| d);
                    let w = ((d as f64).sqrt() as i64).saturating_add(1);
                    let lo = strip.first().map_or(i64::MIN, |p| p.x);
                    let mut merged: Vec<Point2> = strip;
                    merged.extend(
                        state
                            .pts
                            .iter()
                            .filter(|p| p.x <= lo.saturating_add(w.saturating_mul(2)))
                            .copied(),
                    );
                    // No dedup: identical points in strip and chunk are a
                    // genuine zero-distance cross pair.
                    merged.sort_unstable();
                    if let Some((d, a, b)) = sweep_closest(&merged) {
                        if best.is_none() || d < best.unwrap().0 {
                            best = Some((d, a, b));
                        }
                    }
                }
                state.best = best.map_or(Vec::new(), |(d, a, b)| {
                    vec![(d >> 64) as u64, d as u64, a.x as u64, a.y as u64, b.x as u64, b.y as u64]
                });
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 16 * (2 * self.chunk + 4) + 8 * 8
    }

    fn max_comm_bytes(&self) -> usize {
        16 * (self.max_strip + 2) + 48 * self.v + 512
    }
}

fn decode_best(best: &[u64]) -> Option<(u128, Point2, Point2)> {
    if best.len() != 6 {
        return None;
    }
    Some((
        ((best[0] as u128) << 64) | best[1] as u128,
        Point2::new(best[2] as i64, best[3] as i64),
        Point2::new(best[4] as i64, best[5] as i64),
    ))
}

/// Closest pair of `points` (needs at least two): the exact squared
/// distance and the pair, with deterministic tie-breaking.
pub fn cgm_closest_pair<E: Executor>(
    exec: &E,
    v: usize,
    points: Vec<Point2>,
) -> AlgoResult<(u128, Point2, Point2)> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if points.len() < 2 {
        return Err(AlgoError::Input("need at least two points".into()));
    }
    if points.iter().any(|p| p.x.abs() > 1 << 31 || p.y.abs() > 1 << 31) {
        return Err(AlgoError::Input(
            "coordinates must fit 32 bits (squared distances are exact in u128)".into(),
        ));
    }
    let n = points.len();
    let sorted = cgm_sort(exec, v, points)?;
    let prog = ClosestPair { chunk: n.div_ceil(v).max(1), v, max_strip: n.div_ceil(v) + 16 };
    let states =
        distribute(sorted, v).into_iter().map(|pts| CpState { pts, best: Vec::new() }).collect();
    let res = exec.execute(&prog, states)?;
    let best = res
        .states
        .iter()
        .filter_map(|s| decode_best(&s.best))
        .min_by_key(|&(d, a, b)| (d, a, b))
        .expect("n >= 2 yields a pair");
    Ok(best)
}

/// Sequential reference: O(n²) exact scan with the same tie-breaking.
pub fn seq_closest_pair(points: &[Point2]) -> (u128, Point2, Point2) {
    assert!(points.len() >= 2);
    let mut best: Option<(u128, Point2, Point2)> = None;
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            let (a, b) = if points[i] <= points[j] {
                (points[i], points[j])
            } else {
                (points[j], points[i])
            };
            let d = dist2(a, b);
            let cand = (d, a, b);
            if best.is_none() || cand < best.unwrap() {
                best = Some(cand);
            }
        }
    }
    best.unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sweep_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(80);
        for _ in 0..20 {
            let mut pts: Vec<Point2> = (0..60)
                .map(|_| Point2::new(signed(&mut rng, -100..100), signed(&mut rng, -100..100)))
                .collect();
            pts.sort_unstable();
            pts.dedup();
            if pts.len() < 2 {
                continue;
            }
            let got = sweep_closest(&pts).unwrap();
            let want = seq_closest_pair(&pts);
            assert_eq!(got.0, want.0);
        }
    }

    #[test]
    fn cgm_matches_reference_random() {
        let mut rng = StdRng::seed_from_u64(81);
        for trial in 0..6 {
            let pts: Vec<Point2> = (0..200)
                .map(|_| Point2::new(signed(&mut rng, -5000..5000), signed(&mut rng, -5000..5000)))
                .collect();
            let want = seq_closest_pair(&pts);
            let got = cgm_closest_pair(&SeqExecutor, 7, pts).unwrap();
            assert_eq!(got.0, want.0, "trial {trial}");
        }
    }

    #[test]
    fn pair_straddling_chunk_boundary() {
        // Two very close points far right, noise far left: the pair spans
        // the last chunk boundary when v is large.
        let mut pts: Vec<Point2> = (0..40).map(|i| Point2::new(i * 1000, i * 7)).collect();
        pts.push(Point2::new(39_500, 0));
        pts.push(Point2::new(39_501, 1));
        let want = seq_closest_pair(&pts);
        let got = cgm_closest_pair(&SeqExecutor, 8, pts).unwrap();
        assert_eq!(got.0, want.0);
        assert_eq!(got.0, 2);
    }

    #[test]
    fn pair_spanning_a_narrow_middle_chunk() {
        // 12 points over 6 chunks of 2: the closest pair is (999,0)/(1002,0)
        // with the points 1000,1001 (a whole chunk) in between x-wise but
        // far away in y.
        let pts = vec![
            Point2::new(0, 0),
            Point2::new(200, 0),
            Point2::new(400, 0),
            Point2::new(600, 0),
            Point2::new(800, 0),
            Point2::new(999, 0),
            Point2::new(1000, 100_000),
            Point2::new(1001, -100_000),
            Point2::new(1002, 0),
            Point2::new(1200, 0),
            Point2::new(1400, 0),
            Point2::new(1600, 0),
        ];
        let want = seq_closest_pair(&pts);
        assert_eq!(want.0, 9);
        let got = cgm_closest_pair(&SeqExecutor, 6, pts).unwrap();
        assert_eq!(got.0, 9);
    }

    #[test]
    fn duplicates_give_distance_zero() {
        let pts = vec![Point2::new(5, 5), Point2::new(1, 2), Point2::new(5, 5)];
        let got = cgm_closest_pair(&SeqExecutor, 3, pts).unwrap();
        assert_eq!(got.0, 0);
    }

    #[test]
    fn tiny_inputs_and_bounds() {
        assert!(cgm_closest_pair(&SeqExecutor, 2, vec![Point2::new(0, 0)]).is_err());
        assert!(cgm_closest_pair(
            &SeqExecutor,
            2,
            vec![Point2::new(i64::MAX, 0), Point2::new(0, 0)]
        )
        .is_err());
        let got =
            cgm_closest_pair(&SeqExecutor, 4, vec![Point2::new(0, 0), Point2::new(3, 4)]).unwrap();
        assert_eq!(got.0, 25);
    }
}
