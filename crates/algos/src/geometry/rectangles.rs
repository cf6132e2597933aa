//! CGM area of the union of axis-parallel rectangles — Table 1, Group B.
//!
//! λ = O(1): sort the `2n` vertical-edge events by `(x, typ, id)`;
//! broadcast chunk boundaries; forward rectangles crossing a slab boundary
//! to the slabs they reach (memory `O(n/v + crossings)`, see DESIGN.md);
//! each slab owner runs the classical coverage-segment-tree sweep over its
//! x-range and the slab areas add up.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// A rectangle `[x1, x2) × [y1, y2)` with exact integer coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rect {
    /// Left edge.
    pub x1: i64,
    /// Right edge (exclusive).
    pub x2: i64,
    /// Bottom edge.
    pub y1: i64,
    /// Top edge (exclusive).
    pub y2: i64,
}
impl_serial_struct!(Rect { x1, x2, y1, y2 });

impl Rect {
    /// Construct, normalizing is the caller's job (x1 < x2, y1 < y2).
    pub fn new(x1: i64, x2: i64, y1: i64, y2: i64) -> Self {
        Rect { x1, x2, y1, y2 }
    }
}

/// Coverage segment tree over a fixed sorted list of y-coordinates:
/// supports add/remove of `[y1, y2)` intervals and queries of the total
/// covered length — the classical union-of-rectangles sweep structure.
#[derive(Debug)]
pub struct CoverageTree {
    ys: Vec<i64>,
    count: Vec<u32>,
    covered: Vec<i64>,
}

impl CoverageTree {
    /// Build over sorted, deduplicated y-coordinates.
    pub fn new(ys: Vec<i64>) -> Self {
        debug_assert!(ys.windows(2).all(|w| w[0] < w[1]));
        let slots = ys.len().saturating_sub(1).max(1);
        CoverageTree { ys, count: vec![0; 4 * slots], covered: vec![0; 4 * slots] }
    }

    /// Total covered length.
    pub fn covered(&self) -> i64 {
        if self.ys.len() < 2 {
            0
        } else {
            self.covered[1]
        }
    }

    /// Add (`delta = 1`) or remove (`delta = -1`) the interval `[y1, y2)`.
    pub fn update(&mut self, y1: i64, y2: i64, delta: i32) {
        if self.ys.len() < 2 || y1 >= y2 {
            return;
        }
        let l = self.ys.partition_point(|&y| y < y1);
        let r = self.ys.partition_point(|&y| y < y2);
        if l >= r {
            return;
        }
        self.update_node(1, 0, self.ys.len() - 1, l, r, delta);
    }

    fn update_node(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, delta: i32) {
        if r <= lo || hi <= l {
            return;
        }
        if l <= lo && hi <= r {
            self.count[node] = (self.count[node] as i64 + delta as i64) as u32;
        } else {
            let mid = (lo + hi) / 2;
            self.update_node(2 * node, lo, mid, l, r, delta);
            self.update_node(2 * node + 1, mid, hi, l, r, delta);
        }
        self.covered[node] = if self.count[node] > 0 {
            self.ys[hi] - self.ys[lo]
        } else if hi - lo == 1 {
            0
        } else {
            self.covered[2 * node] + self.covered[2 * node + 1]
        };
    }
}

/// A sweep event: `(x, typ, id, rect)`; `typ` 0 = close (right edge),
/// 1 = open (left edge).
type REvent = (i64, u8, u64, Rect);

/// State of the area sweep stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaState {
    /// Sorted event chunk.
    pub events: Vec<REvent>,
    /// This slab's area contribution (wrapped `u64` of an `i64` value).
    pub area: u64,
    /// Scratch: slab bounds stashed between supersteps.
    pub bounds: Vec<i64>,
}
impl_serial_struct!(AreaState { events, area, bounds });

/// The area sweep BSP program (run after a CGM sort of the events).
#[derive(Debug, Clone)]
pub struct AreaSweep {
    /// ⌈2n/v⌉ for sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
    /// Crossing-forward budget per processor.
    pub max_crossings: usize,
}

impl BspProgram for AreaSweep {
    type State = AreaState;
    /// `(tag, a, b, c, d)`: tag 0 = boundary `(first_x, _, _, _)`,
    /// tag 1 = crossing rect `(x2, y1, y2, _)`.
    type Msg = (u8, i64, i64, i64, i64);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, i64, i64, i64, i64)>,
        state: &mut AreaState,
    ) -> Step {
        let v = mb.nprocs();
        match step {
            0 => {
                if let Some(&(x, ..)) = state.events.first() {
                    for dst in 0..v {
                        mb.send(dst, (0, x, 0, 0, 0));
                    }
                }
                Step::Continue
            }
            1 => {
                let mut firsts: Vec<(usize, i64)> = mb
                    .take_incoming()
                    .into_iter()
                    .filter(|e| e.msg.0 == 0)
                    .map(|e| (e.src, e.msg.1))
                    .collect();
                firsts.sort_unstable();
                let me = mb.pid();
                let Some(idx) = firsts.iter().position(|&(src, _)| src == me) else {
                    return Step::Continue; // empty chunk
                };
                let slab_start = firsts[idx].1;
                let slab_end = firsts.get(idx + 1).map_or(i64::MAX, |&(_, x)| x);
                for &(_, typ, _, r) in &state.events {
                    if typ == 1 && r.x2 > slab_end {
                        for &(src, start) in &firsts {
                            if src > me && start < r.x2 {
                                mb.send(src, (1, r.x2, r.y1, r.y2, 0));
                            }
                        }
                    }
                }
                state.bounds = vec![slab_start, slab_end];
                Step::Continue
            }
            _ => {
                if state.bounds.len() != 2 {
                    return Step::Halt; // empty chunk
                }
                let (slab_start, slab_end) = (state.bounds[0], state.bounds[1]);
                let crossings: Vec<Rect> = mb
                    .take_incoming()
                    .into_iter()
                    .filter(|e| e.msg.0 == 1)
                    .map(|e| Rect::new(slab_start, e.msg.1, e.msg.2, e.msg.3))
                    .collect();
                state.area =
                    sweep_slab_area(&state.events, &crossings, slab_start, slab_end) as u64;
                state.bounds.clear();
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 41 * (self.chunk + 4) + 32 * (2 * self.chunk + self.max_crossings + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        (33 + 16) * (self.max_crossings + self.v + 2) * 2 + 256
    }
}

/// Sweep one slab: classical coverage-tree area sweep over the x-range
/// `[slab_start, slab_end)`, seeded with the crossing rectangles.
fn sweep_slab_area(events: &[REvent], crossings: &[Rect], slab_start: i64, slab_end: i64) -> i64 {
    // y-coordinate universe of everything active in this slab.
    let mut ys: Vec<i64> = events
        .iter()
        .flat_map(|&(_, _, _, r)| [r.y1, r.y2])
        .chain(crossings.iter().flat_map(|r| [r.y1, r.y2]))
        .collect();
    ys.sort_unstable();
    ys.dedup();
    let mut tree = CoverageTree::new(ys);
    for r in crossings {
        tree.update(r.y1, r.y2, 1);
    }
    let mut area: i64 = 0;
    let mut prev_x = slab_start;
    let mut i = 0;
    while i < events.len() {
        let x = events[i].0;
        let clipped = x.clamp(slab_start, slab_end);
        area += tree.covered() * (clipped - prev_x);
        prev_x = clipped;
        while i < events.len() && events[i].0 == x {
            let (_, typ, _, r) = events[i];
            // A close at exactly slab_start belongs to a rectangle that
            // ends where this slab begins: it was never seeded (crossing
            // forwards require start < x2) and covers nothing here — skip,
            // or the coverage count would underflow.
            if !(typ == 0 && x == slab_start) {
                tree.update(r.y1, r.y2, if typ == 1 { 1 } else { -1 });
            }
            i += 1;
        }
    }
    // Tail: active coverage (rects whose close lies in a later slab) up to
    // slab_end — but slab_end is the next slab's first event x, and every
    // still-open rect reaches it (its close event is a later event).
    if slab_end != i64::MAX {
        area += tree.covered() * (slab_end - prev_x);
    }
    area
}

/// Total area of the union of `rects` (exact, `u64`).
pub fn cgm_union_area<E: Executor>(exec: &E, v: usize, rects: &[Rect]) -> AlgoResult<u64> {
    cgm_union_area_with_budget(exec, v, rects, rects.len())
}

/// [`cgm_union_area`] with an explicit bound on how many rectangles may
/// cross into any single slab (sizes μ/γ for out-of-core execution).
pub fn cgm_union_area_with_budget<E: Executor>(
    exec: &E,
    v: usize,
    rects: &[Rect],
    max_crossings: usize,
) -> AlgoResult<u64> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if rects.iter().any(|r| r.x1 >= r.x2 || r.y1 >= r.y2) {
        return Err(AlgoError::Input("rectangles need x1 < x2 and y1 < y2".into()));
    }
    if rects.is_empty() {
        return Ok(0);
    }
    let events: Vec<REvent> = rects
        .iter()
        .enumerate()
        .flat_map(|(id, &r)| [(r.x1, 1u8, id as u64, r), (r.x2, 0u8, id as u64, r)])
        .collect();
    let n = events.len();
    let sorted = cgm_sort(exec, v, events)?;
    let prog = AreaSweep { chunk: n.div_ceil(v).max(1), v, max_crossings };
    let states = distribute(sorted, v)
        .into_iter()
        .map(|events| AreaState { events, area: 0, bounds: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;
    Ok(res.states.iter().map(|s| s.area).sum())
}

/// Sequential reference: global coverage-tree sweep.
pub fn seq_union_area(rects: &[Rect]) -> u64 {
    if rects.is_empty() {
        return 0;
    }
    let mut events: Vec<(i64, u8, Rect)> =
        rects.iter().flat_map(|&r| [(r.x1, 1u8, r), (r.x2, 0u8, r)]).collect();
    events.sort_unstable_by_key(|&(x, typ, _)| (x, typ));
    let mut ys: Vec<i64> = rects.iter().flat_map(|r| [r.y1, r.y2]).collect();
    ys.sort_unstable();
    ys.dedup();
    let mut tree = CoverageTree::new(ys);
    let mut area: i64 = 0;
    let mut prev_x = events[0].0;
    for &(x, typ, r) in &events {
        area += tree.covered() * (x - prev_x);
        prev_x = x;
        tree.update(r.y1, r.y2, if typ == 1 { 1 } else { -1 });
    }
    area as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_rects(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x1 = signed(&mut rng, -300..280);
                let y1 = signed(&mut rng, -300..280);
                let (w, h) = (signed(&mut rng, 1..120), signed(&mut rng, 1..120));
                Rect::new(x1, x1 + w, y1, y1 + h)
            })
            .collect()
    }

    #[test]
    fn coverage_tree_basic() {
        let mut t = CoverageTree::new(vec![0, 2, 5, 9]);
        assert_eq!(t.covered(), 0);
        t.update(0, 5, 1);
        assert_eq!(t.covered(), 5);
        t.update(2, 9, 1);
        assert_eq!(t.covered(), 9);
        t.update(0, 5, -1);
        assert_eq!(t.covered(), 7);
        t.update(2, 9, -1);
        assert_eq!(t.covered(), 0);
    }

    #[test]
    fn matches_reference_random() {
        for seed in [16, 17, 18] {
            let rects = random_rects(120, seed);
            let want = seq_union_area(&rects);
            let got = cgm_union_area(&SeqExecutor, 6, &rects).unwrap();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn disjoint_rects_sum() {
        let rects = vec![Rect::new(0, 2, 0, 3), Rect::new(10, 12, 0, 5)];
        assert_eq!(cgm_union_area(&SeqExecutor, 3, &rects).unwrap(), 6 + 10);
    }

    #[test]
    fn nested_rects_take_outer() {
        let rects = vec![Rect::new(0, 10, 0, 10), Rect::new(2, 5, 2, 5)];
        assert_eq!(cgm_union_area(&SeqExecutor, 4, &rects).unwrap(), 100);
    }

    #[test]
    fn identical_rects_counted_once() {
        let rects = vec![Rect::new(1, 4, 1, 4); 7];
        assert_eq!(cgm_union_area(&SeqExecutor, 3, &rects).unwrap(), 9);
    }

    #[test]
    fn empty_and_invalid() {
        assert_eq!(cgm_union_area(&SeqExecutor, 2, &[]).unwrap(), 0);
        assert!(matches!(
            cgm_union_area(&SeqExecutor, 2, &[Rect::new(3, 3, 0, 1)]),
            Err(AlgoError::Input(_))
        ));
    }
}
