//! CGM 2D weighted dominance counting — Table 1, Group B. For every point
//! `p`, the total weight of points `q ≠ p` with `q.x ≤ p.x` and
//! `q.y ≤ p.y` (exact duplicates are counted once, ordered by input
//! index).
//!
//! λ = O(1). Pipeline:
//!
//! 1. CGM-sort by `(y, x, id)` and assign global y-ranks (the rank offset
//!    per chunk is a λ = 2 prefix round, performed as driver glue on the
//!    per-chunk counts);
//! 2. CGM-sort by `(x, y, id)` and assign global x-ranks the same way.
//!    Dominance becomes pure rank dominance: `q` counts for `p` iff
//!    `xr_q < xr_p ∧ yr_q < yr_p`;
//! 3. one sweep program: every processor (an x-contiguous chunk)
//!    broadcasts its per-y-slab weight histogram to higher processors
//!    (cross-slab base terms) and routes each point to its y-slab owner,
//!    which resolves the within-slab term with a Fenwick tree and replies.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::geometry::point::Point2;
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// Fenwick tree (binary indexed tree) over `0..n` with `u64` sums.
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Zero-initialized tree over `n` slots.
    pub fn new(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// Add `w` at index `i`.
    pub fn add(&mut self, i: usize, w: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(w);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of indices `< i`.
    pub fn prefix(&self, i: usize) -> u64 {
        let mut i = i.min(self.tree.len() - 1);
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// A point record in the sweep: `(x, y, w, id, xr, yr)`.
type Rec6 = (i64, i64, u64, u64, u64, u64);

/// State of the sweep stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomState {
    /// x-sorted chunk with ranks attached.
    pub pts: Vec<Rec6>,
    /// `(id, count)` results for the points of this chunk.
    pub answers: Vec<(u64, u64)>,
    /// Scratch: `(id, base)` cross-slab terms awaiting the within-slab
    /// replies.
    pub bases: Vec<(u64, u64)>,
}
impl_serial_struct!(DomState { pts, answers, bases });

/// The dominance sweep BSP program. Slab `s` covers y-ranks
/// `[s·slab, (s+1)·slab)` and is owned by processor `s`.
#[derive(Debug, Clone)]
pub struct DomSweep {
    /// `n` points total.
    pub n: usize,
    /// `v`.
    pub v: usize,
}

impl DomSweep {
    fn slab_size(&self) -> usize {
        self.n.div_ceil(self.v).max(1)
    }

    fn slab_of(&self, yr: u64) -> usize {
        ((yr as usize) / self.slab_size()).min(self.v - 1)
    }
}

impl BspProgram for DomSweep {
    type State = DomState;
    /// `(tag, payload)`: tag 0 = slab histogram, 1 = routed points
    /// `[xr, yr, w, id]*`, 2 = replies `[id, count]*`.
    type Msg = (u8, Vec<u64>);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, Vec<u64>)>,
        state: &mut DomState,
    ) -> Step {
        let v = mb.nprocs();
        match step {
            0 => {
                // Histogram of local weights per y-slab → higher procs.
                let mut hist = vec![0u64; v];
                for &(_, _, w, _, _, yr) in &state.pts {
                    hist[self.slab_of(yr)] = hist[self.slab_of(yr)].wrapping_add(w);
                }
                for dst in mb.pid() + 1..v {
                    mb.send(dst, (0, hist.clone()));
                }
                // Route points to their slab owners.
                let mut per_owner: Vec<Vec<u64>> = (0..v).map(|_| Vec::new()).collect();
                for &(_, _, w, id, xr, yr) in &state.pts {
                    let owner = self.slab_of(yr);
                    per_owner[owner].extend_from_slice(&[xr, yr, w, id]);
                }
                for (owner, flat) in per_owner.into_iter().enumerate() {
                    if !flat.is_empty() {
                        mb.send(owner, (1, flat));
                    }
                }
                Step::Continue
            }
            1 => {
                let mut cum_hist = vec![0u64; v];
                let mut slab_pts: Vec<(usize, u64, u64, u64, u64)> = Vec::new(); // (src, xr, yr, w, id)
                for env in mb.take_incoming() {
                    match env.msg.0 {
                        0 => {
                            for (a, b) in cum_hist.iter_mut().zip(&env.msg.1) {
                                *a = a.wrapping_add(*b);
                            }
                        }
                        _ => {
                            for rec in env.msg.1.chunks(4) {
                                slab_pts.push((env.src, rec[0], rec[1], rec[2], rec[3]));
                            }
                        }
                    }
                }

                // Cross-slab base terms for my own points: weight in lower
                // slabs from lower processors (cum_hist) plus lower-slab
                // weight from earlier points of my own chunk.
                let mut cum_prefix = vec![0u64; v + 1];
                for s in 0..v {
                    cum_prefix[s + 1] = cum_prefix[s].wrapping_add(cum_hist[s]);
                }
                let mut local_acc = vec![0u64; v + 1];
                let mut bases = Vec::with_capacity(state.pts.len());
                for &(_, _, w, id, _, yr) in &state.pts {
                    let s = self.slab_of(yr);
                    let local_lower = local_acc[..s].iter().fold(0u64, |a, &b| a.wrapping_add(b));
                    bases.push((id, cum_prefix[s].wrapping_add(local_lower)));
                    local_acc[s] = local_acc[s].wrapping_add(w);
                }
                state.bases = bases;

                // Within-slab term: Fenwick over the slab's y-rank order.
                if !slab_pts.is_empty() {
                    let mut yrs: Vec<u64> = slab_pts.iter().map(|&(_, _, yr, _, _)| yr).collect();
                    yrs.sort_unstable();
                    let yr_index = |yr: u64| yrs.partition_point(|&x| x < yr);
                    let mut by_x = slab_pts;
                    by_x.sort_unstable_by_key(|&(_, xr, _, _, _)| xr);
                    let mut bit = Fenwick::new(by_x.len());
                    let mut replies: Vec<(usize, u64, u64)> = Vec::new(); // (src, id, cnt)
                    for &(src, _, yr, w, id) in &by_x {
                        let idx = yr_index(yr);
                        replies.push((src, id, bit.prefix(idx)));
                        bit.add(idx, w);
                    }
                    let mut per_src: Vec<Vec<u64>> = (0..v).map(|_| Vec::new()).collect();
                    for (src, id, cnt) in replies {
                        per_src[src].extend_from_slice(&[id, cnt]);
                    }
                    for (src, flat) in per_src.into_iter().enumerate() {
                        if !flat.is_empty() {
                            mb.send(src, (2, flat));
                        }
                    }
                }
                Step::Continue
            }
            _ => {
                let mut within: Vec<(u64, u64)> = Vec::new();
                for env in mb.take_incoming() {
                    for rec in env.msg.1.chunks(2) {
                        within.push((rec[0], rec[1]));
                    }
                }
                within.sort_unstable();
                let mut answers = Vec::with_capacity(state.bases.len());
                for &(id, base) in &state.bases {
                    let idx = within.partition_point(|&(i, _)| i < id);
                    let w =
                        if idx < within.len() && within[idx].0 == id { within[idx].1 } else { 0 };
                    answers.push((id, base.wrapping_add(w)));
                }
                state.answers = answers;
                state.bases.clear();
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        let chunk = self.slab_size();
        128 + 48 * (2 * chunk + 4) + 32 * (2 * chunk + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        let chunk = self.slab_size();
        // Histogram broadcast + routed points + replies, with framing.
        8 * self.v * self.v + 2 * 32 * (chunk + 2) + 64 * self.v + 1024
    }
}

/// Weighted dominance counts in input order: `out[i]` = total weight of
/// points `q ≠ p_i` with `q.x ≤ p_i.x ∧ q.y ≤ p_i.y` (exact duplicates
/// ordered by input index).
pub fn cgm_dominance_counts<E: Executor>(
    exec: &E,
    v: usize,
    pts: &[(Point2, u64)],
) -> AlgoResult<Vec<u64>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    let n = pts.len();
    if n == 0 {
        return Ok(Vec::new());
    }

    // Sort by (y, x, id) → y-ranks (offsets are driver glue on counts).
    let by_y: Vec<(i64, i64, u64, u64)> =
        pts.iter().enumerate().map(|(id, &(p, w))| (p.y, p.x, id as u64, w)).collect();
    let sorted_y = cgm_sort(exec, v, by_y)?;
    // yr = global position in this order.
    let with_yr: Vec<(i64, i64, u64, u64, u64)> = sorted_y
        .into_iter()
        .enumerate()
        .map(|(yr, (y, x, id, w))| (x, y, id, w, yr as u64))
        .collect();

    // Sort by (x, y, id) → x-ranks.
    let recs: Vec<Rec6> = {
        let sorted_x = cgm_sort(exec, v, with_yr)?;
        sorted_x
            .into_iter()
            .enumerate()
            .map(|(xr, (x, y, id, w, yr))| (x, y, w, id, xr as u64, yr))
            .collect()
    };

    let prog = DomSweep { n, v };
    let states = distribute(recs, v)
        .into_iter()
        .map(|pts| DomState { pts, answers: Vec::new(), bases: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;
    let mut out = vec![0u64; n];
    for s in res.states {
        for (id, cnt) in s.answers {
            out[id as usize] = cnt;
        }
    }
    Ok(out)
}

/// Sequential reference: O(n²) pairwise with the same tie rule.
pub fn seq_dominance_counts(pts: &[(Point2, u64)]) -> Vec<u64> {
    pts.iter()
        .enumerate()
        .map(|(i, &(p, _))| {
            pts.iter()
                .enumerate()
                .filter(|&(j, &(q, _))| {
                    j != i && q.x <= p.x && q.y <= p.y && ((q.x, q.y) != (p.x, p.y) || j < i)
                })
                .map(|(_, &(_, w))| w)
                .fold(0u64, |a, b| a.wrapping_add(b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 5);
        f.add(3, 2);
        f.add(7, 1);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(1), 5);
        assert_eq!(f.prefix(4), 7);
        assert_eq!(f.prefix(8), 8);
    }

    #[test]
    fn matches_reference_random() {
        let mut rng = StdRng::seed_from_u64(12);
        let pts: Vec<(Point2, u64)> = (0..250)
            .map(|_| {
                (
                    Point2::new(signed(&mut rng, -40..40), signed(&mut rng, -40..40)),
                    rng.gen_range(1..10),
                )
            })
            .collect();
        let want = seq_dominance_counts(&pts);
        let got = cgm_dominance_counts(&SeqExecutor, 7, &pts).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn chain_counts_everything_below() {
        // Diagonal: point i dominates exactly points 0..i, unit weights.
        let pts: Vec<(Point2, u64)> = (0..50).map(|i| (Point2::new(i, i), 1)).collect();
        let got = cgm_dominance_counts(&SeqExecutor, 5, &pts).unwrap();
        let want: Vec<u64> = (0..50).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn anti_chain_counts_nothing() {
        let pts: Vec<(Point2, u64)> = (0..30).map(|i| (Point2::new(i, -i), 3)).collect();
        let got = cgm_dominance_counts(&SeqExecutor, 4, &pts).unwrap();
        assert_eq!(got, vec![0; 30]);
    }

    #[test]
    fn exact_duplicates_half_count() {
        let pts = vec![(Point2::new(5, 5), 7), (Point2::new(5, 5), 9)];
        let got = cgm_dominance_counts(&SeqExecutor, 2, &pts).unwrap();
        assert_eq!(got, vec![0, 7]);
    }

    #[test]
    fn empty_and_single() {
        assert!(cgm_dominance_counts(&SeqExecutor, 2, &[]).unwrap().is_empty());
        let got = cgm_dominance_counts(&SeqExecutor, 2, &[(Point2::new(0, 0), 4)]).unwrap();
        assert_eq!(got, vec![0]);
    }
}
