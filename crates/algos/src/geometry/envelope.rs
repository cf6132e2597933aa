//! CGM lower envelope of non-intersecting **horizontal** segments (the
//! skyline special case of Table 1's "lower envelope" row; the blockwise
//! communication structure — sort, slab decomposition, crossing-segment
//! forwarding, local sweep — is identical to the general case).
//!
//! A segment is `(x1, x2, y)` covering the half-open interval `[x1, x2)`.
//! The envelope maps every `x` in the covered domain to the minimum `y`
//! among segments covering `x`, as a compressed breakpoint list
//! `(x, Some(y))` / `(x, None)`.
//!
//! λ = O(1): sort the `2n` events by `(x, typ, segid)`; broadcast chunk
//! boundaries (one round); forward segments whose interval crosses a slab
//! boundary to the slabs they reach (one round — memory is `O(n/v +
//! crossings)`, see DESIGN.md); sweep each slab locally.

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;
use std::collections::BTreeMap;

/// A sweep event: `(x, typ, segid, x1, x2, y)`; `typ` 0 = close, 1 = open,
/// so closes sort before opens at the same `x` (half-open semantics).
type Event = (i64, u8, u64, i64, i64, i64);

/// State of the envelope sweep stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvState {
    /// Sorted event chunk.
    pub events: Vec<Event>,
    /// Skyline breakpoints emitted for this slab.
    pub out: Vec<(i64, Option<i64>)>,
}
impl_serial_struct!(EnvState { events, out });

/// The envelope sweep BSP program (run after a CGM sort of the events).
#[derive(Debug, Clone)]
pub struct EnvSweep {
    /// ⌈2n/v⌉ for sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
    /// Crossing-forward budget per processor (segments).
    pub max_crossings: usize,
}

impl BspProgram for EnvSweep {
    type State = EnvState;
    /// `(tag, a, b, c)`: tag 0 = boundary announcement `(first_x, _, _)`,
    /// tag 1 = crossing segment `(x1, x2, y)`.
    type Msg = (u8, i64, i64, i64);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, i64, i64, i64)>,
        state: &mut EnvState,
    ) -> Step {
        let v = mb.nprocs();
        match step {
            0 => {
                if let Some(&(x, ..)) = state.events.first() {
                    for dst in 0..v {
                        mb.send(dst, (0, x, 0, 0));
                    }
                }
                Step::Continue
            }
            1 => {
                // Boundaries: slab of proc i is [first_x_i, first_x_of_next
                // nonempty proc), in x-space.
                let mut firsts: Vec<(usize, i64)> = Vec::new();
                let mut crossings: Vec<(i64, i64, i64)> = Vec::new();
                for env in mb.take_incoming() {
                    match env.msg.0 {
                        0 => firsts.push((env.src, env.msg.1)),
                        _ => crossings.push((env.msg.1, env.msg.2, env.msg.3)),
                    }
                }
                debug_assert!(crossings.is_empty(), "crossings arrive in step 2");
                firsts.sort_unstable();
                let me = mb.pid();
                let my_slab = firsts.iter().position(|&(src, _)| src == me);
                let (slab_start, slab_end) = match my_slab {
                    None => {
                        // Empty chunk: nothing to sweep, nothing to forward.
                        return Step::Continue;
                    }
                    Some(idx) => (firsts[idx].1, firsts.get(idx + 1).map_or(i64::MAX, |&(_, x)| x)),
                };
                // Forward opens whose interval extends past my slab end to
                // every later nonempty processor whose slab it reaches.
                for &(_, typ, _, x1, x2, y) in &state.events {
                    if typ == 1 && x2 > slab_end {
                        for &(src, start) in &firsts {
                            if src > me && start < x2 {
                                mb.send(src, (1, x1, x2, y));
                            }
                        }
                    }
                }
                // Stash slab bounds for step 2 via the output field.
                state.out = vec![(slab_start, None), (slab_end, None)];
                Step::Continue
            }
            _ => {
                let crossings: Vec<(i64, i64, i64)> = mb
                    .take_incoming()
                    .into_iter()
                    .filter(|e| e.msg.0 == 1)
                    .map(|e| (e.msg.1, e.msg.2, e.msg.3))
                    .collect();
                if state.out.len() != 2 {
                    return Step::Halt; // empty chunk
                }
                let slab_start = state.out[0].0;
                let slab_end = state.out[1].0;
                state.out = sweep_slab(&state.events, &crossings, slab_start, slab_end);
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + 35 * (self.chunk + 4) + 17 * (2 * self.chunk + self.max_crossings + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        // Boundary broadcast + crossing forwards to up to v processors.
        (25 + 16) * (self.max_crossings + self.v + 2) * 2 + 256
    }
}

/// Sweep one slab: local events plus crossing segments active from
/// `slab_start`; emit compressed breakpoints within `[slab_start,
/// slab_end)`.
fn sweep_slab(
    events: &[Event],
    crossings: &[(i64, i64, i64)],
    slab_start: i64,
    slab_end: i64,
) -> Vec<(i64, Option<i64>)> {
    // Active multiset of y values.
    let mut active: BTreeMap<i64, u32> = BTreeMap::new();
    for &(_, _, y) in crossings {
        *active.entry(y).or_insert(0) += 1;
    }
    let mut out: Vec<(i64, Option<i64>)> = Vec::new();
    let emit = |out: &mut Vec<(i64, Option<i64>)>, x: i64, val: Option<i64>| {
        if x >= slab_end {
            return;
        }
        if out.last().map(|&(_, v)| v) != Some(val) {
            if out.last().map(|&(px, _)| px) == Some(x) {
                out.pop();
            }
            if out.last().map(|&(_, v)| v) != Some(val) {
                out.push((x, val));
            }
        }
    };
    let min_of = |active: &BTreeMap<i64, u32>| active.keys().next().copied();

    let mut i = 0;
    emit(&mut out, slab_start, min_of(&active));
    while i < events.len() {
        let x = events[i].0;
        while i < events.len() && events[i].0 == x {
            let (_, typ, _, _, _, y) = events[i];
            if typ == 0 {
                // A close at exactly slab_start belongs to a segment whose
                // interval ends where this slab begins: it was never seeded
                // (crossing forwards require start < x2) and never opened
                // locally — skip it, or it would decrement the count of a
                // *different* active segment with the same y.
                if x == slab_start {
                    i += 1;
                    continue;
                }
                let c = active.get_mut(&y).expect("close matches an active open");
                *c -= 1;
                if *c == 0 {
                    active.remove(&y);
                }
            } else {
                *active.entry(y).or_insert(0) += 1;
            }
            i += 1;
        }
        emit(&mut out, x.max(slab_start), min_of(&active));
    }
    out
}

/// Compute the lower envelope of horizontal segments `(x1, x2, y)` over
/// half-open intervals `[x1, x2)`. Returns compressed breakpoints: from
/// each `x` (inclusive) the minimum `y`, or `None` where nothing covers.
/// The list ends with `(max x2, None)` when any segment exists.
pub fn cgm_lower_envelope<E: Executor>(
    exec: &E,
    v: usize,
    segments: &[(i64, i64, i64)],
) -> AlgoResult<Vec<(i64, Option<i64>)>> {
    cgm_lower_envelope_with_budget(exec, v, segments, segments.len())
}

/// [`cgm_lower_envelope`] with an explicit bound on how many segments may
/// cross into any single slab (sizes μ/γ for out-of-core execution; the
/// default budget of `n` is always safe but large). The external-memory
/// simulators raise a typed budget violation if it is exceeded.
pub fn cgm_lower_envelope_with_budget<E: Executor>(
    exec: &E,
    v: usize,
    segments: &[(i64, i64, i64)],
    max_crossings: usize,
) -> AlgoResult<Vec<(i64, Option<i64>)>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if segments.iter().any(|&(x1, x2, _)| x1 >= x2) {
        return Err(AlgoError::Input("segments need x1 < x2".into()));
    }
    if segments.is_empty() {
        return Ok(Vec::new());
    }
    let events: Vec<Event> = segments
        .iter()
        .enumerate()
        .flat_map(|(id, &(x1, x2, y))| {
            [(x1, 1u8, id as u64, x1, x2, y), (x2, 0u8, id as u64, x1, x2, y)]
        })
        .collect();
    let n = events.len();
    let sorted = cgm_sort(exec, v, events)?;
    let prog = EnvSweep { chunk: n.div_ceil(v).max(1), v, max_crossings };
    let states = distribute(sorted, v)
        .into_iter()
        .map(|events| EnvState { events, out: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;

    // Concatenate per-slab outputs and compress.
    let mut out: Vec<(i64, Option<i64>)> = Vec::new();
    for s in res.states {
        for (x, val) in s.out {
            if out.last().map(|&(_, v)| v) != Some(val) {
                out.push((x, val));
            }
        }
    }
    Ok(out)
}

/// Sequential reference: global sweep.
pub fn seq_lower_envelope(segments: &[(i64, i64, i64)]) -> Vec<(i64, Option<i64>)> {
    if segments.is_empty() {
        return Vec::new();
    }
    let mut events: Vec<(i64, u8, i64)> =
        segments.iter().flat_map(|&(x1, x2, y)| [(x1, 1u8, y), (x2, 0u8, y)]).collect();
    events.sort_unstable();
    let mut active: BTreeMap<i64, u32> = BTreeMap::new();
    let mut out: Vec<(i64, Option<i64>)> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let x = events[i].0;
        while i < events.len() && events[i].0 == x {
            let (_, typ, y) = events[i];
            if typ == 0 {
                let c = active.get_mut(&y).expect("close matches open");
                *c -= 1;
                if *c == 0 {
                    active.remove(&y);
                }
            } else {
                *active.entry(y).or_insert(0) += 1;
            }
            i += 1;
        }
        let val = active.keys().next().copied();
        if out.last().map(|&(_, v)| v) != Some(val) {
            out.push((x, val));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_segments(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x1 = signed(&mut rng, -500..480);
                let x2 = x1 + signed(&mut rng, 1..200);
                (x1, x2, signed(&mut rng, -100..100))
            })
            .collect()
    }

    #[test]
    fn matches_reference_random() {
        for seed in [13, 14, 15] {
            let segs = random_segments(150, seed);
            let want = seq_lower_envelope(&segs);
            let got = cgm_lower_envelope(&SeqExecutor, 6, &segs).unwrap();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn staircase_of_overlapping_segments() {
        let segs = vec![(0, 10, 5), (2, 8, 3), (4, 6, 1)];
        let got = cgm_lower_envelope(&SeqExecutor, 3, &segs).unwrap();
        assert_eq!(
            got,
            vec![(0, Some(5)), (2, Some(3)), (4, Some(1)), (6, Some(3)), (8, Some(5)), (10, None)]
        );
    }

    #[test]
    fn gaps_produce_none() {
        let segs = vec![(0, 2, 7), (5, 6, 9)];
        let got = cgm_lower_envelope(&SeqExecutor, 4, &segs).unwrap();
        assert_eq!(got, vec![(0, Some(7)), (2, None), (5, Some(9)), (6, None)]);
    }

    #[test]
    fn adjacent_half_open_segments_merge_cleanly() {
        let segs = vec![(0, 5, 4), (5, 10, 4)];
        let got = cgm_lower_envelope(&SeqExecutor, 4, &segs).unwrap();
        assert_eq!(got, vec![(0, Some(4)), (10, None)]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(cgm_lower_envelope(&SeqExecutor, 2, &[]).unwrap().is_empty());
        assert!(matches!(
            cgm_lower_envelope(&SeqExecutor, 2, &[(3, 3, 0)]),
            Err(AlgoError::Input(_))
        ));
        let one = cgm_lower_envelope(&SeqExecutor, 8, &[(1, 4, -2)]).unwrap();
        assert_eq!(one, vec![(1, Some(-2)), (4, None)]);
    }
}
