//! CGM batched next-element / predecessor search — Table 1, Group B
//! ("next element search on line segments", in its order-theoretic core):
//! given a set of keys `S` and a batch of queries `Q`, find for every
//! query the largest key `≤` it.
//!
//! λ = O(1): sort keys and queries together (CGM sample sort on tagged
//! records), then each processor scans its chunk; chunk-initial queries
//! are resolved with the maximum key announced by lower-numbered
//! processors (one broadcast round).

use crate::common::{distribute, AlgoError, AlgoResult};
use crate::sort::cgm_sort;
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// Tagged record: `(value, tag, id)` with `tag = 0` for keys and `1` for
/// queries, so at equal value a key sorts before the queries it answers.
type Tagged = (i64, u8, u64);

/// State of the scan stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredState {
    /// Sorted tagged records of this chunk.
    pub items: Vec<Tagged>,
    /// `(query id, predecessor)` answers (`i64::MIN` encodes "none").
    pub answers: Vec<(u64, i64)>,
}
impl_serial_struct!(PredState { items, answers });

/// The scan BSP program (run after a CGM sort of the tagged records).
#[derive(Debug, Clone)]
pub struct PredScan {
    /// ⌈(|S|+|Q|)/v⌉ for sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
}

impl BspProgram for PredScan {
    type State = PredState;
    type Msg = i64;

    fn superstep(&self, step: usize, mb: &mut Mailbox<i64>, state: &mut PredState) -> Step {
        match step {
            0 => {
                // Announce my largest key (if any) to all higher processors.
                if let Some(&(val, _, _)) = state.items.iter().rev().find(|&&(_, tag, _)| tag == 0)
                {
                    for dst in mb.pid() + 1..mb.nprocs() {
                        mb.send(dst, val);
                    }
                }
                Step::Continue
            }
            _ => {
                let mut last = mb.take_incoming().iter().map(|e| e.msg).max().unwrap_or(i64::MIN);
                let mut answers = Vec::new();
                for &(val, tag, id) in &state.items {
                    if tag == 0 {
                        last = last.max(val);
                    } else {
                        answers.push((id, last));
                    }
                }
                state.answers = answers;
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        64 + (17 + 16) * (2 * self.chunk + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        24 * self.v + 64
    }
}

/// For each query, the largest key `≤` it (`None` if every key is larger).
///
/// Keys equal to the query count as predecessors. `i64::MIN` may not be
/// used as a key (it encodes "no predecessor" internally).
pub fn cgm_predecessor<E: Executor>(
    exec: &E,
    v: usize,
    keys: &[i64],
    queries: &[i64],
) -> AlgoResult<Vec<Option<i64>>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if keys.contains(&i64::MIN) {
        return Err(AlgoError::Input("i64::MIN is reserved".into()));
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let tagged: Vec<Tagged> = keys
        .iter()
        .map(|&k| (k, 0u8, 0u64))
        .chain(queries.iter().enumerate().map(|(i, &q)| (q, 1u8, i as u64)))
        .collect();
    let n = tagged.len();
    let sorted = cgm_sort(exec, v, tagged)?;
    let prog = PredScan { chunk: n.div_ceil(v).max(1), v };
    let states = distribute(sorted, v)
        .into_iter()
        .map(|items| PredState { items, answers: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;
    let mut out = vec![None; queries.len()];
    for s in res.states {
        for (id, pred) in s.answers {
            out[id as usize] = if pred == i64::MIN { None } else { Some(pred) };
        }
    }
    Ok(out)
}

/// Sequential reference via binary search.
pub fn seq_predecessor(keys: &[i64], queries: &[i64]) -> Vec<Option<i64>> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    queries
        .iter()
        .map(|&q| {
            let idx = sorted.partition_point(|&k| k <= q);
            if idx == 0 {
                None
            } else {
                Some(sorted[idx - 1])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::signed;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_reference_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<i64> = (0..200).map(|_| signed(&mut rng, -500..500)).collect();
        let queries: Vec<i64> = (0..300).map(|_| signed(&mut rng, -600..600)).collect();
        let want = seq_predecessor(&keys, &queries);
        let got = cgm_predecessor(&SeqExecutor, 6, &keys, &queries).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn exact_matches_count_as_predecessors() {
        let got = cgm_predecessor(&SeqExecutor, 3, &[10, 20], &[10, 15, 20, 25, 5]).unwrap();
        assert_eq!(got, vec![Some(10), Some(10), Some(20), Some(20), None]);
    }

    #[test]
    fn no_keys_means_no_predecessors() {
        let got = cgm_predecessor(&SeqExecutor, 2, &[], &[1, 2]).unwrap();
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn duplicate_keys_and_queries() {
        let got = cgm_predecessor(&SeqExecutor, 4, &[5, 5, 5], &[5, 5, 4]).unwrap();
        assert_eq!(got, vec![Some(5), Some(5), None]);
    }

    #[test]
    fn reserved_key_rejected() {
        assert!(matches!(
            cgm_predecessor(&SeqExecutor, 2, &[i64::MIN], &[0]),
            Err(AlgoError::Input(_))
        ));
    }
}
