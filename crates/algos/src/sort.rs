//! CGM sample sort (parallel sorting by regular sampling) — Table 1,
//! Group A, "Sorting". λ = 4 supersteps, 3 of them communicating, i.e.
//! O(1) communication rounds as required for the optimal `Õ(G·n/(pBD))`
//! simulated I/O bound.
//!
//! Superstep plan (v virtual processors, n records):
//!
//! 0. local sort; every processor sends `v` regular samples to processor 0;
//! 1. processor 0 sorts the `v²` samples, picks `v − 1` splitters, and
//!    broadcasts them;
//! 2. every processor partitions its sorted run by the splitters and sends
//!    partition `i` to processor `i` (the all-to-all);
//! 3. every processor merges what it received.
//!
//! Regular sampling guarantees every processor ends with fewer than
//! `2·⌈n/v⌉ + v` records (the classical PSRS bound), which sizes μ.

use crate::common::{distribute, max_item_bytes, AlgoError, AlgoResult, Rec};
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct_generic;

/// Per-virtual-processor state of the sample sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortState<T> {
    /// This processor's records (sorted from superstep 0 onward).
    pub data: Vec<T>,
    /// The global splitters (received in superstep 2).
    pub splitters: Vec<T>,
}
impl_serial_struct_generic!(SortState<T> { data, splitters });

/// The sample-sort BSP program. Construct via [`cgm_sort`] or directly for
/// pipeline use.
#[derive(Debug, Clone)]
pub struct SampleSort {
    /// `⌈n/v⌉` — chunk capacity used for μ/γ sizing.
    pub chunk: usize,
    /// `v`.
    pub v: usize,
    /// Upper bound on one record's encoded bytes.
    pub item_bytes: usize,
}

impl SampleSort {
    /// Program for sorting `n` records of at most `item_bytes` encoded
    /// bytes on `v` virtual processors.
    pub fn new(n: usize, v: usize, item_bytes: usize) -> Self {
        SampleSort { chunk: n.div_ceil(v).max(1), v, item_bytes }
    }
}

impl<T: Rec> BspProgram for SampleSortProg<T> {
    type State = SortState<T>;
    type Msg = Vec<T>;

    fn superstep(&self, step: usize, mb: &mut Mailbox<Vec<T>>, state: &mut SortState<T>) -> Step {
        let v = mb.nprocs();
        // Work charging: sorts cost n·log2(n), scans cost n (model units).
        let sort_cost = |n: usize| (n as u64) * (usize::BITS - n.max(2).leading_zeros()) as u64;
        match step {
            0 => {
                state.data.sort_unstable();
                mb.charge(sort_cost(state.data.len()));
                if v == 1 {
                    return Step::Halt;
                }
                // v regular samples of the local sorted run.
                let len = state.data.len();
                let samples: Vec<T> =
                    (0..v).filter_map(|j| state.data.get(j * len / v).cloned()).collect();
                mb.send(0, samples);
                Step::Continue
            }
            1 => {
                if mb.pid() == 0 {
                    let mut all: Vec<T> =
                        mb.take_incoming().into_iter().flat_map(|e| e.msg).collect();
                    all.sort_unstable();
                    mb.charge(sort_cost(all.len()));
                    let splitters: Vec<T> =
                        (1..v).filter_map(|i| all.get(i * all.len() / v).cloned()).collect();
                    for dst in 0..v {
                        mb.send(dst, splitters.clone());
                    }
                }
                Step::Continue
            }
            2 => {
                let splitters = mb.take_incoming().pop().map(|e| e.msg).unwrap_or_default();
                let data = std::mem::take(&mut state.data);
                mb.charge(data.len() as u64);
                // Partition the sorted run by the splitters.
                let mut start = 0;
                for (i, s) in splitters.iter().enumerate() {
                    let end = start + data[start..].partition_point(|x| x <= s);
                    if end > start {
                        mb.send(i, data[start..end].to_vec());
                    }
                    start = end;
                }
                if start < data.len() {
                    mb.send(v - 1, data[start..].to_vec());
                }
                state.splitters = splitters;
                Step::Continue
            }
            _ => {
                let mut merged: Vec<T> =
                    mb.take_incoming().into_iter().flat_map(|e| e.msg).collect();
                merged.sort_unstable();
                mb.charge(sort_cost(merged.len()));
                state.data = merged;
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        // PSRS bound: < 2·chunk + v records, plus splitters and vec headers.
        64 + self.params.item_bytes * (2 * self.params.chunk + 2 * self.params.v + 4)
    }

    fn max_comm_bytes(&self) -> usize {
        // Worst single-processor traffic: processor 0 receives v² samples;
        // the all-to-all moves ≤ 2·chunk records; each superstep sends at
        // most v messages of ≤ 36 bytes framing each.
        let p = &self.params;
        p.item_bytes * (2 * p.chunk + p.v * p.v + 2 * p.v) + 40 * p.v + 256
    }
}

/// Typed wrapper binding [`SampleSort`] parameters to a record type.
#[derive(Debug, Clone)]
pub struct SampleSortProg<T> {
    /// Size parameters.
    pub params: SampleSort,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> SampleSortProg<T> {
    /// Bind the parameters to a record type.
    pub fn new(params: SampleSort) -> Self {
        SampleSortProg { params, _marker: std::marker::PhantomData }
    }
}

/// Sort `items` with the CGM sample sort on `v` virtual processors.
///
/// ```
/// use em_algos::sort::cgm_sort;
/// use em_bsp::SeqExecutor;
///
/// let sorted = cgm_sort(&SeqExecutor, 4, vec![5u64, 3, 9, 1]).unwrap();
/// assert_eq!(sorted, vec![1, 3, 5, 9]);
/// ```
pub fn cgm_sort<E: Executor, T: Rec>(exec: &E, v: usize, items: Vec<T>) -> AlgoResult<Vec<T>> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if items.is_empty() {
        return Ok(items);
    }
    let n = items.len();
    let item_bytes = max_item_bytes(&items);
    let prog = SampleSortProg::<T>::new(SampleSort::new(n, v, item_bytes));
    let states = distribute(items, v)
        .into_iter()
        .map(|chunk| SortState { data: chunk, splitters: Vec::new() })
        .collect();
    let res = exec.execute(&prog, states)?;
    Ok(res.states.into_iter().flat_map(|s| s.data).collect())
}

/// Sequential reference: `sort_unstable`.
pub fn seq_sort<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort_unstable();
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn sorts_random_u64() {
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<u64> = (0..500).map(|_| rng.gen_range(0..10_000)).collect();
        let want = seq_sort(items.clone());
        let got = cgm_sort(&SeqExecutor, 8, items).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_with_heavy_duplicates() {
        let mut rng = StdRng::seed_from_u64(2);
        let items: Vec<u64> = (0..300).map(|_| rng.gen_range(0..5)).collect();
        let want = seq_sort(items.clone());
        let got = cgm_sort(&SeqExecutor, 6, items).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_tuples_by_lexicographic_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let items: Vec<(u32, u64)> =
            (0..200).map(|_| (rng.gen_range(0..50), rng.next_u64())).collect();
        let want = seq_sort(items.clone());
        let got = cgm_sort(&SeqExecutor, 5, items).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(cgm_sort::<_, u64>(&SeqExecutor, 4, vec![]).unwrap(), vec![]);
        assert_eq!(cgm_sort(&SeqExecutor, 4, vec![7u64]).unwrap(), vec![7]);
        assert_eq!(cgm_sort(&SeqExecutor, 1, vec![3u64, 1, 2]).unwrap(), vec![1, 2, 3]);
        // More processors than items.
        assert_eq!(
            cgm_sort(&SeqExecutor, 16, vec![5u64, 4, 3, 2, 1]).unwrap(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn already_sorted_and_reversed() {
        let asc: Vec<u64> = (0..100).collect();
        assert_eq!(cgm_sort(&SeqExecutor, 4, asc.clone()).unwrap(), asc);
        let desc: Vec<u64> = (0..100).rev().collect();
        assert_eq!(cgm_sort(&SeqExecutor, 4, desc).unwrap(), asc);
    }

    #[test]
    fn lambda_is_constant() {
        // The run must finish in a constant number of supersteps (4 plus
        // the final all-halt detection), independent of n.
        for n in [100usize, 1000] {
            let items: Vec<u64> = (0..n as u64).rev().collect();
            let prog = SampleSortProg::<u64>::new(SampleSort::new(n, 8, 8));
            let states = distribute(items, 8)
                .into_iter()
                .map(|c| SortState { data: c, splitters: Vec::new() })
                .collect();
            let res = em_bsp::run_sequential(&prog, states).unwrap();
            assert!(res.supersteps() <= 5, "λ grew with n: {}", res.supersteps());
        }
    }
}
