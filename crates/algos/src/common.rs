//! Shared plumbing for the CGM algorithm drivers: record bounds, input
//! distribution, and the driver error type.

use em_bsp::ExecError;
use em_serial::Serial;
use std::fmt;

/// The bound every sortable/routable record must satisfy.
///
/// `Ord` gives deterministic comparisons (geometry uses exact `i64`
/// coordinates precisely so this holds), `Serial` lets the record live in
/// external memory, and `Clone + Send + 'static` let it cross executor
/// threads.
pub trait Rec: Serial + Clone + Send + Ord + fmt::Debug + 'static {}
impl<T: Serial + Clone + Send + Ord + fmt::Debug + 'static> Rec for T {}

/// A draw from a range of signed bounds, for the unit tests: one unsigned
/// draw over its width, shifted — the value `rng.gen_range(range)` gives on
/// the published `rand`, written so that the stand-in
/// `scripts/offline-test.sh` builds against, which samples unsigned ranges
/// only, compiles it.
#[cfg(test)]
pub(crate) fn signed(rng: &mut rand::rngs::StdRng, range: std::ops::Range<i64>) -> i64 {
    use rand::Rng;
    range.start + rng.gen_range(0..(range.end - range.start) as u64) as i64
}

/// Errors from the algorithm drivers.
#[derive(Debug)]
pub enum AlgoError {
    /// The underlying executor failed (BSP error, disk error, ...).
    Exec(ExecError),
    /// The input violated a precondition of the algorithm.
    Input(String),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::Exec(e) => write!(f, "executor error: {e}"),
            AlgoError::Input(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Exec(e) => Some(e.as_ref()),
            AlgoError::Input(_) => None,
        }
    }
}

impl From<ExecError> for AlgoError {
    fn from(e: ExecError) -> Self {
        AlgoError::Exec(e)
    }
}

/// Result alias for the drivers.
pub type AlgoResult<T> = Result<T, AlgoError>;

/// Split `items` into `v` contiguous chunks whose sizes differ by at most
/// one (the CGM input distribution: processor `i` holds the `i`-th chunk).
pub fn distribute<T>(items: Vec<T>, v: usize) -> Vec<Vec<T>> {
    assert!(v > 0, "need at least one virtual processor");
    let n = items.len();
    let base = n / v;
    let extra = n % v;
    let mut out = Vec::with_capacity(v);
    let mut it = items.into_iter();
    for i in 0..v {
        let take = base + usize::from(i < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

/// Largest encoded length over `items` (used to size μ and γ); at least 1.
pub fn max_item_bytes<T: Serial>(items: &[T]) -> usize {
    items.iter().map(Serial::encoded_len).max().unwrap_or(0).max(1)
}

/// The owner of global index `idx` when `n` items are distributed over
/// `v` processors by [`distribute`], together with helpers for chunk
/// arithmetic. Chunk sizes are `⌈n/v⌉` for the first `n mod v` chunks and
/// `⌊n/v⌋` after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMap {
    /// Total items.
    pub n: usize,
    /// Virtual processors.
    pub v: usize,
}

impl ChunkMap {
    /// Size of processor `i`'s chunk.
    pub fn chunk_len(&self, i: usize) -> usize {
        self.n / self.v + usize::from(i < self.n % self.v)
    }

    /// Global index of the first item of processor `i`.
    pub fn chunk_start(&self, i: usize) -> usize {
        let base = self.n / self.v;
        let extra = self.n % self.v;
        i * base + i.min(extra)
    }

    /// Which processor owns global index `idx`.
    pub fn owner(&self, idx: usize) -> usize {
        debug_assert!(idx < self.n);
        let base = self.n / self.v;
        let extra = self.n % self.v;
        let big = extra * (base + 1);
        if idx < big {
            idx / (base + 1)
        } else {
            (idx - big).checked_div(base).map_or(self.v - 1, |q| extra + q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_balances() {
        let chunks = distribute((0..10).collect::<Vec<u32>>(), 3);
        assert_eq!(chunks[0], vec![0, 1, 2, 3]);
        assert_eq!(chunks[1], vec![4, 5, 6]);
        assert_eq!(chunks[2], vec![7, 8, 9]);
    }

    #[test]
    fn distribute_handles_fewer_items_than_procs() {
        let chunks = distribute(vec![1u8, 2], 4);
        assert_eq!(chunks, vec![vec![1], vec![2], vec![], vec![]]);
    }

    #[test]
    fn chunk_map_round_trips() {
        for (n, v) in [(10, 3), (7, 7), (5, 8), (100, 4), (1, 1)] {
            let m = ChunkMap { n, v };
            let mut idx = 0;
            for i in 0..v {
                assert_eq!(m.chunk_start(i), idx, "start of chunk {i} for n={n} v={v}");
                for _ in 0..m.chunk_len(i) {
                    assert_eq!(m.owner(idx), i, "owner of {idx} for n={n} v={v}");
                    idx += 1;
                }
            }
            assert_eq!(idx, n);
        }
    }

    #[test]
    fn max_item_bytes_floor_is_one() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(max_item_bytes(&empty), 1);
        assert_eq!(max_item_bytes(&[1u64]), 8);
        assert_eq!(max_item_bytes(&[vec![0u8; 5], vec![0u8; 2]]), 13);
    }
}
