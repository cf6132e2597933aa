//! Seeded inputs and plain-code reference answers. Both belong to the
//! benchmark: no generator or checker of a program crate is used, so those
//! may change without moving the workloads.

use em_algos::{permute, prefix, sort, transpose, AlgoResult};
use em_bsp::Executor;

/// End-of-list marker of the list-ranking input (`em_algos::graph::list_ranking::NIL`).
const NIL: u64 = u64::MAX;

/// SplitMix64: every input is a pure function of the seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform enough in `0..n` for shuffling benchmark inputs.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The seed of stream `i` of a master seed.
pub fn sub_seed(master: u64, i: u64) -> u64 {
    SplitMix64::new(master ^ i.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

pub fn random_u64s(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

pub fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// One job's input. Every output is a `Vec<u64>`.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    Sort {
        v: usize,
        items: Vec<u64>,
    },
    Permute {
        v: usize,
        items: Vec<u64>,
        perm: Vec<usize>,
    },
    Prefix {
        v: usize,
        items: Vec<u64>,
    },
    Transpose {
        v: usize,
        rows: usize,
        cols: usize,
        data: Vec<u64>,
    },
    /// One chain through all nodes in shuffled order, unit weights.
    ListRank {
        v: usize,
        succ: Vec<u64>,
        weights: Vec<u64>,
    },
}

impl Job {
    pub fn sort(n: usize, v: usize, seed: u64) -> Job {
        Job::Sort { v, items: random_u64s(n, seed) }
    }

    pub fn permute(n: usize, v: usize, seed: u64) -> Job {
        Job::Permute { v, items: random_u64s(n, seed), perm: random_perm(n, seed ^ 0xFEED) }
    }

    pub fn prefix(n: usize, v: usize, seed: u64) -> Job {
        Job::Prefix { v, items: random_u64s(n, seed) }
    }

    pub fn transpose(n: usize, v: usize, seed: u64) -> Job {
        let cols = 8;
        let rows = n / cols;
        Job::Transpose { v, rows, cols, data: random_u64s(rows * cols, seed) }
    }

    pub fn list_rank(n: usize, v: usize, seed: u64) -> Job {
        let order = random_perm(n, seed);
        let mut succ = vec![NIL; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1] as u64;
        }
        Job::ListRank { v, succ, weights: vec![1; n] }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Job::Sort { .. } => "sort",
            Job::Permute { .. } => "permute",
            Job::Prefix { .. } => "prefix",
            Job::Transpose { .. } => "transpose",
            Job::ListRank { .. } => "listrank",
        }
    }

    pub fn v(&self) -> usize {
        match self {
            Job::Sort { v, .. }
            | Job::Permute { v, .. }
            | Job::Prefix { v, .. }
            | Job::Transpose { v, .. }
            | Job::ListRank { v, .. } => *v,
        }
    }

    /// Bytes of the arrays handed to the program.
    pub fn input_bytes(&self) -> u64 {
        let words = match self {
            Job::Sort { items, .. } | Job::Prefix { items, .. } => items.len(),
            Job::Permute { items, perm, .. } => items.len() + perm.len(),
            Job::Transpose { data, .. } => data.len(),
            Job::ListRank { succ, weights, .. } => succ.len() + weights.len(),
        };
        8 * words as u64
    }

    /// The answer, by plain sequential code.
    pub fn reference(&self) -> Vec<u64> {
        match self {
            Job::Sort { items, .. } => {
                let mut out = items.clone();
                out.sort_unstable();
                out
            }
            Job::Permute { items, perm, .. } => {
                let mut out = vec![0; items.len()];
                for (&item, &dst) in items.iter().zip(perm) {
                    out[dst] = item;
                }
                out
            }
            Job::Prefix { items, .. } => {
                let mut acc = 0u64;
                items
                    .iter()
                    .map(|&x| {
                        acc = acc.wrapping_add(x);
                        acc
                    })
                    .collect()
            }
            Job::Transpose { rows, cols, data, .. } => {
                let mut out = Vec::with_capacity(data.len());
                for j in 0..*cols {
                    out.extend((0..*rows).map(|i| data[i * cols + j]));
                }
                out
            }
            Job::ListRank { succ, weights, .. } => {
                // Walk each chain from its head, then fill ranks tail-first.
                let n = succ.len();
                let mut has_pred = vec![false; n];
                for &s in succ.iter().filter(|&&s| s != NIL) {
                    has_pred[s as usize] = true;
                }
                let mut rank = vec![0u64; n];
                let mut chain = Vec::new();
                for head in (0..n).filter(|&i| !has_pred[i]) {
                    chain.clear();
                    let mut at = head as u64;
                    while at != NIL {
                        chain.push(at as usize);
                        at = succ[at as usize];
                    }
                    let mut acc = 0u64;
                    for &node in chain.iter().rev() {
                        acc = acc.wrapping_add(weights[node]);
                        rank[node] = acc;
                    }
                }
                rank
            }
        }
    }

    /// Run the job's CGM pipeline on `exec`. The input is cloned here, so
    /// every repetition pays the same copy.
    pub fn run<E: Executor>(&self, exec: &E) -> AlgoResult<Vec<u64>> {
        match self {
            Job::Sort { v, items } => sort::cgm_sort(exec, *v, items.clone()),
            Job::Permute { v, items, perm } => permute::cgm_permute(exec, *v, items.clone(), perm),
            Job::Prefix { v, items } => prefix::cgm_prefix_sums(exec, *v, items.clone()),
            Job::Transpose { v, rows, cols, data } => {
                transpose::cgm_transpose(exec, *v, *rows, *cols, data.clone())
            }
            Job::ListRank { v, succ, weights } => {
                em_algos::graph::list_ranking::cgm_list_rank(exec, *v, succ, weights)
            }
        }
    }
}

/// Order-sensitive 64-bit digest of an output, for result files.
pub fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF2_9CE4_8422_2325, |h, &w| (h ^ w).wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_bsp::SeqExecutor;

    #[test]
    fn generators_follow_the_seed() {
        for make in [Job::sort, Job::permute, Job::prefix, Job::transpose, Job::list_rank] {
            assert_eq!(make(256, 4, 7), make(256, 4, 7));
            assert_ne!(make(256, 4, 7), make(256, 4, 8));
        }
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }

    #[test]
    fn perm_is_a_permutation_and_chain_is_single() {
        let mut p = random_perm(1000, 3);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
        let Job::ListRank { succ, .. } = Job::list_rank(1000, 4, 3) else { unreachable!() };
        assert_eq!(succ.iter().filter(|&&s| s == NIL).count(), 1);
    }

    #[test]
    fn references_match_small_hand_cases() {
        let job = Job::Permute { v: 1, items: vec![10, 20, 30], perm: vec![2, 0, 1] };
        assert_eq!(job.reference(), vec![20, 30, 10]);
        let job = Job::Prefix { v: 1, items: vec![1, 2, u64::MAX] };
        assert_eq!(job.reference(), vec![1, 3, 2]);
        let job = Job::Transpose { v: 1, rows: 2, cols: 3, data: vec![1, 2, 3, 4, 5, 6] };
        assert_eq!(job.reference(), vec![1, 4, 2, 5, 3, 6]);
        let job = Job::ListRank { v: 1, succ: vec![1, 2, 3, NIL], weights: vec![1; 4] };
        assert_eq!(job.reference(), vec![4, 3, 2, 1]);
    }

    #[test]
    fn program_agrees_with_reference_on_the_plain_executor() {
        for make in [Job::sort, Job::permute, Job::prefix, Job::transpose, Job::list_rank] {
            let job = make(512, 8, 11);
            assert_eq!(job.run(&SeqExecutor).unwrap(), job.reference(), "{}", job.kind());
        }
    }

    #[test]
    fn checksum_sees_order() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
    }
}
