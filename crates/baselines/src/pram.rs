//! PRAM-simulation baseline (Chiang et al. 1995): execute each PRAM step
//! by *sorting* the memory requests so they can be served with a scan —
//! one external-sort batch per PRAM step.
//!
//! The paper's Section 2.1 observes this is only I/O-optimal for
//! "geometrically decreasing size" computations; list ranking by pointer
//! jumping keeps the full `n` active for all `log n` steps, so the PRAM
//! route pays `Θ(log n · sort(n))` I/Os where the paper's simulation pays
//! `O(λ · n/(DB))`. We implement exactly that workload to regenerate the
//! comparison.

use crate::external_sort::ExternalSort;
use crate::records::FixedRec;
use em_disk::{DiskArray, DiskResult, IoStats};

/// Marker for chain tails (matches `em_algos::graph::list_ranking::NIL`).
pub const NIL: u64 = u64::MAX;

impl FixedRec for (u64, u64, u64, u64) {
    const BYTES: usize = 32;
}

/// List ranking via PRAM-step simulation: every pointer-jumping step is
/// realized as two external sorts (gather successor values, scatter back).
/// Returns the ranks (weight sums to the tail, inclusive, unit weights)
/// and the accumulated I/O counters.
pub fn pram_list_rank(
    disks: &mut DiskArray,
    m_bytes: usize,
    succ: &[u64],
) -> DiskResult<(Vec<u64>, IoStats, usize)> {
    let n = succ.len();
    let sorter = ExternalSort { m_bytes };
    // Node records: (id, ptr, rank).
    let mut nodes: Vec<(u64, u64, u64)> =
        succ.iter().enumerate().map(|(i, &s)| (i as u64, s, 1)).collect();
    let mut io = IoStats::new(disks.num_disks());
    let mut steps = 0usize;

    loop {
        let active = nodes.iter().any(|&(_, p, _)| p != NIL);
        if !active {
            break;
        }
        steps += 1;
        // PRAM step: rank[x] += rank[ptr[x]]; ptr[x] = ptr[ptr[x]].
        // EM realization: sort read-requests by target, scan against the
        // id-sorted node table, sort replies back by requester.
        // Requests: (target, requester, _, _).
        let requests: Vec<(u64, u64, u64, u64)> =
            nodes.iter().filter(|&&(_, p, _)| p != NIL).map(|&(x, p, _)| (p, x, 0, 0)).collect();
        let (sorted_req, s1) = sorter.run(disks, requests)?;
        io.merge(&s1.io)?;

        // Scan: nodes are kept id-sorted, so a merge-scan answers all
        // requests (counts as one linear pass: n/DB reads + writes).
        let scan_blocks = (n * 24).div_ceil(disks.block_bytes()) as u64;
        let scan_ops = 2 * scan_blocks.div_ceil(disks.num_disks() as u64);
        io.parallel_ops += scan_ops;
        io.blocks_read += scan_blocks;
        io.blocks_written += scan_blocks;
        let mut replies: Vec<(u64, u64, u64, u64)> = Vec::with_capacity(sorted_req.len());
        for (target, requester, _, _) in sorted_req {
            let (_, p, r) = nodes[target as usize];
            replies.push((requester, p, r, 0));
        }

        // Sort replies back into requester order.
        let (sorted_rep, s2) = sorter.run(disks, replies)?;
        io.merge(&s2.io)?;
        for (requester, p, r, _) in sorted_rep {
            let node = &mut nodes[requester as usize];
            node.2 = node.2.wrapping_add(r);
            node.1 = p;
        }
    }

    Ok((nodes.into_iter().map(|(_, _, r)| r).collect(), io, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_disk::DiskConfig;

    #[test]
    fn pram_list_rank_is_correct() {
        // 0 -> 1 -> 2 -> 3 -> 4
        let succ = vec![1, 2, 3, 4, NIL];
        let mut disks = DiskArray::new_memory(DiskConfig::new(2, 64).unwrap());
        let (ranks, io, steps) = pram_list_rank(&mut disks, 256, &succ).unwrap();
        assert_eq!(ranks, vec![5, 4, 3, 2, 1]);
        assert!(steps >= 3, "log2(5) rounds, got {steps}");
        assert!(io.parallel_ops > 0);
    }

    #[test]
    fn pram_pays_sort_per_step() {
        // The I/O count grows ~log n times the per-sort cost.
        let n = 512;
        let succ: Vec<u64> =
            (0..n as u64).map(|i| if i + 1 < n as u64 { i + 1 } else { NIL }).collect();
        let mut disks = DiskArray::new_memory(DiskConfig::new(2, 64).unwrap());
        let (ranks, io, steps) = pram_list_rank(&mut disks, 1024, &succ).unwrap();
        assert_eq!(ranks[0], n as u64);
        assert!(steps >= 9); // log2(512)
                             // Far more than a couple of linear passes over the data.
        let linear_pass = (n as u64 * 32) / 64 / 2;
        assert!(io.parallel_ops > 10 * linear_pass, "ops = {}", io.parallel_ops);
    }
}
