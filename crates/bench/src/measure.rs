//! Measurement plumbing: run a CGM pipeline on a recording EM simulator
//! and collapse the per-stage cost reports into one comparable record.
//!
//! Counted parallel I/O operations are the signal. The `wall_ms` next to
//! them times the whole pipeline on the memory backend and is there for
//! orientation only: wall clock is `benchmark/embench`'s to measure.

use em_bsp::BspStarParams;
use em_core::{CostReport, EmMachine, ParEmSimulator, Recording, SeqEmSimulator};
use std::time::Instant;

/// One EM-simulated run's aggregate cost.
#[derive(Debug, Clone)]
pub struct EmRunCost {
    /// Total parallel I/O operations (summed over pipeline stages; for
    /// `p > 1`, summed over processors as well — divide by `p` for the
    /// per-processor critical path approximation).
    pub io_ops: u64,
    /// Charged I/O time (`G ·` per-processor max ops, summed over stages).
    pub io_time: u64,
    /// λ across all pipeline stages.
    pub lambda: usize,
    /// Disk utilization (blocks moved per op·D).
    pub utilization: f64,
    /// Worst Lemma 2 balance factor seen.
    pub worst_balance: f64,
    /// Virtual message bytes routed.
    pub msg_bytes: u64,
    /// Real inter-processor bytes (p > 1 only).
    pub real_comm_bytes: u64,
    /// Wall-clock time of the run.
    pub wall_ms: f64,
    /// `p` used.
    pub p: usize,
    /// Per-stage reports, for detailed dumps.
    pub stages: Vec<CostReport>,
}

fn collapse(stages: Vec<CostReport>, p: usize, wall_ms: f64) -> EmRunCost {
    let io_ops = stages.iter().map(|r| r.io.parallel_ops).sum();
    let io_time = stages.iter().map(|r| r.io_time).sum();
    let lambda = stages.iter().map(|r| r.lambda).sum();
    let blocks: u64 = stages.iter().map(|r| r.io.blocks_moved()).sum();
    let d = stages.first().map_or(1, |r| r.io.per_disk_reads.len()) as f64;
    let utilization = if io_ops == 0 { 0.0 } else { blocks as f64 / (io_ops as f64 * d) };
    let worst_balance = stages.iter().map(|r| r.worst_balance()).fold(1.0, f64::max);
    let msg_bytes = stages.iter().map(|r| r.comm.total_bytes()).sum();
    let real_comm_bytes = stages.iter().map(|r| r.real_comm_bytes).sum();
    EmRunCost {
        io_ops,
        io_time,
        lambda,
        utilization,
        worst_balance,
        msg_bytes,
        real_comm_bytes,
        wall_ms,
        p,
        stages,
    }
}

/// A standard benchmark machine: `M` bytes of memory, `D` disks of `B`
/// bytes, `G = 1`, router `b = B`.
pub fn machine(p: usize, m: usize, d: usize, b: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: m,
        d,
        b_bytes: b,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b, l: 1.0 },
    }
}

/// Time `pipeline` on the recording simulator `sim` of `p` processors
/// and collapse what it recorded.
fn measure<S, T>(sim: S, p: usize, pipeline: impl FnOnce(&Recording<S>) -> T) -> (T, EmRunCost) {
    let rec = Recording::new(sim);
    let t0 = Instant::now();
    let out = pipeline(&rec);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    (out, collapse(rec.take_reports(), p, wall))
}

/// Run `pipeline` against a recording uniprocessor simulator and collapse
/// the cost.
pub fn measure_seq<T>(
    mach: EmMachine,
    seed: u64,
    pipeline: impl FnOnce(&Recording<SeqEmSimulator>) -> T,
) -> (T, EmRunCost) {
    measure(SeqEmSimulator::new(mach).with_seed(seed), 1, pipeline)
}

/// Run `pipeline` against a recording `p`-processor simulator and collapse
/// the cost.
pub fn measure_par<T>(
    mach: EmMachine,
    seed: u64,
    pipeline: impl FnOnce(&Recording<ParEmSimulator>) -> T,
) -> (T, EmRunCost) {
    measure(ParEmSimulator::new(mach).with_seed(seed), mach.p, pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_algos::sort::cgm_sort;

    #[test]
    fn measure_collapses_pipeline_stages() {
        let items = crate::workloads::random_u64(2000, 9);
        let (out, cost) = measure_seq(machine(1, 1 << 14, 2, 256), 1, |rec| {
            cgm_sort(rec, 16, items.clone()).unwrap()
        });
        assert_eq!(out.len(), 2000);
        assert!(cost.io_ops > 0);
        assert!(cost.lambda >= 4);
        assert_eq!(cost.stages.len(), 1);
    }
}
