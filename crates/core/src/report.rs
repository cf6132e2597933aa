//! Cost reporting for simulation runs.

use crate::machine::ModelCheck;
use em_bsp::CommLedger;
use em_disk::{FaultCounts, IoStats};
use std::time::Duration;

/// Superstep-granular recovery knobs for the EM simulators.
///
/// When recovery is enabled, each compound superstep runs inside a disk
/// recovery epoch: committed state is only advanced at the barrier
/// `sync()`, and a transient disk fault that survives the substrate's
/// [`em_disk::RetryPolicy`] triggers a rollback to the last committed
/// state followed by a bounded replay of the whole superstep.
///
/// ```
/// use em_core::RecoveryPolicy;
///
/// // Allow each faulted superstep up to 8 replays before the run is
/// // declared unrecoverable; the default budget is 3.
/// assert_eq!(RecoveryPolicy::new(8).max_replays_per_superstep, 8);
/// assert_eq!(RecoveryPolicy::default().max_replays_per_superstep, 3);
/// // The budget is clamped to at least one replay.
/// assert_eq!(RecoveryPolicy::new(0).max_replays_per_superstep, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecoveryPolicy {
    /// Maximum number of times any single compound superstep may be
    /// replayed before the run is declared unrecoverable.
    pub max_replays_per_superstep: usize,
}

impl RecoveryPolicy {
    /// Replay each faulted superstep at most `max_replays_per_superstep`
    /// times (clamped to at least 1).
    pub fn new(max_replays_per_superstep: usize) -> Self {
        RecoveryPolicy { max_replays_per_superstep: max_replays_per_superstep.max(1) }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::new(3)
    }
}

/// How a fault-injected run went: what the plan fired, what the substrate
/// absorbed via retries, and what the simulator recovered via replays.
///
/// None of these tallies touch the paper-facing counted parallel I/O in
/// [`IoStats::parallel_ops`]; retry and recovery traffic is reported
/// separately (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults fired by the injection plan, by kind.
    pub injected: FaultCounts,
    /// Per-track retries absorbed by the substrate's retry policy.
    pub retried_blocks: u64,
    /// Uncounted recovery operations: pre-image reads, discarded
    /// rolled-back attempt operations, and rollback restore writes.
    pub recovery_ops: u64,
    /// Supersteps that completed only after at least one replay.
    pub recovered_supersteps: u64,
    /// Total superstep replays performed across the run.
    pub replays: u64,
    /// Superstep that could not be completed, when the run failed.
    pub failed_superstep: Option<usize>,
}

/// Parallel I/O operations attributed to each phase of the simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseIo {
    /// Step 1(a): context reads.
    pub fetch_ctx: u64,
    /// Step 1(b): message-region reads.
    pub fetch_msg: u64,
    /// Step 1(d): scratch message writes (the randomized scatter).
    pub scatter: u64,
    /// Step 1(e): context writes.
    pub write_ctx: u64,
    /// Step 2: `SimulateRouting` (both sub-steps).
    pub routing: u64,
}

impl PhaseIo {
    /// Total operations across phases.
    pub fn total(&self) -> u64 {
        self.fetch_ctx + self.fetch_msg + self.scatter + self.write_ctx + self.routing
    }
}

/// Wall-clock time attributed to each phase of the simulation.
///
/// This is the *secondary* signal of DESIGN.md §3.2.2 — host-dependent
/// and page-cache-sensitive — split by phase so that a speedup is
/// attributable. Deliberately a separate struct from [`PhaseIo`]: the
/// counted per-phase I/O operations are asserted bit-identical across the
/// backends and execution knobs, while wall clocks may — and should —
/// differ. On the parallel simulator each field is the maximum across
/// worker threads (the phases run concurrently, so the slowest worker
/// bounds the wall). Replayed supersteps keep their timers: the time
/// genuinely elapsed, even if the attempt was rolled back.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseWall {
    /// Fetching Phase: context and message-region reads (Steps 1(a)/1(b)),
    /// submission and join, and the one pass that reassembles the
    /// delivered streams and decodes each message into its virtual
    /// processor's inbox. (Before EXPERIMENTS.md's "Layer chain,
    /// row 5" the decode was a pass of its own and was filed under
    /// `compute`; numbers from before and after do not compare field by
    /// field, only as `fetch + compute`.)
    pub fetch: Duration,
    /// Computation Phase: decode the contexts, run the superstep, write the
    /// messages it sends onto the round's streams, re-encode the contexts
    /// (Step 1(c)).
    pub compute: Duration,
    /// Writing Phase: context write-back, cutting the round's streams into
    /// blocks and the message scatter (Steps 1(d)/1(e)), each write joined
    /// where it is submitted.
    pub write: Duration,
    /// Step 2: `SimulateRouting` reorganization.
    pub reorganize: Duration,
    /// Superstep-boundary durability barrier (`sync()`).
    pub sync: Duration,
}

impl PhaseWall {
    /// Total wall time across phases.
    pub fn total(&self) -> Duration {
        self.fetch + self.compute + self.write + self.reorganize + self.sync
    }

    /// Element-wise maximum, used to merge concurrent workers' timers.
    pub fn merge_max(&mut self, other: &PhaseWall) {
        self.fetch = self.fetch.max(other.fetch);
        self.compute = self.compute.max(other.compute);
        self.write = self.write.max(other.write);
        self.reorganize = self.reorganize.max(other.reorganize);
        self.sync = self.sync.max(other.sync);
    }
}

/// Everything measured during one external-memory simulation run.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// `v` — virtual processors simulated.
    pub v: usize,
    /// `k` — group size used (`⌊M/μ⌋` clamped to `[1, v]`).
    pub k: usize,
    /// Number of groups (`⌈v/k⌉`) per simulating processor.
    pub num_groups: usize,
    /// `p` — real processors used.
    pub p: usize,
    /// λ — supersteps simulated.
    pub lambda: usize,
    /// Disk counters, merged across real processors.
    pub io: IoStats,
    /// Per-phase I/O operation counts, merged across real processors.
    pub phases: PhaseIo,
    /// Per-phase wall-clock split (max across real processors; secondary
    /// signal — see [`PhaseWall`]).
    pub phase_wall: PhaseWall,
    /// Communication ledger of the simulated program (virtual traffic).
    pub comm: CommLedger,
    /// h-relation bytes actually exchanged between *real* processors
    /// (zero for the uniprocessor simulation).
    pub real_comm_bytes: u64,
    /// Charged I/O time `G · parallel_ops` (max over real processors).
    pub io_time: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Disk tracks used per drive (space, the `O(vμ/DB)` of Lemma 1).
    pub tracks_per_disk: usize,
    /// Empirical Lemma 2 balance factor per superstep (worst bucket/disk
    /// load over its even share).
    pub balance_factors: Vec<f64>,
    /// Theorem 1 side-condition report for this configuration.
    pub checks: Vec<ModelCheck>,
    /// Fault-injection and recovery tallies; `None` unless the run had a
    /// fault plan or recovery enabled.
    pub faults: Option<FaultReport>,
}

impl CostReport {
    /// Blocks of message traffic routed, per superstep on average.
    pub fn avg_blocks_per_superstep(&self) -> f64 {
        if self.lambda == 0 {
            return 0.0;
        }
        self.io.blocks_moved() as f64 / self.lambda as f64
    }

    /// Worst balance factor observed across supersteps.
    pub fn worst_balance(&self) -> f64 {
        self.balance_factors.iter().copied().fold(1.0, f64::max)
    }

    /// Render a compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "v={} k={} groups={} p={} λ={} | io_ops={} blocks={} util={:.2} io_time={} | \
             phases: ctx_r={} msg_r={} scatter={} ctx_w={} routing={} | msgs={} bytes={} | \
             tracks/disk={} balance≤{:.2} wall={:?}",
            self.v,
            self.k,
            self.num_groups,
            self.p,
            self.lambda,
            self.io.parallel_ops,
            self.io.blocks_moved(),
            self.io.utilization(),
            self.io_time,
            self.phases.fetch_ctx,
            self.phases.fetch_msg,
            self.phases.scatter,
            self.phases.write_ctx,
            self.phases.routing,
            self.comm.total_msgs(),
            self.comm.total_bytes(),
            self.tracks_per_disk,
            self.worst_balance(),
            self.wall,
        )
    }

    /// Render the per-phase wall-clock split as a compact one-liner.
    pub fn phase_wall_summary(&self) -> String {
        let w = &self.phase_wall;
        format!(
            "phase wall: fetch={:.1?} compute={:.1?} write={:.1?} reorg={:.1?} sync={:.1?}",
            w.fetch, w.compute, w.write, w.reorganize, w.sync
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_add_up() {
        let p = PhaseIo { fetch_ctx: 1, fetch_msg: 2, scatter: 3, write_ctx: 4, routing: 5 };
        assert_eq!(p.total(), 15);
    }

    #[test]
    fn phase_wall_merge_takes_elementwise_max() {
        let ms = Duration::from_millis;
        let mut a = PhaseWall {
            fetch: ms(5),
            compute: ms(1),
            write: ms(3),
            reorganize: ms(2),
            sync: ms(0),
        };
        let b = PhaseWall {
            fetch: ms(2),
            compute: ms(9),
            write: ms(3),
            reorganize: ms(1),
            sync: ms(4),
        };
        a.merge_max(&b);
        assert_eq!(a.fetch, ms(5));
        assert_eq!(a.compute, ms(9));
        assert_eq!(a.write, ms(3));
        assert_eq!(a.reorganize, ms(2));
        assert_eq!(a.sync, ms(4));
        assert_eq!(a.total(), ms(23));
    }
}
