//! Algorithm 1 — `SeqCompoundSuperstep`: the single-processor external-
//! memory simulation, which is Algorithm 3 at `p = 1`.
//!
//! The simulator holds at most one *group* of `k = ⌊M/μ⌋` virtual-processor
//! contexts in memory at a time. Per superstep, for each group `i`:
//!
//! 1. **Fetching Phase** — read the message blocks destined for the group
//!    (Step 1(b)) and its contexts (Step 1(a)) from their fixed,
//!    `D`-striped regions;
//! 2. **Computation Phase** — run the BSP program's superstep for the `k`
//!    virtual processors (Step 1(c));
//! 3. **Writing Phase** — write the changed contexts back (Step 1(e)),
//!    then cut the generated messages into blocks and scatter them over
//!    the disks with a fresh random permutation per write cycle
//!    (Step 1(d)).
//!
//! After all groups, Algorithm 2 ([`crate::routing::simulate_routing`])
//! reorganizes the scattered blocks into each group's consecutive region
//! for the next superstep.
//!
//! There is no second engine here: [`SeqEmSimulator`] is an entry point
//! into the compound-superstep engine of `par_sim.rs`, which at `p = 1`
//! runs on the calling thread with the inter-processor exchange as the
//! identity and the barrier a no-op. What this type owns is Algorithm 1's
//! shape of the API: one borrowed [`DiskArray`] rather than a `Vec` of
//! them, files directly in `dir/`, and its own default seed.

use crate::sim_config::{facade_scope::*, sim_facade, SimConfig};

/// The single-processor EM-BSP\* simulator (Algorithms 1 + 2).
///
/// ```
/// use em_bsp::{BspProgram, Mailbox, Step};
/// use em_core::{EmMachine, SeqEmSimulator};
///
/// // A one-superstep program: every virtual processor doubles its state.
/// struct Double;
/// impl BspProgram for Double {
///     type State = u64;
///     type Msg = u64;
///     fn superstep(&self, _: usize, _: &mut Mailbox<u64>, s: &mut u64) -> Step {
///         *s *= 2;
///         Step::Halt
///     }
///     fn max_state_bytes(&self) -> usize { 8 }
/// }
///
/// // 64 KiB of memory, 4 disks of 1 KiB blocks, G = 1.
/// let sim = SeqEmSimulator::new(EmMachine::uniprocessor(64 * 1024, 4, 1024, 1));
/// let (res, report) = sim.run(&Double, (0..8).collect()).unwrap();
/// assert_eq!(res.states[3], 6);
/// assert!(report.io.parallel_ops > 0); // every context went through disk
/// ```
#[derive(Debug, Clone)]
pub struct SeqEmSimulator {
    cfg: SimConfig,
}

impl SeqEmSimulator {
    /// Simulator for the given machine with defaults: seeded RNG, random
    /// placement, in-memory disks. Algorithm 1 has one processor, so the
    /// machine's `p` is taken as 1.
    pub fn new(machine: EmMachine) -> Self {
        SeqEmSimulator { cfg: SimConfig::new(EmMachine { p: 1, ..machine }, 0xD15C_5EED, false) }
    }

    /// Build a fresh [`DiskArray`] per this simulator's configuration
    /// (backend, decorators, fault plan) — the array [`Self::run`] would
    /// construct internally. Callers that want to reuse one array across
    /// runs, or substitute their own storage (e.g. a
    /// [`em_disk::SharedDiskSubstrate`] region), pair this with
    /// [`Self::run_on`].
    pub fn build_disks(&self) -> EmResult<DiskArray> {
        Ok(self.cfg.build_disks()?.pop().expect("one array for the one processor"))
    }

    /// [`Self::run`] on a caller-provided disk array.
    ///
    /// `disks` must match this simulator's [`Self::disk_config`] in drive
    /// count and block size (typed [`EmError::InvalidConfig`](crate::EmError::InvalidConfig) otherwise);
    /// it may be backed by anything — files, memory, or a tenant region of
    /// a shared substrate. The run addresses tracks from 0 upward and
    /// rewrites every region it allocates, so repeated runs on one array
    /// are independent; `disks.stats()` is reset after the initial input
    /// distribution, making the array's counters a clean per-run meter
    /// (read them via [`CostReport::io`], whose `retried_blocks` also
    /// counts the retries the load needed).
    pub fn run_on<P: BspProgram>(
        &self,
        disks: &mut DiskArray,
        prog: &P,
        states: Vec<P::State>,
    ) -> EmResult<(RunResult<P::State>, CostReport)> {
        run_engine(&self.cfg, std::slice::from_mut(disks), prog, Start::Fresh(states))
    }
}

sim_facade!(SeqEmSimulator);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::{AllToAll, Chatty};
    use crate::EmError;
    use em_bsp::{run_sequential, Mailbox, Step};

    fn machine(m: usize, d: usize, b: usize) -> EmMachine {
        EmMachine::uniprocessor(m, d, b, 1)
    }

    #[test]
    fn matches_reference_runner() {
        let v = 16;
        let prog = AllToAll { mu: 124 }; // context region = 128 bytes
        let reference = run_sequential(&prog, vec![0u64; v]).unwrap();
        // M = 256 = 2 context regions per group, 4 disks of 64-byte blocks.
        let sim = SeqEmSimulator::new(machine(256, 4, 64));
        let (res, report) = sim.run(&prog, vec![0u64; v]).unwrap();
        assert_eq!(res.states, reference.states);
        assert_eq!(res.ledger.total_msgs(), reference.ledger.total_msgs());
        assert_eq!(report.k, 2);
        assert_eq!(report.num_groups, 8);
        assert!(report.io.parallel_ops > 0);
        assert_eq!(report.lambda, reference.supersteps());
    }

    #[test]
    fn single_group_fast_path() {
        // Memory big enough for all contexts at once: k = v.
        let prog = AllToAll { mu: 8 };
        let reference = run_sequential(&prog, vec![0u64; 8]).unwrap();
        let sim = SeqEmSimulator::new(machine(1 << 16, 2, 64));
        let (res, report) = sim.run(&prog, vec![0u64; 8]).unwrap();
        assert_eq!(res.states, reference.states);
        assert_eq!(report.num_groups, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let prog = AllToAll { mu: 124 };
        let sim = SeqEmSimulator::new(machine(512, 4, 64)).with_seed(99);
        let (a, ra) = sim.run(&prog, vec![0u64; 16]).unwrap();
        let (b, rb) = sim.run(&prog, vec![0u64; 16]).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
    }

    #[test]
    fn comm_budget_violation_is_detected() {
        let sim = SeqEmSimulator::new(machine(1 << 12, 2, 64));
        let err = sim.run(&Chatty, vec![0u64; 4]).unwrap_err();
        assert!(matches!(err, EmError::CommBudgetExceeded { .. }));
    }

    #[test]
    fn memory_too_small_is_detected() {
        struct Fat;
        impl BspProgram for Fat {
            type State = Vec<u8>;
            type Msg = u8;
            fn superstep(&self, _: usize, _: &mut Mailbox<u8>, _: &mut Vec<u8>) -> Step {
                Step::Halt
            }
            fn max_state_bytes(&self) -> usize {
                1 << 20
            }
        }
        let sim = SeqEmSimulator::new(machine(1 << 10, 2, 64));
        let err = sim.run(&Fat, vec![Vec::new(); 4]).unwrap_err();
        assert!(matches!(err, EmError::MemoryTooSmall { .. }));
    }

    #[test]
    fn context_overflow_is_detected() {
        // State grows beyond the declared μ mid-run.
        struct Grower;
        impl BspProgram for Grower {
            type State = Vec<u8>;
            type Msg = u8;
            fn superstep(&self, step: usize, _: &mut Mailbox<u8>, state: &mut Vec<u8>) -> Step {
                if step < 3 {
                    state.extend_from_slice(&[7; 100]);
                    Step::Continue
                } else {
                    Step::Halt
                }
            }
            fn max_state_bytes(&self) -> usize {
                64 // lies: state reaches 300 bytes
            }
        }
        let sim = SeqEmSimulator::new(machine(1 << 12, 2, 64));
        let err = sim.run(&Grower, vec![Vec::new(); 4]).unwrap_err();
        assert!(matches!(err, EmError::ContextOverflow { .. }));
    }

    #[test]
    fn file_backend_end_to_end() {
        let dir = std::env::temp_dir().join(format!("em-seq-sim-{}", std::process::id()));
        let prog = AllToAll { mu: 124 };
        let reference = run_sequential(&prog, vec![0u64; 8]).unwrap();
        let sim = SeqEmSimulator::new(machine(256, 2, 64)).with_file_backend(&dir);
        let (res, _) = sim.run(&prog, vec![0u64; 8]).unwrap();
        assert_eq!(res.states, reference.states);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointing_requires_file_backend() {
        let prog = AllToAll { mu: 124 };
        let sim = SeqEmSimulator::new(machine(256, 4, 64)).with_checkpointing(true);
        let err = sim.run(&prog, vec![0u64; 16]).unwrap_err();
        assert!(matches!(err, EmError::InvalidConfig(_)));
    }

    #[test]
    fn kill_point_requires_checkpointing() {
        let prog = AllToAll { mu: 124 };
        let sim = SeqEmSimulator::new(machine(256, 4, 64)).with_kill_point(KillPoint::AtBarrier(0));
        let err = sim.run(&prog, vec![0u64; 16]).unwrap_err();
        assert!(matches!(err, EmError::InvalidConfig(_)));
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_unchecked() {
        let prog = AllToAll { mu: 124 };
        let dir = std::env::temp_dir().join(format!("em-seq-ckpt-off-{}", std::process::id()));
        let plain = SeqEmSimulator::new(machine(256, 4, 64)).with_file_backend(dir.join("plain"));
        let (a, ra) = plain.run(&prog, vec![0u64; 16]).unwrap();
        let ckpt = SeqEmSimulator::new(machine(256, 4, 64))
            .with_file_backend(dir.join("ckpt"))
            .with_checkpointing(true);
        let (b, rb) = ckpt.run(&prog, vec![0u64; 16]).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
        assert_eq!(ra.phases, rb.phases);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        let prog = AllToAll { mu: 124 };
        let base_dir = std::env::temp_dir().join(format!("em-seq-ckpt-{}", std::process::id()));
        // Uninterrupted checkpointed run — the reference.
        let dir_a = base_dir.join("uninterrupted");
        let sim_a = SeqEmSimulator::new(machine(256, 4, 64))
            .with_file_backend(&dir_a)
            .with_checkpointing(true);
        let (a, ra) = sim_a.run(&prog, vec![0u64; 16]).unwrap();
        for kill in [KillPoint::AtBarrier(0), KillPoint::MidSuperstep(1), KillPoint::MidManifest(1)]
        {
            let dir_b = base_dir.join(format!("{kill:?}"));
            let sim_b = SeqEmSimulator::new(machine(256, 4, 64))
                .with_file_backend(&dir_b)
                .with_checkpointing(true);
            let err = sim_b.clone().with_kill_point(kill).run(&prog, vec![0u64; 16]).unwrap_err();
            assert!(matches!(err, EmError::Killed { .. }), "{kill:?}: {err}");
            let (b, rb) = sim_b.resume(&prog).unwrap();
            assert_eq!(a.states, b.states, "{kill:?}");
            assert_eq!(a.ledger, b.ledger, "{kill:?}");
            assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops, "{kill:?}");
            assert_eq!(ra.io.per_disk_reads, rb.io.per_disk_reads, "{kill:?}");
            assert_eq!(ra.io.per_disk_writes, rb.io.per_disk_writes, "{kill:?}");
            assert_eq!(ra.phases, rb.phases, "{kill:?}");
        }
        std::fs::remove_dir_all(&base_dir).ok();
    }

    /// A retry the initial load needed is on the run's meter, as is one
    /// inside a superstep, once: a second run on the same array counts
    /// neither of the first run's.
    #[test]
    fn load_retries_are_metered_per_run() {
        let prog = AllToAll { mu: 124 };
        // 16 contexts of 2 blocks load as 8 tracks a drive: drive 1's
        // transfer 8 is the first of the superstep.
        let plan = em_disk::FaultPlan::none().with_transient(0, 0).with_transient(1, 8);
        let sim = SeqEmSimulator::new(machine(256, 4, 64))
            .with_fault_plan(plan)
            .with_retry(em_disk::RetryPolicy::new(2));
        let mut disks = sim.build_disks().unwrap();
        let (_, first) = sim.run_on(&mut disks, &prog, vec![0u64; 16]).unwrap();
        let (_, second) = sim.run_on(&mut disks, &prog, vec![0u64; 16]).unwrap();
        assert_eq!((first.io.retried_blocks, second.io.retried_blocks), (2, 0));
        assert_eq!(first.io.parallel_ops, second.io.parallel_ops);
    }

    #[test]
    fn round_robin_placement_matches_reference_too() {
        let prog = AllToAll { mu: 124 };
        let reference = run_sequential(&prog, vec![0u64; 16]).unwrap();
        let sim = SeqEmSimulator::new(machine(512, 4, 64)).with_placement(Placement::RoundRobin);
        let (res, _) = sim.run(&prog, vec![0u64; 16]).unwrap();
        assert_eq!(res.states, reference.states);
    }
}
