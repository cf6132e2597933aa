//! Everything about a simulation that is *not* the algorithm: the knobs,
//! disk construction, run validation and the fault wrapper.
//!
//! Both entry points — [`SeqEmSimulator`](crate::SeqEmSimulator) and
//! [`ParEmSimulator`](crate::ParEmSimulator) — wrap one [`SimConfig`] and
//! get their builder methods and accessors from [`sim_facade!`], so each
//! body exists once. The engine in `par_sim.rs` reads the config and
//! nothing else.

use crate::checkpoint::KillPoint;
use crate::machine::EmMachine;
use crate::msg::Placement;
use crate::report::{FaultReport, RecoveryPolicy};
use crate::{EmError, EmResult};
use em_disk::{DiskArray, DiskConfig, FaultPlan, FaultStats, RetryPolicy};
use std::path::PathBuf;
use std::sync::Arc;

/// The knob set shared by both simulator types.
#[derive(Debug, Clone)]
pub(crate) struct SimConfig {
    pub machine: EmMachine,
    pub seed: u64,
    pub placement: Placement,
    pub max_supersteps: usize,
    /// Directory of the file backend; `None` keeps the disks in memory.
    pub file_dir: Option<PathBuf>,
    /// Where processor `i`'s files live under `file_dir`: in `proc-<i>/`
    /// (Algorithm 3's entry point, whatever `p` is) or in the directory
    /// itself (Algorithm 1's, which only ever has processor 0).
    pub per_proc_dirs: bool,
    pub fault_plan: Option<FaultPlan>,
    pub checksums: bool,
    pub retry: Option<RetryPolicy>,
    pub recovery: Option<RecoveryPolicy>,
    pub checkpoint: bool,
    pub kill: Option<KillPoint>,
}

impl SimConfig {
    /// Defaults: seeded RNG, random placement, in-memory disks, every
    /// optional layer off.
    pub fn new(machine: EmMachine, seed: u64, per_proc_dirs: bool) -> Self {
        SimConfig {
            machine,
            seed,
            placement: Placement::Random,
            max_supersteps: em_bsp::DEFAULT_MAX_SUPERSTEPS,
            file_dir: None,
            per_proc_dirs,
            fault_plan: None,
            checksums: false,
            retry: None,
            recovery: None,
            checkpoint: false,
            kill: None,
        }
    }

    pub fn disk_config(&self) -> EmResult<DiskConfig> {
        let cfg = self.machine.disk_config()?.with_checksums(self.checksums);
        Ok(match self.retry {
            Some(policy) => cfg.with_retry(policy),
            None => cfg,
        })
    }

    /// Directory of processor `i`'s drive files and manifests;
    /// `None` on the memory backend.
    pub fn worker_dir(&self, i: usize) -> Option<PathBuf> {
        let dir = self.file_dir.as_ref()?;
        Some(if self.per_proc_dirs { dir.join(format!("proc-{i}")) } else { dir.clone() })
    }

    /// Whether a superstep must leave its starting barrier intact: a run
    /// that can roll a superstep back or resume it after a crash. Such a
    /// run keeps two context generations and holds the final region its
    /// messages were fetched from until the barrier commits, so every
    /// write of a superstep lands on tracks its barrier left free.
    pub fn keeps_barrier(&self) -> bool {
        self.recovery.is_some() || self.checkpoint
    }

    /// One fresh private [`DiskArray`] per processor (backend, decorators,
    /// fault plan — each array gets a clone of the plan; injection
    /// counters are shared and aggregated).
    pub fn build_disks(&self) -> EmResult<Vec<DiskArray>> {
        self.machine.validate()?;
        let cfg = self.disk_config()?;
        (0..self.machine.p)
            .map(|i| {
                Ok(match self.worker_dir(i) {
                    None => DiskArray::new_memory_with_faults(cfg, self.fault_plan.clone()),
                    Some(dir) => {
                        DiskArray::new_file_with_faults(cfg, dir, self.fault_plan.clone())?
                    }
                })
            })
            .collect()
    }

    /// What must hold before any worker starts: a valid machine, one
    /// matching array per processor, and somewhere durable for manifests
    /// when checkpointing.
    pub fn validate_run(&self, disks: &[DiskArray]) -> EmResult<()> {
        self.machine.validate()?;
        if self.checkpoint && self.file_dir.is_none() {
            return Err(EmError::InvalidConfig(
                "checkpointing requires the file backend (with_file_backend)".into(),
            ));
        }
        if self.kill.is_some() && !self.checkpoint {
            return Err(EmError::InvalidConfig(
                "a kill point requires checkpointing (with_checkpointing)".into(),
            ));
        }
        let p = self.machine.p;
        if disks.len() != p {
            return Err(EmError::InvalidConfig(format!(
                "{} disk arrays provided for p = {p} processors",
                disks.len()
            )));
        }
        let expected = self.machine.disk_config()?;
        for arr in disks {
            let cfg = arr.config();
            if cfg.num_disks != expected.num_disks || cfg.block_bytes != expected.block_bytes {
                return Err(EmError::InvalidConfig(format!(
                    "disk array shape {}x{}B does not match the machine's {}x{}B",
                    cfg.num_disks, cfg.block_bytes, expected.num_disks, expected.block_bytes
                )));
            }
        }
        Ok(())
    }

    /// Whether the run has fault machinery enabled (and therefore reports
    /// a [`FaultReport`]).
    pub fn fault_run(&self) -> bool {
        self.fault_plan.is_some() || self.recovery.is_some()
    }

    /// The injection/retry/replay tally of a fault run, as both the final
    /// [`CostReport`](crate::CostReport) and a typed failure carry it.
    pub fn fault_report(
        &self,
        fault_stats: &Option<Arc<FaultStats>>,
        (retried_blocks, recovery_ops): (u64, u64),
        (recovered_supersteps, replays): (u64, u64),
        failed_superstep: Option<usize>,
    ) -> FaultReport {
        FaultReport {
            injected: fault_stats.as_ref().map(|s| s.counts()).unwrap_or_default(),
            retried_blocks,
            recovery_ops,
            recovered_supersteps,
            replays,
            failed_superstep,
        }
    }

    /// Dress an unrecoverable error in [`EmError::FaultUnrecoverable`] with
    /// the injection/recovery tally — but only for disk errors of a run
    /// that had fault machinery enabled; logic errors (γ violations,
    /// corrupt message streams, ...) and already-wrapped errors pass through
    /// untouched.
    pub fn wrap_fault(
        &self,
        step: usize,
        err: EmError,
        fault_stats: &Option<Arc<FaultStats>>,
        absorbed: (u64, u64),
        tallies: (u64, u64),
    ) -> EmError {
        if !self.fault_run() || !matches!(err, EmError::Disk(_)) {
            return err;
        }
        EmError::FaultUnrecoverable {
            step,
            report: self.fault_report(fault_stats, absorbed, tallies, Some(step)),
            source: Box::new(err),
        }
    }
}

/// The names [`sim_facade!`]'s expansion refers to; a simulator module
/// glob-imports this next to invoking the macro.
pub(crate) mod facade_scope {
    pub(crate) use crate::checkpoint::KillPoint;
    pub(crate) use crate::machine::EmMachine;
    pub(crate) use crate::msg::Placement;
    pub(crate) use crate::par_sim::{resume_engine, run_engine, Start};
    pub(crate) use crate::report::{CostReport, RecoveryPolicy};
    pub(crate) use crate::EmResult;
    pub(crate) use em_bsp::{BspProgram, RunResult};
    pub(crate) use em_disk::{
        DiskArray, DiskConfig, EngineKind, FaultPlan, IoMode, Pipeline, RetryPolicy,
    };
}

/// The public surface both simulator types share — every `with_*` builder,
/// the accessors, `run`, `resume` and the [`em_bsp::Executor`] impls (bare
/// and [`Recording`](crate::Recording)-wrapped) — generated once for a struct with a
/// `cfg: SimConfig` field, an inherent `build_disks` and an inherent
/// `run_on`. "Each processor" below means the one processor of
/// [`SeqEmSimulator`](crate::SeqEmSimulator) or the `p` of
/// [`ParEmSimulator`](crate::ParEmSimulator).
macro_rules! sim_facade {
    ($sim:ident) => {
        impl $sim {
            /// Use a specific RNG seed (runs are reproducible per seed).
            pub fn with_seed(mut self, seed: u64) -> Self {
                self.cfg.seed = seed;
                self
            }

            /// Choose the disk-assignment strategy of the Writing Phase.
            pub fn with_placement(mut self, placement: Placement) -> Self {
                self.cfg.placement = placement;
                self
            }

            /// Back the simulated disks with real files: inside `dir` for
            /// `SeqEmSimulator`, under `dir/proc-<i>/` per processor for
            /// `ParEmSimulator`.
            pub fn with_file_backend(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
                self.cfg.file_dir = Some(dir.into());
                self
            }

            /// Does nothing: [`IoMode`] has one value. The file backend
            /// moves every transfer on the thread that simulates its
            /// processor, whatever `D` is. Kept because the benchmark
            /// calls it.
            pub fn with_io_mode(self, _mode: IoMode) -> Self {
                self
            }

            /// Does nothing: [`Pipeline`] has one value, and every
            /// transfer is joined where it is submitted. Kept because
            /// `benchmark/` names it.
            pub fn with_pipeline(self, _pipeline: Pipeline) -> Self {
                self
            }

            /// Does nothing: [`EngineKind`] has one value, and the file
            /// backend has no engine to choose. Kept because the
            /// benchmark calls it.
            pub fn with_engine(self, _engine: EngineKind) -> Self {
                self
            }

            /// Does nothing: the file backend starts no thread, so there
            /// is nothing to pin. Kept because the benchmark calls it.
            pub fn with_pinned_workers(self, _pin: bool) -> Self {
                self
            }

            /// Guard limit for non-terminating programs.
            pub fn with_max_supersteps(mut self, limit: usize) -> Self {
                self.cfg.max_supersteps = limit;
                self
            }

            /// Inject disk faults from a seeded [`FaultPlan`] into every
            /// processor's private disk array, placed directly above the
            /// raw storage (below checksums and retry, exactly where real
            /// media faults live). The plan only *injects*; pair it with
            /// [`Self::with_retry`] and [`Self::with_recovery`] to absorb
            /// the injected faults, or expect a typed
            /// [`EmError::FaultUnrecoverable`](crate::EmError::FaultUnrecoverable).
            pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
                self.cfg.fault_plan = Some(plan);
                self
            }

            /// Frame every stored track with a CRC32 and verify it on read
            /// ([`em_disk::DiskError::Corrupt`] on mismatch). Off by
            /// default.
            pub fn with_checksums(mut self, on: bool) -> Self {
                self.cfg.checksums = on;
                self
            }

            /// Retry transient per-track faults inside the disk substrate.
            /// Retries are tallied in [`em_disk::IoStats::retried_blocks`]
            /// and do not touch the paper-facing counted parallel I/O.
            pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
                self.cfg.retry = Some(policy);
                self
            }

            /// Enable superstep-granular recovery: simulation state
            /// advances only at each superstep's barrier, and a
            /// transient disk fault that survives the retry policy rolls
            /// the run back to the last committed superstep and replays
            /// it (at most `policy.max_replays_per_superstep` times). The
            /// replay decision is global: processor 0 inspects every
            /// processor's failure at the superstep barrier, and either
            /// *all* roll back and replay in lockstep, or the run degrades
            /// into a typed [`EmError::FaultUnrecoverable`](crate::EmError::FaultUnrecoverable).
            ///
            /// A superstep writes only tracks its starting barrier left
            /// free: contexts go to a second generation, and the final
            /// region the messages were fetched from stays held until the
            /// barrier commits. A rollback is then bookkeeping only — the
            /// allocator state and counted stats of the barrier, with no
            /// I/O; the discarded attempt's operations land in
            /// [`IoStats::recovery_ops`](em_disk::IoStats::recovery_ops).
            /// Without faults, counted I/O, final states and seeded traces
            /// are identical to a run without recovery; the run holds more
            /// tracks (`tracks_per_disk`).
            pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
                self.cfg.recovery = Some(policy);
                self
            }

            /// Persist a durable checkpoint at every superstep barrier on
            /// every processor, so the run survives a process crash.
            /// Requires the file backend ([`Self::with_file_backend`]);
            /// typed [`EmError::InvalidConfig`](crate::EmError::InvalidConfig) otherwise. Each processor
            /// keeps its manifests next to its drive files.
            ///
            /// At each barrier every processor atomically commits
            /// a CRC-framed *manifest* (fsync the drives → write-new →
            /// fsync → rename → fsync the directory) holding everything
            /// resume needs — next superstep, group counts, the
            /// allocator's held tracks, committed [`IoStats`](em_disk::IoStats), ledger
            /// and the fault-injection schedule position. As under
            /// [`Self::with_recovery`], a superstep writes only tracks its
            /// barrier left free, so no pre-image is ever kept. The commit
            /// protocol tolerates the one-superstep skew a crash can leave
            /// between processors: all make their barrier data durable,
            /// then commit manifests, and no processor writes over the
            /// barrier's context generation or final region until a
            /// barrier proves every manifest durable. [`Self::resume`]
            /// picks the *minimum* committed barrier and replays
            /// deterministically: final states, ledger, counted parallel
            /// I/O operations and the drive bytes are bit-identical to the
            /// uninterrupted run. Checkpoint traffic is never counted in
            /// the paper-facing `parallel_ops`. These fsyncs, and one
            /// after the input is loaded, are the only ones a run makes:
            /// without checkpointing its drives are scratch and never
            /// synced.
            pub fn with_checkpointing(mut self, on: bool) -> Self {
                self.cfg.checkpoint = on;
                self
            }

            /// Simulate a whole-process crash at `kill` for chaos testing:
            /// every processor dies at the kill point and the run returns
            /// [`EmError::Killed`](crate::EmError::Killed), leaving the on-disk state exactly as a
            /// real crash at that point would. With
            /// [`KillPoint::MidManifest`] processor 0 tears its manifest
            /// while the others commit in full — the commit skew
            /// [`Self::resume`] must reconcile. Requires
            /// [`Self::with_checkpointing`]. If the program terminates
            /// before the kill point's superstep, the run completes
            /// normally.
            pub fn with_kill_point(mut self, kill: KillPoint) -> Self {
                self.cfg.kill = Some(kill);
                self
            }

            /// The machine this simulator targets.
            pub fn machine(&self) -> &EmMachine {
                &self.cfg.machine
            }

            /// The [`DiskConfig`] each processor's private array is built
            /// with — the shape every array passed to [`Self::run_on`]
            /// must have.
            pub fn disk_config(&self) -> EmResult<DiskConfig> {
                self.cfg.disk_config()
            }

            /// Run `prog` on `states.len()` virtual processors entirely
            /// through the external-memory machinery; returns the final
            /// states (identical to [`em_bsp::run_sequential`]) plus the
            /// measured [`CostReport`].
            ///
            /// Equivalent to [`Self::build_disks`] followed by
            /// [`Self::run_on`]: the simulator itself holds no per-run
            /// state, so one simulator value can execute any number of
            /// runs, sequentially or from multiple threads.
            pub fn run<P: BspProgram>(
                &self,
                prog: &P,
                states: Vec<P::State>,
            ) -> EmResult<(RunResult<P::State>, CostReport)> {
                let mut disks = self.cfg.build_disks()?;
                run_engine(&self.cfg, &mut disks, prog, Start::Fresh(states))
            }

            /// Resume a checkpointed run after a (real or simulated)
            /// process crash, continuing from the last barrier every
            /// processor committed.
            ///
            /// Each processor's drive files are reattached without
            /// truncation. A crash can leave the processors' manifests
            /// skewed by one superstep (some committed barrier `s+1`, some
            /// only `s`); the global resume point is the *minimum*
            /// committed barrier, whose bytes are still on every
            /// processor's drives: no processor writes over them before
            /// every manifest of barrier `s+1` is proven durable.
            /// Fault-injection schedule positions are restored per
            /// processor, and the remaining supersteps replay
            /// deterministically: final states, the communication ledger,
            /// counted parallel I/O operations and the drive bytes are
            /// bit-identical to the uninterrupted run. Resuming an
            /// already-finished run just rebuilds its result. The
            /// simulator's configuration (seed, machine shape, program
            /// budgets) must match the checkpointed run; a typed
            /// [`EmError::InvalidConfig`](crate::EmError::InvalidConfig) names the first mismatch.
            pub fn resume<P: BspProgram>(
                &self,
                prog: &P,
            ) -> EmResult<(RunResult<P::State>, CostReport)> {
                resume_engine(&self.cfg, prog)
            }
        }

        impl em_bsp::Executor for $sim {
            fn execute<P: BspProgram>(
                &self,
                prog: &P,
                states: Vec<P::State>,
            ) -> Result<RunResult<P::State>, em_bsp::ExecError> {
                let (res, _report) =
                    self.run(prog, states).map_err(|e| Box::new(e) as em_bsp::ExecError)?;
                Ok(res)
            }
        }

        impl em_bsp::Executor for $crate::Recording<$sim> {
            fn execute<P: BspProgram>(
                &self,
                prog: &P,
                states: Vec<P::State>,
            ) -> Result<RunResult<P::State>, em_bsp::ExecError> {
                let (res, report) =
                    self.sim.run(prog, states).map_err(|e| Box::new(e) as em_bsp::ExecError)?;
                self.reports.lock().push(report);
                Ok(res)
            }
        }
    };
}
pub(crate) use sim_facade;
