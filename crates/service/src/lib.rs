//! # em-service
//!
//! A long-running **multi-tenant job service** over the EM-BSP\* simulation:
//! many concurrent BSP programs share one physical disk array and one
//! compute-pool budget, with *counted parallel I/O* as the billing signal.
//!
//! The paper's simulation is a batch artifact — one program, one
//! [`DiskArray`], one [`CostReport`]. This crate turns it into a service:
//!
//! * **Admission control** ([`SimService::admit`]) is computed from each
//!   job's *declared* budgets μ (`max_state_bytes`) and γ
//!   (`max_comm_bytes`): a job reserves `v·μ + γ` bytes of the shared
//!   memory budget and a disjoint track region of the shared substrate.
//!   A job that does not fit is rejected with a typed [`AdmissionError`]
//!   — and an admitted tenant is never disturbed by later rejections.
//! * **Isolation + exclusion**: each tenant runs on its own
//!   [`DiskArray`] over a [`em_disk::RegionBackend`] slice of one
//!   [`SharedDiskSubstrate`]; a transfer holds the shared media for its
//!   own tracks only (at most one group's sweep) and the order among
//!   waiting tenants is the OS mutex's, not promised — co-tenancy
//!   affects wall clock only.
//! * **Metering**: every tenant's [`CostReport`] (counted
//!   [`em_disk::IoStats`], per-phase I/O, `PhaseWall` timings) is
//!   accumulated per stage and filed into a [`ServiceReport`] ledger at
//!   [`TenantLease::complete`]. Because counting lives in the tenant's own
//!   array *above* the shared media, per-tenant counted I/O is
//!   bit-identical to the same job run solo on a private array.
//! * **Faults**: a tenant's unrecoverable disk fault quarantines it
//!   ([`ServiceError::Quarantined`]). The service retries nothing itself:
//!   a tenant that wants transient faults absorbed is admitted with a
//!   retrying simulator, `admit_with(spec, sim.with_retry(..))`, whose
//!   retry layer covers every transfer of the tenant's array.
//!
//! A [`TenantLease`] implements [`em_bsp::Executor`], so whole CGM
//! pipelines (`cgm_sort`, `cgm_permute`, …) run as tenants unchanged.
//!
//! ```
//! use em_core::EmMachine;
//! use em_service::{JobSpec, ServiceConfig, SimService};
//! use em_bsp::{BspProgram, Executor, Mailbox, Step};
//!
//! struct Double;
//! impl BspProgram for Double {
//!     type State = u64;
//!     type Msg = u64;
//!     fn superstep(&self, _: usize, _: &mut Mailbox<u64>, s: &mut u64) -> Step {
//!         *s *= 2;
//!         Step::Halt
//!     }
//!     fn max_state_bytes(&self) -> usize {
//!         8
//!     }
//! }
//!
//! let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
//! let machine = EmMachine::uniprocessor(1 << 16, 2, 64, 1);
//! let lease = service
//!     .admit(JobSpec::new("double", 7, machine, 8).with_budgets(8, 64).with_tracks(64))
//!     .unwrap();
//! let out = lease.execute(&Double, (0..8u64).collect()).unwrap();
//! assert_eq!(out.states[3], 6);
//! let record = lease.complete();
//! assert!(record.stages[0].io.parallel_ops > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use em_bsp::{BspProgram, ExecError, Executor, RunResult};
use em_core::{CostReport, EmError, SeqEmSimulator};
use em_disk::{Crc32, DiskArray, FaultPlan, SharedDiskSubstrate};
use parking_lot::Mutex;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared-resource budgets of a [`SimService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// `D` — drives of the shared physical array.
    pub num_disks: usize,
    /// `B` — track (block) size in bytes. Every admitted machine must
    /// match this shape.
    pub block_bytes: usize,
    /// Reservable tracks per drive, carved into disjoint tenant regions.
    pub tracks_per_disk: usize,
    /// Shared compute-pool memory budget in bytes; each tenant reserves
    /// `v·μ + γ` of it ([`JobSpec::reservation_bytes`]).
    pub mem_budget_bytes: usize,
    /// Per-tenant ceiling on the declared γ envelope. Defaults to the
    /// whole memory budget (i.e. effectively unlimited).
    pub max_comm_bytes: usize,
    /// Maximum concurrently admitted tenants (compute-pool slots).
    /// Defaults to `usize::MAX`.
    pub compute_slots: usize,
}

impl ServiceConfig {
    /// A service over `num_disks × tracks_per_disk` tracks of
    /// `block_bytes` each, with the given shared memory budget and no
    /// extra γ or slot limits.
    pub fn new(
        num_disks: usize,
        block_bytes: usize,
        tracks_per_disk: usize,
        mem_budget_bytes: usize,
    ) -> Self {
        ServiceConfig {
            num_disks,
            block_bytes,
            tracks_per_disk,
            mem_budget_bytes,
            max_comm_bytes: mem_budget_bytes,
            compute_slots: usize::MAX,
        }
    }

    /// Cap the per-tenant declared γ envelope.
    pub fn with_max_comm_bytes(mut self, max: usize) -> Self {
        self.max_comm_bytes = max;
        self
    }

    /// Cap the number of concurrently admitted tenants.
    pub fn with_compute_slots(mut self, slots: usize) -> Self {
        self.compute_slots = slots;
        self
    }
}

/// One job's declared shape and budgets, as submitted for admission.
///
/// μ and γ are *declarations*: admission reserves `v·μ + γ` bytes of the
/// shared budget, and at run time every executed program's
/// `max_state_bytes`/`max_comm_bytes` must fit under them (typed
/// [`ServiceError`] otherwise) — a tenant cannot bill less than it uses.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Ledger name of the job (not required to be unique; the ledger
    /// sorts by `(name, seed)`).
    pub name: String,
    /// Seed of the job's simulator (message placement randomness).
    pub seed: u64,
    /// The EM-BSP\* machine the job is priced against. Its `D` and `B`
    /// must match the service's shared array shape.
    pub machine: em_core::EmMachine,
    /// `v` — virtual processors the job will run.
    pub v: usize,
    /// μ — declared per-virtual-processor context bound, in bytes.
    pub mu: usize,
    /// γ — declared per-virtual-processor communication envelope, in
    /// bytes (including the 16-byte message headers).
    pub gamma: usize,
    /// Track-region request, per drive, on the shared substrate.
    pub tracks: usize,
    /// Fault schedule injected into the tenant's region array, directly
    /// above the shared media — the per-tenant equivalent of a simulator
    /// fault plan, below the simulator's checksum and retry layers: it
    /// fails one tenant without touching its neighbors.
    pub fault_plan: Option<FaultPlan>,
}

impl JobSpec {
    /// A spec with zero budgets; fill them in with
    /// [`JobSpec::with_budgets`] and [`JobSpec::with_tracks`].
    pub fn new(name: impl Into<String>, seed: u64, machine: em_core::EmMachine, v: usize) -> Self {
        JobSpec {
            name: name.into(),
            seed,
            machine,
            v,
            mu: 0,
            gamma: 0,
            tracks: 0,
            fault_plan: None,
        }
    }

    /// Declare the μ/γ budgets (bytes).
    pub fn with_budgets(mut self, mu: usize, gamma: usize) -> Self {
        self.mu = mu;
        self.gamma = gamma;
        self
    }

    /// Declare the per-drive track-region request.
    pub fn with_tracks(mut self, tracks: usize) -> Self {
        self.tracks = tracks;
        self
    }

    /// Inject a fault schedule into this tenant's region array.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The admission formula: `v·μ + γ` bytes of the shared memory
    /// budget.
    pub fn reservation_bytes(&self) -> usize {
        self.v.saturating_mul(self.mu).saturating_add(self.gamma)
    }
}

/// Why a job was refused admission. Rejection never disturbs
/// already-admitted tenants: no resource is held by a rejected job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The job's `v·μ + γ` reservation does not fit in what remains of
    /// the shared memory budget.
    BudgetExceeded {
        /// Bytes the job asked to reserve.
        requested: usize,
        /// Bytes already reserved by admitted tenants.
        reserved: usize,
        /// The shared budget ([`ServiceConfig::mem_budget_bytes`]).
        budget: usize,
    },
    /// The declared γ envelope exceeds the per-tenant ceiling.
    CommEnvelopeExceeded {
        /// Declared γ, in bytes.
        gamma: usize,
        /// The ceiling ([`ServiceConfig::max_comm_bytes`]).
        max: usize,
    },
    /// No contiguous track region of the requested size is available on
    /// the shared substrate.
    RegionExhausted {
        /// Tracks per drive the job asked for.
        requested: usize,
        /// Tracks per drive currently unreserved (may be fragmented).
        free: usize,
    },
    /// The job's machine shape does not match the shared array.
    ShapeMismatch {
        /// The job's `(D, B)`.
        got: (usize, usize),
        /// The service's `(D, B)`.
        expected: (usize, usize),
    },
    /// All compute-pool slots are occupied.
    ComputePoolExceeded {
        /// Currently admitted tenants.
        active: usize,
        /// The slot cap ([`ServiceConfig::compute_slots`]).
        slots: usize,
    },
    /// The job's machine or budgets fail basic validation (zero `v`,
    /// zero tracks, invalid EM machine).
    InvalidSpec(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::BudgetExceeded { requested, reserved, budget } => write!(
                f,
                "v*mu+gamma reservation of {requested} B does not fit: {reserved} of {budget} B already reserved"
            ),
            AdmissionError::CommEnvelopeExceeded { gamma, max } => {
                write!(f, "declared gamma = {gamma} B exceeds the per-tenant envelope of {max} B")
            }
            AdmissionError::RegionExhausted { requested, free } => write!(
                f,
                "no contiguous region of {requested} tracks/drive available ({free} free, possibly fragmented)"
            ),
            AdmissionError::ShapeMismatch { got, expected } => write!(
                f,
                "job machine is {}x{}B but the shared array is {}x{}B",
                got.0, got.1, expected.0, expected.1
            ),
            AdmissionError::ComputePoolExceeded { active, slots } => {
                write!(f, "all {slots} compute slots are busy ({active} tenants active)")
            }
            AdmissionError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A runtime failure inside an admitted tenant.
///
/// Marked `#[non_exhaustive]`: lifecycle hardening will keep growing this
/// taxonomy, and downstream matches must keep a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// A program's `max_state_bytes` exceeds the tenant's declared μ.
    DeclaredMuExceeded {
        /// μ declared at admission.
        declared: usize,
        /// The program's actual `max_state_bytes`.
        actual: usize,
    },
    /// A program's `max_comm_bytes` exceeds the tenant's declared γ.
    DeclaredGammaExceeded {
        /// γ declared at admission.
        declared: usize,
        /// The program's actual `max_comm_bytes`.
        actual: usize,
    },
    /// The underlying simulation failed.
    Run(EmError),
    /// The tenant hit an unrecoverable disk fault and was quarantined:
    /// its record is filed with [`TenantOutcome::Quarantined`], its
    /// region and budget are returned to the pool, and every further
    /// `execute` on the lease fails with this error. Other tenants are
    /// never disturbed.
    Quarantined {
        /// Compound superstep of the fatal failure (0 if unknown).
        step: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::DeclaredMuExceeded { declared, actual } => {
                write!(f, "program needs mu = {actual} B but the tenant declared {declared} B")
            }
            ServiceError::DeclaredGammaExceeded { declared, actual } => {
                write!(f, "program needs gamma = {actual} B but the tenant declared {declared} B")
            }
            ServiceError::Run(e) => write!(f, "simulation failed: {e}"),
            ServiceError::Quarantined { step } => write!(
                f,
                "tenant quarantined after an unrecoverable fault at superstep {step}; \
                 its resources were reclaimed"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Run(e) => Some(e),
            _ => None,
        }
    }
}

/// Budget book-keeping guarded by the service mutex.
struct PoolState {
    reserved_bytes: usize,
    active: usize,
    records: Vec<TenantRecord>,
}

struct ServiceInner {
    cfg: ServiceConfig,
    substrate: SharedDiskSubstrate,
    pool: Mutex<PoolState>,
}

impl ServiceInner {
    /// Return a tenant's reservations to the pool.
    fn release(&self, reservation_bytes: usize, base: usize, tracks: usize) {
        self.substrate.release_region(base, tracks);
        let mut pool = self.pool.lock();
        pool.reserved_bytes -= reservation_bytes;
        pool.active -= 1;
    }
}

/// The multi-tenant simulation service. Cloning the handle is cheap; all
/// clones share one substrate, budget pool and ledger.
#[derive(Clone)]
pub struct SimService {
    inner: Arc<ServiceInner>,
}

impl SimService {
    /// Bring up a service over a fresh shared substrate.
    pub fn new(cfg: ServiceConfig) -> Self {
        SimService {
            inner: Arc::new(ServiceInner {
                substrate: SharedDiskSubstrate::new(cfg.num_disks, cfg.tracks_per_disk),
                cfg,
                pool: Mutex::new(PoolState { reserved_bytes: 0, active: 0, records: Vec::new() }),
            }),
        }
    }

    /// The service's shared-resource budgets.
    pub fn config(&self) -> ServiceConfig {
        self.inner.cfg
    }

    /// Bytes of the shared memory budget currently reserved by admitted
    /// tenants.
    pub fn reserved_bytes(&self) -> usize {
        self.inner.pool.lock().reserved_bytes
    }

    /// Currently admitted (not yet completed) tenants.
    pub fn active_tenants(&self) -> usize {
        self.inner.pool.lock().active
    }

    /// Tracks per drive not reserved by any tenant region.
    pub fn tracks_free(&self) -> usize {
        self.inner.substrate.tracks_free()
    }

    /// Transfers the shared media has served: one lock hold each, whether
    /// a single stripe or a batch of them.
    pub fn transfers(&self) -> u64 {
        self.inner.substrate.transfers()
    }

    /// Stripe slots the shared media has granted: one per stripe of every
    /// transfer, i.e. one per parallel I/O operation the tenants counted.
    pub fn slots_granted(&self) -> u64 {
        self.inner.substrate.slots_granted()
    }

    /// Transfers that found the shared media taken and had to block.
    /// Depends on thread timing, so it is never part of
    /// [`ServiceReport::deterministic_json`].
    pub fn contended(&self) -> u64 {
        self.inner.substrate.contended()
    }

    /// Admit a job with a default simulator
    /// (`SeqEmSimulator::new(spec.machine).with_seed(spec.seed)`).
    pub fn admit(&self, spec: JobSpec) -> Result<TenantLease, AdmissionError> {
        let sim = SeqEmSimulator::new(spec.machine).with_seed(spec.seed);
        self.admit_with(spec, sim)
    }

    /// Admit a job with a caller-configured simulator (placement, retry…).
    /// The simulator's machine must match `spec.machine`'s disk shape,
    /// which in turn must match the shared array. The lease's array is
    /// built from [`SeqEmSimulator::disk_config`], so a simulator's retry
    /// policy covers every transfer of every stage, the initial load and
    /// the final read-back included.
    ///
    /// Checks run in a fixed order — shape, γ envelope, compute slots,
    /// memory budget, track region — and a failure at any point leaves
    /// the pool exactly as it was, so rejections never disturb admitted
    /// tenants.
    pub fn admit_with(
        &self,
        spec: JobSpec,
        sim: SeqEmSimulator,
    ) -> Result<TenantLease, AdmissionError> {
        let cfg = &self.inner.cfg;
        let machine = sim.machine();
        if machine.d != cfg.num_disks || machine.b_bytes != cfg.block_bytes {
            return Err(AdmissionError::ShapeMismatch {
                got: (machine.d, machine.b_bytes),
                expected: (cfg.num_disks, cfg.block_bytes),
            });
        }
        if spec.v == 0 {
            return Err(AdmissionError::InvalidSpec("v must be >= 1".into()));
        }
        if spec.tracks == 0 {
            return Err(AdmissionError::InvalidSpec("track region must be >= 1".into()));
        }
        if let Err(e) = machine.validate() {
            return Err(AdmissionError::InvalidSpec(e.to_string()));
        }
        let disk_cfg = sim.disk_config().map_err(|e| AdmissionError::InvalidSpec(e.to_string()))?;
        if spec.gamma > cfg.max_comm_bytes {
            return Err(AdmissionError::CommEnvelopeExceeded {
                gamma: spec.gamma,
                max: cfg.max_comm_bytes,
            });
        }
        let requested = spec.reservation_bytes();
        {
            let mut pool = self.inner.pool.lock();
            if pool.active >= cfg.compute_slots {
                return Err(AdmissionError::ComputePoolExceeded {
                    active: pool.active,
                    slots: cfg.compute_slots,
                });
            }
            match pool.reserved_bytes.checked_add(requested) {
                Some(total) if total <= cfg.mem_budget_bytes => pool.reserved_bytes = total,
                _ => {
                    return Err(AdmissionError::BudgetExceeded {
                        requested,
                        reserved: pool.reserved_bytes,
                        budget: cfg.mem_budget_bytes,
                    })
                }
            }
            pool.active += 1;
        }
        let base = match self.inner.substrate.reserve_region(spec.tracks) {
            Some(base) => base,
            None => {
                // Roll the budget back; the pool is exactly as before.
                let mut pool = self.inner.pool.lock();
                pool.reserved_bytes -= requested;
                pool.active -= 1;
                return Err(AdmissionError::RegionExhausted {
                    requested: spec.tracks,
                    free: self.inner.substrate.tracks_free(),
                });
            }
        };
        let region = self.inner.substrate.region(base, spec.tracks);
        // The tenant's fault schedule sits directly above its region
        // slice of the shared media — faults hit this tenant's counted
        // array only, never the substrate or its neighbors.
        let disks =
            DiskArray::with_backend_and_faults(disk_cfg, Box::new(region), spec.fault_plan.clone());
        Ok(TenantLease {
            inner: self.inner.clone(),
            spec,
            base,
            sim,
            disks: Mutex::new(disks),
            stages: Mutex::new(Vec::new()),
            fingerprint: Mutex::new(Fingerprint::default()),
            quarantined: Mutex::new(None),
            released: AtomicBool::new(false),
        })
    }

    /// The ledger of completed tenants, sorted by `(name, seed)`.
    pub fn report(&self) -> ServiceReport {
        let mut records = self.inner.pool.lock().records.clone();
        records.sort_by(|a, b| (&a.name, a.seed).cmp(&(&b.name, b.seed)));
        ServiceReport { records }
    }
}

/// An admitted tenant: a private simulator + disk array over the
/// tenant's region, with per-stage metering.
///
/// Implements [`Executor`], so CGM pipelines run on a lease exactly as
/// they would on a bare simulator. Every `execute` appends one
/// [`CostReport`] stage and folds the final states into the tenant's
/// rolling fingerprint. Call [`TenantLease::complete`] to file the
/// tenant's [`TenantRecord`] and return its resources to the pool;
/// dropping an uncompleted lease releases the resources without filing
/// a record.
pub struct TenantLease {
    /// Back-reference for resource release; not part of the tenant's
    /// observable identity.
    inner: Arc<ServiceInner>,
    spec: JobSpec,
    base: usize,
    sim: SeqEmSimulator,
    disks: Mutex<DiskArray>,
    stages: Mutex<Vec<CostReport>>,
    fingerprint: Mutex<Fingerprint>,
    /// Set once by the first unrecoverable fault; holds the record filed
    /// in the ledger. Sticky: every later `execute` fails immediately.
    quarantined: Mutex<Option<TenantRecord>>,
    released: AtomicBool,
}

impl TenantLease {
    /// The admitted job spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The tenant's region base track on the shared substrate
    /// (observability; excluded from the deterministic ledger).
    pub fn base_track(&self) -> usize {
        self.base
    }

    /// The tenant's simulator (to inspect its machine or knobs).
    pub fn simulator(&self) -> &SeqEmSimulator {
        &self.sim
    }

    /// Stages metered so far.
    pub fn stages_metered(&self) -> usize {
        self.stages.lock().len()
    }

    /// Rolling CRC-32 over the serialized final states of every stage so
    /// far. Two runs of the same job are bit-identical iff their
    /// fingerprints (and metered stages) match.
    pub fn state_fingerprint(&self) -> u32 {
        self.fingerprint.lock().value
    }

    /// Whether the tenant has been quarantined by an unrecoverable fault.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.lock().is_some()
    }

    /// File the tenant's record in the service ledger, release its
    /// region and budget reservation, and return the record. A
    /// quarantined tenant's record was already filed (and its resources
    /// already reclaimed) at quarantine time; completing it just returns
    /// that record.
    pub fn complete(self) -> TenantRecord {
        if let Some(record) = self.quarantined.lock().clone() {
            return record;
        }
        // The reservation goes back when `self` drops, on return.
        self.file_record(TenantOutcome::Completed)
    }

    /// Quarantine the tenant after an unrecoverable fault: file its
    /// ledger record with the failure outcome, reclaim its region and
    /// budget so waiting jobs can use them, and poison the lease.
    fn quarantine(&self, step: usize) {
        let mut q = self.quarantined.lock();
        if q.is_some() {
            return;
        }
        *q = Some(self.file_record(TenantOutcome::Quarantined { failed_step: step }));
        self.release_once();
    }

    /// Build the tenant's record from its spec, fingerprint and metered
    /// stages (which it takes), file it in the ledger and return it.
    fn file_record(&self, outcome: TenantOutcome) -> TenantRecord {
        let record = TenantRecord {
            name: self.spec.name.clone(),
            seed: self.spec.seed,
            v: self.spec.v,
            mu: self.spec.mu,
            gamma: self.spec.gamma,
            tracks: self.spec.tracks,
            state_fingerprint: self.fingerprint.lock().value,
            outcome,
            stages: std::mem::take(&mut *self.stages.lock()),
        };
        self.inner.pool.lock().records.push(record.clone());
        record
    }

    /// Return the tenant's region and budget reservation to the pool,
    /// the first time only.
    fn release_once(&self) {
        if !self.released.swap(true, Ordering::SeqCst) {
            self.inner.release(self.spec.reservation_bytes(), self.base, self.spec.tracks);
        }
    }
}

impl fmt::Debug for TenantLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantLease")
            .field("spec", &self.spec)
            .field("base", &self.base)
            .field("stages_metered", &self.stages.lock().len())
            .finish_non_exhaustive()
    }
}

impl Drop for TenantLease {
    fn drop(&mut self) {
        self.release_once();
    }
}

impl Executor for TenantLease {
    fn execute<P: BspProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunResult<P::State>, ExecError> {
        if let Some(record) = self.quarantined.lock().as_ref() {
            let step = match record.outcome {
                TenantOutcome::Quarantined { failed_step } => failed_step,
                TenantOutcome::Completed => 0,
            };
            return Err(Box::new(ServiceError::Quarantined { step }) as ExecError);
        }
        if prog.max_state_bytes() > self.spec.mu {
            return Err(Box::new(ServiceError::DeclaredMuExceeded {
                declared: self.spec.mu,
                actual: prog.max_state_bytes(),
            }) as ExecError);
        }
        if prog.max_comm_bytes() > self.spec.gamma {
            return Err(Box::new(ServiceError::DeclaredGammaExceeded {
                declared: self.spec.gamma,
                actual: prog.max_comm_bytes(),
            }) as ExecError);
        }
        let result = self.sim.run_on(&mut self.disks.lock(), prog, states);
        match result {
            Ok((res, report)) => {
                self.fingerprint.lock().fold(&res.states);
                self.stages.lock().push(report);
                Ok(res)
            }
            Err(e) => {
                // Unrecoverable disk-rooted failures quarantine the tenant;
                // the rest (a transient disk error on a simulator without a
                // retry layer, logic errors, budget violations) surface
                // unchanged.
                let step = match &e {
                    EmError::FaultUnrecoverable { step, .. } => Some(*step),
                    EmError::Disk(d) if !d.is_transient() => Some(0),
                    _ => None,
                };
                let err = match step {
                    Some(step) => {
                        self.quarantine(step);
                        ServiceError::Quarantined { step }
                    }
                    None => ServiceError::Run(e),
                };
                Err(Box::new(err) as ExecError)
            }
        }
    }
}

/// A tenant's rolling CRC-32 fingerprint: after each stage it becomes the
/// CRC of `previous value ‖ state₀ ‖ state₁ ‖ …`, so every state of every
/// stage so far is under it.
#[derive(Default)]
struct Fingerprint {
    value: u32,
    /// One state's encoding at a time goes through here into a streaming
    /// CRC; kept so a stage costs no allocation once it is warm.
    scratch: Vec<u8>,
}

impl Fingerprint {
    /// Fold a stage's final states in.
    fn fold<S: em_serial::Serial>(&mut self, states: &[S]) {
        let mut crc = Crc32::new();
        crc.update(&self.value.to_le_bytes());
        for state in states {
            em_serial::to_bytes_into(state, &mut self.scratch);
            crc.update(&self.scratch);
        }
        self.value = crc.finish();
    }
}

/// The solo reference for service bit-identity: the same per-stage
/// metering and state fingerprinting as a [`TenantLease`], but on a
/// private [`DiskArray`] with no co-tenants and no admission control.
///
/// Run the identical pipeline through a lease and a `SoloRunner` built
/// from an identically-configured simulator; the metering invariant says
/// their [`CostReport::io`] sequences and fingerprints match exactly.
pub struct SoloRunner {
    sim: SeqEmSimulator,
    stages: Mutex<Vec<CostReport>>,
    fingerprint: Mutex<Fingerprint>,
}

impl SoloRunner {
    /// Wrap a configured simulator.
    pub fn new(sim: SeqEmSimulator) -> Self {
        SoloRunner {
            sim,
            stages: Mutex::new(Vec::new()),
            fingerprint: Mutex::new(Fingerprint::default()),
        }
    }

    /// Rolling CRC-32 over the serialized final states of every stage.
    pub fn state_fingerprint(&self) -> u32 {
        self.fingerprint.lock().value
    }

    /// The per-stage reports and final fingerprint.
    pub fn finish(self) -> (Vec<CostReport>, u32) {
        (self.stages.into_inner(), self.fingerprint.into_inner().value)
    }
}

impl Executor for SoloRunner {
    fn execute<P: BspProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunResult<P::State>, ExecError> {
        let (res, report) = self.sim.run(prog, states).map_err(|e| Box::new(e) as ExecError)?;
        self.fingerprint.lock().fold(&res.states);
        self.stages.lock().push(report);
        Ok(res)
    }
}

/// How a tenant's ledger entry ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOutcome {
    /// The tenant completed normally.
    Completed,
    /// The tenant hit an unrecoverable fault and was quarantined; its
    /// stages record only the work that completed before the failure.
    Quarantined {
        /// Compound superstep of the fatal failure (0 if unknown).
        failed_step: usize,
    },
}

/// One completed tenant's ledger entry: the job identity, declared
/// budgets, per-stage [`CostReport`]s and the final-state fingerprint.
#[derive(Debug, Clone)]
pub struct TenantRecord {
    /// Job name.
    pub name: String,
    /// Simulator seed.
    pub seed: u64,
    /// Declared `v`.
    pub v: usize,
    /// Declared μ (bytes).
    pub mu: usize,
    /// Declared γ (bytes).
    pub gamma: usize,
    /// Reserved tracks per drive.
    pub tracks: usize,
    /// Rolling CRC-32 of all stages' serialized final states.
    pub state_fingerprint: u32,
    /// How the tenant ended: completed, or quarantined by a fault.
    pub outcome: TenantOutcome,
    /// One [`CostReport`] per executed program, in execution order.
    pub stages: Vec<CostReport>,
}

impl TenantRecord {
    /// Total counted parallel I/O operations across all stages.
    pub fn total_io_ops(&self) -> u64 {
        self.stages.iter().map(|s| s.io.parallel_ops).sum()
    }

    /// Tracks per drive the job actually used: the largest stage's
    /// `tracks_per_disk`. Each stage starts over at track 0 of the tenant's
    /// region, so this is the part of the reserved [`TenantRecord::tracks`]
    /// the job touched.
    pub fn footprint_tracks(&self) -> usize {
        self.stages.iter().map(|s| s.tracks_per_disk).max().unwrap_or(0)
    }

    /// Serialize the record's *deterministic* fields as one JSON object
    /// (no wall-clock times, tenant ids or physical base tracks).
    pub fn deterministic_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                let per_disk = |v: &[u64]| {
                    let items: Vec<String> = v.iter().map(u64::to_string).collect();
                    format!("[{}]", items.join(","))
                };
                format!(
                    concat!(
                        "{{\"ops\":{},\"blocks_read\":{},\"blocks_written\":{},",
                        "\"bytes_read\":{},\"bytes_written\":{},",
                        "\"per_disk_reads\":{},\"per_disk_writes\":{},",
                        "\"retried_blocks\":{},\"recovery_ops\":{},",
                        "\"lambda\":{},\"io_time\":{},\"real_comm_bytes\":{},",
                        "\"fetch_ctx\":{},\"fetch_msg\":{},\"scatter\":{},",
                        "\"write_ctx\":{},\"routing\":{}}}"
                    ),
                    s.io.parallel_ops,
                    s.io.blocks_read,
                    s.io.blocks_written,
                    s.io.bytes_read,
                    s.io.bytes_written,
                    per_disk(&s.io.per_disk_reads),
                    per_disk(&s.io.per_disk_writes),
                    s.io.retried_blocks,
                    s.io.recovery_ops,
                    s.lambda,
                    s.io_time,
                    s.real_comm_bytes,
                    s.phases.fetch_ctx,
                    s.phases.fetch_msg,
                    s.phases.scatter,
                    s.phases.write_ctx,
                    s.phases.routing,
                )
            })
            .collect();
        let outcome = match self.outcome {
            TenantOutcome::Completed => "completed".to_string(),
            TenantOutcome::Quarantined { failed_step } => format!("quarantined:{failed_step}"),
        };
        format!(
            concat!(
                "{{\"name\":{},\"seed\":{},\"v\":{},\"mu\":{},\"gamma\":{},",
                "\"tracks\":{},\"fingerprint\":{},\"outcome\":{},",
                "\"stages\":[{}]}}"
            ),
            json_string(&self.name),
            self.seed,
            self.v,
            self.mu,
            self.gamma,
            self.tracks,
            self.state_fingerprint,
            json_string(&outcome),
            stages.join(","),
        )
    }
}

/// The service ledger: every completed tenant, sorted by `(name, seed)`.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    records: Vec<TenantRecord>,
}

impl ServiceReport {
    /// The ledger entries, sorted by `(name, seed)`.
    pub fn records(&self) -> &[TenantRecord] {
        &self.records
    }

    /// One deterministic JSON object per line, one line per tenant,
    /// sorted by `(name, seed)`. Byte-identical across identically-seeded
    /// runs regardless of admission interleaving, scheduling or wall
    /// clock — this is the artifact the CI soak lane diffs.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.deterministic_json());
            out.push('\n');
        }
        out
    }
}

/// A JSON string literal: `s` in quotes, with `"`, `\\` and the control
/// characters escaped and every other character as it is.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_bsp::{Mailbox, Step};
    use em_core::EmMachine;
    use em_disk::RetryPolicy;

    struct AddOne;
    impl BspProgram for AddOne {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, _: usize, _: &mut Mailbox<u64>, s: &mut u64) -> Step {
            *s += 1;
            Step::Halt
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
    }

    fn machine() -> EmMachine {
        EmMachine::uniprocessor(1 << 16, 2, 64, 1)
    }

    fn spec(name: &str, seed: u64, v: usize) -> JobSpec {
        JobSpec::new(name, seed, machine(), v).with_budgets(8, 64).with_tracks(64)
    }

    #[test]
    fn lease_runs_and_meters_like_a_private_simulator() {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let lease = service.admit(spec("add", 3, 8)).unwrap();
        let out = lease.execute(&AddOne, (0..8u64).collect()).unwrap();
        assert_eq!(out.states, (1..=8u64).collect::<Vec<_>>());

        let solo = SeqEmSimulator::new(machine()).with_seed(3);
        let (solo_out, solo_report) = solo.run(&AddOne, (0..8u64).collect()).unwrap();
        assert_eq!(solo_out.states, out.states);

        let record = lease.complete();
        assert_eq!(record.stages.len(), 1);
        assert_eq!(record.stages[0].io, solo_report.io);
        assert_eq!(service.active_tenants(), 0);
        assert_eq!(service.reserved_bytes(), 0);
        assert_eq!(service.tracks_free(), 4096);
        // The shared media carried every counted stripe (and the input
        // load, which precedes the report's counters), in fewer lock holds
        // than stripes, with nobody to contend with.
        assert!(service.slots_granted() >= solo_report.io.parallel_ops);
        assert!((1..service.slots_granted()).contains(&service.transfers()));
        assert_eq!(service.contended(), 0);
    }

    #[test]
    fn budget_over_reservation_is_rejected_without_disturbing_tenants() {
        let budget = 8 * 8 + 64 + 100; // one 8-vp tenant fits, two do not
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, budget));
        let first = service.admit(spec("a", 1, 8)).unwrap();
        let err = service.admit(spec("b", 2, 8)).unwrap_err();
        assert!(matches!(err, AdmissionError::BudgetExceeded { requested: 128, .. }));
        // The admitted tenant is untouched and still runs.
        assert_eq!(service.active_tenants(), 1);
        first.execute(&AddOne, vec![1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        first.complete();
        // And its release makes room for the next job.
        service.admit(spec("b", 2, 8)).unwrap();
    }

    #[test]
    fn gamma_envelope_and_shape_and_slots_are_enforced() {
        let cfg =
            ServiceConfig::new(2, 64, 4096, 1 << 20).with_max_comm_bytes(32).with_compute_slots(1);
        let service = SimService::new(cfg);
        let err = service.admit(spec("big-gamma", 1, 4)).unwrap_err();
        assert!(matches!(err, AdmissionError::CommEnvelopeExceeded { gamma: 64, max: 32 }));

        let small = JobSpec::new("ok", 1, machine(), 4).with_budgets(8, 32).with_tracks(16);
        let lease = service.admit(small.clone()).unwrap();
        let err = service.admit(small.clone().with_budgets(8, 16)).unwrap_err();
        assert!(matches!(err, AdmissionError::ComputePoolExceeded { active: 1, slots: 1 }));
        lease.complete();

        let wrong = EmMachine::uniprocessor(1 << 16, 4, 64, 1);
        let err = service
            .admit(JobSpec::new("shape", 1, wrong, 4).with_budgets(8, 16).with_tracks(16))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::ShapeMismatch { got: (4, 64), expected: (2, 64) }));
    }

    #[test]
    fn region_exhaustion_rolls_back_the_budget_reservation() {
        let service = SimService::new(ServiceConfig::new(2, 64, 100, 1 << 20));
        let lease = service.admit(spec("a", 1, 4).with_tracks(80)).unwrap();
        let before = service.reserved_bytes();
        let err = service.admit(spec("b", 2, 4).with_tracks(40)).unwrap_err();
        assert!(matches!(err, AdmissionError::RegionExhausted { requested: 40, free: 20 }));
        // The failed admission did not leak budget or slots.
        assert_eq!(service.reserved_bytes(), before);
        assert_eq!(service.active_tenants(), 1);
        lease.complete();
    }

    #[test]
    fn declared_budgets_are_enforced_at_run_time() {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let lease = service
            .admit(JobSpec::new("lowball", 1, machine(), 4).with_budgets(4, 64).with_tracks(64))
            .unwrap();
        let err = lease.execute(&AddOne, vec![1, 2, 3, 4]).unwrap_err();
        let err = err.downcast::<ServiceError>().unwrap();
        assert!(matches!(*err, ServiceError::DeclaredMuExceeded { declared: 4, actual: 8 }));
        // A rejected program costs nothing.
        assert_eq!(lease.stages_metered(), 0);
    }

    #[test]
    fn fingerprint_covers_every_state_and_every_earlier_stage() {
        fn fold<S: em_serial::Serial>(prev: u32, states: &[S]) -> u32 {
            let mut fp = Fingerprint { value: prev, scratch: Vec::new() };
            fp.fold(states);
            fp.value
        }
        // Two state vectors that differ only in an earlier element.
        let a = fold(0, &[1u64, 2, 3]);
        assert_ne!(a, fold(0, &[9u64, 2, 3]));
        assert_ne!(a, fold(0, &[1u64, 9, 3]));
        assert_ne!(a, fold(0, &[1u64, 2, 9]));
        // It chains: the same stage after a different history differs too.
        assert_ne!(fold(a, &[5u64]), fold(a ^ 1, &[5u64]));
        // And it is the CRC of `prev ‖ every state`, nothing else.
        let mut bytes = 7u32.to_le_bytes().to_vec();
        bytes.extend([1u64, 2].iter().flat_map(em_serial::to_bytes));
        assert_eq!(fold(7, &[1u64, 2]), em_disk::crc32(&bytes));
    }

    #[test]
    fn ledger_is_deterministic_and_sorted() {
        let run = || {
            let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
            // Complete out of name order; the ledger must sort.
            let b = service.admit(spec("b", 2, 8)).unwrap();
            let a = service.admit(spec("a", 1, 8)).unwrap();
            b.execute(&AddOne, (0..8u64).collect()).unwrap();
            a.execute(&AddOne, (10..18u64).collect()).unwrap();
            b.complete();
            a.complete();
            service.report().deterministic_json()
        };
        let first = run();
        assert_eq!(first, run());
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"a\""));
        assert!(lines[1].starts_with("{\"name\":\"b\""));
    }

    /// A name is a JSON string, not Rust's debug escaping of one: NUL,
    /// U+0001 and a combining accent came out as `"\0"`, `"\u{1}"` and
    /// `"\u{301}"`, none of which JSON reads.
    #[test]
    fn ledger_names_are_json_strings() {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let lease = service.admit(spec("a\0b\u{1}e\u{301}\"\\", 1, 8)).unwrap();
        lease.execute(&AddOne, (0..8u64).collect()).unwrap();
        let json = lease.complete().deterministic_json();
        let name = "{\"name\":\"a\\u0000b\\u0001e\u{301}\\\"\\\\\",\"seed\":1,";
        assert!(json.starts_with(name), "{json}");
        assert!(json.contains("\"outcome\":\"completed\","), "{json}");
    }

    /// The tenant's simulator as `admit` builds it, with a retry layer.
    fn retrying(seed: u64) -> SeqEmSimulator {
        SeqEmSimulator::new(machine()).with_seed(seed).with_retry(RetryPolicy::new(4))
    }

    #[test]
    fn transient_fault_is_absorbed_by_a_retrying_simulator() {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let plan = FaultPlan::none().with_transient(0, 1);
        // Without a retry layer the transient error surfaces raw...
        let lease = service.admit(spec("flaky", 3, 8).with_fault_plan(plan.clone())).unwrap();
        let err = lease.execute(&AddOne, (0..8u64).collect()).unwrap_err();
        let err = err.downcast::<ServiceError>().unwrap();
        assert!(matches!(*err, ServiceError::Run(EmError::Disk(ref d)) if d.is_transient()));
        assert!(!lease.is_quarantined());
        drop(lease);
        // ...and on a retrying simulator the same job completes, with results
        // identical to an unfaulted solo run and the retry on its ledger.
        let lease =
            service.admit_with(spec("flaky", 3, 8).with_fault_plan(plan), retrying(3)).unwrap();
        let out = lease.execute(&AddOne, (0..8u64).collect()).unwrap();
        let solo = SeqEmSimulator::new(machine()).with_seed(3);
        let (solo_out, solo_report) = solo.run(&AddOne, (0..8u64).collect()).unwrap();
        assert_eq!(out.states, solo_out.states);
        let record = lease.complete();
        assert_eq!(record.outcome, TenantOutcome::Completed);
        assert!(record.stages[0].io.retried_blocks >= 1);
        let io = em_disk::IoStats { retried_blocks: 0, ..record.stages[0].io.clone() };
        assert_eq!(io, solo_report.io);
    }

    /// The first transfer of a stage is the initial load and the last is
    /// the final read-back, both outside the supersteps; a retrying
    /// simulator absorbs a transient on either.
    #[test]
    fn transients_on_the_load_and_the_read_back_are_absorbed() {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let clean = service
            .admit_with(spec("clean", 4, 8).with_fault_plan(FaultPlan::none()), retrying(4))
            .unwrap();
        let expected = clean.execute(&AddOne, (0..8u64).collect()).unwrap().states;
        let ops = clean.disks.lock().fault_op_counts().unwrap();
        drop(clean);

        let mut plan = FaultPlan::none();
        for (disk, &n) in ops.iter().enumerate() {
            plan = plan.with_transient(disk, 0).with_transient(disk, n - 1);
        }
        let lease =
            service.admit_with(spec("edges", 4, 8).with_fault_plan(plan), retrying(4)).unwrap();
        let out = lease.execute(&AddOne, (0..8u64).collect()).unwrap();
        assert_eq!(out.states, expected);
        // Each drive moved the clean run's tracks plus its two retries.
        let retried: Vec<u64> = ops.iter().map(|n| n + 2).collect();
        assert_eq!(lease.disks.lock().fault_op_counts().unwrap(), retried);
        let record = lease.complete();
        assert_eq!(record.outcome, TenantOutcome::Completed);
        // Both retries of every drive are on the tenant's ledger.
        assert_eq!(record.stages[0].io.retried_blocks, 2 * ops.len() as u64);
    }

    #[test]
    fn quarantine_reclaims_resources_and_leaves_other_tenants_untouched() {
        // The faulty tenant runs alongside two healthy ones.
        let service = SimService::new(ServiceConfig::new(2, 64, 256, 1 << 20));
        let a = service.admit(spec("a", 1, 8).with_tracks(64)).unwrap();
        let bad = service
            .admit(
                spec("bad", 5, 8)
                    .with_tracks(128)
                    .with_fault_plan(FaultPlan::none().with_worker_death(0, 3)),
            )
            .unwrap();
        let c = service.admit(spec("c", 2, 8).with_tracks(64)).unwrap();

        a.execute(&AddOne, (0..8u64).collect()).unwrap();
        let err = bad.execute(&AddOne, (0..8u64).collect()).unwrap_err();
        let err = err.downcast::<ServiceError>().unwrap();
        assert!(matches!(*err, ServiceError::Quarantined { .. }), "{err}");
        assert!(bad.is_quarantined());
        // The quarantine is sticky...
        let err = bad.execute(&AddOne, (0..8u64).collect()).unwrap_err();
        let err = err.downcast::<ServiceError>().unwrap();
        assert!(matches!(*err, ServiceError::Quarantined { .. }));
        // ...its region and budget were reclaimed immediately (a new
        // tenant fits where the quarantined one sat)...
        let refill = service.admit(spec("refill", 9, 8).with_tracks(128)).unwrap();
        drop(refill);
        c.execute(&AddOne, (10..18u64).collect()).unwrap();
        let bad_record = bad.complete();
        assert!(matches!(bad_record.outcome, TenantOutcome::Quarantined { .. }));
        a.complete();
        c.complete();

        // ...and the healthy tenants' ledger lines are byte-identical to
        // the same jobs run with no faulty neighbor at all.
        let solo_service = SimService::new(ServiceConfig::new(2, 64, 256, 1 << 20));
        let a2 = solo_service.admit(spec("a", 1, 8).with_tracks(64)).unwrap();
        let c2 = solo_service.admit(spec("c", 2, 8).with_tracks(64)).unwrap();
        a2.execute(&AddOne, (0..8u64).collect()).unwrap();
        c2.execute(&AddOne, (10..18u64).collect()).unwrap();
        a2.complete();
        c2.complete();
        let solo_lines: Vec<String> =
            solo_service.report().deterministic_json().lines().map(String::from).collect();
        let multi_lines: Vec<String> = service
            .report()
            .deterministic_json()
            .lines()
            .filter(|l| !l.contains("\"name\":\"bad\""))
            .map(String::from)
            .collect();
        assert_eq!(solo_lines, multi_lines);
    }

    #[test]
    fn dropping_an_uncompleted_lease_releases_resources_without_a_record() {
        let service = SimService::new(ServiceConfig::new(2, 64, 256, 1 << 20));
        {
            let _lease = service.admit(spec("doomed", 9, 8).with_tracks(256)).unwrap();
            assert_eq!(service.tracks_free(), 0);
        }
        assert_eq!(service.tracks_free(), 256);
        assert_eq!(service.active_tenants(), 0);
        assert!(service.report().records().is_empty());
    }
}
