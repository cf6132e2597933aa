//! Fault injection and superstep-granular recovery across the stack.
//!
//! The robustness contract: for any seeded [`FaultPlan`] whose faults are
//! all *recoverable* (transients, torn writes, bit flips — no worker
//! deaths), a run with checksums, a retry policy and a recovery policy
//! must produce final program states **byte-identical** to the fault-free
//! run, on both EM simulators, while the
//! paper-facing counted parallel I/O (`IoStats::parallel_ops`) stays
//! exactly what the fault-free run counted. Retry and recovery traffic is
//! tallied separately (`retried_blocks`, `recovery_ops`).
//!
//! The fault seed can be swept externally via `EM_SIM_FAULT_SEED`
//! (decimal or `0x`-hex). Correctness assertions are unconditional;
//! assertions that a particular seed *fired* faults are only made for the
//! default pinned seed, so CI seed sweeps cannot flake on a quiet seed.

use em_bsp::{run_sequential, BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmError, EmMachine, ParEmSimulator, RecoveryPolicy, SeqEmSimulator};
use em_disk::{DiskError, FaultPlan, RetryPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Default seed, shared with the `faults` figure sweep.
const DEFAULT_SEED: u64 = 0xF16;

fn fault_seed() -> u64 {
    match std::env::var("EM_SIM_FAULT_SEED") {
        Ok(raw) => {
            let s = raw.trim();
            s.strip_prefix("0x")
                .map(|hex| u64::from_str_radix(hex, 16))
                .unwrap_or_else(|| s.parse())
                .expect("EM_SIM_FAULT_SEED must be decimal or 0x-hex")
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// True when running with the default seed; gate "faults actually fired"
/// assertions on this so external seed sweeps stay flake-free.
fn seed_pinned() -> bool {
    std::env::var("EM_SIM_FAULT_SEED").is_err()
}

fn machine(p: usize, m: usize, d: usize, b: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: m,
        d,
        b_bytes: b,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b, l: 1.0 },
    }
}

/// Nearest-neighbour diffusion for several rounds: multi-superstep, every
/// virtual processor both sends and receives, states depend on the whole
/// history — a good canary for lost or replayed work.
struct Diffuse;

impl BspProgram for Diffuse {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        let v = mb.nprocs();
        for e in mb.take_incoming() {
            *state = state.wrapping_add(e.msg);
        }
        if step < 5 {
            mb.send((mb.pid() + 1) % v, *state + step as u64);
            mb.send((mb.pid() + v - 1) % v, state.wrapping_mul(3));
            Step::Continue
        } else {
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        2 * 24
    }
}

/// Three neighbours a round, folded into the state non-commutatively: a
/// replay that reorders an inbox or loses a write shows in the final
/// states even where [`Diffuse`]'s sums would not.
struct ChainFold;

impl BspProgram for ChainFold {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        for e in mb.take_incoming() {
            *state = state
                .wrapping_mul(0x0000_0100_0000_01B3)
                .wrapping_add(((e.src as u64) << 32) ^ e.msg);
        }
        let v = mb.nprocs();
        if step < 4 {
            for j in 1..=3u64 {
                mb.send((mb.pid() + j as usize) % v, *state ^ j);
            }
            Step::Continue
        } else {
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        3 * 24
    }
}

const V: usize = 24;
const D: usize = 2;

fn init_states() -> Vec<u64> {
    (0..V as u64).collect()
}

/// A plan of recoverable faults (no deaths) over a generous op horizon.
fn recoverable_plan(seed: u64) -> FaultPlan {
    let plan = FaultPlan::seeded(seed, D, 600, 25);
    assert!(!plan.has_deaths(), "seeded plans never schedule deaths");
    plan
}

// ---------------------------------------------------------------------------
// Seeded-plan recovery: faulty run ≡ fault-free run.
// ---------------------------------------------------------------------------

#[test]
fn seq_seeded_faults_recover_to_identical_run() {
    seq_seeded_recovery(&Diffuse);
    seq_seeded_recovery(&ChainFold);
}

fn seq_seeded_recovery<P: BspProgram<State = u64>>(prog: &P) {
    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let (clean, clean_report) = base.run(prog, init_states()).unwrap();
    assert!(clean_report.faults.is_none(), "no plan, no recovery => no fault report");
    assert_eq!(clean.states, run_sequential(prog, init_states()).unwrap().states);

    let faulty_sim = base
        .clone()
        .with_fault_plan(recoverable_plan(fault_seed()))
        .with_retry(RetryPolicy::new(4))
        .with_recovery(RecoveryPolicy::new(64));
    let (faulty, report) = faulty_sim.run(prog, init_states()).unwrap();

    assert_eq!(faulty.states, clean.states);
    assert_eq!(faulty.ledger, clean.ledger);
    assert_eq!(report.lambda, clean_report.lambda);
    assert_eq!(
        report.io.parallel_ops, clean_report.io.parallel_ops,
        "counted parallel I/O must not include retry/recovery traffic"
    );
    assert_eq!(report.phases, clean_report.phases);

    let faults = report.faults.expect("fault plan => fault report");
    assert!(faults.failed_superstep.is_none());
    if seed_pinned() {
        assert!(faults.injected.total() > 0, "default seed must actually fire faults");
    }
}

#[test]
fn par_seeded_faults_recover_to_identical_run() {
    par_seeded_recovery(&Diffuse);
    par_seeded_recovery(&ChainFold);
}

fn par_seeded_recovery<P: BspProgram<State = u64>>(prog: &P) {
    let base = ParEmSimulator::new(machine(3, 256, D, 64)).with_seed(2).with_checksums(true);
    let (clean, clean_report) = base.run(prog, init_states()).unwrap();
    assert!(clean_report.faults.is_none());
    assert_eq!(clean.states, run_sequential(prog, init_states()).unwrap().states);

    let faulty_sim = base
        .clone()
        .with_fault_plan(recoverable_plan(fault_seed()))
        .with_retry(RetryPolicy::new(4))
        .with_recovery(RecoveryPolicy::new(64));
    let (faulty, report) = faulty_sim.run(prog, init_states()).unwrap();

    assert_eq!(faulty.states, clean.states);
    assert_eq!(faulty.ledger, clean.ledger);
    assert_eq!(report.lambda, clean_report.lambda);
    assert_eq!(report.io.parallel_ops, clean_report.io.parallel_ops);
    assert_eq!(report.phases, clean_report.phases);

    let faults = report.faults.expect("fault plan => fault report");
    assert!(faults.failed_superstep.is_none());
    if seed_pinned() {
        // Each of the three worker threads runs its own copy of the
        // plan, so the shared counters see every firing.
        assert!(faults.injected.total() > 0);
    }
}

// ---------------------------------------------------------------------------
// Single-fault sweeps: exercise every phase of the run deterministically.
// ---------------------------------------------------------------------------

/// With no retry policy, a single transient anywhere in a superstep must be
/// healed by replaying that superstep; one landing in the initial load or
/// final read-back (outside the replay envelope) must surface as the typed
/// unrecoverable error — never a panic or silent corruption.
#[test]
fn seq_single_transient_sweep_replays_or_reports() {
    let prog = Diffuse;
    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let (clean, _) = base.run(&prog, init_states()).unwrap();

    let mut replayed = 0usize;
    for disk in 0..D {
        for op in (0..160).step_by(7) {
            let plan = FaultPlan::none().with_transient(disk, op as u64);
            let sim = base.clone().with_fault_plan(plan).with_recovery(RecoveryPolicy::new(4));
            match sim.run(&prog, init_states()) {
                Ok((res, report)) => {
                    assert_eq!(res.states, clean.states, "disk {disk} op {op}");
                    let faults = report.faults.expect("fault run => fault report");
                    if faults.replays > 0 {
                        assert_eq!(faults.recovered_supersteps, faults.replays);
                        replayed += 1;
                    }
                }
                Err(EmError::FaultUnrecoverable { report, source, .. }) => {
                    assert_eq!(report.injected.total(), 1, "disk {disk} op {op}");
                    assert!(matches!(*source, EmError::Disk(ref e) if e.is_transient()));
                }
                Err(e) => panic!("unexpected error for disk {disk} op {op}: {e}"),
            }
        }
    }
    assert!(replayed > 0, "some transients must land inside a superstep and be replayed");
}

/// The same sweep with a retry policy: the substrate absorbs every single
/// transient below the simulator, so no run fails, no superstep is ever
/// replayed, and the retries show up in the separate tally.
#[test]
fn seq_single_transient_sweep_absorbed_by_retries() {
    let prog = Diffuse;
    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let (clean, clean_report) = base.run(&prog, init_states()).unwrap();

    let mut retried = 0usize;
    for op in (0..160).step_by(11) {
        let plan = FaultPlan::none().with_transient(0, op as u64);
        let sim = base
            .clone()
            .with_fault_plan(plan)
            .with_retry(RetryPolicy::new(3))
            .with_recovery(RecoveryPolicy::new(4));
        let (res, report) = sim.run(&prog, init_states()).unwrap();
        assert_eq!(res.states, clean.states, "op {op}");
        assert_eq!(report.io.parallel_ops, clean_report.io.parallel_ops, "op {op}");
        let faults = report.faults.expect("fault run => fault report");
        assert_eq!(faults.replays, 0, "retry must absorb the fault below the simulator");
        if faults.retried_blocks > 0 {
            retried += 1;
        }
    }
    assert!(retried > 0, "some transients must be hit and retried");
}

#[test]
fn par_single_transient_sweep_replays_or_reports() {
    let prog = Diffuse;
    let base = ParEmSimulator::new(machine(3, 256, D, 64)).with_seed(2).with_checksums(true);
    let (clean, _) = base.run(&prog, init_states()).unwrap();

    let mut replayed = 0usize;
    for op in (0..90).step_by(13) {
        // Every worker thread clones the plan, so this transient fires once
        // per thread on its private disk 0.
        let plan = FaultPlan::none().with_transient(0, op as u64);
        let sim = base.clone().with_fault_plan(plan).with_recovery(RecoveryPolicy::new(4));
        match sim.run(&prog, init_states()) {
            Ok((res, report)) => {
                assert_eq!(res.states, clean.states, "op {op}");
                let faults = report.faults.expect("fault run => fault report");
                if faults.replays > 0 {
                    replayed += 1;
                }
            }
            Err(EmError::FaultUnrecoverable { report, .. }) => {
                assert!(report.injected.total() >= 1, "op {op}");
            }
            Err(e) => panic!("unexpected error for op {op}: {e}"),
        }
    }
    assert!(replayed > 0, "some transients must trigger a coordinated parallel replay");
}

/// A burst as long as the retry budget: the track it lands on fails every
/// attempt, so its stripe fails with the rest of the stripe's tracks
/// attempted (and possibly landed). The superstep's rollback must undo
/// those too and the replay must converge on the fault-free run.
#[test]
fn retry_budget_exhaustion_inside_a_stripe_is_rolled_back_and_replayed() {
    let prog = Diffuse;
    let policy = RetryPolicy::new(3);
    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let (clean, clean_report) = base.run(&prog, init_states()).unwrap();

    let mut replayed = 0usize;
    for disk in 0..D {
        for op in (20..160).step_by(9) {
            let mut plan = FaultPlan::none();
            for attempt in 0..policy.max_attempts as u64 {
                plan = plan.with_transient(disk, op + attempt);
            }
            let sim = base
                .clone()
                .with_fault_plan(plan)
                .with_retry(policy)
                .with_recovery(RecoveryPolicy::new(4));
            match sim.run(&prog, init_states()) {
                Ok((res, report)) => {
                    assert_eq!(res.states, clean.states, "disk {disk} op {op}");
                    assert_eq!(res.ledger, clean.ledger);
                    assert_eq!(report.io.parallel_ops, clean_report.io.parallel_ops);
                    assert_eq!(report.phases, clean_report.phases);
                    let faults = report.faults.expect("fault run => fault report");
                    assert_eq!(faults.injected.transient, policy.max_attempts as u64);
                    assert_eq!(faults.retried_blocks, policy.max_attempts as u64 - 1);
                    assert_eq!(faults.replays, 1, "the exhausted stripe fails its superstep");
                    assert_eq!(faults.recovered_supersteps, 1);
                    replayed += 1;
                }
                // Outside the replay envelope (initial load, final read).
                Err(EmError::FaultUnrecoverable { report, source, .. }) => {
                    assert_eq!(report.injected.transient, policy.max_attempts as u64);
                    assert!(matches!(*source, EmError::Disk(ref e) if e.is_transient()));
                }
                Err(e) => panic!("unexpected error for disk {disk} op {op}: {e}"),
            }
        }
    }
    assert!(replayed > 0, "some bursts must land inside a superstep");
}

// ---------------------------------------------------------------------------
// Unrecoverable faults: typed error with a populated report, no panic.
// ---------------------------------------------------------------------------

/// A drive that dies — in the initial load, early or late in the
/// supersteps — ends the run with the typed error, never a panic.
#[test]
fn worker_death_is_typed_and_reported_on_both_simulators() {
    let prog = Diffuse;
    for death_op in [2u64, 8, 20, 30, 40] {
        let plan = || FaultPlan::none().with_worker_death(0, death_op);
        assert!(plan().has_deaths());

        let err = SeqEmSimulator::new(machine(1, 256, D, 64))
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(8))
            .run(&prog, init_states())
            .unwrap_err();
        match err {
            EmError::FaultUnrecoverable { report, source, .. } => {
                assert!(report.injected.dead_ops > 0, "death op {death_op}");
                assert!(
                    matches!(*source, EmError::Disk(DiskError::WorkerLost { disk: 0 })),
                    "death op {death_op}: {source}"
                );
                assert!(matches!(*source, EmError::Disk(ref e) if !e.is_transient()));
            }
            e => panic!("death op {death_op}: expected FaultUnrecoverable, got {e}"),
        }

        let err = ParEmSimulator::new(machine(3, 256, D, 64))
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(8))
            .run(&prog, init_states())
            .unwrap_err();
        match err {
            EmError::FaultUnrecoverable { report, .. } => {
                assert!(report.injected.dead_ops > 0, "par death op {death_op}");
            }
            e => panic!("par death op {death_op}: expected FaultUnrecoverable, got {e}"),
        }
    }
}

#[test]
fn replay_budget_exhaustion_is_typed() {
    // Two transients at consecutive ops on every op position of a dense
    // range, no retry policy, replay budget 1: at least one position must
    // exhaust the budget and surface the typed error with its tallies.
    let prog = Diffuse;
    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let mut exhausted = false;
    for op in (40..120).step_by(10) {
        let mut plan = FaultPlan::none();
        // Enough one-shot transients that a single replay re-encounters one.
        for delta in 0..24 {
            plan = plan.with_transient(0, (op + delta) as u64);
        }
        let sim = base.clone().with_fault_plan(plan).with_recovery(RecoveryPolicy::new(1));
        if let Err(err) = sim.run(&prog, init_states()) {
            match err {
                EmError::FaultUnrecoverable { report, .. } => {
                    exhausted = true;
                    assert!(report.injected.total() > 0);
                }
                e => panic!("unexpected error at op {op}: {e}"),
            }
        }
    }
    assert!(exhausted, "a dense transient burst must exhaust a replay budget of 1");
}

// ---------------------------------------------------------------------------
// The fault-free path: recovery machinery must be observation-free.
// ---------------------------------------------------------------------------

#[test]
fn faultless_run_with_recovery_enabled_is_identical() {
    let prog = Diffuse;
    // Sequential simulator.
    let plain = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9);
    let (a, ra) = plain.run(&prog, init_states()).unwrap();
    let guarded = plain
        .clone()
        .with_checksums(true)
        .with_retry(RetryPolicy::new(3))
        .with_recovery(RecoveryPolicy::default());
    let (b, rb) = guarded.run(&prog, init_states()).unwrap();
    assert_eq!(a.states, b.states);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(
        ra.io.parallel_ops, rb.io.parallel_ops,
        "recovery epochs must not change counted I/O"
    );
    assert_eq!(ra.phases, rb.phases);
    assert_eq!(ra.tracks_per_disk, rb.tracks_per_disk);
    let faults = rb.faults.expect("recovery enabled => fault report");
    assert_eq!(faults.injected.total(), 0);
    assert_eq!(faults.retried_blocks, 0);
    assert_eq!(faults.replays, 0);
    assert_eq!(faults.recovered_supersteps, 0);

    // Parallel simulator.
    let plain = ParEmSimulator::new(machine(3, 256, D, 64)).with_seed(2);
    let (a, ra) = plain.run(&prog, init_states()).unwrap();
    let guarded = plain
        .clone()
        .with_checksums(true)
        .with_retry(RetryPolicy::new(3))
        .with_recovery(RecoveryPolicy::default());
    let (b, rb) = guarded.run(&prog, init_states()).unwrap();
    assert_eq!(a.states, b.states);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
    assert_eq!(ra.phases, rb.phases);
    let faults = rb.faults.expect("recovery enabled => fault report");
    assert_eq!(faults.replays, 0);
    assert_eq!(faults.recovered_supersteps, 0);
}

// ---------------------------------------------------------------------------
// File backend: drive files after recovery ≡ drive files of a clean run.
// ---------------------------------------------------------------------------

fn collect_files(dir: &Path, root: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_files(&path, root, out);
        } else {
            let rel = path.strip_prefix(root).unwrap().to_path_buf();
            out.insert(rel, std::fs::read(&path).unwrap());
        }
    }
}

/// Compare every drive file under two roots. A never-written track tail
/// reads back as zeros, so the shorter file is zero-padded before the
/// byte comparison — rollback re-zeroes fresh tracks rather than
/// truncating files.
fn assert_drive_bytes_equal(clean: &Path, faulty: &Path) {
    let (mut a, mut b) = (BTreeMap::new(), BTreeMap::new());
    collect_files(clean, clean, &mut a);
    collect_files(faulty, faulty, &mut b);
    assert!(!a.is_empty(), "clean run produced no drive files");
    let keys: BTreeSet<_> = a.keys().chain(b.keys()).cloned().collect();
    for key in keys {
        let mut x = a.get(&key).cloned().unwrap_or_default();
        let mut y = b.get(&key).cloned().unwrap_or_default();
        let n = x.len().max(y.len());
        x.resize(n, 0);
        y.resize(n, 0);
        assert_eq!(x, y, "drive file {} differs after recovery (zero-padded)", key.display());
    }
}

#[test]
fn seq_file_backend_drive_bytes_match_after_recovery() {
    let prog = Diffuse;
    let root = std::env::temp_dir().join(format!("em-fault-seq-{}", std::process::id()));
    let clean_dir = root.join("clean");
    let faulty_dir = root.join("faulty");

    let base = SeqEmSimulator::new(machine(1, 256, D, 64)).with_seed(9).with_checksums(true);
    let (clean, _) = base.clone().with_file_backend(&clean_dir).run(&prog, init_states()).unwrap();
    let (faulty, _) = base
        .clone()
        .with_file_backend(&faulty_dir)
        .with_fault_plan(recoverable_plan(fault_seed() ^ 0xA5A5))
        .with_retry(RetryPolicy::new(4))
        .with_recovery(RecoveryPolicy::new(64))
        .run(&prog, init_states())
        .unwrap();

    assert_eq!(faulty.states, clean.states);
    assert_drive_bytes_equal(&clean_dir, &faulty_dir);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn par_file_backend_drive_bytes_match_after_recovery() {
    let prog = Diffuse;
    let root = std::env::temp_dir().join(format!("em-fault-par-{}", std::process::id()));
    let clean_dir = root.join("clean");
    let faulty_dir = root.join("faulty");

    let base = ParEmSimulator::new(machine(2, 256, D, 64)).with_seed(2).with_checksums(true);
    let (clean, _) = base.clone().with_file_backend(&clean_dir).run(&prog, init_states()).unwrap();
    let (faulty, _) = base
        .clone()
        .with_file_backend(&faulty_dir)
        .with_fault_plan(recoverable_plan(fault_seed() ^ 0x5A5A))
        .with_retry(RetryPolicy::new(4))
        .with_recovery(RecoveryPolicy::new(64))
        .run(&prog, init_states())
        .unwrap();

    assert_eq!(faulty.states, clean.states);
    assert_drive_bytes_equal(&clean_dir, &faulty_dir);
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds reproduce identical faulty runs.
// ---------------------------------------------------------------------------

#[test]
fn identically_seeded_faulty_runs_are_bit_identical() {
    let prog = Diffuse;
    let run = || {
        SeqEmSimulator::new(machine(1, 256, D, 64))
            .with_seed(9)
            .with_checksums(true)
            .with_fault_plan(recoverable_plan(fault_seed()))
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64))
            .run(&prog, init_states())
            .unwrap()
    };
    let (res_a, rep_a) = run();
    let (res_b, rep_b) = run();
    assert_eq!(res_a.states, res_b.states);
    assert_eq!(res_a.ledger, res_b.ledger);
    assert_eq!(rep_a.io, rep_b.io);
    assert_eq!(rep_a.phases, rep_b.phases);
    assert_eq!(rep_a.faults, rep_b.faults, "injection and recovery tallies must be reproducible");
}
