//! Reorganization-pool and AutoTuner differential tests (DESIGN.md
//! §3.2.11).
//!
//! Part one: attaching a [`em_core::ComputePool`] while the Computation
//! Phase stays [`em_core::ComputeMode::Serial`] parallelizes exactly one
//! thing — Algorithm 2's per-bucket routing-plan construction — and must
//! be **byte-for-byte** indistinguishable from the unpooled run: same
//! final outputs, same message ledger, same counted I/O (total and per
//! phase), and the same bytes on the drive files — for pool widths
//! `w ∈ {1, 2, 8}`, on both EM simulators, with and without the streaming
//! pipeline, under a block cache, and under seeded fault injection with
//! superstep recovery.
//!
//! Part two: `Auto` knob requests ([`em_core::ComputeMode::Auto`],
//! [`em_disk::Pipeline::Auto`], auto cache) are resolved by the
//! [`em_core::AutoTuner`] before disks are built; the resolution is
//! recorded in [`em_core::CostReport::resolved_config`], identical on
//! identically-seeded reruns, bit-identical in effect to the manually
//! configured twin, applied again on crash/`resume()`, and fixed at
//! admission time (and logged) by the multi-tenant service.

use em_algos::permute::cgm_permute;
use em_algos::sort::cgm_sort;
use em_bsp::{BspProgram, BspStarParams, CommLedger, Executor, Mailbox, Step};
use em_core::{
    AutoTuner, ComputeMode, ComputePool, CostReport, EmError, EmMachine, KillPoint, ParEmSimulator,
    PhaseIo, Recording, SeqEmSimulator, TuneInputs,
};
use em_disk::{IoStats, Pipeline};
use em_service::{JobSpec, ServiceConfig, SimService};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const V: usize = 8;

/// Pool widths under test; 1 exercises the single-worker pool, 8
/// oversubscribes the buckets (more workers than `min(D, groups)`).
const POOL_WIDTHS: [usize; 3] = [1, 2, 8];

/// A machine small enough that the EM simulators page contexts in groups
/// and route messages through several buckets.
fn em_machine(p: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: 1 << 16,
        d: 4,
        b_bytes: 256,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 256, l: 1.0 },
    }
}

/// A *tiny* machine (M = 256 B against μ = 124 contexts) for the direct
/// `BspProgram` workloads below: k = 2 forces eight groups, so the
/// reorganization routes through `min(D, groups) = 2` buckets — the span
/// the pooled plan builders chunk over.
fn tiny_machine(p: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: 256,
        d: 2,
        b_bytes: 64,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory for one file-backed run.
fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("em-reorg-modes-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything about a run that must not depend on the attached pool: the
/// per-stage counted I/O, the per-phase operation counts, the message
/// ledger, λ, and the raw bytes left on the drive files.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    io: Vec<IoStats>,
    phases: Vec<PhaseIo>,
    comm: Vec<CommLedger>,
    lambda: Vec<usize>,
    drive_bytes: Vec<(String, Vec<u8>)>,
}

fn fingerprint(reports: &[CostReport], dir: &Path) -> Fingerprint {
    Fingerprint {
        io: reports.iter().map(|r| r.io.clone()).collect(),
        phases: reports.iter().map(|r| r.phases.clone()).collect(),
        comm: reports.iter().map(|r| r.comm.clone()).collect(),
        lambda: reports.iter().map(|r| r.lambda).collect(),
        drive_bytes: drive_bytes(dir),
    }
}

/// All regular files under `dir` (recursively), path-sorted, with their
/// contents.
fn drive_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&p).unwrap()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn assert_fingerprints_match(base: &Fingerprint, got: &Fingerprint, what: &str) {
    assert_eq!(got.io, base.io, "{what}: counted IoStats diverged");
    assert_eq!(got.phases, base.phases, "{what}: per-phase op counts diverged");
    assert_eq!(got.comm, base.comm, "{what}: message ledger diverged");
    assert_eq!(got.lambda, base.lambda, "{what}: λ diverged");
    // Compare drive bytes without letting a failure dump whole drive files.
    let base_names: Vec<&str> = base.drive_bytes.iter().map(|(n, _)| n.as_str()).collect();
    let got_names: Vec<&str> = got.drive_bytes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got_names, base_names, "{what}: drive file set diverged");
    for ((name, b), (_, g)) in base.drive_bytes.iter().zip(&got.drive_bytes) {
        assert!(g == b, "{what}: drive file {name} bytes diverged");
    }
}

/// Run one workload with no pool and with every tested pool width on both
/// simulators and both pipeline lanes, each on a fresh file backend, and
/// require identical outputs and identical [`Fingerprint`]s. The compute
/// mode stays `Serial` throughout: the pool may only touch the
/// reorganization phase.
fn check_workload<T, FS, FP>(name: &str, seq_f: FS, par_f: FP)
where
    T: PartialEq + std::fmt::Debug,
    FS: Fn(&Recording<SeqEmSimulator>) -> T,
    FP: Fn(&Recording<ParEmSimulator>) -> T,
{
    for pipeline in [Pipeline::Off, Pipeline::Stream(2)] {
        // Uniprocessor simulator.
        let run_seq = |pool: Option<usize>| {
            let dir = scratch_dir();
            let mut sim = SeqEmSimulator::new(em_machine(1))
                .with_seed(77)
                .with_pipeline(pipeline)
                .with_compute_mode(ComputeMode::Serial)
                .with_file_backend(&dir);
            if let Some(w) = pool {
                sim = sim.with_compute_pool(ComputePool::new(w));
            }
            let rec = Recording::new(sim);
            let out = seq_f(&rec);
            let fp = fingerprint(&rec.take_reports(), &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp)
        };
        let (base_out, base_fp) = run_seq(None);
        for w in POOL_WIDTHS {
            let what = format!("{name}: seq sim, {pipeline:?}, pool w={w}");
            let (out, fp) = run_seq(Some(w));
            assert_eq!(out, base_out, "{what}: output diverged");
            assert_fingerprints_match(&base_fp, &fp, &what);
        }

        // 3-processor simulator.
        let run_par = |pool: Option<usize>| {
            let dir = scratch_dir();
            let mut sim = ParEmSimulator::new(em_machine(3))
                .with_seed(78)
                .with_pipeline(pipeline)
                .with_compute_mode(ComputeMode::Serial)
                .with_file_backend(&dir);
            if let Some(w) = pool {
                sim = sim.with_compute_pool(ComputePool::new(w));
            }
            let rec = Recording::new(sim);
            let out = par_f(&rec);
            let fp = fingerprint(&rec.take_reports(), &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp)
        };
        let (base_out, base_fp) = run_par(None);
        for w in POOL_WIDTHS {
            let what = format!("{name}: par sim, {pipeline:?}, pool w={w}");
            let (out, fp) = run_par(Some(w));
            assert_eq!(out, base_out, "{what}: output diverged");
            assert_fingerprints_match(&base_fp, &fp, &what);
        }
    }
}

/// Duplicate one closure body for the two `Recording<…>` types.
macro_rules! check_workload {
    ($name:expr, |$rec:ident| $body:expr) => {
        check_workload($name, |$rec| $body, |$rec| $body)
    };
}

#[test]
fn sort_is_reorg_pool_invariant() {
    let mut rng = StdRng::seed_from_u64(210);
    let items: Vec<u64> = (0..500).map(|_| rng.gen_range(0..4000)).collect();
    check_workload!("sort", |rec| cgm_sort(rec, V, items.clone()).unwrap());
}

#[test]
fn permute_is_reorg_pool_invariant() {
    let mut rng = StdRng::seed_from_u64(211);
    let n = 300;
    let items: Vec<u64> = (0..n as u64).map(|x| x * 5 + 2).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    check_workload!("permute", |rec| cgm_permute(rec, V, items.clone(), &perm).unwrap());
}

/// Message-heavy program whose state is a non-commutative hash chain:
/// sensitive to inbox order, so any pool-induced reordering of the
/// reorganization phase's deliveries changes the final states.
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

/// A block cache in front of the backend absorbs reorganization traffic;
/// the pooled plan construction must leave every counter — including the
/// cache tallies — untouched.
#[test]
fn cached_runs_are_reorg_pool_invariant() {
    let init: Vec<u64> = (0..16u64).map(|i| i * 9 + 2).collect();
    let mut seq_base: Option<(Vec<u64>, IoStats, PhaseIo, CommLedger)> = None;
    let mut par_base: Option<(Vec<u64>, IoStats, PhaseIo, CommLedger)> = None;
    for pool in [None, Some(2), Some(8)] {
        let mut sim = SeqEmSimulator::new(tiny_machine(1)).with_seed(77).with_cache(4096);
        if let Some(w) = pool {
            sim = sim.with_compute_pool(ComputePool::new(w));
        }
        let (res, report) = sim.run(&ChainFold, init.clone()).unwrap();
        match &seq_base {
            None => {
                seq_base = Some((res.states, report.io, report.phases, report.comm));
            }
            Some((states, io, phases, comm)) => {
                assert_eq!(&res.states, states, "seq cached states diverged, pool {pool:?}");
                assert_eq!(&report.io, io, "seq cached IoStats diverged, pool {pool:?}");
                assert_eq!(&report.phases, phases, "seq cached phases diverged, pool {pool:?}");
                assert_eq!(&report.comm, comm, "seq cached ledger diverged, pool {pool:?}");
            }
        }

        let mut sim = ParEmSimulator::new(tiny_machine(3)).with_seed(78).with_cache(4096);
        if let Some(w) = pool {
            sim = sim.with_compute_pool(ComputePool::new(w));
        }
        let (res, report) = sim.run(&ChainFold, init.clone()).unwrap();
        match &par_base {
            None => {
                par_base = Some((res.states, report.io, report.phases, report.comm));
            }
            Some((states, io, phases, comm)) => {
                assert_eq!(&res.states, states, "par cached states diverged, pool {pool:?}");
                assert_eq!(&report.io, io, "par cached IoStats diverged, pool {pool:?}");
                assert_eq!(&report.phases, phases, "par cached phases diverged, pool {pool:?}");
                assert_eq!(&report.comm, comm, "par cached ledger diverged, pool {pool:?}");
            }
        }
    }
}

/// Under a seeded fault plan with retries and superstep recovery, the
/// pooled reorganization must still converge to the fault-free unpooled
/// result, with counted parallel I/O (which excludes retry and recovery
/// traffic) and the message ledger bit-identical across pool widths.
#[test]
fn faulted_recovery_is_reorg_pool_invariant() {
    use em_bsp::run_sequential;
    use em_core::RecoveryPolicy;
    use em_disk::{FaultPlan, RetryPolicy};

    let init: Vec<u64> = (0..V as u64).map(|i| i * 9 + 2).collect();
    let reference = run_sequential(&ChainFold, init.clone()).unwrap().states;
    let plan = || FaultPlan::seeded(0xF16, 4, 300, 30);

    let mut seq_base: Option<(u64, CommLedger)> = None;
    let mut par_base: Option<(u64, CommLedger)> = None;
    for pool in [None, Some(2), Some(8)] {
        let mut sim = SeqEmSimulator::new(tiny_machine(1))
            .with_seed(77)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64));
        if let Some(w) = pool {
            sim = sim.with_compute_pool(ComputePool::new(w));
        }
        let (res, report) = sim.run(&ChainFold, init.clone()).unwrap();
        assert_eq!(res.states, reference, "seq EM under faults, pool {pool:?}");
        match &seq_base {
            None => seq_base = Some((report.io.parallel_ops, report.comm.clone())),
            Some((ops, ledger)) => {
                assert_eq!(report.io.parallel_ops, *ops, "seq counted ops diverged, {pool:?}");
                assert_eq!(&report.comm, ledger, "seq message ledger diverged, {pool:?}");
            }
        }

        let mut sim = ParEmSimulator::new(tiny_machine(3))
            .with_seed(78)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64));
        if let Some(w) = pool {
            sim = sim.with_compute_pool(ComputePool::new(w));
        }
        let (res, report) = sim.run(&ChainFold, init.clone()).unwrap();
        assert_eq!(res.states, reference, "par EM under faults, pool {pool:?}");
        match &par_base {
            None => par_base = Some((report.io.parallel_ops, report.comm.clone())),
            Some((ops, ledger)) => {
                assert_eq!(report.io.parallel_ops, *ops, "par counted ops diverged, {pool:?}");
                assert_eq!(&report.comm, ledger, "par message ledger diverged, {pool:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// AutoTuner resolution.
// ---------------------------------------------------------------------

/// Supersteps of the [`Diffuse`] workload below.
const SUPERSTEPS: usize = 5;

/// State-dependent across supersteps, so a wrong resume barrier or a
/// divergent resolution changes the final states.
struct Diffuse;
impl BspProgram for Diffuse {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        let v = mb.nprocs();
        for e in mb.take_incoming() {
            *state = state.wrapping_add(e.msg);
        }
        if step + 1 < SUPERSTEPS {
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

fn init_states(v: usize) -> Vec<u64> {
    (0..v as u64).map(|x| x * 13 + 5).collect()
}

/// Pinned tuner inputs: 4 cores, a 40:1 compute/fetch ratio and a 64 KiB
/// footprint resolve — by the documented policy — to `Threaded(4)`,
/// `Stream(2)` and a 128 KiB cache, independent of the host.
fn pinned_tuner() -> AutoTuner {
    AutoTuner::default().with_inputs(TuneInputs {
        cores: 4,
        compute_per_fetch_x16: 640,
        footprint_bytes: 1 << 16,
    })
}

/// What [`pinned_tuner`] must resolve to, byte for byte.
const PINNED_LINE: &str = "compute=threaded(4) pipeline=stream(2) cache=131072 \
                           cores=4 ratio_x16=640 footprint=65536 source=explicit";

/// An all-`Auto` simulator over [`pinned_tuner`], file-backed in `dir`.
fn auto_seq(dir: &Path) -> SeqEmSimulator {
    SeqEmSimulator::new(tiny_machine(1))
        .with_seed(77)
        .with_compute_mode(ComputeMode::Auto)
        .with_pipeline(Pipeline::Auto)
        .with_auto_cache(true)
        .with_tuner(pinned_tuner())
        .with_file_backend(dir)
}

/// The manually configured twin of what [`pinned_tuner`] resolves.
fn manual_seq(dir: &Path) -> SeqEmSimulator {
    SeqEmSimulator::new(tiny_machine(1))
        .with_seed(77)
        .with_compute_mode(ComputeMode::Threaded(4))
        .with_pipeline(Pipeline::Stream(2))
        .with_cache(131072)
        .with_file_backend(dir)
}

/// `Auto` runs record their resolution, resolve identically on
/// identically-seeded reruns, and are bit-identical in effect to the
/// manually configured twin — on both simulators.
#[test]
fn auto_resolution_matches_manual_twin_and_reruns() {
    let init = init_states(16);

    // Uniprocessor simulator.
    let dir_auto = scratch_dir();
    let sim = auto_seq(&dir_auto);
    let (a, ra) = sim.run(&Diffuse, init.clone()).unwrap();
    let rc = ra.resolved_config.expect("Auto run must record its resolution");
    assert_eq!(rc.deterministic_line(), PINNED_LINE);
    let (a2, ra2) = sim.run(&Diffuse, init.clone()).unwrap();
    assert_eq!(a2.states, a.states, "seq rerun states diverged");
    assert_eq!(ra2.resolved_config, Some(rc), "seq rerun resolved differently");
    let fp_auto = fingerprint(&[ra], &dir_auto);

    let dir_manual = scratch_dir();
    let (b, rb) = manual_seq(&dir_manual).run(&Diffuse, init.clone()).unwrap();
    assert!(rb.resolved_config.is_none(), "manual run must not record a resolution");
    assert_eq!(b.states, a.states, "seq auto vs manual states diverged");
    let fp_manual = fingerprint(&[rb], &dir_manual);
    assert_fingerprints_match(&fp_manual, &fp_auto, "seq auto vs manual twin");
    std::fs::remove_dir_all(&dir_auto).ok();
    std::fs::remove_dir_all(&dir_manual).ok();

    // 3-processor simulator.
    let auto_par = |dir: &Path| {
        ParEmSimulator::new(tiny_machine(3))
            .with_seed(78)
            .with_compute_mode(ComputeMode::Auto)
            .with_pipeline(Pipeline::Auto)
            .with_auto_cache(true)
            .with_tuner(pinned_tuner())
            .with_file_backend(dir)
    };
    let dir_auto = scratch_dir();
    let sim = auto_par(&dir_auto);
    let (a, ra) = sim.run(&Diffuse, init.clone()).unwrap();
    let rc = ra.resolved_config.expect("par Auto run must record its resolution");
    assert_eq!(rc.deterministic_line(), PINNED_LINE);
    let (a2, ra2) = sim.run(&Diffuse, init.clone()).unwrap();
    assert_eq!(a2.states, a.states, "par rerun states diverged");
    assert_eq!(ra2.resolved_config, Some(rc), "par rerun resolved differently");
    let fp_auto = fingerprint(&[ra], &dir_auto);

    let dir_manual = scratch_dir();
    let (b, rb) = ParEmSimulator::new(tiny_machine(3))
        .with_seed(78)
        .with_compute_mode(ComputeMode::Threaded(4))
        .with_pipeline(Pipeline::Stream(2))
        .with_cache(131072)
        .with_file_backend(&dir_manual)
        .run(&Diffuse, init.clone())
        .unwrap();
    assert!(rb.resolved_config.is_none(), "par manual run must not record a resolution");
    assert_eq!(b.states, a.states, "par auto vs manual states diverged");
    let fp_manual = fingerprint(&[rb], &dir_manual);
    assert_fingerprints_match(&fp_manual, &fp_auto, "par auto vs manual twin");
    std::fs::remove_dir_all(&dir_auto).ok();
    std::fs::remove_dir_all(&dir_manual).ok();
}

/// A crashed `Auto` run resolves again on `resume()` — from the manifest,
/// before any disks are rebuilt — to the same configuration, and the
/// resumed run is bit-identical to the uninterrupted one.
#[test]
fn auto_resolution_survives_crash_and_resume() {
    let init = init_states(16);

    let dir_a = scratch_dir();
    let (a, ra) = auto_seq(&dir_a).with_checkpointing(true).run(&Diffuse, init.clone()).unwrap();
    let rc = ra.resolved_config.expect("uninterrupted Auto run must record its resolution");
    assert_eq!(rc.deterministic_line(), PINNED_LINE);

    let dir_b = scratch_dir();
    let sim = auto_seq(&dir_b).with_checkpointing(true);
    let err = sim
        .clone()
        .with_kill_point(KillPoint::AtBarrier(2))
        .run(&Diffuse, init.clone())
        .unwrap_err();
    assert!(matches!(err, EmError::Killed { .. }), "{err}");
    let (b, rb) = sim.resume(&Diffuse).unwrap();
    assert_eq!(b.states, a.states, "resumed Auto states diverged");
    assert_eq!(rb.resolved_config, Some(rc), "resume() resolved differently");
    assert_eq!(rb.io.parallel_ops, ra.io.parallel_ops, "resumed counted ops diverged");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// The service resolves a tenant's `Auto` requests once, at admission —
/// so budgets and pool sharing see the tuned configuration — and logs the
/// resolution line on the lease, the tenant record, and the deterministic
/// ledger. Manual tenants record nothing.
#[test]
fn service_admission_resolves_auto_tenants_into_the_ledger() {
    let machine = tiny_machine(1);
    let service = SimService::new(ServiceConfig::new(2, 64, 8192, 1 << 24));

    let tenant = SeqEmSimulator::new(machine)
        .with_seed(5)
        .with_compute_mode(ComputeMode::Auto)
        .with_pipeline(Pipeline::Auto)
        .with_auto_cache(true)
        .with_tuner(pinned_tuner());
    let spec = JobSpec::new("auto", 5, machine, 16).with_budgets(128, 256).with_tracks(1024);
    let lease = service.admit_with(spec, tenant).unwrap();
    assert_eq!(lease.resolved_line(), Some(PINNED_LINE), "lease must carry the resolution");
    lease.execute(&Diffuse, init_states(16)).unwrap();
    let record = lease.complete();
    assert_eq!(record.resolved.as_deref(), Some(PINNED_LINE), "record must carry the resolution");

    let manual = SeqEmSimulator::new(machine).with_seed(6);
    let spec = JobSpec::new("manual", 6, machine, 16).with_budgets(128, 256).with_tracks(1024);
    let lease = service.admit_with(spec, manual).unwrap();
    assert_eq!(lease.resolved_line(), None, "manual tenant must not resolve");
    lease.execute(&Diffuse, init_states(16)).unwrap();
    assert!(lease.complete().resolved.is_none());

    let json = service.report().deterministic_json();
    assert!(
        json.contains(&format!("\"resolved\":{PINNED_LINE:?}")),
        "ledger must log the auto tenant's resolution: {json}"
    );
    assert!(
        json.contains("\"resolved\":null"),
        "ledger must log the manual tenant's null resolution: {json}"
    );
}
