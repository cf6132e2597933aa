//! Crash/restart chaos sweep: kill a checkpointed run at *every* barrier
//! — after the manifest committed, mid-manifest-write (torn), and
//! mid-superstep (written but uncommitted) — then resume and demand the
//! result is bit-identical to the uninterrupted run: final states, the
//! communication ledger, counted parallel I/O, per-drive op counts, and
//! the drive bytes themselves. Each sweep runs again under one-shot
//! transient disk faults absorbed by a retry layer: the resumed run must
//! replay the same faults at the same absolute operations, so its retried
//! blocks match too.
//!
//! The workload is state-dependent across supersteps, so resuming from
//! the wrong barrier, replaying with different message placement, or
//! leaking a half-done superstep's writes all change the final states.

use em_bsp::{BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmError, EmMachine, KillPoint, ParEmSimulator, RecoveryPolicy, SeqEmSimulator};
use em_disk::{
    DiskArray, DiskBackend, DiskConfig, DiskResult, FaultPlan, FileBackend, MemoryBackend,
    RetryPolicy, TrackOutcomes,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Supersteps the workload runs (barriers 0..SUPERSTEPS are kill targets).
const SUPERSTEPS: usize = 5;

/// Every superstep folds the incoming messages into the state and sends
/// state-derived messages, so the final states encode the whole history.
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

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("em-sim-ckpt-{}-{name}", std::process::id()))
}

fn init_states(v: usize) -> Vec<u64> {
    (0..v as u64).map(|x| x * 13 + 5).collect()
}

/// The durable artifacts that must be bit-identical after a resume: the
/// drive files and the committed manifests (a resumed run must rebuild
/// the *same* checkpoints, so a second crash resumes just as well).
fn durable_fingerprint(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
            let leaf = entry.file_name().to_string_lossy().into_owned();
            let durable = (leaf.starts_with("disk-") && leaf.ends_with(".bin"))
                || (leaf.starts_with("manifest-") && leaf.ends_with(".ckpt"));
            if durable {
                files.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

fn all_kill_points() -> Vec<KillPoint> {
    (0..SUPERSTEPS)
        .flat_map(|b| {
            [KillPoint::AtBarrier(b), KillPoint::MidSuperstep(b), KillPoint::MidManifest(b)]
        })
        .collect()
}

/// The faulted sweeps' schedule: three one-shot transients over both
/// drives of every array, each absorbed by a four-attempt retry.
fn transient_plan() -> FaultPlan {
    FaultPlan::none().with_transient(0, 7).with_transient(1, 13).with_transient(0, 29)
}

/// Either simulator, checkpointed on file drives under `dir`, with the
/// fault plan and a retry layer when there is one, killed at `kill` if any.
macro_rules! sweep_sim {
    ($sim:expr, $dir:expr, $plan:expr, $kill:expr) => {{
        let mut sim = $sim.with_seed(11).with_file_backend($dir).with_checkpointing(true);
        if let Some(plan) = $plan {
            sim = sim.with_fault_plan(plan.clone()).with_retry(RetryPolicy::new(4));
        }
        if let Some(kill) = $kill {
            sim = sim.with_kill_point(kill);
        }
        sim
    }};
}

/// Kill a run at every kill point, resume it, and demand the uninterrupted
/// run bit for bit: states, ledger, the whole `IoStats` (per-drive reads
/// and writes and retried blocks included), `PhaseIo`, real communication,
/// and the drive and manifest bytes. `par` picks the p = 3 simulator over
/// the sequential one. Under `plan` a resumed run must replay the same
/// faults at the same absolute operations, so its retries match too.
fn kill_sweep(par: bool, plan: Option<FaultPlan>) {
    let (p, v, sim) = if par { (3, 24, "par") } else { (1, 16, "seq") };
    let tag = format!("{sim}-{}", if plan.is_some() { "faulted" } else { "clean" });
    let machine = EmMachine {
        p,
        m_bytes: 256,
        d: 2,
        b_bytes: 64,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
    };
    let run = |dir: &Path, kill: Option<KillPoint>| {
        if par {
            sweep_sim!(ParEmSimulator::new(machine), dir, &plan, kill).run(&Diffuse, init_states(v))
        } else {
            sweep_sim!(SeqEmSimulator::new(machine), dir, &plan, kill).run(&Diffuse, init_states(v))
        }
    };
    let resume = |dir: &Path| {
        if par {
            sweep_sim!(ParEmSimulator::new(machine), dir, &plan, None).resume(&Diffuse)
        } else {
            sweep_sim!(SeqEmSimulator::new(machine), dir, &plan, None).resume(&Diffuse)
        }
    };
    let base = tmp(&tag);
    let dir_a = base.join("uninterrupted");
    let (a, ra) = run(&dir_a, None).unwrap();
    let transients = if plan.is_some() { 3 * p as u64 } else { 0 };
    assert_eq!(ra.io.retried_blocks, transients, "{tag}: every transient absorbed once");
    let bytes_a = durable_fingerprint(&dir_a);
    for kill in all_kill_points() {
        let dir_b = base.join(format!("{kill:?}"));
        let err = run(&dir_b, Some(kill)).unwrap_err();
        assert!(matches!(err, EmError::Killed { .. }), "{tag}/{kill:?}: {err}");
        let (b, rb) = resume(&dir_b).unwrap();
        assert_eq!(a.states, b.states, "{tag}/{kill:?}: states");
        assert_eq!(a.ledger, b.ledger, "{tag}/{kill:?}: ledger");
        assert_eq!(ra.io, rb.io, "{tag}/{kill:?}: IoStats");
        assert_eq!(ra.phases, rb.phases, "{tag}/{kill:?}: phases");
        assert_eq!(ra.real_comm_bytes, rb.real_comm_bytes, "{tag}/{kill:?}: real comm");
        assert_eq!(bytes_a, durable_fingerprint(&dir_b), "{tag}/{kill:?}: drive bytes");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn seq_kill_sweep_every_barrier_is_bit_identical() {
    kill_sweep(false, None);
}

#[test]
fn par_kill_sweep_every_barrier_is_bit_identical() {
    kill_sweep(true, None);
}

#[test]
fn seq_kill_sweep_under_transient_faults_is_bit_identical() {
    kill_sweep(false, Some(transient_plan()));
}

#[test]
fn par_kill_sweep_under_transient_faults_is_bit_identical() {
    kill_sweep(true, Some(transient_plan()));
}

#[test]
fn double_crash_resume_still_matches() {
    // Crash, resume into *another* crash, resume again — the durability
    // contract must hold transitively because the resumed run rebuilds
    // the same manifests it would have written uninterrupted.
    let v = 16;
    let machine = EmMachine::uniprocessor(256, 2, 64, 1);
    let base = tmp("double");
    let make = |dir: std::path::PathBuf| {
        SeqEmSimulator::new(machine).with_seed(11).with_file_backend(dir).with_checkpointing(true)
    };
    let dir_a = base.join("uninterrupted");
    let (a, ra) = make(dir_a.clone()).run(&Diffuse, init_states(v)).unwrap();
    let dir_b = base.join("twice-killed");
    let sim = make(dir_b.clone());
    let err = sim
        .clone()
        .with_kill_point(KillPoint::MidManifest(1))
        .run(&Diffuse, init_states(v))
        .unwrap_err();
    assert!(matches!(err, EmError::Killed { .. }));
    let err = sim.clone().with_kill_point(KillPoint::MidSuperstep(3)).resume(&Diffuse).unwrap_err();
    assert!(matches!(err, EmError::Killed { .. }));
    let (b, rb) = sim.resume(&Diffuse).unwrap();
    assert_eq!(a.states, b.states);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops);
    assert_eq!(durable_fingerprint(&dir_a), durable_fingerprint(&dir_b));
    std::fs::remove_dir_all(&base).ok();
}

/// Traffic that swells and ebbs: six messages a virtual processor in even
/// supersteps, one in odd ones. Each superstep's final region is sized
/// from its own traffic and reserved where the allocator first finds room,
/// so the region moves to another base from one barrier to the next.
struct Surge;
impl BspProgram for Surge {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        let v = mb.nprocs();
        for e in mb.take_incoming() {
            *state = state.wrapping_mul(31).wrapping_add(e.msg);
        }
        if step + 1 == SURGE_STEPS {
            return Step::Halt;
        }
        let fan = if step.is_multiple_of(2) { 6 } else { 1 };
        for i in 0..fan {
            mb.send((mb.pid() + 3 * i + 1) % v, state.wrapping_add(i as u64));
        }
        Step::Continue
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        6 * 24
    }
}

const SURGE_STEPS: usize = 6;

/// Where a manifest payload keeps the final region's base: after its
/// fixed-size header (six `u64`s, a `u32`, a `u64`, two `u32`s, a `u64`
/// and a byte); the region's tracks per bucket are the next eight bytes.
const REGION_BASE_AT: usize = 77;

fn region_field(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

/// Kill at the barrier of every superstep whose final region moved to
/// another base, and in the middle of it; resume must match the
/// uninterrupted run bit for bit — states, `IoStats`, `PhaseIo` and drive
/// bytes. Then corrupt or truncate either region field of the committed
/// manifest: resume reports a typed error.
#[test]
fn a_moved_final_region_survives_kill_and_resume() {
    let machine = |p: usize| EmMachine {
        p,
        m_bytes: 256,
        d: 2,
        b_bytes: 64,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
    };
    for p in [1, 2] {
        let tag = format!("surge-p{p}");
        let base = tmp(&tag);
        let v = 16;
        // Each case's checkpoints (processor 0's) and its resumed run.
        let run = |dir: &Path, kill: Option<KillPoint>| {
            let (seq, par) = (
                SeqEmSimulator::new(machine(1)).with_seed(7).with_file_backend(dir),
                ParEmSimulator::new(machine(p)).with_seed(7).with_file_backend(dir),
            );
            let (seq, par) = (seq.with_checkpointing(true), par.with_checkpointing(true));
            let proc0 = if p == 1 { dir.to_path_buf() } else { dir.join("proc-0") };
            let result = match (p, kill) {
                (1, None) => seq.run(&Surge, init_states(v)),
                (1, Some(kill)) => seq.clone().with_kill_point(kill).run(&Surge, init_states(v)),
                (_, None) => par.run(&Surge, init_states(v)),
                (_, Some(kill)) => par.clone().with_kill_point(kill).run(&Surge, init_states(v)),
            };
            let resume = move || if p == 1 { seq.resume(&Surge) } else { par.resume(&Surge) };
            (result, em_disk::CheckpointStore::attach(proc0).unwrap(), resume)
        };
        let dir_a = base.join("uninterrupted");
        let (a, ra) = run(&dir_a, None).0.unwrap();
        let bytes_a = durable_fingerprint(&dir_a);

        let mut moved = Vec::new();
        for b in 1..SURGE_STEPS - 1 {
            let dir = base.join(format!("at-barrier-{b}"));
            let (err, store, _) = run(&dir, Some(KillPoint::AtBarrier(b)));
            assert!(matches!(err, Err(EmError::Killed { .. })), "{tag}/{b}");
            let before = store.load_manifest(b as u64).unwrap().unwrap();
            let after = store.load_manifest(b as u64 + 1).unwrap().unwrap();
            let stride = region_field(&after, REGION_BASE_AT + 8);
            if stride > 0
                && region_field(&before, REGION_BASE_AT) != region_field(&after, REGION_BASE_AT)
            {
                moved.push((b, after));
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(!moved.is_empty(), "{tag}: no superstep moved its final region");

        for (b, committed) in moved {
            for kill in [KillPoint::AtBarrier(b), KillPoint::MidSuperstep(b)] {
                let dir = base.join(format!("{kill:?}"));
                let (err, _, resume) = run(&dir, Some(kill));
                assert!(matches!(err, Err(EmError::Killed { .. })), "{tag}/{kill:?}");
                let (r, rr) = resume().unwrap();
                assert_eq!(a.states, r.states, "{tag}/{kill:?}: states");
                assert_eq!(a.ledger, r.ledger, "{tag}/{kill:?}: ledger");
                assert_eq!(ra.io, rr.io, "{tag}/{kill:?}: IoStats");
                assert_eq!(ra.phases, rr.phases, "{tag}/{kill:?}: phases");
                assert_eq!(ra.tracks_per_disk, rr.tracks_per_disk, "{tag}/{kill:?}: tracks");
                assert_eq!(bytes_a, durable_fingerprint(&dir), "{tag}/{kill:?}: drive bytes");
                std::fs::remove_dir_all(&dir).ok();
            }

            // The committed manifest of that barrier, with either field
            // off by one or cut inside either field.
            let off_by_one = |at: usize| {
                let mut bad = committed.clone();
                let field = region_field(&bad, at) + 1;
                bad[at..at + 8].copy_from_slice(&field.to_le_bytes());
                bad
            };
            let damaged = [
                ("base + 1", off_by_one(REGION_BASE_AT)),
                ("stride + 1", off_by_one(REGION_BASE_AT + 8)),
                ("cut in base", committed[..REGION_BASE_AT + 3].to_vec()),
                ("cut in stride", committed[..REGION_BASE_AT + 11].to_vec()),
            ];
            for (what, payload) in damaged {
                let dir = base.join(format!("damaged-{b}"));
                let (_, store, resume) = run(&dir, Some(KillPoint::AtBarrier(b)));
                store.commit_manifest(b as u64 + 1, &payload).unwrap();
                match resume() {
                    Err(EmError::InvalidConfig(_)) => {}
                    other => panic!("{tag}/{b}, {what}: {:?}", other.map(|(_, r)| r.io)),
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }
}

/// Where a manifest payload's fault counters start (their length word):
/// behind the region fields, the group counts and prefixes, and the
/// allocator's frontiers and free lists.
fn fault_ops_at(payload: &[u8]) -> usize {
    let word = |at: usize| region_field(payload, at) as usize;
    let list_end = |at: usize| at + 8 + 8 * word(at);
    let mut at = REGION_BASE_AT + 16;
    for _ in 0..3 {
        at = list_end(at);
    }
    let free_lists = word(at);
    at += 8;
    for _ in 0..free_lists {
        at = list_end(at);
    }
    assert_eq!(payload[at], 1, "a run with a fault plan checkpoints its counters");
    at + 1
}

/// A CRC-valid manifest whose fault counters name one drive too many is
/// refused with a typed error before anything is reattached or undone.
#[test]
fn a_manifest_with_a_fault_counter_per_extra_drive_is_refused() {
    let dir = tmp("fault-ops");
    let sim = SeqEmSimulator::new(EmMachine::uniprocessor(256, 2, 64, 1))
        .with_seed(11)
        .with_file_backend(&dir)
        .with_checkpointing(true)
        .with_checksums(true)
        .with_retry(em_disk::RetryPolicy::new(8))
        .with_fault_plan(em_disk::FaultPlan::seeded(5, 2, 400, 10));
    let err = sim.clone().with_kill_point(KillPoint::AtBarrier(2)).run(&Diffuse, init_states(16));
    assert!(matches!(err, Err(EmError::Killed { .. })), "{:?}", err.map(|(_, r)| r.io));

    let store = em_disk::CheckpointStore::attach(&dir).unwrap();
    let (step, payload) = store.latest_manifest().unwrap().unwrap();
    let at = fault_ops_at(&payload);
    let drives = region_field(&payload, at) as usize;
    assert_eq!(drives, 2);
    let counters_end = at + 8 + 8 * drives;
    let mut bad = payload[..at].to_vec();
    bad.extend((drives as u64 + 1).to_le_bytes());
    bad.extend(&payload[at + 8..counters_end]);
    bad.extend(0u64.to_le_bytes());
    bad.extend(&payload[counters_end..]);
    store.commit_manifest(step, &bad).unwrap();

    let before = durable_fingerprint(&dir);
    match sim.resume(&Diffuse) {
        Err(EmError::InvalidConfig(_)) => {}
        other => panic!("expected a typed refusal, got {:?}", other.map(|(_, r)| r.io)),
    }
    assert_eq!(durable_fingerprint(&dir), before, "drive files and manifests untouched");
    std::fs::remove_dir_all(&dir).ok();
}

/// A raw drive layer that counts the `sync()` calls reaching it.
struct SyncCensus {
    inner: Box<dyn DiskBackend>,
    syncs: Arc<AtomicUsize>,
}

impl DiskBackend for SyncCensus {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> TrackOutcomes {
        self.inner.read_batch_each(stripes, addrs, bufs)
    }
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> TrackOutcomes {
        self.inner.write_batch_each(stripes, writes)
    }
    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }
    fn sync(&mut self) -> DiskResult<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

/// One array per directory (memory drives where there is none), each
/// counting its syncs into the matching counter.
fn census_arrays(
    cfg: DiskConfig,
    dirs: &[Option<std::path::PathBuf>],
) -> Vec<(DiskArray, Arc<AtomicUsize>)> {
    let track_bytes = DiskArray::storage_block_bytes(&cfg);
    (dirs.iter())
        .map(|dir| {
            let inner: Box<dyn DiskBackend> = match dir {
                Some(dir) => {
                    Box::new(FileBackend::create(dir, cfg.num_disks, track_bytes).unwrap())
                }
                None => Box::new(MemoryBackend::new(cfg.num_disks)),
            };
            let syncs = Arc::new(AtomicUsize::new(0));
            let raw = SyncCensus { inner, syncs: syncs.clone() };
            (DiskArray::with_backend(cfg, Box::new(raw)), syncs)
        })
        .collect()
}

/// Apply a census case — file drives, recovery, checkpointing — to either
/// simulator's builder.
macro_rules! census_case {
    ($sim:expr, $dir:expr, $case:expr) => {{
        let (files, recovery, checkpoint) = $case;
        let mut sim = $sim.with_seed(11).with_checkpointing(checkpoint);
        if files {
            sim = sim.with_file_backend($dir);
        }
        if recovery {
            sim = sim.with_recovery(RecoveryPolicy::default());
        }
        sim
    }};
}

/// Durability follows the manifest. A run that commits none never syncs
/// its drives — in memory or on files, with recovery on or off — and a
/// checkpointed run syncs each array once after its load and once per
/// committed barrier: λ + 1. Through `run_on` on both simulators, at
/// p = 1 and 2.
#[test]
fn only_a_checkpointed_run_syncs_its_drives() {
    let v = 16;
    let want = em_bsp::run_sequential(&Diffuse, init_states(v)).unwrap();
    // (file drives, recovery, checkpointing); checkpointing needs files.
    let cases = [
        (false, false, false),
        (false, true, false),
        (true, false, false),
        (true, true, false),
        (true, false, true),
        (true, true, true),
    ];
    for (par, p) in [(false, 1), (true, 1), (true, 2)] {
        for (c, case @ (files, _, checkpoint)) in cases.into_iter().enumerate() {
            let name = if par { "par" } else { "seq" };
            let tag = format!("{name} p = {p}, case {case:?}");
            let dir = tmp(&format!("census-{name}{p}-{c}"));
            let machine = EmMachine {
                p,
                m_bytes: 256,
                d: 2,
                b_bytes: 64,
                g_io: 1,
                router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
            };
            let worker_dir = |i: usize| {
                files.then(|| if par { dir.join(format!("proc-{i}")) } else { dir.clone() })
            };
            let dirs: Vec<_> = (0..p).map(worker_dir).collect();
            let (res, report, syncs) = if par {
                let sim = census_case!(ParEmSimulator::new(machine), &dir, case);
                let (disks, syncs): (Vec<_>, Vec<_>) =
                    census_arrays(sim.disk_config().unwrap(), &dirs).into_iter().unzip();
                let (res, report) = sim.run_on(disks, &Diffuse, init_states(v)).unwrap();
                (res, report, syncs)
            } else {
                let sim = census_case!(SeqEmSimulator::new(machine), &dir, case);
                let (mut disks, syncs) =
                    census_arrays(sim.disk_config().unwrap(), &dirs).pop().unwrap();
                let (res, report) = sim.run_on(&mut disks, &Diffuse, init_states(v)).unwrap();
                (res, report, vec![syncs])
            };
            assert_eq!(res.states, want.states, "{tag}");
            assert_eq!(report.lambda, SUPERSTEPS, "{tag}");
            let per_array = if checkpoint { report.lambda + 1 } else { 0 };
            for (i, syncs) in syncs.iter().enumerate() {
                assert_eq!(syncs.load(Ordering::Relaxed), per_array, "{tag}: array {i}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
