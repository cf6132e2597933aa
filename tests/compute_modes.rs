//! ComputeMode differential tests: [`em_core::ComputeMode::Threaded`]
//! in-group compute must be **byte-for-byte** indistinguishable from
//! `Serial` — same final outputs, same message ledger, same counted I/O
//! (total and per phase), and the same bytes on the drive files — for
//! `n ∈ {1, 2, 8}` workers, on both EM simulators, with and without the
//! double-buffered pipeline, and under seeded fault injection with
//! superstep recovery.
//!
//! `tests/cross_executor.rs` runs *every* Table-1 algorithm through the
//! threaded-compute lanes for output equality; this file drills into the
//! run fingerprint (ledger + counted I/O + drive bytes) on a
//! representative workload set where a full cross-product stays fast.

use em_algos::geometry::hull::cgm_convex_hull;
use em_algos::geometry::Point2;
use em_algos::graph::cc::cgm_connected_components;
use em_algos::graph::list_ranking::{cgm_list_rank, random_chain};
use em_algos::permute::cgm_permute;
use em_algos::prefix::cgm_prefix_sums;
use em_algos::sort::cgm_sort;
use em_bsp::{BspStarParams, CommLedger};
use em_core::{
    ComputeMode, CostReport, EmMachine, ParEmSimulator, PhaseIo, Recording, SeqEmSimulator,
};
use em_disk::{IoStats, Pipeline};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const V: usize = 8;

/// A draw from a range of signed bounds: one unsigned draw over its width,
/// shifted — the value `rng.gen_range(range)` gives on the published `rand`,
/// written so that the offline stand-in, which samples unsigned ranges
/// only, compiles it (`scripts/offline-test.sh`).
fn signed(rng: &mut StdRng, range: std::ops::Range<i64>) -> i64 {
    range.start + rng.gen_range(0..(range.end - range.start) as u64) as i64
}

/// Threaded worker counts under test; 1 exercises the serial fallback of
/// the pool, 8 oversubscribes the group (more workers than some groups
/// have virtual processors).
const WORKERS: [usize; 3] = [1, 2, 8];

/// A machine small enough that the EM simulators page contexts in groups.
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

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory for one file-backed run.
fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("em-compute-modes-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything about a run that must not depend on [`ComputeMode`]: the
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
/// contents. The simulators sync at every superstep boundary, so after
/// `run()` the files hold the final committed image.
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

/// Run one workload through Serial and every `Threaded(n)` on both
/// simulators and every pipeline lane (`Off`, `Stream(1)`,
/// `Stream(2)`, `Stream(8)`), each on a fresh file backend,
/// and require identical outputs and identical [`Fingerprint`]s.
fn check_workload<T, FS, FP>(name: &str, seq_f: FS, par_f: FP)
where
    T: PartialEq + std::fmt::Debug,
    FS: Fn(&Recording<SeqEmSimulator>) -> T,
    FP: Fn(&Recording<ParEmSimulator>) -> T,
{
    for pipeline in [Pipeline::Off, Pipeline::Stream(1), Pipeline::Stream(2), Pipeline::Stream(8)] {
        // Uniprocessor simulator.
        let run_seq = |mode: ComputeMode| {
            let dir = scratch_dir();
            let rec = Recording::new(
                SeqEmSimulator::new(em_machine(1))
                    .with_seed(77)
                    .with_pipeline(pipeline)
                    .with_compute_mode(mode)
                    .with_file_backend(&dir),
            );
            let out = seq_f(&rec);
            let fp = fingerprint(&rec.take_reports(), &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp)
        };
        let (base_out, base_fp) = run_seq(ComputeMode::Serial);
        for n in WORKERS {
            let what = format!("{name}: seq sim, {pipeline:?}, Threaded({n})");
            let (out, fp) = run_seq(ComputeMode::Threaded(n));
            assert_eq!(out, base_out, "{what}: output diverged");
            assert_fingerprints_match(&base_fp, &fp, &what);
        }

        // 3-processor simulator.
        let run_par = |mode: ComputeMode| {
            let dir = scratch_dir();
            let rec = Recording::new(
                ParEmSimulator::new(em_machine(3))
                    .with_seed(78)
                    .with_pipeline(pipeline)
                    .with_compute_mode(mode)
                    .with_file_backend(&dir),
            );
            let out = par_f(&rec);
            let fp = fingerprint(&rec.take_reports(), &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp)
        };
        let (base_out, base_fp) = run_par(ComputeMode::Serial);
        for n in WORKERS {
            let what = format!("{name}: par sim, {pipeline:?}, Threaded({n})");
            let (out, fp) = run_par(ComputeMode::Threaded(n));
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
fn sort_is_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(200);
    let items: Vec<u64> = (0..500).map(|_| rng.gen_range(0..4000)).collect();
    check_workload!("sort", |rec| cgm_sort(rec, V, items.clone()).unwrap());
}

#[test]
fn permute_is_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(201);
    let n = 300;
    let items: Vec<u64> = (0..n as u64).map(|x| x * 5 + 2).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    check_workload!("permute", |rec| cgm_permute(rec, V, items.clone(), &perm).unwrap());
}

#[test]
fn prefix_sums_are_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(202);
    let items: Vec<u64> = (0..400).map(|_| rng.gen_range(0..90)).collect();
    check_workload!("prefix", |rec| cgm_prefix_sums(rec, V, items.clone()).unwrap());
}

#[test]
fn convex_hull_is_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(203);
    let pts: Vec<Point2> = (0..250)
        .map(|_| Point2::new(signed(&mut rng, -400..400), signed(&mut rng, -400..400)))
        .collect();
    check_workload!("hull", |rec| cgm_convex_hull(rec, V, pts.clone()).unwrap());
}

#[test]
fn list_rank_is_mode_invariant() {
    let n = 220;
    let succ = random_chain(n, 204);
    let weights: Vec<u64> = (0..n as u64).map(|i| i % 6 + 1).collect();
    check_workload!("list-rank", |rec| cgm_list_rank(rec, V, &succ, &weights).unwrap());
}

#[test]
fn connected_components_are_mode_invariant() {
    let mut rng = StdRng::seed_from_u64(205);
    let n = 70;
    let edges: Vec<(u64, u64)> = (0..110)
        .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
        .filter(|&(a, b)| a != b)
        .collect();
    check_workload!("cc", |rec| cgm_connected_components(rec, V, n, &edges).unwrap().label);
}

/// Under a seeded fault plan with retries and superstep recovery, the
/// threaded compute path must still converge to the fault-free Serial
/// result, with counted parallel I/O (which excludes retry and recovery
/// traffic) and the message ledger bit-identical across modes.
#[test]
fn faulted_recovery_is_mode_invariant() {
    use em_bsp::{run_sequential, BspProgram, Mailbox, Step};
    use em_core::RecoveryPolicy;
    use em_disk::{FaultPlan, RetryPolicy};

    struct ChainFold;
    impl BspProgram for ChainFold {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
            for e in mb.take_incoming() {
                // Non-commutative hash chain: sensitive to inbox order, so
                // any mode- or replay-induced reordering changes the state.
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

    let init: Vec<u64> = (0..V as u64).map(|i| i * 9 + 2).collect();
    let reference = run_sequential(&ChainFold, init.clone()).unwrap().states;
    let plan = || FaultPlan::seeded(0xF16, 4, 300, 30);

    let mut seq_base: Option<(u64, CommLedger)> = None;
    let mut par_base: Option<(u64, CommLedger)> = None;
    for mode in [ComputeMode::Serial, ComputeMode::Threaded(2), ComputeMode::Threaded(8)] {
        let (res, report) = SeqEmSimulator::new(em_machine(1))
            .with_seed(77)
            .with_compute_mode(mode)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64))
            .run(&ChainFold, init.clone())
            .unwrap();
        assert_eq!(res.states, reference, "seq EM under faults, {mode:?}");
        match &seq_base {
            None => seq_base = Some((report.io.parallel_ops, report.comm.clone())),
            Some((ops, ledger)) => {
                assert_eq!(report.io.parallel_ops, *ops, "seq counted ops diverged, {mode:?}");
                assert_eq!(&report.comm, ledger, "seq message ledger diverged, {mode:?}");
            }
        }

        let (res, report) = ParEmSimulator::new(em_machine(3))
            .with_seed(78)
            .with_compute_mode(mode)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64))
            .run(&ChainFold, init.clone())
            .unwrap();
        assert_eq!(res.states, reference, "par EM under faults, {mode:?}");
        match &par_base {
            None => par_base = Some((report.io.parallel_ops, report.comm.clone())),
            Some((ops, ledger)) => {
                assert_eq!(report.io.parallel_ops, *ops, "par counted ops diverged, {mode:?}");
                assert_eq!(&report.comm, ledger, "par message ledger diverged, {mode:?}");
            }
        }
    }
}
