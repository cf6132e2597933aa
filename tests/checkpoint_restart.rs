//! Crash/restart chaos sweep: kill a checkpointed run at *every* barrier
//! — after the manifest committed, mid-manifest-write (torn), and
//! mid-superstep (journaled but uncommitted) — then resume and demand the
//! result is bit-identical to the uninterrupted run: final states, the
//! communication ledger, counted parallel I/O, per-drive op counts, and
//! the drive bytes themselves.
//!
//! The workload is state-dependent across supersteps, so resuming from
//! the wrong barrier, replaying with different message placement, or
//! leaking a half-done superstep's writes all change the final states.

use em_bsp::{BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmError, EmMachine, KillPoint, ParEmSimulator, SeqEmSimulator};
use std::collections::BTreeMap;
use std::path::Path;

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

#[test]
fn seq_kill_sweep_every_barrier_is_bit_identical() {
    let tag = "seq";
    let v = 16;
    let machine = EmMachine::uniprocessor(256, 2, 64, 1);
    let base = tmp(tag);
    let make = |dir: std::path::PathBuf| {
        SeqEmSimulator::new(machine).with_seed(11).with_file_backend(dir).with_checkpointing(true)
    };
    let dir_a = base.join("uninterrupted");
    let (a, ra) = make(dir_a.clone()).run(&Diffuse, init_states(v)).unwrap();
    let bytes_a = durable_fingerprint(&dir_a);
    for kill in all_kill_points() {
        let dir_b = base.join(format!("{kill:?}"));
        let sim = make(dir_b.clone());
        let err = sim.clone().with_kill_point(kill).run(&Diffuse, init_states(v)).unwrap_err();
        assert!(matches!(err, EmError::Killed { .. }), "{tag}/{kill:?}: {err}");
        let (b, rb) = sim.resume(&Diffuse).unwrap();
        assert_eq!(a.states, b.states, "{tag}/{kill:?}: states");
        assert_eq!(a.ledger, b.ledger, "{tag}/{kill:?}: ledger");
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops, "{tag}/{kill:?}: ops");
        assert_eq!(ra.io.per_disk_reads, rb.io.per_disk_reads, "{tag}/{kill:?}: reads");
        assert_eq!(ra.io.per_disk_writes, rb.io.per_disk_writes, "{tag}/{kill:?}: writes");
        assert_eq!(ra.phases, rb.phases, "{tag}/{kill:?}: phases");
        assert_eq!(bytes_a, durable_fingerprint(&dir_b), "{tag}/{kill:?}: drive bytes");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn par_kill_sweep_every_barrier_is_bit_identical() {
    let tag = "par";
    let v = 24;
    let p = 3;
    let machine = EmMachine {
        p,
        m_bytes: 256,
        d: 2,
        b_bytes: 64,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
    };
    let base = tmp(tag);
    let make = |dir: std::path::PathBuf| {
        ParEmSimulator::new(machine).with_seed(11).with_file_backend(dir).with_checkpointing(true)
    };
    let dir_a = base.join("uninterrupted");
    let (a, ra) = make(dir_a.clone()).run(&Diffuse, init_states(v)).unwrap();
    let bytes_a = durable_fingerprint(&dir_a);
    for kill in all_kill_points() {
        let dir_b = base.join(format!("{kill:?}"));
        let sim = make(dir_b.clone());
        let err = sim.clone().with_kill_point(kill).run(&Diffuse, init_states(v)).unwrap_err();
        assert!(matches!(err, EmError::Killed { .. }), "{tag}/{kill:?}: {err}");
        let (b, rb) = sim.resume(&Diffuse).unwrap();
        assert_eq!(a.states, b.states, "{tag}/{kill:?}: states");
        assert_eq!(a.ledger, b.ledger, "{tag}/{kill:?}: ledger");
        assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops, "{tag}/{kill:?}: ops");
        assert_eq!(ra.io.per_disk_reads, rb.io.per_disk_reads, "{tag}/{kill:?}: reads");
        assert_eq!(ra.io.per_disk_writes, rb.io.per_disk_writes, "{tag}/{kill:?}: writes");
        assert_eq!(ra.phases, rb.phases, "{tag}/{kill:?}: phases");
        assert_eq!(ra.real_comm_bytes, rb.real_comm_bytes, "{tag}/{kill:?}: real comm");
        assert_eq!(bytes_a, durable_fingerprint(&dir_b), "{tag}/{kill:?}: drive bytes");
    }
    std::fs::remove_dir_all(&base).ok();
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
