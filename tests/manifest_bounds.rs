//! A barrier manifest is bytes on disk, and resume sizes nothing by them
//! before checking them against what the drive files hold.
//!
//! The manifest's `v` decides how many context tracks a worker's allocator
//! marks and how many batches its layout walks. A CRC-valid manifest whose
//! `v` and `num_groups` were both multiplied by the same factor passes the
//! shape guard; before the drive files bounded `v`, resume marked one bit
//! per implied context track and only then refused the manifest: at a
//! factor of 2^24 it allocated about 64 MiB to say no, and at 2^40 it
//! would have needed terabytes. Now the refusal comes first and costs
//! under 1 MiB.
//!
//! The allocator counts bytes per thread: at `p = 1` a resume runs on the
//! calling thread, so the count is the resume's alone, and the other test
//! here runs beside it without counting into it.

use em_bsp::{BspProgram, Mailbox, Step};
use em_core::{EmError, EmMachine, KillPoint, SeqEmSimulator};
use em_disk::CheckpointStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::thread_bytes;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Every superstep folds the incoming messages into the state and sends
/// two state-derived messages, for five supersteps.
struct Diffuse;
impl BspProgram for Diffuse {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        let v = mb.nprocs();
        for e in mb.take_incoming() {
            *state = state.wrapping_add(e.msg);
        }
        if step + 1 < 5 {
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

fn sim(dir: &Path) -> SeqEmSimulator {
    SeqEmSimulator::new(EmMachine::uniprocessor(256, 2, 64, 1))
        .with_seed(11)
        .with_file_backend(dir)
        .with_checkpointing(true)
}

/// A run of `sim` killed at barrier 2: its directory, and the newest
/// committed manifest as `(step, payload)`.
fn killed(tag: &str, sim: impl Fn(&Path) -> SeqEmSimulator) -> (PathBuf, u64, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("em-manifest-{tag}-{}", std::process::id()));
    let err = sim(&dir).with_kill_point(KillPoint::AtBarrier(2)).run(&Diffuse, (0..16).collect());
    assert!(matches!(err, Err(EmError::Killed { .. })), "{:?}", err.map(|(_, r)| r.io));
    let (step, payload) =
        CheckpointStore::attach(&dir).unwrap().latest_manifest().unwrap().unwrap();
    (dir, step, payload)
}

/// Multiply the `u64` at `at` by `factor`.
fn scale(payload: &mut [u8], at: usize, factor: u64) {
    let word = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    payload[at..at + 8].copy_from_slice(&(word * factor).to_le_bytes());
}

#[test]
fn a_hostile_v_is_refused_before_anything_is_sized_by_it() {
    let (dir, step, payload) = killed("hostile-v", sim);
    let store = CheckpointStore::attach(&dir).unwrap();
    for factor in [1 << 24, 1 << 40] {
        // `v` is the payload's first word and `num_groups` its third.
        let mut bad = payload.clone();
        scale(&mut bad, 0, factor);
        scale(&mut bad, 16, factor);
        store.commit_manifest(step, &bad).unwrap();
        let before = thread_bytes();
        let resumed = sim(&dir).resume(&Diffuse);
        let bytes = thread_bytes() - before;
        match resumed {
            Err(EmError::InvalidConfig(_)) => {}
            other => panic!("factor {factor}: {:?}", other.map(|(_, r)| r.io)),
        }
        assert!(bytes < 1 << 20, "factor {factor}: the refusal allocated {bytes} bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file of a flat directory, by name.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let files = std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path());
    files.map(|path| (path.clone(), std::fs::read(&path).unwrap())).collect()
}

/// A committed payload with bytes flipped, or cut short, under a fresh
/// CRC: resume returns a typed error or a value, and never panics.
#[test]
fn damaged_manifests_resume_or_fail_typed() {
    let faulty = |dir: &Path| {
        sim(dir)
            .with_checksums(true)
            .with_retry(em_disk::RetryPolicy::new(8))
            .with_fault_plan(em_disk::FaultPlan::seeded(5, 2, 400, 10))
    };
    let (dir, step, payload) = killed("damaged", faulty);
    let files = snapshot(&dir);
    let (mut refused, mut resumed) = (0, 0);
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x3A41_F357 ^ case);
        let mut bad = payload.clone();
        if rng.gen_range(0..4u32) == 0 {
            bad.truncate(rng.gen_range(0..payload.len()));
        } else {
            for _ in 0..rng.gen_range(1..5u32) {
                let at = rng.gen_range(0..bad.len());
                bad[at] ^= rng.gen_range(1..256u32) as u8;
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        for (path, bytes) in &files {
            std::fs::write(path, bytes).unwrap();
        }
        CheckpointStore::attach(&dir).unwrap().commit_manifest(step, &bad).unwrap();
        match catch_unwind(AssertUnwindSafe(|| faulty(&dir).resume(&Diffuse))) {
            Ok(Ok(_)) => resumed += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("case {case}: resume panicked on a damaged manifest"),
        }
    }
    assert!(refused > 0 && resumed > 0, "{refused} refused, {resumed} resumed");
    std::fs::remove_dir_all(&dir).ok();
}
