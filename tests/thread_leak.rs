//! Teardown hygiene: the drive-worker runtime must not leak OS threads.
//!
//! The only threads that outlive a call are the file backend's drive
//! workers, which carry stable names — `em-disk-d{idx}` per drive — so this
//! suite can list every `em-*` thread via `/proc/self/task/*/comm` and pin
//! two contracts:
//!
//! 1. **Persistence**: across repeated `build_disks()`/`run_on()` cycles,
//!    a kill and its `resume()`, and `SimService` job churn, the only named
//!    threads alive between calls are the live arrays' `em-disk-d*`
//!    workers, the same set every round — reused, never respawned per run.
//! 2. **Teardown**: dropping the owners (arrays, simulators, service)
//!    joins every named thread; nothing is left behind.
//!
//! Everything lives in ONE `#[test]` so concurrent tests in this binary
//! cannot distort the counts. On platforms without `/proc` the test
//! skips with a note.

use em_core::{EmMachine, KillPoint, SeqEmSimulator};
use em_service::{JobSpec, ServiceConfig, SimService};

use em_bsp::{BspProgram, Executor, Mailbox, Step};

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

/// The names of this process's current threads. `None` when `/proc` is
/// unavailable.
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .collect(),
    )
}

/// Current threads of this process that this workspace named (`em-*`),
/// sorted — read once `/proc` has caught up with the thread
/// API. It lags by a scheduling quantum both ways: a spawned worker carries
/// its spawner's name (this test thread's) until it has run far enough to
/// set its own, and a joined one stays listed until the kernel reaps the
/// task. So read until no other thread still has this thread's name and
/// two snapshots a couple of milliseconds apart agree; the sleep is also
/// what lets a fresh worker run on a busy host.
fn named_threads() -> Option<Vec<String>> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").ok()?.trim().to_string();
    let mut last: Option<Vec<String>> = None;
    for _ in 0..500 {
        let all = thread_names()?;
        let unnamed = all.iter().filter(|name| **name == me).count() - 1;
        let mut now: Vec<String> = all.into_iter().filter(|name| name.starts_with("em-")).collect();
        now.sort();
        if unnamed == 0 && last.as_ref() == Some(&now) {
            break;
        }
        last = Some(now);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    last
}

#[test]
fn runtimes_reuse_threads_and_tear_down_cleanly() {
    if named_threads().is_none() {
        eprintln!("/proc/self/task unavailable; skipping thread-leak test");
        return;
    }
    let count = || named_threads().unwrap();
    let only_drive_workers = |names: &[String]| names.iter().all(|t| t.starts_with("em-disk-d"));
    assert_eq!(count(), Vec::<String>::new(), "leftover workers before the test starts");

    let machine = EmMachine::uniprocessor(1 << 16, 2, 64, 1);
    let dir = std::env::temp_dir().join(format!("em-thread-leak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // --- 1. build_disks()/run_on() cycles on one simulator. ---
    {
        let sim = SeqEmSimulator::new(machine).with_seed(5).with_file_backend(dir.join("cycles"));
        let mut disks = sim.build_disks().unwrap();
        let base = count();
        assert_eq!(base.len(), machine.d, "one worker per drive of the live array: {base:?}");
        assert!(only_drive_workers(&base), "{base:?}");
        for round in 0..5 {
            sim.run_on(&mut disks, &AddOne, (0..8u64).collect()).unwrap();
            // The drive workers live as long as the array: every round must
            // see the exact same set of named threads — reuse, not respawn.
            assert_eq!(count(), base, "thread set changed at run_on cycle {round}");
        }
        drop(disks);
        assert_eq!(count(), Vec::<String>::new(), "drive workers must die with their array");
    }

    // --- 2. Crash + resume(): each call owns, and joins, its array. ---
    {
        let sim = SeqEmSimulator::new(machine)
            .with_seed(6)
            .with_file_backend(dir.join("resume"))
            .with_checkpointing(true);
        sim.clone()
            .with_kill_point(KillPoint::AtBarrier(0))
            .run(&AddOne, (0..8u64).collect())
            .unwrap_err();
        assert_eq!(count(), Vec::<String>::new(), "workers leaked past the killed run");
        sim.resume(&AddOne).unwrap();
        assert_eq!(count(), Vec::<String>::new(), "workers leaked past resume()");
    }

    // --- 3. SimService job churn. ---
    {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let base = count();
        assert!(only_drive_workers(&base), "{base:?}");
        for round in 0..6u64 {
            let spec = JobSpec::new("churn", round, machine, 8).with_budgets(8, 64).with_tracks(64);
            let lease = service.admit(spec).unwrap();
            let admitted = count();
            assert!(only_drive_workers(&admitted), "job {round}: {admitted:?}");
            lease.execute(&AddOne, (0..8u64).collect()).unwrap();
            lease.complete();
            assert_eq!(count(), base, "service thread set changed at job {round}");
        }
        drop(service);
    }
    assert_eq!(count(), Vec::<String>::new(), "workers leaked past service drop");

    std::fs::remove_dir_all(&dir).ok();
}
