//! Teardown hygiene: the persistent runtimes must not leak OS threads.
//!
//! The worker threads carry stable names — `em-disk-d{idx}` per drive,
//! `em-compute-w{idx}` per compute-pool worker — so this suite can count
//! them by prefix via `/proc/self/task/*/comm` and pin two contracts:
//!
//! 1. **Persistence**: across repeated `build_disks()`/`run_on()`/
//!    `resume()` cycles on one simulator, and across `SimService` job
//!    churn, the compute-pool thread count stays constant — the pool is
//!    reused, never respawned per run or per job.
//! 2. **Teardown**: dropping the owners (arrays, simulators, service)
//!    joins every named thread; nothing is left behind.
//!
//! Everything lives in ONE `#[test]` so concurrent tests in this binary
//! cannot distort the counts. On platforms without `/proc` the test
//! skips with a note.

use em_core::{ComputeMode, EmMachine, KillPoint, SeqEmSimulator};
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

/// Current threads of this process whose name starts with any of the
/// given prefixes, sorted — read once `/proc` has caught up with the thread
/// API. It lags by a scheduling quantum both ways: a spawned worker carries
/// its spawner's name (this test thread's) until it has run far enough to
/// set its own, and a joined one stays listed until the kernel reaps the
/// task. So read until no other thread still has this thread's name and
/// two snapshots a couple of milliseconds apart agree; the sleep is also
/// what lets a fresh worker run on a busy host.
fn named_threads(prefixes: &[&str]) -> Option<Vec<String>> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").ok()?.trim().to_string();
    let mut last: Option<Vec<String>> = None;
    for _ in 0..500 {
        let all = thread_names()?;
        let unnamed = all.iter().filter(|name| **name == me).count() - 1;
        let mut now: Vec<String> =
            (all.into_iter()).filter(|name| prefixes.iter().any(|p| name.starts_with(p))).collect();
        now.sort();
        if unnamed == 0 && last.as_ref() == Some(&now) {
            break;
        }
        last = Some(now);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    last
}

const PREFIXES: [&str; 2] = ["em-disk-d", "em-compute-w"];

#[test]
fn runtimes_reuse_threads_and_tear_down_cleanly() {
    if named_threads(&PREFIXES).is_none() {
        eprintln!("/proc/self/task unavailable; skipping thread-leak test");
        return;
    }
    let count = || named_threads(&PREFIXES).unwrap();
    assert_eq!(count(), Vec::<String>::new(), "leftover workers before the test starts");

    let machine = EmMachine::uniprocessor(1 << 16, 2, 64, 1);
    let dir = std::env::temp_dir().join(format!("em-thread-leak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // --- 1. build_disks()/run_on() cycles on one simulator. ---
    {
        let sim = SeqEmSimulator::new(machine)
            .with_seed(5)
            .with_compute_mode(ComputeMode::Threaded(2))
            .with_file_backend(dir.join("cycles"));
        let mut baseline: Option<Vec<String>> = None;
        for round in 0..5 {
            let mut disks = sim.build_disks().unwrap();
            sim.run_on(&mut disks, &AddOne, (0..8u64).collect()).unwrap();
            // The disk workers live as long as the array; the compute
            // pool lives on the simulator. Every round must see the
            // exact same set of named threads — reuse, not respawn.
            let now = count();
            match &baseline {
                None => {
                    assert!(
                        now.iter().any(|t| t.starts_with("em-compute-w")),
                        "Threaded(2) run must have created the persistent pool: {now:?}"
                    );
                    baseline = Some(now);
                }
                Some(base) => {
                    assert_eq!(&now, base, "thread set changed at run_on cycle {round}");
                }
            }
            drop(disks);
        }
        // Dropping the arrays reclaimed every drive worker; the compute
        // pool (and, if engaged, nothing else) remains on the simulator.
        let after = count();
        assert!(
            after.iter().all(|t| t.starts_with("em-compute-w")),
            "drive workers must die with their array: {after:?}"
        );
        drop(sim);
    }
    assert_eq!(count(), Vec::<String>::new(), "workers leaked past simulator drop");

    // --- 2. Crash + resume() reuses the simulator's pool. ---
    {
        let sim = SeqEmSimulator::new(machine)
            .with_seed(6)
            .with_compute_mode(ComputeMode::Threaded(2))
            .with_file_backend(dir.join("resume"))
            .with_checkpointing(true);
        sim.clone()
            .with_kill_point(KillPoint::AtBarrier(0))
            .run(&AddOne, (0..8u64).collect())
            .unwrap_err();
        let pool_threads: Vec<String> =
            count().into_iter().filter(|t| t.starts_with("em-compute-w")).collect();
        sim.resume(&AddOne).unwrap();
        let pool_after: Vec<String> =
            count().into_iter().filter(|t| t.starts_with("em-compute-w")).collect();
        assert_eq!(pool_after, pool_threads, "resume() must reuse the run's compute pool");
        drop(sim);
    }
    assert_eq!(count(), Vec::<String>::new(), "workers leaked past resume teardown");

    // --- 3. SimService job churn shares one pool. ---
    {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        let mut baseline: Option<Vec<String>> = None;
        for round in 0..6u64 {
            let tenant_sim = SeqEmSimulator::new(machine)
                .with_seed(round)
                .with_compute_mode(ComputeMode::Threaded(2));
            let spec = JobSpec::new("churn", round, machine, 8).with_budgets(8, 64).with_tracks(64);
            let lease = service.admit_with(spec, tenant_sim).unwrap();
            lease.execute(&AddOne, (0..8u64).collect()).unwrap();
            lease.complete();
            let now = count();
            match &baseline {
                None => baseline = Some(now),
                Some(base) => {
                    assert_eq!(&now, base, "service thread set changed at job {round}");
                }
            }
        }
        drop(service);
    }
    assert_eq!(count(), Vec::<String>::new(), "workers leaked past service drop");

    std::fs::remove_dir_all(&dir).ok();
}
