//! Teardown hygiene: no OS thread this workspace starts outlives a call.
//!
//! Every thread the workspace names carries an `em-` prefix — the
//! processor threads of a `p ≥ 2` `ParEmSimulator` run are `em-par-p{i}`,
//! scoped to the run — so this suite can list every `em-*` thread via
//! `/proc/self/task/*/comm` and pin one contract: across repeated
//! `build_disks()`/`run_on()` cycles on file-backed drives, a kill and its
//! `resume()`, `SimService` job churn, file-backed `p = 2` runs and `p ≥ 2`
//! runs whose program panics, **no `em-*` thread is alive between calls**.
//! The file backend moves its transfers on the calling thread, so an array
//! holds files, not threads.
//! The `p = 2` cycle also checks the suite still sees a named family: each
//! processor's supersteps run on its own `em-par-p*` thread, gone once the
//! run returns.
//!
//! Everything lives in ONE `#[test]` so concurrent tests in this binary
//! cannot distort the counts. On platforms without `/proc` the test
//! skips with a note.

use em_core::{EmMachine, KillPoint, ParEmSimulator, SeqEmSimulator};
use em_service::{JobSpec, ServiceConfig, SimService};
use std::collections::BTreeSet;
use std::sync::Mutex;

use em_bsp::{BspProgram, BspStarParams, Executor, Mailbox, Step};

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

/// [`AddOne`] that also records, as `/proc` lists it, the name of every
/// thread a superstep ran on.
struct WhereRun(Mutex<BTreeSet<String>>);
impl BspProgram for WhereRun {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, s: &mut u64) -> Step {
        if let Ok(name) = std::fs::read_to_string("/proc/thread-self/comm") {
            self.0.lock().unwrap().insert(name.trim().to_string());
        }
        AddOne.superstep(step, mb, s)
    }
    /// 64 bytes with the length prefix: four contexts to a 256-byte `M`.
    fn max_state_bytes(&self) -> usize {
        60
    }
}

/// [`AddOne`] whose virtual processor 1 panics instead.
struct Panics;
impl BspProgram for Panics {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, s: &mut u64) -> Step {
        if mb.pid() == 1 {
            panic!("virtual processor 1 panics");
        }
        AddOne.superstep(step, mb, s)
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
    let none = Vec::<String>::new();
    assert_eq!(count(), none, "leftover threads before the test starts");

    let machine = EmMachine::uniprocessor(1 << 16, 2, 64, 1);
    let dir = std::env::temp_dir().join(format!("em-thread-leak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // --- 1. build_disks()/run_on() cycles on one file-backed simulator. ---
    {
        let sim = SeqEmSimulator::new(machine).with_seed(5).with_file_backend(dir.join("cycles"));
        let mut disks = sim.build_disks().unwrap();
        assert_eq!(count(), none, "a live file-backed array holds no thread");
        for round in 0..5 {
            sim.run_on(&mut disks, &AddOne, (0..8u64).collect()).unwrap();
            assert_eq!(count(), none, "thread alive after run_on cycle {round}");
        }
        drop(disks);
        assert_eq!(count(), none, "thread alive after the array dropped");
    }

    // --- 2. Crash + resume(). ---
    {
        let sim = SeqEmSimulator::new(machine)
            .with_seed(6)
            .with_file_backend(dir.join("resume"))
            .with_checkpointing(true);
        sim.clone()
            .with_kill_point(KillPoint::AtBarrier(0))
            .run(&AddOne, (0..8u64).collect())
            .unwrap_err();
        assert_eq!(count(), none, "thread leaked past the killed run");
        sim.resume(&AddOne).unwrap();
        assert_eq!(count(), none, "thread leaked past resume()");
    }

    // --- 3. SimService job churn. ---
    {
        let service = SimService::new(ServiceConfig::new(2, 64, 4096, 1 << 20));
        assert_eq!(count(), none, "a service holds no thread");
        for round in 0..6u64 {
            let spec = JobSpec::new("churn", round, machine, 8).with_budgets(8, 64).with_tracks(64);
            let lease = service.admit(spec).unwrap();
            assert_eq!(count(), none, "thread alive after admitting job {round}");
            lease.execute(&AddOne, (0..8u64).collect()).unwrap();
            lease.complete();
            assert_eq!(count(), none, "thread alive after job {round}");
        }
        drop(service);
    }
    assert_eq!(count(), none, "thread leaked past service drop");

    // --- 4. File-backed p = 2 runs: the processor threads are scoped. ---
    {
        let router = BspStarParams { p: 2, ..machine.router };
        // k = M / 64 = 4: each processor simulates half the eight.
        let machine = EmMachine { p: 2, m_bytes: 256, router, ..machine };
        let sim = ParEmSimulator::new(machine).with_seed(7).with_file_backend(dir.join("par"));
        for round in 0..3 {
            let disks = sim.build_disks().unwrap();
            assert_eq!(count(), none, "live file-backed arrays hold no thread");
            let program = WhereRun(Mutex::new(BTreeSet::new()));
            sim.run_on(disks, &program, (0..8u64).collect()).unwrap();
            let ran_on: Vec<String> = program.0.into_inner().unwrap().into_iter().collect();
            assert_eq!(ran_on, ["em-par-p0", "em-par-p1"], "round {round}: one thread each");
            assert_eq!(count(), none, "processor thread alive after p = 2 run {round}");
        }
    }

    // --- 5. A panicking superstep: the run ends once its threads have. ---
    for p in [2, 3] {
        let router = BspStarParams { p, ..machine.router };
        let machine = EmMachine { p, m_bytes: 256, router, ..machine };
        let run = std::panic::catch_unwind(|| {
            ParEmSimulator::new(machine).run(&Panics, (0..8u64).collect()).map(|_| ())
        });
        assert!(run.is_err(), "p = {p}: the program's panic reaches the caller");
        assert_eq!(count(), none, "processor thread alive after a panicking p = {p} run");
    }

    std::fs::remove_dir_all(&dir).ok();
}
