//! Failure injection across the stack: misdeclared budgets, model
//! violations, capacity limits and malformed inputs must surface as typed
//! errors, never as silent corruption or hangs.

use em_bsp::{BspError, BspProgram, BspStarParams, Mailbox, Step};
use em_core::{EmError, EmMachine, ParEmSimulator, SeqEmSimulator};
use em_disk::{Block, DiskArray, DiskConfig, DiskError};

struct Noisy {
    mu_lie: usize,
    gamma_lie: usize,
    grow_to: usize,
    fan: usize,
}

impl BspProgram for Noisy {
    type State = Vec<u8>;
    type Msg = Vec<u8>;
    fn superstep(&self, step: usize, mb: &mut Mailbox<Vec<u8>>, state: &mut Vec<u8>) -> Step {
        mb.take_incoming();
        if step == 0 {
            state.resize(self.grow_to, 7);
            for f in 0..self.fan {
                mb.send(f % mb.nprocs(), vec![1; 64]);
            }
            Step::Continue
        } else {
            Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        self.mu_lie
    }
    fn max_comm_bytes(&self) -> usize {
        self.gamma_lie
    }
}

fn machine(p: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: 1 << 14,
        d: 2,
        b_bytes: 256,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 256, l: 1.0 },
    }
}

#[test]
fn context_overflow_is_typed_on_both_simulators() {
    let prog = Noisy { mu_lie: 64, gamma_lie: 4096, grow_to: 500, fan: 0 };
    let err = SeqEmSimulator::new(machine(1)).run(&prog, vec![vec![]; 4]).unwrap_err();
    assert!(matches!(err, EmError::ContextOverflow { .. }), "{err}");
    let err = ParEmSimulator::new(machine(2)).run(&prog, vec![vec![]; 4]).unwrap_err();
    assert!(matches!(err, EmError::ContextOverflow { .. }), "{err}");
}

#[test]
fn comm_budget_violation_is_typed_on_both_simulators() {
    let prog = Noisy { mu_lie: 600, gamma_lie: 100, grow_to: 10, fan: 12 };
    let err = SeqEmSimulator::new(machine(1)).run(&prog, vec![vec![]; 4]).unwrap_err();
    assert!(matches!(err, EmError::CommBudgetExceeded { .. }), "{err}");
    let err = ParEmSimulator::new(machine(2)).run(&prog, vec![vec![]; 4]).unwrap_err();
    assert!(matches!(err, EmError::CommBudgetExceeded { .. }), "{err}");
}

#[test]
fn machine_model_violations_are_rejected() {
    // M < D·B violates the model's "one block from each disk" minimum.
    let bad = EmMachine::uniprocessor(256, 4, 256, 1);
    let prog = Noisy { mu_lie: 64, gamma_lie: 256, grow_to: 10, fan: 1 };
    let err = SeqEmSimulator::new(bad).run(&prog, vec![vec![]; 2]).unwrap_err();
    assert!(matches!(err, EmError::InvalidConfig(_)), "{err}");
    // B too small for block headers.
    let bad = EmMachine::uniprocessor(1 << 14, 2, 16, 1);
    let err = SeqEmSimulator::new(bad).run(&prog, vec![vec![]; 2]).unwrap_err();
    assert!(matches!(err, EmError::InvalidConfig(_)), "{err}");
}

#[test]
fn superstep_limit_is_typed_on_both_simulators() {
    struct Forever;
    impl BspProgram for Forever {
        type State = u8;
        type Msg = u8;
        fn superstep(&self, _: usize, _: &mut Mailbox<u8>, _: &mut u8) -> Step {
            Step::Continue
        }
        fn max_state_bytes(&self) -> usize {
            1
        }
    }
    let err = SeqEmSimulator::new(machine(1))
        .with_max_supersteps(7)
        .run(&Forever, vec![0u8; 2])
        .unwrap_err();
    assert!(matches!(err, EmError::Bsp(BspError::SuperstepLimit { limit: 7 })), "{err}");
    let err = ParEmSimulator::new(machine(2))
        .with_max_supersteps(7)
        .run(&Forever, vec![0u8; 4])
        .unwrap_err();
    assert!(matches!(err, EmError::Bsp(BspError::SuperstepLimit { limit: 7 })), "{err}");
}

#[test]
fn bad_destination_is_typed_on_both_simulators() {
    struct Bad;
    impl BspProgram for Bad {
        type State = u8;
        type Msg = u8;
        fn superstep(&self, step: usize, mb: &mut Mailbox<u8>, _: &mut u8) -> Step {
            if step == 0 {
                mb.send(1_000_000, 1);
                Step::Continue
            } else {
                Step::Halt
            }
        }
        fn max_state_bytes(&self) -> usize {
            1
        }
    }
    let err = SeqEmSimulator::new(machine(1)).run(&Bad, vec![0u8; 2]).unwrap_err();
    assert!(matches!(err, EmError::Bsp(BspError::InvalidDestination { .. })), "{err}");
    let err = ParEmSimulator::new(machine(2)).run(&Bad, vec![0u8; 4]).unwrap_err();
    assert!(matches!(err, EmError::Bsp(BspError::InvalidDestination { .. })), "{err}");
}

#[test]
fn disk_capacity_limit_fires() {
    let mut arr = DiskArray::new_memory(DiskConfig::new(2, 64).unwrap()).with_capacity_limit(4);
    for t in 0..4 {
        arr.write_block(0, t, Block::zeroed(64)).unwrap();
    }
    let err = arr.write_block(0, 4, Block::zeroed(64)).unwrap_err();
    assert!(matches!(err, DiskError::CapacityExceeded { disk: 0, max_tracks: 4 }));
}

#[test]
fn algorithm_drivers_reject_malformed_inputs() {
    use em_algos::AlgoError;
    use em_bsp::SeqExecutor;
    // Non-permutation.
    assert!(matches!(
        em_algos::permute::cgm_permute(&SeqExecutor, 2, vec![1u8, 2], &[0, 0]),
        Err(AlgoError::Input(_))
    ));
    // Wrong matrix shape.
    assert!(em_algos::transpose::cgm_transpose(&SeqExecutor, 2, 3, 3, vec![0u8; 8]).is_err());
    // Tree with wrong edge count.
    assert!(em_algos::graph::euler::cgm_euler_tree(&SeqExecutor, 2, 5, &[(0, 1)], 0).is_err());
    // Out-of-range successor.
    assert!(em_algos::graph::list_ranking::cgm_list_rank(&SeqExecutor, 2, &[7], &[1]).is_err());
}

/// Drives with bad spots, keyed by `(disk, track)` rather than by how many
/// operations a drive has seen — so the fault means the same thing in any
/// submission order, the order-free counterpart of the plan-driven suites.
/// A bad track fails its first write and its first read: the write and the
/// even tracks' read with a transient error, the odd tracks' read by
/// returning a flipped bit for the checksum layer to catch.
struct BadSpots {
    inner: em_disk::MemoryBackend,
    read_before: std::collections::HashSet<(usize, usize)>,
    written_before: std::collections::HashSet<(usize, usize)>,
    /// `[faults injected, stripes in the widest batch seen]`.
    tally: std::sync::Arc<[std::sync::atomic::AtomicU64; 2]>,
}

impl BadSpots {
    fn is_bad(disk: usize, track: usize) -> bool {
        (disk + 3 * track).is_multiple_of(5)
    }

    fn inject(&self, disk: usize) -> DiskError {
        self.tally[0].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        DiskError::WorkerIo { disk, source: std::io::Error::other("bad spot") }
    }

    fn saw_batch(&self, stripes: usize) {
        self.tally[1].fetch_max(stripes as u64, std::sync::atomic::Ordering::Relaxed);
    }

    fn read_one(&mut self, disk: usize, track: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        let first = Self::is_bad(disk, track) && self.read_before.insert((disk, track));
        if first && track.is_multiple_of(2) {
            return Err(self.inject(disk));
        }
        em_disk::DiskBackend::read_stripe(&mut self.inner, &[(disk, track)], &mut [buf])?;
        if first {
            self.tally[0].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            buf[0] ^= 0x10;
        }
        Ok(())
    }

    fn write_one(&mut self, disk: usize, track: usize, data: &[u8]) -> Result<(), DiskError> {
        if Self::is_bad(disk, track) && self.written_before.insert((disk, track)) {
            return Err(self.inject(disk));
        }
        em_disk::DiskBackend::write_stripe(&mut self.inner, &[(disk, track, data)])
    }
}

impl em_disk::DiskBackend for BadSpots {
    fn num_disks(&self) -> usize {
        self.inner.num_disks()
    }
    fn read_batch_each(
        &mut self,
        stripes: &[usize],
        addrs: &[(usize, usize)],
        bufs: &mut [&mut [u8]],
    ) -> em_disk::TrackOutcomes {
        self.saw_batch(stripes.len());
        (addrs.iter().zip(bufs.iter_mut())).map(|(&(d, t), buf)| self.read_one(d, t, buf)).collect()
    }
    fn write_batch_each(
        &mut self,
        stripes: &[usize],
        writes: &[(usize, usize, &[u8])],
    ) -> em_disk::TrackOutcomes {
        self.saw_batch(stripes.len());
        writes.iter().map(|&(d, t, data)| self.write_one(d, t, data)).collect()
    }
    fn tracks_used(&self, disk: usize) -> usize {
        self.inner.tracks_used(disk)
    }
}

/// Faults through the batched order, end to end: a whole simulated run on
/// drives with bad spots under `Retrying(Checksum(·))`. Every injected
/// fault lands inside some multi-stripe batch, costs exactly one re-issued
/// track, and leaves results and counted I/O what clean drives give.
#[test]
fn bad_spots_under_the_batched_order_are_retried_track_by_track() {
    use std::sync::atomic::Ordering;
    let prog = Noisy { mu_lie: 600, gamma_lie: 4096, grow_to: 500, fan: 3 };
    let init: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 5]).collect();
    let sim = SeqEmSimulator::new(machine(1))
        .with_seed(0xBAD5)
        .with_checksums(true)
        .with_retry(em_disk::RetryPolicy::default());
    let (clean, clean_report) = sim.run(&prog, init.clone()).unwrap();
    assert_eq!(clean_report.io.retried_blocks, 0);

    let cfg = sim.disk_config().unwrap();
    let tally = std::sync::Arc::new([0, 0].map(std::sync::atomic::AtomicU64::new));
    let raw = BadSpots {
        inner: em_disk::MemoryBackend::new(cfg.num_disks),
        read_before: Default::default(),
        written_before: Default::default(),
        tally: tally.clone(),
    };
    let mut disks = DiskArray::with_backend(cfg, Box::new(raw));
    let (res, report) = sim.run_on(&mut disks, &prog, init).unwrap();
    assert_eq!(res.states, clean.states);
    assert_eq!(res.ledger, clean.ledger);

    let (injected, widest) = (tally[0].load(Ordering::Relaxed), tally[1].load(Ordering::Relaxed));
    assert!(widest > 8, "group sweeps reached the raw drives as batches ({widest} stripes)");
    assert!(injected > 20, "{injected} faults injected");
    // One re-issue per fault, and only of the track that failed. (The
    // initial load's retries are in `injected` but precede the stats
    // reset, hence `≤`; none may be missing from the array's own count.)
    assert!(report.io.retried_blocks > 0 && report.io.retried_blocks <= injected);
    let mut masked = report.io.clone();
    masked.retried_blocks = 0;
    assert_eq!(masked, clean_report.io, "counted I/O does not see the retries");
    assert_eq!(report.phases, clean_report.phases);
}

/// Every virtual processor sends to its neighbour in superstep 0; with
/// `panics`, virtual processor 3 panics in superstep 1.
struct Ring {
    panics: bool,
}

const PANIC: &str = "virtual processor 3 panics in superstep 1";

impl BspProgram for Ring {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
        for m in mb.take_incoming() {
            *state += m.msg;
        }
        match step {
            0 => {
                mb.send((mb.pid() + 1) % mb.nprocs(), 1);
                Step::Continue
            }
            1 if self.panics && mb.pid() == 3 => std::panic::panic_any(PANIC),
            _ => Step::Halt,
        }
    }
    fn max_state_bytes(&self) -> usize {
        8
    }
    fn max_comm_bytes(&self) -> usize {
        64
    }
}

/// A 4 KiB machine with `p` processors, two drives of 64-byte blocks.
fn small(p: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: 4096,
        d: 2,
        b_bytes: 64,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 64, l: 1.0 },
    }
}

/// `run` on its own thread, caught: a run that has not ended after 30 s
/// fails the test instead of hanging it.
fn ends<T: Send + 'static>(
    what: &str,
    run: impl FnOnce() -> T + Send + std::panic::UnwindSafe + 'static,
) -> std::thread::Result<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(std::panic::catch_unwind(run)).ok());
    rx.recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what}: the run still had not returned after 30 s"))
}

/// A panicking `superstep` ends the run at every `p` as it does at
/// `p = 1`: its own panic reaches the caller once every processor thread
/// has exited, instead of the survivors waiting forever for a peer that is
/// gone.
#[test]
fn a_panicking_superstep_reaches_the_caller_at_every_p() {
    for p in [1, 2, 3] {
        let run = ends(&format!("p = {p}"), move || {
            ParEmSimulator::new(small(p)).run(&Ring { panics: true }, vec![0u64; 64]).map(|_| ())
        });
        let payload = run.expect_err(&format!("p = {p}: the run returned instead of panicking"));
        assert_eq!(payload.downcast_ref::<&str>(), Some(&PANIC), "p = {p}: the program's panic");
    }
}

/// One processor that fails its initial load alone — its barrier-0
/// manifest cannot be committed, a directory stands in the way — ends the
/// run with its typed error: the other stops waiting for it, and neither
/// panics.
#[test]
fn one_processor_failing_its_load_ends_the_run_with_its_error() {
    let dir = std::env::temp_dir().join(format!("em-load-fails-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("proc-1/manifest-0.ckpt/in-the-way")).unwrap();
    let sim =
        ParEmSimulator::new(small(2)).with_file_backend(&dir).with_checkpointing(true).with_seed(3);
    let run = ends("p = 2", move || sim.run(&Ring { panics: false }, vec![0u64; 64]).map(|_| ()));
    std::fs::remove_dir_all(&dir).ok();
    let err = run.expect("no processor panics").expect_err("processor 1 cannot commit");
    assert!(matches!(err, EmError::Disk(_)), "{err}");
}
