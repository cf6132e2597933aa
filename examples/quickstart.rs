//! Quickstart: write a tiny BSP program and run it four ways — the
//! sequential reference, the threaded BSP machine, the uniprocessor
//! external-memory simulation, and the multiprocessor external-memory
//! simulation — and look at what the EM runs cost.
//!
//! Run with: `cargo run --release --example quickstart`

use em_sim::bsp::{
    run_sequential, BspProgram, BspStarParams, Executor, Mailbox, Step, ThreadedRunner,
};
use em_sim::core::{EmMachine, KillPoint, ParEmSimulator, SeqEmSimulator};
use em_sim::disk::Pipeline;
use em_sim::serial::impl_serial_struct;
use em_sim::service::{JobSpec, ServiceConfig, SimService};

/// A parallel prefix-sum: every virtual processor holds a chunk of
/// numbers; one communication round distributes the chunk sums, then
/// everyone finishes locally. λ = 2 — a miniature CGM algorithm.
struct PrefixSum {
    chunk: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    data: Vec<u64>,
}
impl_serial_struct!(Chunk { data });

impl BspProgram for PrefixSum {
    type State = Chunk;
    type Msg = u64;

    fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut Chunk) -> Step {
        match step {
            0 => {
                let local: u64 = state.data.iter().sum();
                for dst in mb.pid() + 1..mb.nprocs() {
                    mb.send(dst, local);
                }
                Step::Continue
            }
            _ => {
                let mut acc: u64 = mb.take_incoming().iter().map(|e| e.msg).sum();
                for x in &mut state.data {
                    acc += *x;
                    *x = acc;
                }
                Step::Halt
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        16 + 8 * (self.chunk + 2)
    }

    fn max_comm_bytes(&self) -> usize {
        24 * 64 + 64
    }
}

fn main() {
    let v = 16; // virtual processors
    let chunk = 1024; // numbers per processor
    let prog = PrefixSum { chunk };
    let states: Vec<Chunk> = (0..v).map(|i| Chunk { data: vec![i as u64 + 1; chunk] }).collect();

    // 1. Sequential in-memory reference.
    let reference = run_sequential(&prog, states.clone()).unwrap();
    println!(
        "reference: λ = {}, last prefix = {}",
        reference.supersteps(),
        reference.states.last().unwrap().data.last().unwrap()
    );

    // 2. Real threads + barriers.
    let threaded = ThreadedRunner::new(4).run(&prog, states.clone()).unwrap();
    assert_eq!(threaded.states, reference.states);
    println!("threaded:  identical result on 4 worker threads");

    // 3. The paper's simulation: a machine with 64 KiB of memory and 4
    //    disks executes the same program out of core. `with_cache` turns
    //    on the write-back block cache and `with_pipeline` streams each
    //    compound superstep through a 2-deep window of groups in flight
    //    (`Stream(1)` is classic double buffering) — counted I/O and
    //    final states are bit-identical to a plain run; the summary's
    //    cache_hits / cache_absorbed tallies show the traffic the cache
    //    soaked up.
    let machine = EmMachine::uniprocessor(64 * 1024, 4, 1024, 1);
    let sim = SeqEmSimulator::new(machine).with_cache(32 * 1024).with_pipeline(Pipeline::Stream(2));
    let (res, report) = sim.run(&prog, states.clone()).unwrap();
    assert_eq!(res.states, reference.states);
    println!("\nuniprocessor EM simulation (Algorithms 1+2, 32 KiB cache):");
    println!("  {}", report.summary());
    for check in &report.checks {
        println!(
            "  [{}] {} ({})",
            if check.satisfied { "ok" } else { "!!" },
            check.condition,
            check.detail
        );
    }

    // 4. Three real processors, each with its own 4 disks (Algorithm 3).
    let machine = EmMachine {
        p: 3,
        m_bytes: 64 * 1024,
        d: 4,
        b_bytes: 1024,
        g_io: 1,
        router: BspStarParams { p: 3, g: 1.0, b: 1024, l: 1.0 },
    };
    let (res, report) = ParEmSimulator::new(machine).run(&prog, states.clone()).unwrap();
    assert_eq!(res.states, reference.states);
    println!("\n3-processor EM simulation (Algorithm 3):");
    println!("  {}", report.summary());
    println!("  real inter-processor traffic: {} KiB", report.real_comm_bytes / 1024);

    // 5. The same program as a *tenant* of the multi-tenant service
    //    (`em-service`): admission reserves v·μ+γ of a shared budget and
    //    a disjoint track region of a shared disk array; metering stays
    //    per-tenant and bit-identical to the solo run above (see
    //    DESIGN.md §3.2.8 and `tests/service.rs`).
    let machine = EmMachine::uniprocessor(64 * 1024, 4, 1024, 1);
    let service = SimService::new(ServiceConfig::new(4, 1024, 1 << 14, 1 << 22));
    let lease = service
        .admit(
            JobSpec::new("quickstart", 0, machine, v)
                .with_budgets(prog.max_state_bytes(), prog.max_comm_bytes())
                .with_tracks(1 << 12),
        )
        .unwrap();
    let res = lease.execute(&prog, states).unwrap();
    assert_eq!(res.states, reference.states);
    let record = lease.complete();
    println!("\nas a service tenant:");
    println!(
        "  metered {} parallel I/O ops, state fingerprint {:08x}",
        record.total_io_ops(),
        record.state_fingerprint
    );

    // 6. Kill and resume: with the file backend and checkpointing on,
    //    every barrier commits an atomic manifest. Here we simulate a
    //    crash right at the first barrier (`with_kill_point` is the
    //    test hook the chaos harness uses); `resume` picks up from the
    //    newest committed manifest and the result — states, ledger,
    //    *and counted I/O* — is bit-identical to an uninterrupted run
    //    (DESIGN.md §3.2.9).
    let dir = std::env::temp_dir().join(format!("em-sim-quickstart-{}", std::process::id()));
    let machine = EmMachine::uniprocessor(64 * 1024, 4, 1024, 1);
    let sim = SeqEmSimulator::new(machine).with_file_backend(&dir).with_checkpointing(true);
    let crash = sim.clone().with_kill_point(KillPoint::AtBarrier(0));
    let states: Vec<Chunk> = (0..v).map(|i| Chunk { data: vec![i as u64 + 1; chunk] }).collect();
    let err = crash.run(&prog, states).unwrap_err();
    let (res, report) = sim.resume(&prog).unwrap();
    assert_eq!(res.states, reference.states);
    println!("\nkilled and resumed:");
    println!("  crash: {err}");
    println!("  resumed to the identical result; {}", report.summary());
    std::fs::remove_dir_all(&dir).ok();
}
