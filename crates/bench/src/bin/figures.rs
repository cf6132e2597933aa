//! Figure-style parameter sweeps for the paper's claims that have no table
//! of their own, in counted parallel I/O operations.
//!
//! Usage: `figures [experiment] [--json] [--smoke]` with experiment ∈
//! {blocking, disks, procs, balance, fig2, lambda, sibeyn, group-size,
//! det-vs-rand, contraction, obs2, faults, all}.
//! `--smoke` shrinks every sweep to CI-sized inputs (seconds, debug build)
//! while exercising the same code paths and in-process asserts.
//!
//! Besides the text table (or `--json` lines on stdout), every invocation
//! writes `BENCH_figures.json` — under `results/` for a full-size run of
//! every sweep, under `target/bench-results/` otherwise
//! ([`em_bench::report::write_bench_json`]).
//!
//! Every sweep runs on the memory backend: what it reports is the counted
//! cost, which no backend or engine setting can change
//! (`tests/file_backend.rs` and the `tests/*_modes.rs` suites hold that).
//! Wall clock on the file path is `benchmark/embench`'s job.

use em_bench::measure::{machine, measure_par, measure_seq};
use em_bench::report::{print_json, print_table, reject_unknown_flags, write_bench_json, Row};
use em_bench::workloads::*;
use em_core::theory;
use em_core::{
    scatter_messages, simulate_routing, BufferPool, MsgGeometry, OutMsg, Placement, RoutingScratch,
    ScratchState,
};
use em_disk::{DiskArray, DiskConfig, TrackAllocator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};

const SEED: u64 = 0xF16;

/// Set once in `main` when `--smoke` is passed; read by the sweeps.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// Pick `full` normally, `small` under `--smoke`.
fn pick<T>(full: T, small: T) -> T {
    if SMOKE.load(Ordering::Relaxed) {
        small
    } else {
        full
    }
}

/// F-blocking: the ×B penalty of unblocked I/O (intro's "factor 10³").
fn fig_blocking() -> Vec<Row> {
    let n = pick(20_000usize, 2_000);
    let items = random_u64(n, SEED);
    let mut rows = Vec::new();
    let mut blocked_at_4096 = 1u64;
    for b in [64usize, 256, 1024, 4096] {
        let mut disks = DiskArray::new_memory(DiskConfig::new(1, b).unwrap());
        let (_, stats) =
            em_baselines::ExternalSort { m_bytes: 4096 }.run(&mut disks, items.clone()).unwrap();
        if b == 4096 {
            blocked_at_4096 = stats.io.parallel_ops.max(1);
        }
        rows.push(Row {
            id: "F-blocking".into(),
            variant: format!("blocked sort B={b}"),
            n,
            io_ops: stats.io.parallel_ops,
            predicted: theory::av_sort_io_prediction(n as u64, 8, 4096, 1, b as u64),
            lambda: 0,
            utilization: stats.io.utilization(),
            wall_ms: 0.0,
            note: format!("{} records/block", b / 8),
        });
    }
    // Unblocked comparator: pays per record regardless of B.
    let mut disks = DiskArray::new_memory(DiskConfig::new(1, 4096).unwrap());
    let (_, io) = em_baselines::naive::naive_sort(&mut disks, 4096, items).unwrap();
    rows.push(Row {
        id: "F-blocking".into(),
        variant: "UNBLOCKED sort B=4096".into(),
        n,
        io_ops: io.parallel_ops,
        predicted: theory::naive_unblocked_io_prediction(n as u64)
            * ((n as f64 / 512.0).log2().ceil()),
        lambda: 0,
        utilization: io.utilization(),
        note: format!(
            "×{} vs blocked at same B — the blocking factor",
            io.parallel_ops / blocked_at_4096
        ),
        wall_ms: 0.0,
    });
    rows
}

/// F-disks: I/O operations vs D — the ×D parallel-disk speedup.
fn fig_disks() -> Vec<Row> {
    let n = pick(100_000usize, 4_000);
    let items = random_u64(n, SEED + 1);
    let mut rows = Vec::new();
    let mut base = 0u64;
    for &d in pick(&[1usize, 2, 4, 8, 16][..], &[1usize, 2, 4][..]) {
        let m = (1usize << 18).max(d * 2048);
        let (_, cost) = measure_seq(machine(1, m, d, 2048), SEED, |rec| {
            em_algos::sort::cgm_sort(rec, 64, items.clone()).unwrap()
        });
        if d == 1 {
            base = cost.io_ops;
        }
        rows.push(Row {
            id: "F-disks".into(),
            variant: format!("sim sort D={d}"),
            n,
            io_ops: cost.io_ops,
            predicted: base as f64 / d as f64,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!("speedup {:.2}x vs D=1", base as f64 / cost.io_ops as f64),
        });
    }
    rows
}

/// F-procs: per-processor I/O vs p (Theorem 1 scaling).
fn fig_procs() -> Vec<Row> {
    let n = pick(120_000usize, 4_000);
    let items = random_u64(n, SEED + 2);
    let mut rows = Vec::new();
    let mut base = 0u64;
    for &p in pick(&[1usize, 2, 4, 8][..], &[1usize, 2][..]) {
        let (_, cost) = if p == 1 {
            measure_seq(machine(1, 1 << 18, 4, 2048), SEED, |rec| {
                em_algos::sort::cgm_sort(rec, 64, items.clone()).unwrap()
            })
        } else {
            measure_par(machine(p, 1 << 18, 4, 2048), SEED, |rec| {
                em_algos::sort::cgm_sort(rec, 64, items.clone()).unwrap()
            })
        };
        let per_proc = cost.io_ops / p as u64;
        if p == 1 {
            base = per_proc;
        }
        rows.push(Row {
            id: "F-procs".into(),
            variant: format!("sim sort p={p}"),
            n,
            io_ops: per_proc,
            predicted: base as f64 / p as f64,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!(
                "per-proc; speedup {:.2}x; real comm {} KiB",
                base as f64 / per_proc.max(1) as f64,
                cost.real_comm_bytes / 1024
            ),
        });
    }
    rows
}

/// F-balance: Lemma 2 — empirical bucket-balance factor vs the tail
/// bound. Blocks are scattered one write-cycle at a time with a fresh
/// random permutation (the paper's scheme); single-block cycles make the
/// placement exactly balls-into-bins, the regime Lemma 2 bounds.
fn fig_balance() -> Vec<Row> {
    let mut rows = Vec::new();
    let d = 8usize;
    let b = 256usize;
    for &r_per_bucket in pick(&[4usize, 16, 64, 256][..], &[4usize, 16][..]) {
        let trials = pick(20u64, 4);
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut alloc = TrackAllocator::new(d);
            let geom = MsgGeometry::allocate(
                &mut alloc,
                d, // v = D groups of k = 1
                1,
                r_per_bucket * (b - 20),
                d,
                b,
            )
            .unwrap();
            let mut disks = DiskArray::new_memory(DiskConfig::new(d, b).unwrap());
            let mut scratch = ScratchState::new(&geom);
            let mut rng = StdRng::seed_from_u64(SEED + t);
            // One block per scatter call: each write cycle holds a single
            // block and lands on a uniformly random disk.
            for i in 0..r_per_bucket {
                for g in 0..d {
                    let msgs = vec![OutMsg {
                        dst: g as u32,
                        src: 0,
                        seq: i as u32,
                        payload: vec![0u8; b - 20 - 16],
                    }];
                    scatter_messages(
                        &mut disks,
                        &mut alloc,
                        &geom,
                        &mut scratch,
                        0,
                        msgs,
                        &mut rng,
                        Placement::Random,
                    )
                    .unwrap();
                }
            }
            let f = scratch.balance_factor();
            worst = worst.max(f);
            sum += f;
        }
        rows.push(Row {
            id: "F-balance".into(),
            variant: format!("R={r_per_bucket}/bucket trials={trials}"),
            n: r_per_bucket * d,
            io_ops: 0,
            predicted: theory::lemma2_tail_bound(worst, r_per_bucket as f64, d as f64),
            lambda: 0,
            utilization: 0.0,
            wall_ms: 0.0,
            note: format!(
                "worst l={worst:.2} mean l={:.2}; Lemma2 Pr[X≥l·R/D]≤{:.1e}",
                sum / trials as f64,
                theory::lemma2_tail_bound(worst, r_per_bucket as f64, d as f64)
            ),
        });
    }
    rows
}

/// F-lambda: I/O is linear in λ (Corollary 1) — synthetic multi-round
/// diffusion with a tunable round count.
fn fig_lambda() -> Vec<Row> {
    use em_bsp::{BspProgram, Executor, Mailbox, Step};
    use em_serial::impl_serial_struct;

    #[derive(Debug, Clone, PartialEq)]
    struct DiffState {
        data: Vec<u64>,
    }
    impl_serial_struct!(DiffState { data });

    struct Diffuse {
        rounds: usize,
        chunk: usize,
    }
    impl BspProgram for Diffuse {
        type State = DiffState;
        type Msg = Vec<u64>;
        fn superstep(
            &self,
            step: usize,
            mb: &mut Mailbox<Vec<u64>>,
            state: &mut DiffState,
        ) -> Step {
            for e in mb.take_incoming() {
                for (a, b) in state.data.iter_mut().zip(e.msg) {
                    *a = a.wrapping_add(b);
                }
            }
            if step < self.rounds {
                let v = mb.nprocs();
                mb.send((mb.pid() + 1) % v, state.data.clone());
                Step::Continue
            } else {
                Step::Halt
            }
        }
        fn max_state_bytes(&self) -> usize {
            16 + 8 * (self.chunk + 2)
        }
        fn max_comm_bytes(&self) -> usize {
            2 * (16 + 16 + 8 * (self.chunk + 2)) + 64
        }
    }

    let v = 32usize;
    let chunk = pick(2048usize, 256);
    let mut rows = Vec::new();
    let mut per_round = 0.0;
    for &rounds in pick(&[2usize, 4, 8, 16][..], &[2usize, 4][..]) {
        let states: Vec<DiffState> =
            (0..v).map(|i| DiffState { data: vec![i as u64; chunk] }).collect();
        let prog = Diffuse { rounds, chunk };
        let (_, cost) = measure_seq(machine(1, 1 << 16, 4, 2048), SEED, |rec| {
            rec.execute(&prog, states.clone()).unwrap().states
        });
        if rounds == 2 {
            per_round = cost.io_ops as f64 / cost.lambda as f64;
        }
        rows.push(Row {
            id: "F-lambda".into(),
            variant: format!("diffusion rounds={rounds}"),
            n: v * chunk,
            io_ops: cost.io_ops,
            predicted: per_round * cost.lambda as f64,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!("{:.0} ops/superstep", cost.io_ops as f64 / cost.lambda as f64),
        });
    }
    rows
}

/// F-sibeyn: the paper's simulation vs the Sibeyn–Kaufmann-style runner
/// (single disk, v×v matrix, no blocking adaptation) on the same program.
fn fig_sibeyn() -> Vec<Row> {
    use em_bsp::{BspProgram, Executor, Mailbox, Step};

    struct AllToAll {
        v: usize,
    }
    impl BspProgram for AllToAll {
        type State = u64;
        type Msg = Vec<u64>;
        fn superstep(&self, step: usize, mb: &mut Mailbox<Vec<u64>>, state: &mut u64) -> Step {
            match step {
                0 => {
                    for dst in 0..mb.nprocs() {
                        mb.send(dst, vec![mb.pid() as u64; 64]);
                    }
                    Step::Continue
                }
                _ => {
                    *state = mb.take_incoming().iter().flat_map(|e| &e.msg).sum();
                    Step::Halt
                }
            }
        }
        fn max_state_bytes(&self) -> usize {
            8
        }
        fn max_comm_bytes(&self) -> usize {
            self.v * (16 + 16 + 8 * 64) + 64
        }
    }

    let mut rows = Vec::new();
    for &v in pick(&[16usize, 32, 64][..], &[16usize][..]) {
        let prog = AllToAll { v };
        let states = vec![0u64; v];

        let runner = em_baselines::SibeynRunner { block_bytes: 2048, ..Default::default() };
        let (res_a, io_a) = runner.run(&prog, states.clone()).unwrap();

        let (res_b, cost) = measure_seq(machine(1, 1 << 16, 4, 2048), SEED, |rec| {
            rec.execute(&prog, states.clone()).unwrap()
        });
        assert_eq!(res_a.states, res_b.states);

        rows.push(Row {
            id: "F-sibeyn".into(),
            variant: format!("Sibeyn-style v={v} (1 disk)"),
            n: v,
            io_ops: io_a.parallel_ops,
            predicted: theory::sibeyn_io_prediction(v as u64, 8, 2048, 2),
            lambda: 2,
            utilization: io_a.utilization(),
            wall_ms: 0.0,
            note: "v×v matrix, no blocking adaptation".into(),
        });
        rows.push(Row {
            id: "F-sibeyn".into(),
            variant: format!("paper sim v={v} (D=4)"),
            n: v,
            io_ops: cost.io_ops,
            predicted: 0.0,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!("ratio {:.1}x", io_a.parallel_ops as f64 / cost.io_ops.max(1) as f64),
        });
    }
    rows
}

/// F-koptim: group-size ablation — k = ⌊M/μ⌋ shrinks with M; cost stays
/// near-flat until the slackness conditions break.
fn fig_group_size() -> Vec<Row> {
    let n = pick(100_000usize, 4_000);
    let items = random_u64(n, SEED + 3);
    let mut rows = Vec::new();
    for &m_kb in pick(&[64usize, 128, 256, 512, 1024][..], &[64usize, 128][..]) {
        let m = m_kb * 1024;
        let (_, cost) = measure_seq(machine(1, m, 4, 2048), SEED, |rec| {
            em_algos::sort::cgm_sort(rec, 64, items.clone()).unwrap()
        });
        let r = &cost.stages[0];
        rows.push(Row {
            id: "F-koptim".into(),
            variant: format!("sort M={m_kb}KiB"),
            n,
            io_ops: cost.io_ops,
            predicted: 0.0,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!("k={} groups={}", r.k, r.num_groups),
        });
    }
    rows
}

/// F-detrand: random permutation placement (the paper's randomized scheme)
/// vs deterministic round-robin (the CGM deterministic variant).
fn fig_det_vs_rand() -> Vec<Row> {
    let n = pick(100_000usize, 4_000);
    let items = random_u64(n, SEED + 4);
    let mut rows = Vec::new();
    for (name, placement) in
        [("random π", Placement::Random), ("round-robin", Placement::RoundRobin)]
    {
        let rec = em_core::Recording::new(
            em_core::SeqEmSimulator::new(machine(1, 1 << 18, 4, 2048))
                .with_seed(SEED)
                .with_placement(placement),
        );
        let t0 = std::time::Instant::now();
        let out = em_algos::sort::cgm_sort(&rec, 64, items.clone()).unwrap();
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let reports = rec.take_reports();
        let io_ops: u64 = reports.iter().map(|r| r.io.parallel_ops).sum();
        let balance = reports.iter().map(|r| r.worst_balance()).fold(1.0f64, f64::max);
        rows.push(Row {
            id: "F-detrand".into(),
            variant: format!("sort placement={name}"),
            n,
            io_ops,
            predicted: 0.0,
            lambda: reports.iter().map(|r| r.lambda).sum(),
            utilization: 0.0,
            wall_ms: wall,
            note: format!("worst balance {balance:.2}"),
        });
    }
    rows
}

/// F-contraction: pointer jumping vs independent-set contraction under
/// the simulation — the "geometrically decreasing size" effect of §2.1
/// made measurable: contraction's per-superstep traffic shrinks, so its
/// total I/O grows like n/DB instead of (n/DB)·log n.
fn fig_contraction() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in pick(&[8_000usize, 16_000, 32_000][..], &[2_000usize][..]) {
        let succ = em_algos::graph::list_ranking::random_chain(n, SEED + 5);
        let w = vec![1u64; n];
        let (a, jump) = measure_seq(machine(1, 1 << 18, 4, 2048), SEED, |rec| {
            em_algos::graph::list_ranking::cgm_list_rank(rec, 64, &succ, &w).unwrap()
        });
        let (b, contract) = measure_seq(machine(1, 1 << 18, 4, 2048), SEED, |rec| {
            em_algos::graph::contraction::cgm_list_rank_contraction(rec, 64, &succ, &w).unwrap()
        });
        assert_eq!(a, b);
        rows.push(Row {
            id: "F-contract".into(),
            variant: format!("pointer jumping n={n}"),
            n,
            io_ops: jump.io_ops,
            predicted: 0.0,
            lambda: jump.lambda,
            utilization: jump.utilization,
            wall_ms: jump.wall_ms,
            note: format!("msg bytes {}", jump.msg_bytes),
        });
        rows.push(Row {
            id: "F-contract".into(),
            variant: format!("IS contraction n={n}"),
            n,
            io_ops: contract.io_ops,
            predicted: 0.0,
            lambda: contract.lambda,
            utilization: contract.utilization,
            wall_ms: contract.wall_ms,
            note: format!(
                "msg bytes {} ({:.1}x less traffic, {:.2}x ops)",
                contract.msg_bytes,
                jump.msg_bytes as f64 / contract.msg_bytes.max(1) as f64,
                jump.io_ops as f64 / contract.io_ops.max(1) as f64,
            ),
        });
    }
    rows
}

/// F-obs2: Observation 2 — c-optimality preservation. With the sample
/// sort charging its computation (n·log n model units), the ratios
/// T_comm/(T(A)/p) and T_io/(T(A)/p) must shrink as n grows at a fixed
/// machine (the o(1) conditions), while T_comp/(T(A)/p) stays near a
/// constant c.
fn fig_obs2() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in pick(&[50_000usize, 100_000, 200_000, 400_000][..], &[5_000usize, 10_000][..]) {
        let items = random_u64(n, SEED + 6);
        let (_, cost) = measure_seq(machine(1, 1 << 18, 4, 2048), SEED, |rec| {
            em_algos::sort::cgm_sort(rec, 64, items.clone()).unwrap()
        });
        let stage = &cost.stages[0];
        // T(A): best sequential comparison sort in the same model units.
        let t_seq = n as f64 * (n as f64).log2();
        // Theorem 1: the uniprocessor simulation performs v·β computation,
        // where β = Σ per-superstep max charged work.
        let t_comp = 64.0 * stage.comm.total_comp() as f64;
        let t_comm =
            stage.comm.bsp_star_comm_time(&em_bsp::BspStarParams { p: 1, g: 1.0, b: 2048, l: 1.0 });
        let t_io = cost.io_time as f64;
        let r = theory::observation2_ratios(t_seq, 1, t_comp, t_comm, t_io);
        rows.push(Row {
            id: "F-obs2".into(),
            variant: format!("sort n={n}"),
            n,
            io_ops: cost.io_ops,
            predicted: 0.0,
            lambda: cost.lambda,
            utilization: cost.utilization,
            wall_ms: cost.wall_ms,
            note: format!(
                "c=comp/T={:.2} comm/T={:.4} io/T={:.4}",
                r.comp_ratio, r.comm_ratio, r.io_ratio
            ),
        });
    }
    rows
}

/// F-faults: robustness sweep — recovered supersteps and wall-clock
/// overhead vs the injected fault rate of a seeded [`em_disk::FaultPlan`].
/// Every recovered run asserts, in process, that its final states and its
/// counted parallel I/O are bit-identical to the fault-free run: retries
/// and replays are tallied separately (`retried_blocks`, `recovery_ops`)
/// and never leak into the paper-facing metric. What recovery costs is
/// space: each row prints its tracks a drive beside the bare run's.
fn fig_faults() -> Vec<Row> {
    use em_bsp::{BspProgram, Mailbox, Step};
    use em_core::{RecoveryPolicy, SeqEmSimulator};
    use em_disk::{FaultPlan, RetryPolicy};

    struct Ring {
        rounds: usize,
    }
    impl BspProgram for Ring {
        type State = u64;
        type Msg = u64;
        fn superstep(&self, step: usize, mb: &mut Mailbox<u64>, state: &mut u64) -> Step {
            for e in mb.take_incoming() {
                *state = state.wrapping_add(e.msg);
            }
            if step < self.rounds {
                let v = mb.nprocs();
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

    let v = 32usize;
    let d = 4usize;
    let prog = Ring { rounds: pick(12, 6) };
    let init: Vec<u64> = (0..v as u64).collect();
    // M = 1 KiB forces k = 8, four groups: real paging traffic per round.
    let base = SeqEmSimulator::new(machine(1, 1024, d, 256)).with_seed(SEED).with_checksums(true);
    let (clean, clean_report) = base.run(&prog, init.clone()).unwrap();
    // Generous per-drive horizon: every op of the run sits under the plan.
    let horizon = clean_report.io.parallel_ops * 4 + 64;

    let mut rows = Vec::new();
    let mut base_wall = 0.0f64;
    for &rate in pick(&[0u32, 5, 15, 30][..], &[0u32, 15][..]) {
        let mut sim =
            base.clone().with_retry(RetryPolicy::new(4)).with_recovery(RecoveryPolicy::new(64));
        if rate > 0 {
            // On top of the seeded background rate, a burst mid-run fails
            // the track it hits four times in a row — the whole 4-attempt
            // retry policy — and forces the superstep-replay path to fire
            // deterministically.
            let burst = clean_report.io.parallel_ops / 2;
            let plan = FaultPlan::seeded(SEED, d, horizon, rate).with_burst(0, burst, 4);
            sim = sim.with_fault_plan(plan);
        }
        let t0 = std::time::Instant::now();
        let (res, report) = sim.run(&prog, init.clone()).unwrap();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(res.states, clean.states, "recovered run must match the fault-free run");
        assert_eq!(
            report.io.parallel_ops, clean_report.io.parallel_ops,
            "retries and replays must not leak into counted parallel I/O"
        );
        if rate == 0 {
            base_wall = wall.max(1e-6);
        }
        let f = report.faults.expect("fault/recovery run carries a report");
        assert!(rate == 0 || f.replays >= 1, "rate {rate}‰: the burst must force a replay");
        rows.push(Row {
            id: "F-faults".into(),
            variant: format!("diffusion rate={rate}‰"),
            n: v,
            io_ops: report.io.parallel_ops,
            predicted: clean_report.io.parallel_ops as f64,
            lambda: report.lambda,
            utilization: report.io.utilization(),
            wall_ms: wall,
            note: format!(
                "injected={} retried={} replays={} recovered_steps={} recovery_ops={} \
                 tracks={} (bare {}) wall {:.2}x",
                f.injected.total(),
                f.retried_blocks,
                f.replays,
                f.recovered_supersteps,
                f.recovery_ops,
                report.tracks_per_disk,
                clean_report.tracks_per_disk,
                wall / base_wall,
            ),
        });
    }
    rows
}

/// F-fig2: trace the two reorganization steps of Algorithm 2 (Figure 2).
fn fig_fig2() -> Vec<Row> {
    let d = 4usize;
    let b = 256usize;
    let mut alloc = TrackAllocator::new(d);
    let geom = MsgGeometry::allocate(&mut alloc, 16, 2, 4000, d, b).unwrap();
    let mut disks = DiskArray::new_memory(DiskConfig::new(d, b).unwrap());
    let mut scratch = ScratchState::new(&geom);
    let mut rng = StdRng::seed_from_u64(SEED);
    for src_group in 0..8u32 {
        let msgs: Vec<OutMsg> = (0..24u32)
            .map(|i| OutMsg {
                dst: (i * 5 + src_group) % 16,
                src: src_group * 2,
                seq: i,
                payload: vec![i as u8; 100],
            })
            .collect();
        scatter_messages(
            &mut disks,
            &mut alloc,
            &geom,
            &mut scratch,
            src_group as usize,
            msgs,
            &mut rng,
            Placement::Random,
        )
        .unwrap();
    }
    let blocks = scratch.total();
    let balance = scratch.balance_factor();
    let ops_before = disks.stats().parallel_ops;
    let (counts, trace) = simulate_routing(
        &mut disks,
        &mut alloc,
        &geom,
        scratch,
        &mut RoutingScratch::new(),
        &mut BufferPool::new(),
        None,
    )
    .unwrap();
    let ops_routing = disks.stats().parallel_ops - ops_before;
    vec![Row {
        id: "F-fig2".into(),
        variant: "SimulateRouting trace".into(),
        n: blocks,
        io_ops: ops_routing,
        predicted: (4 * blocks / d) as f64,
        lambda: 0,
        utilization: disks.stats().utilization(),
        wall_ms: 0.0,
        note: format!(
            "step1 rounds={} step2 rounds={} idle={} balance={balance:.2} groups_filled={}",
            trace.step1_rounds,
            trace.step2_rounds,
            trace.idle_slots,
            counts.counts.iter().filter(|&&c| c > 0).count()
        ),
    }]
}

type Sweep = fn() -> Vec<Row>;

/// Every sweep, by the name the command line selects it with.
const SWEEPS: [(&str, Sweep); 12] = [
    ("blocking", fig_blocking),
    ("disks", fig_disks),
    ("procs", fig_procs),
    ("balance", fig_balance),
    ("lambda", fig_lambda),
    ("sibeyn", fig_sibeyn),
    ("group-size", fig_group_size),
    ("det-vs-rand", fig_det_vs_rand),
    ("contraction", fig_contraction),
    ("obs2", fig_obs2),
    ("faults", fig_faults),
    ("fig2", fig_fig2),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(&args, &["--json", "--smoke"], "figures [experiment] [--json] [--smoke]");
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    SMOKE.store(smoke, Ordering::Relaxed);
    let which = args.iter().find(|a| !a.starts_with("--")).map(String::as_str).unwrap_or("all");

    let rows: Vec<Row> = SWEEPS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .flat_map(|(_, sweep)| sweep())
        .collect();

    if json {
        print_json(&rows);
    } else {
        print_table("Figure-style sweeps", &rows);
    }
    let config = format!("M=256KiB D=4 B=2048 (per-sweep overrides inline); which={which}");
    match write_bench_json("figures", SEED, smoke, which == "all", &config, &rows) {
        // Stderr so `--json` stdout stays pure JSON lines.
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_figures.json: {e}"),
    }
}
