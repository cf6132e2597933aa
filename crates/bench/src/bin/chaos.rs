//! chaos — seeded crash/fault/multi-tenant soak harness.
//!
//! Exercises the durability contract end to end, **asserting in process**:
//!
//! 1. *Kill/resume matrix* — a state-dependent multi-superstep workload is
//!    killed at every barrier (after the manifest committed, mid-manifest
//!    write, and mid-superstep) on both simulators and both pipeline
//!    modes, then resumed; final states, the communication ledger and the
//!    counted parallel I/O must be bit-identical to the uninterrupted run.
//! 2. *Kill × fault-plan matrix* — the same sweep with injected transient
//!    disk faults absorbed by the retry policy, proving fault-schedule
//!    op counters survive a crash (a resumed run replays the *same*
//!    faults at the *same* absolute operations).
//! 3. *Tenant chaos* — concurrent service tenants where one dies an
//!    unrecoverable death (quarantined, resources reclaimed, lease goes
//!    sticky), some limp through transient faults under a retry policy,
//!    and one is refused by a zero deadline; every surviving tenant's
//!    metered ledger must be bit-identical to a solo run on a private
//!    array.
//!
//! Usage: `chaos [--smoke] [--json] [--seed S]`
//!
//! * `--smoke` — CI-sized sweep (fewer seeds and kill points), same code
//!   paths as the full run.
//! * `--json` — print a deterministic JSON transcript to stdout (scenario
//!   fingerprints, then the tenant ledger; byte-identical across
//!   identically-seeded runs — the CI soak lane diffs exactly this). The
//!   human summary moves to stderr.
//!
//! Every invocation also writes `BENCH_chaos.json` — under `results/` for
//! the default full-size run, under `target/bench-results/` for `--smoke`
//! or a `--seed` override ([`em_bench::report::write_bench_json`]).

use em_bench::report::{reject_unknown_flags, write_bench_json, Row};
use em_bench::workloads::random_u64;
use em_bsp::{BspProgram, BspStarParams, Executor, Mailbox, Step};
use em_core::{CostReport, EmError, EmMachine, KillPoint, ParEmSimulator, SeqEmSimulator};
use em_disk::{FaultPlan, Pipeline, RetryPolicy};
use em_service::{
    JobPolicy, JobSpec, ServiceConfig, ServiceError, SimService, SoloRunner, TenantOutcome,
    TenantRecord,
};
use std::path::{Path, PathBuf};

/// Supersteps of the kill-sweep workload; barriers `0..SUPERSTEPS` are
/// the kill targets.
const SUPERSTEPS: usize = 5;

/// State-dependent diffusion: every superstep folds the incoming
/// messages into the state and sends state-derived messages, so the
/// final states encode the whole history — any resume divergence shows.
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

fn fold(h: u64, x: u64) -> u64 {
    h.rotate_left(7) ^ x
}

fn states_fp(states: &[u64]) -> u64 {
    states.iter().fold(0, |h, &x| fold(h, x))
}

fn ledger_fp(ledger: &em_bsp::CommLedger) -> u64 {
    ledger.steps.iter().fold(0, |h, s| fold(fold(fold(h, s.h_bytes), s.bytes), s.msgs))
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("em-sim-chaos-{}-{tag}", std::process::id()))
}

/// One cell of the kill/resume matrices: a deterministic fingerprint of
/// the uninterrupted run plus the number of kill points resumed
/// bit-identically against it.
struct Cell {
    scenario: String,
    io_ops: u64,
    lambda: usize,
    state_fp: u64,
    ledger_fp: u64,
    kills: usize,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"io_ops\":{},\"lambda\":{},\"state_fp\":\"{:016x}\",\"ledger_fp\":\"{:016x}\",\"kills_resumed\":{}}}",
            self.scenario, self.io_ops, self.lambda, self.state_fp, self.ledger_fp, self.kills
        )
    }

    fn row(&self) -> Row {
        Row {
            id: self.scenario.clone(),
            variant: "kill/resume sweep".into(),
            n: self.kills,
            io_ops: self.io_ops,
            predicted: 0.0,
            lambda: self.lambda,
            utilization: 0.0,
            wall_ms: 0.0,
            cache_hit_blocks: 0,
            cache_absorbed_writes: 0,
            note: format!(
                "state {:016x} ledger {:016x}; {} kill points resumed bit-identical",
                self.state_fp, self.ledger_fp, self.kills
            ),
        }
    }
}

fn kill_points(smoke: bool) -> Vec<KillPoint> {
    let barriers: Vec<usize> =
        if smoke { vec![0, 2, SUPERSTEPS - 1] } else { (0..SUPERSTEPS).collect() };
    barriers
        .into_iter()
        .flat_map(|b| {
            [KillPoint::AtBarrier(b), KillPoint::MidSuperstep(b), KillPoint::MidManifest(b)]
        })
        .collect()
}

fn init_states(v: usize, seed: u64) -> Vec<u64> {
    random_u64(v, seed)
}

#[allow(clippy::too_many_arguments)]
fn assert_resume_matches(
    scenario: &str,
    kill: KillPoint,
    a: &em_bsp::RunResult<u64>,
    ra: &CostReport,
    b: &em_bsp::RunResult<u64>,
    rb: &CostReport,
) {
    assert_eq!(a.states, b.states, "{scenario}/{kill:?}: resumed states diverge");
    assert_eq!(a.ledger, b.ledger, "{scenario}/{kill:?}: resumed ledger diverges");
    assert_eq!(ra.io.parallel_ops, rb.io.parallel_ops, "{scenario}/{kill:?}: parallel_ops diverge");
    assert_eq!(ra.io.per_disk_reads, rb.io.per_disk_reads, "{scenario}/{kill:?}: reads diverge");
    assert_eq!(ra.io.per_disk_writes, rb.io.per_disk_writes, "{scenario}/{kill:?}: writes diverge");
    assert_eq!(ra.phases, rb.phases, "{scenario}/{kill:?}: phase I/O diverges");
    assert_eq!(
        ra.real_comm_bytes, rb.real_comm_bytes,
        "{scenario}/{kill:?}: real h-relation bytes diverge"
    );
}

fn seq_cell(
    scenario: &str,
    pipeline: Pipeline,
    seed: u64,
    faults: Option<FaultPlan>,
    kills: &[KillPoint],
) -> Cell {
    let v = 16;
    let machine = EmMachine::uniprocessor(256, 2, 64, 1);
    let base = scratch(scenario);
    let make = |dir: &Path| {
        let mut sim = SeqEmSimulator::new(machine)
            .with_seed(seed)
            .with_pipeline(pipeline)
            .with_file_backend(dir)
            .with_checkpointing(true);
        if let Some(plan) = &faults {
            sim = sim.with_fault_plan(plan.clone()).with_retry(RetryPolicy::new(4));
        }
        sim
    };
    let (a, ra) = make(&base.join("ref")).run(&Diffuse, init_states(v, seed)).unwrap();
    for &kill in kills {
        let dir = base.join(format!("{kill:?}"));
        let sim = make(&dir);
        let err =
            sim.clone().with_kill_point(kill).run(&Diffuse, init_states(v, seed)).unwrap_err();
        assert!(
            matches!(err, EmError::Killed { .. }),
            "{scenario}/{kill:?}: expected kill, got {err}"
        );
        let (b, rb) = sim.resume(&Diffuse).unwrap();
        assert_resume_matches(scenario, kill, &a, &ra, &b, &rb);
    }
    std::fs::remove_dir_all(&base).ok();
    Cell {
        scenario: scenario.into(),
        io_ops: ra.io.parallel_ops,
        lambda: ra.lambda,
        state_fp: states_fp(&a.states),
        ledger_fp: ledger_fp(&a.ledger),
        kills: kills.len(),
    }
}

fn par_cell(
    scenario: &str,
    pipeline: Pipeline,
    seed: u64,
    faults: Option<FaultPlan>,
    kills: &[KillPoint],
) -> Cell {
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
    let base = scratch(scenario);
    let make = |dir: &Path| {
        let mut sim = ParEmSimulator::new(machine)
            .with_seed(seed)
            .with_pipeline(pipeline)
            .with_file_backend(dir)
            .with_checkpointing(true);
        if let Some(plan) = &faults {
            sim = sim.with_fault_plan(plan.clone()).with_retry(RetryPolicy::new(4));
        }
        sim
    };
    let (a, ra) = make(&base.join("ref")).run(&Diffuse, init_states(v, seed)).unwrap();
    for &kill in kills {
        let dir = base.join(format!("{kill:?}"));
        let sim = make(&dir);
        let err =
            sim.clone().with_kill_point(kill).run(&Diffuse, init_states(v, seed)).unwrap_err();
        assert!(
            matches!(err, EmError::Killed { .. }),
            "{scenario}/{kill:?}: expected kill, got {err}"
        );
        let (b, rb) = sim.resume(&Diffuse).unwrap();
        assert_resume_matches(scenario, kill, &a, &ra, &b, &rb);
    }
    std::fs::remove_dir_all(&base).ok();
    Cell {
        scenario: scenario.into(),
        io_ops: ra.io.parallel_ops,
        lambda: ra.lambda,
        state_fp: states_fp(&a.states),
        ledger_fp: ledger_fp(&a.ledger),
        kills: kills.len(),
    }
}

// ---------------------------------------------------------------------------
// Tenant chaos
// ---------------------------------------------------------------------------

const M: usize = 1 << 17;
const D: usize = 2;
const B: usize = 1024;
const TRACKS_PER_TENANT: usize = 1024;
const MU: usize = 1 << 16;
const GAMMA: usize = 1 << 16;

fn service_machine() -> EmMachine {
    EmMachine::uniprocessor(M, D, B, 1)
}

/// A healthy tenant job: CGM sample sort of a seeded input.
fn run_sort<E: Executor>(exec: &E, n: usize, v: usize, seed: u64) -> u64 {
    let out = em_algos::sort::cgm_sort(exec, v, random_u64(n, seed)).expect("sort tenant failed");
    out.iter().fold(0u64, |h, &x| fold(h, x))
}

/// Unwraps the [`ServiceError`] inside a failed tenant algorithm run.
fn service_err(err: em_algos::AlgoError) -> Box<ServiceError> {
    match err {
        em_algos::AlgoError::Exec(e) => {
            e.downcast::<ServiceError>().expect("service error expected")
        }
        other => panic!("expected an executor error, got {other}"),
    }
}

fn assert_record_matches_solo(name: &str, record: &TenantRecord, solo: &[CostReport], fp: u32) {
    assert!(
        matches!(record.outcome, TenantOutcome::Completed),
        "{name}: expected a completed record"
    );
    assert_eq!(record.stages.len(), solo.len(), "{name}: stage count differs from solo run");
    for (i, (svc, ref_)) in record.stages.iter().zip(solo).enumerate() {
        assert_eq!(svc.io, ref_.io, "{name} stage {i}: counted IoStats differ from solo");
        assert_eq!(svc.lambda, ref_.lambda, "{name} stage {i}: lambda differs");
    }
    assert_eq!(record.state_fingerprint, fp, "{name}: state fingerprint differs from solo");
}

/// Runs the tenant-chaos scenario and returns the service's deterministic
/// ledger JSON plus summary counts `(completed, quarantined)`.
fn tenant_chaos(master_seed: u64, smoke: bool) -> (String, Vec<TenantRecord>, usize, usize) {
    let healthy = if smoke { 3 } else { 8 };
    let flaky = if smoke { 2 } else { 4 };
    let tenants = healthy + flaky + 2; // + death tenant + refill tenant
    let service = SimService::new(
        ServiceConfig::new(D, B, tenants * TRACKS_PER_TENANT + 64, tenants * (MU * 64 + GAMMA))
            .with_compute_slots(tenants),
    );
    let n = if smoke { 192 } else { 768 };
    let v = 8;

    std::thread::scope(|scope| {
        // Healthy tenants: no faults, generous policy.
        for i in 0..healthy {
            let service = &service;
            scope.spawn(move || {
                let seed = master_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let name = format!("healthy-{i:02}");
                let solo = SoloRunner::new(SeqEmSimulator::new(service_machine()).with_seed(seed));
                let solo_out = run_sort(&solo, n, v, seed);
                let (solo_stages, solo_fp) = solo.finish();
                let spec = JobSpec::new(&name, seed, service_machine(), v)
                    .with_budgets(MU, GAMMA)
                    .with_tracks(TRACKS_PER_TENANT)
                    .with_policy(JobPolicy::default().with_max_retries(2));
                let lease = service.admit(spec).expect("healthy tenant refused");
                let out = run_sort(&lease, n, v, seed);
                assert_eq!(out, solo_out, "{name}: output differs from solo");
                let record = lease.complete();
                assert_record_matches_solo(&name, &record, &solo_stages, solo_fp);
            });
        }
        // Flaky tenants: one-shot transient faults absorbed by the retry
        // policy; the surviving attempt must meter identically to solo.
        for i in 0..flaky {
            let service = &service;
            scope.spawn(move || {
                let seed = master_seed ^ 0xF1A4 ^ (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let name = format!("flaky-{i:02}");
                let solo = SoloRunner::new(SeqEmSimulator::new(service_machine()).with_seed(seed));
                let solo_out = run_sort(&solo, n, v, seed);
                let (solo_stages, solo_fp) = solo.finish();
                let spec = JobSpec::new(&name, seed, service_machine(), v)
                    .with_budgets(MU, GAMMA)
                    .with_tracks(TRACKS_PER_TENANT)
                    .with_fault_plan(
                        FaultPlan::none()
                            .with_transient(0, 3 + i as u64)
                            .with_transient(1, 9 + i as u64),
                    )
                    .with_policy(
                        JobPolicy::default().with_max_retries(3).with_backoff_base_micros(10),
                    );
                let lease = service.admit(spec).expect("flaky tenant refused");
                let out = run_sort(&lease, n, v, seed);
                assert_eq!(out, solo_out, "{name}: output differs from solo");
                let record = lease.complete();
                assert_record_matches_solo(&name, &record, &solo_stages, solo_fp);
            });
        }
        // Death tenant: unrecoverable fault mid-run -> quarantined, lease
        // sticky, resources reclaimed.
        let service_ref = &service;
        scope.spawn(move || {
            let seed = master_seed ^ 0xDEAD;
            let spec = JobSpec::new("death-00", seed, service_machine(), v)
                .with_budgets(MU, GAMMA)
                .with_tracks(TRACKS_PER_TENANT)
                .with_fault_plan(FaultPlan::none().with_worker_death(0, 5))
                .with_policy(JobPolicy::default().with_max_retries(3));
            let lease = service_ref.admit(spec).expect("death tenant refused admission");
            let err = service_err(
                em_algos::sort::cgm_sort(&lease, v, random_u64(n, seed))
                    .expect_err("death tenant must not complete"),
            );
            assert!(matches!(*err, ServiceError::Quarantined { .. }), "got {err}");
            // Sticky: the lease refuses further work without touching disks.
            let err = service_err(
                em_algos::sort::cgm_sort(&lease, v, random_u64(16, seed))
                    .expect_err("quarantined lease must stay refused"),
            );
            assert!(matches!(*err, ServiceError::Quarantined { .. }));
            let record = lease.complete();
            assert!(matches!(record.outcome, TenantOutcome::Quarantined { .. }));

            // Reclamation: a refill tenant fits into the freed tracks and
            // meters identically to solo.
            let refill_seed = master_seed ^ 0x4EF1;
            let solo =
                SoloRunner::new(SeqEmSimulator::new(service_machine()).with_seed(refill_seed));
            let solo_out = run_sort(&solo, n, v, refill_seed);
            let (solo_stages, solo_fp) = solo.finish();
            let spec = JobSpec::new("refill-00", refill_seed, service_machine(), v)
                .with_budgets(MU, GAMMA)
                .with_tracks(TRACKS_PER_TENANT);
            let lease = service_ref.admit(spec).expect("refill tenant refused after reclamation");
            let out = run_sort(&lease, n, v, refill_seed);
            assert_eq!(out, solo_out, "refill-00: output differs from solo");
            let record = lease.complete();
            assert_record_matches_solo("refill-00", &record, &solo_stages, solo_fp);
        });
    });

    // Zero deadline: deterministically refused before any attempt runs.
    let spec = JobSpec::new("deadline-00", master_seed ^ 0xD11E, service_machine(), v)
        .with_budgets(MU, GAMMA)
        .with_tracks(TRACKS_PER_TENANT)
        .with_policy(JobPolicy::default().with_deadline_micros(0));
    let lease = service.admit(spec).expect("deadline tenant refused admission");
    let err = service_err(
        em_algos::sort::cgm_sort(&lease, v, random_u64(64, master_seed))
            .expect_err("zero deadline must refuse to start"),
    );
    assert!(matches!(*err, ServiceError::DeadlineExceeded { .. }), "got {err}");
    drop(lease);

    let report = service.report();
    let records = report.records().to_vec();
    let completed =
        records.iter().filter(|r| matches!(r.outcome, TenantOutcome::Completed)).count();
    let quarantined =
        records.iter().filter(|r| matches!(r.outcome, TenantOutcome::Quarantined { .. })).count();
    assert_eq!(quarantined, 1, "exactly the death tenant must be quarantined");
    (report.deterministic_json(), records, completed, quarantined)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(
        &args,
        &["--smoke", "--json", "--seed"],
        "chaos [--smoke] [--json] [--seed S]",
    );
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.parse::<u64>().unwrap_or_else(|_| panic!("{flag} needs a numeric argument")))
    };
    let smoke = has("--smoke");
    let json = has("--json");
    let seed_override = opt("--seed");
    let master_seed = seed_override.unwrap_or(0xC4A05);

    let kills = kill_points(smoke);
    let seeds: Vec<u64> = (0..if smoke { 2 } else { 5 })
        .map(|i| master_seed ^ (i as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .collect();
    let transient_plan =
        || FaultPlan::none().with_transient(0, 7).with_transient(1, 13).with_transient(0, 29);

    let mut cells: Vec<Cell> = Vec::new();
    for &seed in &seeds {
        cells.push(seq_cell(&format!("seq-off-s{seed:x}"), Pipeline::Off, seed, None, &kills));
        cells.push(seq_cell(
            &format!("seq-stream2-s{seed:x}"),
            Pipeline::Stream(2),
            seed,
            None,
            &kills,
        ));
        cells.push(par_cell(&format!("par-off-s{seed:x}"), Pipeline::Off, seed, None, &kills));
        cells.push(par_cell(
            &format!("par-stream2-s{seed:x}"),
            Pipeline::Stream(2),
            seed,
            None,
            &kills,
        ));
        cells.push(seq_cell(
            &format!("seq-faults-s{seed:x}"),
            Pipeline::Off,
            seed,
            Some(transient_plan()),
            &kills,
        ));
        cells.push(par_cell(
            &format!("par-faults-s{seed:x}"),
            Pipeline::Off,
            seed,
            Some(transient_plan()),
            &kills,
        ));
    }
    let total_kills: usize = cells.iter().map(|c| c.kills).sum();

    let (ledger_json, records, completed, quarantined) = tenant_chaos(master_seed, smoke);

    let mut rows: Vec<Row> = cells.iter().map(Cell::row).collect();
    rows.extend(records.iter().map(|r| Row {
        id: r.name.clone(),
        variant: "chaos tenant".into(),
        n: r.v,
        io_ops: r.total_io_ops(),
        predicted: 0.0,
        lambda: r.stages.iter().map(|s| s.lambda).sum(),
        utilization: 0.0,
        wall_ms: r.stages.iter().map(|s| s.wall.as_secs_f64() * 1e3).sum(),
        cache_hit_blocks: 0,
        cache_absorbed_writes: 0,
        note: format!("outcome {:?}", r.outcome),
    }));
    let config = format!(
        "kill sweep: {} cells x {} kill points ({} resumes); tenants D={D} B={B} tracks={TRACKS_PER_TENANT}",
        cells.len(),
        kills.len(),
        total_kills,
    );
    let complete = seed_override.is_none();
    let path = write_bench_json("chaos", master_seed, smoke, complete, &config, &rows)
        .expect("writing BENCH_chaos.json");

    let summary = format!(
        "chaos: {} kill/resume scenarios x {} kill points all bit-identical after resume; \
         {completed} tenants completed bit-identical to solo, {quarantined} quarantined -> {}",
        cells.len(),
        kills.len(),
        path.display()
    );
    if json {
        println!("{{\"kill_resume\":[");
        for (i, c) in cells.iter().enumerate() {
            let sep = if i + 1 == cells.len() { "" } else { "," };
            println!("{}{sep}", c.json());
        }
        println!("],\"tenants\":");
        print!("{ledger_json}");
        println!("}}");
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
}
