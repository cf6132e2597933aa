//! traffic — seeded multi-tenant load generator for the `em-service`
//! job service.
//!
//! Replays a deterministic mix of CGM jobs (sample sort, permutation
//! routing, prefix sums, matrix transpose — the Table 1 Group A
//! workloads) as concurrent tenants of one [`SimService`], and asserts
//! the service metering invariant **in process**: every tenant's counted
//! per-stage `IoStats` and final-state fingerprint are bit-identical to
//! the same job run solo on a private `DiskArray`.
//!
//! Usage: `traffic [--smoke] [--json] [--jobs N] [--workers W] [--seed S]`
//!
//! * `--smoke` — CI-sized run (few dozen jobs, small inputs), same code
//!   path as the full run.
//! * `--json` — print the deterministic [`em_service::ServiceReport`] ledger to
//!   stdout (one JSON object per tenant, sorted by `(name, seed)`;
//!   byte-identical across identically-seeded runs — the CI soak lane
//!   diffs exactly this). The human summary moves to stderr.
//!
//! Every invocation also writes `BENCH_traffic.json` — under `results/`
//! for the default full-size run, under `target/bench-results/` for
//! `--smoke` or any `--jobs`/`--workers`/`--seed` override
//! ([`em_bench::report::write_bench_json`]).

use em_bench::report::{reject_unknown_flags, write_bench_json, Row};
use em_bench::workloads::{random_perm, random_u64};
use em_bsp::Executor;
use em_core::{EmMachine, SeqEmSimulator};
use em_service::{JobSpec, ServiceConfig, SimService, SoloRunner, TenantRecord};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

// Shared machine shape: every tenant is priced against the same
// (M, D, B) uniprocessor and the service's array matches it.
const M: usize = 1 << 17; // 128 KiB per-tenant memory
const D: usize = 2; // shared drives
const B: usize = 1024; // bytes per track
const TRACKS_PER_TENANT: usize = 2048; // per-drive region request
const MU: usize = 1 << 16; // declared context budget, bytes
const GAMMA: usize = 1 << 16; // declared comm envelope, bytes

fn machine() -> EmMachine {
    EmMachine::uniprocessor(M, D, B, 1)
}

/// One deterministic job of the mix.
#[derive(Clone)]
struct Job {
    name: String,
    kind: usize,
    n: usize,
    v: usize,
    seed: u64,
}

/// The seeded job mix: kinds cycle, sizes sweep, seeds split off the
/// master seed — pure arithmetic, so identical `(seed, jobs)` always
/// produce the identical mix.
fn job_mix(master_seed: u64, jobs: usize, smoke: bool) -> Vec<Job> {
    let kinds = ["sort", "permute", "prefix", "transpose"];
    (0..jobs)
        .map(|i| {
            let kind = i % kinds.len();
            let base = if smoke { 64 } else { 512 };
            let n = base + (i % 7) * base / 2;
            let v = if i % 3 == 0 { 16 } else { 8 };
            let seed = master_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Job { name: format!("job-{i:04}-{}", kinds[kind]), kind, n, v, seed }
        })
        .collect()
}

/// Run one job's CGM pipeline on any executor; returns a checksum of the
/// pipeline output (for cross-executor comparison).
fn run_job<E: Executor>(exec: &E, job: &Job) -> u64 {
    match job.kind {
        0 => {
            let out = em_algos::sort::cgm_sort(exec, job.v, random_u64(job.n, job.seed))
                .expect("sort tenant failed");
            out.iter().fold(0u64, |h, x| h.rotate_left(7) ^ x)
        }
        1 => {
            let items = random_u64(job.n, job.seed);
            let perm = random_perm(job.n, job.seed ^ 0xFEED);
            let out = em_algos::permute::cgm_permute(exec, job.v, items, &perm)
                .expect("permute tenant failed");
            out.iter().fold(0u64, |h, x| h.rotate_left(7) ^ x)
        }
        2 => {
            let out = em_algos::prefix::cgm_prefix_sums(exec, job.v, random_u64(job.n, job.seed))
                .expect("prefix tenant failed");
            out.iter().fold(0u64, |h, x| h.rotate_left(7) ^ x)
        }
        _ => {
            let c = 8;
            let r = job.n / c;
            let out =
                em_algos::transpose::cgm_transpose(exec, job.v, r, c, random_u64(r * c, job.seed))
                    .expect("transpose tenant failed");
            out.iter().fold(0u64, |h, x| h.rotate_left(7) ^ x)
        }
    }
}

/// Assert the metering invariant for one job: the service record equals
/// the solo reference stage-for-stage.
fn assert_bit_identical(job: &Job, record: &TenantRecord, solo: &[em_core::CostReport], fp: u32) {
    assert_eq!(record.stages.len(), solo.len(), "{}: stage count differs from solo run", job.name);
    for (i, (svc, ref_)) in record.stages.iter().zip(solo).enumerate() {
        assert_eq!(svc.io, ref_.io, "{} stage {i}: counted IoStats differ from solo", job.name);
        assert_eq!(svc.lambda, ref_.lambda, "{} stage {i}: lambda differs", job.name);
        assert_eq!(svc.io_time, ref_.io_time, "{} stage {i}: io_time differs", job.name);
    }
    assert_eq!(record.state_fingerprint, fp, "{}: state fingerprint differs from solo", job.name);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(
        &args,
        &["--smoke", "--json", "--jobs", "--workers", "--seed"],
        "traffic [--smoke] [--json] [--jobs N] [--workers W] [--seed S]",
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
    let (seed_arg, jobs_arg, workers_arg) = (opt("--seed"), opt("--jobs"), opt("--workers"));
    let master_seed = seed_arg.unwrap_or(0x7AF_F1C);
    let jobs = jobs_arg.unwrap_or(if smoke { 48 } else { 240 }) as usize;
    let workers = (workers_arg.unwrap_or(4) as usize).max(2);

    let mix = job_mix(master_seed, jobs, smoke);
    let service = SimService::new(
        ServiceConfig::new(D, B, workers * TRACKS_PER_TENANT + 64, workers * (MU * 64 + GAMMA))
            .with_compute_slots(workers),
    );

    // Workers drain the job queue; a barrier after each worker's first
    // admission guarantees ≥ `workers` genuinely concurrent tenants on
    // the substrate at least once per run.
    let next = AtomicUsize::new(0);
    let gate = Barrier::new(workers);
    let peak_tenants = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut first = true;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = mix.get(i) else {
                        if first {
                            // Fewer jobs than workers: still meet the barrier.
                            gate.wait();
                        }
                        break;
                    };

                    // Solo reference on a private array.
                    let solo = SoloRunner::new(SeqEmSimulator::new(machine()).with_seed(job.seed));
                    let solo_out = run_job(&solo, job);
                    let (solo_stages, solo_fp) = solo.finish();

                    // The same job as a service tenant.
                    let spec = JobSpec::new(&job.name, job.seed, machine(), job.v)
                        .with_budgets(MU, GAMMA)
                        .with_tracks(TRACKS_PER_TENANT);
                    let lease = service
                        .admit(spec)
                        .unwrap_or_else(|e| panic!("{} was refused admission: {e}", job.name));
                    if first {
                        first = false;
                        let active = service.active_tenants();
                        let mut peak = peak_tenants.lock().unwrap();
                        *peak = (*peak).max(active);
                        drop(peak);
                        gate.wait();
                    }
                    let svc_out = run_job(&lease, job);
                    let record = lease.complete();

                    assert_eq!(svc_out, solo_out, "{}: pipeline output differs", job.name);
                    assert_bit_identical(job, &record, &solo_stages, solo_fp);
                }
            });
        }
    });

    let peak = *peak_tenants.lock().unwrap();
    assert!(peak >= 2, "load generator never had 2 concurrent tenants (peak {peak})");

    let report = service.report();
    assert_eq!(report.records().len(), jobs, "every job must file a ledger record");

    let total_ops: u64 = report.records().iter().map(TenantRecord::total_io_ops).sum();
    let rows: Vec<Row> = report
        .records()
        .iter()
        .map(|r| Row {
            id: r.name.clone(),
            variant: format!("service tenant v={} D={D}", r.v),
            n: r.v,
            io_ops: r.total_io_ops(),
            predicted: 0.0,
            lambda: r.stages.iter().map(|s| s.lambda).sum(),
            utilization: 0.0,
            wall_ms: r.stages.iter().map(|s| s.wall.as_secs_f64() * 1e3).sum(),
            note: format!("fingerprint {:08x}", r.state_fingerprint),
        })
        .collect();
    let config = format!(
        "service D={D} B={B} tracks/tenant={TRACKS_PER_TENANT} mu={MU} gamma={GAMMA} workers={workers}"
    );
    let complete = seed_arg.or(jobs_arg).or(workers_arg).is_none();
    let path = write_bench_json("traffic", master_seed, smoke, complete, &config, &rows)
        .expect("writing BENCH_traffic.json");

    let summary = format!(
        "traffic: {jobs} jobs as concurrent tenants (peak {peak} in flight; shared media: \
         {} transfers, {} stripe slots, {} contended), \
         {total_ops} counted parallel I/O ops, all bit-identical to solo runs -> {}",
        service.transfers(),
        service.slots_granted(),
        service.contended(),
        path.display()
    );
    if json {
        print!("{}", report.deterministic_json());
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
}
