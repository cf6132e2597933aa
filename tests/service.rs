//! Multi-tenant service contract tests (DESIGN.md §3.2.8):
//!
//! * **Metering invariant** — a tenant's counted per-stage `IoStats` and
//!   final-state fingerprint are bit-identical to the same job run solo
//!   on a private `DiskArray`, even with concurrent co-tenants hammering
//!   the shared substrate — a flaky one absorbing transients on a
//!   retrying simulator and a dying one quarantined among them.
//! * **Admission control** — over-budget μ reservations, γ envelope
//!   overflow and track-region exhaustion are rejected with the right
//!   typed [`AdmissionError`] and never disturb admitted tenants; hostile
//!   specs (declarations up to `usize::MAX`, wrong machines) are refused
//!   or run to a typed result, never a panic.
//! * **Ledger determinism** — identically-seeded service runs serialize
//!   to byte-identical `ServiceReport` ledgers regardless of admission
//!   interleaving.
//! * **Re-entrancy** — the constructor/run split of the simulators: one
//!   simulator value executes many runs, on built or borrowed arrays.
//! * **Footprint within reservation** — what a job's stages use of its
//!   tenant's region ([`em_service::TenantRecord::footprint_tracks`]) stays
//!   within the tracks the tenant reserved.

use em_algos::permute::cgm_permute;
use em_algos::prefix::cgm_prefix_sums;
use em_algos::sort::cgm_sort;
use em_algos::transpose::cgm_transpose;
use em_algos::{AlgoError, AlgoResult};
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_core::{CostReport, EmMachine, ParEmSimulator, SeqEmSimulator};
use em_disk::{FaultPlan, IoStats, RetryPolicy};
use em_service::{
    AdmissionError, JobSpec, ServiceConfig, ServiceError, SimService, SoloRunner, TenantOutcome,
    TenantRecord,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Barrier;

const D: usize = 2;
const B: usize = 512;

fn machine() -> EmMachine {
    EmMachine::uniprocessor(1 << 16, D, B, 1)
}

fn service(tracks: usize, budget: usize) -> SimService {
    SimService::new(ServiceConfig::new(D, B, tracks, budget))
}

fn spec(name: &str, seed: u64, v: usize) -> JobSpec {
    JobSpec::new(name, seed, machine(), v).with_budgets(1 << 14, 1 << 14).with_tracks(512)
}

fn input(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// One Group-A stage of `n` seeded items: sample sort, permutation
/// routing, prefix sums or an `n / 8 × 8` transpose, by `kind` modulo four.
fn stage<E: Executor>(
    exec: &E,
    kind: usize,
    v: usize,
    n: usize,
    seed: u64,
) -> AlgoResult<Vec<u64>> {
    let items = input(n, seed);
    match kind % 4 {
        0 => cgm_sort(exec, v, items),
        1 => {
            let mut perm: Vec<usize> = (0..items.len()).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(seed));
            cgm_permute(exec, v, items, &perm)
        }
        2 => cgm_prefix_sums(exec, v, items),
        _ => cgm_transpose(exec, v, n / 8, 8, items),
    }
}

/// All four stage kinds in turn, starting at `first`.
fn pipeline<E: Executor>(exec: &E, first: usize, v: usize, seed: u64) -> Vec<Vec<u64>> {
    (first..first + 4).map(|kind| stage(exec, kind, v, 192, seed ^ kind as u64).unwrap()).collect()
}

/// A completed tenant against its solo run: every stage's counted `IoStats`
/// but `retried_blocks`, λ and I/O time equal, the fingerprint equal, and
/// the stages' retried blocks summing to the transients its plan injected
/// (the solo run has neither faults nor a retry layer).
fn assert_matches_solo(
    name: &str,
    record: &TenantRecord,
    solo: &[CostReport],
    fp: u32,
    transients: u64,
) {
    assert!(matches!(record.outcome, TenantOutcome::Completed), "{name}: not completed");
    assert_eq!(record.stages.len(), solo.len(), "{name}: stage count");
    for (i, (svc, solo)) in record.stages.iter().zip(solo).enumerate() {
        let io = IoStats { retried_blocks: solo.io.retried_blocks, ..svc.io.clone() };
        assert_eq!(io, solo.io, "{name} stage {i}: counted IoStats differ");
        assert_eq!(svc.lambda, solo.lambda, "{name} stage {i}: lambda differs");
        assert_eq!(svc.io_time, solo.io_time, "{name} stage {i}: io_time differs");
    }
    let retried: u64 = record.stages.iter().map(|s| s.io.retried_blocks).sum();
    assert_eq!(retried, transients, "{name}: retried blocks differ from the injected transients");
    assert_eq!(record.state_fingerprint, fp, "{name}: fingerprint differs");
}

/// Whether a stage failed with the lease's quarantine error.
fn quarantined(result: AlgoResult<Vec<u64>>) -> bool {
    match result {
        Err(AlgoError::Exec(e)) => {
            matches!(e.downcast_ref::<ServiceError>(), Some(ServiceError::Quarantined { .. }))
        }
        _ => false,
    }
}

/// Six healthy tenants, one flaky tenant whose transients its retrying
/// simulator absorbs, and one that dies, all admitted before any runs.
/// Each runs the four Group-A stages from its own starting kind while the
/// others interleave on the shared media; every surviving record equals the
/// same job run solo on a private array, and the dead tenant is quarantined
/// for good.
#[test]
fn concurrent_tenants_are_bit_identical_to_solo_runs() {
    const HEALTHY: usize = 6;
    const TENANTS: usize = HEALTHY + 2;
    let v = 8;
    let service = service(4096, 1 << 24);
    let gate = Barrier::new(TENANTS);
    let all_admitted = || {
        gate.wait();
        assert_eq!(service.active_tenants(), TENANTS);
        gate.wait();
    };
    // The solo reference: the pipeline on a private array, no faults.
    let solo = |first: usize, seed: u64| {
        let solo = SoloRunner::new(SeqEmSimulator::new(machine()).with_seed(seed));
        let out = pipeline(&solo, first, v, seed);
        let (stages, fp) = solo.finish();
        (out, stages, fp)
    };

    std::thread::scope(|scope| {
        for i in 0..HEALTHY {
            let (service, all_admitted) = (&service, &all_admitted);
            scope.spawn(move || {
                let (name, seed) = (format!("job-{i}"), 100 + i as u64);
                let (solo_out, solo_stages, solo_fp) = solo(i, seed);
                let lease = service.admit(spec(&name, seed, v)).unwrap();
                all_admitted();
                assert_eq!(pipeline(&lease, i, v, seed), solo_out, "{name}: outputs differ");
                assert_matches_solo(&name, &lease.complete(), &solo_stages, solo_fp, 0);
            });
        }
        scope.spawn(|| {
            let seed = 200;
            let (solo_out, solo_stages, solo_fp) = solo(HEALTHY, seed);
            let plan = FaultPlan::none().with_transient(0, 3).with_transient(1, 9);
            let sim =
                SeqEmSimulator::new(machine()).with_seed(seed).with_retry(RetryPolicy::new(4));
            let flaky = spec("flaky", seed, v).with_fault_plan(plan);
            let lease = service.admit_with(flaky, sim).unwrap();
            all_admitted();
            assert_eq!(pipeline(&lease, HEALTHY, v, seed), solo_out, "flaky: outputs differ");
            assert_matches_solo("flaky", &lease.complete(), &solo_stages, solo_fp, 2);
        });
        scope.spawn(|| {
            let plan = FaultPlan::none().with_worker_death(0, 5);
            let lease = service.admit(spec("death", 300, v).with_fault_plan(plan)).unwrap();
            all_admitted();
            assert!(quarantined(stage(&lease, 0, v, 192, 300)), "death: not quarantined");
            assert!(quarantined(stage(&lease, 2, v, 192, 301)), "death: quarantine not sticky");
            let record = lease.complete();
            assert!(matches!(record.outcome, TenantOutcome::Quarantined { .. }));
        });
    });

    let report = service.report();
    assert_eq!(report.records().len(), TENANTS);
    let completed =
        report.records().iter().filter(|r| matches!(r.outcome, TenantOutcome::Completed));
    assert_eq!(completed.count(), TENANTS - 1, "only the dead tenant is quarantined");
    assert_eq!(service.active_tenants(), 0);
    assert_eq!(service.reserved_bytes(), 0);
    assert_eq!(service.tracks_free(), 4096);
}

#[test]
fn over_budget_mu_is_rejected_without_disturbing_admitted_tenants() {
    // Budget fits one declared v*mu+gamma reservation, not two.
    let one = 8 * (1 << 14) + (1 << 14);
    let service = service(4096, one + one / 2);
    let admitted = service.admit(spec("resident", 7, 8)).unwrap();

    let err = service.admit(spec("greedy", 8, 8)).unwrap_err();
    assert!(matches!(err, AdmissionError::BudgetExceeded { .. }));

    // The resident tenant still runs and meters exactly like a solo run.
    let solo = SoloRunner::new(SeqEmSimulator::new(machine()).with_seed(7));
    let expect = cgm_sort(&solo, 8, input(200, 7)).unwrap();
    let got = cgm_sort(&admitted, 8, input(200, 7)).unwrap();
    assert_eq!(got, expect);
    let (solo_stages, solo_fp) = solo.finish();
    let record = admitted.complete();
    assert_eq!(record.stages[0].io, solo_stages[0].io);
    assert_eq!(record.state_fingerprint, solo_fp);
}

#[test]
fn gamma_envelope_overflow_is_rejected_at_admission() {
    let service =
        SimService::new(ServiceConfig::new(D, B, 4096, 1 << 24).with_max_comm_bytes(1 << 10));
    let resident = service
        .admit(
            JobSpec::new("resident", 1, machine(), 4)
                .with_budgets(1 << 12, 1 << 10)
                .with_tracks(256),
        )
        .unwrap();

    let err = service
        .admit(
            JobSpec::new("chatty", 2, machine(), 4)
                .with_budgets(1 << 12, (1 << 10) + 1)
                .with_tracks(256),
        )
        .unwrap_err();
    assert!(
        matches!(err, AdmissionError::CommEnvelopeExceeded { gamma, max } if gamma == (1 << 10) + 1 && max == 1 << 10)
    );

    // Rejection held no resources.
    assert_eq!(service.active_tenants(), 1);
    resident.complete();
    assert_eq!(service.active_tenants(), 0);
}

#[test]
fn region_exhaustion_is_rejected_and_rolls_back_cleanly() {
    let service = service(1024, 1 << 24);
    let resident = service.admit(spec("resident", 3, 8).with_tracks(800)).unwrap();
    let reserved = service.reserved_bytes();

    let err = service.admit(spec("big", 4, 8).with_tracks(400)).unwrap_err();
    assert!(matches!(err, AdmissionError::RegionExhausted { requested: 400, free: 224 }));
    // The failed admission leaked neither budget nor slots nor tracks.
    assert_eq!(service.reserved_bytes(), reserved);
    assert_eq!(service.active_tenants(), 1);
    assert_eq!(service.tracks_free(), 224);

    // A right-sized job still fits alongside the resident.
    let small = service.admit(spec("small", 5, 8).with_tracks(224)).unwrap();
    small.complete();
    resident.complete();
    assert_eq!(service.tracks_free(), 1024);
}

/// Runs `property` on 200 cases, each on its own seeded generator; a
/// failing case prints the seed that reproduces it.
fn cases(property: impl Fn(&mut StdRng)) {
    struct Seed(u64);
    impl Drop for Seed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing case: StdRng::seed_from_u64({:#x})", self.0);
            }
        }
    }
    for case in 0..200 {
        let seed = Seed(0x5E41 ^ case);
        property(&mut StdRng::seed_from_u64(seed.0));
    }
}

/// Hostile job specs next to a resident tenant: `v`, μ, γ and tracks each
/// drawn from {0, 1, small, `usize::MAX / 2`, `usize::MAX`}; one case in
/// eight on a machine of the wrong `D`, one of the wrong `B`, one with
/// p = 0. Each admission is a typed refusal or a lease whose stage ends in
/// a typed result; the pool is back where it was after each case, and the
/// resident still meters exactly like its solo run.
#[test]
fn hostile_job_specs_are_refused_or_run_typed() {
    let service = service(4096, 1 << 24);
    let resident = service.admit(spec("resident", 7, 8)).unwrap();
    let pool = || (service.reserved_bytes(), service.active_tenants(), service.tracks_free());
    let before = pool();
    cases(|rng| {
        let mut draw =
            |small: usize| [0, 1, small, usize::MAX / 2, usize::MAX][rng.gen_range(0..5usize)];
        let (v, mu, gamma, tracks) = (draw(4), draw(64), draw(64), draw(64));
        let mut machine = machine();
        match rng.gen_range(0..8u32) {
            0 => machine.d = [0, D + 1, usize::MAX][rng.gen_range(0..3usize)],
            1 => machine.b_bytes = [0, B / 2, usize::MAX][rng.gen_range(0..3usize)],
            2 => machine.p = 0,
            _ => {}
        }
        let spec = JobSpec::new("hostile", rng.next_u64(), machine, v)
            .with_budgets(mu, gamma)
            .with_tracks(tracks);
        let tag = format!("v {v}, mu {mu}, gamma {gamma}, tracks {tracks}, {machine:?}");
        if let Ok(lease) = service.admit(spec) {
            let states: Vec<u64> = (1..=v.min(8) as u64).collect();
            let tripled: Vec<u64> = states.iter().map(|x| x * 3).collect();
            match lease.execute(&Scale(3), states) {
                Ok(res) => assert_eq!(res.states, tripled, "{tag}"),
                Err(e) => assert!(e.downcast_ref::<ServiceError>().is_some(), "{tag}: {e}"),
            }
            lease.complete();
        }
        assert_eq!(pool(), before, "{tag}: the pool moved");
    });

    let solo = SoloRunner::new(SeqEmSimulator::new(machine()).with_seed(7));
    assert_eq!(
        cgm_sort(&resident, 8, input(200, 7)).unwrap(),
        cgm_sort(&solo, 8, input(200, 7)).unwrap()
    );
    let (solo_stages, solo_fp) = solo.finish();
    assert_matches_solo("resident", &resident.complete(), &solo_stages, solo_fp, 0);
    assert_eq!(pool(), (0, 0, 4096));
}

#[test]
fn ledger_is_byte_identical_across_identically_seeded_runs() {
    let run = || {
        let service = service(4096, 1 << 24);
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let service = service.clone();
                scope.spawn(move || {
                    let lease = service.admit(spec(&format!("t{i}"), i, 8)).unwrap();
                    cgm_sort(&lease, 8, input(150, i)).unwrap();
                    lease.complete();
                });
            }
        });
        service.report().deterministic_json()
    };
    let first = run();
    assert!(!first.is_empty());
    assert_eq!(first, run(), "ServiceReport ledger must not depend on scheduling");
}

struct Scale(u64);
impl BspProgram for Scale {
    type State = u64;
    type Msg = u64;
    fn superstep(&self, _: usize, _: &mut Mailbox<u64>, s: &mut u64) -> Step {
        *s *= self.0;
        Step::Halt
    }
    fn max_state_bytes(&self) -> usize {
        8
    }
}

#[test]
fn simulators_are_reentrant_and_run_on_borrowed_arrays() {
    // One simulator value, many runs: no consumed-on-run state.
    let sim = SeqEmSimulator::new(machine()).with_seed(11);
    let (a, ra) = sim.run(&Scale(2), vec![1, 2, 3, 4]).unwrap();
    let (b, rb) = sim.run(&Scale(2), vec![1, 2, 3, 4]).unwrap();
    assert_eq!(a.states, b.states);
    assert_eq!(ra.io, rb.io);

    // run() == build_disks() + run_on(), and a reused array stays a
    // clean per-run meter.
    let mut disks = sim.build_disks().unwrap();
    let (c, rc) = sim.run_on(&mut disks, &Scale(2), vec![1, 2, 3, 4]).unwrap();
    let (d, rd) = sim.run_on(&mut disks, &Scale(3), vec![1, 2, 3, 4]).unwrap();
    assert_eq!(c.states, a.states);
    assert_eq!(rc.io, ra.io);
    assert_eq!(d.states, vec![3, 6, 9, 12]);
    assert_eq!(rd.io, rc.io, "identical-shape runs meter identically on a reused array");

    // A shape-mismatched array is a typed error, not a corruption.
    let other = SeqEmSimulator::new(EmMachine::uniprocessor(1 << 16, 4, B, 1));
    let mut wrong = other.build_disks().unwrap();
    assert!(sim.run_on(&mut wrong, &Scale(2), vec![1]).is_err());

    // The parallel simulator has the same split.
    let mut pm = machine();
    pm.p = 2;
    pm.router = em_bsp::BspStarParams { p: 2, g: 1.0, b: B, l: 1.0 };
    let psim = ParEmSimulator::new(pm).with_seed(11);
    let (e, _) = psim.run(&Scale(2), (0..8u64).collect()).unwrap();
    let arrays = psim.build_disks().unwrap();
    let (f, _) = psim.run_on(arrays, &Scale(2), (0..8u64).collect()).unwrap();
    assert_eq!(e.states, f.states);
    // Wrong array count is a typed error.
    let mut arrays = psim.build_disks().unwrap();
    arrays.pop();
    assert!(psim.run_on(arrays, &Scale(2), (0..8u64).collect()).is_err());
}

/// The benchmark's `service-mix` job pool — sort, permute, prefix sums and
/// transpose at seven sizes each, for `v` = 8 and 16 — on its machine,
/// budgets and per-tenant reservation: every job's footprint stays within
/// the tracks its tenant reserved, which admission leaves as declared.
#[test]
fn service_mix_jobs_stay_within_their_reserved_tracks() {
    const TRACKS: usize = 2048;
    const BUDGET: usize = 64 << 10;
    let machine = EmMachine::uniprocessor(128 << 10, 2, 1024, 1);
    let service = SimService::new(ServiceConfig::new(2, 1024, TRACKS + 64, BUDGET * 64 + BUDGET));
    let mut largest = (0, String::new());
    for v in [8, 16] {
        for size in 0..7 {
            let n = 512 + size * 256;
            for (kind, name) in ["sort", "permute", "prefix", "transpose"].iter().enumerate() {
                let name = format!("{name}-{n}-v{v}");
                let seed = (n * v) as u64;
                let spec = JobSpec::new(name.clone(), seed, machine, v)
                    .with_budgets(BUDGET, BUDGET)
                    .with_tracks(TRACKS);
                let lease = service.admit(spec).unwrap();
                assert!(stage(&lease, kind, v, n, seed).is_ok(), "{name} failed");
                let record = lease.complete();
                assert_eq!(record.tracks, TRACKS, "{name}: admission reserves what was asked");
                let used = record.footprint_tracks();
                assert!(used > 0 && used <= record.tracks, "{name}: {used} of {TRACKS} tracks");
                largest = largest.max((used, name));
            }
        }
    }
    println!(
        "largest footprint: {} of {TRACKS} reserved tracks a drive ({})",
        largest.0, largest.1
    );
}
