//! Multi-tenant service contract tests (DESIGN.md §3.2.8):
//!
//! * **Metering invariant** — a tenant's counted per-stage `IoStats` and
//!   final-state fingerprint are bit-identical to the same job run solo
//!   on a private `DiskArray`, even with concurrent co-tenants hammering
//!   the shared substrate.
//! * **Admission control** — over-budget μ reservations, γ envelope
//!   overflow and track-region exhaustion are rejected with the right
//!   typed [`AdmissionError`] and never disturb admitted tenants.
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
use em_bsp::{BspProgram, Mailbox, Step};
use em_core::{EmMachine, ParEmSimulator, SeqEmSimulator};
use em_service::{AdmissionError, JobSpec, ServiceConfig, SimService, SoloRunner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

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

#[test]
fn concurrent_tenants_are_bit_identical_to_solo_runs() {
    let service = service(4096, 1 << 24);
    let jobs: Vec<(String, u64, usize)> =
        (0..6).map(|i| (format!("job-{i}"), 100 + i as u64, 8)).collect();

    std::thread::scope(|scope| {
        for (name, seed, v) in &jobs {
            let service = service.clone();
            scope.spawn(move || {
                // Solo reference on a private array.
                let solo = SoloRunner::new(SeqEmSimulator::new(machine()).with_seed(*seed));
                let solo_sorted = cgm_sort(&solo, *v, input(300, *seed)).unwrap();
                let solo_sums = cgm_prefix_sums(&solo, *v, input(100, seed ^ 1)).unwrap();
                let (solo_stages, solo_fp) = solo.finish();

                // The same two-stage pipeline as a service tenant, with
                // five co-tenants interleaving on the shared media.
                let lease = service.admit(spec(name, *seed, *v)).unwrap();
                let svc_sorted = cgm_sort(&lease, *v, input(300, *seed)).unwrap();
                let svc_sums = cgm_prefix_sums(&lease, *v, input(100, seed ^ 1)).unwrap();
                let record = lease.complete();

                assert_eq!(svc_sorted, solo_sorted, "{name}: sorted output differs");
                assert_eq!(svc_sums, solo_sums, "{name}: prefix sums differ");
                assert_eq!(record.stages.len(), solo_stages.len());
                for (i, (svc, solo)) in record.stages.iter().zip(&solo_stages).enumerate() {
                    assert_eq!(svc.io, solo.io, "{name} stage {i}: counted IoStats differ");
                    assert_eq!(svc.lambda, solo.lambda, "{name} stage {i}: lambda differs");
                }
                assert_eq!(record.state_fingerprint, solo_fp, "{name}: fingerprint differs");
            });
        }
    });

    assert_eq!(service.report().records().len(), jobs.len());
    assert_eq!(service.active_tenants(), 0);
    assert_eq!(service.reserved_bytes(), 0);
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
            for kind in ["sort", "permute", "prefix", "transpose"] {
                let name = format!("{kind}-{n}-v{v}");
                let seed = (n * v) as u64;
                let spec = JobSpec::new(name.clone(), seed, machine, v)
                    .with_budgets(BUDGET, BUDGET)
                    .with_tracks(TRACKS);
                let lease = service.admit(spec).unwrap();
                let items = input(n, seed);
                let ok = match kind {
                    "sort" => cgm_sort(&lease, v, items).is_ok(),
                    "permute" => {
                        let mut perm: Vec<usize> = (0..n).collect();
                        perm.shuffle(&mut StdRng::seed_from_u64(seed));
                        cgm_permute(&lease, v, items, &perm).is_ok()
                    }
                    "prefix" => cgm_prefix_sums(&lease, v, items).is_ok(),
                    _ => cgm_transpose(&lease, v, n / 8, 8, items).is_ok(),
                };
                assert!(ok, "{name} failed");
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
