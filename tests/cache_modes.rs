//! Block-cache differential tests: [`em_disk::BlockCacheBackend`] enabled
//! via `with_cache` must be **byte-for-byte** indistinguishable from a
//! cache-off run — same final outputs, same message ledger, same counted
//! I/O (total and per phase, with only the two absorbed-traffic tallies
//! `cache_hit_blocks`/`cache_absorbed_writes` masked), and the same bytes
//! on the drive files — across both EM simulators, both pipeline modes,
//! and under seeded fault injection with retries and superstep replay.
//!
//! The cache sits *above* the retry/checksum/fault layers, so enabling it
//! changes the raw per-drive operation sequence those layers see. The
//! cross-cache fault lane therefore pins its faults as transients at low
//! per-drive op indices that both runs are guaranteed to consume, with a
//! retry budget that absorbs every one — the only regime in which the
//! `FaultReport` itself is comparable bit for bit. A separate test drives
//! the superstep-replay path through a warm cache.

use em_algos::sort::cgm_sort;
use em_bsp::{BspStarParams, CommLedger};
use em_core::{CostReport, EmMachine, ParEmSimulator, PhaseIo, Recording, SeqEmSimulator};
use em_disk::{IoStats, Pipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const V: usize = 8;

/// Seeded-fault-schedule seed for the replay test, externally sweepable
/// via `EM_SIM_FAULT_SEED` (decimal or `0x`-hex) like the
/// `tests/fault_recovery.rs` suite; its assertions are unconditional, so
/// quiet sweep seeds stay green.
fn fault_seed() -> u64 {
    match std::env::var("EM_SIM_FAULT_SEED") {
        Ok(raw) => {
            let s = raw.trim();
            s.strip_prefix("0x")
                .map(|hex| u64::from_str_radix(hex, 16))
                .unwrap_or_else(|| s.parse())
                .expect("EM_SIM_FAULT_SEED must be decimal or 0x-hex")
        }
        Err(_) => 0xF16,
    }
}

/// Cache capacities under test: one barely past a single track (heavy
/// deterministic eviction) and one holding the whole working set.
const CACHES: [usize; 2] = [2 * 256, 1 << 16];

/// A machine small enough that the EM simulators page contexts in groups.
fn em_machine(p: usize) -> EmMachine {
    EmMachine {
        p,
        m_bytes: 1 << 16,
        d: 4,
        b_bytes: 256,
        g_io: 1,
        router: BspStarParams { p, g: 1.0, b: 256, l: 1.0 },
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory for one file-backed run.
fn scratch_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("em-cache-modes-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything about a run that must not depend on the cache knob: the
/// per-stage counted I/O (cache tallies masked out), the per-phase
/// operation counts, the message ledger, λ, and the raw bytes left on the
/// drive files after the final barrier flush.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    io: Vec<IoStats>,
    phases: Vec<PhaseIo>,
    comm: Vec<CommLedger>,
    lambda: Vec<usize>,
    drive_bytes: Vec<(String, Vec<u8>)>,
}

fn fingerprint(reports: &[CostReport], dir: &Path) -> Fingerprint {
    Fingerprint {
        io: reports
            .iter()
            .map(|r| {
                let mut io = r.io.clone();
                io.cache_hit_blocks = 0;
                io.cache_absorbed_writes = 0;
                io
            })
            .collect(),
        phases: reports.iter().map(|r| r.phases.clone()).collect(),
        comm: reports.iter().map(|r| r.comm.clone()).collect(),
        lambda: reports.iter().map(|r| r.lambda).collect(),
        drive_bytes: drive_bytes(dir),
    }
}

/// All regular files under `dir` (recursively), path-sorted, with their
/// contents. The simulators sync — and the cache therefore flushes — at
/// every superstep boundary, so after `run()` the files hold the final
/// committed image with no dirty block left behind.
fn drive_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&p).unwrap()));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn assert_fingerprints_match(base: &Fingerprint, got: &Fingerprint, what: &str) {
    assert_eq!(got.io, base.io, "{what}: counted IoStats diverged");
    assert_eq!(got.phases, base.phases, "{what}: per-phase op counts diverged");
    assert_eq!(got.comm, base.comm, "{what}: message ledger diverged");
    assert_eq!(got.lambda, base.lambda, "{what}: λ diverged");
    // Compare drive bytes without letting a failure dump whole drive files.
    let base_names: Vec<&str> = base.drive_bytes.iter().map(|(n, _)| n.as_str()).collect();
    let got_names: Vec<&str> = got.drive_bytes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got_names, base_names, "{what}: drive file set diverged");
    for ((name, b), (_, g)) in base.drive_bytes.iter().zip(&got.drive_bytes) {
        assert!(g == b, "{what}: drive file {name} bytes diverged");
    }
}

/// The full lane matrix: cache {off, small, working-set} × both simulators
/// × pipeline {`Off`, `Stream(1)`, `Stream(2)`, `Stream(8)`} on a sort
/// workload over a file backend, requiring identical outputs and identical
/// [`Fingerprint`]s, and requiring the cached lanes to actually absorb
/// traffic (hits and buffered writes both nonzero).
#[test]
fn sort_fingerprint_is_cache_invariant() {
    let mut rng = StdRng::seed_from_u64(300);
    let items: Vec<u64> = (0..500).map(|_| rng.gen_range(0..4000)).collect();

    for pipeline in [Pipeline::Off, Pipeline::Stream(1), Pipeline::Stream(2), Pipeline::Stream(8)] {
        // Uniprocessor simulator.
        let run_seq = |cache: usize| {
            let dir = scratch_dir();
            let rec = Recording::new(
                SeqEmSimulator::new(em_machine(1))
                    .with_seed(77)
                    .with_pipeline(pipeline)
                    .with_cache(cache)
                    .with_file_backend(&dir),
            );
            let out = cgm_sort(&rec, V, items.clone()).unwrap();
            let reports = rec.take_reports();
            let absorbed: u64 = reports.iter().map(|r| r.io.cache_absorbed_writes).sum();
            let hits: u64 = reports.iter().map(|r| r.io.cache_hit_blocks).sum();
            let fp = fingerprint(&reports, &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp, hits, absorbed)
        };
        let (base_out, base_fp, hits, absorbed) = run_seq(0);
        assert_eq!((hits, absorbed), (0, 0), "cache-off run must tally nothing");
        for cache in CACHES {
            let what = format!("sort: seq sim, {pipeline:?}, cache={cache}B");
            let (out, fp, hits, absorbed) = run_seq(cache);
            assert_eq!(out, base_out, "{what}: output diverged");
            assert_fingerprints_match(&base_fp, &fp, &what);
            // A working-set-sized cache must see read hits; the 2-track
            // one may thrash its way to zero, but both must buffer
            // writes until the barrier.
            if cache >= CACHES[1] {
                assert!(hits > 0, "{what}: expected cache hits");
            }
            assert!(absorbed > 0, "{what}: expected buffered writes");
        }

        // 3-processor simulator.
        let run_par = |cache: usize| {
            let dir = scratch_dir();
            let rec = Recording::new(
                ParEmSimulator::new(em_machine(3))
                    .with_seed(78)
                    .with_pipeline(pipeline)
                    .with_cache(cache)
                    .with_file_backend(&dir),
            );
            let out = cgm_sort(&rec, V, items.clone()).unwrap();
            let reports = rec.take_reports();
            let absorbed: u64 = reports.iter().map(|r| r.io.cache_absorbed_writes).sum();
            let fp = fingerprint(&reports, &dir);
            std::fs::remove_dir_all(&dir).ok();
            (out, fp, absorbed)
        };
        let (base_out, base_fp, absorbed) = run_par(0);
        assert_eq!(absorbed, 0, "cache-off run must tally nothing");
        for cache in CACHES {
            let what = format!("sort: par sim, {pipeline:?}, cache={cache}B");
            let (out, fp, absorbed) = run_par(cache);
            assert_eq!(out, base_out, "{what}: output diverged");
            assert_fingerprints_match(&base_fp, &fp, &what);
            assert!(absorbed > 0, "{what}: expected buffered writes");
        }
    }
}

/// A multi-round diffusion program whose state folds inbox contents
/// non-commutatively, so any cache-induced reordering or lost write is
/// visible in the final states.
struct ChainFold;
impl em_bsp::BspProgram for ChainFold {
    type State = u64;
    type Msg = u64;
    fn superstep(
        &self,
        step: usize,
        mb: &mut em_bsp::Mailbox<u64>,
        state: &mut u64,
    ) -> em_bsp::Step {
        for e in mb.take_incoming() {
            *state = state
                .wrapping_mul(0x0000_0100_0000_01B3)
                .wrapping_add(((e.src as u64) << 32) ^ e.msg);
        }
        let v = mb.nprocs();
        if step < 4 {
            for j in 1..=3u64 {
                mb.send((mb.pid() + j as usize) % v, *state ^ j);
            }
            em_bsp::Step::Continue
        } else {
            em_bsp::Step::Halt
        }
    }
    fn max_state_bytes(&self) -> usize {
        124
    }
    fn max_comm_bytes(&self) -> usize {
        3 * 24
    }
}

/// Cross-cache `FaultReport` identity in the one regime where it is
/// well-defined: transient faults pinned at per-drive op indices low
/// enough that the cache-on and cache-off runs both consume every one,
/// with a retry budget that absorbs them all. On the uniprocessor
/// simulator (a single fault-event stream) final states, the ledger, the
/// counted I/O and the report's injection/retry tallies must then be
/// bit-identical with the cache on or off. On the parallel simulator each
/// worker holds its own copy of the plan's event map, and the cache
/// changes each worker's raw per-drive op sequence — so *which* events
/// fire is legitimately cache-dependent there; the outcome-level contract
/// (states, ledger, masked counted I/O, no replays) must still hold.
#[test]
fn absorbed_transients_report_identically_across_cache_modes() {
    use em_disk::{FaultPlan, RetryPolicy};

    let init: Vec<u64> = (0..V as u64).map(|i| i * 9 + 2).collect();
    // Transients on every drive within the first few raw ops: any run of
    // this workload — cached or not — performs well past 4 raw operations
    // per drive (the initial context distribution alone writes to all of
    // them), so both runs consume the full plan. One event per drive, so
    // a retry (which advances that drive's op sequence) never trips a
    // second event and the budget of 4 absorbs every fault.
    let plan = || {
        FaultPlan::none()
            .with_transient(0, 1)
            .with_transient(1, 2)
            .with_transient(2, 0)
            .with_transient(3, 3)
    };

    for par in [false, true] {
        let run = |cache: usize| {
            if par {
                ParEmSimulator::new(em_machine(3))
                    .with_seed(78)
                    .with_checksums(true)
                    .with_fault_plan(plan())
                    .with_retry(RetryPolicy::new(4))
                    .with_cache(cache)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            } else {
                SeqEmSimulator::new(em_machine(1))
                    .with_seed(77)
                    .with_checksums(true)
                    .with_fault_plan(plan())
                    .with_retry(RetryPolicy::new(4))
                    .with_cache(cache)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            }
        };
        let (base_res, base_report) = run(0);
        let base_faults = base_report.faults.clone().expect("fault run carries a report");
        if !par {
            assert_eq!(base_faults.injected.total(), 4, "all pinned transients must fire");
        }
        assert!(base_faults.injected.total() > 0);
        for cache in CACHES {
            let what = format!("{} sim, cache={cache}B", if par { "par" } else { "seq" });
            let (res, report) = run(cache);
            assert_eq!(res.states, base_res.states, "{what}: final states diverged");
            assert_eq!(res.ledger, base_res.ledger, "{what}: ledger diverged");
            let mut masked = report.io.clone();
            masked.cache_hit_blocks = 0;
            masked.cache_absorbed_writes = 0;
            let base_io = base_report.io.clone();
            if par {
                // Which per-worker events fire is cache-dependent on the
                // parallel simulator (see above), so the uncounted retry
                // telemetry may drift there; everything counted may not.
                masked.retried_blocks = base_io.retried_blocks;
            }
            assert_eq!(masked, base_io, "{what}: counted IoStats diverged");
            let faults = report.faults.expect("fault run carries a report");
            assert!(faults.injected.total() > 0, "{what}: plan must still fire");
            assert_eq!(faults.replays, 0, "{what}: retry budget must absorb every fault");
            assert!(faults.failed_superstep.is_none(), "{what}: run must succeed");
            if !par {
                assert_eq!(faults, base_faults, "{what}: FaultReport diverged");
            }
        }
    }
}

/// Superstep replay through a *warm* cache: a burst of transients
/// mid-run exhausts the retry budget and forces a rollback + replay while
/// cached blocks from earlier supersteps are still resident. The
/// recovered run must match the fault-free reference in final states and
/// counted parallel I/O on both simulators.
#[test]
fn warm_cache_replay_matches_fault_free_run() {
    use em_core::RecoveryPolicy;
    use em_disk::{FaultPlan, RetryPolicy};

    let init: Vec<u64> = (0..V as u64).map(|i| i * 9 + 2).collect();
    let reference = em_bsp::run_sequential(&ChainFold, init.clone()).unwrap().states;

    for cache in CACHES {
        for par in [false, true] {
            let what = format!("{} sim, cache={cache}B", if par { "par" } else { "seq" });
            let build_plan = || FaultPlan::seeded(fault_seed(), 4, 300, 30);
            let (res, report) = if par {
                ParEmSimulator::new(em_machine(3))
                    .with_seed(78)
                    .with_checksums(true)
                    .with_fault_plan(build_plan())
                    .with_retry(RetryPolicy::new(4))
                    .with_recovery(RecoveryPolicy::new(64))
                    .with_cache(cache)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            } else {
                SeqEmSimulator::new(em_machine(1))
                    .with_seed(77)
                    .with_checksums(true)
                    .with_fault_plan(build_plan())
                    .with_retry(RetryPolicy::new(4))
                    .with_recovery(RecoveryPolicy::new(64))
                    .with_cache(cache)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            };
            assert_eq!(res.states, reference, "{what}: recovered states diverged");
            // The clean comparator: same simulator, no faults, no cache.
            let (clean_res, clean_report) = if par {
                ParEmSimulator::new(em_machine(3))
                    .with_seed(78)
                    .with_checksums(true)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            } else {
                SeqEmSimulator::new(em_machine(1))
                    .with_seed(77)
                    .with_checksums(true)
                    .run(&ChainFold, init.clone())
                    .unwrap()
            };
            assert_eq!(res.states, clean_res.states);
            assert_eq!(
                report.io.parallel_ops, clean_report.io.parallel_ops,
                "{what}: retries/replays/cache must not leak into counted parallel I/O"
            );
        }
    }
}
