//! End-to-end on *real files*: the simulators run full algorithm
//! pipelines against the file backend and produce the same results as the
//! in-memory reference, and the backing files actually carry the data.

use em_bsp::{BspStarParams, SeqExecutor};
use em_core::{EmMachine, ParEmSimulator, Recording, SeqEmSimulator};
use em_disk::{Block, DiskArray, DiskConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("em-sim-it-{}-{name}", std::process::id()))
}

#[test]
fn sort_on_file_backend_matches_reference() {
    let dir = tmp("sort");
    let mut rng = StdRng::seed_from_u64(1);
    let items: Vec<u64> = (0..30_000).map(|_| rng.next_u64()).collect();
    let want = em_algos::sort::cgm_sort(&SeqExecutor, 16, items.clone()).unwrap();

    let machine = EmMachine::uniprocessor(64 * 1024, 4, 1024, 1);
    let rec = Recording::new(SeqEmSimulator::new(machine).with_file_backend(&dir));
    let got = em_algos::sort::cgm_sort(&rec, 16, items).unwrap();
    assert_eq!(got, want);

    // The disk files exist and are non-trivial.
    let mut total = 0u64;
    for entry in std::fs::read_dir(&dir).unwrap() {
        total += entry.unwrap().metadata().unwrap().len();
    }
    assert!(total > 200_000, "disk files should hold the dataset, got {total} bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_file_backend_pipeline() {
    let dir = tmp("par");
    let machine = EmMachine {
        p: 3,
        m_bytes: 64 * 1024,
        d: 2,
        b_bytes: 1024,
        g_io: 1,
        router: BspStarParams { p: 3, g: 1.0, b: 1024, l: 1.0 },
    };
    let rec = Recording::new(ParEmSimulator::new(machine).with_file_backend(&dir));
    let succ = em_algos::graph::list_ranking::random_chain(5000, 9);
    let w = vec![1u64; 5000];
    let got = em_algos::graph::list_ranking::cgm_list_rank(&rec, 12, &succ, &w).unwrap();
    let want = em_algos::graph::list_ranking::seq_list_rank(&succ, &w);
    assert_eq!(got, want);
    // One directory per real processor.
    for i in 0..3 {
        assert!(dir.join(format!("proc-{i}")).is_dir(), "proc-{i} disks missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reruns_on_same_seed_are_identical_including_io_counts() {
    let machine = EmMachine::uniprocessor(32 * 1024, 4, 512, 1);
    let items: Vec<u64> = (0..5_000).map(|i| i * 2654435761 % 100_000).collect();
    let run = |seed: u64| {
        let rec = Recording::new(SeqEmSimulator::new(machine).with_seed(seed));
        let out = em_algos::sort::cgm_sort(&rec, 16, items.clone()).unwrap();
        (out, rec.total_io_ops())
    };
    let (a_out, a_ops) = run(42);
    let (b_out, b_ops) = run(42);
    assert_eq!(a_out, b_out);
    assert_eq!(a_ops, b_ops, "same seed must give identical I/O traces");
    let (_, c_ops) = run(43);
    // Different seed: same result, possibly different op count (random π).
    assert!(c_ops > 0);
}

/// Drive the same seeded stripe workload against a memory array and a
/// file array, returning the final stats plus every block read back along
/// the way.
fn seeded_stripe_workload(arr: &mut DiskArray, seed: u64) -> (em_disk::IoStats, Vec<Vec<u8>>) {
    let d = arr.num_disks();
    let b = arr.block_bytes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut read_back = Vec::new();
    for round in 0..40 {
        // A full-width write stripe with seeded contents...
        let track = rng.gen_range(0..16usize);
        let writes: Vec<(usize, usize, Block)> = (0..d)
            .map(|disk| {
                let mut data = vec![0u8; b];
                for word in data.chunks_mut(8) {
                    word.copy_from_slice(&rng.next_u64().to_le_bytes()[..word.len()]);
                }
                (disk, track, Block::from_vec(data))
            })
            .collect();
        arr.write_stripe(&writes).unwrap();
        // ...then a partial read stripe (some drives idle, some tracks
        // never written — those must read back as zeros everywhere).
        let width = rng.gen_range(1..=d);
        let addrs: Vec<(usize, usize)> =
            (0..width).map(|disk| (disk, rng.gen_range(0..20usize))).collect();
        for block in arr.read_stripe(&addrs).unwrap() {
            read_back.push(block.as_bytes().to_vec());
        }
        if round % 8 == 0 {
            arr.sync().unwrap();
        }
    }
    arr.sync().unwrap();
    (arr.stats().clone(), read_back)
}

// Each contract below runs on one drive and on several.

#[test]
fn cross_backend_differential_stats_and_bytes() {
    let seed = 0xD1FFu64;
    for d in [1, 4] {
        let cfg = DiskConfig::new(d, 512).unwrap();
        let mut mem = DiskArray::new_memory(cfg);
        let (mem_stats, mem_reads) = seeded_stripe_workload(&mut mem, seed);
        let dir = tmp(&format!("diff-{d}"));
        let mut arr = DiskArray::new_file(cfg, &dir).unwrap();
        let (file_stats, file_reads) = seeded_stripe_workload(&mut arr, seed);
        let used: Vec<usize> = (0..d).map(|disk| arr.tracks_used(disk)).collect();
        drop(arr); // close the drive files before inspecting them

        // Identical counted IoStats and identical data on both backends.
        assert_eq!(mem_stats, file_stats, "{d} drives: memory vs file IoStats diverge");
        assert_eq!(mem_reads, file_reads, "{d} drives: memory vs file bytes diverge");
        assert_eq!(used, (0..d).map(|disk| mem.tracks_used(disk)).collect::<Vec<_>>());

        // The drive files hold, track for track, what the memory drives hold.
        for (disk, &tracks) in used.iter().enumerate() {
            let file = std::fs::read(dir.join(format!("disk-{disk}.bin"))).unwrap();
            assert_eq!(file.len(), tracks * 512, "{d} drives: drive {disk} length");
            for (track, bytes) in file.chunks(512).enumerate() {
                let held = mem.read_stripe(&[(disk, track)]).unwrap();
                assert_eq!(held[0].as_bytes(), bytes, "{d} drives: drive {disk} track {track}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn simulator_iostats_identical_across_backends_and_io_modes() {
    let items: Vec<u64> = (0..8_000).map(|i| i * 2654435761 % 100_000).collect();
    for d in [1, 4] {
        let machine = EmMachine::uniprocessor(32 * 1024, d, 512, 1);
        let run = |sim: SeqEmSimulator| {
            let rec = Recording::new(sim.with_seed(7));
            let out = em_algos::sort::cgm_sort(&rec, 16, items.clone()).unwrap();
            let reports = rec.take_reports();
            let stats: Vec<em_disk::IoStats> = reports.into_iter().map(|r| r.io).collect();
            (out, stats)
        };
        let (mem_out, mem_stats) = run(SeqEmSimulator::new(machine));
        let dir = tmp(&format!("sim-{d}"));
        let (file_out, file_stats) = run(SeqEmSimulator::new(machine).with_file_backend(&dir));
        assert_eq!(mem_out, file_out, "{d} drives");
        assert_eq!(mem_stats, file_stats, "{d} drives: memory vs file simulator IoStats diverge");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn parallel_simulator_iostats_identical_across_io_modes() {
    let items: Vec<u64> = (0..6_000).map(|i| i * 2654435761 % 50_000).collect();
    for d in [1, 2] {
        let machine = EmMachine {
            p: 2,
            m_bytes: 32 * 1024,
            d,
            b_bytes: 512,
            g_io: 1,
            router: BspStarParams { p: 2, g: 1.0, b: 512, l: 1.0 },
        };
        let run = |sim: ParEmSimulator| {
            let rec = Recording::new(sim.with_seed(3));
            let out = em_algos::sort::cgm_sort(&rec, 16, items.clone()).unwrap();
            (out, rec.total_io_ops())
        };
        let (mem_out, mem_ops) = run(ParEmSimulator::new(machine));
        let dir = tmp(&format!("psim-{d}"));
        let (file_out, file_ops) = run(ParEmSimulator::new(machine).with_file_backend(&dir));
        assert_eq!(mem_out, file_out, "{d} drives");
        assert_eq!(mem_ops, file_ops, "{d} drives: the backend must not change counted I/O ops");
        std::fs::remove_dir_all(&dir).ok();
    }
}
