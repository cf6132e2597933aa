//! Out-of-core sorting on *real files*: sort a dataset much larger than
//! the configured memory through the file-backed disk array, and compare
//! the simulated CGM sample sort against the hand-crafted Aggarwal–Vitter
//! external merge sort on the same substrate.
//!
//! Run with: `cargo run --release --example out_of_core_sort`

use em_sim::algos::sort::cgm_sort;
use em_sim::baselines::ExternalSort;
use em_sim::core::{EmMachine, Recording, SeqEmSimulator};
use em_sim::disk::{DiskArray, DiskConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

fn main() {
    let n = 400_000usize; // 3.2 MB of records
    let m = 128 * 1024; // 128 KiB of "memory" — 25x smaller than the data
    let d = 4;
    let b = 4096;
    let v = 64;

    let mut rng = StdRng::seed_from_u64(42);
    let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let dir = std::env::temp_dir().join(format!("em-sim-sort-{}", std::process::id()));
    println!("sorting {n} u64 records with M = {m} B on {d} file-backed disks under {dir:?}\n");

    // Hand-crafted baseline on real files.
    let cfg = DiskConfig::new(d, b).unwrap();
    let mut disks = DiskArray::new_file(cfg, dir.join("baseline")).unwrap();
    let t0 = Instant::now();
    let (sorted_av, stats) = ExternalSort { m_bytes: m }.run(&mut disks, items.clone()).unwrap();
    println!(
        "Aggarwal-Vitter merge sort: {} parallel I/Os ({} runs, {} passes, util {:.2}) in {:?}",
        stats.io.parallel_ops,
        stats.runs,
        stats.passes,
        stats.io.utilization(),
        t0.elapsed()
    );

    // The paper's route: take the *parallel* CGM sample sort unchanged and
    // simulate it on the same machine shape.
    let machine = EmMachine::uniprocessor(m, d, b, 1);
    let rec = Recording::new(SeqEmSimulator::new(machine).with_file_backend(dir.join("sim")));
    let t0 = Instant::now();
    let sorted_sim = cgm_sort(&rec, v, items).unwrap();
    let wall = t0.elapsed();
    assert_eq!(sorted_sim, sorted_av);
    let report = rec.take_reports().pop().unwrap();
    println!(
        "simulated CGM sample sort:  {} parallel I/Os (λ = {}, k = {}, util {:.2}) in {:?}",
        report.io.parallel_ops,
        report.lambda,
        report.k,
        report.io.utilization(),
        wall
    );
    println!(
        "\nthe generic simulation costs {:.1}x the hand-tuned sort in I/Os —\n\
         the constant the paper trades for parallelism and generality\n\
         (run the table1 harness to see the p-processor side win it back).",
        report.io.parallel_ops as f64 / stats.io.parallel_ops as f64
    );

    std::fs::remove_dir_all(&dir).ok();
}
