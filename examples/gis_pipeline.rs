//! A GIS-flavoured geometry pipeline (the application domain the paper's
//! introduction motivates): on one out-of-core point dataset, compute the
//! convex hull, weighted dominance counts, and a batch of predecessor
//! queries — each a Table 1 Group B algorithm — through one recording
//! external-memory simulator, then inspect the accumulated cost.
//!
//! Run with: `cargo run --release --example gis_pipeline`

use em_sim::algos::geometry::dominance::cgm_dominance_counts;
use em_sim::algos::geometry::hull::cgm_convex_hull_with_budget;
use em_sim::algos::geometry::next_element::cgm_predecessor;
use em_sim::algos::geometry::Point2;
use em_sim::core::{EmMachine, Recording, SeqEmSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A draw from a range of signed bounds: one unsigned draw over its width,
/// shifted (what `rng.gen_range(range)` gives, written so that the `rand`
/// stand-in of `scripts/offline-test.sh` compiles it too).
fn signed(rng: &mut StdRng, range: std::ops::Range<i64>) -> i64 {
    range.start + rng.gen_range(0..(range.end - range.start) as u64) as i64
}

fn main() {
    let n = 40_000usize;
    let v = 32;
    let mut rng = StdRng::seed_from_u64(7);

    // Synthetic "city" dataset: points in a disc, with weights (say,
    // population) attached.
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let x = signed(&mut rng, -1_000_000..1_000_001);
        let y = signed(&mut rng, -1_000_000..1_000_001);
        if x * x + y * y <= 1_000_000i64 * 1_000_000 {
            pts.push(Point2::new(x, y));
        }
    }
    let weighted: Vec<(Point2, u64)> = pts.iter().map(|&p| (p, rng.gen_range(1..1000))).collect();

    // One machine, one recording simulator for the whole pipeline.
    let machine = EmMachine::uniprocessor(256 * 1024, 4, 2048, 1);
    let rec = Recording::new(SeqEmSimulator::new(machine).with_seed(7));

    // 1. Convex hull — the service area boundary.
    let hull = cgm_convex_hull_with_budget(&rec, v, pts.clone(), 4096).unwrap();
    println!("convex hull: {} vertices", hull.len());

    // 2. Weighted dominance counts — for every city, the total population
    //    south-west of it.
    let counts = cgm_dominance_counts(&rec, v, &weighted).unwrap();
    let richest = counts.iter().enumerate().max_by_key(|&(_, c)| c).unwrap();
    println!("dominance: city #{} dominates weight {}", richest.0, richest.1);

    // 3. Batched next-element search — snap river gauge readings to the
    //    nearest station at or below them.
    let stations: Vec<i64> = (0..2000).map(|_| signed(&mut rng, -500_000..500_000)).collect();
    let readings: Vec<i64> = (0..10_000).map(|_| signed(&mut rng, -600_000..600_000)).collect();
    let snapped = cgm_predecessor(&rec, v, &stations, &readings).unwrap();
    let hits = snapped.iter().filter(|s| s.is_some()).count();
    println!("next-element: {hits}/{} readings snapped", readings.len());

    // The bill for the whole pipeline.
    println!("\npipeline cost across {} stages:", rec.reports.lock().len());
    println!(
        "  {} parallel I/O operations, λ = {}, charged I/O time = {}",
        rec.total_io_ops(),
        rec.total_lambda(),
        rec.total_io_time()
    );
    for (i, r) in rec.take_reports().iter().enumerate() {
        println!("  stage {i}: {}", r.summary());
    }
}
