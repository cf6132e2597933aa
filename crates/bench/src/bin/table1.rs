//! Regenerate Table 1: for each problem, the classical sequential EM
//! baseline vs the parallel EM algorithm obtained by the paper's
//! simulation, as counted parallel I/O operations on identical disk
//! substrates.
//!
//! Usage: `table1 [problem] [--json]` where problem ∈ {sort, permute,
//! transpose, hull, maxima3d, dominance, next-element, envelope,
//! rectangles, list-ranking, euler-tour, cc, all}. Sizes can be scaled
//! with `--scale <f>` (default 1.0); `--smoke` is shorthand for a tiny
//! CI-sized scale that keeps every problem and assert on the same code
//! path but finishes in seconds in a debug build.
//!
//! Besides the text table (or `--json` lines on stdout), every invocation
//! writes `BENCH_table1.json` with the seed, machine config and all rows —
//! under `results/` for a run of every problem at scale 1, under
//! `target/bench-results/` otherwise
//! ([`em_bench::report::write_bench_json`]).

use em_bench::measure::{machine, measure_par, measure_seq};
use em_bench::report::{print_json, print_table, reject_unknown_flags, write_bench_json, Row};
use em_bench::workloads::*;
use em_core::theory;
use em_disk::{DiskArray, DiskConfig};

// Benchmark machine shape (per processor).
const M: usize = 1 << 18; // 256 KiB memory
const D: usize = 4; // disks
const B: usize = 2048; // bytes per block
const V: usize = 64; // virtual processors
const P: usize = 4; // real processors for the parallel runs
const SEED: u64 = 0xE1;

fn baseline_disks() -> DiskArray {
    DiskArray::new_memory(DiskConfig::new(D, B).unwrap())
}

fn push_sim_rows(
    rows: &mut Vec<Row>,
    id: &str,
    n: usize,
    n_bytes: u64,
    seq: em_bench::EmRunCost,
    par: em_bench::EmRunCost,
) {
    let pred1 = theory::corollary1_io_time(seq.lambda as u64, 1, n_bytes, 1, D as u64, B as u64);
    rows.push(Row {
        id: id.into(),
        variant: format!("sim EM-CGM p=1 D={D}"),
        n,
        io_ops: seq.io_ops,
        predicted: pred1,
        lambda: seq.lambda,
        utilization: seq.utilization,
        wall_ms: seq.wall_ms,
        note: format!("balance≤{:.2}", seq.worst_balance),
    });
    let predp =
        theory::corollary1_io_time(par.lambda as u64, 1, n_bytes, P as u64, D as u64, B as u64);
    rows.push(Row {
        id: id.into(),
        variant: format!("sim EM-CGM p={P} D={D}"),
        n,
        io_ops: par.io_ops / P as u64,
        predicted: predp,
        lambda: par.lambda,
        utilization: par.utilization,
        wall_ms: par.wall_ms,
        note: format!(
            "per-proc ops; speedup {:.1}x vs p=1",
            seq.io_ops as f64 / (par.io_ops as f64 / P as f64)
        ),
    });
}

fn sort_rows(scale: f64) -> Vec<Row> {
    let n = (200_000_f64 * scale) as usize;
    let items = random_u64(n, SEED);
    let mut rows = Vec::new();

    // Baseline: Aggarwal–Vitter external merge sort.
    let mut disks = baseline_disks();
    let (out, stats) =
        em_baselines::ExternalSort { m_bytes: M }.run(&mut disks, items.clone()).unwrap();
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    rows.push(Row {
        id: "T1-A-sort".into(),
        variant: "seq EM merge sort (AV)".into(),
        n,
        io_ops: stats.io.parallel_ops,
        predicted: theory::av_sort_io_prediction(n as u64, 8, M as u64, D as u64, B as u64),
        lambda: 0,
        utilization: stats.io.utilization(),
        wall_ms: 0.0,
        note: format!("runs={} passes={}", stats.runs, stats.passes),
    });

    // Simulated CGM sample sort, p = 1 and p = P.
    let reference = em_algos::sort::seq_sort(items.clone());
    let (got, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::sort::cgm_sort(rec, V, items.clone()).unwrap()
    });
    assert_eq!(got, reference);
    let (got, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::sort::cgm_sort(rec, V, items.clone()).unwrap()
    });
    assert_eq!(got, reference);
    push_sim_rows(&mut rows, "T1-A-sort", n, (n * 8) as u64, seq, par);
    rows
}

fn permute_rows(scale: f64) -> Vec<Row> {
    let n = (150_000_f64 * scale) as usize;
    let items = random_u64(n, SEED + 1);
    let perm = random_perm(n, SEED + 2);
    let mut rows = Vec::new();

    let mut disks = baseline_disks();
    let (_, stats) = em_baselines::external_permute(&mut disks, M, items.clone(), &perm).unwrap();
    rows.push(Row {
        id: "T1-A-perm".into(),
        variant: "seq EM permute (dest sort)".into(),
        n,
        io_ops: stats.io.parallel_ops,
        predicted: theory::av_sort_io_prediction(n as u64, 16, M as u64, D as u64, B as u64),
        lambda: 0,
        utilization: stats.io.utilization(),
        wall_ms: 0.0,
        note: String::new(),
    });

    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::permute::cgm_permute(rec, V, items.clone(), &perm).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::permute::cgm_permute(rec, V, items.clone(), &perm).unwrap()
    });
    push_sim_rows(&mut rows, "T1-A-perm", n, (n * 16) as u64, seq, par);
    rows
}

fn transpose_rows(scale: f64) -> Vec<Row> {
    let r = (400_f64 * scale.sqrt()) as usize;
    let c = 300;
    let n = r * c;
    let data = random_u64(n, SEED + 3);
    let mut rows = Vec::new();

    let mut disks = baseline_disks();
    let (_, stats) = em_baselines::external_transpose(&mut disks, M, r, c, data.clone()).unwrap();
    rows.push(Row {
        id: "T1-A-trans".into(),
        variant: "seq EM transpose".into(),
        n,
        io_ops: stats.io.parallel_ops,
        predicted: theory::av_sort_io_prediction(n as u64, 16, M as u64, D as u64, B as u64),
        lambda: 0,
        utilization: stats.io.utilization(),
        wall_ms: 0.0,
        note: format!("{r}x{c}"),
    });

    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::transpose::cgm_transpose(rec, V, r, c, data.clone()).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::transpose::cgm_transpose(rec, V, r, c, data.clone()).unwrap()
    });
    push_sim_rows(&mut rows, "T1-A-trans", n, (n * 16) as u64, seq, par);
    rows
}

/// Group B rows share shape: no classical baseline implementation is
/// feasible for every geometry problem, so the baseline column reports the
/// paper's formula `(n/B)·log_{M/B}(n/B)` (single-disk classical bound)
/// evaluated, while measured rows come from the simulation.
fn geometry_rows(scale: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    let nb = |n: usize, rec: usize| (n * rec) as u64;

    // Convex hull.
    let n = (60_000_f64 * scale) as usize;
    let pts = random_points_disc(n, 1_000_000, SEED + 4);
    // Random-disc inputs have O(n^{1/3}) expected hull size; a 4096-point
    // gather budget keeps μ within the benchmark machine's memory.
    let (hull, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::hull::cgm_convex_hull_with_budget(rec, V, pts.clone(), 4096).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::hull::cgm_convex_hull_with_budget(rec, V, pts.clone(), 4096).unwrap()
    });
    rows.push(Row {
        id: "T1-B-hull".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(n as u64, 16, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: format!("hull size {}", hull.len()),
    });
    push_sim_rows(&mut rows, "T1-B-hull", n, nb(n, 16), seq, par);

    // 3D maxima.
    let n = (50_000_f64 * scale) as usize;
    let pts = random_points_3d(n, SEED + 5);
    let (mx, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::maxima3d::cgm_maxima3d(rec, V, pts.clone()).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::maxima3d::cgm_maxima3d(rec, V, pts.clone()).unwrap()
    });
    rows.push(Row {
        id: "T1-B-max3d".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(n as u64, 24, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: format!("maxima {}", mx.len()),
    });
    push_sim_rows(&mut rows, "T1-B-max3d", n, nb(n, 24), seq, par);

    // Weighted dominance counting.
    let n = (40_000_f64 * scale) as usize;
    let pts = random_weighted_points(n, SEED + 6);
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::dominance::cgm_dominance_counts(rec, V, &pts).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::dominance::cgm_dominance_counts(rec, V, &pts).unwrap()
    });
    rows.push(Row {
        id: "T1-B-dom".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(n as u64, 48, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: String::new(),
    });
    push_sim_rows(&mut rows, "T1-B-dom", n, nb(n, 48), seq, par);

    // Batched next-element search.
    let n = (50_000_f64 * scale) as usize;
    let keys: Vec<i64> =
        random_u64(n, SEED + 7).into_iter().map(|x| (x % 2_000_000) as i64 - 1_000_000).collect();
    let queries: Vec<i64> =
        random_u64(n, SEED + 8).into_iter().map(|x| (x % 2_000_000) as i64 - 1_000_000).collect();
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::next_element::cgm_predecessor(rec, V, &keys, &queries).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::next_element::cgm_predecessor(rec, V, &keys, &queries).unwrap()
    });
    rows.push(Row {
        id: "T1-B-next".into(),
        variant: "classical bound (evaluated)".into(),
        n: 2 * n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(2 * n as u64, 17, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: String::new(),
    });
    push_sim_rows(&mut rows, "T1-B-next", 2 * n, nb(2 * n, 17), seq, par);

    // Lower envelope.
    let n = (30_000_f64 * scale) as usize;
    let segs = random_segments(n, 2_000, SEED + 9);
    // Short segments over a wide domain: few cross any one slab.
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::envelope::cgm_lower_envelope_with_budget(rec, V, &segs, 2048).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::envelope::cgm_lower_envelope_with_budget(rec, V, &segs, 2048).unwrap()
    });
    rows.push(Row {
        id: "T1-B-env".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(2 * n as u64, 35, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: String::new(),
    });
    push_sim_rows(&mut rows, "T1-B-env", n, nb(2 * n, 35), seq, par);

    // 2D closest pair (the "2D-nearest neighbors" row's core).
    let n = (50_000_f64 * scale) as usize;
    let pts: Vec<em_algos::geometry::Point2> = random_points_disc(n, 1 << 30, SEED + 20);
    let (cp_seq, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::closest_pair::cgm_closest_pair(rec, V, pts.clone()).unwrap()
    });
    let (cp_par, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::closest_pair::cgm_closest_pair(rec, V, pts.clone()).unwrap()
    });
    assert_eq!(cp_seq.0, cp_par.0);
    rows.push(Row {
        id: "T1-B-cp".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(n as u64, 16, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: format!("δ² = {}", cp_seq.0),
    });
    push_sim_rows(&mut rows, "T1-B-cp", n, nb(n, 16), seq, par);

    // Multi-directional separability (hull disjointness).
    let n = (40_000_f64 * scale) as usize;
    let a = random_points_disc(n, 900_000, SEED + 21);
    let b: Vec<em_algos::geometry::Point2> = random_points_disc(n, 900_000, SEED + 22)
        .into_iter()
        .map(|p| em_algos::geometry::Point2::new(p.x + 2_000_000, p.y))
        .collect();
    let (sep_seq, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::separability::cgm_separable_with_budget(
            rec,
            V,
            a.clone(),
            b.clone(),
            4096,
        )
        .unwrap()
    });
    let (sep_par, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::separability::cgm_separable_with_budget(
            rec,
            V,
            a.clone(),
            b.clone(),
            4096,
        )
        .unwrap()
    });
    assert!(sep_seq && sep_par);
    rows.push(Row {
        id: "T1-B-sep".into(),
        variant: "classical bound (evaluated)".into(),
        n: 2 * n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(2 * n as u64, 16, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: "disjoint clouds: separable".into(),
    });
    push_sim_rows(&mut rows, "T1-B-sep", 2 * n, nb(2 * n, 16), seq, par);

    // Area of union of rectangles.
    let n = (25_000_f64 * scale) as usize;
    let rects = random_rects(n, 3_000, SEED + 10);
    let (area_seq, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::geometry::rectangles::cgm_union_area_with_budget(rec, V, &rects, 2048).unwrap()
    });
    let (area_par, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::geometry::rectangles::cgm_union_area_with_budget(rec, V, &rects, 2048).unwrap()
    });
    assert_eq!(area_seq, area_par);
    rows.push(Row {
        id: "T1-B-rect".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(2 * n as u64, 41, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: String::new(),
    });
    push_sim_rows(&mut rows, "T1-B-rect", n, nb(2 * n, 41), seq, par);
    rows
}

fn graph_rows(scale: f64) -> Vec<Row> {
    let mut rows = Vec::new();

    // List ranking: PRAM-simulation baseline vs our simulation.
    let n = (30_000_f64 * scale) as usize;
    let succ = em_algos::graph::list_ranking::random_chain(n, SEED + 11);
    let weights = vec![1u64; n];
    let mut disks = baseline_disks();
    let (pram_ranks, pram_io, steps) =
        em_baselines::pram::pram_list_rank(&mut disks, M, &succ).unwrap();
    rows.push(Row {
        id: "T1-C-lr".into(),
        variant: "PRAM simulation (Chiang)".into(),
        n,
        io_ops: pram_io.parallel_ops,
        predicted: theory::pram_sim_io_prediction(
            steps as u64,
            n as u64,
            32,
            M as u64,
            D as u64,
            B as u64,
        ),
        lambda: steps,
        utilization: pram_io.utilization(),
        wall_ms: 0.0,
        note: format!("{steps} PRAM steps, 2 sorts each"),
    });
    let (got, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::graph::list_ranking::cgm_list_rank(rec, V, &succ, &weights).unwrap()
    });
    assert_eq!(got, pram_ranks);
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::graph::list_ranking::cgm_list_rank(rec, V, &succ, &weights).unwrap()
    });
    push_sim_rows(&mut rows, "T1-C-lr", n, (n * 16) as u64, seq, par);

    // Euler tour + tree aggregates.
    let n = (15_000_f64 * scale) as usize;
    let edges = random_tree(n, SEED + 12);
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::graph::euler::cgm_euler_tree(rec, V, n, &edges, 0).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::graph::euler::cgm_euler_tree(rec, V, n, &edges, 0).unwrap()
    });
    rows.push(Row {
        id: "T1-C-et".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(2 * n as u64, 16, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: String::new(),
    });
    push_sim_rows(&mut rows, "T1-C-et", n, (2 * n * 16) as u64, seq, par);

    // Batched LCA (Euler tour + range-minimum).
    let n = (10_000_f64 * scale) as usize;
    let edges = random_tree(n, SEED + 14);
    let mut qrng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SEED + 15);
    let queries: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            (
                rand::Rng::gen_range(&mut qrng, 0..n as u64),
                rand::Rng::gen_range(&mut qrng, 0..n as u64),
            )
        })
        .collect();
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::graph::lca::cgm_batched_lca(rec, V, n, &edges, 0, &queries).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::graph::lca::cgm_batched_lca(rec, V, n, &edges, 0, &queries).unwrap()
    });
    rows.push(Row {
        id: "T1-C-lca".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(3 * n as u64, 16, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: format!("{} queries", queries.len()),
    });
    push_sim_rows(&mut rows, "T1-C-lca", n, (3 * n * 16) as u64, seq, par);

    // Connected components + spanning forest.
    let n = (20_000_f64 * scale) as usize;
    let edges = random_graph(n, 2 * n, SEED + 13);
    let (_, seq) = measure_seq(machine(1, M, D, B), SEED, |rec| {
        em_algos::graph::cc::cgm_connected_components(rec, V, n, &edges).unwrap()
    });
    let (_, par) = measure_par(machine(P, M, D, B), SEED, |rec| {
        em_algos::graph::cc::cgm_connected_components(rec, V, n, &edges).unwrap()
    });
    rows.push(Row {
        id: "T1-C-cc".into(),
        variant: "classical bound (evaluated)".into(),
        n,
        io_ops: 0,
        predicted: theory::av_sort_io_prediction(3 * n as u64, 24, M as u64, 1, B as u64),
        lambda: 0,
        utilization: 0.0,
        wall_ms: 0.0,
        note: format!("m={}", edges.len()),
    });
    push_sim_rows(&mut rows, "T1-C-cc", n, (3 * n * 24) as u64, seq, par);
    rows
}

type Group = fn(f64) -> Vec<Row>;

/// Every group of rows, with the problem names that select it.
const GROUPS: [(&[&str], Group); 5] = [
    (&["sort"], sort_rows),
    (&["permute"], permute_rows),
    (&["transpose"], transpose_rows),
    (
        &["hull", "maxima3d", "dominance", "next-element", "envelope", "rectangles", "geometry"],
        geometry_rows,
    ),
    (&["list-ranking", "euler-tour", "lca", "cc", "graph"], graph_rows),
];

/// `--smoke`'s scale.
const SMOKE_SCALE: f64 = 0.1;

/// The rows of the problems `which` selects, in table order.
fn rows_of(which: &str, scale: f64) -> Vec<Row> {
    GROUPS
        .iter()
        .filter(|(names, _)| which == "all" || names.contains(&which))
        .flat_map(|(_, group)| group(scale))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(
        &args,
        &["--json", "--smoke", "--scale"],
        "table1 [problem] [--json] [--smoke] [--scale <f>]",
    );
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke {
        SMOKE_SCALE
    } else {
        args.iter()
            .position(|a| a == "--scale")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0)
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
        .map(String::as_str)
        .unwrap_or("all");

    let rows = rows_of(which, scale);

    if json {
        print_json(&rows);
    } else {
        print_table(
            &format!("Table 1 regeneration (M={M} B, D={D}, B={B} B, v={V}, scale={scale})"),
            &rows,
        );
        println!(
            "\nShape checks: simulated I/O ≈ λ·c·n/(pDB); parallel rows show per-processor ops;"
        );
        println!("PRAM baseline pays a sort per step; AV sort pays log_{{M/DB}} passes.");
    }
    let config = format!("M={M} B, D={D}, B={B} B, v={V}, p={P}, scale={scale}; which={which}");
    let complete = which == "all" && scale == 1.0;
    match write_bench_json("table1", SEED, smoke, complete, &config, &rows) {
        // Stderr so `--json` stdout stays pure JSON lines.
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_table1.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per problem: `io_ops`, then λ, each as baseline (0 where the
    /// baseline is an evaluated bound) / `p = 1` / `p = 4` per processor.
    const SMOKE_COUNTS: [(&str, [u64; 3], [usize; 3]); 15] = [
        ("T1-A-sort", [20, 980, 299], [0, 4, 4]),
        ("T1-A-perm", [30, 908, 227], [0, 2, 2]),
        ("T1-A-trans", [222, 1_178, 497], [0, 2, 2]),
        ("T1-B-hull", [0, 3_920, 1_007], [0, 6, 6]),
        ("T1-B-max3d", [0, 1_871, 540], [0, 6, 6]),
        ("T1-B-dom", [0, 5_277, 1_936], [0, 11, 11]),
        ("T1-B-next", [0, 1_716, 525], [0, 6, 6]),
        ("T1-B-env", [0, 4_488, 1_304], [0, 7, 7]),
        ("T1-B-cp", [0, 1_931, 501], [0, 7, 7]),
        ("T1-B-sep", [0, 7_830, 1_966], [0, 12, 12]),
        ("T1-B-rect", [0, 7_037, 1_999], [0, 7, 7]),
        ("T1-C-lr", [6_980, 6_552, 1_652], [12, 25, 25]),
        ("T1-C-et", [0, 16_278, 4_207], [0, 62, 62]),
        ("T1-C-lca", [0, 12_461, 3_211], [0, 61, 61]),
        ("T1-C-cc", [0, 23_502, 6_041], [0, 48, 48]),
    ];

    /// Every row of Table 1 at `--smoke` scale, through the code `main`
    /// runs, against the counts recorded when this test was written — so
    /// that a change which moves a counted op (the simulators' random
    /// placement, a generator's draws, an algorithm's rounds) says so
    /// instead of leaving EXPERIMENTS.md stale, as per-superstep reseeding
    /// did for eleven PRs.
    ///
    /// Re-record rule: a PR that has to change a constant here names the
    /// cells and the edit that moved them in CHANGES.md, and regenerates
    /// `results/table1.txt` and EXPERIMENTS.md's Table 1 in the same commit.
    #[test]
    fn smoke_scale_counts_are_the_recorded_ones() {
        let rows = rows_of("all", SMOKE_SCALE);
        let got: Vec<(&str, [u64; 3], [usize; 3])> = rows
            .chunks(3)
            .map(|problem| {
                assert!(problem.iter().all(|row| row.id == problem[0].id), "three rows a problem");
                (
                    problem[0].id.as_str(),
                    [problem[0].io_ops, problem[1].io_ops, problem[2].io_ops],
                    [problem[0].lambda, problem[1].lambda, problem[2].lambda],
                )
            })
            .collect();
        assert_eq!(got, SMOKE_COUNTS);
    }
}
