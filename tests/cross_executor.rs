//! Cross-executor differential tests: every Table-1 algorithm must produce
//! identical results on all four engines —
//!
//! 1. the sequential in-memory reference ([`em_bsp::SeqExecutor`]),
//! 2. the threaded BSP machine ([`em_bsp::ThreadedRunner`]),
//! 3. the uniprocessor external-memory simulation (Algorithms 1 + 2),
//! 4. the multiprocessor external-memory simulation (Algorithm 3).
//!
//! This is the correctness contract of the paper's simulation technique:
//! a BSP-like algorithm runs *unchanged* in external memory.

use em_algos::geometry::dominance::{cgm_dominance_counts, seq_dominance_counts};
use em_algos::geometry::envelope::{cgm_lower_envelope, seq_lower_envelope};
use em_algos::geometry::hull::{cgm_convex_hull, seq_convex_hull};
use em_algos::geometry::maxima3d::{cgm_maxima3d, seq_maxima3d};
use em_algos::geometry::next_element::{cgm_predecessor, seq_predecessor};
use em_algos::geometry::rectangles::{cgm_union_area, seq_union_area, Rect};
use em_algos::geometry::{Point2, Point3};
use em_algos::graph::cc::{cgm_connected_components, seq_connected_components};
use em_algos::graph::contraction::cgm_list_rank_contraction;
use em_algos::graph::euler::{cgm_euler_tree, seq_tree_info};
use em_algos::graph::lca::{cgm_batched_lca, seq_lca};
use em_algos::graph::list_ranking::{cgm_list_rank, random_chain, seq_list_rank};
use em_algos::permute::{cgm_permute, seq_permute};
use em_algos::prefix::{cgm_prefix_sums, seq_prefix_sums};
use em_algos::sort::{cgm_sort, seq_sort};
use em_algos::transpose::{cgm_transpose, seq_transpose};
use em_bsp::BspStarParams;
use em_bsp::{Executor, SeqExecutor, ThreadedRunner};
use em_core::{EmMachine, ParEmSimulator, SeqEmSimulator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const V: usize = 8;

/// A draw from a range of signed bounds: one unsigned draw over its width,
/// shifted — the value `rng.gen_range(range)` gives on the published `rand`,
/// written so that the offline stand-in, which samples unsigned ranges
/// only, compiles it (`scripts/offline-test.sh`).
fn signed(rng: &mut StdRng, range: std::ops::Range<i64>) -> i64 {
    range.start + rng.gen_range(0..(range.end - range.start) as u64) as i64
}

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

/// Run `f` against all four executors and assert the outputs agree.
fn check_all<T: PartialEq + std::fmt::Debug>(f: impl Fn(&dyn ExecDyn) -> T, reference: T) {
    let seq = SeqExecutor;
    let thr = ThreadedRunner::new(4);
    let em1 = SeqEmSimulator::new(em_machine(1)).with_seed(77);
    let emp = ParEmSimulator::new(em_machine(3)).with_seed(78);
    assert_eq!(f(&seq), reference, "sequential reference executor");
    assert_eq!(f(&thr), reference, "threaded runner");
    assert_eq!(f(&em1), reference, "uniprocessor EM simulation");
    assert_eq!(f(&emp), reference, "3-processor EM simulation");
}

/// Object-safe shim so `check_all` can take any executor.
trait ExecDyn {
    fn sort_u64(&self, v: usize, items: Vec<u64>) -> Vec<u64>;
    fn permute_u64(&self, v: usize, items: Vec<u64>, perm: &[usize]) -> Vec<u64>;
    fn transpose_u64(&self, v: usize, r: usize, c: usize, data: Vec<u64>) -> Vec<u64>;
    fn prefix(&self, v: usize, items: Vec<u64>) -> Vec<u64>;
    fn hull(&self, v: usize, pts: Vec<Point2>) -> Vec<Point2>;
    fn maxima(&self, v: usize, pts: Vec<Point3>) -> Vec<Point3>;
    fn dominance(&self, v: usize, pts: &[(Point2, u64)]) -> Vec<u64>;
    fn predecessor(&self, v: usize, keys: &[i64], queries: &[i64]) -> Vec<Option<i64>>;
    fn envelope(&self, v: usize, segs: &[(i64, i64, i64)]) -> Vec<(i64, Option<i64>)>;
    fn union_area(&self, v: usize, rects: &[Rect]) -> u64;
    fn list_rank(&self, v: usize, succ: &[u64], w: &[u64]) -> Vec<u64>;
    fn tree_depths(
        &self,
        v: usize,
        n: usize,
        edges: &[(u64, u64)],
        root: u64,
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>);
    fn cc_labels(&self, v: usize, n: usize, edges: &[(u64, u64)]) -> Vec<u64>;
    fn list_rank_contraction(&self, v: usize, succ: &[u64], w: &[u64]) -> Vec<u64>;
    fn lca(
        &self,
        v: usize,
        n: usize,
        edges: &[(u64, u64)],
        root: u64,
        q: &[(u64, u64)],
    ) -> Vec<u64>;
}

impl<E: Executor> ExecDyn for E {
    fn sort_u64(&self, v: usize, items: Vec<u64>) -> Vec<u64> {
        cgm_sort(self, v, items).unwrap()
    }
    fn permute_u64(&self, v: usize, items: Vec<u64>, perm: &[usize]) -> Vec<u64> {
        cgm_permute(self, v, items, perm).unwrap()
    }
    fn transpose_u64(&self, v: usize, r: usize, c: usize, data: Vec<u64>) -> Vec<u64> {
        cgm_transpose(self, v, r, c, data).unwrap()
    }
    fn prefix(&self, v: usize, items: Vec<u64>) -> Vec<u64> {
        cgm_prefix_sums(self, v, items).unwrap()
    }
    fn hull(&self, v: usize, pts: Vec<Point2>) -> Vec<Point2> {
        cgm_convex_hull(self, v, pts).unwrap()
    }
    fn maxima(&self, v: usize, pts: Vec<Point3>) -> Vec<Point3> {
        cgm_maxima3d(self, v, pts).unwrap()
    }
    fn dominance(&self, v: usize, pts: &[(Point2, u64)]) -> Vec<u64> {
        cgm_dominance_counts(self, v, pts).unwrap()
    }
    fn predecessor(&self, v: usize, keys: &[i64], queries: &[i64]) -> Vec<Option<i64>> {
        cgm_predecessor(self, v, keys, queries).unwrap()
    }
    fn envelope(&self, v: usize, segs: &[(i64, i64, i64)]) -> Vec<(i64, Option<i64>)> {
        cgm_lower_envelope(self, v, segs).unwrap()
    }
    fn union_area(&self, v: usize, rects: &[Rect]) -> u64 {
        cgm_union_area(self, v, rects).unwrap()
    }
    fn list_rank(&self, v: usize, succ: &[u64], w: &[u64]) -> Vec<u64> {
        cgm_list_rank(self, v, succ, w).unwrap()
    }
    fn tree_depths(
        &self,
        v: usize,
        n: usize,
        edges: &[(u64, u64)],
        root: u64,
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let info = cgm_euler_tree(self, v, n, edges, root).unwrap();
        (info.parent, info.depth, info.size)
    }
    fn cc_labels(&self, v: usize, n: usize, edges: &[(u64, u64)]) -> Vec<u64> {
        cgm_connected_components(self, v, n, edges).unwrap().label
    }
    fn list_rank_contraction(&self, v: usize, succ: &[u64], w: &[u64]) -> Vec<u64> {
        cgm_list_rank_contraction(self, v, succ, w).unwrap()
    }
    fn lca(
        &self,
        v: usize,
        n: usize,
        edges: &[(u64, u64)],
        root: u64,
        q: &[(u64, u64)],
    ) -> Vec<u64> {
        cgm_batched_lca(self, v, n, edges, root, q).unwrap()
    }
}

/// A messaging-heavy program whose final states are a non-commutative
/// hash chain over each inbox: any reordering (or duplication) of
/// messages — e.g. after a faulted superstep is replayed — changes the
/// result. μ is declared as 124 bytes so a 256-byte machine pages two
/// contexts per group.
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
            // FNV-style chain: sensitive to inbox order.
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

/// The canonical `(src, per-sender send order)` inbox ordering must hold on
/// every engine — including EM simulations that retry faulted I/O and
/// replay whole supersteps.
#[test]
fn inbox_ordering_holds_under_faults_and_replay() {
    use em_bsp::run_sequential;
    use em_core::RecoveryPolicy;
    use em_disk::{FaultPlan, RetryPolicy};

    let init: Vec<u64> = (0..V as u64).map(|i| i * 7 + 1).collect();
    let reference = run_sequential(&ChainFold, init.clone()).unwrap().states;
    assert_eq!(
        ThreadedRunner::new(4).execute(&ChainFold, init.clone()).unwrap().states,
        reference,
        "threaded runner"
    );

    let base_seed: u64 = std::env::var("EM_SIM_FAULT_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_owned();
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0xF16);
    for salt in [0u64, 0x9E37, 0xBEEF] {
        let plan = || FaultPlan::seeded(base_seed ^ salt, 4, 300, 30);
        let (res, _) = SeqEmSimulator::new(em_machine(1))
            .with_seed(77)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64))
            .run(&ChainFold, init.clone())
            .unwrap();
        assert_eq!(res.states, reference, "seq EM, salt {salt:#x}");

        let (res, _) = ParEmSimulator::new(em_machine(3))
            .with_seed(78)
            .with_checksums(true)
            .with_fault_plan(plan())
            .with_retry(RetryPolicy::new(4))
            .with_recovery(RecoveryPolicy::new(64))
            .run(&ChainFold, init.clone())
            .unwrap();
        assert_eq!(res.states, reference, "par EM, salt {salt:#x}");
    }
}

#[test]
fn sort_all_executors() {
    let mut rng = StdRng::seed_from_u64(100);
    let items: Vec<u64> = (0..600).map(|_| rng.gen_range(0..5000)).collect();
    let want = seq_sort(items.clone());
    check_all(|e| e.sort_u64(V, items.clone()), want);
}

#[test]
fn permute_all_executors() {
    let mut rng = StdRng::seed_from_u64(101);
    let n = 300;
    let items: Vec<u64> = (0..n as u64).map(|x| x * 3 + 1).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    let want = seq_permute(&items, &perm);
    check_all(|e| e.permute_u64(V, items.clone(), &perm), want);
}

#[test]
fn transpose_all_executors() {
    let (r, c) = (12, 17);
    let data: Vec<u64> = (0..(r * c) as u64).collect();
    let want = seq_transpose(r, c, &data);
    check_all(|e| e.transpose_u64(V, r, c, data.clone()), want);
}

#[test]
fn prefix_sums_all_executors() {
    let mut rng = StdRng::seed_from_u64(102);
    let items: Vec<u64> = (0..500).map(|_| rng.gen_range(0..100)).collect();
    let want = seq_prefix_sums(&items);
    check_all(|e| e.prefix(V, items.clone()), want);
}

#[test]
fn convex_hull_all_executors() {
    let mut rng = StdRng::seed_from_u64(103);
    let pts: Vec<Point2> = (0..300)
        .map(|_| Point2::new(signed(&mut rng, -500..500), signed(&mut rng, -500..500)))
        .collect();
    let want = seq_convex_hull(&pts);
    check_all(|e| e.hull(V, pts.clone()), want);
}

#[test]
fn maxima3d_all_executors() {
    let mut rng = StdRng::seed_from_u64(104);
    let mut xs: Vec<i64> = (0..250).collect();
    xs.shuffle(&mut rng);
    let pts: Vec<Point3> = xs
        .into_iter()
        .map(|x| Point3::new(x, signed(&mut rng, -60..60), signed(&mut rng, -60..60)))
        .collect();
    let want = seq_maxima3d(&pts);
    check_all(|e| e.maxima(V, pts.clone()), want);
}

#[test]
fn dominance_all_executors() {
    let mut rng = StdRng::seed_from_u64(105);
    let pts: Vec<(Point2, u64)> = (0..200)
        .map(|_| {
            (Point2::new(signed(&mut rng, -30..30), signed(&mut rng, -30..30)), rng.gen_range(1..5))
        })
        .collect();
    let want = seq_dominance_counts(&pts);
    check_all(|e| e.dominance(V, &pts), want);
}

#[test]
fn predecessor_all_executors() {
    let mut rng = StdRng::seed_from_u64(106);
    let keys: Vec<i64> = (0..150).map(|_| signed(&mut rng, -400..400)).collect();
    let queries: Vec<i64> = (0..200).map(|_| signed(&mut rng, -500..500)).collect();
    let want = seq_predecessor(&keys, &queries);
    check_all(|e| e.predecessor(V, &keys, &queries), want);
}

#[test]
fn envelope_all_executors() {
    let mut rng = StdRng::seed_from_u64(107);
    let segs: Vec<(i64, i64, i64)> = (0..120)
        .map(|_| {
            let x1 = signed(&mut rng, -300..280);
            (x1, x1 + signed(&mut rng, 1..150), signed(&mut rng, -50..50))
        })
        .collect();
    let want = seq_lower_envelope(&segs);
    check_all(|e| e.envelope(V, &segs), want);
}

#[test]
fn union_area_all_executors() {
    let mut rng = StdRng::seed_from_u64(108);
    let rects: Vec<Rect> = (0..100)
        .map(|_| {
            let x1 = signed(&mut rng, -200..180);
            let y1 = signed(&mut rng, -200..180);
            Rect::new(x1, x1 + signed(&mut rng, 1..90), y1, y1 + signed(&mut rng, 1..90))
        })
        .collect();
    let want = seq_union_area(&rects);
    check_all(|e| e.union_area(V, &rects), want);
}

#[test]
fn list_rank_all_executors() {
    let n = 240;
    let succ = random_chain(n, 109);
    let weights: Vec<u64> = (0..n as u64).map(|i| i % 5 + 1).collect();
    let want = seq_list_rank(&succ, &weights);
    check_all(|e| e.list_rank(V, &succ, &weights), want);
}

#[test]
fn euler_tree_all_executors() {
    let mut rng = StdRng::seed_from_u64(110);
    let n = 60;
    let edges: Vec<(u64, u64)> = (1..n as u64).map(|i| (rng.gen_range(0..i), i)).collect();
    let root = 0u64;
    let (p, d, s) = seq_tree_info(n, &edges, root);
    check_all(|e| e.tree_depths(V, n, &edges, root), (p, d, s));
}

#[test]
fn connected_components_all_executors() {
    let mut rng = StdRng::seed_from_u64(111);
    let n = 80;
    let edges: Vec<(u64, u64)> = (0..120)
        .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
        .filter(|&(a, b)| a != b)
        .collect();
    let want = seq_connected_components(n, &edges);
    check_all(|e| e.cc_labels(V, n, &edges), want);
}

#[test]
fn list_rank_contraction_all_executors() {
    let n = 220;
    let succ = random_chain(n, 112);
    let weights: Vec<u64> = (0..n as u64).map(|i| i % 4 + 1).collect();
    let want = seq_list_rank(&succ, &weights);
    check_all(|e| e.list_rank_contraction(V, &succ, &weights), want);
}

#[test]
fn batched_lca_all_executors() {
    let mut rng = StdRng::seed_from_u64(113);
    let n = 50;
    let edges: Vec<(u64, u64)> = (1..n as u64).map(|i| (rng.gen_range(0..i), i)).collect();
    let root = 3u64;
    let queries: Vec<(u64, u64)> =
        (0..40).map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64))).collect();
    let (parent, depth, _) = seq_tree_info(n, &edges, root);
    let want: Vec<u64> = queries.iter().map(|&(a, b)| seq_lca(&parent, &depth, a, b)).collect();
    check_all(|e| e.lca(V, n, &edges, root, &queries), want);
}
