//! Seeded workload generators for the experiments (the paper's problems
//! take synthetic inputs; all generators are deterministic per seed).
//!
//! The draws are written against the part of `rand` that
//! `scripts/offline-test.sh`'s stand-in has — `next_u64` and unsigned
//! ranges — and give the values `gen()` and signed `gen_range` give on the
//! published crate, so the committed counts reproduce on either.

use em_algos::geometry::rectangles::Rect;
use em_algos::geometry::{Point2, Point3};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

/// A draw from a range of signed bounds: one unsigned draw over its width,
/// shifted.
fn signed(rng: &mut StdRng, range: Range<i64>) -> i64 {
    range.start + rng.gen_range(0..(range.end - range.start) as u64) as i64
}

/// Uniform random `u64` records.
pub fn random_u64(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// A uniform random permutation of `0..n`.
pub fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

/// Random points in a disc of radius `r` (hull size O(n^{1/3}) expected).
pub fn random_points_disc(n: usize, r: i64, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x = signed(&mut rng, -r..r + 1);
        let y = signed(&mut rng, -r..r + 1);
        if x * x + y * y <= r * r {
            out.push(Point2::new(x, y));
        }
    }
    out
}

/// Random 3D points with pairwise-distinct x (shuffled grid xs).
pub fn random_points_3d(n: usize, seed: u64) -> Vec<Point3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<i64> = (0..n as i64).collect();
    xs.shuffle(&mut rng);
    xs.into_iter()
        .map(|x| {
            Point3::new(
                x,
                signed(&mut rng, -1_000_000..1_000_000),
                signed(&mut rng, -1_000_000..1_000_000),
            )
        })
        .collect()
}

/// Random weighted 2D points.
pub fn random_weighted_points(n: usize, seed: u64) -> Vec<(Point2, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                Point2::new(
                    signed(&mut rng, -1_000_000..1_000_000),
                    signed(&mut rng, -1_000_000..1_000_000),
                ),
                rng.gen_range(1..100),
            )
        })
        .collect()
}

/// Random horizontal segments with mean length `len`.
pub fn random_segments(n: usize, len: i64, seed: u64) -> Vec<(i64, i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x1 = signed(&mut rng, -1_000_000..1_000_000);
            (x1, x1 + signed(&mut rng, 1..2 * len), signed(&mut rng, -100_000..100_000))
        })
        .collect()
}

/// Random rectangles with mean side `side`.
pub fn random_rects(n: usize, side: i64, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x1 = signed(&mut rng, -1_000_000..1_000_000);
            let y1 = signed(&mut rng, -1_000_000..1_000_000);
            let (w, h) = (signed(&mut rng, 1..2 * side), signed(&mut rng, 1..2 * side));
            Rect::new(x1, x1 + w, y1, y1 + h)
        })
        .collect()
}

/// Random attachment tree on `n` vertices.
pub fn random_tree(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..n as u64).map(|i| (rng.gen_range(0..i), i)).collect()
}

/// Random multigraph G(n, m).
pub fn random_graph(n: usize, m: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
        .filter(|&(a, b)| a != b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(random_u64(10, 1), random_u64(10, 1));
        assert_ne!(random_u64(10, 1), random_u64(10, 2));
        assert_eq!(random_perm(10, 3), random_perm(10, 3));
        assert_eq!(random_tree(10, 4), random_tree(10, 4));
    }

    #[test]
    fn disc_points_are_inside() {
        for p in random_points_disc(100, 50, 5) {
            assert!(p.x * p.x + p.y * p.y <= 2500);
        }
    }

    #[test]
    fn distinct_xs_in_3d() {
        let pts = random_points_3d(200, 6);
        let mut xs: Vec<i64> = pts.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        assert_eq!(xs.len(), 200);
    }
}
