//! Offline stand-in for `rand` 0.8.5: the calls the layer crates make
//! (`StdRng::seed_from_u64`, `gen_range` over integer ranges, `shuffle`),
//! producing **the published crate's stream**: ChaCha12 keyed the way
//! `rand_core` 0.6 expands a `u64` seed, read through `BlockRng`'s word
//! buffer, sampled with `UniformInt`'s widening-multiply rejection. Counts
//! that depend on the simulator's random placement are therefore the ones a
//! build against the real crate gives; the benchmark's `published_stream`
//! test pins that to counts committed under `results/`.

use std::ops::{Range, RangeInclusive};

/// Source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a `u64` seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range `gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `UniformInt::sample_single_inclusive` for one integer type: `$large` is
/// the word the published crate draws for it (`u32` up to 32 bits, else `u64`).
macro_rules! int_ranges {
    ($($t:ty, $large:ty, $wide:ty, $next:ident);*) => {$(
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $large;
                if range == 0 {
                    return rng.$next() as $t;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = rng.$next() as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $t);
                    }
                }
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample(rng)
            }
        }
    )*};
}
int_ranges!(u32, u32, u64, next_u32; u64, u64, u128, next_u64; usize, u64, u128, next_u64);

/// Convenience sampling on top of [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Words per refill: four ChaCha blocks, as `rand_chacha` buffers them.
    const BUF_WORDS: usize = 64;
    const DOUBLE_ROUNDS: usize = 6;

    /// The standard seeded generator (ChaCha12, 64-bit block counter, stream 0).
    #[derive(Clone)]
    pub struct StdRng {
        key: [u32; 8],
        /// Counter of the next block to generate.
        block: u64,
        buf: [u32; BUF_WORDS],
        /// Next unread word of `buf`; `BUF_WORDS` when it is used up.
        index: usize,
    }

    impl std::fmt::Debug for StdRng {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("StdRng { .. }")
        }
    }

    impl PartialEq for StdRng {
        fn eq(&self, other: &Self) -> bool {
            (self.key, self.block, self.index) == (other.key, other.block, other.index)
        }
    }

    impl Eq for StdRng {}

    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }

    impl StdRng {
        fn refill(&mut self) {
            for out in self.buf.chunks_exact_mut(16) {
                let mut init = [0u32; 16];
                init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
                init[4..12].copy_from_slice(&self.key);
                init[12] = self.block as u32;
                init[13] = (self.block >> 32) as u32;
                let mut x = init;
                for _ in 0..DOUBLE_ROUNDS {
                    quarter(&mut x, 0, 4, 8, 12);
                    quarter(&mut x, 1, 5, 9, 13);
                    quarter(&mut x, 2, 6, 10, 14);
                    quarter(&mut x, 3, 7, 11, 15);
                    quarter(&mut x, 0, 5, 10, 15);
                    quarter(&mut x, 1, 6, 11, 12);
                    quarter(&mut x, 2, 7, 8, 13);
                    quarter(&mut x, 3, 4, 9, 14);
                }
                for ((o, x), i) in out.iter_mut().zip(x).zip(init) {
                    *o = x.wrapping_add(i);
                }
                self.block = self.block.wrapping_add(1);
            }
        }
    }

    impl SeedableRng for StdRng {
        /// `rand_core`'s expansion: eight PCG32 outputs become the key.
        fn seed_from_u64(mut state: u64) -> Self {
            let mut key = [0u32; 8];
            for word in &mut key {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(11_634_580_027_462_260_723);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                *word = xorshifted.rotate_right((state >> 59) as u32);
            }
            StdRng { key, block: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
                self.index = 0;
            }
            self.index += 1;
            self.buf[self.index - 1]
        }

        /// Two buffered words, low first; a value may straddle a refill.
        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32();
            let hi = self.next_u32();
            u64::from(hi) << 32 | u64::from(lo)
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                // The published crate draws a `u32` index while the bound fits one.
                let j = if i < u32::MAX as usize {
                    rng.gen_range(0..i as u32 + 1) as usize
                } else {
                    rng.gen_range(0..i + 1)
                };
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut c = StdRng::seed_from_u64(10);
        let xs: Vec<usize> = (0..32).map(|_| a.gen_range(0..1000)).collect();
        let ys: Vec<usize> = (0..32).map(|_| b.gen_range(0..1000)).collect();
        let zs: Vec<usize> = (0..32).map(|_| c.gen_range(0..1000)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 1000));
        assert_eq!(a, b);
    }

    #[test]
    fn words_and_double_words_share_one_buffer() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = a.clone();
        // 63 single words, then a double word that straddles the refill.
        let words: Vec<u32> = (0..66).map(|_| a.next_u32()).collect();
        for w in &words[..63] {
            assert_eq!(b.next_u32(), *w);
        }
        assert_eq!(b.next_u64(), u64::from(words[64]) << 32 | u64::from(words[63]));
        assert_eq!(b.next_u32(), words[65]);
    }

    #[test]
    fn ranges_stay_inside_and_cover_their_ends() {
        let mut rng = StdRng::seed_from_u64(5);
        let draws: Vec<u64> = (0..2000).map(|_| rng.gen_range(3..=6u64)).collect();
        for want in 3..=6 {
            assert!(draws.contains(&want));
        }
        assert!(draws.iter().all(|d| (3..=6).contains(d)));
        let _full: u32 = rng.gen_range(0..=u32::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(3));
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
