//! Properties of the block-frame checksum: the slice-by-8 `crc32` must
//! equal the bit-at-a-time definition of CRC-32 (IEEE 802.3, reflected,
//! polynomial 0xEDB88320) — a reference that shares no table with the
//! implementation — at every length and start alignment. Each property
//! runs on 256 seeded cases.

use em_disk::crc32;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runs `property` on 256 cases, each on its own seeded generator; a
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
    for case in 0..256 {
        let seed = Seed(0xC4C32 ^ case);
        property(&mut StdRng::seed_from_u64(seed.0));
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// Lengths 0..=4096 from start offsets 0..=7 of one random buffer:
/// empty input, pure-tail inputs, and every split between the
/// eight-byte body and the tail.
#[test]
fn slice_by_8_equals_the_bitwise_reference() {
    cases(|rng| {
        let bytes = random_bytes(rng, 4096 + 8);
        let (align, len) = (rng.gen_range(0..8usize), rng.gen_range(0..=4096usize));
        let data = &bytes[align..align + len];
        assert_eq!(crc32(data), crc32_bitwise(data), "align {align}, len {len}");
    });
}

/// Any single flipped bit changes the checksum.
#[test]
fn single_bit_flips_are_detected() {
    cases(|rng| {
        let len = rng.gen_range(1..2048usize);
        let mut bytes = random_bytes(rng, len);
        let clean = crc32(&bytes);
        let (at, bit) = (rng.gen_range(0..len), rng.gen_range(0..8u32));
        bytes[at] ^= 1 << bit;
        assert_ne!(crc32(&bytes), clean, "len {len}, byte {at}, bit {bit}");
    });
}
