//! Property test for the block-frame checksum: the slice-by-8 `crc32`
//! must equal the bit-at-a-time definition of CRC-32 (IEEE 802.3,
//! reflected, polynomial 0xEDB88320) — a reference that shares no table
//! with the implementation — at every length and start alignment.

use em_disk::crc32;
use proptest::prelude::*;

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

proptest! {
    /// Lengths 0..=4096 from start offsets 0..=7 of one random buffer:
    /// empty input, pure-tail inputs, and every split between the
    /// eight-byte body and the tail.
    #[test]
    fn slice_by_8_equals_the_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 4096 + 8),
        align in 0usize..8,
        len in 0usize..=4096,
    ) {
        let data = &bytes[align..align + len];
        prop_assert_eq!(crc32(data), crc32_bitwise(data));
    }

    /// Any single flipped bit changes the checksum.
    #[test]
    fn single_bit_flips_are_detected(
        mut bytes in proptest::collection::vec(any::<u8>(), 1..2048),
        at in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let clean = crc32(&bytes);
        let at = at.index(bytes.len());
        bytes[at] ^= 1 << bit;
        prop_assert_ne!(crc32(&bytes), clean);
    }
}
