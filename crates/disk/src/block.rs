//! A disk block: exactly one track's worth of bytes.

/// An owned buffer holding exactly one track (`B` bytes) of data.
///
/// Blocks are the unit of every disk transfer. The size is fixed at
/// construction; the array validates it against its configured `B` on every
/// operation, so a `Block` of the wrong size can never be silently
/// truncated or padded by the substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    data: Box<[u8]>,
}

impl Block {
    /// A zero-filled block of `block_bytes` bytes.
    pub fn zeroed(block_bytes: usize) -> Self {
        Block { data: vec![0u8; block_bytes].into_boxed_slice() }
    }

    /// Build a block from `bytes`, padding with zeros up to `block_bytes`.
    ///
    /// # Panics
    /// Panics if `bytes.len() > block_bytes`; callers are responsible for
    /// cutting payloads into block-sized pieces first.
    pub fn from_bytes_padded(bytes: &[u8], block_bytes: usize) -> Self {
        assert!(
            bytes.len() <= block_bytes,
            "payload of {} bytes does not fit a {} byte block",
            bytes.len(),
            block_bytes
        );
        let mut data = vec![0u8; block_bytes];
        data[..bytes.len()].copy_from_slice(bytes);
        Block { data: data.into_boxed_slice() }
    }

    /// Take ownership of an exactly-sized buffer.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Block { data: data.into_boxed_slice() }
    }

    /// Size of this block in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the block has zero size (never the case for blocks made by
    /// a valid [`crate::DiskConfig`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the payload.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the payload.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consume the block, returning its buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.data.into_vec()
    }
}

/// A block is one track's bytes wherever a write takes any `AsRef<[u8]>`
/// ([`crate::DiskArray::submit_write_batch`]).
impl AsRef<[u8]> for Block {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Number of bytes a CRC32 frame suffix adds to each stored track when
/// [`crate::DiskConfig::checksums`] is enabled.
pub const CRC_BYTES: usize = 4;

/// Slice-by-8 lookup tables for the standard CRC-32 (IEEE 802.3,
/// reflected, polynomial 0xEDB88320). `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, which is what lets eight input bytes fold into the
/// running value with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`, as used by the block-frame checksum option.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A CRC-32 (IEEE) in progress: the checksum of everything fed to
/// [`Crc32::update`] so far, in order, however the bytes were split across
/// calls — for data that is produced a piece at a time and never needs to
/// exist as one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Append `data`.
    ///
    /// Slice-by-8: eight bytes per step through eight tables, then a
    /// byte-at-a-time tail. Works from any start alignment (the eight bytes
    /// are assembled with `from_le_bytes`, not read through a cast pointer).
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The CRC-32 of the bytes appended so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Check values from the classic CRC-32 test suite.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time definition the slice-by-8 routine must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        // Covers the empty input, pure-tail inputs, and every split between
        // the eight-byte body and the tail, from every offset into a word.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for align in 0..8 {
            for len in 0..=4096 {
                let data = &bytes[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len}, alignment {align}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x08;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn a_streamed_crc_is_the_crc_of_the_concatenation() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        // Pieces that leave every tail length, and empty ones.
        for piece in [1, 3, 7, 8, 13, 64, 200] {
            let mut crc = Crc32::new();
            for chunk in data.chunks(piece) {
                crc.update(chunk);
                crc.update(&[]);
            }
            assert_eq!(crc.finish(), crc32(&data), "pieces of {piece}");
        }
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn zeroed_has_requested_size() {
        let b = Block::zeroed(128);
        assert_eq!(b.len(), 128);
        assert!(b.as_bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn padding_preserves_prefix() {
        let b = Block::from_bytes_padded(&[1, 2, 3], 8);
        assert_eq!(b.as_bytes(), &[1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_payload_panics() {
        let _ = Block::from_bytes_padded(&[0; 9], 8);
    }
}
