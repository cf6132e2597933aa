//! # em-serial
//!
//! A small, dependency-free byte codec used by the external-memory (EM)
//! simulation to persist virtual-processor *contexts* and *messages* on
//! simulated disks.
//!
//! The EM simulation of Dehne, Dittrich and Hutchinson stores each virtual
//! processor's context padded to a fixed size `μ` and cuts message streams
//! into disk blocks of exactly `B` bytes. That requires a codec with
//! *exact, stable* encoded sizes — which is why this crate exists instead of
//! a general-purpose serialization framework: every type knows its encoded
//! length up front (`Serial::encoded_len`), encoding appends to a caller
//! provided buffer without intermediate allocation, and decoding consumes a
//! cursor so that multiple values can be packed back to back in one block.
//!
//! ## Example
//!
//! ```
//! use em_serial::{Serial, Reader, to_bytes, from_bytes};
//!
//! let value: (u32, Vec<u16>) = (7, vec![1, 2, 3]);
//! let bytes = to_bytes(&value);
//! assert_eq!(bytes.len(), value.encoded_len());
//! let back: (u32, Vec<u16>) = from_bytes(&bytes).unwrap();
//! assert_eq!(back, value);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod composite;
mod error;
mod primitives;
mod reader;
#[cfg(test)]
mod slice_tests;

#[macro_use]
mod macros;

pub use error::DecodeError;
pub use reader::Reader;

/// A value that can be encoded into a flat byte stream and decoded back.
///
/// Implementations must satisfy the round-trip law: for any value `v`,
/// `decode(encode(v)) == v`, and `encode(v).len() == v.encoded_len()`.
/// The encoding must be *self-delimiting* when read through a [`Reader`]
/// (i.e. `decode` consumes exactly `encoded_len` bytes), so values can be
/// concatenated.
pub trait Serial: Sized {
    /// Exact number of bytes [`Serial::encode`] will append.
    fn encoded_len(&self) -> usize;

    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode one value from the reader, consuming exactly the bytes that
    /// `encode` produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Append the encodings of `items`, back to back, to `buf`: what
    /// `Vec<T>`, `Box<[T]>` and `[T; N]` call for their elements.
    ///
    /// The bytes are a fixed part of the on-disk format and may not
    /// change: an override must append exactly what calling
    /// [`Serial::encode`] on each item in turn appends, which is what this
    /// default does. Override it only where a whole span can be written
    /// faster than item by item — a type whose encoding has one fixed
    /// width, as the primitive integers and floats do here.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode `n` values from the reader and push them onto `out`: the
    /// inverse of [`Serial::encode_slice`].
    ///
    /// An override must consume the bytes, push the values and — on any
    /// input, however short or malformed — return the [`DecodeError`] that
    /// calling [`Serial::decode`] `n` times would, which is what this
    /// default does. It never reserves room for `n` values on the word of
    /// a length prefix alone; callers bound `n` by the input first
    /// ([`Reader::check_len`]). Override it together with
    /// [`Serial::encode_slice`], for the same types.
    fn decode_into(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), DecodeError> {
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(())
    }
}

/// Encode a single value into a fresh byte vector.
pub fn to_bytes<T: Serial>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    debug_assert_eq!(buf.len(), value.encoded_len(), "encoded_len mismatch");
    buf
}

/// Encode a single value into a caller-provided buffer, reusing its
/// allocation.
///
/// The buffer is cleared first, so after the call it holds exactly the
/// same bytes [`to_bytes`] would return — but hot paths that encode a
/// value per virtual processor per superstep can recycle one buffer
/// instead of allocating a fresh `Vec` each time.
pub fn to_bytes_into<T: Serial>(value: &T, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(value.encoded_len());
    value.encode(buf);
    debug_assert_eq!(buf.len(), value.encoded_len(), "encoded_len mismatch");
}

/// Decode a single value from a byte slice, requiring that the whole slice
/// is consumed.
pub fn from_bytes<T: Serial>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes { remaining: r.remaining() });
    }
    Ok(v)
}

/// Decode a single value from the front of a byte slice, ignoring trailing
/// bytes (useful for values padded to a fixed region size).
pub fn from_bytes_prefix<T: Serial>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    T::decode(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_helpers() {
        let v = 0xDEAD_BEEF_u64;
        let b = to_bytes(&v);
        assert_eq!(b.len(), 8);
        assert_eq!(from_bytes::<u64>(&b).unwrap(), v);
    }

    #[test]
    fn to_bytes_into_reuses_and_matches() {
        let mut buf = vec![0xFFu8; 64];
        let v: (u32, Vec<u16>) = (7, vec![1, 2, 3]);
        to_bytes_into(&v, &mut buf);
        assert_eq!(buf, to_bytes(&v));
        // A second encode into the same buffer overwrites, not appends.
        let w: (u32, Vec<u16>) = (9, vec![4]);
        to_bytes_into(&w, &mut buf);
        assert_eq!(buf, to_bytes(&w));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = to_bytes(&1u32);
        b.push(0);
        assert!(matches!(from_bytes::<u32>(&b), Err(DecodeError::TrailingBytes { remaining: 1 })));
        // ...but accepted by the prefix variant.
        assert_eq!(from_bytes_prefix::<u32>(&b).unwrap(), 1);
    }
}
