//! `Serial` implementations for primitive types.
//!
//! All multi-byte integers use little-endian fixed-width encodings: the EM
//! simulation pads contexts to a fixed size `μ`, so fixed widths (rather
//! than varints) keep `encoded_len` independent of the value and make block
//! layout arithmetic exact.

use crate::{DecodeError, Reader, Serial};

macro_rules! impl_serial_int {
    ($($ty:ty),*) => {
        $(
            impl Serial for $ty {
                #[inline]
                fn encoded_len(&self) -> usize {
                    std::mem::size_of::<$ty>()
                }

                #[inline]
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_le_bytes());
                }

                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    Ok(<$ty>::from_le_bytes(r.take_array()?))
                }

                // One fixed width: a slice is one span of bytes, sized once
                // and filled in a loop the compiler turns into a copy on a
                // little-endian target and into byte swaps on any other.
                fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
                    const W: usize = std::mem::size_of::<$ty>();
                    let start = buf.len();
                    buf.resize(start + items.len() * W, 0);
                    for (bytes, item) in buf[start..].chunks_exact_mut(W).zip(items) {
                        bytes.copy_from_slice(&item.to_le_bytes());
                    }
                }

                fn decode_into(
                    r: &mut Reader<'_>,
                    n: usize,
                    out: &mut Vec<Self>,
                ) -> Result<(), DecodeError> {
                    const W: usize = std::mem::size_of::<$ty>();
                    match n.checked_mul(W) {
                        Some(span) if span <= r.remaining() => {
                            let bytes = r.take(span)?;
                            out.extend(bytes.chunks_exact(W).map(|word| {
                                <$ty>::from_le_bytes(word.try_into().expect("chunks of W bytes"))
                            }));
                            Ok(())
                        }
                        // Short input: value by value up to the one that
                        // does not fit, so the error is the same one.
                        _ => {
                            for _ in 0..n {
                                out.push(Self::decode(r)?);
                            }
                            Ok(())
                        }
                    }
                }
            }
        )*
    };
}

impl_serial_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Serial for usize {
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        // Always 8 bytes for cross-platform stability of on-disk layouts.
        buf.extend_from_slice(&(*self as u64).to_le_bytes());
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::from_le_bytes(r.take_array()?);
        usize::try_from(v).map_err(|_| DecodeError::InvalidValue { type_name: "usize" })
    }
}

impl Serial for isize {
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(*self as i64).to_le_bytes());
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = i64::from_le_bytes(r.take_array()?);
        isize::try_from(v).map_err(|_| DecodeError::InvalidValue { type_name: "isize" })
    }
}

impl Serial for bool {
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag { type_name: "bool", tag }),
        }
    }
}

impl Serial for () {
    #[inline]
    fn encoded_len(&self) -> usize {
        0
    }

    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}

    #[inline]
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes};

    macro_rules! rt {
        ($v:expr, $ty:ty) => {{
            let v: $ty = $v;
            let b = to_bytes(&v);
            assert_eq!(b.len(), std::mem::size_of::<$ty>().max(1).min(b.len().max(1)));
            assert_eq!(from_bytes::<$ty>(&b).unwrap(), v);
        }};
    }

    #[test]
    fn integer_round_trips() {
        rt!(0, u8);
        rt!(255, u8);
        rt!(u16::MAX, u16);
        rt!(u32::MAX, u32);
        rt!(u64::MAX, u64);
        rt!(u128::MAX, u128);
        rt!(i8::MIN, i8);
        rt!(i16::MIN, i16);
        rt!(i32::MIN, i32);
        rt!(i64::MIN, i64);
        rt!(i128::MIN, i128);
    }

    #[test]
    fn float_round_trips() {
        for v in [0.0f64, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, f64::INFINITY] {
            let b = to_bytes(&v);
            assert_eq!(from_bytes::<f64>(&b).unwrap().to_bits(), v.to_bits());
        }
        let nan = f32::NAN;
        let b = to_bytes(&nan);
        assert!(from_bytes::<f32>(&b).unwrap().is_nan());
    }

    #[test]
    fn usize_is_eight_bytes_and_checked() {
        let b = to_bytes(&usize::MAX);
        assert_eq!(b.len(), 8);
        assert_eq!(from_bytes::<usize>(&b).unwrap(), usize::MAX);
    }

    #[test]
    fn bool_rejects_bad_tag() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<bool>(&[1]).unwrap());
    }

    #[test]
    fn unit_is_zero_bytes() {
        assert!(to_bytes(&()).is_empty());
        from_bytes::<()>(&[]).unwrap();
    }
}
