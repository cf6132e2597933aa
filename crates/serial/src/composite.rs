//! `Serial` implementations for composite types: tuples, `Option`, `Vec`,
//! boxed slices, `String`, fixed arrays and `Box`.

use crate::{DecodeError, Reader, Serial};

macro_rules! impl_serial_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serial),+> Serial for ($($name,)+) {
            #[inline]
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }

            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }

            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_serial_tuple!(A: 0);
impl_serial_tuple!(A: 0, B: 1);
impl_serial_tuple!(A: 0, B: 1, C: 2);
impl_serial_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_serial_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_serial_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl<T: Serial> Serial for Option<T> {
    #[inline]
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Serial::encoded_len)
    }

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::InvalidTag { type_name: "Option", tag }),
        }
    }
}

impl<T: Serial> Serial for Vec<T> {
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Serial::encoded_len).sum::<usize>()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        T::encode_slice(self, buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // Guard against corrupted length prefixes allocating huge vectors:
        // every non-zero-sized element consumes at least one byte.
        let min_elem_bytes = usize::from(std::mem::size_of::<T>() > 0);
        r.check_len(len, min_elem_bytes)?;
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        T::decode_into(r, len, &mut out)?;
        Ok(out)
    }
}

impl<T: Serial> Serial for Box<[T]> {
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Serial::encoded_len).sum::<usize>()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        T::encode_slice(self, buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(r)?.into_boxed_slice())
    }
}

impl<T: Serial> Serial for Box<T> {
    #[inline]
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl Serial for String {
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        r.check_len(len, 1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::InvalidValue { type_name: "String" })
    }
}

impl<T: Serial, const N: usize> Serial for [T; N] {
    fn encoded_len(&self) -> usize {
        self.iter().map(Serial::encoded_len).sum()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        T::encode_slice(self, buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Decode into a Vec first; N is small in practice (point coords etc.)
        let mut out = Vec::with_capacity(N);
        T::decode_into(r, N, &mut out)?;
        out.try_into().map_err(|_| DecodeError::InvalidValue { type_name: "[T; N]" })
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, Serial};

    #[test]
    fn tuple_round_trip() {
        let v = (1u8, 2u32, -3i64, true);
        let b = to_bytes(&v);
        assert_eq!(b.len(), 1 + 4 + 8 + 1);
        assert_eq!(from_bytes::<(u8, u32, i64, bool)>(&b).unwrap(), v);
    }

    #[test]
    fn option_round_trip() {
        for v in [None, Some(42u16)] {
            let b = to_bytes(&v);
            assert_eq!(from_bytes::<Option<u16>>(&b).unwrap(), v);
        }
    }

    #[test]
    fn vec_round_trip_and_len() {
        let v: Vec<u32> = (0..100).collect();
        let b = to_bytes(&v);
        assert_eq!(b.len(), v.encoded_len());
        assert_eq!(from_bytes::<Vec<u32>>(&b).unwrap(), v);
    }

    #[test]
    fn nested_vec() {
        let v = vec![vec![1u8, 2], vec![], vec![3]];
        let b = to_bytes(&v);
        assert_eq!(from_bytes::<Vec<Vec<u8>>>(&b).unwrap(), v);
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        // Claim 2^60 elements with a 1-byte payload.
        let mut b = to_bytes(&(1u64 << 60));
        b.push(7);
        assert!(from_bytes::<Vec<u64>>(&b).is_err());
    }

    #[test]
    fn string_round_trip() {
        for s in ["", "hello", "κόσμε", "💾"] {
            let v = s.to_string();
            let b = to_bytes(&v);
            assert_eq!(from_bytes::<String>(&b).unwrap(), v);
        }
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut b = to_bytes(&2u64);
        b.extend_from_slice(&[0xFF, 0xFE]);
        assert!(from_bytes::<String>(&b).is_err());
    }

    #[test]
    fn array_round_trip() {
        let v = [1.5f64, -2.5, 0.0];
        let b = to_bytes(&v);
        assert_eq!(b.len(), 24);
        assert_eq!(from_bytes::<[f64; 3]>(&b).unwrap(), v);
    }

    #[test]
    fn boxed_values() {
        let v = Box::new(77u64);
        let b = to_bytes(&v);
        assert_eq!(from_bytes::<Box<u64>>(&b).unwrap(), v);
        let s: Box<[u16]> = vec![1, 2, 3].into_boxed_slice();
        let b = to_bytes(&s);
        assert_eq!(from_bytes::<Box<[u16]>>(&b).unwrap(), s);
    }
}
