//! Macros for deriving `Serial` on user structs and fieldless enums.

/// Implement [`crate::Serial`] for a struct with named fields, field by
/// field in declaration order.
///
/// ```
/// use em_serial::{impl_serial_struct, to_bytes, from_bytes};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Node { id: u64, next: u64, rank: i64 }
/// impl_serial_struct!(Node { id, next, rank });
///
/// let n = Node { id: 1, next: 2, rank: -1 };
/// let b = to_bytes(&n);
/// assert_eq!(from_bytes::<Node>(&b).unwrap(), n);
/// ```
#[macro_export]
macro_rules! impl_serial_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Serial for $name {
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Serial::encoded_len(&self.$field))+
            }

            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::Serial::encode(&self.$field, buf);)+
            }

            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($name {
                    $($field: $crate::Serial::decode(r)?,)+
                })
            }
        }
    };
}

/// Implement [`crate::Serial`] for a fieldless enum as a single tag byte.
///
/// ```
/// use em_serial::{impl_serial_enum, to_bytes, from_bytes};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Phase { Fetch, Compute, Write }
/// impl_serial_enum!(Phase { Fetch = 0, Compute = 1, Write = 2 });
///
/// let b = to_bytes(&Phase::Compute);
/// assert_eq!(b, vec![1]);
/// assert_eq!(from_bytes::<Phase>(&b).unwrap(), Phase::Compute);
/// ```
#[macro_export]
macro_rules! impl_serial_enum {
    ($name:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Serial for $name {
            fn encoded_len(&self) -> usize {
                1
            }

            fn encode(&self, buf: &mut Vec<u8>) {
                let tag: u8 = match self {
                    $($name::$variant => $tag,)+
                };
                buf.push(tag);
            }

            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                match r.take_u8()? {
                    $($tag => Ok($name::$variant),)+
                    tag => Err($crate::DecodeError::InvalidTag {
                        type_name: stringify!($name),
                        tag,
                    }),
                }
            }
        }
    };
}

/// Implement [`crate::Serial`] for a struct with named fields and type
/// parameters (each parameter is bounded by `Serial`).
///
/// ```
/// use em_serial::{impl_serial_struct_generic, to_bytes, from_bytes};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Pair<A, B> { left: A, right: Vec<B> }
/// impl_serial_struct_generic!(Pair<A, B> { left, right });
///
/// let p = Pair { left: 1u32, right: vec![2u16, 3] };
/// let b = to_bytes(&p);
/// assert_eq!(from_bytes::<Pair<u32, u16>>(&b).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_serial_struct_generic {
    ($name:ident<$($gen:ident),+> { $($field:ident),+ $(,)? }) => {
        impl<$($gen: $crate::Serial),+> $crate::Serial for $name<$($gen),+> {
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::Serial::encoded_len(&self.$field))+
            }

            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::Serial::encode(&self.$field, buf);)+
            }

            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($name {
                    $($field: $crate::Serial::decode(r)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, Serial};

    #[derive(Debug, Clone, PartialEq)]
    struct Record {
        key: u64,
        payload: Vec<u8>,
        tag: Option<u32>,
    }
    impl_serial_struct!(Record { key, payload, tag });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Green,
        Blue,
    }
    impl_serial_enum!(Color { Red = 0, Green = 1, Blue = 2 });

    #[test]
    fn struct_round_trip() {
        let r = Record { key: 42, payload: vec![1, 2, 3], tag: Some(9) };
        let b = to_bytes(&r);
        assert_eq!(b.len(), r.encoded_len());
        assert_eq!(from_bytes::<Record>(&b).unwrap(), r);
    }

    #[test]
    fn enum_round_trip_and_bad_tag() {
        for c in [Color::Red, Color::Green, Color::Blue] {
            assert_eq!(from_bytes::<Color>(&to_bytes(&c)).unwrap(), c);
        }
        assert!(from_bytes::<Color>(&[3]).is_err());
    }
}
