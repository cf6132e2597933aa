//! Round-trip properties of the codec: `decode(encode(v)) == v` and
//! `encode(v).len() == v.encoded_len()` for arbitrary values, plus
//! robustness against arbitrary (possibly garbage) input bytes. Each
//! property runs on 256 seeded cases.

use em_serial::{from_bytes, to_bytes, Reader, Serial};
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
        let seed = Seed(0x5E71A1 ^ case);
        property(&mut StdRng::seed_from_u64(seed.0));
    }
}

fn coin(rng: &mut StdRng) -> bool {
    rng.next_u32() & 1 == 1
}

/// Up to 100 items, as often empty as any other length.
fn vec_of<T>(rng: &mut StdRng, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(0..100usize)).map(|_| item(rng)).collect()
}

fn bytes(rng: &mut StdRng) -> Vec<u8> {
    vec_of(rng, |rng| rng.next_u32() as u8)
}

/// Up to 32 characters from every UTF-8 width, controls and quotes included.
fn string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 12] = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\0', 'é', 'λ', '語', '🦀'];
    (0..rng.gen_range(0..32usize)).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

fn assert_round_trip<T: Serial + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_bytes(v);
    assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch for {v:?}");
    let back: T = from_bytes(&bytes).expect("decode failed");
    assert_eq!(&back, v);
}

#[test]
fn u64_round_trip() {
    cases(|rng| assert_round_trip(&rng.next_u64()));
}

#[test]
fn i128_round_trip() {
    cases(|rng| assert_round_trip(&((rng.next_u64() as i128) << 64 | rng.next_u64() as i128)));
}

#[test]
fn f64_bits_round_trip() {
    cases(|rng| {
        // Compare via bits so NaNs round-trip too.
        let v = rng.next_u64();
        let back: f64 = from_bytes(&to_bytes(&f64::from_bits(v))).unwrap();
        assert_eq!(back.to_bits(), v);
    });
}

#[test]
fn vec_u32_round_trip() {
    cases(|rng| assert_round_trip(&vec_of(rng, |rng| rng.next_u32())));
}

#[test]
fn nested_round_trip() {
    cases(|rng| {
        assert_round_trip(&vec_of(rng, |rng| {
            (rng.next_u32() as u16, coin(rng).then(|| string(rng)))
        }))
    });
}

#[test]
fn tuple_round_trip() {
    cases(|rng| {
        assert_round_trip(&(rng.next_u32() as u8, rng.next_u64() as i64, coin(rng), bytes(rng)))
    });
}

#[test]
fn string_round_trip() {
    cases(|rng| assert_round_trip(&string(rng)));
}

/// Decoding arbitrary bytes must never panic — it either produces a
/// value or a typed error. Half the cases are noise; the other half are a
/// valid encoding, cut short or with one byte changed, so that the
/// decoders get past their first length prefix.
#[test]
fn garbage_never_panics() {
    cases(|rng| {
        let mut input = if coin(rng) {
            bytes(rng)
        } else {
            match rng.gen_range(0..3u32) {
                0 => to_bytes(&vec_of(rng, |rng| rng.next_u64())),
                1 => to_bytes(&string(rng)),
                _ => to_bytes(&(rng.next_u32(), coin(rng).then(|| vec_of(rng, |_| 7u16)))),
            }
        };
        if coin(rng) {
            input.truncate(rng.gen_range(0..=input.len()));
        }
        if !input.is_empty() && coin(rng) {
            let at = rng.gen_range(0..input.len());
            input[at] = rng.next_u32() as u8;
        }
        let _ = from_bytes::<Vec<u64>>(&input);
        let _ = from_bytes::<String>(&input);
        let _ = from_bytes::<(u32, Option<Vec<u16>>)>(&input);
        let _ = from_bytes::<bool>(&input);
    });
}

/// Concatenated values decode in sequence through one reader.
#[test]
fn concatenation() {
    cases(|rng| {
        let (a, b, c) = (rng.next_u32(), bytes(rng), (coin(rng), rng.next_u32() as i16));
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        c.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u32::decode(&mut r).unwrap(), a);
        assert_eq!(Vec::<u8>::decode(&mut r).unwrap(), b);
        assert_eq!(<(bool, i16)>::decode(&mut r).unwrap(), c);
        assert!(r.is_empty());
    });
}
