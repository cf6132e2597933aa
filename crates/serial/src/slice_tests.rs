//! [`Serial::encode_slice`] and [`Serial::decode_into`] against the
//! element-wise loop they stand for: the same bytes, the same values and
//! the same [`DecodeError`] on every truncated input, for every type that
//! overrides them — and, as controls on the harness itself, for some that
//! keep the default. Seeded loops, so they run wherever the unit tests do.

use crate::{from_bytes, to_bytes, DecodeError, Reader, Serial};

/// Knuth's 64-bit LCG; the high halves of two steps make one value.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut step = || {
            self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            self.0 >> 32
        };
        step() << 32 | step()
    }
}

/// The reference: one `encode` per item.
fn encode_each<T: Serial>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    for item in items {
        item.encode(&mut buf);
    }
    buf
}

/// The reference: one `decode` per item, stopping at the first error.
fn decode_each<T: Serial>(
    r: &mut Reader<'_>,
    n: usize,
    out: &mut Vec<T>,
) -> Result<(), DecodeError> {
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(())
}

/// `Vec<T>::decode` as it was before the slice methods.
fn decode_vec_each<T: Serial>(bytes: &[u8]) -> Result<Vec<T>, DecodeError> {
    let mut r = Reader::new(bytes);
    let len = usize::decode(&mut r)?;
    r.check_len(len, usize::from(std::mem::size_of::<T>() > 0))?;
    let mut out = Vec::new();
    decode_each(&mut r, len, &mut out)?;
    Ok(out)
}

/// Values are compared by their encodings, so a NaN equals itself.
fn same<T: Serial>(what: &str, got: &[T], want: &[T]) {
    assert_eq!(got.len(), want.len(), "{what}: count");
    assert_eq!(encode_each(got), encode_each(want), "{what}: values");
}

/// Hold `T`'s slice methods to the element-wise loop for every length
/// `0..=257` — past `u8::MAX`, and on both sides of the powers of two a
/// vectorized loop splits at.
fn check<T: Serial>(name: &str, make: impl Fn(&mut Lcg) -> T) {
    let mut lcg = Lcg(0x5EED ^ name.len() as u64);
    for len in 0..=257usize {
        let items: Vec<T> = (0..len).map(|_| make(&mut lcg)).collect();
        let what = format!("{name}, {len} items");
        let want = encode_each(&items);

        // Encoding appends the element-wise bytes after what was there.
        let mut buf = vec![0xA5; 3];
        T::encode_slice(&items, &mut buf);
        assert_eq!((&buf[..3], &buf[3..]), (&[0xA5; 3][..], &want[..]), "{what}: encode_slice");
        assert_eq!(items.iter().map(Serial::encoded_len).sum::<usize>(), want.len(), "{what}");
        let framed = to_bytes(&items);
        assert_eq!(items.encoded_len(), framed.len(), "{what}: Vec::encoded_len");
        assert_eq!(framed[..8], (len as u64).to_le_bytes(), "{what}: Vec length prefix");
        assert_eq!(framed[8..], want[..], "{what}: Vec::encode");

        // Decoding pushes the element-wise values after what was there and
        // leaves the reader where the loop leaves it.
        let mut r = Reader::new(&want);
        let mut out = vec![make(&mut lcg)];
        T::decode_into(&mut r, len, &mut out).unwrap();
        assert!(r.is_empty(), "{what}: decode_into left {} bytes", r.remaining());
        same(&what, &out[1..], &items);
        same(&what, &from_bytes::<Vec<T>>(&framed).unwrap(), &items);

        // Truncated input: the loop's error, after the loop's pushes, at the
        // loop's position. Every cut of the short slices; of the long ones
        // every 61st byte, which is coprime to every width and so comes to
        // lie at each offset inside an element.
        for cut in (0..want.len()).step_by(if len <= 32 { 1 } else { 61 }) {
            let (mut r, mut each_r) = (Reader::new(&want[..cut]), Reader::new(&want[..cut]));
            let (mut out, mut each_out) = (Vec::new(), Vec::new());
            let got = T::decode_into(&mut r, len, &mut out);
            let expected = decode_each::<T>(&mut each_r, len, &mut each_out);
            assert!(expected.is_err(), "{what} cut to {cut} bytes");
            assert_eq!(got, expected, "{what} cut to {cut} bytes: error");
            assert_eq!(r.position(), each_r.position(), "{what} cut to {cut} bytes: position");
            same(&what, &out, &each_out);
            let got = from_bytes::<Vec<T>>(&framed[..8 + cut]).map(|v| v.len());
            let expected = decode_vec_each::<T>(&framed[..8 + cut]).map(|v| v.len());
            assert_eq!(got, expected, "{what} cut to {cut} bytes: Vec::decode");
        }
    }

    // A length prefix the input cannot back is refused by `check_len`,
    // before any element is decoded or any room reserved for one.
    let mut bogus = to_bytes(&(1u64 << 60));
    bogus.push(7);
    assert_eq!(
        from_bytes::<Vec<T>>(&bogus).err(),
        Some(DecodeError::LengthOverflow { declared: 1 << 60, available: 1 }),
        "{name}"
    );
    // One the guard admits (a byte an element) is still caught, as the loop
    // catches it, by the element that does not fit.
    let mut short = to_bytes(&3u64);
    short.extend_from_slice(&encode_each(&[make(&mut lcg)]));
    short.extend_from_slice(&[0; 2]);
    assert_eq!(
        from_bytes::<Vec<T>>(&short).map(|v| v.len()),
        decode_vec_each::<T>(&short).map(|v| v.len()),
        "{name}: three declared, one present"
    );
}

#[test]
fn integer_and_float_slices_match_the_element_wise_loop() {
    check("u8", |g| g.next() as u8);
    check("u16", |g| g.next() as u16);
    check("u32", |g| g.next() as u32);
    check("u64", |g| g.next());
    check("u128", |g| u128::from(g.next()) << 64 | u128::from(g.next()));
    check("i8", |g| g.next() as i8);
    check("i16", |g| g.next() as i16);
    check("i32", |g| g.next() as i32);
    check("i64", |g| g.next() as i64);
    check("i128", |g| (u128::from(g.next()) << 64 | u128::from(g.next())) as i128);
    // Every bit pattern, NaNs and subnormals included.
    check("f32", |g| f32::from_bits(g.next() as u32));
    check("f64", |g| f64::from_bits(g.next()));
}

#[test]
fn types_that_keep_the_default_are_the_loop() {
    check("usize", |g| g.next() as usize);
    check("bool", |g| g.next() & 1 == 1);
    check("(u64, u64)", |g| (g.next(), g.next()));
    check("Option<u32>", |g| (g.next() & 1 == 1).then(|| g.next() as u32));
}

#[test]
fn arrays_and_boxed_slices_go_through_the_slice_methods() {
    let mut lcg = Lcg(7);
    let array: [u32; 5] = std::array::from_fn(|_| lcg.next() as u32);
    assert_eq!(to_bytes(&array), encode_each(&array));
    assert_eq!(from_bytes::<[u32; 5]>(&to_bytes(&array)).unwrap(), array);
    assert_eq!(
        from_bytes::<[u32; 5]>(&to_bytes(&array)[..19]).err(),
        Some(DecodeError::UnexpectedEof { needed: 4, available: 3 })
    );
    let boxed: Box<[i16]> = (0..300).map(|_| lcg.next() as i16).collect();
    assert_eq!(to_bytes(&boxed), to_bytes(&boxed.to_vec()));
    assert_eq!(from_bytes::<Box<[i16]>>(&to_bytes(&boxed)).unwrap(), boxed);
}
