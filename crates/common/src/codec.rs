//! Hand-written little-endian binary codec.
//!
//! Pages, log records, rows, and catalog entries are all serialized through
//! [`Writer`] and deserialized through [`Reader`]. Keeping the codec in one
//! tiny module makes the on-disk format explicit and easy to audit, and
//! avoids pulling a serialization framework into the storage layer.
//!
//! Conventions:
//! * integers are little-endian fixed width, except where a format asks
//!   for a [`Writer::varint`] (LEB128: seven bits a byte, low group first,
//!   at most ten bytes; signed values zigzag-mapped first),
//! * byte strings are a `u32` length followed by the bytes (or a varint
//!   length, [`Writer::var_bytes`]),
//! * decoding never panics — malformed input yields [`Error::Corruption`].

use crate::error::{Error, Result};
use crate::ids::{Lsn, PageId, TxnId};

/// Append-only binary writer over a `Vec<u8>`.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// New writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// New empty writer over `buf`'s allocation.
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i64` (little-endian two's complement).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `f64` (IEEE-754 bits, little-endian).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write `v` as a LEB128 varint: one byte for values below 128.
    pub fn varint(&mut self, v: u64) -> &mut Self {
        put_varint(&mut self.buf, v);
        self
    }

    /// Write `v` zigzag-mapped as a varint: small magnitudes of either
    /// sign take one byte.
    pub fn zigzag(&mut self, v: i64) -> &mut Self {
        self.varint(((v << 1) ^ (v >> 63)) as u64)
    }

    /// Write a byte string with a varint length.
    pub fn var_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Write an [`Lsn`].
    pub fn lsn(&mut self, v: Lsn) -> &mut Self {
        self.u64(v.0)
    }

    /// Write a [`TxnId`].
    pub fn txn(&mut self, v: TxnId) -> &mut Self {
        self.u64(v.0)
    }

    /// Write a [`PageId`].
    pub fn page(&mut self, v: PageId) -> &mut Self {
        self.u32(v.0)
    }
}

/// Cursor-based binary reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the cursor reached the end of the buffer.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corruption(format!(
                "codec underrun: want {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool; any byte other than 0/1 is corruption.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::corruption(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a LEB128 varint. More than ten bytes, a tenth byte over 1 (a
    /// value past `u64::MAX`) and a padded encoding (a last byte of 0
    /// after the first) are corruption: every value has one encoding.
    pub fn varint(&mut self) -> Result<u64> {
        match varint_prefix(&self.buf[self.pos..]) {
            Some(Ok((v, used))) => {
                self.pos += used;
                Ok(v)
            }
            Some(Err(why)) => Err(Error::corruption(why)),
            None => Err(Error::corruption("codec underrun: varint cut short")),
        }
    }

    /// Read a zigzag-mapped varint.
    pub fn zigzag(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Read a byte string with a varint length.
    pub fn var_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| Error::corruption("invalid utf-8 in string"))
    }

    /// Read an [`Lsn`].
    pub fn lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.u64()?))
    }

    /// Read a [`TxnId`].
    pub fn txn(&mut self) -> Result<TxnId> {
        Ok(TxnId(self.u64()?))
    }

    /// Read a [`PageId`].
    pub fn page(&mut self) -> Result<PageId> {
        Ok(PageId(self.u32()?))
    }
}

/// Append `v` to `buf` as a LEB128 varint ([`Writer::varint`]).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode the LEB128 varint at the front of `buf`: `None` while `buf`
/// ends inside it, `Err` for an overlong, padded or over-`u64` encoding,
/// else the value and the bytes it spans.
pub fn varint_prefix(buf: &[u8]) -> Option<std::result::Result<(u64, usize), &'static str>> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate() {
        if i == 9 && b & 0x80 != 0 {
            return Some(Err("varint longer than ten bytes"));
        }
        if i == 9 && b > 1 {
            return Some(Err("varint over u64"));
        }
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Some(Err("padded varint"));
            }
            return Some(Ok((v, i + 1)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).i64(-5).f64(3.5).bool(true);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert!(r.bool().unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_strings_and_ids() {
        let mut w = Writer::new();
        w.str("hello").bytes(b"\x00\xff").lsn(Lsn(9)).txn(TxnId(4)).page(PageId(2));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), b"\x00\xff");
        assert_eq!(r.lsn().unwrap(), Lsn(9));
        assert_eq!(r.txn().unwrap(), TxnId(4));
        assert_eq!(r.page().unwrap(), PageId(2));
    }

    #[test]
    fn underrun_is_corruption_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(Error::Corruption(_))));
    }

    #[test]
    fn invalid_bool_is_corruption() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.bool(), Err(Error::Corruption(_))));
    }

    #[test]
    fn truncated_bytes_is_corruption() {
        let mut w = Writer::new();
        w.bytes(b"abcdef");
        let mut bytes = w.into_bytes();
        bytes.truncate(6); // cut into the payload
        let mut r = Reader::new(&bytes);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn varints_roundtrip_at_their_edges() {
        let us = [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        let is = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut w = Writer::new();
        for &u in &us {
            w.varint(u);
        }
        for &i in &is {
            w.zigzag(i);
        }
        w.var_bytes(b"xyz");
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0, "zero is one byte");
        let mut r = Reader::new(&bytes);
        for &u in &us {
            assert_eq!(r.varint().unwrap(), u);
        }
        for &i in &is {
            assert_eq!(r.zigzag().unwrap(), i);
        }
        assert_eq!(r.var_bytes().unwrap(), b"xyz");
        assert!(r.is_exhausted());
        let mut w = Writer::new();
        w.zigzag(-1).zigzag(63).zigzag(-64);
        assert_eq!(w.len(), 3, "small magnitudes of either sign take one byte");
    }

    #[test]
    fn malformed_varints_are_corruption() {
        let over = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let long = [0x80u8; 11];
        for (bad, why) in [
            (&over[..], "over u64"),
            (&long[..], "longer than ten"),
            (&[0x80, 0x00][..], "padded"),
            (&[0x80][..], "cut short"),
            (&[][..], "cut short"),
        ] {
            match Reader::new(bad).varint() {
                Err(Error::Corruption(m)) => assert!(m.contains(why), "{bad:?}: {m}"),
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        assert_eq!(varint_prefix(&[0x80, 0x80]), None, "a prefix may still complete");
        let max = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(Reader::new(&max).varint().unwrap(), u64::MAX);
        let mut w = Writer::new();
        w.varint(u64::MAX);
        assert_eq!(w.into_bytes(), max);
        // A byte string whose varint length exceeds what is left.
        assert!(Reader::new(&[0x05, 1, 2]).var_bytes().is_err());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let mut w = Writer::new();
        w.f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.f64().unwrap().is_nan());
    }
}
