//! The one integrity frame every byte format goes through.
//!
//! ```text
//! [ len:u32 | checksum:u64 | payload: len bytes ]
//! ```
//!
//! little-endian, the checksum over the payload alone. Wire messages, the
//! master file and the catalog are each one frame. A WAL record is one
//! *varint frame*, the same but with a LEB128 `len`
//! ([`encode_var`] / [`decode_var`]; [`encode_var_into`] appends one to a
//! buffer), which saves three bytes on the
//! small records that make up most of the log. The log and the catalog
//! also lead with a magic + version [`check_header`].
//! Pages keep [`checksum`] in a fixed header slot, and a replication frame
//! carries already-framed records with no checksum of its own.
//!
//! [`decode`] borrows the payload without copying and never panics; each
//! format decides what [`Decoded::Incomplete`] and [`Decoded::Corrupt`]
//! mean for it.

use crate::codec::{put_varint, varint_prefix};
use crate::error::{Error, Result};

/// Bytes of frame header before the payload: `len` + `checksum`.
pub const HEADER_LEN: usize = 4 + 8;

/// What [`decode`] found at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A whole frame whose checksum holds: its payload, and the bytes the
    /// frame spans.
    Complete(&'a [u8], usize),
    /// A strict prefix of a frame (or nothing): more bytes may complete it.
    Incomplete,
    /// A length over the cap, or a checksum that does not hold.
    Corrupt(&'static str),
}

/// 64-bit FNV-1a over `data`. Not cryptographic: it only needs to catch
/// torn writes and bit rot. Every single-byte change alters it, since
/// each step is a bijection of the running state.
pub fn checksum(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Frame `payload`.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How many bytes the frame at the front of `buf` spans, by its length
/// field; `None` until `buf` holds that field.
fn span(buf: &[u8]) -> Option<usize> {
    Some(HEADER_LEN + u32::from_le_bytes(buf.get(..4)?.try_into().unwrap()) as usize)
}

/// Decode the frame at the front of `buf`, refusing a length over
/// `max_len` before waiting for that many bytes.
pub fn decode(buf: &[u8], max_len: usize) -> Decoded<'_> {
    let Some(end) = span(buf) else {
        return Decoded::Incomplete;
    };
    if end - HEADER_LEN > max_len {
        return Decoded::Corrupt("frame length over its cap");
    }
    let Some(payload) = buf.get(HEADER_LEN..end) else {
        return Decoded::Incomplete;
    };
    if checksum(payload) != u64::from_le_bytes(buf[4..HEADER_LEN].try_into().unwrap()) {
        return Decoded::Corrupt("frame checksum mismatch");
    }
    Decoded::Complete(payload, end)
}

/// Frame `payload` with a varint length (the log's frame).
pub fn encode_var(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_var_into(&mut out, payload);
    out
}

/// [`encode_var`], appended to `out`: how the log frames each record
/// straight into its tail buffer.
pub fn encode_var_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(5 + 8 + payload.len());
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// How many bytes the varint frame at the front of `buf` spans, by its
/// length field; `None` until `buf` holds that field, and also for a
/// malformed field or a length over `max_len` (which [`decode_var`]
/// reports as corrupt).
pub fn span_var(buf: &[u8], max_len: usize) -> Option<usize> {
    let (len, used) = varint_prefix(buf)?.ok()?;
    let len = usize::try_from(len).ok().filter(|&l| l <= max_len)?;
    Some(used + 8 + len)
}

/// [`decode`] for a varint frame. A length field cut short is
/// `Incomplete`; an overlong, padded or over-`u64` one is `Corrupt`.
pub fn decode_var(buf: &[u8], max_len: usize) -> Decoded<'_> {
    let (len, used) = match varint_prefix(buf) {
        None => return Decoded::Incomplete,
        Some(Err(why)) => return Decoded::Corrupt(why),
        Some(Ok(field)) => field,
    };
    let Some(len) = usize::try_from(len).ok().filter(|&l| l <= max_len) else {
        return Decoded::Corrupt("frame length over its cap");
    };
    let (Some(sum), Some(payload)) = (buf.get(used..used + 8), buf.get(used + 8..used + 8 + len))
    else {
        return Decoded::Incomplete;
    };
    if checksum(payload) != u64::from_le_bytes(sum.try_into().unwrap()) {
        return Decoded::Corrupt("frame checksum mismatch");
    }
    Decoded::Complete(payload, used + 8 + len)
}

/// The payload of `buf` when it is exactly one frame: a file's whole
/// content. A short file, a bad checksum and trailing bytes are all
/// `Corruption` naming `what`.
pub fn decode_exact<'a>(buf: &'a [u8], what: &str) -> Result<&'a [u8]> {
    match decode(buf, usize::MAX) {
        Decoded::Complete(payload, used) if used == buf.len() => Ok(payload),
        Decoded::Complete(..) => Err(Error::corruption(format!("{what}: bytes after its frame"))),
        Decoded::Incomplete => Err(Error::corruption(format!("{what}: short frame"))),
        Decoded::Corrupt(why) => Err(Error::corruption(format!("{what}: {why}"))),
    }
}

/// Strip an 8-byte magic + version `header` off the front of `buf`. The
/// same magic at another version, and anything else, is `Corruption`
/// naming `what`.
pub fn check_header<'a>(buf: &'a [u8], header: &[u8; 8], what: &str) -> Result<&'a [u8]> {
    match buf.split_at_checked(header.len()) {
        Some((head, rest)) if head == header => Ok(rest),
        Some((head, _)) if head[..4] == header[..4] => {
            Err(Error::corruption(format!("{what} version {:?}", &head[4..])))
        }
        _ => Err(Error::corruption(format!("{what} does not start with its header"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_frame_roundtrips_and_refuses_damage() {
        let bytes = encode_var(b"payload");
        assert_eq!(bytes.len(), 1 + 8 + 7);
        assert_eq!(span_var(&bytes[..1], 64), Some(bytes.len()));
        assert_eq!(decode_var(&bytes, 64), Decoded::Complete(b"payload", bytes.len()));
        for cut in 0..bytes.len() {
            assert_eq!(decode_var(&bytes[..cut], 64), Decoded::Incomplete, "cut at {cut}");
        }
        assert!(matches!(decode_var(&bytes, 6), Decoded::Corrupt(_)), "over the cap");
        assert_eq!(span_var(&bytes, 6), None);
        let mut flipped = bytes.clone();
        flipped[5] ^= 1;
        assert!(matches!(decode_var(&flipped, 64), Decoded::Corrupt(_)));
        assert!(matches!(decode_var(&[0x80, 0x00], 64), Decoded::Corrupt(_)), "padded length");
    }

    #[test]
    fn checksum_detects_flip() {
        let a = checksum(b"hello world");
        assert_ne!(a, checksum(b"hello worle"));
        assert_eq!(a, checksum(b"hello world"));
    }
}
