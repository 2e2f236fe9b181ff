//! Order-preserving binary keys.
//!
//! B-tree nodes compare raw bytes (`memcmp`), so keys must be encoded such
//! that byte order equals value order:
//!
//! * NULL  → tag `0x00`
//! * INT   → tag `0x01` + big-endian 8 bytes with the sign bit flipped
//! * FLOAT → tag `0x02` + IEEE bits, sign-massaged for total order
//! * STR   → tag `0x03` + escaped bytes terminated by `0x00 0x00`
//!   (each `0x00` in the payload is escaped as `0x00 0xFF`, so a shorter
//!   string sorts before its extensions)
//!
//! Composite keys are simply concatenations — the terminator scheme keeps
//! component boundaries unambiguous, so decoding is possible too (needed to
//! turn a view-index key back into group-by column values).

use crate::error::{Error, Result};
use crate::value::Value;
use std::fmt;

/// An owned, order-preserving binary key.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(Vec<u8>);

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_STR: u8 = 0x03;

impl Key {
    /// The empty key — sorts before every non-empty key; used as the lower
    /// fence of the leftmost B-tree leaf.
    pub const fn min() -> Key {
        Key(Vec::new())
    }

    /// Build a composite key from values in order.
    pub fn from_values(values: &[Value]) -> Key {
        let mut out = Vec::with_capacity(values.len() * 10);
        for v in values {
            encode_component(v, &mut out);
        }
        Key(out)
    }

    /// Decode the key back into its component values.
    pub fn decode_values(&self) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        let mut buf = &self.0[..];
        while !buf.is_empty() {
            let (v, rest) = decode_component(buf)?;
            out.push(v);
            buf = rest;
        }
        Ok(out)
    }

    /// Raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The encoded bytes, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Wrap pre-encoded bytes (trusted — used when reading keys back off a
    /// page that this module wrote).
    pub fn from_bytes(bytes: Vec<u8>) -> Key {
        Key(bytes)
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff this is the minimal (empty) key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The immediate successor in byte order (append `0x00`). Used to turn
    /// an inclusive bound into an exclusive one for range scans and to
    /// name the gap *after* a key in key-range locking.
    pub fn successor(&self) -> Key {
        let mut b = self.0.clone();
        b.push(0);
        Key(b)
    }

    /// The smallest key greater than every key extending this one as a
    /// prefix (increment-with-carry). `None` means "no upper bound" (the
    /// prefix is all `0xFF`); scan to the end of the index instead.
    pub fn prefix_upper_bound(&self) -> Option<Key> {
        let mut b = self.0.clone();
        while let Some(last) = b.last_mut() {
            if *last < 0xFF {
                *last += 1;
                return Some(Key(b));
            }
            b.pop();
        }
        None
    }
}

fn encode_component(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            // Flip the sign bit so that two's complement order becomes
            // unsigned byte order, then store big-endian.
            let flipped = (*i as u64) ^ (1u64 << 63);
            out.extend_from_slice(&flipped.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            let bits = f.to_bits();
            // IEEE-754 total-order trick: positive floats get the sign bit
            // set; negative floats are fully complemented.
            let massaged = if bits & (1u64 << 63) == 0 {
                bits | (1u64 << 63)
            } else {
                !bits
            };
            out.extend_from_slice(&massaged.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

fn decode_component(buf: &[u8]) -> Result<(Value, &[u8])> {
    let (&tag, rest) = buf
        .split_first()
        .ok_or_else(|| Error::corruption("empty key component"))?;
    match tag {
        TAG_NULL => Ok((Value::Null, rest)),
        TAG_INT => {
            if rest.len() < 8 {
                return Err(Error::corruption("short INT key component"));
            }
            let flipped = u64::from_be_bytes(rest[..8].try_into().unwrap());
            Ok((Value::Int((flipped ^ (1u64 << 63)) as i64), &rest[8..]))
        }
        TAG_FLOAT => {
            if rest.len() < 8 {
                return Err(Error::corruption("short FLOAT key component"));
            }
            let massaged = u64::from_be_bytes(rest[..8].try_into().unwrap());
            let bits = if massaged & (1u64 << 63) != 0 {
                massaged & !(1u64 << 63)
            } else {
                !massaged
            };
            Ok((Value::Float(f64::from_bits(bits)), &rest[8..]))
        }
        TAG_STR => {
            let mut s = Vec::new();
            let mut i = 0;
            loop {
                match rest.get(i) {
                    Some(0x00) => match rest.get(i + 1) {
                        Some(0x00) => {
                            let v = String::from_utf8(s)
                                .map_err(|_| Error::corruption("non-utf8 STR key"))?;
                            return Ok((Value::Str(v), &rest[i + 2..]));
                        }
                        Some(0xFF) => {
                            s.push(0x00);
                            i += 2;
                        }
                        _ => return Err(Error::corruption("bad STR key escape")),
                    },
                    Some(&b) => {
                        s.push(b);
                        i += 1;
                    }
                    None => return Err(Error::corruption("unterminated STR key component")),
                }
            }
        }
        t => Err(Error::corruption(format!("bad key tag {t}"))),
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decode_values() {
            Ok(vals) => {
                write!(f, "key[")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Err(_) => write!(f, "key<{} raw bytes>", self.0.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(vals: &[Value]) -> Key {
        Key::from_values(vals)
    }

    #[test]
    fn int_order_preserved() {
        let cases = [i64::MIN, -100, -1, 0, 1, 77, i64::MAX];
        for w in cases.windows(2) {
            assert!(
                k(&[Value::Int(w[0])]) < k(&[Value::Int(w[1])]),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn float_order_preserved() {
        let cases = [-1e300, -1.5, -0.0, 0.0, 1e-10, 2.5, 1e300];
        for w in cases.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ka, kb) = (k(&[Value::Float(a)]), k(&[Value::Float(b)]));
            if a == b {
                // -0.0 and 0.0 keep total order: -0.0 < 0.0
                assert!(ka <= kb);
            } else {
                assert!(ka < kb, "{a} !< {b}");
            }
        }
    }

    #[test]
    fn string_prefix_sorts_first() {
        assert!(k(&["ab".into()]) < k(&["abc".into()]));
        assert!(k(&["ab".into()]) < k(&["b".into()]));
    }

    #[test]
    fn embedded_nul_handled() {
        let a = Value::Str("a\0b".into());
        let b = Value::Str("a\0c".into());
        assert!(k(std::slice::from_ref(&a)) < k(std::slice::from_ref(&b)));
        let back = k(std::slice::from_ref(&a)).decode_values().unwrap();
        assert_eq!(back, vec![a]);
    }

    #[test]
    fn composite_order_is_lexicographic() {
        let a = k(&[Value::Int(1), Value::Str("z".into())]);
        let b = k(&[Value::Int(2), Value::Str("a".into())]);
        assert!(a < b);
        // First component dominates even when second is longer.
        let c = k(&[Value::Int(1)]);
        assert!(c < a);
    }

    #[test]
    fn null_sorts_first() {
        assert!(k(&[Value::Null]) < k(&[Value::Int(i64::MIN)]));
        assert!(k(&[Value::Null]) < k(&[Value::Str(String::new())]));
    }

    #[test]
    fn roundtrip_composites() {
        let vals = vec![
            Value::Int(-7),
            Value::Str("héllo\0world".into()),
            Value::Float(-2.25),
            Value::Null,
        ];
        assert_eq!(k(&vals).decode_values().unwrap(), vals);
    }

    #[test]
    fn successor_is_tight() {
        let a = k(&[Value::Int(5)]);
        let s = a.successor();
        assert!(a < s);
        // Nothing fits between a and its successor in byte order.
        assert_eq!(s.as_bytes(), [a.as_bytes(), &[0][..]].concat());
    }

    #[test]
    fn min_key_sorts_before_everything() {
        assert!(Key::min() < k(&[Value::Null]));
        assert!(Key::min().is_empty());
    }

    #[test]
    fn corrupt_keys_error_cleanly() {
        assert!(Key::from_bytes(vec![0x09]).decode_values().is_err());
        assert!(Key::from_bytes(vec![TAG_INT, 1, 2]).decode_values().is_err());
        assert!(Key::from_bytes(vec![TAG_STR, b'a']).decode_values().is_err());
    }
}
