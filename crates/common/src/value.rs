//! Dynamic cell values.
//!
//! The engine's row model is dynamically typed at the storage layer (like a
//! record in a page) and statically checked against a [`crate::schema`] at
//! the catalog layer. [`Value`] supports the types the reproduced paper's
//! workloads need: 64-bit integers (keys, counts, SUM accumulators), 64-bit
//! floats, UTF-8 strings, and NULL.

use crate::codec::{Reader, Writer};
use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Column type tags used by schemas and by the codec.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl ValueType {
    /// Single-byte tag for the codec.
    pub fn tag(self) -> u8 {
        match self {
            ValueType::Int => 1,
            ValueType::Float => 2,
            ValueType::Str => 3,
        }
    }

    /// Inverse of [`ValueType::tag`]; any other byte is corruption.
    pub fn from_tag(t: u8) -> Result<ValueType> {
        match t {
            1 => Ok(ValueType::Int),
            2 => Ok(ValueType::Float),
            3 => Ok(ValueType::Str),
            _ => Err(Error::corruption(format!("bad value-type tag {t}"))),
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Str => write!(f, "STR"),
        }
    }
}

/// A single dynamically-typed cell.
///
/// `PartialEq`/`Eq`/`Hash` use *bitwise* float semantics (`f64::to_bits`):
/// `Float(0.0) != Float(-0.0)` and `Float(NAN) == Float(NAN)`. This makes
/// equality agree with [`Value::total_cmp`] and lets `Vec<Value>` serve as
/// a hash-map key for group-by values.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Returns the value's type, or `None` for NULL (NULL has every type).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// True iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer accessor; schema errors otherwise.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Error::Schema(format!("expected INT, got {other:?}"))),
        }
    }

    /// Float accessor; an INT widens losslessly-enough for aggregates.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(Error::Schema(format!("expected FLOAT, got {other:?}"))),
        }
    }

    /// String accessor; schema errors otherwise.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(Error::Schema(format!("expected STR, got {other:?}"))),
        }
    }

    /// Encode into `w`. Layout: 1 tag byte (0 = NULL), then the payload.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => {
                w.u8(0);
            }
            Value::Int(v) => {
                w.u8(ValueType::Int.tag()).i64(*v);
            }
            Value::Float(v) => {
                w.u8(ValueType::Float.tag()).f64(*v);
            }
            Value::Str(v) => {
                w.u8(ValueType::Str.tag()).str(v);
            }
        }
    }

    /// Encode an INT or FLOAT over the head of `slot`: the allocation-free
    /// counterpart of [`Value::encode`] for same-width in-place patches
    /// (both encode as the tag byte plus eight payload bytes).
    pub fn encode_fixed(&self, slot: &mut [u8]) -> Result<()> {
        let (ty, payload) = match self {
            Value::Int(v) => (ValueType::Int, v.to_le_bytes()),
            Value::Float(v) => (ValueType::Float, v.to_bits().to_le_bytes()),
            other => return Err(Error::Schema(format!("no fixed-width encoding for {other:?}"))),
        };
        let slot = slot
            .get_mut(..1 + payload.len())
            .ok_or_else(|| Error::corruption("slot too short for a fixed-width value"))?;
        slot[0] = ty.tag();
        slot[1..].copy_from_slice(&payload);
        Ok(())
    }

    /// Decode one value from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Value> {
        let tag = r.u8()?;
        if tag == 0 {
            return Ok(Value::Null);
        }
        Ok(match ValueType::from_tag(tag)? {
            ValueType::Int => Value::Int(r.i64()?),
            ValueType::Float => Value::Float(r.f64()?),
            ValueType::Str => Value::Str(r.str()?.to_owned()),
        })
    }

    /// Total order used for sorting and B-tree comparisons.
    ///
    /// NULL sorts first; values of different types sort by type tag (the
    /// schema layer prevents mixed-type columns, so this is a tie-breaker
    /// for robustness, not a semantic statement). Floats use IEEE total
    /// ordering so that the comparison is a genuine total order.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => {
                let ta = a.value_type().map(ValueType::tag).unwrap_or(0);
                let tb = b.value_type().map(ValueType::tag).unwrap_or(0);
                ta.cmp(&tb)
            }
        }
    }

    /// Numeric addition used by SUM escrow deltas. INT+INT stays INT
    /// (wrapping is a logic error and therefore checked); any float operand
    /// promotes to FLOAT. NULL absorbs (NULL + x = x), matching the
    /// "SUM ignores NULL" aggregate rule.
    pub fn numeric_add(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, b) => b.clone(),
            (a, Null) => a.clone(),
            (Int(a), Int(b)) => Int(a.checked_add(*b).ok_or_else(|| {
                Error::invalid(format!("integer overflow in SUM: {a} + {b}"))
            })?),
            (a, b) => Float(a.as_float()? + b.as_float()?),
        })
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(v) => {
                state.write_u8(1);
                state.write_i64(*v);
            }
            Value::Float(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
            Value::Str(v) => {
                state.write_u8(3);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = Value::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        out
    }

    #[test]
    fn encode_decode_all_variants() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(2.25),
            Value::Str("grüße".into()),
            Value::Str(String::new()),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn encode_fixed_matches_encode() {
        for v in [Value::Int(-42), Value::Int(i64::MAX), Value::Float(2.25)] {
            let mut w = Writer::new();
            v.encode(&mut w);
            let mut slot = [0xAAu8; 9];
            v.encode_fixed(&mut slot).unwrap();
            assert_eq!(&slot[..], &w.into_bytes()[..]);
            assert!(v.encode_fixed(&mut slot[..8]).is_err(), "short slot");
        }
        assert!(Value::Null.encode_fixed(&mut [0u8; 9]).is_err());
        assert!(Value::Str("x".into()).encode_fixed(&mut [0u8; 9]).is_err());
    }

    #[test]
    fn total_order_nulls_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Int(1).total_cmp(&Value::Null), Ordering::Greater);
    }

    #[test]
    fn total_order_within_types() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Ordering::Less
        );
        assert_eq!(Value::Float(1.0).total_cmp(&Value::Float(1.0)), Ordering::Equal);
    }

    #[test]
    fn numeric_add_int_and_float() {
        assert_eq!(
            Value::Int(2).numeric_add(&Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::Int(2).numeric_add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        // NULL absorbs.
        assert_eq!(
            Value::Null.numeric_add(&Value::Int(7)).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn numeric_add_overflow_checked() {
        assert!(Value::Int(i64::MAX).numeric_add(&Value::Int(1)).is_err());
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
    }
}
