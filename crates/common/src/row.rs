//! Rows: ordered tuples of [`Value`]s with a stable binary encoding.

use crate::codec::{Reader, Writer};
use crate::error::Result;
use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// An ordered tuple of values. Rows are schema-agnostic at this layer; the
/// catalog validates them against a [`crate::schema::Schema`].
#[derive(Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Empty row.
    pub fn empty() -> Self {
        Row { values: Vec::new() }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Column accessor (panics on out-of-range — arity is checked by the
    /// schema layer before rows reach storage).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Mutable column accessor.
    pub fn get_mut(&mut self, i: usize) -> &mut Value {
        &mut self.values[i]
    }

    /// Replace column `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// Append a column.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// All values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project the row onto the given column positions.
    pub fn project(&self, cols: &[usize]) -> Row {
        Row::new(cols.iter().map(|&c| self.values[c].clone()).collect())
    }

    /// Encode: `u16` arity then each value.
    pub fn encode(&self, w: &mut Writer) {
        w.u16(self.values.len() as u16);
        for v in &self.values {
            v.encode(w);
        }
    }

    /// Encode into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(16 * self.values.len() + 2);
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode one row.
    pub fn decode(r: &mut Reader<'_>) -> Result<Row> {
        let n = r.u16()? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(r)?);
        }
        Ok(Row { values })
    }

    /// Decode from a standalone byte slice (must consume it exactly).
    pub fn from_bytes(bytes: &[u8]) -> Result<Row> {
        let mut r = Reader::new(bytes);
        let row = Row::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(crate::error::Error::corruption(
                "trailing bytes after row",
            ));
        }
        Ok(row)
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Convenience macro building a row from heterogenous literals.
///
/// ```
/// use txview_common::{row, Value};
/// let r = row![1i64, 2.5f64, "abc"];
/// assert_eq!(r.arity(), 3);
/// assert_eq!(r[0], Value::Int(1));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_row() {
        let r = row![7i64, "hello", 1.5f64];
        let bytes = r.to_bytes();
        assert_eq!(Row::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn roundtrip_with_null() {
        let mut r = row![1i64];
        r.push(Value::Null);
        let bytes = r.to_bytes();
        let back = Row::from_bytes(&bytes).unwrap();
        assert!(back[1].is_null());
    }

    #[test]
    fn projection_reorders_and_duplicates() {
        let r = row![10i64, 20i64, 30i64];
        let p = r.project(&[2, 0, 0]);
        assert_eq!(p, row![30i64, 10i64, 10i64]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = row![1i64].to_bytes();
        bytes.push(0);
        assert!(Row::from_bytes(&bytes).is_err());
    }

    #[test]
    fn debug_formatting() {
        let r = row![1i64, "x"];
        assert_eq!(format!("{r:?}"), "(1, 'x')");
    }
}
