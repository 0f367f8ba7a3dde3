//! Typed column vectors.

use rqp_common::{DataType, Value};
use std::collections::BTreeSet;

/// A column of values, stored in a typed vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i` (panics if out of bounds).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Append a value; panics on type mismatch (loading is programmatic, so a
    /// mismatch is a bug in the generator, not a user error).
    pub fn push(&mut self, v: Value) {
        self.insert(self.len(), v)
    }

    /// Remove and return the value at row `i`, shifting later rows up
    /// (panics if out of bounds). O(n) — deletes are a changelog-visible
    /// maintenance path, not a scan-speed path.
    pub fn remove(&mut self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v.remove(i)),
            ColumnData::Float(v) => Value::Float(v.remove(i)),
            ColumnData::Str(v) => Value::Str(v.remove(i)),
        }
    }

    /// True if [`push`](Self::push) and [`insert`](Self::insert) take `v`:
    /// its own type, or an `Int` into a float column.
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnData::Int(_), Value::Int(_))
                | (ColumnData::Float(_), Value::Float(_) | Value::Int(_))
                | (ColumnData::Str(_), Value::Str(_))
        )
    }

    /// Insert a value at row `i`, shifting later rows down; panics like
    /// [`push`](Self::push) on a value the column does not
    /// [`accept`](Self::accepts).
    pub fn insert(&mut self, i: usize, v: Value) {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.insert(i, x),
            (ColumnData::Float(col), Value::Float(x)) => col.insert(i, x),
            (ColumnData::Float(col), Value::Int(x)) => col.insert(i, x as f64),
            (ColumnData::Str(col), Value::Str(x)) => col.insert(i, x),
            (col, v) => panic!(
                "type mismatch inserting {:?} into {:?} column",
                v.data_type(),
                col.data_type()
            ),
        }
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        match self {
            ColumnData::Int(v) => v.shrink_to_fit(),
            ColumnData::Float(v) => v.shrink_to_fit(),
            ColumnData::Str(v) => v.shrink_to_fit(),
        }
    }

    /// Heap bytes held, by capacity (string columns include every string's
    /// own buffer).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.capacity() * std::mem::size_of::<i64>(),
            ColumnData::Float(v) => v.capacity() * std::mem::size_of::<f64>(),
            ColumnData::Str(v) => {
                v.capacity() * std::mem::size_of::<String>()
                    + v.iter().map(String::capacity).sum::<usize>()
            }
        }
    }

    /// Minimum value, or `None` if empty.
    pub fn min(&self) -> Option<Value> {
        match self {
            ColumnData::Int(v) => v.iter().min().map(|&x| Value::Int(x)),
            ColumnData::Float(v) => v
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .map(Value::Float),
            ColumnData::Str(v) => v.iter().min().map(|s| Value::Str(s.clone())),
        }
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<Value> {
        match self {
            ColumnData::Int(v) => v.iter().max().map(|&x| Value::Int(x)),
            ColumnData::Float(v) => v
                .iter()
                .copied()
                .max_by(f64::total_cmp)
                .map(Value::Float),
            ColumnData::Str(v) => v.iter().max().map(|s| Value::Str(s.clone())),
        }
    }

    /// Exact number of distinct values (O(n log n); used when gathering
    /// statistics, not on the query path).
    pub fn distinct_count(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.iter().collect::<BTreeSet<_>>().len(),
            ColumnData::Float(v) => v
                .iter()
                .map(|f| f.to_bits())
                .collect::<BTreeSet<_>>()
                .len(),
            ColumnData::Str(v) => v.iter().collect::<BTreeSet<_>>().len(),
        }
    }

    /// Integer slice view (None for non-int columns).
    pub fn as_int_slice(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Float slice view (None for non-float columns).
    pub fn as_float_slice(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// String slice view (None for non-string columns). Batch scans use
    /// this to dictionary-encode a range of rows without per-row `Value`
    /// materialization.
    pub fn as_str_slice(&self) -> Option<&[String]> {
        match self {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Iterate values as [`Value`]s (allocates per string row).
    pub fn iter_values(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        match self {
            ColumnData::Int(v) => Box::new(v.iter().map(|&x| Value::Int(x))),
            ColumnData::Float(v) => Box::new(v.iter().map(|&x| Value::Float(x))),
            ColumnData::Str(v) => Box::new(v.iter().map(|s| Value::Str(s.clone()))),
        }
    }
}

impl From<Vec<i64>> for ColumnData {
    fn from(v: Vec<i64>) -> Self {
        ColumnData::Int(v)
    }
}
impl From<Vec<f64>> for ColumnData {
    fn from(v: Vec<f64>) -> Self {
        ColumnData::Float(v)
    }
}
impl From<Vec<String>> for ColumnData {
    fn from(v: Vec<String>) -> Self {
        ColumnData::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = ColumnData::empty(DataType::Int);
        c.push(Value::Int(3));
        c.push(Value::Int(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Int(1));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = ColumnData::empty(DataType::Float);
        c.push(Value::Int(2));
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_wrong_type_panics() {
        let mut c = ColumnData::empty(DataType::Int);
        c.push(Value::Str("x".into()));
    }

    #[test]
    fn min_max_distinct() {
        let c: ColumnData = vec![5i64, 1, 5, 9, 1].into();
        assert_eq!(c.min(), Some(Value::Int(1)));
        assert_eq!(c.max(), Some(Value::Int(9)));
        assert_eq!(c.distinct_count(), 3);
        let empty = ColumnData::empty(DataType::Float);
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn float_min_max_total_order() {
        let c: ColumnData = vec![2.5f64, -1.0, 7.25].into();
        assert_eq!(c.min(), Some(Value::Float(-1.0)));
        assert_eq!(c.max(), Some(Value::Float(7.25)));
    }

    #[test]
    fn iter_values_matches_get() {
        let c: ColumnData = vec!["b".to_string(), "a".to_string()].into();
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(vals, vec![Value::Str("b".into()), Value::Str("a".into())]);
        assert_eq!(c.distinct_count(), 2);
    }
}
