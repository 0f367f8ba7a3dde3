//! Typed column vectors.
//!
//! Integer columns are width-adaptive: an [`IntVec`] stores every value at
//! the narrowest of `i8 | i16 | i32 | i64` that holds all of them. A bulk
//! load picks the width from the minimum and maximum; a later `push` or
//! `insert` that does not fit re-encodes the whole column one step or more
//! wider (at most three times in a column's life) and nothing ever narrows
//! it back, so a reader sees one width per column and the stored width is a
//! function of the values ever held, not of their order. Readers take an
//! [`IntSlice`], a borrowed view tagged with the width, and widen to `i64`
//! only the cells they touch.

use rqp_common::{DataType, Value};
use std::ops::Range;

/// Evaluate `$body` once per stored width, with `$xs` bound to the typed
/// vector or slice inside `$e` — the way to run a tight loop over an integer
/// column without a per-cell width test.
macro_rules! each_width {
    ($Enum:ident, $e:expr, $xs:ident => $body:expr) => {
        match $e {
            $Enum::I8($xs) => $body,
            $Enum::I16($xs) => $body,
            $Enum::I32($xs) => $body,
            $Enum::I64($xs) => $body,
        }
    };
}
pub(crate) use each_width;

/// `x` as an `i64`. Generic, so that the eight-byte arm of [`each_width`] is
/// not a conversion of a type to itself.
pub(crate) fn wide<T: Into<i64>>(x: T) -> i64 {
    x.into()
}

/// Bytes per value of the narrowest signed width holding both `lo` and `hi`.
fn width_for(lo: i64, hi: i64) -> usize {
    let fits = |min: i64, max: i64| min <= lo && hi <= max;
    if fits(i8::MIN.into(), i8::MAX.into()) {
        1
    } else if fits(i16::MIN.into(), i16::MAX.into()) {
        2
    } else if fits(i32::MIN.into(), i32::MAX.into()) {
        4
    } else {
        8
    }
}

#[derive(Debug, Clone)]
enum Ints {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

impl Ints {
    /// `values` at `width` bytes each, in an exact-size buffer. Every value
    /// must fit the width.
    fn encode(values: impl Iterator<Item = i64>, width: usize) -> Ints {
        match width {
            1 => Ints::I8(values.map(|x| x as i8).collect()),
            2 => Ints::I16(values.map(|x| x as i16).collect()),
            4 => Ints::I32(values.map(|x| x as i32).collect()),
            _ => Ints::I64(values.collect()),
        }
    }
}

/// A vector of integers stored at the narrowest signed width that holds
/// every value it has ever held (see the module docs).
#[derive(Debug, Clone)]
pub struct IntVec(Ints);

impl IntVec {
    /// An empty vector, one byte wide.
    pub fn new() -> Self {
        IntVec(Ints::I8(Vec::new()))
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values the buffer holds before it reallocates.
    pub fn capacity(&self) -> usize {
        each_width!(Ints, &self.0, v => v.capacity())
    }

    /// Bytes per stored value: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        self.as_slice().width()
    }

    /// Heap bytes held: `capacity × width`.
    pub fn heap_bytes(&self) -> usize {
        self.capacity() * self.width()
    }

    /// Value at `i` (panics if out of bounds).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        each_width!(Ints, &self.0, v => wide(v[i]))
    }

    /// The borrowed, width-tagged view readers work on.
    pub fn as_slice(&self) -> IntSlice<'_> {
        match &self.0 {
            Ints::I8(v) => IntSlice::I8(v),
            Ints::I16(v) => IntSlice::I16(v),
            Ints::I32(v) => IntSlice::I32(v),
            Ints::I64(v) => IntSlice::I64(v),
        }
    }

    /// Append a value, widening the vector first if it does not fit.
    pub fn push(&mut self, x: i64) {
        self.insert(self.len(), x)
    }

    /// Insert a value at `i`, shifting later values down (panics if
    /// `i > len`). A value the current width cannot hold re-encodes the
    /// whole vector at the width that can: O(n), once per width step.
    pub fn insert(&mut self, i: usize, x: i64) {
        let width = width_for(x, x);
        if width > self.width() {
            self.0 =
                each_width!(Ints, &self.0, v => Ints::encode(v.iter().map(|&x| wide(x)), width));
        }
        each_width!(Ints, &mut self.0, v => v.insert(i, x as _))
    }

    /// Remove and return the value at `i`, shifting later values up (panics
    /// if out of bounds). The width stays.
    pub fn remove(&mut self, i: usize) -> i64 {
        each_width!(Ints, &mut self.0, v => wide(v.remove(i)))
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        each_width!(Ints, &mut self.0, v => v.shrink_to_fit())
    }
}

impl Default for IntVec {
    fn default() -> Self {
        IntVec::new()
    }
}

/// A bulk load: the narrowest width that holds the minimum and the maximum.
impl From<Vec<i64>> for IntVec {
    fn from(v: Vec<i64>) -> Self {
        let lo = v.iter().copied().min().unwrap_or(0);
        let hi = v.iter().copied().max().unwrap_or(0);
        match width_for(lo, hi) {
            8 => IntVec(Ints::I64(v)),
            width => IntVec(Ints::encode(v.into_iter(), width)),
        }
    }
}

impl FromIterator<i64> for IntVec {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

/// A borrowed run of an integer column at its stored width. `get`, `iter`
/// and `to_vec` widen to `i64`; match on the variant (or slice first, then
/// `to_vec`) for a loop that should not test the width per cell.
#[derive(Debug, Clone, Copy)]
pub enum IntSlice<'a> {
    /// One byte per value.
    I8(&'a [i8]),
    /// Two bytes per value.
    I16(&'a [i16]),
    /// Four bytes per value.
    I32(&'a [i32]),
    /// Eight bytes per value.
    I64(&'a [i64]),
}

impl<'a> IntSlice<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        each_width!(IntSlice, self, xs => xs.len())
    }

    /// True if the view holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per stored value: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        match self {
            IntSlice::I8(_) => 1,
            IntSlice::I16(_) => 2,
            IntSlice::I32(_) => 4,
            IntSlice::I64(_) => 8,
        }
    }

    /// Value at `i` (panics if out of bounds).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        each_width!(IntSlice, self, xs => wide(xs[i]))
    }

    /// The values in order, widened.
    pub fn iter(self) -> impl ExactSizeIterator<Item = i64> + DoubleEndedIterator + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The sub-view `range` (panics if out of bounds), still borrowed.
    pub fn slice(self, range: Range<usize>) -> IntSlice<'a> {
        match self {
            IntSlice::I8(xs) => IntSlice::I8(&xs[range]),
            IntSlice::I16(xs) => IntSlice::I16(&xs[range]),
            IntSlice::I32(xs) => IntSlice::I32(&xs[range]),
            IntSlice::I64(xs) => IntSlice::I64(&xs[range]),
        }
    }

    /// Every value widened into an owned `Vec<i64>`.
    pub fn to_vec(&self) -> Vec<i64> {
        each_width!(IntSlice, self, xs => xs.iter().map(|&x| wide(x)).collect())
    }

    /// Every value widened onto the end of `out`.
    pub fn extend_into(&self, out: &mut Vec<i64>) {
        each_width!(IntSlice, self, xs => out.extend(xs.iter().map(|&x| wide(x))))
    }
}

/// Equal when they hold the same values, whatever the widths.
impl PartialEq for IntSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A column of values, stored in a typed vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer column, stored at its narrowest width.
    Int(IntVec),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<String>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(IntVec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
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

    /// Value at row `i` (panics if out of bounds). Inlined into
    /// `Table::row`, the scalar scan's per-cell read: left out of line the
    /// width dispatch turns it into a call per cell and `row` takes 21 ms
    /// instead of 9–14 per 200 000 rows.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v.get(i)),
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
            ColumnData::Int(v) => v.heap_bytes(),
            ColumnData::Float(v) => v.capacity() * std::mem::size_of::<f64>(),
            ColumnData::Str(v) => {
                v.capacity() * std::mem::size_of::<String>()
                    + v.iter().map(String::capacity).sum::<usize>()
            }
        }
    }

    /// Integer view at the stored width (None for non-int columns).
    pub fn as_int_slice(&self) -> Option<IntSlice<'_>> {
        match self {
            ColumnData::Int(v) => Some(v.as_slice()),
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
            ColumnData::Int(v) => Box::new(v.as_slice().iter().map(Value::Int)),
            ColumnData::Float(v) => Box::new(v.iter().map(|&x| Value::Float(x))),
            ColumnData::Str(v) => Box::new(v.iter().map(|s| Value::Str(s.clone()))),
        }
    }
}

impl From<Vec<i64>> for ColumnData {
    fn from(v: Vec<i64>) -> Self {
        ColumnData::Int(v.into())
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
    fn int_column_widens_in_place_and_keeps_every_value() {
        let mut c: ColumnData = vec![1i64, -2, 100].into();
        assert_eq!(c.heap_bytes(), 3, "loaded one byte wide");
        c.push(Value::Int(300));
        c.insert(0, Value::Int(i64::MIN));
        let ints = c.as_int_slice().unwrap();
        assert_eq!(ints.width(), 8);
        assert_eq!(ints.to_vec(), vec![i64::MIN, 1, -2, 100, 300]);
        assert_eq!(ints.slice(1..3), IntSlice::I8(&[1, -2]), "views compare by value");
        assert_eq!(c.remove(0), Value::Int(i64::MIN));
        assert_eq!(c.as_int_slice().unwrap().width(), 8, "never narrows back");
    }

    #[test]
    fn iter_values_matches_get() {
        let c: ColumnData = vec!["b".to_string(), "a".to_string()].into();
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(vals, vec![Value::Str("b".into()), Value::Str("a".into())]);
    }
}
