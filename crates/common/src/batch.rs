//! Columnar batches for batch-at-a-time execution.
//!
//! Row-at-a-time Volcano operators pay a virtual call and a `Vec<Value>`
//! walk per row. Batch mode amortizes both: a scan materializes a
//! [`ColumnBatch`] — one typed vector per column plus a selection bitmap —
//! and downstream filter/projection/join/aggregation loops run over plain
//! `&[i64]` / `&[f64]` / `&[u32]` slices the compiler can auto-vectorize.
//! String columns are dictionary-encoded (`u32` codes into a pipeline-shared
//! [`crate::dict::StringDict`]), so equality-heavy paths never touch string
//! bytes.
//!
//! Filters never compact a batch; they clear bits in [`ColumnBatch::sel`].
//! Rows materialize only at the batch→row boundary (the adapter that feeds
//! surviving rows to a scalar consumer).
//!
//! Every planner-built table scan runs batch-at-a-time. By contract a batch
//! operator produces row-identical output and a bit-identical cost-clock
//! breakdown to its scalar twin; the property tests in `tests/batch.rs`
//! hold both paths to that.

use crate::dict::StringDict;
use crate::expr::{BoundExpr, CmpOp, Truth};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Default number of rows a scan packs per batch: large enough to amortize
/// per-batch overhead, small enough to keep a few columns L1/L2-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// One column's values for a batch of rows, in row order.
#[derive(Debug, Clone)]
pub enum ColVec {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary codes into the batch's [`StringDict`].
    Str(Vec<u32>),
}

impl ColVec {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColVec::Int(v) => v.len(),
            ColVec::Float(v) => v.len(),
            ColVec::Str(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer slice, if this is an `Int` column.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            ColVec::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float slice, if this is a `Float` column.
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            ColVec::Float(v) => Some(v),
            _ => None,
        }
    }
}

/// A selection bitmap over a batch's rows: bit `i` set means row `i` is
/// still live. One `u64` word covers 64 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelMask {
    words: Vec<u64>,
    len: usize,
}

impl SelMask {
    /// A mask with all `len` rows selected.
    pub fn all(len: usize) -> SelMask {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        SelMask { words, len }
    }

    /// A mask over `len` rows from its words: bit `i % 64` of word `i / 64`
    /// selects row `i`. No bit past `len` may be set.
    pub fn from_words(words: Vec<u64>, len: usize) -> SelMask {
        assert_eq!(words.len(), len.div_ceil(64), "one word per 64 rows");
        debug_assert!(
            len.is_multiple_of(64) || words.last().is_some_and(|w| w >> (len % 64) == 0),
            "a bit past the end"
        );
        SelMask { words, len }
    }

    /// Number of rows the mask covers (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deselect row `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of selected rows (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the indices of selected rows in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Keep only rows where `keep(i)` holds, among currently-selected rows.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let mut w = self.words[wi];
            let mut live = w;
            while live != 0 {
                let tz = live.trailing_zeros() as usize;
                live &= live - 1;
                if !keep(wi * 64 + tz) {
                    w &= !(1u64 << tz);
                }
            }
            self.words[wi] = w;
        }
    }
}

/// A batch of rows in columnar form: typed column vectors, a selection
/// bitmap, and the dictionary its `Str` columns' codes point into.
///
/// Every batch in one pipeline shares one dictionary `Arc`; operators that
/// combine two batch streams check `Arc::ptr_eq` because codes from foreign
/// dictionaries are meaningless.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// One vector per output column, all the same length.
    pub columns: Vec<ColVec>,
    /// Which rows are still live after upstream filtering.
    pub sel: SelMask,
    /// The pipeline's shared string dictionary.
    pub dict: Arc<StringDict>,
}

impl ColumnBatch {
    /// A batch over `columns` with every row selected.
    pub fn new(columns: Vec<ColVec>, dict: Arc<StringDict>) -> ColumnBatch {
        let rows = columns.first().map_or(0, ColVec::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged batch");
        ColumnBatch { columns, sel: SelMask::all(rows), dict }
    }

    /// Total rows in the batch (selected or not).
    pub fn rows(&self) -> usize {
        self.sel.len()
    }

    /// True if the batch holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }
}

/// One operand of a predicate, evaluated over every row of a batch.
enum Vals<'a> {
    /// An `Int` column.
    Int(&'a [i64]),
    /// A `Float` column.
    Float(&'a [f64]),
    /// A literal: one value for every row.
    Same(&'a Value),
    /// One value per row: a `Str` column resolved once, arithmetic, or a
    /// boolean node read as `Int(1)`, `Int(0)` or NULL.
    Cells(Vec<Value>),
}

impl Vals<'_> {
    /// Row `i` as a value.
    fn at(&self, i: usize) -> Cow<'_, Value> {
        match self {
            Vals::Int(x) => Cow::Owned(Value::Int(x[i])),
            Vals::Float(x) => Cow::Owned(Value::Float(x[i])),
            Vals::Same(v) => Cow::Borrowed(v),
            Vals::Cells(v) => Cow::Borrowed(&v[i]),
        }
    }
}

/// Kleene-combine `b` into `a`, row by row.
fn combine(a: Vec<Truth>, b: Vec<Truth>, f: fn(Truth, Truth) -> Truth) -> Vec<Truth> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

impl BoundExpr {
    /// The batch evaluator: this predicate's [`Truth`] on every row of
    /// `batch`, selected or not. It calls the same truth table as the row
    /// evaluator [`BoundExpr::truth`], so the two agree on every row.
    pub fn truths(&self, batch: &ColumnBatch) -> Vec<Truth> {
        let n = batch.rows();
        let cmp = |op, l: &Vals, r: &Vals| compare(op, l, r, n);
        match self {
            BoundExpr::Cmp { op, lhs, rhs } => cmp(*op, &lhs.vals(batch), &rhs.vals(batch)),
            BoundExpr::Between { expr, lo, hi } => {
                let v = expr.vals(batch);
                let (lo, hi) = (Vals::Same(lo), Vals::Same(hi));
                combine(cmp(CmpOp::Ge, &v, &lo), cmp(CmpOp::Le, &v, &hi), Truth::and)
            }
            BoundExpr::InList { expr, list } => {
                let v = expr.vals(batch);
                let miss = vec![Truth::False; n];
                let eq = |c| cmp(CmpOp::Eq, &v, &Vals::Same(c));
                list.iter().fold(miss, |t, c| combine(t, eq(c), Truth::or))
            }
            BoundExpr::And(v) => v
                .iter()
                .fold(vec![Truth::True; n], |t, e| combine(t, e.truths(batch), Truth::and)),
            BoundExpr::Or(v) => v
                .iter()
                .fold(vec![Truth::False; n], |t, e| combine(t, e.truths(batch), Truth::or)),
            BoundExpr::Not(e) => e.truths(batch).into_iter().map(|t| !t).collect(),
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Arith { .. } => {
                let v = self.vals(batch);
                (0..n).map(|i| Truth::of_value(&v.at(i))).collect()
            }
        }
    }

    /// This expression's value on every row of `batch`.
    fn vals<'a>(&'a self, batch: &'a ColumnBatch) -> Vals<'a> {
        match self {
            BoundExpr::Col(i) => match &batch.columns[*i] {
                ColVec::Int(x) => Vals::Int(x),
                ColVec::Float(x) => Vals::Float(x),
                ColVec::Str(x) => {
                    Vals::Cells(batch.dict.resolve_all(x).into_iter().map(Value::Str).collect())
                }
            },
            BoundExpr::Lit(v) => Vals::Same(v),
            BoundExpr::Arith { op, lhs, rhs } => {
                let (l, r) = (lhs.vals(batch), rhs.vals(batch));
                Vals::Cells((0..batch.rows()).map(|i| op.apply(&l.at(i), &r.at(i))).collect())
            }
            _ => Vals::Cells(self.truths(batch).into_iter().map(Truth::to_value).collect()),
        }
    }
}

/// `l <op> r` on every row: a typed loop for a numeric column against a
/// literal, [`Truth::compare`] on each row's values otherwise.
fn compare(op: CmpOp, l: &Vals, r: &Vals, n: usize) -> Vec<Truth> {
    let verdict = |o: Ordering| Truth::from(op.matches(o));
    match (l, r) {
        (Vals::Same(v), _) | (_, Vals::Same(v)) if v.is_null() => vec![Truth::Unknown; n],
        (Vals::Same(_), Vals::Int(_) | Vals::Float(_)) => compare(op.flipped(), r, l, n),
        // `Value::total_cmp` between two `Int`s, or two `Float`s, without
        // building a `Value` per row.
        (Vals::Int(x), Vals::Same(Value::Int(v))) => x.iter().map(|a| verdict(a.cmp(v))).collect(),
        (Vals::Float(x), Vals::Same(Value::Float(v))) => {
            x.iter().map(|a| verdict(a.total_cmp(v))).collect()
        }
        (Vals::Int(x), Vals::Same(v)) => {
            x.iter().map(|&a| verdict(Value::Int(a).total_cmp(v))).collect()
        }
        (Vals::Float(x), Vals::Same(v)) => {
            x.iter().map(|&a| verdict(Value::Float(a).total_cmp(v))).collect()
        }
        _ => (0..n).map(|i| Truth::compare(op, &l.at(i), &r.at(i))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sel_mask_edges() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let m = SelMask::all(len);
            assert_eq!(m.count(), len, "len {len}");
            assert_eq!(m.iter_set().count(), len);
        }
        let mut m = SelMask::all(130);
        m.clear(0);
        m.clear(64);
        m.clear(129);
        assert_eq!(m.count(), 127);
        let around_64: Vec<usize> = m.iter_set().filter(|i| (63..=65).contains(i)).collect();
        assert_eq!(around_64, vec![63, 65]);
        let idx: Vec<usize> = m.iter_set().take(3).collect();
        assert_eq!(idx, vec![1, 2, 3]);
        let words = vec![u64::MAX, 1 << 63, 0b10];
        let from_words = SelMask::from_words(words, 130);
        let high: Vec<usize> = from_words.iter_set().filter(|&i| i >= 63).collect();
        assert_eq!(high, vec![63, 127, 129]);
        assert_eq!(SelMask::from_words(vec![u64::MAX; 2], 128), SelMask::all(128));
        // retain only even rows among the live ones.
        m.retain(|i| i % 2 == 0);
        assert!(m.iter_set().all(|i| i % 2 == 0));
        assert_eq!(m.iter_set().next(), Some(2), "retain never resurrects cleared rows");
    }
}
