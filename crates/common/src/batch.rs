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
        // retain only even rows among the live ones.
        m.retain(|i| i % 2 == 0);
        assert!(m.iter_set().all(|i| i % 2 == 0));
        assert_eq!(m.iter_set().next(), Some(2), "retain never resurrects cleared rows");
    }
}
