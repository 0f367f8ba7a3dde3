//! Tables: named collections of equal-length columns.

use crate::changelog::Changelog;
use crate::column::ColumnData;
use crate::pool::BufferPool;
use crate::RowId;
use rqp_common::expr::BoundExpr;
use rqp_common::{
    ChaosPolicy, ColVec, ColumnBatch, CostModelParams, DataType, Result, Row, RqpError, Schema,
    SelMask, StringDict, Truth, Value, DEFAULT_BATCH_ROWS,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A storage-resident dictionary encoding of one string column: the distinct
/// values in first-appearance order plus one dense local code per row.
///
/// Built lazily by [`Table::str_encoding`] and memoized (any append
/// invalidates it, and so does any buffer-pool eviction of the table's
/// pages — the memo is tagged with the pool's per-table eviction epoch), so
/// batch scans translate small integer codes instead of re-hashing every
/// string cell on every scan. Local codes are private to the table; scans
/// map them into their pipeline's shared `StringDict` through a
/// per-distinct-value translation table.
#[derive(Debug)]
pub struct StrEncoding {
    /// Distinct values, indexed by local code.
    pub values: Vec<String>,
    /// One local code per row: `values[codes[i] as usize] == column[i]`.
    pub codes: Vec<u32>,
}

/// A memoized column encoding tagged with the pool eviction epoch it was
/// built under (0 when no pool is attached).
type EncodingMemo = Mutex<Option<(u64, Arc<StrEncoding>)>>;

/// An in-memory table stored column-wise.
///
/// The schema's field names are *unqualified* (`"quantity"`); scans qualify
/// them with the table name so joins don't collide.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    nrows: usize,
    /// Per-column memoized encoding, tagged with the pool eviction epoch it
    /// was built under (0 when no pool is attached).
    encodings: Vec<EncodingMemo>,
    /// The buffer pool scans of this table pin pages through; `None` means
    /// legacy always-resident behavior.
    pager: Mutex<Option<Arc<BufferPool>>>,
    /// The changelog mutations publish into; `None` means no subscribers.
    /// Shared by `Arc` across copy-on-write clones, like the pager.
    changelog: Mutex<Option<Arc<Changelog>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            nrows: self.nrows,
            encodings: self
                .encodings
                .iter()
                .map(|e| Mutex::new(e.lock().unwrap().clone()))
                .collect(),
            pager: Mutex::new(self.pager.lock().unwrap().clone()),
            changelog: Mutex::new(self.changelog.lock().unwrap().clone()),
        }
    }
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.dtype))
            .collect();
        let encodings = (0..columns.len()).map(|_| Mutex::new(None)).collect();
        Table {
            name: name.into(),
            schema,
            columns,
            nrows: 0,
            encodings,
            pager: Mutex::new(None),
            changelog: Mutex::new(None),
        }
    }

    /// Create a table directly from columns (must be equal length and match
    /// the schema's types).
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnData>,
    ) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(RqpError::Invalid(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let nrows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != nrows {
                return Err(RqpError::Invalid(format!(
                    "column {i} has {} rows, expected {nrows}",
                    c.len()
                )));
            }
            if c.data_type() != schema.field(i).dtype {
                return Err(RqpError::TypeMismatch {
                    expected: schema.field(i).dtype.to_string(),
                    got: c.data_type().to_string(),
                });
            }
        }
        let encodings = (0..columns.len()).map(|_| Mutex::new(None)).collect();
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            nrows,
            encodings,
            pager: Mutex::new(None),
            changelog: Mutex::new(None),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stable pool/chaos key of this table (FNV-1a of the name), shared
    /// by every `Table` handle for the same name across catalog snapshots.
    pub fn table_key(&self) -> u64 {
        ChaosPolicy::table_key(&self.name)
    }

    /// Attach (or replace) the buffer pool scans pin this table's pages
    /// through. Interior-mutable so a shared `Arc<Table>` can be wired after
    /// catalog construction.
    pub fn attach_pool(&self, pool: &Arc<BufferPool>) {
        *self.pager.lock().unwrap() = Some(Arc::clone(pool));
    }

    /// The attached buffer pool, if any.
    pub fn pager(&self) -> Option<Arc<BufferPool>> {
        self.pager.lock().unwrap().clone()
    }

    /// Attach (or replace) the changelog mutations publish into. Interior-
    /// mutable so a shared `Arc<Table>` can be wired after construction;
    /// copy-on-write clones share the same log, so writes through
    /// `Catalog::table_mut` keep feeding subscribers holding old snapshots.
    pub fn attach_changelog(&self, log: &Arc<Changelog>) {
        *self.changelog.lock().unwrap() = Some(Arc::clone(log));
    }

    /// The attached changelog, if any.
    pub fn changelog(&self) -> Option<Arc<Changelog>> {
        self.changelog.lock().unwrap().clone()
    }

    /// Unqualified schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Schema with every field qualified as `table.column`.
    pub fn qualified_schema(&self) -> Schema {
        self.schema.qualify(&self.name)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Heap bytes the column data holds (capacity-based, counted; memoized
    /// string encodings are not included).
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::heap_bytes).sum()
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Column by name: exact match first (fields of materialized temp tables
    /// keep their original qualified names), then the unqualified suffix.
    pub fn column_by_name(&self, name: &str) -> Result<&ColumnData> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Index of a column by (unqualified or qualified) name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        if let Ok(i) = self.schema.index_of(name) {
            return Ok(i);
        }
        let unq = name.rsplit_once('.').map(|(_, c)| c).unwrap_or(name);
        self.schema.index_of(unq)
    }

    /// The keys of the `INT` column `name`, widened to `i64`, for the
    /// adaptive index `what` names in the error a column of another type
    /// gets.
    pub(crate) fn int_keys(&self, name: &str, what: &str) -> Result<Vec<i64>> {
        let col = self.column_by_name(name)?;
        let keys = col.as_int_slice().ok_or_else(|| RqpError::TypeMismatch {
            expected: format!("INT column for {what}"),
            got: col.data_type().to_string(),
        })?;
        Ok(keys.to_vec())
    }

    /// Materialize row `id` (panics if out of bounds).
    pub fn row(&self, id: RowId) -> Row {
        self.columns.iter().map(|c| c.get(id)).collect()
    }

    /// Append one row (panics on arity/type mismatch — loading is
    /// programmatic).
    ///
    /// Appends are *incremental* with respect to the caches hanging off this
    /// table: memoized [`StrEncoding`]s are left in place (they record how
    /// many rows they cover; [`str_encoding`](Self::str_encoding) extends
    /// them lazily with only the new rows' codes) and only the buffer-pool
    /// frame of the page the row landed in is dropped — the rest of the
    /// resident set survives, so a subscription-heavy append loop doesn't
    /// thrash unrelated cold pages.
    pub fn append(&mut self, row: Row) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        let published = self
            .changelog
            .get_mut()
            .unwrap()
            .is_some()
            .then(|| row.clone());
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.nrows += 1;
        // The appended row lands in the table's last page: any cached frame
        // for that page is stale, every other page is untouched.
        let key = self.table_key();
        if let Some(pool) = self.pager.get_mut().unwrap().as_deref() {
            let rpp = CostModelParams::default().rows_per_page.max(1.0) as usize;
            pool.invalidate_page(key, ((self.nrows - 1) / rpp) as u64);
        }
        if let Some(row) = published {
            if let Some(log) = self.changelog.get_mut().unwrap().as_deref() {
                log.publish_insert(&self.name, row);
            }
        }
    }

    /// Delete row `id`, shifting later rows up; returns the removed row and
    /// publishes it to the attached changelog. Deletes are a maintenance
    /// path: the whole encoding memo and the table's resident pages are
    /// invalidated, since every row at or after `id` moves.
    pub fn delete_row(&mut self, id: RowId) -> Row {
        assert!(id < self.nrows, "delete_row out of bounds");
        let row: Row = self.columns.iter_mut().map(|c| c.remove(id)).collect();
        self.nrows -= 1;
        for e in &mut self.encodings {
            *e.get_mut().unwrap() = None;
        }
        let key = self.table_key();
        if let Some(pool) = self.pager.get_mut().unwrap().as_deref() {
            let rpp = CostModelParams::default().rows_per_page.max(1.0) as usize;
            for page in (id / rpp)..=(self.nrows / rpp) {
                pool.invalidate_page(key, page as u64);
            }
        }
        if let Some(log) = self.changelog.get_mut().unwrap().as_deref() {
            log.publish_delete(&self.name, row.clone());
        }
        row
    }

    /// The memoized dictionary encoding of string column `i`, built on first
    /// use; `None` for non-string columns.
    ///
    /// The memo is tagged with the attached pool's eviction epoch for this
    /// table: once any of the table's pages is evicted, the cached encoding
    /// may describe pages that will be re-read, so the next call rebuilds it
    /// instead of serving a stale `Arc`.
    pub fn str_encoding(&self, i: usize) -> Option<Arc<StrEncoding>> {
        let xs = self.columns[i].as_str_slice()?;
        let epoch = self
            .pager()
            .map(|p| p.evict_epoch(self.table_key()))
            .unwrap_or(0);
        let mut slot = self.encodings[i].lock().unwrap();
        if let Some((built_at, enc)) = slot.as_ref() {
            if *built_at == epoch {
                if enc.codes.len() == xs.len() {
                    return Some(Arc::clone(enc));
                }
                if enc.codes.len() < xs.len() {
                    // Appends since the memo was built: extend it with codes
                    // for the new suffix only, re-seeding the dictionary map
                    // from the distinct values (O(distinct + new), not
                    // O(rows)) — append-heavy subscription churn doesn't
                    // re-encode the whole column.
                    let mut values = enc.values.clone();
                    let mut codes = enc.codes.clone();
                    let mut map: HashMap<String, u32> = values
                        .iter()
                        .enumerate()
                        .map(|(c, s)| (s.clone(), c as u32))
                        .collect();
                    for s in &xs[codes.len()..] {
                        let code = *map.entry(s.clone()).or_insert_with(|| {
                            values.push(s.clone());
                            (values.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    let enc = Arc::new(StrEncoding { values, codes });
                    *slot = Some((epoch, Arc::clone(&enc)));
                    return Some(enc);
                }
            }
        }
        let mut values: Vec<String> = Vec::new();
        let mut map: HashMap<&str, u32> = HashMap::new();
        let codes = xs
            .iter()
            .map(|s| {
                *map.entry(s.as_str()).or_insert_with(|| {
                    values.push(s.clone());
                    (values.len() - 1) as u32
                })
            })
            .collect();
        let enc = Arc::new(StrEncoding { values, codes });
        *slot = Some((epoch, Arc::clone(&enc)));
        Some(enc)
    }

    /// Append many rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        for r in rows {
            self.append(r);
        }
    }

    /// Cell value at `(row, column-name)`.
    pub fn value(&self, id: RowId, column: &str) -> Result<Value> {
        Ok(self.column_by_name(column)?.get(id))
    }

    /// Iterate all rows in insertion order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.nrows).map(|i| self.row(i))
    }

    /// Split the table's row space into `parts` contiguous `[start, end)`
    /// ranges with **page-aligned** boundaries (multiples of
    /// `rows_per_page`), as evenly as the page granularity allows.
    ///
    /// Page alignment is what keeps parallel scans cost-deterministic: a
    /// range scan starting on a page boundary charges exactly
    /// `ceil(len / rows_per_page)` sequential pages, and aligned boundaries
    /// make those per-partition page counts sum to the sequential scan's
    /// total for every partition count. Trailing partitions may be empty
    /// when the table has fewer pages than `parts`.
    pub fn page_partitions(&self, parts: usize, rows_per_page: usize) -> Vec<(usize, usize)> {
        let parts = parts.max(1);
        let rpp = rows_per_page.max(1);
        let pages = self.nrows.div_ceil(rpp);
        let mut out = Vec::with_capacity(parts);
        let mut start_page = 0usize;
        for i in 0..parts {
            let end_page = pages * (i + 1) / parts;
            out.push(((start_page * rpp).min(self.nrows), (end_page * rpp).min(self.nrows)));
            start_page = end_page;
        }
        out
    }

    /// Count rows matching a predicate evaluated against the *qualified*
    /// schema. Used by "oracle" estimators and metric code (true
    /// cardinalities), not by the query path. Runs the selection kernel
    /// ([`select`](Self::select)), so it counts exactly the rows a filter
    /// keeps.
    pub fn count_where(&self, pred: &rqp_common::Expr) -> Result<usize> {
        let bound = pred.bind(&self.qualified_schema())?;
        let every: Vec<usize> = (0..self.columns.len()).collect();
        Ok(self.select(&every, &bound).count())
    }

    /// The selection kernel: the rows on which `pred` is TRUE — not FALSE,
    /// not UNKNOWN — which are exactly the rows [`BoundExpr::eval_bool`]
    /// keeps. `pred` is bound over the columns at `layout`: its column `i`
    /// is the table's column `layout[i]`.
    ///
    /// Only the columns the predicate reads are touched. They are cut into
    /// batches of [`DEFAULT_BATCH_ROWS`] rows, each widened once from its
    /// stored width (a `Str` column as codes into one dictionary, through
    /// the memoized [`str_encoding`](Self::str_encoding)), and the batch
    /// evaluator [`BoundExpr::truths`] decides a whole batch at a time.
    /// No `Row` is built.
    pub fn select(&self, layout: &[usize], pred: &BoundExpr) -> SelMask {
        let n = self.nrows;
        let reads = pred.columns();
        let dict = Arc::new(StringDict::new());
        // Per read `Str` column: its encoding and each local code's code in
        // `dict`, interned once per distinct value.
        let strs: Vec<Option<(Arc<StrEncoding>, Vec<u32>)>> = (0..layout.len())
            .map(|p| {
                let enc = reads.contains(&p).then(|| self.str_encoding(layout[p]))??;
                let xlate = enc.values.iter().map(|s| dict.intern(s)).collect();
                Some((enc, xlate))
            })
            .collect();
        // Columns the predicate does not read stay empty.
        let rows = |p: &usize| if reads.contains(p) { DEFAULT_BATCH_ROWS.min(n) } else { 0 };
        let columns = (0..layout.len())
            .map(|p| match self.columns[layout[p]].data_type() {
                DataType::Int => ColVec::Int(Vec::with_capacity(rows(&p))),
                DataType::Float => ColVec::Float(Vec::with_capacity(rows(&p))),
                DataType::Str => ColVec::Str(Vec::with_capacity(rows(&p))),
            })
            .collect();
        let mut batch = ColumnBatch { columns, sel: SelMask::all(0), dict };
        let mut words = Vec::with_capacity(n.div_ceil(64));
        for start in (0..n).step_by(DEFAULT_BATCH_ROWS) {
            let range = start..(start + DEFAULT_BATCH_ROWS).min(n);
            for &p in &reads {
                let column = &self.columns[layout[p]];
                match &mut batch.columns[p] {
                    ColVec::Int(v) => {
                        v.clear();
                        let ints = column.as_int_slice().expect("an Int column");
                        ints.slice(range.clone()).extend_into(v);
                    }
                    ColVec::Float(v) => {
                        v.clear();
                        let floats = column.as_float_slice().expect("a Float column");
                        v.extend_from_slice(&floats[range.clone()]);
                    }
                    ColVec::Str(v) => {
                        v.clear();
                        let (enc, xlate) = strs[p].as_ref().expect("a Str column");
                        v.extend(enc.codes[range.clone()].iter().map(|&lc| xlate[lc as usize]));
                    }
                }
            }
            batch.sel = SelMask::all(range.len());
            // A batch is a whole number of words (but for the last one).
            for truths in pred.truths(&batch).chunks(64) {
                let bit = |i: usize, t: &Truth| u64::from(*t == Truth::True) << i;
                words.push(truths.iter().enumerate().fold(0, |w, (i, t)| w | bit(i, t)));
            }
        }
        SelMask::from_words(words, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::DataType;

    fn tbl() -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Float)]);
        let mut t = Table::new("t", schema);
        for i in 0..10 {
            t.append(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]);
        }
        t
    }

    #[test]
    fn append_and_row() {
        let t = tbl();
        assert_eq!(t.nrows(), 10);
        assert_eq!(t.row(3), vec![Value::Int(3), Value::Float(1.5)]);
    }

    #[test]
    fn qualified_schema_and_lookup() {
        let t = tbl();
        let q = t.qualified_schema();
        assert_eq!(q.field(0).name, "t.id");
        assert_eq!(t.column_by_name("t.v").unwrap().len(), 10);
        assert_eq!(t.column_index("v").unwrap(), 1);
        assert!(t.column_by_name("zz").is_err());
    }

    #[test]
    fn from_columns_validates() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let ok = Table::from_columns("x", schema.clone(), vec![vec![1i64, 2].into()]);
        assert_eq!(ok.unwrap().nrows(), 2);
        let bad_arity = Table::from_columns("x", schema.clone(), vec![]);
        assert!(bad_arity.is_err());
        let bad_type = Table::from_columns("x", schema, vec![vec![1.0f64].into()]);
        assert!(bad_type.is_err());
    }

    #[test]
    fn count_where_true_cardinality() {
        let t = tbl();
        let n = t.count_where(&col("t.id").lt(lit(4i64))).unwrap();
        assert_eq!(n, 4);
        let n = t.count_where(&col("v").ge(lit(2.0))).unwrap();
        assert_eq!(n, 6);
    }

    /// The selection kernel keeps exactly the rows the row evaluator's
    /// `eval_bool` keeps, over several batches: `Int` columns at every
    /// stored width, floats with NaN, ±0.0 and ±inf, a `Str` column, and
    /// predicates of every shape — comparisons either way round, BETWEEN,
    /// IN, AND/OR/NOT and arithmetic — including ones nothing passes.
    #[test]
    fn select_keeps_what_eval_bool_keeps() {
        use rand::Rng;
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("d", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
        ]);
        let floats = [0.0, -0.0, 1.5, -2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rng = rqp_common::rng::seeded(34);
        let mut t = Table::new("t", schema);
        for _ in 0..2_600 {
            let small: i64 = rng.gen_range(-5..5);
            t.append(vec![
                Value::Int(small),
                Value::Int(small * 1_000),
                Value::Int(small * 100_000_000),
                Value::Int([small, i64::MAX, i64::MIN, (1 << 53) + 1][rng.gen_range(0..4usize)]),
                Value::Float(floats[rng.gen_range(0..floats.len())]),
                Value::Str(["x", "y", ""][rng.gen_range(0..3usize)].into()),
            ]);
        }
        let width = |c: usize| t.column(c).as_int_slice().unwrap().width();
        let widths: Vec<usize> = (0..4).map(width).collect();
        assert_eq!(widths, vec![1, 2, 4, 8], "every stored width");
        let preds = [
            col("t.a").lt(lit(0i64)),
            lit(0i64).le(col("t.b")),
            col("t.c").between(-200_000_000i64, 100_000_000i64),
            col("t.d").ge(lit(i64::MAX)),
            col("t.d").eq(lit(((1i64 << 53) + 1) as f64)),
            col("t.f").ge(lit(0.0)),
            col("t.f").eq(lit(f64::NAN)).or(col("t.f").lt(lit(-0.0))),
            col("t.f").gt(col("t.a")).and(col("t.s").ne(lit("x"))),
            col("t.s").in_list(vec![Value::Str("y".into()), Value::Str("".into())]).not(),
            col("t.a").add(col("t.b")).gt(lit(10i64)),
            col("t.a").gt(lit(100i64)),
        ];
        let every: Vec<usize> = (0..6).collect();
        for pred in preds {
            let bound = pred.bind(&t.qualified_schema()).unwrap();
            let keeps = |(i, r): (usize, Row)| bound.eval_bool(&r).then_some(i);
            let want: Vec<usize> = t.iter_rows().enumerate().filter_map(keeps).collect();
            let got: Vec<usize> = t.select(&every, &bound).iter_set().collect();
            assert_eq!(got, want, "{pred}");
            assert_eq!(t.count_where(&pred).unwrap(), want.len(), "{pred}");
        }
        // A layout that reorders and skips columns reads through it.
        let bound = col("t.s").eq(lit("y")).and(col("t.f").le(lit(1.5)));
        let layout = [5, 4];
        let projected = Schema::from_pairs(&[("t.s", DataType::Str), ("t.f", DataType::Float)]);
        let mask = t.select(&layout, &bound.bind(&projected).unwrap());
        assert_eq!(mask.count(), t.count_where(&bound).unwrap());
    }

    #[test]
    fn page_partitions_align_and_cover() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..1050 {
            t.append(vec![Value::Int(i)]);
        }
        // 1050 rows at 100/page = 11 pages across 4 partitions.
        let parts = t.page_partitions(4, 100);
        assert_eq!(parts, vec![(0, 200), (200, 500), (500, 800), (800, 1050)]);
        // Boundaries are page multiples; ranges tile the table exactly.
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert_eq!(w[0].1 % 100, 0);
        }
        // Per-partition page counts sum to the sequential total, for any
        // partition count — the invariant parallel cost determinism rests on.
        let seq_pages = 1050usize.div_ceil(100);
        for k in [1, 2, 3, 4, 7, 16] {
            let ps = t.page_partitions(k, 100);
            assert_eq!(ps.first().unwrap().0, 0);
            assert_eq!(ps.last().unwrap().1, 1050);
            let pages: usize = ps.iter().map(|&(s, e)| (e - s).div_ceil(100)).sum();
            assert_eq!(pages, seq_pages, "k={k}");
        }
        // More partitions than pages: the tail is empty, not out of bounds.
        let ps = t.page_partitions(16, 100);
        assert!(ps.iter().all(|&(s, e)| s <= e && e <= 1050));
        // Empty table: all partitions empty.
        let e = Table::new("e", Schema::from_pairs(&[("x", DataType::Int)]));
        assert!(e.page_partitions(3, 100).iter().all(|&(s, end)| s == 0 && end == 0));
    }

    #[test]
    fn str_encoding_memoizes_and_invalidates() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("cat", DataType::Str)]);
        let mut t = Table::new("t", schema);
        for i in 0..10i64 {
            t.append(vec![Value::Int(i), Value::Str(format!("c{}", i % 3))]);
        }
        assert!(t.str_encoding(0).is_none(), "int column has no encoding");
        let enc = t.str_encoding(1).unwrap();
        assert_eq!(enc.values, vec!["c0", "c1", "c2"], "first-appearance order");
        assert_eq!(enc.codes.len(), 10);
        for (i, &code) in enc.codes.iter().enumerate() {
            assert_eq!(enc.values[code as usize], format!("c{}", i % 3));
        }
        // Memoized: same Arc on the next call.
        assert!(Arc::ptr_eq(&enc, &t.str_encoding(1).unwrap()));
        // Appending invalidates and rebuilds with the new row covered.
        t.append(vec![Value::Int(10), Value::Str("c9".into())]);
        let enc2 = t.str_encoding(1).unwrap();
        assert!(!Arc::ptr_eq(&enc, &enc2));
        assert_eq!(enc2.codes.len(), 11);
        assert_eq!(enc2.values.last().map(String::as_str), Some("c9"));
    }

    #[test]
    fn str_encoding_invalidates_on_pool_eviction() {
        use crate::pool::BufferPool;
        use rqp_common::{ChaosPolicy, CostClock};

        let schema = Schema::from_pairs(&[("id", DataType::Int), ("cat", DataType::Str)]);
        let mut t = Table::new("t", schema);
        for i in 0..10i64 {
            t.append(vec![Value::Int(i), Value::Str(format!("c{}", i % 3))]);
        }
        let pool = BufferPool::new(2);
        t.attach_pool(&pool);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        let enc = t.str_encoding(1).unwrap();
        // Scans that stay within budget leave the memo valid…
        drop(pool.pin("t", 0, &clock, &off).unwrap());
        drop(pool.pin("t", 1, &clock, &off).unwrap());
        assert!(Arc::ptr_eq(&enc, &t.str_encoding(1).unwrap()), "no eviction, memo holds");
        // …but once a page of this table is evicted the next rescan must
        // rebuild rather than serve the stale pre-eviction encoding.
        drop(pool.pin("t", 2, &clock, &off).unwrap());
        assert!(pool.stats().evictions >= 1);
        let rebuilt = t.str_encoding(1).unwrap();
        assert!(!Arc::ptr_eq(&enc, &rebuilt), "evict-then-rescan rebuilds");
        assert_eq!(rebuilt.values, enc.values, "same data, fresh encoding");
        // The rebuilt memo is tagged with the new epoch and holds again.
        assert!(Arc::ptr_eq(&rebuilt, &t.str_encoding(1).unwrap()));
        // Another table's own churn doesn't invalidate this one: fill the
        // pool with `other` pages (displacing t's pages does bump t's
        // epoch), then keep churning `other` against itself.
        drop(pool.pin("other", 0, &clock, &off).unwrap());
        drop(pool.pin("other", 1, &clock, &off).unwrap());
        let epoch = pool.evict_epoch(t.table_key());
        let cur = t.str_encoding(1).unwrap();
        drop(pool.pin("other", 2, &clock, &off).unwrap());
        assert_eq!(pool.evict_epoch(t.table_key()), epoch, "epochs are per-table");
        assert!(Arc::ptr_eq(&cur, &t.str_encoding(1).unwrap()));
    }

    #[test]
    fn changelog_publishes_through_cow_clones() {
        use crate::changelog::{ChangeOp, Changelog};

        let t = tbl();
        let log = Arc::new(Changelog::new());
        t.attach_changelog(&log);
        // A copy-on-write clone (what `Catalog::table_mut` produces when a
        // snapshot is live) shares the same feed.
        let mut cow = t.clone();
        cow.append(vec![Value::Int(10), Value::Float(5.0)]);
        let removed = cow.delete_row(0);
        assert_eq!(removed, vec![Value::Int(0), Value::Float(0.0)]);
        assert_eq!(cow.nrows(), 10);
        assert_eq!(cow.row(0), vec![Value::Int(1), Value::Float(0.5)]);
        let (recs, cursor) = log.since_up_to(0, usize::MAX);
        assert_eq!(cursor, 2);
        assert_eq!(recs[0].op, ChangeOp::Insert);
        assert_eq!(recs[0].row, vec![Value::Int(10), Value::Float(5.0)]);
        assert_eq!(recs[1].op, ChangeOp::Delete);
        assert_eq!(recs[1].row, vec![Value::Int(0), Value::Float(0.0)]);
        assert!(recs.iter().all(|r| &*r.table == "t"));
        // The original table, never mutated, published nothing of its own.
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn str_encoding_extends_incrementally_on_append() {
        let schema = Schema::from_pairs(&[("cat", DataType::Str)]);
        let mut t = Table::new("t", schema);
        for i in 0..6i64 {
            t.append(vec![Value::Str(format!("c{}", i % 2))]);
        }
        let enc = t.str_encoding(0).unwrap();
        assert_eq!(enc.values, vec!["c0", "c1"]);
        // Appends reuse the existing dictionary: an old value keeps its
        // code, a new value gets the next one, and codes cover all rows.
        t.append(vec![Value::Str("c1".into())]);
        t.append(vec![Value::Str("zz".into())]);
        let ext = t.str_encoding(0).unwrap();
        assert!(!Arc::ptr_eq(&enc, &ext));
        assert_eq!(ext.values, vec!["c0", "c1", "zz"]);
        assert_eq!(ext.codes.len(), 8);
        assert_eq!(&ext.codes[..6], &enc.codes[..]);
        assert_eq!(&ext.codes[6..], &[1, 2]);
        // Deletes shift rows, so they fall back to a full rebuild.
        t.delete_row(0);
        let rebuilt = t.str_encoding(0).unwrap();
        assert_eq!(rebuilt.codes.len(), 7);
        assert_eq!(rebuilt.values[rebuilt.codes[0] as usize], "c1");
    }

    #[test]
    fn append_loop_does_not_thrash_unrelated_cold_pages() {
        use crate::pool::BufferPool;
        use rqp_common::{ChaosPolicy, CostClock};

        let rpp = CostModelParams::default().rows_per_page.max(1.0) as usize;
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let mut hot = Table::new("hot", schema.clone());
        // 2.5 pages: the last resident page is partially filled, so the
        // first appends land *inside* it.
        for i in 0..(2 * rpp + rpp / 2) {
            hot.append(vec![Value::Int(i as i64)]);
        }
        let pool = BufferPool::new(8);
        hot.attach_pool(&pool);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        // Make all of `hot` plus another table's pages resident — the
        // latter are the "unrelated cold pages" a subscription-heavy
        // append loop must not thrash.
        for p in 0..3 {
            drop(pool.pin("hot", p, &clock, &off).unwrap());
        }
        for p in 0..4 {
            drop(pool.pin("other", p, &clock, &off).unwrap());
        }
        let cold_epoch = pool.evict_epoch(ChaosPolicy::table_key("other"));
        let hot_epoch = pool.evict_epoch(hot.table_key());
        // An append-heavy loop: each append invalidates only the page the
        // row landed in; the partial page 2 is dropped once, later appends
        // touch pages that were never resident (no-ops).
        for i in 0..(2 * rpp) {
            hot.append(vec![Value::Int(i as i64)]);
        }
        assert_eq!(pool.stats().invalidations, 1, "only the mutated page dropped");
        assert_eq!(pool.stats().evictions, 0, "no pressure eviction from appends");
        assert_eq!(
            pool.evict_epoch(ChaosPolicy::table_key("other")),
            cold_epoch,
            "unrelated table epoch untouched"
        );
        assert_eq!(pool.evict_epoch(hot.table_key()), hot_epoch, "own epoch untouched too");
        // Every `other` frame is still resident: re-pinning hits.
        for p in 0..4 {
            assert!(pool.pin("other", p, &clock, &off).unwrap().1.hit);
        }
        // Untouched pages of `hot` stay hot; the mutated page re-reads as
        // an honest re-fault (it was loaded before, its frame was dropped).
        assert!(pool.pin("hot", 0, &clock, &off).unwrap().1.hit);
        assert!(pool.pin("hot", 1, &clock, &off).unwrap().1.hit);
        let (_pin, out) = pool.pin("hot", 2, &clock, &off).unwrap();
        assert!(!out.hit && out.refault, "mutated page re-reads as a re-fault");
    }

    #[test]
    fn iter_rows_order() {
        let t = tbl();
        let ids: Vec<i64> = t
            .iter_rows()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }
}
