//! The catalog: named tables, indexes and adaptive-index stores.
//!
//! Tables and secondary indexes are held behind `Arc` so running operators
//! — including exchange workers on other threads — can keep cheap snapshot
//! handles; mutation goes through [`Catalog::append_rows`] (table and
//! indexes together) or [`Catalog::table_mut`] (table only), which copy on
//! write if a snapshot is still live (a poor man's snapshot isolation —
//! readers never observe concurrent appends). The adaptive indexes
//! (crackers, adaptive merge) stay `Rc<RefCell<…>>`: they mutate on every
//! query and remain single-threaded by design.

use crate::amerge::AdaptiveMergeIndex;
use crate::crack::CrackerColumn;
use crate::index::BTreeIndex;
use crate::multi_index::MultiIndex;
use crate::table::Table;
use crate::run::PackedIndex;
use rqp_common::{Result, Row, RqpError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A named collection of tables, B-tree indexes and adaptive indexes.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    indexes: HashMap<String, Arc<BTreeIndex>>,
    /// (table, column) → index name, for optimizer access-path lookup.
    index_by_col: HashMap<(String, String), String>,
    multi_indexes: HashMap<String, Arc<MultiIndex>>,
    crackers: HashMap<(String, String), Rc<RefCell<CrackerColumn>>>,
    amerges: HashMap<(String, String), Rc<RefCell<AdaptiveMergeIndex>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), Arc::new(table));
    }

    /// Snapshot handle to a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| RqpError::TableNotFound(name.to_owned()))
    }

    /// Mutable access to a table (copy-on-write if snapshots are live).
    ///
    /// Appending through this handle **bypasses index upkeep**: indexes on
    /// the table keep describing the rows they were built over. Use
    /// [`append_rows`](Self::append_rows) to keep them in step.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let rc = self
            .tables
            .get_mut(name)
            .ok_or_else(|| RqpError::TableNotFound(name.to_owned()))?;
        Ok(Arc::make_mut(rc))
    }

    /// Append `rows` to `table` *and* to every [`BTreeIndex`] and
    /// [`MultiIndex`] on it (through their append partitions), copying on
    /// write whatever a live snapshot still holds. Nothing is changed when
    /// it errors: unknown table, a row of the wrong arity or with a value
    /// its column does not take, or a table grown past the indexes' `u32`
    /// row-id limit.
    pub fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| RqpError::TableNotFound(table.to_owned()))?;
        append_with_indexes(t, self.indexes.values_mut(), self.multi_indexes.values_mut(), rows)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// True if `name` is a registered table.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Build and register a B-tree index named `index_name` on
    /// `table.column`. Replaces any index of the same name.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        table: &str,
        column: &str,
    ) -> Result<()> {
        let index_name = index_name.into();
        let t = self.table(table)?;
        let idx = BTreeIndex::build(index_name.clone(), &t, column)?;
        self.index_by_col
            .insert((table.to_owned(), idx.column().to_owned()), index_name.clone());
        self.indexes.insert(index_name, Arc::new(idx));
        Ok(())
    }

    /// Index handle by name.
    pub fn index(&self, name: &str) -> Result<Arc<BTreeIndex>> {
        self.indexes
            .get(name)
            .cloned()
            .ok_or_else(|| RqpError::IndexNotFound(name.to_owned()))
    }

    /// Find an index on `table.column`, if one exists.
    pub fn index_on(&self, table: &str, column: &str) -> Option<Arc<BTreeIndex>> {
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.index_by_col
            .get(&(table.to_owned(), unq.to_owned()))
            .and_then(|n| self.indexes.get(n).cloned())
    }

    /// Build and register a composite index over `table.(columns…)`.
    pub fn create_multi_index(
        &mut self,
        index_name: impl Into<String>,
        table: &str,
        columns: &[&str],
    ) -> Result<()> {
        let index_name = index_name.into();
        let t = self.table(table)?;
        let idx = MultiIndex::build(index_name.clone(), &t, columns)?;
        self.multi_indexes.insert(index_name, Arc::new(idx));
        Ok(())
    }

    /// Composite index by name.
    pub fn multi_index(&self, name: &str) -> Result<Arc<MultiIndex>> {
        self.multi_indexes
            .get(name)
            .cloned()
            .ok_or_else(|| RqpError::IndexNotFound(name.to_owned()))
    }

    /// All composite indexes on `table`.
    pub fn multi_indexes_on(&self, table: &str) -> Vec<Arc<MultiIndex>> {
        let mut out: Vec<Arc<MultiIndex>> = self
            .multi_indexes
            .values()
            .filter(|ix| ix.table() == table)
            .cloned()
            .collect();
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }

    /// Create a cracker column over an integer `table.column`.
    pub fn create_cracker(&mut self, table: &str, column: &str) -> Result<()> {
        let t = self.table(table)?;
        let col = t.column_by_name(column)?;
        let keys = col.as_int_slice().ok_or_else(|| RqpError::TypeMismatch {
            expected: "INT column for cracking".into(),
            got: col.data_type().to_string(),
        })?;
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.crackers.insert(
            (table.to_owned(), unq.to_owned()),
            Rc::new(RefCell::new(CrackerColumn::new(&keys.to_vec()))),
        );
        Ok(())
    }

    /// Cracker column over `table.column`, if created.
    pub fn cracker(&self, table: &str, column: &str) -> Option<Rc<RefCell<CrackerColumn>>> {
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.crackers.get(&(table.to_owned(), unq.to_owned())).cloned()
    }

    /// Create an adaptive-merge index over an integer `table.column`.
    pub fn create_amerge(&mut self, table: &str, column: &str, run_size: usize) -> Result<()> {
        let t = self.table(table)?;
        let col = t.column_by_name(column)?;
        let keys = col.as_int_slice().ok_or_else(|| RqpError::TypeMismatch {
            expected: "INT column for adaptive merging".into(),
            got: col.data_type().to_string(),
        })?;
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.amerges.insert(
            (table.to_owned(), unq.to_owned()),
            Rc::new(RefCell::new(AdaptiveMergeIndex::new(&keys.to_vec(), run_size))),
        );
        Ok(())
    }

    /// Adaptive-merge index over `table.column`, if created.
    pub fn amerge(
        &self,
        table: &str,
        column: &str,
    ) -> Option<Rc<RefCell<AdaptiveMergeIndex>>> {
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.amerges.get(&(table.to_owned(), unq.to_owned())).cloned()
    }

    /// Register an existing table handle without copying its data (the
    /// reconstruction half of [`snapshot`](Self::snapshot)).
    pub fn add_shared_table(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Register an existing index handle, wiring the optimizer's
    /// column-lookup map from the index's own table/column.
    pub fn add_shared_index(&mut self, index: Arc<BTreeIndex>) {
        self.index_by_col.insert(
            (index.table().to_owned(), index.column().to_owned()),
            index.name().to_owned(),
        );
        self.indexes.insert(index.name().to_owned(), index);
    }

    /// Register an existing composite-index handle.
    pub fn add_shared_multi_index(&mut self, index: Arc<MultiIndex>) {
        self.multi_indexes.insert(index.name().to_owned(), index);
    }

    /// Attach (or replace) `pool` on every registered table, so scans pin
    /// data pages through one shared [`BufferPool`](crate::pool::BufferPool).
    /// Tables registered *after* this call are not wired — attach the pool
    /// once the catalog is fully loaded (or re-attach).
    pub fn attach_pool(&self, pool: &Arc<crate::pool::BufferPool>) {
        for t in self.tables.values() {
            t.attach_pool(pool);
        }
    }

    /// Attach (or replace) `log` on every registered table, so all mutations
    /// publish into one epoch-sequenced
    /// [`Changelog`](crate::changelog::Changelog) — the total order a
    /// multi-table subscription circuit replays. Same caveat as
    /// [`attach_pool`](Self::attach_pool): tables registered later are not
    /// wired.
    pub fn attach_changelog(&self, log: &Arc<crate::changelog::Changelog>) {
        for t in self.tables.values() {
            t.attach_changelog(log);
        }
    }

    /// A `Send + Sync` snapshot of the shareable half of the catalog: table,
    /// B-tree and composite-index handles, in sorted name order.
    ///
    /// The `Catalog` itself is not `Send` — the adaptive indexes (crackers,
    /// adaptive merge) are `Rc<RefCell<…>>` and mutate on every query — but
    /// everything an optimizer-planned query reads is already behind `Arc`.
    /// A query service snapshots the catalog once, hands the snapshot to
    /// each query thread, and every thread rebuilds a cheap thread-local
    /// `Catalog` with [`CatalogSnapshot::to_catalog`] (handle copies only,
    /// no data copies). Adaptive indexes are deliberately absent: a
    /// reconstructed catalog plans the non-adaptive access paths.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let mut tables: Vec<Arc<Table>> = self.tables.values().cloned().collect();
        tables.sort_by(|a, b| a.name().cmp(b.name()));
        let mut indexes: Vec<Arc<BTreeIndex>> = self.indexes.values().cloned().collect();
        indexes.sort_by(|a, b| a.name().cmp(b.name()));
        let mut multi_indexes: Vec<Arc<MultiIndex>> =
            self.multi_indexes.values().cloned().collect();
        multi_indexes.sort_by(|a, b| a.name().cmp(b.name()));
        CatalogSnapshot { tables, indexes, multi_indexes }
    }
}

/// The `Send + Sync` half of a [`Catalog`]: shared handles to tables and
/// static indexes, produced by [`Catalog::snapshot`] and turned back into a
/// thread-local catalog with [`CatalogSnapshot::to_catalog`].
#[derive(Debug, Clone, Default)]
pub struct CatalogSnapshot {
    tables: Vec<Arc<Table>>,
    indexes: Vec<Arc<BTreeIndex>>,
    multi_indexes: Vec<Arc<MultiIndex>>,
}

impl CatalogSnapshot {
    /// Rebuild a thread-local [`Catalog`] from the shared handles. Cheap:
    /// only `Arc` clones, never data copies.
    pub fn to_catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for t in &self.tables {
            c.add_shared_table(Arc::clone(t));
        }
        for ix in &self.indexes {
            c.add_shared_index(Arc::clone(ix));
        }
        for ix in &self.multi_indexes {
            c.add_shared_multi_index(Arc::clone(ix));
        }
        c
    }

    /// Heap bytes held by the snapshot's `(tables, indexes)` — column data
    /// on one side, every single- and multi-column index on the other
    /// (capacity-based, counted).
    pub fn heap_bytes(&self) -> (usize, usize) {
        let tables = self.tables.iter().map(|t| t.heap_bytes()).sum();
        let indexes = self.indexes.iter().map(|ix| ix.heap_bytes()).sum::<usize>()
            + self.multi_indexes.iter().map(|ix| ix.heap_bytes()).sum::<usize>();
        (tables, indexes)
    }

    /// Shared handle to a table in the snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .cloned()
            .ok_or_else(|| RqpError::TableNotFound(name.to_owned()))
    }

    /// Append `rows` to `table` and to every index on it — the snapshot's
    /// [`Catalog::append_rows`], with the same all-or-nothing errors — so a
    /// catalog rebuilt by [`to_catalog`](Self::to_catalog) always gets a
    /// table and indexes of the same epoch. An index a running query still
    /// holds is copied on write; the copy shares the immutable base run and
    /// duplicates only the append partition.
    pub fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .iter_mut()
            .find(|t| t.name() == table)
            .ok_or_else(|| RqpError::TableNotFound(table.to_owned()))?;
        append_with_indexes(t, self.indexes.iter_mut(), self.multi_indexes.iter_mut(), rows)
    }

    /// Mutable access to a table in the snapshot, copying on write when
    /// other handles are live — the same snapshot isolation as
    /// [`Catalog::table_mut`], and like it **bypassing index upkeep** (use
    /// [`append_rows`](Self::append_rows)). Because the table's attached pool
    /// and changelog are shared `Arc`s, the copy keeps publishing to the same
    /// feed; catalogs rebuilt from this snapshot *after* the write see the
    /// new rows, ones rebuilt before keep their frozen view.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let rc = self
            .tables
            .iter_mut()
            .find(|t| t.name() == name)
            .ok_or_else(|| RqpError::TableNotFound(name.to_owned()))?;
        Ok(Arc::make_mut(rc))
    }

    /// Attach (or replace) `pool` on every table handle in the snapshot.
    /// Because [`to_catalog`](Self::to_catalog) copies handles rather than
    /// data, every thread-local catalog rebuilt from this snapshot shares
    /// the attached pool.
    pub fn attach_pool(&self, pool: &Arc<crate::pool::BufferPool>) {
        for t in &self.tables {
            t.attach_pool(pool);
        }
    }

    /// Attach (or replace) `log` on every table handle in the snapshot; all
    /// thread-local catalogs rebuilt from this snapshot share the feed.
    pub fn attach_changelog(&self, log: &Arc<crate::changelog::Changelog>) {
        for t in &self.tables {
            t.attach_changelog(log);
        }
    }
}

/// The shared body of [`Catalog::append_rows`] and
/// [`CatalogSnapshot::append_rows`]: validate every row first, then append
/// each to the table and key it, under its new row id, into those of
/// `indexes` and `multi` that are on the table.
fn append_with_indexes<'a>(
    table: &mut Arc<Table>,
    indexes: impl Iterator<Item = &'a mut Arc<BTreeIndex>>,
    multi: impl Iterator<Item = &'a mut Arc<MultiIndex>>,
    rows: Vec<Row>,
) -> Result<()> {
    let name = table.name();
    let indexes = indexes.filter(|ix| ix.table() == name);
    let multi = multi.filter(|ix| ix.table() == name);
    let arity = table.schema().len();
    for row in &rows {
        if row.len() != arity {
            return Err(RqpError::Invalid(format!(
                "append to '{name}': row arity {} != table arity {arity}",
                row.len()
            )));
        }
        if let Some((i, v)) = row.iter().enumerate().find(|(i, v)| !table.column(*i).accepts(v)) {
            let field = &table.schema().field(i).name;
            return Err(RqpError::TypeMismatch {
                expected: format!("{} for {name}.{field}", table.column(i).data_type()),
                got: v.data_type().map_or("NULL".into(), |t| t.to_string()),
            });
        }
    }
    // Copy-on-write happens here, after the rows are known to be good.
    let mut indexes: Vec<&mut PackedIndex> = indexes
        .map(|ix| Arc::make_mut(ix).packed_mut())
        .chain(multi.map(|ix| Arc::make_mut(ix).packed_mut()))
        .collect();
    if !indexes.is_empty() && table.nrows() + rows.len() > u32::MAX as usize {
        return Err(RqpError::Invalid(format!(
            "append to '{name}': {} rows exceed the index limit of {}",
            table.nrows() + rows.len(),
            u32::MAX
        )));
    }
    let key_cols: Vec<Vec<usize>> = indexes
        .iter()
        .map(|ix| ix.columns().iter().map(|c| table.column_index(c)).collect())
        .collect::<Result<_>>()?;
    let table = Arc::make_mut(table);
    let mut key = Vec::new();
    for row in rows {
        let rid = table.nrows();
        for (ix, cols) in indexes.iter_mut().zip(&key_cols) {
            key.clear();
            key.extend(cols.iter().map(|&c| row[c].clone()));
            ix.insert(&key, rid).expect("types and row-id range were checked above");
        }
        table.append(row);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
        let mut t = Table::new("t", schema);
        for i in 0..50 {
            t.append(vec![Value::Int(i), Value::Float(i as f64)]);
        }
        c.add_table(t);
        c
    }

    #[test]
    fn table_roundtrip() {
        let c = catalog();
        assert!(c.has_table("t"));
        assert_eq!(c.table("t").unwrap().nrows(), 50);
        assert!(c.table("missing").is_err());
        assert_eq!(c.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn index_lookup_by_column() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", "k").unwrap();
        assert!(c.index_on("t", "k").is_some());
        assert!(c.index_on("t", "t.k").is_some(), "qualified names accepted");
        assert!(c.index_on("t", "v").is_none());
        assert_eq!(c.index("ix_t_k").unwrap().entries(), 50);
    }

    #[test]
    fn snapshot_isolation_on_write() {
        let mut c = catalog();
        let snap = c.table("t").unwrap();
        c.table_mut("t")
            .unwrap()
            .append(vec![Value::Int(99), Value::Float(9.9)]);
        assert_eq!(snap.nrows(), 50, "snapshot unaffected");
        assert_eq!(c.table("t").unwrap().nrows(), 51);
    }

    #[test]
    fn append_rows_keeps_indexes_in_step() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", "k").unwrap();
        c.create_multi_index("mx_t_kv", "t", &["k", "v"]).unwrap();
        let frozen = c.snapshot().to_catalog();
        let rows = |k: i64| vec![vec![Value::Int(k), Value::Float(0.5)]; 3];
        c.append_rows("t", rows(7)).unwrap();
        let mut snap = c.snapshot();
        snap.append_rows("t", rows(7)).unwrap();
        for (cat, want) in [(&frozen, vec![7]), (&c, vec![7, 50, 51, 52])] {
            let got: Vec<_> = cat.index("ix_t_k").unwrap().lookup_eq(&Value::Int(7)).collect();
            assert_eq!(got, want);
            assert_eq!(cat.table("t").unwrap().nrows(), 50 + want.len() - 1);
        }
        let after = snap.to_catalog();
        assert_eq!(after.table("t").unwrap().nrows(), 56);
        assert_eq!(after.index("ix_t_k").unwrap().lookup_eq(&Value::Int(7)).len(), 7);
        let mx = after.multi_index("mx_t_kv").unwrap();
        assert_eq!(mx.lookup(&[Value::Int(7)], Some(&Value::Float(0.5)), None).unwrap().len(), 7);
        assert_eq!(mx.lookup(&[Value::Int(7), Value::Float(0.5)], None, None).unwrap().len(), 6);
    }

    #[test]
    fn append_rows_is_all_or_nothing() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", "k").unwrap();
        let good = vec![Value::Int(1), Value::Int(2)]; // an Int coerces into the float column
        assert!(c.append_rows("missing", vec![good.clone()]).is_err());
        assert!(c.append_rows("t", vec![good.clone(), vec![Value::Int(1)]]).is_err());
        let bad_type = vec![Value::Float(1.0), Value::Float(2.0)];
        assert!(c.append_rows("t", vec![good.clone(), bad_type]).is_err());
        assert!(c.append_rows("t", vec![vec![Value::Null, Value::Float(0.0)]]).is_err());
        assert_eq!(c.table("t").unwrap().nrows(), 50);
        assert_eq!(c.index("ix_t_k").unwrap().entries(), 50);
        c.append_rows("t", vec![good]).unwrap();
        assert_eq!(c.table("t").unwrap().row(50), vec![Value::Int(1), Value::Float(2.0)]);
        assert_eq!(c.index("ix_t_k").unwrap().entries(), 51);
    }

    #[test]
    fn cracker_and_amerge_registration() {
        let mut c = catalog();
        c.create_cracker("t", "k").unwrap();
        c.create_amerge("t", "k", 8).unwrap();
        let cr = c.cracker("t", "k").unwrap();
        let (rows, _) = cr.borrow_mut().query(10, 19);
        assert_eq!(rows.len(), 10);
        let am = c.amerge("t", "k").unwrap();
        let (rows, _) = am.borrow_mut().query(10, 19);
        assert_eq!(rows.len(), 10);
        assert!(c.cracker("t", "v").is_none());
    }

    #[test]
    fn cracker_requires_int_column() {
        let mut c = catalog();
        assert!(c.create_cracker("t", "v").is_err());
        assert!(c.create_amerge("t", "v", 4).is_err());
    }

    #[test]
    fn snapshot_round_trips_across_threads() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", "k").unwrap();
        c.create_multi_index("mx_t_kv", "t", &["k", "v"]).unwrap();
        let snap = c.snapshot();
        // The snapshot crosses a thread boundary; the rebuilt catalog sees
        // the same tables and indexes (including the column-lookup wiring).
        let rebuilt = std::thread::spawn(move || {
            let local = snap.to_catalog();
            (
                local.table("t").unwrap().nrows(),
                local.index_on("t", "k").is_some(),
                local.multi_index("mx_t_kv").unwrap().name().to_owned(),
            )
        })
        .join()
        .unwrap();
        assert_eq!(rebuilt, (50, true, "mx_t_kv".to_owned()));
        // Shared handles, not copies: the snapshot is isolated from later
        // writes exactly like any other live table handle.
        c.table_mut("t")
            .unwrap()
            .append(vec![Value::Int(99), Value::Float(9.9)]);
        let snap2 = c.snapshot();
        assert_eq!(snap2.to_catalog().table("t").unwrap().nrows(), 51);
    }
}
