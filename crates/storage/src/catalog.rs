//! The catalog: named tables, indexes and adaptive-index stores.
//!
//! Tables and secondary indexes are held behind `Arc` so running operators
//! — including exchange workers on other threads — can keep cheap snapshot
//! handles; mutation goes through [`Catalog::append_rows`] (table and
//! indexes together) or, on a table without indexes,
//! [`Catalog::table_mut`], both of which copy on write if a snapshot is
//! still live (a poor man's snapshot isolation — readers never observe
//! concurrent appends). The adaptive indexes (crackers, adaptive merge)
//! stay `Rc<RefCell<…>>`: they mutate on every query and remain
//! single-threaded by design.

use crate::amerge::AdaptiveMergeIndex;
use crate::crack::CrackerColumn;
use crate::index::Index;
use crate::table::Table;
use rqp_common::{Result, Row, RqpError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A named collection of tables, secondary indexes and adaptive indexes.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    indexes: HashMap<String, Arc<Index>>,
    crackers: HashMap<(String, String), Rc<RefCell<CrackerColumn>>>,
    amerges: HashMap<(String, String), Rc<RefCell<AdaptiveMergeIndex>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, replacing any previous table of the same name and
    /// dropping the indexes built over it.
    pub fn add_table(&mut self, table: Table) {
        self.indexes.retain(|_, ix| ix.table() != table.name());
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
    /// Errors on a table that carries an index: a write through this handle
    /// would leave the index describing other rows than the table holds.
    /// Use [`append_rows`](Self::append_rows), which keeps them in step.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        if let Some(ix) = self.indexes.values().find(|ix| ix.table() == name) {
            return Err(RqpError::Invalid(format!(
                "table '{name}' carries index '{}': append through append_rows",
                ix.name()
            )));
        }
        let rc = self
            .tables
            .get_mut(name)
            .ok_or_else(|| RqpError::TableNotFound(name.to_owned()))?;
        Ok(Arc::make_mut(rc))
    }

    /// Append `rows` to `table` *and* to every [`Index`] on it (through its
    /// append partition), copying on write whatever a live snapshot still
    /// holds. Nothing is changed when it errors: unknown table, a row of the
    /// wrong arity or with a value its column does not take, or a table grown
    /// past the indexes' `u32` row-id limit.
    pub fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| RqpError::TableNotFound(table.to_owned()))?;
        append_with_indexes(t, self.indexes.values_mut(), rows)
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

    /// Build and register an index named `index_name` on
    /// `table.(columns…)`. Replaces any index of the same name.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        table: &str,
        columns: &[&str],
    ) -> Result<()> {
        let idx = Index::build(index_name, &*self.table(table)?, columns)?;
        self.add_shared_index(Arc::new(idx));
        Ok(())
    }

    /// Index handle by name.
    pub fn index(&self, name: &str) -> Result<Arc<Index>> {
        self.indexes
            .get(name)
            .cloned()
            .ok_or_else(|| RqpError::IndexNotFound(name.to_owned()))
    }

    /// A one-column index on `table.column`, if one exists (the first by
    /// name when there are several).
    pub fn index_on(&self, table: &str, column: &str) -> Option<Arc<Index>> {
        let unq = column.rsplit_once('.').map(|(_, c)| c).unwrap_or(column);
        self.indexes_on(table).into_iter().find(|ix| ix.columns() == [unq])
    }

    /// All indexes on `table`, sorted by name.
    pub fn indexes_on(&self, table: &str) -> Vec<Arc<Index>> {
        let mut out: Vec<Arc<Index>> =
            self.indexes.values().filter(|ix| ix.table() == table).cloned().collect();
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

    /// Register an existing index handle, replacing any index of the same
    /// name.
    pub fn add_shared_index(&mut self, index: Arc<Index>) {
        self.indexes.insert(index.name().to_owned(), index);
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

    /// A `Send + Sync` snapshot of the shareable half of the catalog: table
    /// and index handles, in sorted name order.
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
        let mut indexes: Vec<Arc<Index>> = self.indexes.values().cloned().collect();
        indexes.sort_by(|a, b| a.name().cmp(b.name()));
        CatalogSnapshot { tables, indexes }
    }
}

/// The `Send + Sync` half of a [`Catalog`]: shared handles to tables and
/// static indexes, produced by [`Catalog::snapshot`] and turned back into a
/// thread-local catalog with [`CatalogSnapshot::to_catalog`].
#[derive(Debug, Clone, Default)]
pub struct CatalogSnapshot {
    tables: Vec<Arc<Table>>,
    indexes: Vec<Arc<Index>>,
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
        c
    }

    /// Heap bytes held by the snapshot's `(tables, indexes)` — column data
    /// on one side, every index on the other (capacity-based, counted).
    pub fn heap_bytes(&self) -> (usize, usize) {
        let tables = self.tables.iter().map(|t| t.heap_bytes()).sum();
        let indexes = self.indexes.iter().map(|ix| ix.heap_bytes()).sum();
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
        append_with_indexes(t, self.indexes.iter_mut(), rows)
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
/// `indexes` that are on the table.
fn append_with_indexes<'a>(
    table: &mut Arc<Table>,
    indexes: impl Iterator<Item = &'a mut Arc<Index>>,
    rows: Vec<Row>,
) -> Result<()> {
    let name = table.name();
    let indexes = indexes.filter(|ix| ix.table() == name);
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
    let mut indexes: Vec<&mut Index> = indexes.map(Arc::make_mut).collect();
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
        c.create_index("ix_t_kv", "t", &["k", "v"]).unwrap();
        assert!(c.index_on("t", "k").is_none(), "a composite index is not a column's index");
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        assert!(c.index_on("t", "k").is_some());
        assert!(c.index_on("t", "t.k").is_some(), "qualified names accepted");
        assert!(c.index_on("t", "v").is_none());
        assert_eq!(c.index("ix_t_k").unwrap().entries(), 50);
        // Re-creating an index under the same name moves it to the new column.
        c.create_index("ix_t_k", "t", &["v"]).unwrap();
        assert!(c.index_on("t", "k").is_none());
        assert_eq!(c.index_on("t", "v").unwrap().name(), "ix_t_k");
        assert_eq!(c.indexes_on("t").len(), 2);
    }

    #[test]
    fn indexes_follow_their_table() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        let err = c.table_mut("t").unwrap_err().to_string();
        assert!(err.contains("ix_t_k"), "{err}");
        c.add_table(Table::new("t", c.table("t").unwrap().schema().clone()));
        assert!(c.index("ix_t_k").is_err(), "replacing a table drops its indexes");
        assert!(c.table_mut("t").is_ok());
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
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        c.create_index("mx_t_kv", "t", &["k", "v"]).unwrap();
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
        let mx = after.index("mx_t_kv").unwrap();
        assert_eq!(mx.lookup(&[Value::Int(7)], Some(&Value::Float(0.5)), None).unwrap().len(), 7);
        assert_eq!(mx.lookup(&[Value::Int(7), Value::Float(0.5)], None, None).unwrap().len(), 6);
    }

    #[test]
    fn append_rows_is_all_or_nothing() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
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
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        c.create_index("mx_t_kv", "t", &["k", "v"]).unwrap();
        let snap = c.snapshot();
        // The snapshot crosses a thread boundary; the rebuilt catalog sees
        // the same tables and indexes (including the column-lookup wiring).
        let rebuilt = std::thread::spawn(move || {
            let local = snap.to_catalog();
            (
                local.table("t").unwrap().nrows(),
                local.index_on("t", "k").is_some(),
                local.index("mx_t_kv").unwrap().name().to_owned(),
            )
        })
        .join()
        .unwrap();
        assert_eq!(rebuilt, (50, true, "mx_t_kv".to_owned()));
        // Shared handles, not copies: the snapshot is isolated from later
        // writes exactly like any other live table handle.
        c.append_rows("t", vec![vec![Value::Int(99), Value::Float(9.9)]]).unwrap();
        let snap2 = c.snapshot();
        assert_eq!(snap2.to_catalog().table("t").unwrap().nrows(), 51);
    }
}
