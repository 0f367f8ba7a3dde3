//! The catalog: named tables and their secondary indexes.
//!
//! Tables and indexes are held behind `Arc`, so a [`Catalog`] is `Send +
//! Sync` and a clone copies handles, never column data. Running operators
//! (exchange workers on other threads included) and a query service's
//! readers keep such handles; mutation goes through
//! [`Catalog::append_rows`] (table and indexes together) or, on a table
//! without indexes, [`Catalog::table_mut`], both of which copy on write
//! whatever a live handle still holds (a poor man's snapshot isolation:
//! readers never observe concurrent appends). The adaptive indexes,
//! [`CrackerColumn`](crate::CrackerColumn) and
//! [`AdaptiveMergeIndex`](crate::AdaptiveMergeIndex), are not registered
//! here: they reorganise themselves on every query, so whoever builds one
//! over a table column owns it.

use crate::index::Index;
use crate::table::Table;
use rqp_common::{Result, Row, RqpError};
use std::collections::HashMap;
use std::sync::Arc;

/// A named collection of tables and secondary indexes.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    indexes: HashMap<String, Arc<Index>>,
}

/// A catalog is shared across threads as it is; this fails to compile the
/// day a field stops being `Send + Sync`.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Catalog>();
};

/// Kept, with [`Catalog::snapshot`] and [`Catalog::to_catalog`], only for
/// `crates/perf/src/replay.rs`, until its replay runs through
/// `QueryService::run_solo`. A [`Catalog`] is itself the shareable
/// snapshot; everywhere else, clone it.
pub type CatalogSnapshot = Catalog;

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
    /// holds; an index copy shares the immutable base run and duplicates
    /// only the append partition. Nothing is changed when it errors: unknown
    /// table, a row of the wrong arity or with a value its column does not
    /// take, or a table grown past the indexes' `u32` row-id limit.
    pub fn append_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t =
            self.tables.get_mut(table).ok_or_else(|| RqpError::TableNotFound(table.to_owned()))?;
        let arity = t.schema().len();
        for row in &rows {
            if row.len() != arity {
                return Err(RqpError::Invalid(format!(
                    "append to '{table}': row arity {} != table arity {arity}",
                    row.len()
                )));
            }
            if let Some((i, v)) = row.iter().enumerate().find(|(i, v)| !t.column(*i).accepts(v)) {
                let field = &t.schema().field(i).name;
                return Err(RqpError::TypeMismatch {
                    expected: format!("{} for {table}.{field}", t.column(i).data_type()),
                    got: v.data_type().map_or("NULL".into(), |t| t.to_string()),
                });
            }
        }
        // Copy-on-write happens here, after the rows are known to be good.
        let mut indexes: Vec<&mut Index> =
            self.indexes.values_mut().filter(|ix| ix.table() == table).map(Arc::make_mut).collect();
        if !indexes.is_empty() && t.nrows() + rows.len() > u32::MAX as usize {
            return Err(RqpError::Invalid(format!(
                "append to '{table}': {} rows exceed the index limit of {}",
                t.nrows() + rows.len(),
                u32::MAX
            )));
        }
        let key_cols: Vec<Vec<usize>> = indexes
            .iter()
            .map(|ix| ix.columns().iter().map(|c| t.column_index(c)).collect())
            .collect::<Result<_>>()?;
        let t = Arc::make_mut(t);
        let mut key = Vec::new();
        for row in rows {
            let rid = t.nrows();
            for (ix, cols) in indexes.iter_mut().zip(&key_cols) {
                key.clear();
                key.extend(cols.iter().map(|&c| row[c].clone()));
                ix.insert(&key, rid).expect("types and row-id range were checked above");
            }
            t.append(row);
        }
        Ok(())
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

    /// Register an existing index handle, replacing any index of the same
    /// name.
    pub fn add_shared_index(&mut self, index: Arc<Index>) {
        self.indexes.insert(index.name().to_owned(), index);
    }

    /// Heap bytes held by the catalog's `(tables, indexes)`: column data on
    /// one side, every index on the other (capacity-based, counted). Data a
    /// clone shares is counted by each holder.
    pub fn heap_bytes(&self) -> (usize, usize) {
        let tables = self.tables.values().map(|t| t.heap_bytes()).sum();
        let indexes = self.indexes.values().map(|ix| ix.heap_bytes()).sum();
        (tables, indexes)
    }

    /// Attach (or replace) `pool` on every registered table, so scans pin
    /// data pages through one shared [`BufferPool`](crate::pool::BufferPool).
    /// The pool sits on the table itself, so every clone holding the same
    /// table handle pins through it too. Tables registered *after* this call
    /// are not wired — attach the pool once the catalog is fully loaded (or
    /// re-attach).
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

    /// A clone; see [`CatalogSnapshot`] for why the name is kept.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.clone()
    }

    /// A clone; see [`CatalogSnapshot`] for why the name is kept.
    pub fn to_catalog(&self) -> Catalog {
        self.clone()
    }
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
        let frozen = c.clone();
        let rows = |k: i64| vec![vec![Value::Int(k), Value::Float(0.5)]; 3];
        c.append_rows("t", rows(7)).unwrap();
        let mut after = c.clone();
        after.append_rows("t", rows(7)).unwrap();
        for (cat, want) in [(&frozen, vec![7]), (&c, vec![7, 50, 51, 52])] {
            let got: Vec<_> = cat.index("ix_t_k").unwrap().lookup_eq(&Value::Int(7)).collect();
            assert_eq!(got, want);
            assert_eq!(cat.table("t").unwrap().nrows(), 50 + want.len() - 1);
        }
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
    fn snapshot_round_trips_across_threads() {
        let mut c = catalog();
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        c.create_index("mx_t_kv", "t", &["k", "v"]).unwrap();
        // A clone crosses a thread boundary and sees the same tables and
        // indexes (the column-lookup wiring and composite lookups included),
        // and an append to the original while it is there never reaches it.
        let copy = c.clone();
        let (appended, wait) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            wait.recv().unwrap();
            let mx = copy.index("mx_t_kv").unwrap();
            (
                copy.table("t").unwrap().nrows(),
                copy.index_on("t", "k").map(|ix| ix.lookup_eq(&Value::Int(7)).len()),
                mx.lookup(&[Value::Int(7)], Some(&Value::Float(7.0)), None).unwrap().len(),
                copy.table_names(),
            )
        });
        c.append_rows("t", vec![vec![Value::Int(7), Value::Float(9.9)]]).unwrap();
        appended.send(()).unwrap();
        assert_eq!(reader.join().unwrap(), (50, Some(1), 1, vec!["t".to_owned()]));
        assert_eq!(c.table("t").unwrap().nrows(), 51);
        let mx = c.index("mx_t_kv").unwrap();
        assert_eq!(mx.lookup(&[Value::Int(7)], Some(&Value::Float(7.0)), None).unwrap().len(), 2);
    }
}
