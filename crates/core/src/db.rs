//! The high-level `Database` facade.

use rqp_common::Result;
use rqp_exec::ExecContext;
use rqp_opt::run::{execute, Execution, ExecutionMode, PlanInputs};
use rqp_opt::{plan as plan_query, PhysicalPlan, PlannerConfig, QuerySpec};
use rqp_stats::{FeedbackRepo, StatsEstimator, TableStatsRegistry};
use rqp_storage::{Catalog, Table};
use std::cell::RefCell;
use std::rc::Rc;

/// A catalog plus statistics, feedback state and configuration — the
/// top-level entry point.
pub struct Database {
    catalog: Catalog,
    registry: Rc<TableStatsRegistry>,
    feedback: RefCell<FeedbackRepo>,
    /// Planner configuration used for every query.
    pub planner_config: PlannerConfig,
    /// Histogram buckets used by [`Database::analyze`].
    pub stat_buckets: usize,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::from_catalog(Catalog::new())
    }

    /// Wrap an existing catalog. Call [`Database::analyze`] before planning.
    pub fn from_catalog(catalog: Catalog) -> Self {
        Database {
            catalog,
            registry: Rc::new(TableStatsRegistry::new()),
            feedback: RefCell::new(FeedbackRepo::new(0.8)),
            planner_config: PlannerConfig::default(),
            stat_buckets: 32,
        }
    }

    /// Register a table, replacing any previous table of the same name and
    /// dropping the indexes built over it.
    pub fn add_table(&mut self, table: Table) {
        self.catalog.add_table(table);
    }

    /// Create an index on one column.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        table: &str,
        column: &str,
    ) -> Result<()> {
        self.catalog.create_index(name, table, &[column])
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (snapshots held by running queries are
    /// copy-on-write protected).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Gather statistics for every table (like SQL `ANALYZE`).
    pub fn analyze(&mut self) {
        self.registry =
            Rc::new(TableStatsRegistry::analyze_catalog(&self.catalog, self.stat_buckets));
    }

    /// The statistics registry.
    pub fn registry(&self) -> &TableStatsRegistry {
        &self.registry
    }

    /// The histogram+independence estimator over the current statistics.
    pub fn estimator(&self) -> StatsEstimator {
        StatsEstimator::new(Rc::clone(&self.registry))
    }

    /// Optimize a query (static mode) and return the plan.
    pub fn plan(&self, spec: &QuerySpec) -> Result<PhysicalPlan> {
        let est = self.estimator();
        plan_query(spec, &self.catalog, &est, self.planner_config)
    }

    /// EXPLAIN: the chosen plan rendered as a tree.
    pub fn explain(&self, spec: &QuerySpec) -> Result<String> {
        Ok(self.plan(spec)?.to_string())
    }

    /// Execute with classic static optimization.
    pub fn execute(&self, spec: &QuerySpec) -> Result<Execution> {
        self.execute_mode(spec, ExecutionMode::Static)
    }

    /// Execute under the given mode, on a fresh context with the planner's
    /// memory budget. LEO reads and writes the database's feedback
    /// repository.
    pub fn execute_mode(&self, spec: &QuerySpec, mode: ExecutionMode) -> Result<Execution> {
        let inputs = PlanInputs {
            feedback: Some(&self.feedback),
            config: self.planner_config,
            ..PlanInputs::new(&self.catalog, &self.registry)
        };
        execute(spec, &inputs, mode, &ExecContext::with_memory(self.planner_config.memory_rows))
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_stats::CardEstimator;

    fn db() -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]);
        let mut t = Table::new("t", schema.clone());
        for i in 0..1000i64 {
            t.append(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        db.add_table(t);
        let mut u = Table::new("u", schema);
        for i in 0..50i64 {
            u.append(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        db.add_table(u);
        db.create_index("ix_t_k", "t", "k").unwrap();
        db.analyze();
        db
    }

    fn join_spec() -> QuerySpec {
        QuerySpec::new()
            .join("t", "g", "u", "g")
            .filter("t", col("t.k").lt(lit(100i64)))
    }

    #[test]
    fn static_execution() {
        let db = db();
        let r = db.execute(&join_spec()).unwrap();
        assert_eq!(r.rows.len(), 500, "100 t-rows × 5 matching u-rows");
        assert!(r.cost > 0.0);
        assert!(!r.plan_fingerprint.is_empty());
        assert_eq!(r.reoptimizations(), 0);
    }

    #[test]
    fn all_modes_agree_on_results() {
        let db = db();
        let baseline = db.execute(&join_spec()).unwrap().rows.len();
        for mode in [ExecutionMode::robust(), ExecutionMode::pop(), ExecutionMode::Leo] {
            let r = db.execute_mode(&join_spec(), mode).unwrap();
            assert_eq!(r.rows.len(), baseline, "mode {mode:?} changed the answer");
        }
    }

    #[test]
    fn explain_renders() {
        let db = db();
        let s = db.explain(&join_spec()).unwrap();
        assert!(s.contains("Scan") || s.contains("Join"), "{s}");
    }

    #[test]
    fn leo_populates_feedback() {
        let db = db();
        assert!(db.feedback.borrow().is_empty());
        db.execute_mode(&join_spec(), ExecutionMode::Leo).unwrap();
        assert!(!db.feedback.borrow().is_empty());
    }

    #[test]
    fn robust_rejects_bad_factor() {
        let db = db();
        let r = db.execute_mode(
            &join_spec(),
            ExecutionMode::Robust { percentile: 0.9, error_factor: 0.5 },
        );
        assert!(r.is_err());
    }

    #[test]
    fn analyze_refreshes_statistics() {
        let mut db = db();
        let rows_before = db.estimator().table_rows("t");
        let rows = (0..500i64).map(|i| vec![Value::Int(1000 + i), Value::Int(i % 10)]).collect();
        db.catalog_mut().append_rows("t", rows).unwrap();
        assert_eq!(db.estimator().table_rows("t"), rows_before, "stale until ANALYZE");
        db.analyze();
        assert_eq!(db.estimator().table_rows("t"), 1500.0);
    }

    fn keyed(keys: std::ops::Range<i64>) -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in keys {
            t.append(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        t
    }

    fn k_between(lo: i64, hi: i64) -> QuerySpec {
        QuerySpec::new().table("t").filter("t", col("t.k").between(lo, hi))
    }

    /// An index re-created under its name on another column must stop
    /// answering for the old one (it once planned `t.k` ranges over `g`).
    #[test]
    fn recreated_index_forgets_its_old_column() {
        let mut db = Database::new();
        db.add_table(keyed(0..1000));
        db.create_index("ix", "t", "k").unwrap();
        db.create_index("ix", "t", "g").unwrap();
        db.analyze();
        assert_eq!(db.execute(&k_between(0, 4)).unwrap().rows.len(), 5);
    }

    /// A replaced table must not keep the indexes built over its old rows.
    #[test]
    fn replacing_a_table_drops_its_indexes() {
        let mut db = Database::new();
        db.add_table(keyed(0..1000));
        db.create_index("ix", "t", "k").unwrap();
        db.add_table(keyed(5000..6000));
        db.analyze();
        assert_eq!(db.execute(&k_between(5000, 5004)).unwrap().rows.len(), 5);
    }
}
