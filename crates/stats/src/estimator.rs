//! Cardinality estimators.
//!
//! [`CardEstimator`] is the single interface the optimizer consults. Concrete
//! implementations cover the full spectrum the seminar discusses:
//!
//! * [`StatsEstimator`] — the industry baseline: per-column histograms +
//!   independence assumption between predicates (whose failure under
//!   correlation is the report's #1 robustness hazard);
//! * [`OracleEstimator`] — true cardinalities computed from the data, the
//!   "ideal plan" reference that the extrinsic-variability metric (E05) and
//!   Metric3 (E08) require;
//! * [`LyingEstimator`] — wraps another estimator and multiplies selected
//!   estimates by controlled error factors: the report's root cause
//!   (estimation error) turned into a first-class experimental knob.
//!
//! `rqp-stats` also provides [`crate::FeedbackEstimator`] (LEO corrections)
//! and [`crate::SamplingEstimator`] (posterior distributions).

use crate::histogram::{EquiDepthHistogram, Histogram};
use rand::Rng;
use rqp_common::{CmpOp, Expr, SimplePred, Value};
use rqp_storage::{Catalog, ColumnData, Groups, Table};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// Default selectivity for predicates the estimator cannot analyze —
/// the classic System-R "magic number".
pub const DEFAULT_SELECTIVITY: f64 = 0.1;

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Rows observed when stats were gathered.
    pub count: usize,
    /// Number of distinct values.
    pub ndv: usize,
    /// Minimum (numeric columns only).
    pub min: Option<f64>,
    /// Maximum (numeric columns only).
    pub max: Option<f64>,
    /// Equi-depth histogram (numeric columns only).
    pub histogram: Option<EquiDepthHistogram>,
}

impl ColumnStats {
    /// Gather stats from a column, optionally from a row subset (sampled
    /// statistics — the trigger of the "automatic disaster" experiment E21).
    ///
    /// A numeric column goes through the grouping kernel ([`Groups`]):
    /// O(n) counting for integers of a narrow span, one keyless sort
    /// otherwise. `ndv` is its number of runs — distinct bit patterns of the
    /// values as `f64`, so every NaN payload and each zero counts once — and
    /// the histogram is cut from the same runs.
    pub fn gather(col: &ColumnData, rows: Option<&[usize]>, buckets: usize) -> Self {
        let Some(groups) = Groups::of(col, rows) else {
            let ColumnData::Str(v) = col else { unreachable!("numeric columns group") };
            let seen: BTreeSet<&str> = match rows {
                None => v.iter().map(String::as_str).collect(),
                Some(ids) => ids.iter().map(|&i| v[i].as_str()).collect(),
            };
            let count = rows.map_or(v.len(), <[usize]>::len);
            return ColumnStats { count, ndv: seen.len(), min: None, max: None, histogram: None };
        };
        let (values, offsets) = runs_as_f64(groups);
        let count = *offsets.last().expect("offsets close every run") as usize;
        let (min, max) = match col {
            // `f64::min`/`max` pick between -0.0 and 0.0 by argument order,
            // so a float column folds them in column order.
            ColumnData::Float(v) => {
                let fold = |f: fn(f64, f64) -> f64| match rows {
                    None => v.iter().copied().reduce(f),
                    Some(ids) => ids.iter().map(|&i| v[i]).reduce(f),
                };
                (fold(f64::min), fold(f64::max))
            }
            _ => (values.first().copied(), values.last().copied()),
        };
        let histogram =
            (!values.is_empty()).then(|| EquiDepthHistogram::from_runs(&values, &offsets, buckets));
        ColumnStats { count, ndv: values.len(), min, max, histogram }
    }

    /// Estimate the selectivity of a [`SimplePred`] against this column.
    pub fn selectivity(&self, pred: &SimplePred) -> f64 {
        let eq_sel = |v: &Value| -> f64 {
            match (v.as_float(), &self.histogram) {
                (Some(x), Some(h)) => h.eq_selectivity(x),
                _ => 1.0 / (self.ndv.max(1) as f64),
            }
        };
        match pred {
            SimplePred::Cmp { op, value, .. } => match op {
                CmpOp::Eq => eq_sel(value),
                CmpOp::Ne => (1.0 - eq_sel(value)).clamp(0.0, 1.0),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    match (value.as_float(), &self.histogram) {
                        (Some(x), Some(h)) => {
                            let s = match op {
                                CmpOp::Lt | CmpOp::Le => {
                                    h.range_selectivity(f64::NEG_INFINITY, x)
                                }
                                _ => h.range_selectivity(x, f64::INFINITY),
                            };
                            // Adjust open bounds by the equality mass.
                            match op {
                                CmpOp::Lt => (s - h.eq_selectivity(x)).max(0.0),
                                CmpOp::Gt => (s - h.eq_selectivity(x)).max(0.0),
                                _ => s,
                            }
                        }
                        _ => DEFAULT_SELECTIVITY * 3.0, // range magic: 1/3-ish
                    }
                }
            },
            SimplePred::Range { lo, hi, .. } => match (lo.as_float(), hi.as_float(), &self.histogram) {
                (Some(a), Some(b), Some(h)) => h.range_selectivity(a, b),
                _ => DEFAULT_SELECTIVITY * 3.0,
            },
            SimplePred::InList { values, .. } => values
                .iter()
                .map(eq_sel)
                .sum::<f64>()
                .clamp(0.0, 1.0),
        }
    }
}

/// A numeric column's runs with each key as the `f64` the estimator reads.
/// Integers beyond 2^53 can share an `f64`; their runs merge, so the runs
/// stay distinct bit patterns.
fn runs_as_f64(groups: Groups) -> (Vec<f64>, Vec<u32>) {
    let Groups { keys, mut offsets } = groups;
    match keys {
        ColumnData::Float(values) => (values, offsets),
        ColumnData::Int(keys) => {
            let mut values: Vec<f64> = Vec::with_capacity(keys.len());
            let mut kept = 0;
            for (k, key) in keys.as_slice().iter().enumerate() {
                let x = key as f64;
                if values.last().is_none_or(|last| last.to_bits() != x.to_bits()) {
                    values.push(x);
                    offsets[kept] = offsets[k];
                    kept += 1;
                }
            }
            offsets[kept] = offsets[keys.len()];
            offsets.truncate(kept + 1);
            (values, offsets)
        }
        ColumnData::Str(_) => unreachable!("string columns do not group"),
    }
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count when analyzed.
    pub rows: f64,
    /// Per-column stats keyed by *unqualified* column name.
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Analyze a full table with `buckets` histogram buckets per column.
    pub fn analyze(table: &Table, buckets: usize) -> Self {
        let mut columns = HashMap::new();
        for (i, f) in table.schema().fields().iter().enumerate() {
            columns.insert(
                f.name.clone(),
                ColumnStats::gather(table.column(i), None, buckets),
            );
        }
        TableStats { rows: table.nrows() as f64, columns }
    }

    /// Analyze from a random row sample of `sample_size` rows. Sampled
    /// statistics differ run to run — the seed is the "which sample did the
    /// auto-refresh take" knob of experiment E21.
    pub fn analyze_sampled(
        table: &Table,
        buckets: usize,
        sample_size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let ids = rqp_common::rng::sample_distinct(rng, table.nrows(), sample_size);
        let scale = if ids.is_empty() {
            0.0
        } else {
            table.nrows() as f64 / ids.len() as f64
        };
        let mut columns = HashMap::new();
        for (i, f) in table.schema().fields().iter().enumerate() {
            let mut cs = ColumnStats::gather(table.column(i), Some(&ids), buckets);
            // Extrapolate counts and NDV to table size (first-order).
            cs.count = table.nrows();
            cs.ndv = ((cs.ndv as f64) * scale.sqrt()).round().max(1.0) as usize;
            columns.insert(f.name.clone(), cs);
        }
        TableStats { rows: table.nrows() as f64, columns }
    }
}

/// Statistics for a set of tables. Each table's statistics sit behind an
/// `Arc`, so cloning a registry (the service hands every cold plan its own)
/// copies one pointer per table, not the histograms.
#[derive(Debug, Clone, Default)]
pub struct TableStatsRegistry {
    per_table: HashMap<String, Arc<TableStats>>,
}

impl TableStatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyze every table in a catalog.
    pub fn analyze_catalog(catalog: &Catalog, buckets: usize) -> Self {
        let mut reg = Self::new();
        for name in catalog.table_names() {
            let t = catalog.table(&name).expect("listed table exists");
            reg.insert(name, TableStats::analyze(&t, buckets));
        }
        reg
    }

    /// Insert or replace stats for one table.
    pub fn insert(&mut self, table: impl Into<String>, stats: TableStats) {
        self.per_table.insert(table.into(), Arc::new(stats));
    }

    /// Stats for a table.
    pub fn get(&self, table: &str) -> Option<&TableStats> {
        self.per_table.get(table).map(Arc::as_ref)
    }
}

/// The estimation interface the optimizer consults.
pub trait CardEstimator {
    /// Base cardinality of a table.
    fn table_rows(&self, table: &str) -> f64;

    /// Selectivity of a local predicate against one table.
    fn selectivity(&self, table: &str, pred: &Expr) -> f64;

    /// Selectivity of the equi-join `left_table.left_col = right_table.right_col`,
    /// as a fraction of the cross product.
    fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> f64;

    /// Estimated output rows of a filtered table.
    fn filtered_rows(&self, table: &str, pred: &Expr) -> f64 {
        self.table_rows(table) * self.selectivity(table, pred)
    }
}

fn unqualify(col: &str) -> &str {
    col.rsplit_once('.').map(|(_, c)| c).unwrap_or(col)
}

/// Histogram + independence estimator — the industry baseline.
#[derive(Debug, Clone)]
pub struct StatsEstimator {
    registry: Rc<TableStatsRegistry>,
}

impl StatsEstimator {
    /// Build over a stats registry.
    pub fn new(registry: Rc<TableStatsRegistry>) -> Self {
        StatsEstimator { registry }
    }

    /// Estimate a (possibly compound) predicate's selectivity against one
    /// table's column stats, assuming independence between conjuncts.
    fn expr_selectivity(&self, table: &str, e: &Expr) -> f64 {
        match e {
            Expr::And(parts) => parts
                .iter()
                .map(|p| self.expr_selectivity(table, p))
                .product(),
            Expr::Or(parts) => {
                // 1 - ∏(1 - s_i), independence.
                let miss: f64 = parts
                    .iter()
                    .map(|p| 1.0 - self.expr_selectivity(table, p))
                    .product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
            Expr::Not(inner) => {
                if let Some(sp) = SimplePred::from_expr(e) {
                    self.simple_selectivity(table, &sp)
                } else {
                    (1.0 - self.expr_selectivity(table, inner)).clamp(0.0, 1.0)
                }
            }
            other => match SimplePred::from_expr(other) {
                Some(sp) => self.simple_selectivity(table, &sp),
                None => DEFAULT_SELECTIVITY,
            },
        }
    }

    fn simple_selectivity(&self, table: &str, sp: &SimplePred) -> f64 {
        // Exact column name first (temp tables keep qualified field names),
        // then the unqualified suffix.
        self.registry
            .get(table)
            .and_then(|ts| {
                ts.columns
                    .get(sp.column())
                    .or_else(|| ts.columns.get(unqualify(sp.column())))
            })
            .map(|cs| cs.selectivity(sp))
            .unwrap_or(DEFAULT_SELECTIVITY)
    }
}

impl CardEstimator for StatsEstimator {
    fn table_rows(&self, table: &str) -> f64 {
        self.registry.get(table).map(|t| t.rows).unwrap_or(1000.0)
    }

    fn selectivity(&self, table: &str, pred: &Expr) -> f64 {
        self.expr_selectivity(table, pred).clamp(0.0, 1.0)
    }

    fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> f64 {
        let ndv = |t: &str, c: &str| -> f64 {
            self.registry
                .get(t)
                .and_then(|ts| {
                    ts.columns
                        .get(c)
                        .or_else(|| ts.columns.get(unqualify(c)))
                })
                .map(|cs| cs.ndv.max(1) as f64)
                .unwrap_or(100.0)
        };
        // Classic: 1 / max(ndv_l, ndv_r), containment assumption.
        1.0 / ndv(left_table, left_col).max(ndv(right_table, right_col))
    }
}

/// True-cardinality estimator — counts against the live data. Expensive;
/// used as the *ideal* reference, never on a competitive query path.
#[derive(Debug, Clone)]
pub struct OracleEstimator {
    catalog: Rc<Catalog>,
    /// Join selectivities counted so far, by unordered pair of
    /// `(table, column)`: the catalog behind an estimator never changes, and
    /// the planner asks for one pair once per partition it costs.
    joins: RefCell<HashMap<[(String, String); 2], f64>>,
}

impl OracleEstimator {
    /// Build over a catalog snapshot.
    pub fn new(catalog: Rc<Catalog>) -> Self {
        OracleEstimator { catalog, joins: RefCell::default() }
    }

    /// Matching row pairs of `l.lcol = r.rcol` over all pairs. Every count
    /// and product is an integer below 2^53, so the sum is exact in any
    /// order, and either argument order gives the same bits.
    fn count_join(&self, (l, lcol): (&str, &str), (r, rcol): (&str, &str)) -> f64 {
        let (Ok(lt), Ok(rt)) = (self.catalog.table(l), self.catalog.table(r)) else {
            return 0.0;
        };
        let (Ok(lc), Ok(rc)) = (lt.column_by_name(lcol), rt.column_by_name(rcol)) else {
            return 0.0;
        };
        if lt.nrows() == 0 || rt.nrows() == 0 {
            return 0.0;
        }
        let mut counts: HashMap<Value, (f64, f64)> = HashMap::new();
        for v in lc.iter_values() {
            counts.entry(v).or_default().0 += 1.0;
        }
        for v in rc.iter_values() {
            counts.entry(v).or_default().1 += 1.0;
        }
        let matches: f64 = counts.values().map(|&(a, b)| a * b).sum();
        matches / (lt.nrows() as f64 * rt.nrows() as f64)
    }
}

impl CardEstimator for OracleEstimator {
    fn table_rows(&self, table: &str) -> f64 {
        self.catalog
            .table(table)
            .map(|t| t.nrows() as f64)
            .unwrap_or(0.0)
    }

    fn selectivity(&self, table: &str, pred: &Expr) -> f64 {
        match self.catalog.table(table) {
            Ok(t) if t.nrows() > 0 => match t.count_where(pred) {
                Ok(n) => n as f64 / t.nrows() as f64,
                Err(_) => DEFAULT_SELECTIVITY,
            },
            _ => 0.0,
        }
    }

    fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> f64 {
        let side = |t: &str, c: &str| (t.to_owned(), c.to_owned());
        let mut key = [side(left_table, left_col), side(right_table, right_col)];
        key.sort();
        if let Some(&sel) = self.joins.borrow().get(&key) {
            return sel;
        }
        let sel = self.count_join((left_table, left_col), (right_table, right_col));
        self.joins.borrow_mut().insert(key, sel);
        sel
    }
}

/// Error-injecting estimator: wraps another estimator and multiplies chosen
/// tables' selectivity estimates by fixed factors. This is how experiments create the "7 orders
/// of magnitude" cardinality-estimate war stories on demand.
pub struct LyingEstimator {
    inner: Box<dyn CardEstimator>,
    /// Per-table selectivity factor.
    table_factors: HashMap<String, f64>,
}

impl LyingEstimator {
    /// Wrap `inner` with no lies (yet).
    pub fn new(inner: Box<dyn CardEstimator>) -> Self {
        LyingEstimator { inner, table_factors: HashMap::new() }
    }

    /// Multiply every selectivity estimate for `table` by `factor`.
    pub fn with_table_factor(mut self, table: impl Into<String>, factor: f64) -> Self {
        self.table_factors.insert(table.into(), factor);
        self
    }
}

impl CardEstimator for LyingEstimator {
    fn table_rows(&self, table: &str) -> f64 {
        self.inner.table_rows(table)
    }

    fn selectivity(&self, table: &str, pred: &Expr) -> f64 {
        let mut s = self.inner.selectivity(table, pred);
        if let Some(f) = self.table_factors.get(table) {
            s *= f;
        }
        s.clamp(0.0, 1.0)
    }

    fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> f64 {
        self.inner.join_selectivity(left_table, left_col, right_table, right_col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::rng::seeded;
    use rqp_common::{DataType, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("grp", DataType::Int),
            ("name", DataType::Str),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..1000i64 {
            t.append(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Str(format!("n{}", i % 5)),
            ]);
        }
        c.add_table(t);
        let schema_u = Schema::from_pairs(&[("grp", DataType::Int)]);
        let mut u = Table::new("u", schema_u);
        for i in 0..100i64 {
            u.append(vec![Value::Int(i % 10)]);
        }
        c.add_table(u);
        c
    }

    fn stats_estimator(c: &Catalog) -> StatsEstimator {
        StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(c, 32)))
    }

    #[test]
    fn range_estimate_accurate_on_uniform() {
        let c = catalog();
        let e = stats_estimator(&c);
        let sel = e.selectivity("t", &col("t.k").between(0i64, 249i64));
        assert!((sel - 0.25).abs() < 0.03, "got {sel}");
        assert_eq!(e.table_rows("t"), 1000.0);
    }

    #[test]
    fn eq_estimate_uses_ndv() {
        let c = catalog();
        let e = stats_estimator(&c);
        let sel = e.selectivity("t", &col("grp").eq(lit(3i64)));
        assert!((sel - 0.1).abs() < 0.03, "got {sel}");
        let sel = e.selectivity("t", &col("name").eq(lit("n1")));
        assert!((sel - 0.2).abs() < 0.05, "string eq via ndv, got {sel}");
    }

    #[test]
    fn independence_multiplies_conjuncts() {
        let c = catalog();
        let e = stats_estimator(&c);
        let p = col("k").between(0i64, 499i64).and(col("grp").eq(lit(3i64)));
        let sel = e.selectivity("t", &p);
        assert!((sel - 0.05).abs() < 0.02, "0.5 * 0.1 expected, got {sel}");
    }

    #[test]
    fn or_and_not() {
        let c = catalog();
        let e = stats_estimator(&c);
        let sel_or =
            e.selectivity("t", &col("grp").eq(lit(1i64)).or(col("grp").eq(lit(2i64))));
        assert!(sel_or > 0.15 && sel_or < 0.25, "got {sel_or}");
        let sel_not = e.selectivity("t", &col("grp").eq(lit(1i64)).not());
        assert!((sel_not - 0.9).abs() < 0.05, "got {sel_not}");
    }

    #[test]
    fn join_selectivity_containment() {
        let c = catalog();
        let e = stats_estimator(&c);
        let s = e.join_selectivity("t", "grp", "u", "grp");
        assert!((s - 0.1).abs() < 0.02, "1/max(10,10), got {s}");
    }

    #[test]
    fn oracle_matches_truth() {
        let c = Rc::new(catalog());
        let o = OracleEstimator::new(c);
        let sel = o.selectivity("t", &col("t.k").lt(lit(100i64)));
        assert!((sel - 0.1).abs() < 1e-9);
        // Exact join: each of the 10 groups: 100 × 10 pairs → 10_000 matches
        // over 100_000 cross = 0.1… wait: t has 100 rows per grp, u has 10.
        let js = o.join_selectivity("t", "grp", "u", "grp");
        assert!((js - 0.1).abs() < 1e-9, "got {js}");
    }

    /// A memoized join selectivity reads, in either argument order, the
    /// bits a fresh estimator counts.
    #[test]
    fn oracle_join_selectivity_is_memoized_bit_for_bit() {
        let c = Rc::new(catalog());
        let memo = OracleEstimator::new(Rc::clone(&c));
        for _ in 0..3 {
            for (a, b) in [
                (("t", "grp"), ("u", "grp")),
                (("u", "grp"), ("t", "grp")),
                (("t", "k"), ("u", "grp")),
            ] {
                let fresh =
                    OracleEstimator::new(Rc::clone(&c)).join_selectivity(a.0, a.1, b.0, b.1);
                let swapped =
                    OracleEstimator::new(Rc::clone(&c)).join_selectivity(b.0, b.1, a.0, a.1);
                let got = memo.join_selectivity(a.0, a.1, b.0, b.1);
                assert_eq!(got.to_bits(), fresh.to_bits(), "{a:?} = {b:?}");
                assert_eq!(got.to_bits(), swapped.to_bits(), "{b:?} = {a:?}");
            }
        }
        assert_eq!(memo.joins.borrow().len(), 2, "one entry per unordered pair");
    }

    #[test]
    fn cloned_registry_shares_each_tables_statistics() {
        let reg = TableStatsRegistry::analyze_catalog(&catalog(), 16);
        let copy = reg.clone();
        for table in ["t", "u"] {
            let (a, b) = (reg.get(table).unwrap(), copy.get(table).unwrap());
            assert!(std::ptr::eq(a, b), "{table}: a clone must not copy histograms");
        }
        assert!(copy.get("missing").is_none());
    }

    #[test]
    fn lying_estimator_injects_error() {
        let c = catalog();
        let base = stats_estimator(&c);
        let truth = base.selectivity("t", &col("grp").eq(lit(3i64)));
        let truth_u = base.selectivity("u", &col("grp").eq(lit(3i64)));
        let truth_join = base.join_selectivity("t", "grp", "u", "grp");
        let liar = LyingEstimator::new(Box::new(base)).with_table_factor("t", 0.001);
        let lied = liar.selectivity("t", &col("grp").eq(lit(3i64)));
        assert!(lied < truth / 100.0, "injected 1000x underestimate");
        // Another table's predicates and the join estimate pass through.
        assert_eq!(liar.selectivity("u", &col("grp").eq(lit(3i64))), truth_u);
        assert_eq!(liar.join_selectivity("t", "grp", "u", "grp"), truth_join);
    }

    #[test]
    fn sampled_stats_perturb_estimates() {
        let c = catalog();
        let t = c.table("t").unwrap();
        let mut rng1 = seeded(1);
        let mut rng2 = seeded(2);
        let s1 = TableStats::analyze_sampled(&t, 16, 100, &mut rng1);
        let s2 = TableStats::analyze_sampled(&t, 16, 100, &mut rng2);
        let mut r1 = TableStatsRegistry::new();
        r1.insert("t", s1);
        let mut r2 = TableStatsRegistry::new();
        r2.insert("t", s2);
        let e1 = StatsEstimator::new(Rc::new(r1));
        let e2 = StatsEstimator::new(Rc::new(r2));
        let p = col("k").between(100i64, 199i64);
        let a = e1.selectivity("t", &p);
        let b = e2.selectivity("t", &p);
        // Both roughly right…
        assert!((a - 0.1).abs() < 0.08 && (b - 0.1).abs() < 0.08);
        // …but different samples give different estimates (the E21 trigger).
        assert!((a - b).abs() > 1e-6, "different samples should differ");
    }

    #[test]
    fn missing_table_defaults() {
        let c = catalog();
        let e = stats_estimator(&c);
        assert_eq!(e.table_rows("nope"), 1000.0);
        assert_eq!(
            e.selectivity("nope", &col("x").eq(lit(1i64))),
            DEFAULT_SELECTIVITY
        );
    }

    #[test]
    fn gather_counts_bit_patterns_with_one_sort() {
        let vals = crate::histogram::tests::awkward_floats();
        let stats = ColumnStats::gather(&ColumnData::Float(vals.clone()), None, 8);
        // The definition the one-sort path must reproduce bit for bit.
        let mut bits: Vec<u64> = vals.iter().map(|f| f.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(stats.ndv, bits.len());
        assert!(bits.contains(&0.0f64.to_bits()) && bits.contains(&(-0.0f64).to_bits()));
        let fold = |f: fn(f64, f64) -> f64| vals.iter().copied().reduce(f).map(f64::to_bits);
        assert_eq!(stats.min.map(f64::to_bits), fold(f64::min));
        assert_eq!(stats.max.map(f64::to_bits), fold(f64::max));
        assert_eq!(stats.count, vals.len());
        let want = EquiDepthHistogram::build(&vals, 8);
        assert_eq!(format!("{:?}", stats.histogram.unwrap()), format!("{want:?}"));
        // A sampled gather sees only its row subset.
        let sub = ColumnStats::gather(&ColumnData::Float(vals), Some(&[0, 1, 7, 8]), 8);
        assert_eq!((sub.count, sub.ndv), (4, 2));
    }

    /// The comparison-sort reference `gather` replaced: every value widened
    /// to `f64`, one `total_cmp` sort, runs of equal bit patterns.
    fn gather_by_sort(col: &ColumnData, rows: Option<&[usize]>, buckets: usize) -> ColumnStats {
        let mut vals: Vec<f64> = match (col, rows) {
            (ColumnData::Int(v), None) => v.as_slice().iter().map(|x| x as f64).collect(),
            (ColumnData::Int(v), Some(ids)) => ids.iter().map(|&i| v.get(i) as f64).collect(),
            (ColumnData::Float(v), None) => v.clone(),
            (ColumnData::Float(v), Some(ids)) => ids.iter().map(|&i| v[i]).collect(),
            (ColumnData::Str(_), _) => unreachable!("numeric reference"),
        };
        let min = vals.iter().copied().reduce(f64::min);
        let max = vals.iter().copied().reduce(f64::max);
        vals.sort_unstable_by(f64::total_cmp);
        let ndv = vals.chunk_by(|a, b| a.to_bits() == b.to_bits()).count();
        let histogram =
            (!vals.is_empty()).then(|| crate::histogram::tests::from_sorted(&vals, buckets));
        ColumnStats { count: vals.len(), ndv, min, max, histogram }
    }

    /// Columns a change of sort could mishandle: integers at every stored
    /// width over dense and sparse spans (the counting and the sorting
    /// path), `i64` extremes and neighbours that share an `f64`, floats with
    /// NaN payloads, both zeros, infinities and subnormals, and empty and
    /// one-row columns.
    fn awkward_columns() -> Vec<ColumnData> {
        let mut rng = seeded(33);
        let mut cols: Vec<ColumnData> = vec![
            ColumnData::Int(Vec::new().into()),
            ColumnData::Float(Vec::new()),
            ColumnData::Int(vec![-7].into()),
            ColumnData::Float(vec![-0.0]),
            ColumnData::Int(vec![i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN + 1, -1].into()),
            ColumnData::Int((0..300).map(|k| i64::MAX - k % 40).collect()),
            ColumnData::Int((0..300).map(|k| (1 << 53) + k % 7).collect()),
        ];
        for n in [2, 37, 1000, 70_000] {
            for (lo, hi) in [
                (-100, 27),
                (-20_000, 30_000),
                (-5, 5 + n as i64 / 3),
                (i32::MIN as i64, i32::MAX as i64),
                (-(1 << 40), 1 << 40),
                (i64::MIN, i64::MAX),
            ] {
                cols.push(ColumnData::Int((0..n).map(|_| rng.gen_range(lo..=hi)).collect()));
            }
            let specials = crate::histogram::tests::awkward_floats();
            let floats = (0..n).map(|_| match rng.gen_range(0..6) {
                0 => specials[rng.gen_range(0..specials.len())],
                1 => f64::from_bits(rng.gen::<u64>() & 0x800f_ffff_ffff_ffff), // ±subnormal
                2 => f64::from_bits(rng.gen::<u64>() | 0x7ff0_0000_0000_0001), // NaN payloads
                3 => rng.gen_range(0..8) as f64 * 0.5 - 2.0,
                _ => rng.gen_range(-1e6..1e6),
            });
            cols.push(ColumnData::Float(floats.collect()));
        }
        cols
    }

    fn stats_bits(s: &ColumnStats) -> (usize, usize, Option<u64>, Option<u64>, Option<Vec<u64>>) {
        let h = s.histogram.as_ref().map(EquiDepthHistogram::bits);
        (s.count, s.ndv, s.min.map(f64::to_bits), s.max.map(f64::to_bits), h)
    }

    #[test]
    fn gather_matches_the_comparison_sort() {
        let mut rng = seeded(211);
        for col in awkward_columns() {
            let n = col.len();
            let ids: Vec<usize> = (0..n / 3).map(|_| rng.gen_range(0..n)).collect();
            for buckets in [1, 7, 32] {
                for rows in [None, Some(&ids[..])] {
                    let got = ColumnStats::gather(&col, rows, buckets);
                    let want = gather_by_sort(&col, rows, buckets);
                    let what = format!("{:?} n={n} sampled={}", col.data_type(), rows.is_some());
                    assert_eq!(stats_bits(&got), stats_bits(&want), "{what} buckets={buckets}");
                }
            }
        }
    }

    #[test]
    fn ndv_and_histogram_agree_on_zeros_and_nans() {
        let zeros = ColumnStats::gather(&ColumnData::Float(vec![-0.0, 0.0]), None, 4);
        let nans = ColumnStats::gather(&ColumnData::Float(vec![f64::NAN, f64::NAN]), None, 4);
        for (stats, ndv) in [(zeros, 2), (nans, 1)] {
            assert_eq!(stats.ndv, ndv);
            assert_eq!(stats.histogram.unwrap().distinct_total(), ndv as f64);
        }
    }

    #[test]
    fn string_columns_count_distinct_strings() {
        let col = ColumnData::Str(["b", "a", "b", "c"].map(String::from).to_vec());
        let all = ColumnStats::gather(&col, None, 8);
        assert_eq!((all.count, all.ndv, all.histogram.is_none()), (4, 3, true));
        let sub = ColumnStats::gather(&col, Some(&[0, 2]), 8);
        assert_eq!((sub.count, sub.ndv), (2, 1));
    }
}
