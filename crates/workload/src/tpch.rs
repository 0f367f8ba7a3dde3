//! A TPC-H-like analytic schema and parameterized query templates.
//!
//! The Dagstuhl break-outs build most of their proposed benchmarks on TPC-H
//! (advisor robustness, FMT/FPT, equivalent-query tests, the smoothness
//! sweep's "simple parameterized range queries"). This is a laptop-scale
//! analogue with the same relational shape: `customer → orders → lineitem`,
//! plus `part` and `supplier`, with controllable size and skew.
//!
//! Row-count ratios follow TPC-H (1 : 10 : 40 : 1.3 : 0.07 relative to
//! customer); dates are integer "day numbers" in `0..2557` (7 years, like
//! TPC-H's 1992–1998).

use crate::gen::{ColumnGen, TableBuilder};
use rand::rngs::StdRng;
use rqp_common::expr::{col, lit};
use rqp_common::rng::{child_seed, seeded};
use rqp_exec::{AggFunc, AggSpec};
use rqp_opt::QuerySpec;
use rqp_storage::Catalog;

/// Number of day values in the date domain.
pub const DATE_DOMAIN: i64 = 2557;

/// A generated TPC-H-like database.
pub struct TpchDb {
    /// The catalog holding all five tables (and indexes if requested).
    pub catalog: Catalog,
    /// Rows in `lineitem` (the scale anchor).
    pub lineitem_rows: usize,
}

/// Build parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchParams {
    /// `lineitem` row count; other tables scale proportionally.
    pub lineitem_rows: usize,
    /// Zipf exponent of `lineitem.orderkey` references (0 = uniform; > 0
    /// makes some orders huge — the skewed-join-key hazard).
    pub orderkey_skew: f64,
    /// Create the standard index set.
    pub with_indexes: bool,
}

impl Default for TpchParams {
    fn default() -> Self {
        TpchParams { lineitem_rows: 10_000, orderkey_skew: 0.0, with_indexes: true }
    }
}

impl TpchDb {
    /// Generate the database deterministically from `seed`.
    pub fn build(params: TpchParams, seed: u64) -> Self {
        let li = params.lineitem_rows.max(40);
        let orders_n = (li / 4).max(10);
        let cust_n = (li / 40).max(5);
        let part_n = (li / 30).max(5);
        let supp_n = (li / 500).max(2);

        let mut catalog = Catalog::new();

        let mut rng = seeded(child_seed(seed, "customer"));
        let customer = TableBuilder::new("customer")
            .column("custkey", ColumnGen::Sequential)
            .column("nationkey", ColumnGen::UniformInt { lo: 0, hi: 24 })
            .column("mktsegment", ColumnGen::UniformInt { lo: 0, hi: 4 })
            .column("acctbal", ColumnGen::UniformFloat { lo: -999.0, hi: 9999.0 })
            .build(cust_n, &mut rng);
        catalog.add_table(customer);

        let mut rng = seeded(child_seed(seed, "orders"));
        let orders = TableBuilder::new("orders")
            .column("orderkey", ColumnGen::Sequential)
            .column("custkey", ColumnGen::UniformInt { lo: 0, hi: cust_n as i64 - 1 })
            .column("orderdate", ColumnGen::UniformInt { lo: 0, hi: DATE_DOMAIN - 1 })
            .column("totalprice", ColumnGen::UniformFloat { lo: 100.0, hi: 100_000.0 })
            .build(orders_n, &mut rng);
        catalog.add_table(orders);

        let mut rng = seeded(child_seed(seed, "lineitem"));
        let orderkey_gen = if params.orderkey_skew > 0.0 {
            ColumnGen::ZipfInt { n: orders_n, theta: params.orderkey_skew }
        } else {
            ColumnGen::UniformInt { lo: 0, hi: orders_n as i64 - 1 }
        };
        let lineitem = TableBuilder::new("lineitem")
            .column("orderkey", orderkey_gen)
            .column("partkey", ColumnGen::UniformInt { lo: 0, hi: part_n as i64 - 1 })
            .column("suppkey", ColumnGen::UniformInt { lo: 0, hi: supp_n as i64 - 1 })
            .column("quantity", ColumnGen::UniformInt { lo: 1, hi: 50 })
            .column("extendedprice", ColumnGen::UniformFloat { lo: 900.0, hi: 105_000.0 })
            .column("discount", ColumnGen::UniformFloat { lo: 0.0, hi: 0.1 })
            .column("shipdate", ColumnGen::UniformInt { lo: 0, hi: DATE_DOMAIN - 1 })
            .column("returnflag", ColumnGen::UniformInt { lo: 0, hi: 2 })
            .build(li, &mut rng);
        catalog.add_table(lineitem);

        let mut rng = seeded(child_seed(seed, "part"));
        let part = TableBuilder::new("part")
            .column("partkey", ColumnGen::Sequential)
            .column("size", ColumnGen::UniformInt { lo: 1, hi: 50 })
            .column("brand", ColumnGen::UniformInt { lo: 0, hi: 24 })
            .build(part_n, &mut rng);
        catalog.add_table(part);

        let mut rng = seeded(child_seed(seed, "supplier"));
        let supplier = TableBuilder::new("supplier")
            .column("suppkey", ColumnGen::Sequential)
            .column("nationkey", ColumnGen::UniformInt { lo: 0, hi: 24 })
            .build(supp_n, &mut rng);
        catalog.add_table(supplier);

        if params.with_indexes {
            catalog.create_index("ix_customer_custkey", "customer", &["custkey"]).unwrap();
            catalog.create_index("ix_orders_orderkey", "orders", &["orderkey"]).unwrap();
            catalog.create_index("ix_orders_custkey", "orders", &["custkey"]).unwrap();
            catalog.create_index("ix_lineitem_orderkey", "lineitem", &["orderkey"]).unwrap();
            catalog.create_index("ix_lineitem_shipdate", "lineitem", &["shipdate"]).unwrap();
            catalog.create_index("ix_part_partkey", "part", &["partkey"]).unwrap();
            catalog.create_index("ix_supplier_suppkey", "supplier", &["suppkey"]).unwrap();
        }

        TpchDb { catalog, lineitem_rows: li }
    }

    /// Q1-like: pricing summary over recently shipped lineitems.
    ///
    /// `delta_days` plays TPC-H's `[DELTA]`: ship date cutoff from the end of
    /// the domain.
    pub fn q1(&self, delta_days: i64) -> QuerySpec {
        QuerySpec::new()
            .table("lineitem")
            .filter(
                "lineitem",
                col("lineitem.shipdate").le(lit(DATE_DOMAIN - 1 - delta_days)),
            )
            .aggregate(
                &["lineitem.returnflag"],
                vec![
                    AggSpec::count_star("count_order"),
                    AggSpec::on(AggFunc::Sum, "lineitem.quantity", "sum_qty"),
                    AggSpec::on(AggFunc::Sum, "lineitem.extendedprice", "sum_base_price"),
                    AggSpec::on(AggFunc::Avg, "lineitem.discount", "avg_disc"),
                ],
            )
            .order(&["lineitem.returnflag"])
    }

    /// Q3-like: shipping priority — 3-way join with date window.
    pub fn q3(&self, segment: i64, date: i64) -> QuerySpec {
        QuerySpec::new()
            .join("customer", "custkey", "orders", "custkey")
            .join("orders", "orderkey", "lineitem", "orderkey")
            .filter("customer", col("customer.mktsegment").eq(lit(segment)))
            .filter("orders", col("orders.orderdate").lt(lit(date)))
            .filter("lineitem", col("lineitem.shipdate").gt(lit(date)))
            .aggregate(
                &["orders.orderkey"],
                vec![AggSpec::on(AggFunc::Sum, "lineitem.extendedprice", "revenue")],
            )
            .order(&["revenue"])
    }

    /// Q5-like: volume by supplier nation — 4-way join.
    pub fn q5(&self, nation_lo: i64, nation_hi: i64, date_lo: i64) -> QuerySpec {
        QuerySpec::new()
            .join("customer", "custkey", "orders", "custkey")
            .join("orders", "orderkey", "lineitem", "orderkey")
            .join("lineitem", "suppkey", "supplier", "suppkey")
            .filter(
                "supplier",
                col("supplier.nationkey").between(nation_lo, nation_hi),
            )
            .filter(
                "orders",
                col("orders.orderdate").between(date_lo, date_lo + 365),
            )
            .aggregate(
                &["supplier.nationkey"],
                vec![AggSpec::on(AggFunc::Sum, "lineitem.extendedprice", "revenue")],
            )
            .order(&["supplier.nationkey"])
    }

    /// Q6-like: forecast revenue change — single-table multi-predicate filter.
    pub fn q6(&self, date_lo: i64, discount_mid: f64, quantity_max: i64) -> QuerySpec {
        QuerySpec::new()
            .table("lineitem")
            .filter(
                "lineitem",
                col("lineitem.shipdate")
                    .between(date_lo, date_lo + 364)
                    .and(col("lineitem.discount").between(discount_mid - 0.01, discount_mid + 0.01))
                    .and(col("lineitem.quantity").lt(lit(quantity_max))),
            )
            .aggregate(
                &[],
                vec![
                    AggSpec::on(AggFunc::Sum, "lineitem.extendedprice", "revenue"),
                    AggSpec::count_star("n"),
                ],
            )
    }

    /// The smoothness-sweep query: `SELECT count(*) FROM lineitem WHERE
    /// shipdate BETWEEN p AND p + width`, with `width` chosen so the true
    /// selectivity is `sel`.
    pub fn range_query(&self, sel: f64) -> QuerySpec {
        let width = ((DATE_DOMAIN as f64) * sel.clamp(0.0, 1.0)).round() as i64;
        QuerySpec::new()
            .table("lineitem")
            .filter(
                "lineitem",
                col("lineitem.shipdate").between(0i64, (width - 1).max(0)),
            )
            .aggregate(&[], vec![AggSpec::count_star("n")])
    }

    /// A deterministic mixed bag of analytic queries (for advisor / FMT /
    /// tractor drivers); parameters drawn from `rng`.
    pub fn analytic_mix(&self, count: usize, rng: &mut StdRng) -> Vec<QuerySpec> {
        use rand::Rng;
        (0..count)
            .map(|i| match i % 4 {
                0 => self.q1(rng.gen_range(0..120)),
                1 => self.q3(rng.gen_range(0..5), rng.gen_range(500..2000)),
                2 => self.q5(
                    rng.gen_range(0..20),
                    rng.gen_range(20..25),
                    rng.gen_range(0..1500),
                ),
                _ => self.q6(
                    rng.gen_range(0..2000),
                    rng.gen_range(0.02..0.08),
                    rng.gen_range(24..50),
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_exec::ExecContext;
    use rqp_opt::{plan, PlannerConfig};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use std::rc::Rc;

    fn db() -> TpchDb {
        TpchDb::build(TpchParams { lineitem_rows: 4000, ..Default::default() }, 42)
    }

    fn run(db: &TpchDb, spec: &QuerySpec) -> Vec<rqp_common::Row> {
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
        let est = StatsEstimator::new(reg);
        let p = plan(spec, &db.catalog, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        p.build(&db.catalog, &ctx, None).unwrap().run()
    }

    #[test]
    fn schema_ratios() {
        let db = db();
        let li = db.catalog.table("lineitem").unwrap().nrows();
        let ord = db.catalog.table("orders").unwrap().nrows();
        let cust = db.catalog.table("customer").unwrap().nrows();
        assert_eq!(li, 4000);
        assert_eq!(ord, 1000);
        assert_eq!(cust, 100);
        for (table, key) in [
            ("customer", "custkey"),
            ("orders", "orderkey"),
            ("orders", "custkey"),
            ("lineitem", "orderkey"),
            ("lineitem", "shipdate"),
            ("part", "partkey"),
            ("supplier", "suppkey"),
        ] {
            assert!(db.catalog.index_on(table, key).is_some(), "index on {table}.{key}");
        }
    }

    #[test]
    fn q1_runs_and_groups_by_returnflag() {
        let db = db();
        let rows = run(&db, &db.q1(90));
        assert_eq!(rows.len(), 3, "returnflag ∈ {{0,1,2}}");
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert!(total > 3000, "most lineitems pass a 90-day cutoff");
    }

    #[test]
    fn q3_and_q5_run() {
        let db = db();
        let rows = run(&db, &db.q3(2, 1200));
        assert!(!rows.is_empty());
        let rows = run(&db, &db.q5(0, 24, 0));
        assert!(!rows.is_empty());
    }

    #[test]
    fn q6_counts_match_filter() {
        let db = db();
        let rows = run(&db, &db.q6(0, 0.05, 25));
        assert_eq!(rows.len(), 1);
        let n = rows[0][1].as_int().unwrap();
        let truth = db
            .catalog
            .table("lineitem")
            .unwrap()
            .count_where(
                &col("lineitem.shipdate")
                    .between(0i64, 364i64)
                    .and(col("lineitem.discount").between(0.04, 0.06))
                    .and(col("lineitem.quantity").lt(lit(25i64))),
            )
            .unwrap();
        assert_eq!(n as usize, truth);
    }

    #[test]
    fn range_query_selectivity_controls_count() {
        let db = db();
        let quarter = run(&db, &db.range_query(0.25));
        let half = run(&db, &db.range_query(0.5));
        let n25 = quarter[0][0].as_int().unwrap() as f64 / 4000.0;
        let n50 = half[0][0].as_int().unwrap() as f64 / 4000.0;
        assert!((n25 - 0.25).abs() < 0.05, "got {n25}");
        assert!((n50 - 0.5).abs() < 0.05, "got {n50}");
    }

    #[test]
    fn skewed_orderkeys() {
        let db = TpchDb::build(
            TpchParams { lineitem_rows: 4000, orderkey_skew: 1.0, ..Default::default() },
            42,
        );
        let li = db.catalog.table("lineitem").unwrap();
        let keys = li.column_by_name("orderkey").unwrap().as_int_slice().unwrap();
        let top = keys.iter().filter(|&k| k == 1).count();
        assert!(top > 200, "skew should concentrate on rank 1, got {top}");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = TpchDb::build(TpchParams { lineitem_rows: 1000, ..Default::default() }, 7);
        let b = TpchDb::build(TpchParams { lineitem_rows: 1000, ..Default::default() }, 7);
        let ka = a.catalog.table("lineitem").unwrap();
        let kb = b.catalog.table("lineitem").unwrap();
        assert_eq!(
            ka.column_by_name("shipdate").unwrap().as_int_slice().unwrap(),
            kb.column_by_name("shipdate").unwrap().as_int_slice().unwrap()
        );
    }

    #[test]
    fn analytic_mix_is_varied() {
        let db = db();
        let mut rng = rqp_common::rng::seeded(5);
        let mix = db.analytic_mix(8, &mut rng);
        assert_eq!(mix.len(), 8);
        let single = mix.iter().filter(|q| q.tables.len() == 1).count();
        let multi = mix.iter().filter(|q| q.tables.len() > 1).count();
        assert!(single >= 2 && multi >= 2);
    }
}
