//! A star schema with controllable correlation and skew.
//!
//! Fact table + three dimensions, the setting of the "Black Hat Query
//! Optimization" list ("star schema skew across tables", "correlation across
//! tables") and of the plan-diagram experiments.

use crate::gen::{ColumnGen, TableBuilder};
use rqp_common::expr::{col, lit};
use rqp_common::rng::{child_seed, seeded};
use rqp_exec::{AggFunc, AggSpec};
use rqp_opt::QuerySpec;
use rqp_storage::Catalog;

/// Build parameters for the star schema.
#[derive(Debug, Clone, Copy)]
pub struct StarParams {
    /// Fact rows.
    pub fact_rows: usize,
    /// Rows per dimension (d1, d2, d3).
    pub dim_rows: [usize; 3],
    /// Zipf exponent of the fact's foreign keys (0 = uniform).
    pub fk_skew: f64,
    /// If true, `fact.fk2` is derived from `fact.fk1` (perfect cross-column
    /// correlation — the independence-assumption trap).
    pub correlated_fks: bool,
}

impl Default for StarParams {
    fn default() -> Self {
        StarParams {
            fact_rows: 10_000,
            dim_rows: [100, 50, 20],
            fk_skew: 0.0,
            correlated_fks: false,
        }
    }
}

/// A generated star-schema database.
pub struct StarDb {
    /// Catalog with `fact`, `d1`, `d2`, `d3` (+ key indexes).
    pub catalog: Catalog,
    /// Parameters used.
    pub params: StarParams,
}

impl StarDb {
    /// Generate deterministically from `seed`.
    pub fn build(params: StarParams, seed: u64) -> Self {
        let mut catalog = Catalog::new();
        let [n1, n2, n3] = params.dim_rows;

        let fk_gen = |n: usize| -> ColumnGen {
            if params.fk_skew > 0.0 {
                ColumnGen::ZipfInt { n, theta: params.fk_skew }
            } else {
                ColumnGen::UniformInt { lo: 0, hi: n as i64 - 1 }
            }
        };

        let mut rng = seeded(child_seed(seed, "fact"));
        let mut builder = TableBuilder::new("fact")
            .column("fk1", fk_gen(n1));
        if params.correlated_fks {
            let n2i = n2 as i64;
            builder = builder.column(
                "fk2",
                ColumnGen::Derived { source: 0, f: Box::new(move |v| v % n2i) },
            );
        } else {
            builder = builder.column("fk2", fk_gen(n2));
        }
        let fact = builder
            .column("fk3", fk_gen(n3))
            .column("measure", ColumnGen::UniformFloat { lo: 0.0, hi: 1000.0 })
            .column("flag", ColumnGen::UniformInt { lo: 0, hi: 9 })
            .build(params.fact_rows, &mut rng);
        catalog.add_table(fact);

        for (name, n) in [("d1", n1), ("d2", n2), ("d3", n3)] {
            let mut rng = seeded(child_seed(seed, name));
            let dim = TableBuilder::new(name)
                .column("key", ColumnGen::Sequential)
                .column("attr", ColumnGen::UniformInt { lo: 0, hi: 9 })
                .column("band", ColumnGen::Derived {
                    source: 0,
                    f: Box::new(move |v| v * 10 / (n as i64).max(1)),
                })
                .build(n, &mut rng);
            catalog.add_table(dim);
            catalog
                .create_index(format!("ix_{name}_key"), name, &["key"])
                .expect("dimension key index");
        }

        StarDb { catalog, params }
    }

    /// A star join with per-dimension attribute filters (selectivity knobs
    /// `attr < k` with k ∈ 0..=10 → selectivity k/10 per dimension).
    pub fn star_query(&self, k1: i64, k2: i64, k3: i64) -> QuerySpec {
        let mut q = QuerySpec::new()
            .join("fact", "fk1", "d1", "key")
            .join("fact", "fk2", "d2", "key")
            .join("fact", "fk3", "d3", "key");
        for (t, k) in [("d1", k1), ("d2", k2), ("d3", k3)] {
            if k < 10 {
                q = q.filter(t, col(format!("{t}.attr")).lt(lit(k)));
            }
        }
        q.aggregate(
            &[],
            vec![
                AggSpec::count_star("n"),
                AggSpec::on(AggFunc::Sum, "fact.measure", "total"),
            ],
        )
    }

    /// Two-dimensional join query for plan diagrams: filters on `fact` and
    /// `d1` whose selectivities the diagram overrides, plus a third table so
    /// the join-order space is non-trivial (the Picasso-style setting).
    pub fn diagram_query(&self) -> QuerySpec {
        QuerySpec::new()
            .join("fact", "fk1", "d1", "key")
            .join("fact", "fk2", "d2", "key")
            .filter("fact", col("fact.flag").lt(lit(5i64)))
            .filter("d1", col("d1.attr").lt(lit(5i64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_exec::ExecContext;
    use rqp_opt::{plan, PlannerConfig};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use std::rc::Rc;

    #[test]
    fn builds_and_queries() {
        let db = StarDb::build(StarParams { fact_rows: 2000, ..Default::default() }, 11);
        assert_eq!(db.catalog.table("fact").unwrap().nrows(), 2000);
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 16));
        let est = StatsEstimator::new(reg);
        let spec = db.star_query(5, 10, 10);
        let p = plan(&spec, &db.catalog, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let rows = p.build(&db.catalog, &ctx, None).unwrap().run();
        assert_eq!(rows.len(), 1);
        let n = rows[0][0].as_int().unwrap() as f64;
        assert!((n / 2000.0 - 0.5).abs() < 0.1, "d1 filter halves the fact");
    }

    #[test]
    fn correlated_fks_are_dependent() {
        let db = StarDb::build(
            StarParams { fact_rows: 1000, correlated_fks: true, ..Default::default() },
            3,
        );
        let fact = db.catalog.table("fact").unwrap();
        let fk1 = fact.column_by_name("fk1").unwrap().as_int_slice().unwrap();
        let fk2 = fact.column_by_name("fk2").unwrap().as_int_slice().unwrap();
        for (a, b) in fk1.iter().zip(fk2.iter()) {
            assert_eq!(b, a % 50);
        }
    }

    #[test]
    fn skewed_fks() {
        let db = StarDb::build(
            StarParams { fact_rows: 5000, fk_skew: 1.0, ..Default::default() },
            3,
        );
        let fact = db.catalog.table("fact").unwrap();
        let fk1 = fact.column_by_name("fk1").unwrap().as_int_slice().unwrap();
        let ones = fk1.iter().filter(|&v| v == 1).count();
        assert!(ones > 500, "skewed fk, got {ones}");
    }

    #[test]
    fn diagram_query_shape() {
        let db = StarDb::build(StarParams::default(), 1);
        let q = db.diagram_query();
        assert_eq!(q.tables.len(), 3);
        assert!(q.local_preds.contains_key("fact") && q.local_preds.contains_key("d1"));
    }
}
