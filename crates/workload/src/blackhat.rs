//! "Black Hat Query Optimization" workloads (Lohman, Cole, Chaudhuri, Kuno).
//!
//! The break-out's trap list, made executable: data and queries engineered to
//! break the standard estimation assumptions —
//!
//! 1. **redundant pseudo-key** — a predicate fully implied by another (the
//!    "7 orders of magnitude" insurance-company war story);
//! 2. **within-table correlation** — two columns that always agree;
//! 3. **skewed equality** — a Zipf column where the per-bucket average is
//!    wrong at both the hot and the cold end;
//! 4. **skewed join keys** — a join whose containment-assumption estimate
//!    misses the hot-key blowup.
//!
//! Each [`Trap`] carries the query and enough metadata for the harness to
//! compare an estimator's guess against the true cardinality.

use crate::gen::{ColumnGen, TableBuilder};
use rqp_common::expr::{col, lit, Expr};
use rqp_common::rng::{child_seed, seeded};
use rqp_opt::QuerySpec;
use rqp_storage::Catalog;

/// One adversarial case.
pub struct Trap {
    /// Short identifier.
    pub name: &'static str,
    /// What assumption it attacks.
    pub description: &'static str,
    /// The query.
    pub spec: QuerySpec,
    /// Table whose output cardinality is the target (single-table traps),
    /// or `None` when the target is the join result.
    pub target_table: Option<&'static str>,
    /// The predicate under test (single-table traps).
    pub pred: Option<Expr>,
}

/// The adversarial database.
pub struct BlackHatDb {
    /// Catalog with `person` and `sales`.
    pub catalog: Catalog,
}

impl BlackHatDb {
    /// Generate with `rows` person rows (sales gets 4×).
    pub fn build(rows: usize, seed: u64) -> Self {
        let mut catalog = Catalog::new();
        let mut rng = seeded(child_seed(seed, "person"));
        // pseudo_key = lastname_id * 7 + 3: fully redundant with lastname_id.
        // twin_a / twin_b: perfectly correlated range columns.
        let person = TableBuilder::new("person")
            .column("id", ColumnGen::Sequential)
            .column("lastname_id", ColumnGen::UniformInt { lo: 0, hi: 99 })
            .column("pseudo_key", ColumnGen::Derived { source: 1, f: Box::new(|v| v * 7 + 3) })
            .column("twin_a", ColumnGen::UniformInt { lo: 0, hi: 99 })
            .column("twin_b", ColumnGen::Derived { source: 3, f: Box::new(|v| v) })
            .column("zipf", ColumnGen::ZipfInt { n: 1000, theta: 1.0 })
            .build(rows, &mut rng);
        catalog.add_table(person);

        let mut rng = seeded(child_seed(seed, "sales"));
        let sales = TableBuilder::new("sales")
            .column("id", ColumnGen::Sequential)
            .column("person_zipf", ColumnGen::ZipfInt { n: 1000, theta: 1.0 })
            .column("amount", ColumnGen::UniformFloat { lo: 0.0, hi: 1000.0 })
            .build(rows * 4, &mut rng);
        catalog.add_table(sales);
        BlackHatDb { catalog }
    }

    /// The trap list.
    pub fn traps(&self) -> Vec<Trap> {
        let mut out = Vec::new();

        // 1. Redundant pseudo-key: lastname_id = 42 AND pseudo_key = 297.
        let pred = col("person.lastname_id")
            .eq(lit(42i64))
            .and(col("person.pseudo_key").eq(lit(42i64 * 7 + 3)));
        out.push(Trap {
            name: "redundant_pseudo_key",
            description: "predicate implied by another; independence multiplies \
                          selectivities and underestimates by ~NDV(pseudo_key)",
            spec: QuerySpec::new().table("person").filter("person", pred.clone()),
            target_table: Some("person"),
            pred: Some(pred),
        });

        // 2. Correlated twin columns.
        let pred = col("person.twin_a")
            .lt(lit(10i64))
            .and(col("person.twin_b").lt(lit(10i64)));
        out.push(Trap {
            name: "correlated_range",
            description: "two identical columns; independence squares a 10% \
                          selectivity into 1%",
            spec: QuerySpec::new().table("person").filter("person", pred.clone()),
            target_table: Some("person"),
            pred: Some(pred),
        });

        // 3a. Skewed equality, hot key.
        let pred = col("person.zipf").eq(lit(1i64));
        out.push(Trap {
            name: "skew_eq_hot",
            description: "Zipf hot key: per-bucket average underestimates the head",
            spec: QuerySpec::new().table("person").filter("person", pred.clone()),
            target_table: Some("person"),
            pred: Some(pred),
        });

        // 3b. Skewed equality, cold key.
        let pred = col("person.zipf").eq(lit(997i64));
        out.push(Trap {
            name: "skew_eq_cold",
            description: "Zipf cold key: per-bucket average overestimates the tail",
            spec: QuerySpec::new().table("person").filter("person", pred.clone()),
            target_table: Some("person"),
            pred: Some(pred),
        });

        // 4. Skewed join keys: person.zipf = sales.person_zipf.
        out.push(Trap {
            name: "skewed_join",
            description: "Zipf ⋈ Zipf: containment assumption misses the \
                          hot-key quadratic blowup",
            spec: QuerySpec::new().join("person", "zipf", "sales", "person_zipf"),
            target_table: None,
            pred: None,
        });

        out
    }

    /// True output cardinality of a trap.
    pub fn true_cardinality(&self, trap: &Trap) -> usize {
        match (&trap.target_table, &trap.pred) {
            (Some(t), Some(p)) => self
                .catalog
                .table(t)
                .expect("trap table exists")
                .count_where(p)
                .expect("trap predicate binds"),
            _ => {
                // Join trap: exact key-count convolution.
                let person = self.catalog.table("person").expect("person");
                let sales = self.catalog.table("sales").expect("sales");
                let mut counts = std::collections::HashMap::new();
                for v in person.column_by_name("zipf").unwrap().as_int_slice().unwrap().iter() {
                    counts.entry(v).or_insert((0usize, 0usize)).0 += 1;
                }
                for v in sales
                    .column_by_name("person_zipf")
                    .unwrap()
                    .as_int_slice()
                    .unwrap()
                    .iter()
                {
                    counts.entry(v).or_insert((0, 0)).1 += 1;
                }
                counts.values().map(|&(a, b)| a * b).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_stats::{CardEstimator, StatsEstimator, TableStatsRegistry};
    use std::rc::Rc;

    fn db() -> BlackHatDb {
        BlackHatDb::build(5000, 13)
    }

    fn estimator(db: &BlackHatDb) -> StatsEstimator {
        StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32)))
    }

    #[test]
    fn trap_list_complete() {
        let db = db();
        let traps = db.traps();
        assert_eq!(traps.len(), 5);
        for t in &traps {
            assert!(!t.name.is_empty());
            t.spec.validate().unwrap();
        }
    }

    #[test]
    fn redundant_pseudo_key_underestimates_massively() {
        let db = db();
        let est = estimator(&db);
        let trap = &db.traps()[0];
        let truth = db.true_cardinality(trap) as f64;
        let guess = est.filtered_rows("person", trap.pred.as_ref().unwrap());
        // Truth ≈ rows/100 ≈ 50; independence guess ≈ truth / NDV(pseudo).
        assert!(truth >= 10.0);
        let q = rqp_stats::q_error(guess, truth);
        assert!(q > 20.0, "expected a large underestimate, q-error {q}");
        assert!(guess < truth, "direction: underestimate");
    }

    #[test]
    fn correlated_range_underestimates() {
        let db = db();
        let est = estimator(&db);
        let trap = &db.traps()[1];
        let truth = db.true_cardinality(trap) as f64;
        let guess = est.filtered_rows("person", trap.pred.as_ref().unwrap());
        // Truth ≈ 10%; independence ≈ 1%.
        let q = rqp_stats::q_error(guess, truth);
        assert!(q > 5.0, "q-error {q}");
    }

    #[test]
    fn skew_traps_err_in_opposite_directions() {
        let db = db();
        let est = estimator(&db);
        let traps = db.traps();
        let hot_truth = db.true_cardinality(&traps[2]) as f64;
        let hot_guess = est.filtered_rows("person", traps[2].pred.as_ref().unwrap());
        let cold_truth = db.true_cardinality(&traps[3]) as f64;
        let cold_guess = est.filtered_rows("person", traps[3].pred.as_ref().unwrap());
        assert!(hot_truth > 300.0, "zipf head is hot: {hot_truth}");
        // A fine equi-depth histogram largely resolves the head (that is the
        // point of quantile buckets); the trap bites coarse/sampled stats.
        assert!(hot_guess > 50.0, "head not absurdly underestimated: {hot_guess}");
        assert!(cold_truth <= 5.0, "tail is cold: {cold_truth}");
        assert!(cold_guess >= cold_truth, "tail not underestimated");
    }

    #[test]
    fn skewed_join_blows_past_containment_estimate() {
        let db = db();
        let est = estimator(&db);
        let trap = &db.traps()[4];
        let truth = db.true_cardinality(trap) as f64;
        let guess = est.table_rows("person")
            * est.table_rows("sales")
            * est.join_selectivity("person", "zipf", "sales", "person_zipf");
        assert!(
            truth > guess * 3.0,
            "hot-key blowup: truth {truth}, containment guess {guess}"
        );
    }
}
