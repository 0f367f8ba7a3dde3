//! The "automatic disaster": statistics refresh flips plans.
//!
//! From the report's motivation: *"insertion of a few new rows into a large
//! table might trigger an automatic update of statistics, which uses a
//! different sample than the prior one, which leads to slightly different
//! histograms, which results in slightly different cardinality or cost
//! estimates, which leads to an entirely different query execution plan,
//! which might actually perform much worse than the prior one."*
//!
//! The simulation: per epoch, append a small fraction of rows, re-ANALYZE
//! from a *fresh random sample*, re-optimize the workload, execute, and
//! record plan fingerprints and costs. The mitigation under test is **plan
//! pinning with a verification check** (à la Oracle SPM / plan management):
//! keep the previous plan unless the new plan's estimated cost is better by
//! a margin *under both old and new estimates*.

use rand::Rng;
use rqp_common::rng::{child_seed, seeded};
use rqp_common::{Result, Value};
use rqp_exec::ExecContext;
use rqp_metrics::PlanStability;
use rqp_opt::{plan as plan_query, CostModel, PhysicalPlan, PlannerConfig, QuerySpec};
use rqp_stats::{StatsEstimator, TableStats, TableStatsRegistry};
use rqp_storage::Catalog;
use std::rc::Rc;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct RefreshConfig {
    /// Epochs (stats refreshes) to simulate.
    pub epochs: usize,
    /// Fraction of the table appended per epoch (e.g. 0.01).
    pub insert_fraction: f64,
    /// Sample size for each ANALYZE.
    pub sample_size: usize,
    /// Histogram buckets.
    pub buckets: usize,
    /// Enable plan pinning with verification.
    pub pin_plans: bool,
    /// A pinned plan is replaced only if the new plan is at least this much
    /// cheaper (relative), verified under both estimate sets.
    pub replace_margin: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            epochs: 8,
            insert_fraction: 0.01,
            sample_size: 200,
            buckets: 8,
            pin_plans: false,
            replace_margin: 0.2,
            seed: 1234,
        }
    }
}

/// The result: one stability track per workload query.
#[derive(Debug)]
pub struct RefreshReport {
    /// Per-query stability tracks.
    pub per_query: Vec<PlanStability>,
}

impl RefreshReport {
    /// Total plan flips across the workload.
    pub fn total_flips(&self) -> usize {
        self.per_query.iter().map(|s| s.flips()).sum()
    }

    /// Worst flip regression across the workload.
    pub fn worst_regression(&self) -> f64 {
        self.per_query
            .iter()
            .map(|s| s.worst_regression())
            .fold(1.0, f64::max)
    }
}

/// Run the experiment on `grow_table` within `catalog`.
pub fn stats_refresh_experiment(
    catalog: &Catalog,
    grow_table: &str,
    workload: &[QuerySpec],
    cfg: RefreshConfig,
) -> Result<RefreshReport> {
    let mut catalog = catalog.clone();
    let mut rng = seeded(child_seed(cfg.seed, "refresh"));
    let mut per_query: Vec<PlanStability> = vec![PlanStability::new(); workload.len()];
    let mut pinned: Vec<Option<PhysicalPlan>> = vec![None; workload.len()];
    let cm = CostModel::default();

    for _epoch in 0..cfg.epochs {
        // 1. "a few new rows".
        grow(&mut catalog, grow_table, cfg.insert_fraction, &mut rng)?;

        // 2. Auto-ANALYZE from a fresh sample.
        let mut registry = TableStatsRegistry::new();
        for name in catalog.table_names() {
            let t = catalog.table(&name)?;
            let stats = if name == grow_table {
                TableStats::analyze_sampled(&t, cfg.buckets, cfg.sample_size, &mut rng)
            } else {
                TableStats::analyze(&t, cfg.buckets)
            };
            registry.insert(name, stats);
        }
        let est = StatsEstimator::new(Rc::new(registry));

        // 3. Re-optimize + execute each query.
        for (qi, spec) in workload.iter().enumerate() {
            let fresh = plan_query(spec, &catalog, &est, PlannerConfig::default())?;
            let chosen = if cfg.pin_plans {
                match &pinned[qi] {
                    Some(old) => {
                        let old_cost_new_est = old.reestimate(&est, &cm).1;
                        let fresh_cost_new_est = fresh.reestimate(&est, &cm).1;
                        // Replace only on a verified, significant win.
                        if fresh_cost_new_est < old_cost_new_est * (1.0 - cfg.replace_margin)
                        {
                            fresh
                        } else {
                            old.clone()
                        }
                    }
                    None => fresh,
                }
            } else {
                fresh
            };
            let ctx = ExecContext::unbounded();
            chosen.build(&catalog, &ctx, None)?.run();
            per_query[qi].record(chosen.fingerprint(), ctx.clock.now());
            if cfg.pin_plans {
                pinned[qi] = Some(chosen);
            }
        }
    }
    Ok(RefreshReport { per_query })
}

/// Append `fraction` of `table`'s row count, cloned from random existing
/// rows (value distribution preserved) with integer columns jittered by ±1
/// so the next sample sees "new" values — through
/// [`Catalog::append_rows`], so the table's indexes follow.
fn grow(catalog: &mut Catalog, table: &str, fraction: f64, rng: &mut impl Rng) -> Result<()> {
    let t = catalog.table(table)?;
    let n = t.nrows();
    let to_add = ((n as f64) * fraction).ceil() as usize;
    let rows: Vec<rqp_common::Row> = (0..to_add)
        .map(|_| {
            let mut row = t.row(rng.gen_range(0..n));
            for v in &mut row {
                if let Value::Int(x) = v {
                    *v = Value::Int(*x + rng.gen_range(-1i64..=1));
                }
            }
            row
        })
        .collect();
    // A handle still held here would make the append copy the table.
    drop(t);
    catalog.append_rows(table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::col;
    use rqp_workload::{tpch::TpchParams, TpchDb};

    fn setup() -> (Catalog, Vec<QuerySpec>) {
        let db = TpchDb::build(TpchParams { lineitem_rows: 3000, ..Default::default() }, 77);
        // Queries near the scan/index crossover, where sampled-stats jitter
        // flips plans.
        let workload: Vec<QuerySpec> = (0..3)
            .map(|i| {
                QuerySpec::new().table("lineitem").filter(
                    "lineitem",
                    col("lineitem.shipdate").between(i * 300, i * 300 + 900),
                )
            })
            .collect();
        (db.catalog, workload)
    }

    #[test]
    fn unpinned_refreshes_can_flip_plans() {
        let (catalog, workload) = setup();
        let report = stats_refresh_experiment(
            &catalog,
            "lineitem",
            &workload,
            RefreshConfig { epochs: 10, sample_size: 60, buckets: 4, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.per_query.len(), 3);
        for s in &report.per_query {
            assert_eq!(s.len(), 10);
        }
        // With tiny samples and coarse buckets near a crossover, flips are
        // expected (this is the point of the anecdote). We only require the
        // bookkeeping to be coherent; the bench asserts flip behavior on a
        // tuned scenario.
        assert!(report.worst_regression() >= 1.0);
    }

    #[test]
    fn pinning_never_flips_more_than_unpinned() {
        let (catalog, workload) = setup();
        let base = RefreshConfig { epochs: 10, sample_size: 60, buckets: 4, ..Default::default() };
        let unpinned =
            stats_refresh_experiment(&catalog, "lineitem", &workload, base).unwrap();
        let pinned = stats_refresh_experiment(
            &catalog,
            "lineitem",
            &workload,
            RefreshConfig { pin_plans: true, ..base },
        )
        .unwrap();
        assert!(
            pinned.total_flips() <= unpinned.total_flips(),
            "pinning {} vs unpinned {}",
            pinned.total_flips(),
            unpinned.total_flips()
        );
    }

    /// One epoch's appended rows reach `lineitem`'s indexes: a `shipdate`
    /// index lookup equals a filtered scan for every date the jitter can
    /// produce.
    #[test]
    fn refresh_appends_reach_the_shipdate_index() {
        let (mut catalog, _) = setup();
        let before = catalog.table("lineitem").unwrap().nrows();
        let mut rng = seeded(5);
        grow(&mut catalog, "lineitem", 0.01, &mut rng).unwrap();
        let t = catalog.table("lineitem").unwrap();
        assert_eq!(t.nrows(), before + 30);
        let ix = catalog.index_on("lineitem", "shipdate").expect("TPC-H shipdate index");
        assert_eq!(ix.entries(), t.nrows(), "every row indexed");
        let appended: std::collections::BTreeSet<Value> =
            (before..t.nrows()).map(|i| t.value(i, "shipdate").unwrap()).collect();
        for date in appended {
            let scanned: Vec<usize> =
                (0..t.nrows()).filter(|&i| t.value(i, "shipdate").unwrap() == date).collect();
            let found: Vec<usize> = ix.lookup_eq(&date).collect();
            assert_eq!(found, scanned, "shipdate = {date}");
        }
    }

    #[test]
    fn table_grows_across_epochs() {
        let (catalog, workload) = setup();
        let before = catalog.table("lineitem").unwrap().nrows();
        let _ = stats_refresh_experiment(
            &catalog,
            "lineitem",
            &workload[..1],
            RefreshConfig { epochs: 3, ..Default::default() },
        )
        .unwrap();
        // The experiment clones the catalog: the original is untouched.
        assert_eq!(catalog.table("lineitem").unwrap().nrows(), before);
    }
}
