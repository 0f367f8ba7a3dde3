//! E08, E19, E22: cardinality-estimation robustness.

use super::harness::{self, Harness, RunEnv};
use rqp::exec::ExecContext;
use rqp::expr::col;
use rqp::metrics::{cardinality_error_geomean, metric1, metric3, ReportTable};
use rqp::opt::run::{execute, EstimatorWrapper, ExecutionMode, PlanInputs};
use rqp::opt::{plan, PlannerConfig};
use rqp::stats::{
    CardEstimator, FeedbackRepo, LyingEstimator, MaxEntSolver, OracleEstimator,
    SamplingEstimator, StatsEstimator, TableStatsRegistry,
};
use rqp::workload::star::StarParams;
use rqp::workload::{BlackHatDb, StarDb};
use rqp::QuerySpec;
use std::cell::RefCell;
use std::rc::Rc;

/// E08 — Metric1/Metric3 and C(Q) across estimation regimes on a correlated
/// star schema.
pub fn e08_card_metrics(env: &RunEnv) -> String {
    harness::run("e08_card_metrics", env, e08_body)
}

fn e08_body(h: &mut Harness) -> String {
    let fact_rows = if h.fast() { 3000 } else { 12_000 };
    let db = StarDb::build(
        StarParams { fact_rows, correlated_fks: true, fk_skew: 0.6, ..Default::default() },
        h.note_seed("db", 8),
    );
    let catalog = Rc::new(db.catalog.clone());
    let oracle = OracleEstimator::new(Rc::clone(&catalog));
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
    let stats = StatsEstimator::new(Rc::clone(&reg));
    let mut rng = h.seeded("sampling", 88);
    let sampler = SamplingEstimator::build(
        &db.catalog.table("fact").expect("fact"),
        (fact_rows / 10).max(100),
        &mut rng,
    );

    // Query set: star queries with per-dimension filters + a correlated
    // fact predicate (fk1 and fk2 are dependent).
    let preds: Vec<rqp::Expr> = (1..=4)
        .map(|k| {
            col("fact.fk1")
                .lt(lit_i(k * 20))
                .and(col("fact.fk2").lt(lit_i(k * 10)))
        })
        .collect();

    let mut t = ReportTable::new(&["estimator", "Metric1", "C(Q)", "max q-error"]);
    type EstimateFn<'a> = Box<dyn Fn(&rqp::Expr) -> f64 + 'a>;
    let regimes: Vec<(&str, EstimateFn<'_>)> = vec![
        (
            "independence+histogram",
            Box::new(|p: &rqp::Expr| stats.filtered_rows("fact", p)),
        ),
        (
            "sampling (10%)",
            Box::new(|p: &rqp::Expr| {
                sampler.selectivity(p).unwrap_or(0.0) * fact_rows as f64
            }),
        ),
        (
            "max-entropy (w/ pair stats)",
            Box::new(|p: &rqp::Expr| {
                // ME given single-column selectivities AND the observed pair
                // selectivity of the conjunct pair (the multivariate
                // statistic the paper assumes available).
                let conjuncts = p.conjuncts();
                let s1 = oracle.selectivity("fact", &conjuncts[0]);
                let s2 = oracle.selectivity("fact", &conjuncts[1]);
                let s12 = oracle.selectivity("fact", p);
                let mut solver = MaxEntSolver::new(2).expect("2 preds");
                solver.add_constraint(0b01, s1).expect("c1");
                solver.add_constraint(0b10, s2).expect("c2");
                solver.add_constraint(0b11, s12).expect("c12");
                solver.solve(2000, 1e-10).selectivity(0b11) * fact_rows as f64
            }),
        ),
        (
            "oracle",
            Box::new(|p: &rqp::Expr| oracle.filtered_rows("fact", p)),
        ),
    ];

    let mut metric1_by_regime = Vec::new();
    for (name, estimate) in &regimes {
        let pairs: Vec<(f64, f64)> = preds
            .iter()
            .map(|p| (estimate(p), oracle.filtered_rows("fact", p)))
            .collect();
        let m1 = metric1(&pairs);
        metric1_by_regime.push(m1);
        let cq = cardinality_error_geomean(&pairs);
        let maxq = pairs
            .iter()
            .map(|&(e, a)| rqp::stats::q_error(e, a))
            .fold(1.0, f64::max);
        t.row(&[
            (*name).into(),
            format!("{m1:.2}"),
            format!("{cq:.3}"),
            format!("{maxq:.1}"),
        ]);
    }

    // Metric3: impose each enumerated plan for one star query, compare the
    // chosen plan's runtime to the best imposed runtime. The chosen plan runs
    // on the harness context so its per-operator (estimate, actual) spans
    // feed the scoreboard's M1/q-error columns.
    let spec = db.star_query(4, 4, 10);
    let chosen = plan(&spec, &db.catalog, &stats, PlannerConfig::default()).expect("plan");
    let run = |p: &rqp::PhysicalPlan, ctx: &ExecContext| -> f64 {
        let start = ctx.clock.now();
        p.build(&db.catalog, ctx, None).expect("build").run();
        ctx.clock.now() - start
    };
    let runtime_best = run(&chosen, h.ctx());
    let oracle_plan = plan(&spec, &db.catalog, &oracle, PlannerConfig::default()).expect("plan");
    let runtime_opt = run(&oracle_plan, &ExecContext::unbounded()).min(runtime_best);
    let m3 = metric3(runtime_opt, runtime_best);
    h.m3(runtime_opt, runtime_best);
    h.config("regimes", regimes.len());

    format!(
        "E08 — cardinality-error metrics on a correlated star schema\n\n{t}\n\
         Metric3 (|RunTimeOpt − RunTimeBest| / RunTimeBest) for the \
         histogram-planned star query: {m3:.3}\n\
         Expected shape: independence ≫ sampling ≈ max-entropy ≫ oracle on \
         correlated predicates (independence Metric1 here: {:.1} vs \
         max-entropy {:.2}).\n",
        metric1_by_regime[0], metric1_by_regime[2]
    )
}

fn lit_i(v: i64) -> rqp::Expr {
    rqp::expr::lit(v)
}

/// E19 — LEO feedback: q-error decay over repeated workload epochs.
pub fn e19_leo(env: &RunEnv) -> String {
    harness::run("e19_leo", env, e19_body)
}

fn e19_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let fact_rows = if fast { 3000 } else { 10_000 };
    let db = StarDb::build(
        StarParams { fact_rows, correlated_fks: true, ..Default::default() },
        h.note_seed("db", 19),
    );
    let reg = TableStatsRegistry::analyze_catalog(&db.catalog, 32);
    let repo = RefCell::new(FeedbackRepo::new(0.8));
    // Base estimator underestimates the fact table 40×.
    let lie: &EstimatorWrapper<'_> =
        &|e| Box::new(LyingEstimator::new(e).with_table_factor("fact", 1.0 / 40.0));
    let plain = PlanInputs { lie, ..PlanInputs::new(&db.catalog, &reg) };
    let with_feedback = PlanInputs { feedback: Some(&repo), ..plain };

    // Queries with *fact-side* filters, the locus of the injected error.
    let workload: Vec<QuerySpec> = vec![
        QuerySpec::new()
            .join("fact", "fk1", "d1", "key")
            .filter("fact", col("fact.flag").lt(rqp::expr::lit(3i64))),
        QuerySpec::new()
            .join("fact", "fk2", "d2", "key")
            .filter("fact", col("fact.flag").le(rqp::expr::lit(6i64))),
    ];
    let epochs = if fast { 4 } else { 6 };
    let mut t = ReportTable::new(&["epoch", "max q-error (LEO)", "max q-error (no feedback)"]);
    let mut first_leo = 0.0;
    let mut last_leo = 0.0;
    for epoch in 0..epochs {
        let mut worst_leo = 1.0f64;
        let mut worst_plain = 1.0f64;
        for q in &workload {
            // LEO runs share the harness context: its leo.q_error histogram
            // and leo.correction events accumulate across the epochs.
            let r = execute(q, &with_feedback, ExecutionMode::Leo, h.ctx()).expect("leo run");
            worst_leo = worst_leo.max(r.max_q_error());
            // Plain: same measurement, nothing learned.
            let r = execute(q, &plain, ExecutionMode::Static, &ExecContext::unbounded())
                .expect("plain run");
            worst_plain = worst_plain.max(r.max_q_error());
        }
        if epoch == 0 {
            first_leo = worst_leo;
        }
        last_leo = worst_leo;
        t.row(&[
            format!("{epoch}"),
            format!("{worst_leo:.2}"),
            format!("{worst_plain:.2}"),
        ]);
    }
    h.config("epochs", epochs);
    h.gauge("leo.first_epoch_q", first_leo);
    h.gauge("leo.final_epoch_q", last_leo);
    format!(
        "E19 — LEO learning loop: repeated workload epochs\n\n{t}\n\
         learned signatures: {}\n\
         Expected shape: the LEO column decays toward 1 (epoch 0: {first_leo:.1} → \
         final: {last_leo:.1}); the no-feedback column stays flat.\n",
        repo.borrow().len()
    )
}

/// E22 — black-hat cardinality stress: estimation error per trap, in orders
/// of magnitude.
pub fn e22_blackhat(env: &RunEnv) -> String {
    harness::run("e22_blackhat", env, e22_body)
}

fn e22_body(h: &mut Harness) -> String {
    let rows = if h.fast() { 3000 } else { 20_000 };
    let bh = BlackHatDb::build(rows, h.note_seed("db", 22));
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&bh.catalog, 32));
    let est = StatsEstimator::new(Rc::clone(&reg));
    let mut t = ReportTable::new(&["trap", "estimate", "actual", "q-error", "magnitude (log10)"]);
    let mut worst_q = 1.0f64;
    for trap in bh.traps() {
        let truth = bh.true_cardinality(&trap) as f64;
        let guess = match (&trap.target_table, &trap.pred) {
            (Some(tbl), Some(p)) => est.filtered_rows(tbl, p),
            _ => {
                est.table_rows("person")
                    * est.table_rows("sales")
                    * est.join_selectivity("person", "zipf", "sales", "person_zipf")
            }
        };
        let q = rqp::stats::q_error(guess, truth);
        worst_q = worst_q.max(q);
        h.ctx().metrics.histogram("blackhat.q_error").observe(q);
        t.row(&[
            trap.name.into(),
            format!("{guess:.1}"),
            format!("{truth:.0}"),
            format!("{q:.1}"),
            format!("{:.1}", q.log10()),
        ]);
    }
    h.gauge("blackhat.worst_q_log10", worst_q.log10());
    format!(
        "E22 — black-hat query optimization: the estimation trap list\n\n{t}\n\
         Expected shape: redundant/correlated predicates underestimate by \
         orders of magnitude (the '7 orders of magnitude' war story, scaled \
         to table size); skewed joins blow past the containment estimate.\n",
    )
}

