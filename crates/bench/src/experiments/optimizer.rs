//! E07, E09, E10, E20, E21: optimizer-level robustness.

use super::harness::{self, Harness, RunEnv};
use rqp::exec::ExecContext;
use rqp::expr::col;
use rqp::metrics::{smoothness, CostContour, ReportTable};
use rqp::opt::plandiagram::{AnorexicReduction, PlanDiagram};
use rqp::opt::rio::{RioAnalysis, RioRobustness, UncertaintyLevel};
use rqp::opt::robust::{robust_plan, scaled_scenarios, RobustMode};
use rqp::opt::{plan, CostModel, PlannerConfig};
use rqp::physical::{stats_refresh_experiment, RefreshConfig};
use rqp::stats::{StatsEstimator, TableStatsRegistry};
use rqp::workload::star::StarParams;
use rqp::workload::{tpch::TpchParams, StarDb, TpchDb};
use rqp::QuerySpec;
use std::rc::Rc;

/// E07 — the selectivity sweep: P(q) per plan family and the smoothness
/// metric S(Q).
pub fn e07_smoothness(env: &RunEnv) -> String {
    harness::run("e07_smoothness", env, e07_body)
}

fn e07_body(h: &mut Harness) -> String {
    let li = if h.fast() { 4000 } else { 20_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 7),
    );
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
    let est = StatsEstimator::new(Rc::clone(&reg));
    let sweep: Vec<f64> = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.6, 1.0].to_vec();

    let run_plan = |p: &rqp::PhysicalPlan| -> f64 {
        let ctx = ExecContext::unbounded();
        p.build(&db.catalog, &ctx, None).expect("build").run();
        ctx.clock.now()
    };

    let mut t = ReportTable::new(&[
        "selectivity", "forced scan", "forced index", "optimizer choice", "chosen plan",
    ]);
    let mut scan_costs = Vec::new();
    let mut index_costs = Vec::new();
    let mut chosen_costs = Vec::new();
    for &sel in &sweep {
        let spec = db.range_query(sel);
        // Forced scan: planner with indexes disabled.
        let scan_plan = plan(
            &spec,
            &db.catalog,
            &est,
            PlannerConfig { use_indexes: false, ..Default::default() },
        )
        .expect("scan plan");
        let scan_cost = run_plan(&scan_plan);
        // Forced index: hand-built index scan over the range.
        let width = ((rqp::workload::tpch::DATE_DOMAIN as f64) * sel).round() as i64;
        let index_plan = rqp::PhysicalPlan::Aggregate {
            input: Box::new(rqp::PhysicalPlan::IndexScan {
                table: "lineitem".into(),
                index: "ix_lineitem_shipdate".into(),
                prefix: Vec::new(),
                lo: Some(rqp::Value::Int(0)),
                hi: Some(rqp::Value::Int((width - 1).max(0))),
                range_filter: col("lineitem.shipdate").between(0i64, (width - 1).max(0)),
                residual: None,
                clustered: db.catalog.index("ix_lineitem_shipdate").is_ok_and(|ix| ix.clustered()),
                est_rows: 0.0,
                est_cost: 0.0,
            }),
            group_by: vec![],
            aggs: vec![rqp::AggSpec::count_star("n")],
            est_rows: 1.0,
            est_cost: 0.0,
        };
        let index_cost = run_plan(&index_plan);
        // The optimizer's pick.
        let chosen = plan(&spec, &db.catalog, &est, PlannerConfig::default()).expect("plan");
        let chosen_cost = run_plan(&chosen);
        scan_costs.push(scan_cost);
        index_costs.push(index_cost);
        chosen_costs.push(chosen_cost);
        t.row(&[
            format!("{sel}"),
            format!("{scan_cost:.0}"),
            format!("{index_cost:.0}"),
            format!("{chosen_cost:.0}"),
            if chosen.fingerprint().contains("ixscan") { "index".into() } else { "scan".into() },
        ]);
    }
    // P(q) = measured − per-point optimum; S(Q) = CV of the gaps.
    let gaps = |costs: &[f64]| -> Vec<f64> {
        costs
            .iter()
            .zip(scan_costs.iter().zip(&index_costs))
            .map(|(&c, (&s, &i))| c - s.min(i) + 1.0)
            .collect()
    };
    let s_scan = smoothness(&gaps(&scan_costs));
    let s_index = smoothness(&gaps(&index_costs));
    let s_chosen = smoothness(&gaps(&chosen_costs));
    // The optimizer's own P(q) series is the experiment's headline sample
    // set: the scoreboard recomputes S(Q) from it.
    h.config("sweep_points", sweep.len());
    h.perf_gaps(&gaps(&chosen_costs));
    h.env_costs(
        &chosen_costs
            .iter()
            .zip(scan_costs.iter().zip(&index_costs))
            .map(|(&c, (&s, &i))| (c, s.min(i)))
            .collect::<Vec<_>>(),
    );
    h.gauge("smoothness.forced_scan", s_scan);
    h.gauge("smoothness.forced_index", s_index);
    h.gauge("smoothness.optimizer", s_chosen);
    // One contour over all three series → a shared shading scale, so the
    // index cliff is visible against the flat scan.
    let surface = CostContour::new(vec![
        chosen_costs.clone(),
        index_costs.clone(),
        scan_costs.clone(),
    ]);
    let shaded = surface.render();
    let mut lines = shaded.lines();
    let scan_line = lines.next().unwrap_or_default().to_owned();
    let index_line = lines.next().unwrap_or_default().to_owned();
    let chosen_line = lines.next().unwrap_or_default().to_owned();
    let legend = lines.next().unwrap_or_default().to_owned();
    format!(
        "E07 — selectivity sweep, P(q) and smoothness S(Q)\n\n{t}\n\
         cost heat over the sweep (shared log scale):\n\
           forced scan   [{scan_line}]\n\
           forced index  [{index_line}]\n\
           optimizer     [{chosen_line}]\n\
         {legend}\n\
         S(Q): forced scan {s_scan:.2} | forced index {s_index:.2} | \
         optimizer choice {s_chosen:.2}\n\
         Expected shape: the index plan falls off a cliff past the crossover \
         (large S); the scan is flat but never cheap; the optimizer's switch \
         keeps P(q) small across the sweep.\n",
    )
}

/// E09 — Babcock–Chaudhuri robust plan selection: expected vs percentile
/// costing under selectivity uncertainty.
pub fn e09_robust_opt(env: &RunEnv) -> String {
    harness::run("e09_robust_opt", env, e09_body)
}

fn e09_body(h: &mut Harness) -> String {
    let li = if h.fast() { 4000 } else { 20_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 9),
    );
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
    let est = StatsEstimator::new(Rc::clone(&reg));
    // A highly selective filter puts index-nested-loop on the table at the
    // point estimate; if the estimate is off by 100×+, INL is a disaster.
    let spec = QuerySpec::new()
        .join("lineitem", "orderkey", "orders", "orderkey")
        .filter("lineitem", col("lineitem.shipdate").le(rqp::expr::lit(2i64)));
    // Uncertainty: the filter might be 1×…500× less selective than estimated.
    let factors = [1.0, 5.0, 25.0, 100.0, 500.0];
    let scenarios = scaled_scenarios(est.clone(), "lineitem", &factors);

    let mut t = ReportTable::new(&["mode", "plan", "cost@point", "mean cost", "worst cost"]);
    let cm = CostModel::default();
    let mut worsts = Vec::new();
    for (name, mode) in [
        ("classic (point)", RobustMode::Point),
        ("least expected cost", RobustMode::LeastExpectedCost),
        ("80th percentile", RobustMode::Percentile(0.8)),
        ("worst case (p100)", RobustMode::Percentile(1.0)),
    ] {
        let choice =
            robust_plan(&spec, &db.catalog, &scenarios, PlannerConfig::default(), mode)
                .expect("robust");
        let costs: Vec<f64> = scenarios
            .iter()
            .map(|s| choice.plan.reestimate(s.as_ref(), &cm).1)
            .collect();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let worst = costs.iter().cloned().fold(0.0, f64::max);
        worsts.push(worst);
        t.row(&[
            name.into(),
            short(&choice.plan.fingerprint()),
            format!("{:.0}", costs[0]),
            format!("{mean:.0}"),
            format!("{worst:.0}"),
        ]);
    }
    // Each mode's worst-case cost vs the best achievable worst case.
    let best_worst = worsts.iter().cloned().fold(f64::INFINITY, f64::min);
    h.env_costs(&worsts.iter().map(|w| (*w, best_worst)).collect::<Vec<_>>());
    h.config("scenarios", scenarios.len());
    format!(
        "E09 — robust plan selection under selectivity uncertainty \
         (error factors {factors:?})\n\n{t}\n\
         Expected shape: percentile costing gives up a little at the point \
         estimate to cap the worst case; the classic choice is cheapest if \
         the estimate is right and worst if it is not.\n",
    )
}

/// E10 — plan diagrams and anorexic reduction.
pub fn e10_plan_diagram(env: &RunEnv) -> String {
    harness::run("e10_plan_diagram", env, e10_body)
}

fn e10_body(h: &mut Harness) -> String {
    let fact_rows = if h.fast() { 4000 } else { 16_000 };
    let db = StarDb::build(StarParams { fact_rows, ..Default::default() }, h.note_seed("db", 10));
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 16));
    let est = StatsEstimator::new(reg);
    let g = if h.fast() { 8 } else { 12 };
    let grid: Vec<f64> = (1..=g)
        .map(|i| (i as f64 / g as f64).powi(3).max(1e-4))
        .collect();
    let d = PlanDiagram::generate(
        &db.diagram_query(),
        &db.catalog,
        &est,
        PlannerConfig::default(),
        "fact",
        "d1",
        &grid,
    )
    .expect("diagram");
    let mut t = ReportTable::new(&["lambda", "plans before", "plans after", "max inflation"]);
    for lambda in [0.0, 0.1, 0.2, 0.5, 1.0] {
        let red = AnorexicReduction::reduce(&d, lambda);
        if (lambda - 0.2).abs() < 1e-9 {
            h.gauge("diagram.plans_before", d.plan_count() as f64);
            h.gauge("diagram.plans_after_l02", red.plan_count() as f64);
            h.gauge("diagram.max_inflation_l02", red.max_inflation);
        }
        t.row(&[
            format!("{lambda}"),
            format!("{}", d.plan_count()),
            format!("{}", red.plan_count()),
            format!("{:.3}", red.max_inflation),
        ]);
    }
    // Optimal-cost surface: the per-point minimum over all plans — the
    // "cost diagram" companion picture (Graefe/Kuno/Wiener-style contour).
    let gl = grid.len();
    let opt_surface: Vec<Vec<f64>> = (0..gl)
        .map(|y| {
            (0..gl)
                .map(|x| d.costs[d.assignment[y][x]][y][x])
                .collect()
        })
        .collect();
    let contour = CostContour::new(opt_surface);
    h.config("grid", grid.len());
    h.gauge("diagram.max_cliff", contour.max_cliff());
    format!(
        "E10 — plan diagram ({0}x{0} selectivity grid) and anorexic reduction\n\n\
         diagram (letters = distinct plans, origin bottom-left):\n{1}\n\
         optimal-cost contour of the same grid:\n{2}\n{t}\n\
         Expected shape: a handful of plans already; λ = 0.2 collapses the \
         diagram to very few plans at ≤ 20% cost inflation (Harish et al.); \
         the contour shows the cost growing smoothly with both selectivities \
         (max adjacent-cell cliff {3:.2}x — plan switches keep it smooth).\n",
        grid.len(),
        d.render(),
        contour.render(),
        contour.max_cliff(),
    )
}

/// E20 — Rio: uncertainty buckets → bounding boxes → robust or switchable.
pub fn e20_rio(env: &RunEnv) -> String {
    harness::run("e20_rio", env, e20_body)
}

fn e20_body(h: &mut Harness) -> String {
    let li = if h.fast() { 4000 } else { 16_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 20),
    );
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
    let est = StatsEstimator::new(Rc::clone(&reg));
    let spec = QuerySpec::new()
        .join("lineitem", "orderkey", "orders", "orderkey")
        .filter("lineitem", col("lineitem.quantity").le(rqp::expr::lit(3i64)));
    let mut t = ReportTable::new(&[
        "uncertainty", "box factor", "verdict", "corner plans", "chosen worst-corner",
        "point-plan worst-corner",
    ]);
    let mut env_pairs = Vec::new();
    for level in UncertaintyLevel::all() {
        let a = RioAnalysis::analyze(
            &spec,
            &db.catalog,
            est.clone(),
            PlannerConfig::default(),
            "lineitem",
            level,
        )
        .expect("rio");
        let worst = |c: (f64, f64, f64)| c.0.max(c.1).max(c.2);
        let chosen_worst = worst(a.chosen_corner_costs);
        env_pairs.push((chosen_worst, chosen_worst.min(worst(a.point_corner_costs))));
        t.row(&[
            format!("{level:?}"),
            format!("{:.1}", level.box_factor()),
            match a.robustness {
                RioRobustness::Robust => "robust".into(),
                RioRobustness::Switchable => "SWITCHABLE".into(),
            },
            format!("{}", a.corner_fingerprints.len()),
            format!("{:.0}", worst(a.chosen_corner_costs)),
            format!("{:.0}", worst(a.point_corner_costs)),
        ]);
    }
    h.env_costs(&env_pairs);
    format!(
        "E20 — Rio proactive re-optimization: bounding-box analysis per \
         uncertainty level\n\n{t}\n\
         Expected shape: low uncertainty → one corner plan (provably robust \
         in the box); high uncertainty → switchable, and the Rio choice caps \
         the worst corner below the point plan's.\n",
    )
}

/// E21 — the statistics-refresh "automatic disaster", with and without plan
/// pinning.
pub fn e21_stats_refresh(env: &RunEnv) -> String {
    harness::run("e21_stats_refresh", env, e21_body)
}

fn e21_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let li = if fast { 3000 } else { 8000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 21),
    );
    // Queries parked near the scan/index crossover — the fragile zone.
    let workload: Vec<QuerySpec> = (0..4)
        .map(|i| {
            QuerySpec::new().table("lineitem").filter(
                "lineitem",
                col("lineitem.shipdate").between(i * 250, i * 250 + 14),
            )
        })
        .collect();
    let epochs = if fast { 8 } else { 15 };
    let base = RefreshConfig {
        epochs,
        insert_fraction: 0.01,
        sample_size: 50,
        buckets: 4,
        seed: h.note_seed("refresh", 2121),
        ..Default::default()
    };
    let unpinned =
        stats_refresh_experiment(&db.catalog, "lineitem", &workload, base).expect("unpinned");
    let pinned = stats_refresh_experiment(
        &db.catalog,
        "lineitem",
        &workload,
        RefreshConfig { pin_plans: true, ..base },
    )
    .expect("pinned");
    let mut t = ReportTable::new(&[
        "policy", "total plan flips", "distinct plans", "worst flip regression",
    ]);
    for (name, r) in [("re-optimize each refresh", &unpinned), ("plan pinning + verify", &pinned)]
    {
        let distinct: usize = r.per_query.iter().map(|s| s.distinct_plans()).sum();
        t.row(&[
            name.into(),
            format!("{}", r.total_flips()),
            format!("{distinct}"),
            format!("{:.2}x", r.worst_regression()),
        ]);
    }
    h.config("epochs", epochs);
    h.gauge("refresh.flips_unpinned", unpinned.total_flips() as f64);
    h.gauge("refresh.flips_pinned", pinned.total_flips() as f64);
    h.gauge("refresh.worst_regression_unpinned", unpinned.worst_regression());
    h.gauge("refresh.worst_regression_pinned", pinned.worst_regression());
    format!(
        "E21 — 'automatic disaster': tiny inserts + sampled stats refresh \
         ({epochs} epochs, 4 crossover queries)\n\n{t}\n\
         Expected shape: naive re-optimization flips plans as each fresh \
         sample jitters the estimate across the crossover; pinning with a \
         verified replacement margin suppresses most of the churn.\n",
    )
}

fn short(fp: &str) -> String {
    if fp.len() > 40 {
        format!("{}…", &fp[..40])
    } else {
        fp.to_owned()
    }
}
