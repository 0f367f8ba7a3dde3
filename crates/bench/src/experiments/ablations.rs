//! A01–A04 and A09: ablations over the design choices `DESIGN.md` calls out.

use super::harness::{self, Harness, RunEnv};
use rand::Rng;
use rqp::common::StringDict;
use rqp::exec::exchange::{pipeline, ExchangeOp, Partitioning};
use rqp::exec::{
    collect, AggFunc, AggSpec, BatchFilterOp, BatchHashAggOp, BatchHashJoinOp, BatchRowsOp,
    BatchScanOp, BoxBatchOp, BoxOp, EddyFilterOp, ExecContext, FilterOp, HashAggOp, HashJoinOp,
    Operator, RoutingPolicy, TableScanOp,
};
use rqp::expr::{col, lit};
use rqp::metrics::{smoothness, ReportTable};
use rqp::opt::run::{execute, EstimatorWrapper, ExecutionMode, PlanInputs};
use rqp::stats::{LyingEstimator, TableStatsRegistry};
use rqp::storage::AdaptiveMergeIndex;
use rqp::telemetry::scoreboard::samples;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{DataType, Row, Schema, Table, Value};
use std::sync::Arc;

/// A01 — POP θ sensitivity: validity-range tightness vs overhead/recovery.
pub fn a01_pop_theta(env: &RunEnv) -> String {
    harness::run("a01_pop_theta", env, |h| {
        let li = if h.fast() { 3000 } else { 10_000 };
        let db = TpchDb::build(
            TpchParams { lineitem_rows: li, ..Default::default() },
            h.note_seed("db", 101),
        );
        let registry = TableStatsRegistry::analyze_catalog(&db.catalog, 32);
        // A moderately wrong estimate (12×): tight thetas catch it, loose ones
        // ride it out.
        let wrap: Box<EstimatorWrapper<'_>> = Box::new(|e| {
            Box::new(LyingEstimator::new(e).with_table_factor("lineitem", 1.0 / 12.0))
        });
        let spec = db.q3(1, 1200);
        let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&db.catalog, &registry) };
        let std_cost = execute(&spec, &inputs, ExecutionMode::Static, &ExecContext::unbounded())
            .expect("std")
            .cost;
        let thetas = [1.5, 2.0, 5.0, 20.0, 100.0];
        h.config("thetas", thetas.len());
        let mut t = ReportTable::new(&["theta", "reopts", "POP cost", "vs standard"]);
        let mut gaps = Vec::new();
        let mut pairs = Vec::new();
        let mut best = f64::INFINITY;
        for (i, theta) in thetas.into_iter().enumerate() {
            // The last (loosest) θ runs on the harness context so one full
            // CHECK-instrumented trace lands in the report.
            let ctx = if i + 1 == thetas.len() { h.ctx().clone() } else { ExecContext::unbounded() };
            let start = ctx.clock.now();
            let report = execute(&spec, &inputs, ExecutionMode::Pop { theta, max_reopts: 3 }, &ctx)
                .expect("pop");
            let cost = ctx.clock.now() - start;
            best = best.min(cost);
            gaps.push((cost - std_cost).abs());
            pairs.push((cost, std_cost.min(cost)));
            t.row(&[
                format!("{theta}"),
                format!("{}", report.reoptimizations()),
                format!("{:.0}", report.cost),
                format!("{:.2}x", report.cost / std_cost),
            ]);
        }
        h.perf_gaps(&gaps);
        h.env_costs(&pairs);
        h.m3(std_cost, best);
        format!(
            "A01 — POP validity-threshold ablation (12x underestimate; standard \
             cost {std_cost:.0})\n\n{t}\n\
             Expected shape: θ below the injected error catches and repairs the \
             plan; θ above it degenerates to standard execution plus CHECK \
             overhead. The knee sits at the error magnitude — validity ranges \
             are only as useful as they are honest about estimation accuracy.\n",
        )
    })
}

/// A02 — adaptive-merge run-size ablation: build cost vs convergence.
pub fn a02_amerge_runsize(env: &RunEnv) -> String {
    harness::run("a02_amerge_runsize", env, a02_body)
}

fn a02_body(h: &mut Harness) -> String {
    let n = if h.fast() { 30_000usize } else { 150_000 };
    let mut rng = h.seeded("amerge-keys", 102);
    let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let queries: Vec<(i64, i64)> = (0..20)
        .map(|_| {
            let lo = rng.gen_range(0..(n as i64 * 9 / 10));
            (lo, lo + (n as i64 / 100))
        })
        .collect();
    let mut t = ReportTable::new(&[
        "run size", "runs", "build compares", "q0 moved", "q19 moved", "total moved",
    ]);
    let sqrt_n = (n as f64).sqrt().ceil() as usize;
    let mut build_costs = Vec::new();
    for (label, run_size) in [
        ("√n", sqrt_n),
        ("n/100", n / 100),
        ("n/10", n / 10),
        ("n (eager sort)", n),
    ] {
        let mut am = AdaptiveMergeIndex::new(&keys, run_size);
        let build = am.initial_sort_comparisons();
        let runs = n.div_ceil(run_size);
        let mut first = 0usize;
        let mut last = 0usize;
        let mut total = 0usize;
        for (i, &(lo, hi)) in queries.iter().enumerate() {
            let (_, st) = am.query(lo, hi);
            if i == 0 {
                first = st.moved;
            }
            last = st.moved;
            total += st.moved;
        }
        build_costs.push(build as f64 + total as f64);
        t.row(&[
            label.into(),
            format!("{runs}"),
            format!("{build}"),
            format!("{first}"),
            format!("{last}"),
            format!("{total}"),
        ]);
    }
    h.config("rows", n);
    // Per-configuration total work (build comparisons + key moves): the
    // sweep's performance profile, folded into smoothness by the scoreboard.
    let floor = build_costs.iter().cloned().fold(f64::INFINITY, f64::min);
    h.perf_gaps(&build_costs.iter().map(|c| c - floor).collect::<Vec<_>>());
    h.env_costs(&build_costs.iter().map(|c| (*c, floor)).collect::<Vec<_>>());
    format!(
        "A02 — adaptive-merge run-size ablation ({n} rows, 20 1% queries)\n\n{t}\n\
         Expected shape: bigger runs cost more comparisons up front but the \
         per-query merge work is identical (each key range moves once); the \
         run count controls only probe overhead. The design's √n default \
         balances build cost against probes-per-query.\n",
    )
}

/// A04 — parallel scaling: exchange worker count × injected partition skew.
pub fn a04_parallel_scaling(env: &RunEnv) -> String {
    harness::run("a04_parallel_scaling", env, a04_body)
}

fn a04_body(h: &mut Harness) -> String {
    let n: i64 = if h.fast() { 20_000 } else { 100_000 };
    let schema = Schema::from_pairs(&[("id", DataType::Int), ("key", DataType::Int)]);
    let mut t = Table::new("events", schema);
    let mut rng = h.seeded("rows", 104);
    for i in 0..n {
        t.append(vec![Value::Int(i), Value::Int(rng.gen_range(0..1_000_000i64))]);
    }
    let table = Arc::new(t);
    let worker_counts = [1usize, 2, 4, 8];
    let skews = [0.0, 0.5, 0.9];
    h.config("rows", n);
    h.config("worker_counts", worker_counts.len());
    h.config("skews", skews.len());

    // Each config runs the same plan — scan, hash-repartition on `key` with
    // the injected skew, per-worker filter, gather — and reads the gather's
    // imbalance gauges. "Elapsed" in cost-clock terms is the critical path:
    // the slowest worker's shard cost.
    let mut t_out =
        ReportTable::new(&["workers", "skew", "critical path", "speedup", "imbalance"]);
    let mut elapsed = Vec::new();
    let mut ideals = Vec::new();
    let mut rows_out = Vec::new();
    let mut zero_skew_shortfalls = Vec::new();
    let mut headline_elapsed = f64::NAN;
    let mut headline_speedup = f64::NAN;
    let mut worst_imbalance = 1.0f64;
    for &skew in &skews {
        for &workers in &worker_counts {
            // The headline config (most workers, no skew) runs on the
            // harness context so its per-worker spans land in the report.
            let headline = workers == *worker_counts.last().unwrap() && skew == 0.0;
            let ctx = if headline { h.ctx().clone() } else { ExecContext::unbounded() };
            let scan = Box::new(TableScanOp::new(Arc::clone(&table), ctx.clone()));
            let pred = col("events.key").lt(lit(500_000i64));
            let build = pipeline(move |op, wctx| {
                Box::new(FilterOp::new(op, &pred, wctx.clone()).expect("filter"))
            });
            let spec = Partitioning::Hash { keys: vec![1], skew };
            let mut ex = ExchangeOp::repartition(scan, spec, workers, build, ctx.clone())
                .expect("exchange");
            rows_out.push(collect(&mut ex).len());
            let critical = ctx.metrics.gauge("exchange.critical_path").get();
            let total = ctx.metrics.gauge("exchange.total_work").get();
            let speedup = ctx.metrics.gauge("exchange.speedup").get();
            let imbalance = ctx.metrics.gauge("exchange.skew").get();
            elapsed.push(critical);
            ideals.push(total / workers as f64);
            worst_imbalance = worst_imbalance.max(imbalance);
            if skew == 0.0 {
                zero_skew_shortfalls.push(workers as f64 - speedup);
            }
            if headline {
                headline_elapsed = critical;
                headline_speedup = speedup;
            }
            t_out.row(&[
                format!("{workers}"),
                format!("{skew}"),
                format!("{critical:.0}"),
                format!("{speedup:.2}x"),
                format!("{imbalance:.2}"),
            ]);
        }
    }
    // Parallelism must not change the answer: every config returns the same
    // row count.
    assert!(rows_out.windows(2).all(|w| w[0] == w[1]), "row counts diverged: {rows_out:?}");

    // Paper samples: elapsed-time gaps over the sweep (smoothness), per-config
    // (elapsed, ideal) pairs (variability), and the headline-vs-best runtimes.
    let floor = elapsed.iter().copied().fold(f64::INFINITY, f64::min);
    h.perf_gaps(&elapsed.iter().map(|e| e - floor).collect::<Vec<_>>());
    h.env_costs(&elapsed.iter().copied().zip(ideals).collect::<Vec<_>>());
    h.m3(headline_elapsed, floor);
    // How smoothly speedup approaches linear as workers grow (zero skew):
    // the CV of per-count shortfalls from ideal. Low = scaling degrades
    // predictably; high = a cliff at some worker count.
    h.gauge("parallel.speedup_smoothness", smoothness(&zero_skew_shortfalls));
    h.gauge(samples::PARALLEL_SPEEDUP, headline_speedup);
    h.gauge(samples::PARALLEL_SKEW, worst_imbalance);
    format!(
        "A04 — parallel scaling ({n} rows, hash repartition on `key`, filter per worker)\n\n\
         {t_out}\n\
         Expected shape: at zero skew the critical path shrinks near-linearly \
         with workers (imbalance ≈ 1). Injected skew routes a fixed fraction \
         of rows to worker 0, so the critical path — and therefore speedup — \
         degrades smoothly toward serial as skew grows, while total work stays \
         constant: the robustness story is *graceful* degradation, measured by \
         the imbalance factor and the speedup-smoothness gauge.\n",
    )
}

/// A09 — batch-vs-scalar wall-clock speedup on the filter/join/agg sweep.
pub fn a09_batch_speedup(env: &RunEnv) -> String {
    harness::run("a09_batch_speedup", env, a09_body)
}

/// Ceiling on the reported [`samples::BATCH_SPEEDUP`] gauge. The scoreboard
/// folds that gauge as a *minimum* and gates CI at `baseline - slack`, so
/// committing a capped baseline pins the floor at the 2x acceptance bar
/// (2.5 - 0.5 slack) — a fast machine regenerating artifacts cannot ratchet
/// the floor past what CI hardware reproduces.
const A09_SPEEDUP_CAP: f64 = 2.5;

/// One timed pipeline variant: returns its rows plus the context whose clock
/// charged it, so twins can be checked for row and cost parity.
type A09Run = Box<dyn Fn() -> (Vec<Row>, ExecContext)>;

/// One canonical run (kept for the parity check), then `reps` timed runs,
/// reporting the best — wall clock, since charged costs are identical by
/// construction.
fn a09_time(reps: usize, run: &dyn Fn() -> (Vec<Row>, ExecContext)) -> (f64, Vec<Row>, ExecContext) {
    let (rows, ctx) = run();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let _ = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, rows, ctx)
}

fn a09_body(h: &mut Harness) -> String {
    let n: i64 = if h.fast() { 30_000 } else { 150_000 };
    let reps = if h.fast() { 3 } else { 5 };
    h.config("rows", n);
    h.config("reps", reps);

    // A string-heavy fact table: the dictionary-coded `cat` column is where
    // row-at-a-time execution pays for String comparisons and clones.
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("amt", DataType::Float),
        ("cat", DataType::Str),
    ]);
    let mut t = Table::new("s", schema);
    let mut rng = h.seeded("rows", 109);
    for i in 0..n {
        t.append(vec![
            Value::Int(i),
            // Dyadic amounts, so aggregate sums fold associatively.
            Value::Float(rng.gen_range(0..4_000i64) as f64 * 0.25),
            Value::Str(format!("cat{:02}", rng.gen_range(0..48u32))),
        ]);
    }
    let sales = Arc::new(t);
    // A selective dimension (6 of 48 categories), so the join, like the
    // filter, qualifies a minority of probe rows — the regime vectorized
    // execution is built for: the batch path only materializes survivors.
    let dim_schema = Schema::from_pairs(&[("cat", DataType::Str), ("tax", DataType::Float)]);
    let mut d = Table::new("d", dim_schema);
    for i in 0..6i64 {
        d.append(vec![Value::Str(format!("cat{i:02}")), Value::Float(i as f64 * 0.125)]);
    }
    let dim = Arc::new(d);

    let pred = col("s.cat").eq(lit("cat07"));
    let aggs =
        || [AggSpec::count_star("n"), AggSpec::on(AggFunc::Sum, "s.amt", "revenue")];

    let scalar_filter: A09Run = {
        let (t, p) = (Arc::clone(&sales), pred.clone());
        Box::new(move || {
            let c = ExecContext::unbounded();
            let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
            let mut f = FilterOp::new(scan, &p, c.clone()).expect("filter");
            (collect(&mut f), c)
        })
    };
    let batch_filter: A09Run = {
        let (t, p) = (Arc::clone(&sales), pred.clone());
        Box::new(move || {
            let c = ExecContext::unbounded();
            let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
            let f: BoxBatchOp = Box::new(BatchFilterOp::new(scan, &p, c.clone()).expect("filter"));
            let mut rows = BatchRowsOp::boxed(f, c.clone());
            (collect(rows.as_mut()), c)
        })
    };
    let scalar_join: A09Run = {
        let (t, d) = (Arc::clone(&sales), Arc::clone(&dim));
        Box::new(move || {
            let c = ExecContext::unbounded();
            let left: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
            let right: BoxOp = Box::new(TableScanOp::new(Arc::clone(&d), c.clone()));
            let mut j = HashJoinOp::new(left, right, &["s.cat"], &["d.cat"], c.clone())
                .expect("join");
            (collect(&mut j), c)
        })
    };
    let batch_join: A09Run = {
        let (t, d) = (Arc::clone(&sales), Arc::clone(&dim));
        Box::new(move || {
            let c = ExecContext::unbounded();
            let dict = Arc::new(StringDict::new());
            let left: BoxBatchOp = Box::new(BatchScanOp::with_dict(
                Arc::clone(&t),
                0,
                t.nrows(),
                Arc::clone(&dict),
                c.clone(),
            ));
            let right: BoxBatchOp =
                Box::new(BatchScanOp::with_dict(Arc::clone(&d), 0, d.nrows(), dict, c.clone()));
            let j: BoxBatchOp =
                Box::new(BatchHashJoinOp::new(left, right, "s.cat", "d.cat", c.clone())
                    .expect("join"));
            let mut rows = BatchRowsOp::boxed(j, c.clone());
            (collect(rows.as_mut()), c)
        })
    };
    let scalar_agg: A09Run = {
        let t = Arc::clone(&sales);
        Box::new(move || {
            let c = ExecContext::unbounded();
            let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
            let mut a = HashAggOp::new(scan, &["s.cat"], &aggs(), c.clone()).expect("agg");
            (collect(&mut a), c)
        })
    };
    let batch_agg: A09Run = {
        let t = Arc::clone(&sales);
        Box::new(move || {
            let c = ExecContext::unbounded();
            let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
            let mut a = BatchHashAggOp::new(scan, &["s.cat"], &aggs(), c.clone()).expect("agg");
            (collect(&mut a), c)
        })
    };
    let pipelines = [
        ("filter", scalar_filter, batch_filter),
        ("join", scalar_join, batch_join),
        ("agg", scalar_agg, batch_agg),
    ];

    let mut t_out = ReportTable::new(&["pipeline", "rows", "scalar ms", "batch ms", "speedup"]);
    let mut charged = Vec::new();
    let mut speedups = Vec::new();
    for (name, scalar_run, batch_run) in &pipelines {
        let (s_best, s_rows, s_ctx) = a09_time(reps, scalar_run.as_ref());
        let (b_best, b_rows, b_ctx) = a09_time(reps, batch_run.as_ref());
        // The speedup only counts if the twins stay twins: identical rows,
        // identical charged-cost bits.
        assert_eq!(s_rows, b_rows, "{name}: twin row streams diverge");
        let (sb, bb) = (s_ctx.clock.breakdown(), b_ctx.clock.breakdown());
        assert_eq!(sb.total().to_bits(), bb.total().to_bits(), "{name}: twin charges diverge");
        let speedup = s_best / b_best;
        speedups.push(speedup);
        charged.push(sb.total());
        t_out.row(&[
            (*name).into(),
            format!("{}", s_rows.len()),
            format!("{:.2}", s_best * 1e3),
            format!("{:.2}", b_best * 1e3),
            format!("{speedup:.2}x"),
        ]);
        h.gauge(&format!("batch.speedup_{name}"), speedup);
    }

    // One full batch join runs on the harness context so its operator spans
    // (and deterministic charged costs) land in the run report.
    {
        let c = h.ctx().clone();
        let dict = Arc::new(StringDict::new());
        let left: BoxBatchOp = Box::new(BatchScanOp::with_dict(
            Arc::clone(&sales),
            0,
            sales.nrows(),
            Arc::clone(&dict),
            c.clone(),
        ));
        let right: BoxBatchOp =
            Box::new(BatchScanOp::with_dict(Arc::clone(&dim), 0, dim.nrows(), dict, c.clone()));
        let j: BoxBatchOp = Box::new(
            BatchHashJoinOp::new(left, right, "s.cat", "d.cat", c.clone()).expect("join"),
        );
        let mut rows = BatchRowsOp::boxed(j, c.clone());
        let _ = collect(rows.as_mut());
    }

    // Paper samples stay deterministic: charged-cost gaps across the sweep
    // (smoothness) and per-pipeline (chosen, ideal) pairs — twins charge
    // identically, so env divergence is zero and the wall-clock win is told
    // entirely by the speedup gauge.
    let floor = charged.iter().copied().fold(f64::INFINITY, f64::min);
    h.perf_gaps(&charged.iter().map(|c| c - floor).collect::<Vec<_>>());
    h.env_costs(&charged.iter().map(|c| (*c, *c)).collect::<Vec<_>>());
    let raw = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    h.gauge(samples::BATCH_SPEEDUP, raw.min(A09_SPEEDUP_CAP));

    format!(
        "A09 — batch-vs-scalar speedup ({n} rows, best of {reps} runs; worst \
         pipeline {raw:.2}x, gauge capped at {A09_SPEEDUP_CAP})\n\n{t_out}\n\
         Expected shape: every pipeline clears 2x — the batch twins charge the \
         same cost-clock totals (asserted bit-for-bit above) but replace \
         per-row virtual dispatch, `Row` materialization and String compares \
         with tight loops over typed columns and u32 dictionary codes. The \
         filter and join qualify a minority of rows, so the batch path \
         materializes only survivors while the scalar path builds every \
         scanned row; the aggregate gains from u32 group codes replacing \
         String keys. Speedups shrink toward 1x as output cardinality \
         approaches input cardinality (both paths then pay the same per-row \
         materialization), which is why the sweep pins selective shapes.\n",
    )
}

/// A03 — eddy lottery decay: adaptation speed vs stability.
pub fn a03_eddy_decay(env: &RunEnv) -> String {
    harness::run("a03_eddy_decay", env, a03_body)
}

fn a03_body(h: &mut Harness) -> String {
    let n: i64 = if h.fast() { 20_000 } else { 100_000 };
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            if i < n / 2 {
                vec![Value::Int(i % 40), Value::Int(200 + i % 800)]
            } else {
                vec![Value::Int(200 + i % 800), Value::Int(i % 40)]
            }
        })
        .collect();
    struct VecOp {
        schema: Schema,
        rows: std::vec::IntoIter<Row>,
    }
    impl Operator for VecOp {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Option<Row> {
            self.rows.next()
        }
    }
    let preds = vec![col("a").lt(lit(100i64)), col("b").lt(lit(100i64))];
    let decays = [0.9, 0.99, 0.999, 1.0];
    let lottery_seed = h.note_seed("eddy-lottery", 103);
    h.config("decays", decays.len());
    let mut t = ReportTable::new(&["decay", "evaluations", "per tuple"]);
    let mut evals = Vec::new();
    for (i, decay) in decays.into_iter().enumerate() {
        // The first (fastest-forgetting) decay runs on the harness context so
        // its `eddy.reroute` events land in the run report.
        let ctx = if i == 0 { h.ctx().clone() } else { ExecContext::unbounded() };
        let src = Box::new(VecOp { schema: schema.clone(), rows: rows.clone().into_iter() });
        let mut eddy = EddyFilterOp::new(
            src,
            &preds,
            RoutingPolicy::Lottery { decay },
            lottery_seed,
            ctx,
        )
        .expect("eddy");
        let _ = collect(&mut eddy);
        evals.push(eddy.evaluations as f64);
        t.row(&[
            format!("{decay}"),
            format!("{}", eddy.evaluations),
            format!("{:.3}", eddy.evaluations as f64 / n as f64),
        ]);
    }
    let floor = evals.iter().cloned().fold(f64::INFINITY, f64::min);
    h.perf_gaps(&evals.iter().map(|e| e - floor).collect::<Vec<_>>());
    h.env_costs(&evals.iter().map(|e| (*e, floor)).collect::<Vec<_>>());
    format!(
        "A03 — eddy lottery-decay ablation (selectivity flip at tuple {})\n\n{t}\n\
         Expected shape: decay < 1 forgets the stale phase and re-adapts \
         after the flip; decay = 1.0 (infinite memory) averages the two \
         phases and re-adapts slowly (more evaluations). Very small decay \
         adds exploration jitter without further benefit.\n",
        n / 2,
    )
}
