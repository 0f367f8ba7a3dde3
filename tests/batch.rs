//! Acceptance tests for batch-at-a-time execution: every batch plan must be
//! **row-identical** to its scalar twin and **bit-identical** in its charged
//! cost breakdown under the default cost weights, at 1/2/8 workers, under
//! repartitioning and under chaos injection. The planner and the parallel
//! scan's workers lower every table scan to the batch pipeline, so one
//! question phrased two ways (a predicate with a batch form and one without)
//! must charge the same bits. Also the mixed-type key regression: hash joins
//! and hash repartitions over Int/Float keys must agree with a nested-loop
//! oracle on both execution paths.
//!
//! Compiled under `rqp-bench` so it can drive the whole stack through the
//! `rqp` facade.

use rqp::common::expr::{col, lit};
use rqp::common::{ChaosConfig, ChaosPolicy, StringDict};
use rqp::exec::{
    collect, pipeline, AggFunc, AggSpec, BatchFilterOp, BatchHashAggOp, BatchHashJoinOp,
    BatchProjectOp, BatchRowsOp, BatchScanOp, BnlJoinOp, BoxBatchOp, BoxOp, ExchangeOp,
    ExecContext, FilterOp, HashAggOp, HashJoinOp, Operator, Partitioning, PipelineBuilder,
    ProjectOp, TableScanOp,
};
use rqp::{DataType, Expr, Row, Schema, Table, Value};
use std::sync::Arc;

fn ctx() -> ExecContext {
    ExecContext::unbounded()
}

/// Orders: id Int, amt Float (dyadic values), cat Str (7 distinct).
fn orders(n: usize) -> Arc<Table> {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("amt", DataType::Float),
        ("cat", DataType::Str),
    ]);
    let mut t = Table::new("o", schema);
    for i in 0..n as i64 {
        t.append(vec![
            Value::Int(i),
            Value::Float((i % 100) as f64 * 0.25),
            Value::Str(format!("cat{}", i % 7)),
        ]);
    }
    Arc::new(t)
}

/// Categories: cat Str (5 of the 7 order categories), tax Float.
fn cats() -> Arc<Table> {
    let schema = Schema::from_pairs(&[("cat", DataType::Str), ("tax", DataType::Float)]);
    let mut t = Table::new("c", schema);
    for i in 0..5i64 {
        t.append(vec![Value::Str(format!("cat{i}")), Value::Float(i as f64 * 0.125)]);
    }
    Arc::new(t)
}

/// Left side of the mixed-type join: k is an **Int** column.
fn mixed_left(n: usize) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut t = Table::new("l", schema);
    for i in 0..n as i64 {
        t.append(vec![Value::Int(i % 16), Value::Int(i)]);
    }
    Arc::new(t)
}

/// Right side of the mixed-type join: k is a **Float** column, half of whose
/// values are whole numbers (which must join with the Int side, since
/// `Int(5) == Float(5.0)` under `total_cmp`) and half `x + 0.5` (which must
/// join with nothing).
fn mixed_right(n: usize) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Float), ("w", DataType::Int)]);
    let mut t = Table::new("r", schema);
    for i in 0..n as i64 {
        let k = if i % 2 == 0 { (i % 16) as f64 } else { (i % 16) as f64 + 0.5 };
        t.append(vec![Value::Float(k), Value::Int(i + 1000)]);
    }
    Arc::new(t)
}

fn assert_rows_and_bits(
    label: &str,
    (rows_a, ctx_a): &(Vec<Row>, ExecContext),
    (rows_b, ctx_b): &(Vec<Row>, ExecContext),
) {
    assert_eq!(rows_a, rows_b, "{label}: row streams diverge");
    let (a, b) = (ctx_a.clock.breakdown(), ctx_b.clock.breakdown());
    assert_eq!(a.seq_io.to_bits(), b.seq_io.to_bits(), "{label}: seq_io");
    assert_eq!(a.rand_io.to_bits(), b.rand_io.to_bits(), "{label}: rand_io");
    assert_eq!(a.cpu.to_bits(), b.cpu.to_bits(), "{label}: cpu");
    assert_eq!(a.spill.to_bits(), b.spill.to_bits(), "{label}: spill");
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

// ---------------------------------------------------------------------------
// Single-worker twins: scan / filter / project / join / agg
// ---------------------------------------------------------------------------

#[test]
fn scan_filter_project_twins_are_bit_identical() {
    let t = orders(3_000);
    let pred = col("o.id").lt(lit(2_100i64));

    let scalar = {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
        let filt: BoxOp = Box::new(FilterOp::new(scan, &pred, c.clone()).unwrap());
        let mut proj = ProjectOp::columns(filt, &["o.cat", "o.amt"], c.clone()).unwrap();
        (collect(&mut proj), c)
    };
    let batch = {
        let c = ctx();
        let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
        let filt: BoxBatchOp = Box::new(BatchFilterOp::new(scan, &pred, c.clone()).unwrap());
        let proj: BoxBatchOp =
            Box::new(BatchProjectOp::columns(filt, &["o.cat", "o.amt"], c.clone()).unwrap());
        let mut rows = BatchRowsOp::boxed(proj, c.clone());
        (collect(rows.as_mut()), c)
    };
    assert_eq!(scalar.0.len(), 2_100);
    assert_rows_and_bits("scan+filter+project", &scalar, &batch);
}

#[test]
fn string_filter_twins_agree_on_every_simple_predicate() {
    // One batch per comparison shape over the dictionary-encoded column —
    // the per-code verdict cache must agree with scalar total_cmp exactly.
    let t = orders(1_500);
    let preds = [
        col("o.cat").eq(lit("cat3")),
        col("o.cat").eq(lit("missing")),
        col("o.cat").lt(lit("cat4")),
        col("o.cat").ge(lit("cat2")),
        col("o.cat").between("cat1", "cat5"),
        col("o.cat").eq(lit(3i64)), // numeric literal vs string column
    ];
    for pred in &preds {
        let scalar = {
            let c = ctx();
            let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
            let mut f = FilterOp::new(scan, pred, c.clone()).unwrap();
            (collect(&mut f), c)
        };
        let batch = {
            let c = ctx();
            let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
            let f: BoxBatchOp = Box::new(BatchFilterOp::new(scan, pred, c.clone()).unwrap());
            let mut rows = BatchRowsOp::boxed(f, c.clone());
            (collect(rows.as_mut()), c)
        };
        assert_rows_and_bits(&format!("str filter {pred}"), &scalar, &batch);
    }
}

#[test]
fn hash_join_twins_are_bit_identical_including_emission_order() {
    let t = orders(2_000);
    let c_tab = cats();

    let scalar = {
        let c = ctx();
        let left: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
        let right: BoxOp = Box::new(TableScanOp::new(Arc::clone(&c_tab), c.clone()));
        let mut j = HashJoinOp::new(left, right, &["o.cat"], &["c.cat"], c.clone()).unwrap();
        (collect(&mut j), c)
    };
    let batch = {
        let c = ctx();
        let dict = Arc::new(StringDict::new());
        let left: BoxBatchOp = Box::new(BatchScanOp::with_dict(
            Arc::clone(&t),
            0,
            t.nrows(),
            Arc::clone(&dict),
            c.clone(),
        ));
        let right: BoxBatchOp = Box::new(BatchScanOp::with_dict(
            Arc::clone(&c_tab),
            0,
            c_tab.nrows(),
            dict,
            c.clone(),
        ));
        let j: BoxBatchOp =
            Box::new(BatchHashJoinOp::new(left, right, "o.cat", "c.cat", c.clone()).unwrap());
        let mut rows = BatchRowsOp::boxed(j, c.clone());
        (collect(rows.as_mut()), c)
    };
    // cat5/cat6 orders match nothing; each other order matches exactly once.
    assert!(!scalar.0.is_empty());
    assert_rows_and_bits("hash join", &scalar, &batch);
}

#[test]
fn hash_agg_twins_are_bit_identical() {
    let t = orders(2_000);
    let aggs = [
        AggSpec::count_star("n"),
        AggSpec::on(AggFunc::Sum, "o.amt", "s"),
        AggSpec::on(AggFunc::Avg, "o.amt", "a"),
        AggSpec::on(AggFunc::Min, "o.amt", "lo"),
        AggSpec::on(AggFunc::Max, "o.amt", "hi"),
    ];
    for group in [&["o.cat"][..], &[][..]] {
        let scalar = {
            let c = ctx();
            let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
            let mut a = HashAggOp::new(scan, group, &aggs, c.clone()).unwrap();
            (collect(&mut a), c)
        };
        let batch = {
            let c = ctx();
            let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
            let mut a = BatchHashAggOp::new(scan, group, &aggs, c.clone()).unwrap();
            (collect(&mut a), c)
        };
        assert_rows_and_bits(&format!("hash agg group={group:?}"), &scalar, &batch);
    }
}

#[test]
fn degenerate_inputs_match_scalar() {
    let empty = {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("cat", DataType::Str)]);
        Arc::new(Table::new("e", schema))
    };
    // Empty scan.
    let scalar = {
        let c = ctx();
        let mut s = TableScanOp::new(Arc::clone(&empty), c.clone());
        (collect(&mut s), c)
    };
    let batch = {
        let c = ctx();
        let s: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&empty), c.clone()));
        let mut rows = BatchRowsOp::boxed(s, c.clone());
        (collect(rows.as_mut()), c)
    };
    assert_rows_and_bits("empty scan", &scalar, &batch);

    // Global aggregate over an empty input: one row, matching scalar.
    let aggs = [AggSpec::count_star("n")];
    let scalar = {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&empty), c.clone()));
        let mut a = HashAggOp::new(scan, &[], &aggs, c.clone()).unwrap();
        (collect(&mut a), c)
    };
    let batch = {
        let c = ctx();
        let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&empty), c.clone()));
        let mut a = BatchHashAggOp::new(scan, &[], &aggs, c.clone()).unwrap();
        (collect(&mut a), c)
    };
    assert_eq!(scalar.0, vec![vec![Value::Int(0)]]);
    assert_rows_and_bits("empty global agg", &scalar, &batch);
}

// ---------------------------------------------------------------------------
// Parallel twins: 1/2/8 workers, scan-side pipelines and repartitioning
// ---------------------------------------------------------------------------

/// `orders(3_000)` after appends its two-byte `id` column could not hold:
/// the column was re-encoded in place, once past `i16` and once past `i32`.
fn widened_orders() -> Arc<Table> {
    let mut t = Arc::try_unwrap(orders(3_000)).expect("sole handle");
    assert_eq!(t.column(0).as_int_slice().unwrap().width(), 2);
    for id in [40_000, -40_000, i64::MAX] {
        t.append(vec![Value::Int(id), Value::Float(0.5), Value::Str("cat0".into())]);
    }
    assert_eq!(t.column(0).as_int_slice().unwrap().width(), 8);
    Arc::new(t)
}

/// Drain a sequential pipeline under `c`, then charge the one CPU tuple per
/// row that an exchange's gather adds when it replays them: the reference
/// a parallel scan must match bit for bit.
fn gathered(mut op: BoxOp, c: ExecContext) -> (Vec<Row>, ExecContext) {
    let rows = collect(op.as_mut());
    c.clock.charge_cpu_tuples(rows.len() as f64);
    (rows, c)
}

/// A parallel scan of `t` under `c` with `build` in every worker, drained.
fn parallel(
    t: &Arc<Table>,
    workers: usize,
    build: PipelineBuilder,
    c: ExecContext,
) -> (Vec<Row>, ExecContext) {
    let mut ex = ExchangeOp::parallel_scan(Arc::clone(t), workers, build, c.clone()).unwrap();
    (collect(&mut ex), c)
}

/// A per-worker row filter on `pred`.
fn filter_in_workers(pred: &Expr) -> PipelineBuilder {
    let p = pred.clone();
    pipeline(move |op, wctx| Box::new(FilterOp::new(op, &p, wctx.clone()).unwrap()) as BoxOp)
}

#[test]
fn parallel_batch_scan_matches_scalar_at_1_2_and_8_workers() {
    scan_twins_agree(orders(3_000), col("o.id").lt(lit(2_500i64)), 2_500);
    scan_twins_agree(widened_orders(), col("o.id").ge(lit(2_000i64)), 1_002);
}

/// The parallel scan with a row filter in its workers against two
/// sequential references: the row scan under the same filter, and the
/// planner's lowering of the predicate (batch scan, batch filter, row
/// adapter). Rows and every cost component agree at each worker count.
fn scan_twins_agree(t: Arc<Table>, pred: Expr, matching: usize) {
    let scalar = {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
        gathered(Box::new(FilterOp::new(scan, &pred, c.clone()).unwrap()), c)
    };
    let planned = {
        let c = ctx();
        let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
        let f: BoxBatchOp = Box::new(BatchFilterOp::new(scan, &pred, c.clone()).unwrap());
        gathered(BatchRowsOp::boxed(f, c.clone()), c)
    };
    assert_eq!(scalar.0.len(), matching);
    assert_rows_and_bits("row scan vs planner lowering", &scalar, &planned);
    for workers in [1usize, 2, 8] {
        let got = parallel(&t, workers, filter_in_workers(&pred), ctx());
        assert_rows_and_bits(&format!("{workers} workers vs row scan"), &scalar, &got);
        assert_rows_and_bits(&format!("{workers} workers vs planner"), &planned, &got);
    }
}

#[test]
fn repartition_twins_are_bit_identical_for_hash_and_range_specs() {
    let t = orders(2_000);
    let pred = col("o.id").ge(lit(100i64));
    // Qualified scan schema: o.id=0, o.amt=1, o.cat=2. Hash on each column
    // type plus a numeric range spec. The repartition's input is the row
    // scan or the planner's batch scan: routing and charges must agree byte
    // for byte across Int, Float and dictionary-coded keys.
    let specs = [
        Partitioning::Hash { keys: vec![0], skew: 0.0 },
        Partitioning::Hash { keys: vec![1], skew: 0.0 },
        Partitioning::Hash { keys: vec![2], skew: 0.0 },
        Partitioning::Hash { keys: vec![0, 2], skew: 0.25 },
        Partitioning::Range { key: 1, skew: 0.0 },
    ];
    let run = |batch: bool, spec: &Partitioning, workers: usize| {
        let c = ctx();
        let scan: BoxOp = if batch {
            let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
            BatchRowsOp::boxed(scan, c.clone())
        } else {
            Box::new(TableScanOp::new(Arc::clone(&t), c.clone()))
        };
        let build = filter_in_workers(&pred);
        let mut ex = ExchangeOp::repartition(scan, spec.clone(), workers, build, c.clone()).unwrap();
        (collect(&mut ex), c)
    };
    for spec in &specs {
        let mut multiset = None;
        for workers in [1usize, 2, 8] {
            let scalar = run(false, spec, workers);
            assert_rows_and_bits(
                &format!("repartition {spec:?} x{workers}"),
                &scalar,
                &run(true, spec, workers),
            );
            let rows = sorted(scalar.0);
            assert_eq!(rows.len(), 1_900, "{spec:?} x{workers}");
            assert_eq!(multiset.get_or_insert_with(|| rows.clone()), &rows, "{spec:?} x{workers}");
        }
    }
}

// ---------------------------------------------------------------------------
// The mixed-type key regression (the bug this PR fixed)
// ---------------------------------------------------------------------------

#[test]
fn mixed_type_key_join_matches_nested_loop_oracle_on_both_paths() {
    let l = mixed_left(400);
    let r = mixed_right(300);

    let oracle = {
        let c = ctx();
        let left: BoxOp = Box::new(TableScanOp::new(Arc::clone(&l), c.clone()));
        let right: BoxOp = Box::new(TableScanOp::new(Arc::clone(&r), c.clone()));
        let pred = col("l.k").eq(col("r.k"));
        let mut j = BnlJoinOp::new(left, right, Some(&pred), c.clone()).unwrap();
        sorted(collect(&mut j))
    };
    assert!(!oracle.is_empty(), "whole-number Float keys must match Int keys");

    let scalar = {
        let c = ctx();
        let left: BoxOp = Box::new(TableScanOp::new(Arc::clone(&l), c.clone()));
        let right: BoxOp = Box::new(TableScanOp::new(Arc::clone(&r), c.clone()));
        let mut j = HashJoinOp::new(left, right, &["l.k"], &["r.k"], c.clone()).unwrap();
        (collect(&mut j), c)
    };
    let batch = {
        let c = ctx();
        let dict = Arc::new(StringDict::new());
        let left: BoxBatchOp = Box::new(BatchScanOp::with_dict(
            Arc::clone(&l),
            0,
            l.nrows(),
            Arc::clone(&dict),
            c.clone(),
        ));
        let right: BoxBatchOp = Box::new(BatchScanOp::with_dict(
            Arc::clone(&r),
            0,
            r.nrows(),
            dict,
            c.clone(),
        ));
        let j: BoxBatchOp =
            Box::new(BatchHashJoinOp::new(left, right, "l.k", "r.k", c.clone()).unwrap());
        let mut rows = BatchRowsOp::boxed(j, c.clone());
        (collect(rows.as_mut()), c)
    };
    assert_eq!(sorted(scalar.0.clone()), oracle, "scalar hash join vs oracle");
    assert_eq!(sorted(batch.0.clone()), oracle, "batch hash join vs oracle");
    assert_rows_and_bits("mixed-key join twins", &scalar, &batch);
}

/// Literal row source whose key column mixes `Int` and `Float` values —
/// the shape that used to hash-split equal keys across partitions.
struct MixedRowsOp {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl Operator for MixedRowsOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn next(&mut self) -> Option<Row> {
        self.rows.next()
    }
}

fn mixed_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let k = if i % 2 == 0 { Value::Int(i % 8) } else { Value::Float((i % 8) as f64) };
            vec![k, Value::Int(i)]
        })
        .collect()
}

#[test]
fn mixed_type_keys_repartition_and_join_identically_at_1_2_and_8_workers() {
    // Repartition a stream whose key column mixes Int(k) and Float(k), then
    // hash-join each partition against a build side keyed by the same mixed
    // values. Correct only if hash_value agrees with total_cmp equality:
    // before the fix, Int(3) and Float(3.0) routed to different partitions
    // and the partition-local joins lost matches.
    let rows_schema = Schema::from_pairs(&[("m.k", DataType::Int), ("m.v", DataType::Int)]);
    let build_side = mixed_rows(64);

    let oracle = {
        let c = ctx();
        let left: BoxOp = Box::new(MixedRowsOp {
            schema: rows_schema.clone(),
            rows: mixed_rows(500).into_iter(),
        });
        let right: BoxOp = Box::new(MixedRowsOp {
            schema: Schema::from_pairs(&[("b.k", DataType::Int), ("b.v", DataType::Int)]),
            rows: build_side.clone().into_iter(),
        });
        let pred = col("m.k").eq(col("b.k"));
        let mut j = BnlJoinOp::new(left, right, Some(&pred), c.clone()).unwrap();
        sorted(collect(&mut j))
    };
    assert!(!oracle.is_empty());

    let mut per_workers = Vec::new();
    for workers in [1usize, 2, 8] {
        let c = ctx();
        let input: BoxOp = Box::new(MixedRowsOp {
            schema: rows_schema.clone(),
            rows: mixed_rows(500).into_iter(),
        });
        let bs = build_side.clone();
        let build = pipeline(move |op, wctx| {
            let right: BoxOp = Box::new(MixedRowsOp {
                schema: Schema::from_pairs(&[("b.k", DataType::Int), ("b.v", DataType::Int)]),
                rows: bs.clone().into_iter(),
            });
            Box::new(HashJoinOp::new(op, right, &["m.k"], &["b.k"], wctx.clone()).unwrap())
                as BoxOp
        });
        let spec = Partitioning::Hash { keys: vec![0], skew: 0.0 };
        let mut ex = ExchangeOp::repartition(input, spec, workers, build, c.clone()).unwrap();
        let got = sorted(collect(&mut ex));
        assert_eq!(got, oracle, "repartitioned join diverged at {workers} workers");
        per_workers.push(got);
    }
    assert!(per_workers.windows(2).all(|w| w[0] == w[1]));
}

// ---------------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------------

fn chaos_scan_cfg() -> ChaosConfig {
    ChaosConfig {
        scan_fault_rate: 0.2,
        scan_max_retries: 16,
        shock_rate: 0.0,
        worker_panic_rate: 0.0,
        worker_stall_rate: 0.0,
        ..ChaosConfig::standard(99)
    }
}

#[test]
fn chaos_scan_faults_hit_batch_and_scalar_identically() {
    // The fault schedule is a pure function of (table, page, attempt), and
    // the batch scan walks the same page boundaries in the same order — so
    // retries, retry charges and rows must all agree exactly.
    let t = orders(2_000);
    let scalar = {
        let c = ctx().with_chaos(ChaosPolicy::new(chaos_scan_cfg()));
        let mut s = TableScanOp::new(Arc::clone(&t), c.clone());
        (collect(&mut s), c)
    };
    let batch = {
        let c = ctx().with_chaos(ChaosPolicy::new(chaos_scan_cfg()));
        let s: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
        let mut rows = BatchRowsOp::boxed(s, c.clone());
        (collect(rows.as_mut()), c)
    };
    assert_rows_and_bits("chaos scan", &scalar, &batch);
    let retries = scalar.1.metrics.counter("chaos.scan_retries").get();
    assert!(retries >= 1, "seed must inject at least one transient fault");
    assert_eq!(retries, batch.1.metrics.counter("chaos.scan_retries").get());
}

#[test]
fn chaos_parallel_batch_scan_matches_scalar_exchange() {
    // Scan faults key on the absolute page index, so the parallel scan's
    // workers retry exactly the pages the sequential row scan retries.
    let t = orders(2_100);
    let chaos = || ctx().with_chaos(ChaosPolicy::new(chaos_scan_cfg()));
    let scalar = {
        let c = chaos();
        gathered(Box::new(TableScanOp::new(Arc::clone(&t), c.clone())), c)
    };
    for workers in [1usize, 2, 8] {
        let got = parallel(&t, workers, pipeline(|op, _| op), chaos());
        assert_rows_and_bits(&format!("chaos exchange x{workers}"), &scalar, &got);
        let retries = got.1.metrics.counter("chaos.scan_retries").get();
        assert!(retries >= 1, "seed must inject at least one transient fault");
        assert_eq!(retries, scalar.1.metrics.counter("chaos.scan_retries").get());
    }
}

#[test]
fn batch_workers_recover_from_injected_panics() {
    let cfg = ChaosConfig {
        worker_panic_rate: 0.5,
        worker_max_retries: 8,
        worker_stall_rate: 0.0,
        scan_fault_rate: 0.0,
        shock_rate: 0.0,
        ..ChaosConfig::standard(42)
    };
    let t = orders(1_050);
    let c = ctx().with_chaos(ChaosPolicy::new(cfg));
    let mut ex = ExchangeOp::parallel_scan(Arc::clone(&t), 4, pipeline(|op, _| op), c.clone())
        .expect("panicked workers must recover within the retry bound");
    let out = collect(&mut ex);
    let expected: Vec<Row> = t.iter_rows().collect();
    assert_eq!(out, expected, "recovery must not lose or reorder rows");
}

// ---------------------------------------------------------------------------
// Planner lowering: every TableScan is a batch pipeline
// ---------------------------------------------------------------------------

/// `o(id Int, amt Float, cat Str)` with 1 000 rows, as a catalog.
fn orders_catalog() -> rqp::Catalog {
    let mut catalog = rqp::Catalog::new();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("amt", DataType::Float),
        ("cat", DataType::Str),
    ]);
    let mut t = Table::new("o", schema);
    for i in 0..1_000i64 {
        t.append(vec![
            Value::Int(i),
            Value::Float(i as f64 * 0.5),
            Value::Str(format!("cat{}", i % 7)),
        ]);
    }
    catalog.add_table(t);
    catalog
}

/// A planner-built scan of `o` under a fresh default context: its rows,
/// the kinds of the spans it opened, and the context.
fn planned_scan(catalog: &rqp::Catalog, filter: Option<Expr>) -> (Vec<Row>, Vec<String>, ExecContext) {
    let plan = rqp::opt::PhysicalPlan::TableScan {
        table: "o".into(),
        filter,
        est_rows: 0.0,
        est_cost: 0.0,
    };
    let c = ctx();
    let rows = plan.build(catalog, &c, None).unwrap().run();
    let kinds = c.tracer.snapshot().iter().map(|s| s.kind.clone()).collect();
    (rows, kinds, c)
}

#[test]
fn the_planner_lowers_every_table_scan_to_the_batch_scan() {
    let catalog = orders_catalog();
    let t = catalog.table("o").unwrap();
    let reference = |pred: &Expr| {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
        let mut f = FilterOp::new(scan, pred, c.clone()).unwrap();
        (collect(&mut f), c)
    };

    let simple = col("o.id").lt(lit(600i64));
    let planned = planned_scan(&catalog, Some(simple.clone()));
    assert_eq!(planned.1, ["batch_scan", "batch_filter", "batch_rows"]);
    assert_rows_and_bits("simple predicate", &reference(&simple), &(planned.0, planned.2));

    // No batch form: the row filter sits above the batch scan's row adapter.
    let complex = col("o.id").lt(col("o.amt"));
    let planned = planned_scan(&catalog, Some(complex.clone()));
    assert_eq!(planned.1, ["batch_scan", "batch_rows", "filter"]);
    assert_rows_and_bits("complex predicate", &reference(&complex), &(planned.0, planned.2));

    let bare = planned_scan(&catalog, None);
    assert_eq!(bare.1, ["batch_scan", "batch_rows"]);
    assert_eq!(bare.0.len(), 1_000);
}

#[test]
fn in_list_and_its_or_phrasing_charge_the_same_bits() {
    // e06's equivalence family: `IN` compiles to the batch filter, its `OR`
    // phrasing takes the row filter. Both charge one compare per examined
    // row, so rows and every cost component must agree to the bit.
    let catalog = orders_catalog();
    let values = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
    let in_list = col("o.id").in_list(values.clone());
    let ors = values
        .into_iter()
        .map(|v| col("o.id").eq(lit(v)))
        .reduce(Expr::or)
        .unwrap();
    assert!(rqp::common::SimplePred::from_expr(&in_list).is_some());
    assert!(rqp::common::SimplePred::from_expr(&ors).is_none());
    let (a, kinds_a, ctx_a) = planned_scan(&catalog, Some(in_list));
    let (b, kinds_b, ctx_b) = planned_scan(&catalog, Some(ors));
    assert!(kinds_a.iter().any(|k| k == "batch_filter"), "{kinds_a:?}");
    assert!(kinds_b.iter().any(|k| k == "filter"), "{kinds_b:?}");
    assert_eq!(a.len(), 3);
    assert_rows_and_bits("IN vs OR", &(a, ctx_a), &(b, ctx_b));
}
