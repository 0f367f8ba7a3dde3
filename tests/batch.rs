//! Acceptance tests for batch-at-a-time execution: every batch plan must be
//! **row-identical** to its scalar twin and **bit-identical** in its charged
//! cost breakdown under the default cost weights, at 1/2/8 workers, under
//! repartitioning and under chaos injection. The planner lowers scans,
//! single-key hash joins, projections and the aggregations over them to
//! batch pipelines with one row adapter where a row operator takes over, and
//! its plans (TPC-H q1/q3/q5/q6 and the range query under two estimators,
//! also memory-starved, and string-key joins) return the rows, value bits,
//! cost bits and per-node actual rows of the same plans lowered to row
//! operators alone. The parallel scan's workers run the batch scan, and the
//! batch filter runs any predicate on the row filter's truth table: random
//! expression trees (NULL literals, NaN, ±0.0, mixed Int/Float, strings,
//! overflowing arithmetic, AND/OR/NOT) select the same rows and charge the
//! same bits on both. Also the mixed-type key regression: hash joins
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
    ExecContext, FilterOp, GJoinOp, HashAggOp, HashJoinOp, IndexNlJoinOp, IndexScanOp,
    MergeJoinOp, Operator, Partitioning, PipelineBuilder, PopSignal, ProjectOp, SortOp,
    SpanHandle, TableScanOp, TopNOp,
};
use rqp::opt::{JoinEdge, PhysicalPlan};
use rqp::server::{QueryService, ServiceConfig};
use rqp::stats::{CardEstimator, OracleEstimator, StatsEstimator, TableStatsRegistry};
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::common::{rule, CostClock};
use rqp::storage::{ChangeOp, ChangeRecord};
use rqp::stream::ViewCircuit;
use rqp::{Catalog, DataType, Expr, QuerySpec, Row, Schema, Table, Value};
use std::rc::Rc;
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

/// Every value's variant and bits. `Value`'s `Eq` calls `Int(1)` and
/// `Float(1.0)` equal and `-0.0` unequal to `0.0`; bit identity tells all
/// four apart, and each NaN payload from every other.
fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let bits = |v: &Value| match v {
        Value::Null => "null".to_string(),
        Value::Int(x) => format!("int {x}"),
        Value::Float(f) => format!("float {:#018x}", f.to_bits()),
        Value::Str(s) => format!("str {s:?}"),
    };
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
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

/// `p(i Int, f Float, s Str)` over awkward values — the i64 extremes, 2^53
/// and its successor, NaN, ±0.0, ±∞, the empty string — in 2 500 rows, so
/// filters cross batch boundaries and reuse the per-code verdict cache.
fn awkward_table() -> Arc<Table> {
    let ints = [0, 1, -1, 3, 7, i64::MAX, i64::MIN, 1 << 53, (1 << 53) + 1];
    let floats = [0.0, -0.0, 1.5, 3.0, -7.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let strs = ["", "a", "b", "cat3", "zz"];
    let schema =
        Schema::from_pairs(&[("i", DataType::Int), ("f", DataType::Float), ("s", DataType::Str)]);
    let mut t = Table::new("p", schema);
    for r in 0..2_500usize {
        t.append(vec![
            Value::Int(ints[r % ints.len()]),
            Value::Float(floats[(r / 3) % floats.len()]),
            Value::Str(strs[(r / 7) % strs.len()].into()),
        ]);
    }
    Arc::new(t)
}

/// A literal from the awkward pools, NULL included.
fn awkward_value(rng: &mut rand::rngs::StdRng) -> Value {
    use rand::Rng;
    match rng.gen_range(0..10) {
        0 => Value::Null,
        1..=3 => Value::Int([0, 1, 3, -1, i64::MAX, i64::MIN, 1 << 53][rng.gen_range(0..7usize)]),
        4..=6 => {
            Value::Float([0.0, -0.0, 1.5, 3.0, f64::NAN, f64::INFINITY][rng.gen_range(0..6usize)])
        }
        _ => Value::Str(["", "a", "b", "cat3"][rng.gen_range(0..4usize)].into()),
    }
}

/// A random scalar: a column, a literal, arithmetic, or (rarely) a
/// predicate read as a value.
fn random_operand(rng: &mut rand::rngs::StdRng, depth: u32) -> Expr {
    use rand::Rng;
    use rqp::common::expr::ArithOp;
    match rng.gen_range(0..if depth == 0 { 5 } else { 8 }) {
        0 | 1 => col(["p.i", "p.f", "p.s"][rng.gen_range(0..3usize)]),
        2..=4 => lit(awkward_value(rng)),
        5 | 6 => Expr::Arith {
            op: [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][rng.gen_range(0..3usize)],
            lhs: Box::new(random_operand(rng, depth - 1)),
            rhs: Box::new(random_operand(rng, depth - 1)),
        },
        _ => random_predicate(rng, depth - 1),
    }
}

/// A random predicate tree: comparisons, BETWEEN, IN, AND/OR/NOT nesting,
/// and bare scalars read as predicates.
fn random_predicate(rng: &mut rand::rngs::StdRng, depth: u32) -> Expr {
    use rand::Rng;
    use rqp::common::CmpOp;
    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let operand = |rng: &mut rand::rngs::StdRng| random_operand(rng, depth.min(1));
    match rng.gen_range(0..if depth == 0 { 4 } else { 8 }) {
        0 | 1 => Expr::Cmp {
            op: OPS[rng.gen_range(0..6usize)],
            lhs: Box::new(operand(rng)),
            rhs: Box::new(operand(rng)),
        },
        2 => operand(rng).between(awkward_value(rng), awkward_value(rng)),
        3 => {
            let list = (0..rng.gen_range(0..4usize)).map(|_| awkward_value(rng)).collect();
            operand(rng).in_list(list)
        }
        4 => random_predicate(rng, depth - 1).not(),
        5 => random_predicate(rng, depth - 1).and(random_predicate(rng, depth - 1)),
        6 => random_predicate(rng, depth - 1).or(random_predicate(rng, depth - 1)),
        _ => operand(rng),
    }
}

#[test]
fn random_expression_trees_filter_alike_row_and_batch() {
    // The one truth table, two evaluators: the row filter over the row scan
    // and the batch filter over the batch scan keep the same rows and
    // charge the same bits for any predicate that binds. Each tree also
    // runs conjoined with the always-true `p.i = p.i`, so a tree that reads
    // only `p.s` meets the batch evaluator as well as the per-code cache.
    let t = awkward_table();
    let mut kept = [0usize; 2];
    for case in 0..300u64 {
        let mut rng = rqp::common::rng::seeded(rqp::common::rng::child_seed(case, "expr-trees"));
        let tree = random_predicate(&mut rng, 3);
        for pred in [tree.clone(), tree.and(col("p.i").eq(col("p.i")))] {
            let scalar = {
                let c = ctx();
                let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(&t), c.clone()));
                let mut f = FilterOp::new(scan, &pred, c.clone()).unwrap();
                (collect(&mut f), c)
            };
            let batch = {
                let c = ctx();
                let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(&t), c.clone()));
                let f = BatchFilterOp::new(scan, &pred, c.clone()).unwrap();
                let mut rows = BatchRowsOp::boxed(Box::new(f), c.clone());
                (collect(rows.as_mut()), c)
            };
            assert_rows_and_bits(&format!("case {case}: {pred}"), &scalar, &batch);
            kept[(!scalar.0.is_empty()) as usize] += 1;
        }
    }
    assert!(kept.iter().all(|&n| n > 60), "trees keep none / some rows: {kept:?}");
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
        AggSpec::on(AggFunc::Min, "o.cat", "first_cat"),
        AggSpec::on(AggFunc::Max, "o.cat", "last_cat"),
        AggSpec::on(AggFunc::Count, "o.cat", "cats"),
        AggSpec::on(AggFunc::Sum, "o.cat", "cat_sum"),
        AggSpec::on(AggFunc::Avg, "o.cat", "cat_avg"),
    ];
    for group in [&["o.cat"][..], &[][..], &["o.id", "o.cat"][..], &["o.amt", "o.cat"][..]] {
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
        assert_eq!(bits(&scalar.0), bits(&batch.0), "group={group:?}: value bits");
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
// One keyed state, three drivers: row, batch and standing-view aggregation
// ---------------------------------------------------------------------------

/// COUNT(*) and every aggregate function over each of `cols`.
fn every_agg(cols: &[&str]) -> Vec<AggSpec> {
    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
    let each = cols.iter().flat_map(|c| funcs.map(|f| AggSpec::on(f, *c, format!("{f:?}({c})"))));
    std::iter::once(AggSpec::count_star("n")).chain(each).collect()
}

/// `group` × `aggs` over `t` through the row and the batch hash aggregation
/// and a standing view's load: all three finish to the same bits, and the
/// two operators charge the same bits.
fn assert_drivers_agree(t: &Arc<Table>, group: &[&str], aggs: &[AggSpec]) {
    let scalar = {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(Arc::clone(t), c.clone()));
        let mut a = HashAggOp::new(scan, group, aggs, c.clone()).unwrap();
        (collect(&mut a), c)
    };
    let batch = {
        let c = ctx();
        let scan: BoxBatchOp = Box::new(BatchScanOp::new(Arc::clone(t), c.clone()));
        let mut a = BatchHashAggOp::new(scan, group, aggs, c.clone()).unwrap();
        (collect(&mut a), c)
    };
    let label = format!("{} rows, group={group:?}", t.nrows());
    assert_rows_and_bits(&label, &scalar, &batch);
    assert_eq!(bits(&scalar.0), bits(&batch.0), "{label}: row vs batch");
    let spec = QuerySpec::new().table(t.name()).aggregate(group, aggs.to_vec());
    assert_eq!(bits(&scalar.0), bits(&view_of(&spec, &[t])), "{label}: row vs view");
}

/// The schema of the literal rows below: a group column and an input
/// column, declared `Int` and `Float` but holding values of any variant.
fn any_schema() -> Schema {
    Schema::from_pairs(&[("m.g", DataType::Int), ("m.x", DataType::Float)])
}

/// The rows of [`any_schema`] through the row hash aggregation.
fn row_agg(rows: &[Row], aggs: &[AggSpec]) -> Vec<Row> {
    let c = ctx();
    let rows: Vec<Row> = rows.to_vec();
    let src: BoxOp = Box::new(MixedRowsOp { schema: any_schema(), rows: rows.into_iter() });
    let mut a = HashAggOp::new(src, &["m.g"], aggs, c).unwrap();
    collect(&mut a)
}

/// A standing view grouping table `m` (of [`any_schema`]) by `m.g`, fed
/// `changes` as changelog records.
fn view_after(changes: &[(ChangeOp, Row)], aggs: &[AggSpec]) -> Vec<Row> {
    let mut catalog = Catalog::new();
    let columns = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]);
    catalog.add_table(Table::new("m", columns));
    let spec = QuerySpec::new().table("m").aggregate(&["m.g"], aggs.to_vec());
    let mut view = ViewCircuit::compile(&spec, &catalog).unwrap();
    let table: Arc<str> = Arc::from("m");
    let records: Vec<ChangeRecord> = changes
        .iter()
        .enumerate()
        .map(|(epoch, (op, row))| ChangeRecord {
            epoch: epoch as u64,
            table: Arc::clone(&table),
            op: *op,
            row: row.clone(),
        })
        .collect();
    view.apply(&records, &catalog, &CostClock::default_clock()).unwrap();
    view.snapshot()
}

#[test]
fn group_keys_switch_mid_build_alike_on_every_driver() {
    // Typed group keys that switch to `Value` keys mid-build (an `Int` past
    // 2^53 after typed keys), Float keys -0.0, 0.0, a NaN and integral
    // values, string keys and an (Int, Str) pair.
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("x", DataType::Float),
    ]);
    let floats = [-0.0, 0.0, f64::NAN, 2.0, -1.5, 3.0];
    let mut t = Table::new("t", schema);
    for i in 0..300i64 {
        let g = match i {
            200 => (1 << 53) + 1,
            250 => -(1 << 53) - 5,
            _ => i % 4,
        };
        let x = (i % 9) as f64 * 0.25 - 1.0;
        let s = format!("s{}", i % 3);
        t.append(vec![g.into(), floats[i as usize % 6].into(), s.into(), x.into()]);
    }
    let t = Arc::new(t);
    let aggs = every_agg(&["t.x", "t.f", "t.s"]);
    for group in [&["t.g"][..], &["t.f"], &["t.g", "t.s"], &["t.s"], &[]] {
        assert_drivers_agree(&t, group, &aggs);
    }
    // On the row path a group column holds any variant: an `Int` and the
    // equal `Float` (one group, keyed as the first seen), `-0.0` apart from
    // `0` and a NaN on their own, all while the map is typed; then a NULL
    // key that switches it, and `2^53 + 1` beside the equal `Float` 2^53.
    let keys = [
        Value::Int(1),
        Value::Float(1.0),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Null,
        Value::Int((1 << 53) + 1),
        Value::Float(9_007_199_254_740_992.0),
        Value::Int(7),
    ];
    let x = |i: usize| Value::Float(i as f64 * 0.5);
    let rows: Vec<Row> = (0..120).map(|i| vec![keys[i % keys.len()].clone(), x(i)]).collect();
    let aggs = every_agg(&["m.x"]);
    let inserts: Vec<_> = rows.iter().map(|r| (ChangeOp::Insert, r.clone())).collect();
    let row = row_agg(&rows, &aggs);
    assert_eq!(row.len(), 7, "{row:?}");
    for group in &row {
        let naive = rows.iter().filter(|r| r[0] == group[0]).count() as i64;
        assert_eq!(group[1], Value::Int(naive), "{:?}: COUNT(*) vs a nested loop", group[0]);
    }
    assert_eq!(bits(&row), bits(&view_after(&inserts, &aggs)), "row vs view");
}

/// One accumulator, three drivers: seeded values — NULL, NaN, ±0.0, ±inf,
/// Int/Float-equal pairs and strings — fold to the same finished bits for
/// every aggregate function through the row and batch hash aggregations
/// (typed, non-null columns) and a standing view (any value, through the
/// changelog). With retractions, the view finishes as the row aggregation
/// over the surviving rows; those values are dyadic and hold no
/// Int/Float-equal pair, since a retraction keeps the first of equal values.
#[test]
fn one_accumulator_finishes_alike_on_row_batch_and_view() {
    use rand::Rng;
    let ints = [-3i64, 0, 2, 7, 1 << 40];
    let floats = [f64::NAN, -0.0, 0.0, 2.0, 0.25, -1.5, f64::INFINITY, f64::NEG_INFINITY, 1e-300];
    let strs = ["", "a", "b", "ab"];
    let dyadic = [
        Value::Null,
        Value::Int(-3),
        Value::Int(2),
        Value::Float(0.5),
        Value::Float(-1.25),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Str("a".into()),
        Value::Str("b".into()),
    ];
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
    ]);
    let aggs = every_agg(&["t.i", "t.f", "t.s"]);
    let any_aggs = every_agg(&["m.x"]);
    for seed in 0..6 {
        let mut rng = rqp::common::rng::seeded(seed);
        let mut t = Table::new("t", schema.clone());
        for _ in 0..rng.gen_range(0..200) {
            t.append(vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Int(ints[rng.gen_range(0..ints.len())]),
                Value::Float(floats[rng.gen_range(0..floats.len())]),
                Value::Str(strs[rng.gen_range(0..strs.len())].into()),
            ]);
        }
        let t = Arc::new(t);
        for group in [&[][..], &["t.g"], &["t.s", "t.g"]] {
            assert_drivers_agree(&t, group, &aggs);
        }

        // Any variant in one column, NULL included: row and view.
        let any = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::Int(ints[rng.gen_range(0..ints.len())]),
            2 => Value::Float(floats[rng.gen_range(0..floats.len())]),
            3 => Value::Str(strs[rng.gen_range(0..strs.len())].into()),
            4 => Value::Int(2),
            _ => Value::Float(2.0),
        };
        let key = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..5) {
            0 => Value::Null,
            1 => Value::Float(1.0),
            k => Value::Int(k - 1),
        };
        let n = rng.gen_range(0..200);
        let rows: Vec<Row> = (0..n).map(|_| vec![key(&mut rng), any(&mut rng)]).collect();
        let inserts: Vec<_> = rows.iter().map(|r| (ChangeOp::Insert, r.clone())).collect();
        let label = format!("seed {seed}");
        let view = view_after(&inserts, &any_aggs);
        assert_eq!(bits(&row_agg(&rows, &any_aggs)), bits(&view), "{label}");

        // Inserts and retractions of dyadic values.
        let (mut live, mut changes) = (Vec::<Row>::new(), Vec::new());
        for _ in 0..200 {
            if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let row = live.swap_remove(rng.gen_range(0..live.len()));
                changes.push((ChangeOp::Delete, row));
            } else {
                let k = rng.gen_range(0..4);
                let g = if k == 3 { Value::Null } else { Value::Int(k) };
                let row = vec![g, dyadic[rng.gen_range(0..dyadic.len())].clone()];
                live.push(row.clone());
                changes.push((ChangeOp::Insert, row));
            }
        }
        let survivors = bits(&row_agg(&live, &any_aggs));
        assert_eq!(survivors, bits(&view_after(&changes, &any_aggs)), "{label}: retractions");
    }
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
    c.clock.charge(&rule::emit(rows.len() as f64));
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

/// Left side of the switching join: a **Float** probe key cycling through
/// `-0.0`, `0.0`, a NaN, integral values, a fraction, `2^53` and `1e300`.
fn switch_left(n: usize) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Float), ("v", DataType::Int)]);
    let keys = [-0.0, 0.0, f64::NAN, 2.0, 2.5, 9_007_199_254_740_992.0, 5.0, 1e300];
    let mut t = Table::new("l", schema);
    for i in 0..n {
        t.append(vec![Value::Float(keys[i % keys.len()]), Value::Int(i as i64)]);
    }
    Arc::new(t)
}

/// Right side of the switching join: an **Int** build key whose first rows
/// fit the typed key map, then `2^53 + 1` (equal to the Float `2^53`) and
/// `-(2^53) - 3`, which switch it to `Value` keys mid-build, then small
/// keys again.
fn switch_right(n: usize) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]);
    let mut t = Table::new("r", schema);
    for i in 0..n as i64 {
        let k = match i {
            40 => (1 << 53) + 1,
            41 => -(1 << 53) - 3,
            _ => i % 8,
        };
        t.append(vec![Value::Int(k), Value::Int(i + 1000)]);
    }
    Arc::new(t)
}

/// A standing view of `spec` over `tables`, loaded: its rows, canonically
/// ordered.
fn view_of(spec: &QuerySpec, tables: &[&Arc<Table>]) -> Vec<Row> {
    let mut catalog = Catalog::new();
    for t in tables {
        catalog.add_table(Table::clone(t));
    }
    let mut view = ViewCircuit::compile(spec, &catalog).unwrap();
    view.load_initial(&catalog, &CostClock::default_clock()).unwrap();
    view.snapshot()
}

#[test]
fn mixed_type_key_join_matches_nested_loop_oracle_on_both_paths() {
    // Int ⋈ Float keys; then Float probes against an Int build side whose
    // key map stays typed, and against one that switches to `Value` keys
    // mid-build.
    let pairs = [
        (mixed_left(400), mixed_right(300)),
        (switch_left(400), switch_right(40)),
        (switch_left(400), switch_right(60)),
    ];
    for (l, r) in pairs {
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
        let view = view_of(&QuerySpec::new().join("l", "k", "r", "k"), &[&l, &r]);
        assert_eq!(bits(&sorted(scalar.0.clone())), bits(&oracle), "scalar hash join vs oracle");
        assert_eq!(bits(&sorted(batch.0.clone())), bits(&oracle), "batch hash join vs oracle");
        assert_eq!(bits(&view), bits(&oracle), "standing join view vs oracle");
        assert_rows_and_bits("mixed-key join twins", &scalar, &batch);
    }
    // A string key never equals a number, though its dictionary code is an
    // integer: order ids 0..5 meet the codes of the five category names.
    let (o, cs) = (orders(50), cats());
    let scalar = {
        let c = ctx();
        let left: BoxOp = Box::new(TableScanOp::new(Arc::clone(&o), c.clone()));
        let right: BoxOp = Box::new(TableScanOp::new(Arc::clone(&cs), c.clone()));
        let mut j = HashJoinOp::new(left, right, &["o.id"], &["c.cat"], c.clone()).unwrap();
        (collect(&mut j), c)
    };
    let batch = {
        let c = ctx();
        let dict = Arc::new(StringDict::new());
        let left: BoxBatchOp =
            Box::new(BatchScanOp::with_dict(Arc::clone(&o), 0, 50, Arc::clone(&dict), c.clone()));
        let right: BoxBatchOp =
            Box::new(BatchScanOp::with_dict(Arc::clone(&cs), 0, 5, dict, c.clone()));
        let j: BoxBatchOp =
            Box::new(BatchHashJoinOp::new(left, right, "o.id", "c.cat", c.clone()).unwrap());
        let mut rows = BatchRowsOp::boxed(j, c.clone());
        (collect(rows.as_mut()), c)
    };
    assert!(scalar.0.is_empty());
    assert_rows_and_bits("string key against numbers", &scalar, &batch);
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
// Planner lowering: batch pipelines with one row adapter per pipeline
// ---------------------------------------------------------------------------

fn refs(names: &[String]) -> Vec<&str> {
    names.iter().map(String::as_str).collect()
}

/// The row lowering of `plan`: every node out of its row twin, the
/// reference the planner's batch pipelines must match. Pushes each node's
/// `(label, span)` in post-order, as `PhysicalPlan::build` pushes meters.
fn row_lowering(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    c: &ExecContext,
    meters: &mut Vec<(String, SpanHandle)>,
) -> BoxOp {
    use PhysicalPlan::*;
    let keys = |edges: &[JoinEdge], left: bool| -> Vec<String> {
        let key = |e: &JoinEdge| if left { e.left_qualified() } else { e.right_qualified() };
        edges.iter().map(key).collect()
    };
    let filtered = |op: BoxOp, pred: &Option<Expr>| -> BoxOp {
        match pred {
            Some(p) => Box::new(FilterOp::new(op, p, c.clone()).unwrap()),
            None => op,
        }
    };
    let op: BoxOp = match plan {
        TableScan { table, filter, .. } => {
            let scan = Box::new(TableScanOp::new(catalog.table(table).unwrap(), c.clone()));
            filtered(scan, filter)
        }
        IndexScan { table, index, prefix, lo, hi, residual, .. } => {
            let (ix, t) = (catalog.index(index).unwrap(), catalog.table(table).unwrap());
            let (p, lo, hi) = (prefix.clone(), lo.clone(), hi.clone());
            filtered(Box::new(IndexScanOp::new(ix, t, p, lo, hi, c.clone())), residual)
        }
        HashJoin { left, right, edges, .. } => {
            let l = row_lowering(left, catalog, c, meters);
            let r = row_lowering(right, catalog, c, meters);
            let (lk, rk) = (keys(edges, true), keys(edges, false));
            Box::new(HashJoinOp::new(l, r, &refs(&lk), &refs(&rk), c.clone()).unwrap())
        }
        MergeJoin { left, right, edges, sort_left, sort_right, .. } => {
            let mut l = row_lowering(left, catalog, c, meters);
            let mut r = row_lowering(right, catalog, c, meters);
            let (lk, rk) = (keys(edges, true), keys(edges, false));
            if *sort_left {
                l = Box::new(SortOp::asc(l, &refs(&lk), c.clone()).unwrap());
            }
            if *sort_right {
                r = Box::new(SortOp::asc(r, &refs(&rk), c.clone()).unwrap());
            }
            Box::new(MergeJoinOp::new(l, r, &refs(&lk), &refs(&rk), c.clone()).unwrap())
        }
        GJoin { left, right, edges, left_sorted, right_sorted, .. } => {
            let l = row_lowering(left, catalog, c, meters);
            let r = row_lowering(right, catalog, c, meters);
            let (lk, rk) = (keys(edges, true), keys(edges, false));
            let (ls, rs) = (*left_sorted, *right_sorted);
            Box::new(
                GJoinOp::new(l, r, &refs(&lk), &refs(&rk), ls, rs, None, c.clone()).unwrap(),
            )
        }
        IndexNlJoin { outer, inner_table, inner_index, edge, inner_residual, .. } => {
            let o = row_lowering(outer, catalog, c, meters);
            let ix = catalog.index(inner_index).unwrap();
            let t = catalog.table(inner_table).unwrap();
            let key = edge.left_qualified();
            let join = IndexNlJoinOp::new(o, &key, ix, t, c.clone()).unwrap();
            filtered(Box::new(join), inner_residual)
        }
        Check { .. } => panic!("the reference runs no POP checkpoint"),
        Aggregate { input, group_by, aggs, .. } => {
            let i = row_lowering(input, catalog, c, meters);
            Box::new(HashAggOp::new(i, &refs(group_by), aggs, c.clone()).unwrap())
        }
        Sort { input, keys, .. } => {
            let i = row_lowering(input, catalog, c, meters);
            Box::new(SortOp::asc(i, &refs(keys), c.clone()).unwrap())
        }
        TopN { input, keys, n, .. } => {
            let i = row_lowering(input, catalog, c, meters);
            let ks: Vec<_> =
                keys.iter().map(|k| (k.as_str(), rqp::exec::sort::SortOrder::Asc)).collect();
            Box::new(TopNOp::new(i, &ks, *n, c.clone()).unwrap())
        }
        Project { input, columns, .. } => {
            let i = row_lowering(input, catalog, c, meters);
            Box::new(ProjectOp::columns(i, &refs(columns), c.clone()).unwrap())
        }
    };
    meters.push((plan.fingerprint(), op.span().unwrap().clone()));
    op
}

/// Run `plan` through `PhysicalPlan::build` and through the row lowering,
/// each under a fresh context with `memory_rows` of workspace, and assert
/// the same rows in the same order, bit for bit, the same cost bits and the
/// same `(label, rows_out)` for every meter. Returns the rows spilled.
fn assert_planned_matches_rows(
    label: &str,
    plan: &PhysicalPlan,
    catalog: &Catalog,
    memory_rows: f64,
) -> f64 {
    let fresh = || ExecContext::with_memory(memory_rows);
    let (planned, planned_meters) = {
        let c = fresh();
        let mut built = plan.build(catalog, &c, None).unwrap();
        let rows = built.run();
        let meters: Vec<_> =
            built.meters.iter().map(|m| (m.label.clone(), m.actual_rows())).collect();
        ((rows, c), meters)
    };
    let (reference, reference_meters) = {
        let c = fresh();
        let mut spans = Vec::new();
        let mut root = row_lowering(plan, catalog, &c, &mut spans);
        let rows = collect(root.as_mut());
        let meters: Vec<_> = spans.iter().map(|(l, s)| (l.clone(), s.rows() as usize)).collect();
        ((rows, c), meters)
    };
    let label = format!("{label}: {}", plan.fingerprint());
    assert_rows_and_bits(&label, &reference, &planned);
    assert_eq!(bits(&reference.0), bits(&planned.0), "{label}: value bits");
    assert_eq!(reference_meters, planned_meters, "{label}: per-node actual rows");
    for (_, c) in [&reference, &planned] {
        assert_eq!(c.memory.outstanding(), 0.0, "{label}: a workspace grant outlived the plan");
    }
    planned.1.clock.breakdown().spill
}

#[test]
fn planned_pipelines_match_the_row_lowering_bit_for_bit() {
    for seed in [3u64, 17, 42] {
        let db = TpchDb::build(TpchParams { lineitem_rows: 20_000, ..Default::default() }, seed);
        let catalog = &db.catalog;
        let registry = Rc::new(TableStatsRegistry::analyze_catalog(catalog, 32));
        let estimators: [(&str, Box<dyn CardEstimator>); 2] = [
            ("stats", Box::new(StatsEstimator::new(registry))),
            ("oracle", Box::new(OracleEstimator::new(Rc::new(catalog.clone())))),
        ];
        let s = seed as i64;
        let specs = [
            db.q1(30 + s),
            db.q3(s % 5, 400 + 10 * s),
            db.q5(s % 10, s % 10 + 8, 100 + s),
            db.q6(300 + s, 0.05, 30),
            db.range_query(0.02 * (1 + s % 4) as f64),
        ];
        let (mut batch_joins, mut spill) = (0, 0.0);
        for (name, est) in &estimators {
            for spec in &specs {
                let plan = rqp::opt::plan(spec, catalog, est.as_ref(), Default::default()).unwrap();
                batch_joins += plan.fingerprint().matches("hj(").count();
                let label = format!("seed {seed} {name}");
                assert_planned_matches_rows(&label, &plan, catalog, f64::INFINITY);
                // Memory-starved: build-side grants and spills are compared too.
                let starved = format!("{label} starved");
                spill += assert_planned_matches_rows(&starved, &plan, catalog, 64.0);
            }
        }
        assert!(batch_joins > 0, "seed {seed}: no hash join was planned");
        assert!(spill > 0.0, "seed {seed}: the starved runs never spilled");
    }
}

/// `o(id Int, amt Float, cat Str)` with 1 000 rows and an index on `o.id`,
/// and `c(cat Str, tax Float, id Int)` with 5 rows, as a catalog.
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
    let schema = Schema::from_pairs(&[
        ("cat", DataType::Str),
        ("tax", DataType::Float),
        ("id", DataType::Int),
    ]);
    let mut c = Table::new("c", schema);
    for i in 0..5i64 {
        let (cat, tax) = (Value::Str(format!("cat{i}")), Value::Float(i as f64 * 0.125));
        c.append(vec![cat, tax, Value::Int(i)]);
    }
    catalog.add_table(c);
    catalog.create_index("ix_o_id", "o", &["id"]).unwrap();
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

    // Column against column: the same one shape, the row filter's rows and bits.
    let complex = col("o.id").lt(col("o.amt"));
    let planned = planned_scan(&catalog, Some(complex.clone()));
    assert_eq!(planned.1, ["batch_scan", "batch_filter", "batch_rows"]);
    assert_rows_and_bits("complex predicate", &reference(&complex), &(planned.0, planned.2));

    let bare = planned_scan(&catalog, None);
    assert_eq!(bare.1, ["batch_scan", "batch_rows"]);
    assert_eq!(bare.0.len(), 1_000);

    // Joins and aggregates: one batch pipeline, and one adapter where a row
    // operator (or the caller) takes its rows over.
    let scan = |table: &str, filter| PhysicalPlan::TableScan {
        table: table.into(),
        filter,
        est_rows: 0.0,
        est_cost: 0.0,
    };
    // `o` is the build side: more rows than the one-page grant floor, so a
    // starved run spills.
    let hj = |edges: Vec<JoinEdge>| PhysicalPlan::HashJoin {
        left: Box::new(scan("c", None)),
        right: Box::new(scan("o", Some(simple.clone()))),
        edges,
        est_rows: 0.0,
        est_cost: 0.0,
    };
    let on_cat = || vec![JoinEdge::new("c", "cat", "o", "cat")];
    let kinds = |plan: &PhysicalPlan| {
        let c = ctx();
        let rows = plan.build(&catalog, &c, Some(PopSignal::new())).unwrap().run();
        assert!(!rows.is_empty(), "{}: no rows", plan.fingerprint());
        c.tracer.snapshot().iter().map(|s| s.kind.clone()).collect::<Vec<_>>()
    };
    // A string join key, keyed by the plan's one dictionary; also starved.
    let starved = |label: &str, plan: &PhysicalPlan| {
        let spill = assert_planned_matches_rows(label, plan, &catalog, 2.0);
        assert!(spill > 0.0, "{label}: the starved run never spilled");
    };
    let join = hj(on_cat());
    let pipeline = ["batch_scan", "batch_scan", "batch_filter", "batch_hash_join"];
    assert_eq!(kinds(&join), [&pipeline[..], &["batch_rows"]].concat());
    assert_planned_matches_rows("hj", &join, &catalog, f64::INFINITY);
    starved("hj starved", &join);

    let agg = PhysicalPlan::Aggregate {
        input: Box::new(join.clone()),
        group_by: vec!["c.cat".into()],
        aggs: vec![AggSpec::count_star("n"), AggSpec::on(AggFunc::Sum, "o.amt", "s")],
        est_rows: 0.0,
        est_cost: 0.0,
    };
    assert_eq!(kinds(&agg), [&pipeline[..], &["batch_hash_agg"]].concat());
    assert_planned_matches_rows("agg(hj)", &agg, &catalog, f64::INFINITY);
    starved("agg(hj) starved", &agg);

    // A two-edge hash join stays a row join: each batch input gets its own
    // adapter.
    let two_edges =
        hj(vec![JoinEdge::new("c", "cat", "o", "cat"), JoinEdge::new("c", "id", "o", "id")]);
    assert_eq!(
        kinds(&two_edges),
        ["batch_scan", "batch_rows", "batch_scan", "batch_filter", "batch_rows", "hash_join"]
    );
    assert_planned_matches_rows("two-edge hj", &two_edges, &catalog, f64::INFINITY);

    // Row consumers: POP's CHECK over the batch join, and an index
    // nested-loop join probing `o` for each row of a `c` pipeline.
    let check = PhysicalPlan::Check {
        input: Box::new(join),
        id: 0,
        validity: (0.0, f64::INFINITY),
        est_rows: 0.0,
        est_cost: 0.0,
    };
    assert_eq!(kinds(&check), [&pipeline[..], &["batch_rows", "check"]].concat());
    let inl = PhysicalPlan::IndexNlJoin {
        outer: Box::new(scan("c", None)),
        inner_table: "o".into(),
        inner_index: "ix_o_id".into(),
        edge: JoinEdge::new("c", "id", "o", "id"),
        inner_residual: None,
        inner_clustered: true,
        est_rows: 0.0,
        est_cost: 0.0,
    };
    assert_eq!(kinds(&inl), ["batch_scan", "batch_rows", "index_nl_join"]);
    assert_planned_matches_rows("inl", &inl, &catalog, f64::INFINITY);

    // Served TPC-H q3/q5, and a join served with no operator above it (the
    // shape of e19's plans): every plan-node span carries its label, the
    // top of a pipeline under its row adapter as well as the adapter.
    let db = TpchDb::build(TpchParams { lineitem_rows: 4_000, ..Default::default() }, 42);
    let svc = QueryService::new(&db.catalog, ServiceConfig::default());
    let root_join = QuerySpec::new()
        .join("lineitem", "returnflag", "customer", "mktsegment")
        .filter("customer", col("customer.nationkey").lt(lit(2i64)));
    for spec in [db.q3(1, 400), db.q5(0, 10, 100), root_join] {
        svc.run_solo(&spec).unwrap();
    }
    let spans = svc.tracer().snapshot();
    let nodes: Vec<_> = spans.iter().filter(|s| s.kind != "query").collect();
    let adapters: Vec<usize> =
        nodes.iter().filter(|s| s.kind == "batch_rows").map(|s| s.id).collect();
    assert!(
        nodes.iter().any(|s| {
            s.kind == "batch_hash_join" && s.parent.is_some_and(|p| adapters.contains(&p))
        }),
        "no join was served under an adapter"
    );
    for s in &nodes {
        assert!(!s.detail.is_empty(), "an unlabeled {} span (id {})", s.kind, s.id);
    }
}

#[test]
fn in_list_and_its_or_phrasing_charge_the_same_bits() {
    // e06's equivalence family: `IN` and its `OR` phrasing both run in the
    // batch filter, which charges one compare per examined row whatever the
    // predicate's shape, so rows and every cost component agree to the bit,
    // with each other and with the row filter.
    let catalog = orders_catalog();
    let values = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
    let in_list = col("o.id").in_list(values.clone());
    let ors = values
        .into_iter()
        .map(|v| col("o.id").eq(lit(v)))
        .reduce(Expr::or)
        .unwrap();
    let reference = {
        let c = ctx();
        let scan: BoxOp = Box::new(TableScanOp::new(catalog.table("o").unwrap(), c.clone()));
        let mut f = FilterOp::new(scan, &ors, c.clone()).unwrap();
        (collect(&mut f), c)
    };
    let (a, kinds_a, ctx_a) = planned_scan(&catalog, Some(in_list));
    let (b, kinds_b, ctx_b) = planned_scan(&catalog, Some(ors));
    for kinds in [&kinds_a, &kinds_b] {
        assert_eq!(kinds, &["batch_scan", "batch_filter", "batch_rows"]);
    }
    assert_eq!(a.len(), 3);
    assert_rows_and_bits("IN vs row OR", &reference, &(a.clone(), ctx_a.clone()));
    assert_rows_and_bits("IN vs OR", &(a, ctx_a), &(b, ctx_b));
}
