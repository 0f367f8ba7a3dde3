//! Progressive optimization (POP), [`ExecutionMode::Pop`](crate::run::ExecutionMode::Pop).
//!
//! The driver:
//!
//! 1. plans the query with the (possibly wrong) estimator;
//! 2. instruments the plan: a CHECK with a validity range is inserted above
//!    every join and every filtered base access that feeds a join;
//! 3. executes; if a CHECK fires, the materialized intermediate becomes a
//!    temporary base table with *actual* statistics, the remaining query is
//!    rewritten over it, and planning restarts (the estimator keeps its
//!    biases for untouched tables — exactly the POP setting);
//! 4. repeats up to `max_reopts` times; the final round runs without a
//!    halt-on-violation so the query always terminates.

use crate::run::{run_plan, Execution, PlanInputs};
use crate::validity::threshold_range;
use crate::{plan as plan_query, JoinEdge, PhysicalPlan, QuerySpec};
use rqp_common::{Result, RqpError};
use rqp_exec::{ExecContext, PopSignal};
use rqp_stats::TableStats;
use rqp_storage::Table;
use std::collections::HashMap;
use std::rc::Rc;

/// One round a CHECK halted.
#[derive(Debug, Clone)]
pub struct PopRound {
    /// Cost charged during this round (including materializations).
    pub cost: f64,
    /// The checkpoint that fired: `(id, estimated, actual, reused_rows)`.
    pub violation: (usize, f64, usize, usize),
    /// Fingerprint of the plan executed this round.
    pub plan_fingerprint: String,
}

/// Execute `spec` with POP enabled.
pub(crate) fn run(
    spec: &QuerySpec,
    inputs: &PlanInputs<'_>,
    theta: f64,
    max_reopts: usize,
    ctx: &ExecContext,
) -> Result<Execution> {
    if theta < 1.0 {
        return Err(RqpError::Invalid("POP theta must be ≥ 1".into()));
    }
    let mut cur_spec = spec.clone();
    let mut cur_catalog = inputs.catalog.clone();
    let mut cur_registry = inputs.registry.clone();
    let mut rounds: Vec<PopRound> = Vec::new();
    let mut total_cost = 0.0;

    for round in 0..=max_reopts {
        let est = inputs.estimator(&Rc::new(cur_registry.clone()));
        let plan = plan_query(&cur_spec, &cur_catalog, est.as_ref(), inputs.config)?;
        let (plan, checkpoints) =
            if round < max_reopts { instrument(plan, theta) } else { (plan, HashMap::new()) };
        let signal = PopSignal::new();
        let mut exec = run_plan(&plan, &cur_catalog, Some(Rc::clone(&signal)), ctx)?;
        total_cost += exec.cost;

        let Some(v) = signal.take() else {
            exec.cost = total_cost;
            exec.rounds = rounds;
            return Ok(exec);
        };
        let info = checkpoints.get(&v.checkpoint_id).ok_or_else(|| {
            RqpError::Execution(format!("unknown checkpoint {} fired", v.checkpoint_id))
        })?;
        rounds.push(PopRound {
            cost: exec.cost,
            violation: (v.checkpoint_id, v.estimated_rows, v.actual_rows, v.buffer.len()),
            plan_fingerprint: exec.plan_fingerprint,
        });
        ctx.metrics.counter("pop.reoptimizations").inc();
        // Materialize the intermediate as a temp base table with actual
        // statistics, rewrite the remaining query over it.
        let temp_name = format!("__pop_tmp{round}");
        let mut temp = Table::new(temp_name.clone(), v.schema.clone());
        temp.extend(v.buffer);
        let stats = TableStats::analyze(&temp, 32);
        cur_registry.insert(temp_name.clone(), stats);
        cur_catalog.add_table(temp);
        cur_spec = rewrite_spec(&cur_spec, &info.tables, &temp_name)?;
    }
    unreachable!("final round runs unchecked and returns")
}

/// Subtree metadata per checkpoint.
struct CheckpointInfo {
    tables: Vec<String>,
}

/// Insert CHECK operators above every join node and every filtered base
/// access that feeds a join. Returns the instrumented plan and the
/// checkpoint registry.
fn instrument(plan: PhysicalPlan, theta: f64) -> (PhysicalPlan, HashMap<usize, CheckpointInfo>) {
    let mut map = HashMap::new();
    let mut next_id = 0usize;
    let out = walk(plan, theta, false, &mut next_id, &mut map);
    (out, map)
}

/// A stand-in while a node is moved out of its parent.
fn hole() -> PhysicalPlan {
    PhysicalPlan::TableScan { table: String::new(), filter: None, est_rows: 0.0, est_cost: 0.0 }
}

fn walk(
    mut plan: PhysicalPlan,
    theta: f64,
    feeds_join: bool,
    next_id: &mut usize,
    map: &mut HashMap<usize, CheckpointInfo>,
) -> PhysicalPlan {
    use PhysicalPlan::*;
    let join =
        matches!(plan, HashJoin { .. } | MergeJoin { .. } | GJoin { .. } | IndexNlJoin { .. });
    if !matches!(plan, Check { .. }) {
        for input in plan.inputs_mut() {
            let child = std::mem::replace(&mut **input, hole());
            **input = walk(child, theta, join, next_id, map);
        }
    }
    // Wrap if this node feeds a join and its cardinality is estimated:
    // joins always; base accesses only when filtered (unfiltered scans have
    // exact cardinalities).
    let wrap = feeds_join
        && match &plan {
            TableScan { filter, .. } => filter.is_some(),
            IndexScan { .. } => true,
            _ => join,
        };
    if !wrap {
        return plan;
    }
    let id = *next_id;
    *next_id += 1;
    map.insert(id, CheckpointInfo { tables: plan.tables() });
    let est_rows = plan.est_rows();
    let est_cost = plan.est_cost();
    PhysicalPlan::Check {
        input: Box::new(plan),
        id,
        validity: threshold_range(est_rows, theta),
        est_rows,
        est_cost,
    }
}

/// Rewrite `spec` replacing the `covered` tables with the temp table.
fn rewrite_spec(spec: &QuerySpec, covered: &[String], temp: &str) -> Result<QuerySpec> {
    let mut out = QuerySpec {
        tables: Vec::new(),
        local_preds: HashMap::new(),
        joins: Vec::new(),
        projections: spec.projections.clone(),
        group_by: spec.group_by.clone(),
        aggs: spec.aggs.clone(),
        order_by: spec.order_by.clone(),
        limit: spec.limit,
    };
    out.tables.push(temp.to_owned());
    for t in &spec.tables {
        if !covered.contains(t) {
            out.tables.push(t.clone());
            if let Some(p) = spec.local_preds.get(t) {
                out.local_preds.insert(t.clone(), p.clone());
            }
        }
    }
    for e in &spec.joins {
        let l_cov = covered.contains(&e.left_table);
        let r_cov = covered.contains(&e.right_table);
        match (l_cov, r_cov) {
            (true, true) => {} // already applied inside the intermediate
            (false, false) => out.joins.push(e.clone()),
            (true, false) => out.joins.push(JoinEdge::new(
                temp,
                qualified(&e.left_table, &e.left_col),
                e.right_table.clone(),
                e.right_col.clone(),
            )),
            (false, true) => out.joins.push(JoinEdge::new(
                e.left_table.clone(),
                e.left_col.clone(),
                temp,
                qualified(&e.right_table, &e.right_col),
            )),
        }
    }
    if out.tables.len() > 1 && out.joins.is_empty() {
        return Err(RqpError::Planning(
            "POP rewrite produced a disconnected query".into(),
        ));
    }
    Ok(out)
}

fn qualified(table: &str, col: &str) -> String {
    if col.contains('.') {
        col.to_owned()
    } else {
        format!("{table}.{col}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{execute, EstimatorWrapper, ExecutionMode};
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_stats::{LyingEstimator, TableStatsRegistry};
    use rqp_storage::Catalog;

    /// fact(5000) ⋈ dim1(100) ⋈ dim2(50); fact.v filter with controllable
    /// real selectivity.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("v", DataType::Int),
        ]);
        let mut fact = Table::new("fact", schema);
        for i in 0..5000i64 {
            fact.append(vec![Value::Int(i % 100), Value::Int(i % 50), Value::Int(i % 1000)]);
        }
        c.add_table(fact);
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]);
        let mut d1 = Table::new("dim1", schema.clone());
        for i in 0..100i64 {
            d1.append(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        c.add_table(d1);
        let mut d2 = Table::new("dim2", schema);
        for i in 0..50i64 {
            d2.append(vec![Value::Int(i), Value::Int(i % 3)]);
        }
        c.add_table(d2);
        c.create_index("ix_d1", "dim1", &["k"]).unwrap();
        c.create_index("ix_d2", "dim2", &["k"]).unwrap();
        c
    }

    fn spec() -> QuerySpec {
        QuerySpec::new()
            .join("fact", "d1", "dim1", "k")
            .join("fact", "d2", "dim2", "k")
            .filter("fact", col("fact.v").lt(lit(600i64)))
    }

    fn registry(c: &Catalog) -> TableStatsRegistry {
        TableStatsRegistry::analyze_catalog(c, 32)
    }

    /// Under-estimates `fact`'s filter by `factor`.
    fn lie(factor: f64) -> Box<EstimatorWrapper<'static>> {
        Box::new(move |e| Box::new(LyingEstimator::new(e).with_table_factor("fact", factor)))
    }

    fn pop(theta: f64, max_reopts: usize) -> ExecutionMode {
        ExecutionMode::Pop { theta, max_reopts }
    }

    #[test]
    fn accurate_estimates_never_reoptimize() {
        let c = catalog();
        let reg = registry(&c);
        let ctx = ExecContext::unbounded();
        let inputs = PlanInputs::new(&c, &reg);
        let report = execute(&spec(), &inputs, ExecutionMode::pop(), &ctx).unwrap();
        assert_eq!(report.reoptimizations(), 0);
        assert_eq!(report.rows.len(), 3000, "fact.v < 600 → 3000 rows");
    }

    #[test]
    fn injected_underestimate_triggers_reoptimization() {
        let c = catalog();
        let reg = registry(&c);
        let ctx = ExecContext::unbounded();
        // Lie: fact filter is 100× less selective than estimated.
        let wrap = lie(0.01);
        let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&c, &reg) };
        let report = execute(&spec(), &inputs, pop(4.0, 3), &ctx).unwrap();
        assert!(report.reoptimizations() >= 1, "violation must fire");
        assert_eq!(report.rows.len(), 3000, "answer unchanged by POP");
        let v = report.rounds[0].violation;
        assert!(v.2 > v.1 as usize, "actual exceeded estimate");
        assert!(v.3 > 0, "intermediate was preserved for reuse");
    }

    #[test]
    fn pop_beats_standard_under_bad_estimates() {
        let c = catalog();
        let reg = registry(&c);
        // Force a terrible plan: the optimizer believes the fact filter
        // keeps ~0 rows, so it drives nested probing; actually 3000 survive.
        let wrap = lie(0.0002);
        let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&c, &reg) };
        let std = execute(&spec(), &inputs, ExecutionMode::Static, &ExecContext::unbounded())
            .unwrap();
        let report = execute(&spec(), &inputs, pop(4.0, 3), &ExecContext::unbounded()).unwrap();
        assert_eq!(std.rows.len(), report.rows.len());
        // POP should not be dramatically worse, and usually better; with
        // this workload shape (INL driven by a 100× underestimate) it wins.
        assert!(
            report.cost < std.cost * 1.5,
            "POP {:.1} vs standard {:.1}",
            report.cost,
            std.cost
        );
    }

    #[test]
    fn max_reopts_bounds_rounds() {
        let c = catalog();
        let reg = registry(&c);
        let ctx = ExecContext::unbounded();
        let wrap = lie(0.0001);
        let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&c, &reg) };
        let report = execute(&spec(), &inputs, pop(2.0, 2), &ctx).unwrap();
        assert!(report.reoptimizations() <= 2);
        assert_eq!(report.rows.len(), 3000);
    }

    #[test]
    fn rejects_bad_theta() {
        let c = catalog();
        let reg = registry(&c);
        let ctx = ExecContext::unbounded();
        assert!(execute(&spec(), &PlanInputs::new(&c, &reg), pop(0.5, 1), &ctx).is_err());
    }

    #[test]
    fn rewrite_spec_covers_partial_join() {
        let s = spec();
        let covered = vec!["fact".to_string(), "dim1".to_string()];
        let out = rewrite_spec(&s, &covered, "__tmp").unwrap();
        assert_eq!(out.tables[0], "__tmp");
        assert!(out.tables.contains(&"dim2".to_string()));
        assert_eq!(out.joins.len(), 1);
        assert_eq!(out.joins[0].left_table, "__tmp");
        assert_eq!(out.joins[0].left_col, "fact.d2");
        assert!(out.local_preds.is_empty(), "fact's pred already applied");
    }
}
