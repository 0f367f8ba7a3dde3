//! Hash aggregation, and the one binding of an aggregation to its input.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
pub use rqp_common::AggFunc;
use rqp_common::{rule, DataType, Field, Result, Row, RqpError, Schema};
use rqp_storage::{GroupTable, IndexKey};
use rqp_telemetry::SpanHandle;

/// One aggregate column specification.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column name (`None` only for COUNT(*)).
    pub col: Option<String>,
    /// Output field name.
    pub alias: String,
}

impl AggSpec {
    /// `COUNT(*) AS alias`
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggSpec { func: AggFunc::Count, col: None, alias: alias.into() }
    }

    /// `func(col) AS alias`
    pub fn on(func: AggFunc, col: impl Into<String>, alias: impl Into<String>) -> Self {
        AggSpec { func, col: Some(col.into()), alias: alias.into() }
    }
}

/// An aggregation bound to its input schema — what the row and batch hash
/// aggregations and the standing view's aggregate stage all build from.
#[derive(Debug, Clone)]
pub struct AggBinding {
    /// Group column positions in the input.
    pub group_cols: Vec<usize>,
    /// `(function, input column position)` per aggregate (`None` for
    /// COUNT(*)).
    pub aggs: Vec<(AggFunc, Option<usize>)>,
    /// The output schema: the group columns' fields, then one field per
    /// aggregate typed by [`AggFunc::output_type`].
    pub schema: Schema,
}

impl AggBinding {
    /// Resolve `group_by` and every aggregate's input column in `input`.
    /// An aggregation needs groups or aggregates.
    pub fn new(input: &Schema, group_by: &[impl AsRef<str>], aggs: &[AggSpec]) -> Result<Self> {
        if aggs.is_empty() && group_by.is_empty() {
            return Err(RqpError::Invalid("aggregation needs groups or aggregates".into()));
        }
        let group_cols: Vec<usize> =
            group_by.iter().map(|c| input.index_of(c.as_ref())).collect::<Result<_>>()?;
        let mut fields: Vec<Field> = group_cols.iter().map(|&i| input.field(i).clone()).collect();
        let mut bound = Vec::with_capacity(aggs.len());
        for a in aggs {
            let col = a.col.as_deref().map(|c| input.index_of(c)).transpose()?;
            let dtype = a.func.output_type(col.map(|i| input.field(i).dtype));
            fields.push(Field::new(a.alias.clone(), dtype));
            bound.push((a.func, col));
        }
        Ok(AggBinding { group_cols, aggs: bound, schema: Schema::new(fields) })
    }

    /// The group columns' types.
    pub fn key_types(&self) -> Vec<DataType> {
        self.schema.fields()[..self.group_cols.len()].iter().map(|f| f.dtype).collect()
    }

    /// The aggregate functions, in output order.
    pub fn funcs(&self) -> impl Iterator<Item = AggFunc> + '_ {
        self.aggs.iter().map(|&(f, _)| f)
    }
}

/// Hash-based GROUP BY aggregation: every input row folds into a
/// [`GroupTable`] at weight +1, and the groups come out in key order
/// (`Value::total_cmp`).
///
/// With no group columns it produces exactly one row (global aggregates),
/// even over empty input (COUNT = 0) — SQL semantics.
pub struct HashAggOp {
    inner: Option<BoxOp>,
    binding: AggBinding,
    ctx: ExecContext,
    out: Option<std::vec::IntoIter<Row>>,
    span: SpanHandle,
}

impl HashAggOp {
    /// Aggregate `inner`, grouping by `group_by` columns.
    pub fn new(
        inner: BoxOp,
        group_by: &[&str],
        aggs: &[AggSpec],
        ctx: ExecContext,
    ) -> Result<Self> {
        let binding = AggBinding::new(inner.schema(), group_by, aggs)?;
        let span = ctx.op_span("hash_agg", &[&inner]);
        Ok(HashAggOp { inner: Some(inner), binding, ctx, out: None, span })
    }

    fn run(&mut self) {
        let mut inner = self.inner.take().expect("run once");
        let AggBinding { group_cols, aggs, .. } = &self.binding;
        let mut table = GroupTable::new(&self.binding.key_types(), self.binding.funcs());
        let mut n = 0.0;
        while let Some(r) = inner.next() {
            n += 1.0;
            let g = table.group(IndexKey::of(&r, group_cols));
            table.add_rows(g, 1);
            for (a, &(_, col)) in aggs.iter().enumerate() {
                table.fold(a, g, col.map(|i| &r[i]), 1);
            }
        }
        let rows = table.finish();
        self.ctx.clock.charge(&rule::hash_agg(n, rows.len() as f64));
        self.out = Some(rows.into_iter());
    }
}

impl Operator for HashAggOp {
    fn schema(&self) -> &Schema {
        &self.binding.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.out.is_none() {
            self.run();
        }
        let row = self.out.as_mut().expect("filled").next();
        match &row {
            Some(_) => self.span.produced(&self.ctx.clock),
            None => self.span.close(&self.ctx.clock),
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use rqp_common::Value;

    fn src() -> BoxOp {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
        // groups 0,1,2 with 3,3,4 rows; v = 10*g + i
        let rows: Vec<Row> = vec![
            (0, 0.0),
            (0, 1.0),
            (0, 2.0),
            (1, 10.0),
            (1, 11.0),
            (1, 12.0),
            (2, 20.0),
            (2, 21.0),
            (2, 22.0),
            (2, 23.0),
        ]
        .into_iter()
        .map(|(g, v)| vec![Value::Int(g), Value::Float(v)])
        .collect();
        RowsOp::boxed(schema, rows)
    }

    #[test]
    fn group_by_with_all_functions() {
        let ctx = ExecContext::unbounded();
        let aggs = vec![
            AggSpec::count_star("n"),
            AggSpec::on(AggFunc::Sum, "v", "s"),
            AggSpec::on(AggFunc::Min, "v", "lo"),
            AggSpec::on(AggFunc::Max, "v", "hi"),
            AggSpec::on(AggFunc::Avg, "v", "avg"),
        ];
        let mut a = HashAggOp::new(src(), &["g"], &aggs, ctx).unwrap();
        let out = collect(&mut a);
        assert_eq!(out.len(), 3);
        // group 0: n=3, s=3, lo=0, hi=2, avg=1
        assert_eq!(out[0][0], Value::Int(0));
        assert_eq!(out[0][1], Value::Int(3));
        assert_eq!(out[0][2], Value::Float(3.0));
        assert_eq!(out[0][3], Value::Float(0.0));
        assert_eq!(out[0][4], Value::Float(2.0));
        assert_eq!(out[0][5], Value::Float(1.0));
        // group 2: n=4, s=86
        assert_eq!(out[2][1], Value::Int(4));
        assert_eq!(out[2][2], Value::Float(86.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("v", DataType::Float)]);
        let aggs = vec![AggSpec::count_star("n"), AggSpec::on(AggFunc::Avg, "v", "a")];
        let mut a =
            HashAggOp::new(RowsOp::boxed(schema, vec![]), &[], &aggs, ctx).unwrap();
        let out = collect(&mut a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(0));
        assert!(out[0][1].is_null());
    }

    #[test]
    fn group_by_empty_input_yields_no_groups() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("g", DataType::Int)]);
        let aggs = vec![AggSpec::count_star("n")];
        let mut a =
            HashAggOp::new(RowsOp::boxed(schema, vec![]), &["g"], &aggs, ctx).unwrap();
        assert!(collect(&mut a).is_empty());
    }

    #[test]
    fn output_deterministically_sorted() {
        let ctx = ExecContext::unbounded();
        let aggs = vec![AggSpec::count_star("n")];
        let mut a = HashAggOp::new(src(), &["g"], &aggs, ctx).unwrap();
        let out = collect(&mut a);
        assert!(out.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn invalid_specs_rejected() {
        let ctx = ExecContext::unbounded();
        assert!(HashAggOp::new(src(), &[], &[], ctx.clone()).is_err());
        let aggs = vec![AggSpec::on(AggFunc::Sum, "nope", "s")];
        assert!(HashAggOp::new(src(), &["g"], &aggs, ctx).is_err());
    }
}
