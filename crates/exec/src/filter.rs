//! Filter and project operators.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rqp_common::expr::BoundExpr;
use rqp_common::{rule, Expr, Result, Row, Schema};
use rqp_telemetry::SpanHandle;

/// Filters rows by a predicate.
pub struct FilterOp {
    inner: BoxOp,
    bound: BoundExpr,
    ctx: ExecContext,
    schema: Schema,
    span: SpanHandle,
}

impl FilterOp {
    /// Filter `inner` by `pred` (bound against the inner schema).
    pub fn new(inner: BoxOp, pred: &Expr, ctx: ExecContext) -> Result<Self> {
        let schema = inner.schema().clone();
        let bound = pred.bind(&schema)?;
        let span = ctx.op_span("filter", &[&inner]);
        span.set_detail(&pred.to_string());
        Ok(FilterOp { inner, bound, ctx, schema, span })
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        loop {
            let Some(row) = self.inner.next() else {
                self.span.close(&self.ctx.clock);
                return None;
            };
            self.ctx.clock.charge(&rule::filter(1.0));
            if self.bound.eval_bool(&row) {
                self.span.produced(&self.ctx.clock);
                return Some(row);
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Projects (and computes) output expressions.
pub struct ProjectOp {
    inner: BoxOp,
    exprs: Vec<BoundExpr>,
    schema: Schema,
    ctx: ExecContext,
    span: SpanHandle,
}

impl ProjectOp {
    /// Project `inner` to the named expressions. `names` supplies the output
    /// field names (same length as `exprs`); output types are taken from a
    /// best-effort inference (column refs keep their type, computed
    /// expressions are typed FLOAT).
    pub fn new(
        inner: BoxOp,
        exprs: &[Expr],
        names: &[&str],
        ctx: ExecContext,
    ) -> Result<Self> {
        assert_eq!(exprs.len(), names.len(), "one name per projection");
        let in_schema = inner.schema().clone();
        let mut fields = Vec::with_capacity(exprs.len());
        let mut bound = Vec::with_capacity(exprs.len());
        for (e, name) in exprs.iter().zip(names) {
            let dtype = match e {
                Expr::Col(c) => in_schema.field(in_schema.index_of(c)?).dtype,
                Expr::Lit(v) => v.data_type().unwrap_or(rqp_common::DataType::Float),
                _ => rqp_common::DataType::Float,
            };
            fields.push(rqp_common::Field::new(*name, dtype));
            bound.push(e.bind(&in_schema)?);
        }
        let span = ctx.op_span("project", &[&inner]);
        Ok(ProjectOp { inner, exprs: bound, schema: Schema::new(fields), ctx, span })
    }

    /// Convenience: project to a subset of input columns by name, keeping the
    /// names.
    pub fn columns(inner: BoxOp, cols: &[&str], ctx: ExecContext) -> Result<Self> {
        let exprs: Vec<Expr> = cols.iter().map(|c| Expr::Col((*c).to_owned())).collect();
        Self::new(inner, &exprs, cols, ctx)
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        let Some(row) = self.inner.next() else {
            self.span.close(&self.ctx.clock);
            return None;
        };
        self.ctx.clock.charge(&rule::emit(1.0));
        self.span.produced(&self.ctx.clock);
        Some(self.exprs.iter().map(|e| e.eval(&row)).collect())
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Literal-rows source shared by operator tests.
    pub struct RowsOp {
        schema: Schema,
        rows: std::vec::IntoIter<Row>,
    }

    impl RowsOp {
        pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
            RowsOp { schema, rows: rows.into_iter() }
        }

        pub fn boxed(schema: Schema, rows: Vec<Row>) -> BoxOp {
            Box::new(Self::new(schema, rows))
        }
    }

    impl Operator for RowsOp {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Option<Row> {
            self.rows.next()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::RowsOp;
    use super::*;
    use crate::context::collect;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Value};

    fn src() -> BoxOp {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]);
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 * 2.0)])
            .collect();
        RowsOp::boxed(schema, rows)
    }

    #[test]
    fn filter_selects_and_tracks_stats() {
        let ctx = ExecContext::unbounded();
        let mut f = FilterOp::new(src(), &col("a").lt(lit(4i64)), ctx.clone()).unwrap();
        let out = collect(&mut f);
        assert_eq!(out.len(), 4);
        assert_eq!(f.span().unwrap().rows(), 4);
        let want = ExecContext::unbounded();
        want.clock.charge(&rule::filter(10.0));
        let cpu = |c: &ExecContext| c.clock.breakdown().cpu.to_bits();
        assert_eq!(cpu(&ctx), cpu(&want), "one compare per examined row");
    }

    #[test]
    fn filter_binding_error_propagates() {
        let ctx = ExecContext::unbounded();
        assert!(FilterOp::new(src(), &col("zz").lt(lit(4i64)), ctx).is_err());
    }

    #[test]
    fn project_columns() {
        let ctx = ExecContext::unbounded();
        let mut p = ProjectOp::columns(src(), &["b"], ctx).unwrap();
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema().field(0).name, "b");
        let out = collect(&mut p);
        assert_eq!(out[3], vec![Value::Float(6.0)]);
    }

    #[test]
    fn project_computed_expression() {
        let ctx = ExecContext::unbounded();
        let exprs = vec![col("a").mul(lit(10i64)), col("b").add(col("b"))];
        let mut p = ProjectOp::new(src(), &exprs, &["a10", "b2"], ctx).unwrap();
        let out = collect(&mut p);
        assert_eq!(out[2][0], Value::Int(20));
        assert_eq!(out[2][1], Value::Float(8.0));
    }

    #[test]
    fn empty_input() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut f =
            FilterOp::new(RowsOp::boxed(schema, vec![]), &col("a").eq(lit(1i64)), ctx).unwrap();
        assert!(f.next().is_none());
    }
}
