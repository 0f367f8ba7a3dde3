//! A-Greedy: adaptive ordering of correlated selection predicates
//! (Babu, Motwani, Munagala, Nishizawa, Widom — SIGMOD 2004; surveyed in the
//! seminar's adaptive-query-processing reading).
//!
//! A-Greedy continuously maintains the *greedy invariant*: predicate at
//! position `i` has the highest conditional drop rate among tuples that
//! survived positions `0..i`, measured over a sliding sample ("matrix view")
//! of recent tuples with their full evaluation profile. Unlike rank ordering
//! under independence, the conditional profile captures predicate
//! correlation — the case the seminar's estimation sessions flag as the
//! hard one. Experiment E16 compares A-Greedy against static orders under
//! mid-stream selectivity drift.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rand::rngs::StdRng;
use rand::Rng;
use rqp_common::expr::BoundExpr;
use rqp_common::{rule, Expr, Result, Row, RqpError, Schema};
use rqp_telemetry::SpanHandle;
use std::collections::VecDeque;

/// Adaptive selection-ordering operator.
pub struct AGreedyFilterOp {
    inner: BoxOp,
    filters: Vec<BoundExpr>,
    /// Current evaluation order (indices into `filters`).
    order: Vec<usize>,
    /// Sliding window of sampled tuple profiles: bit `f` set = filter `f`
    /// FAILED on that tuple.
    window: VecDeque<u64>,
    window_size: usize,
    /// Sampling probability for profiling tuples (profiled tuples evaluate
    /// *all* predicates).
    sample_prob: f64,
    /// Re-derive the order every this many input tuples.
    reopt_interval: usize,
    tuples_seen: usize,
    schema: Schema,
    ctx: ExecContext,
    rng: StdRng,
    /// Number of evaluations performed (work metric).
    pub evaluations: usize,
    /// Number of times the order actually changed.
    pub reorderings: usize,
    span: SpanHandle,
}

impl AGreedyFilterOp {
    /// Adaptive filter over `preds`.
    pub fn new(
        inner: BoxOp,
        preds: &[Expr],
        window_size: usize,
        sample_prob: f64,
        reopt_interval: usize,
        seed: u64,
        ctx: ExecContext,
    ) -> Result<Self> {
        if preds.is_empty() || preds.len() > 64 {
            return Err(RqpError::Invalid("A-Greedy supports 1..=64 predicates".into()));
        }
        let schema = inner.schema().clone();
        let filters: Vec<BoundExpr> = preds
            .iter()
            .map(|p| p.bind(&schema))
            .collect::<Result<_>>()?;
        let order = (0..filters.len()).collect();
        let span = ctx.op_span("agreedy_filter", &[&inner]);
        Ok(AGreedyFilterOp {
            inner,
            filters,
            order,
            window: VecDeque::with_capacity(window_size),
            window_size,
            sample_prob: sample_prob.clamp(0.0, 1.0),
            reopt_interval: reopt_interval.max(1),
            tuples_seen: 0,
            schema,
            ctx,
            rng: rqp_common::rng::seeded(seed),
            evaluations: 0,
            reorderings: 0,
            span,
        })
    }

    /// The current evaluation order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Greedy re-derivation from the matrix view: position 0 gets the filter
    /// with the most failures over the whole window; position `i` gets the
    /// filter with the most failures among window tuples that *pass* all
    /// filters at positions `0..i`.
    fn rederive_order(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let n = self.filters.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut new_order = Vec::with_capacity(n);
        let mut survivors: Vec<u64> = self.window.iter().copied().collect();
        while remaining.len() > 1 {
            let (best_pos, _) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &f)| {
                    let fails = survivors
                        .iter()
                        .filter(|&&profile| profile & (1u64 << f) != 0)
                        .count();
                    (pos, fails)
                })
                .max_by_key(|&(_, fails)| fails)
                .expect("remaining non-empty");
            let f = remaining.swap_remove(best_pos);
            new_order.push(f);
            survivors.retain(|&profile| profile & (1u64 << f) == 0);
        }
        new_order.push(remaining[0]);
        if new_order != self.order {
            self.reorderings += 1;
            self.order = new_order;
        }
    }
}

impl Operator for AGreedyFilterOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        'tuple: loop {
            let Some(row) = self.inner.next() else {
                self.span.close(&self.ctx.clock);
                return None;
            };
            self.tuples_seen += 1;
            let profile_this = self.rng.gen::<f64>() < self.sample_prob;
            if profile_this {
                // Evaluate all filters to build the full profile.
                let mut profile = 0u64;
                let mut passed_all = true;
                for (f, filter) in self.filters.iter().enumerate() {
                    self.evaluations += 1;
                    self.ctx.clock.charge(&rule::filter(1.0));
                    if !filter.eval_bool(&row) {
                        profile |= 1u64 << f;
                        passed_all = false;
                    }
                }
                if self.window.len() == self.window_size {
                    self.window.pop_front();
                }
                self.window.push_back(profile);
                if self.tuples_seen.is_multiple_of(self.reopt_interval) {
                    self.rederive_order();
                }
                if passed_all {
                    self.span.produced(&self.ctx.clock);
                    return Some(row);
                }
                continue 'tuple;
            }
            // Fast path: current order, short-circuit on first failure.
            let order = self.order.clone();
            for f in order {
                self.evaluations += 1;
                self.ctx.clock.charge(&rule::filter(1.0));
                if !self.filters[f].eval_bool(&row) {
                    continue 'tuple;
                }
            }
            if self.tuples_seen.is_multiple_of(self.reopt_interval) {
                self.rederive_order();
            }
            self.span.produced(&self.ctx.clock);
            return Some(row);
        }
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
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Value};

    /// Source where predicate selectivities flip halfway: for the first half
    /// `a < 100` always passes and `b < 100` rarely does; then they swap.
    fn drifting_src(n: i64) -> BoxOp {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    vec![Value::Int(i % 50), Value::Int(100 + i % 1000)]
                } else {
                    vec![Value::Int(100 + i % 1000), Value::Int(i % 50)]
                }
            })
            .collect();
        RowsOp::boxed(schema, rows)
    }

    fn preds() -> Vec<Expr> {
        vec![col("a").lt(lit(100i64)), col("b").lt(lit(100i64))]
    }

    #[test]
    fn produces_correct_rows() {
        let ctx = ExecContext::unbounded();
        let mut a =
            AGreedyFilterOp::new(drifting_src(2000), &preds(), 100, 0.1, 50, 7, ctx).unwrap();
        let out = collect(&mut a);
        // Only rows where both a<100 and b<100; by construction none in
        // either half satisfies both (one side is always ≥ 100).
        assert!(out.is_empty());
    }

    #[test]
    fn adapts_order_after_drift() {
        let ctx = ExecContext::unbounded();
        let mut a = AGreedyFilterOp::new(
            drifting_src(10_000),
            &preds(),
            200,
            0.2,
            100,
            7,
            ctx,
        )
        .unwrap();
        let _ = collect(&mut a);
        // After the flip, predicate 0 (a<100) drops almost everything →
        // should be first.
        assert_eq!(a.order()[0], 0);
        assert!(a.reorderings >= 1, "order must have changed at least once");
    }

    #[test]
    fn beats_stale_static_order() {
        // Static order fixed for the pre-drift distribution (b first is good
        // early, terrible late). Compare total evaluations.
        let ctx = ExecContext::unbounded();
        let mut adaptive = AGreedyFilterOp::new(
            drifting_src(20_000),
            &preds(),
            200,
            0.1,
            100,
            7,
            ctx,
        )
        .unwrap();
        let _ = collect(&mut adaptive);

        // "Stale static": always evaluate p0 then p1 — bad in the first half
        // where p0 passes everything.
        let ctx2 = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let _ = schema;
        let mut stale_evals = 0usize;
        let mut src = drifting_src(20_000);
        let s = src.schema().clone();
        let p0 = preds()[0].bind(&s).unwrap();
        let p1 = preds()[1].bind(&s).unwrap();
        while let Some(r) = src.next() {
            stale_evals += 1;
            if p0.eval_bool(&r) {
                stale_evals += 1;
                let _ = p1.eval_bool(&r);
            }
        }
        let _ = ctx2;
        assert!(
            adaptive.evaluations < stale_evals,
            "adaptive {} vs stale {}",
            adaptive.evaluations,
            stale_evals
        );
    }

    #[test]
    fn rejects_empty_and_oversized() {
        let ctx = ExecContext::unbounded();
        assert!(
            AGreedyFilterOp::new(drifting_src(10), &[], 10, 0.1, 10, 1, ctx.clone()).is_err()
        );
    }

    #[test]
    fn window_bounded() {
        let ctx = ExecContext::unbounded();
        let mut a =
            AGreedyFilterOp::new(drifting_src(5000), &preds(), 50, 1.0, 10, 7, ctx).unwrap();
        let _ = collect(&mut a);
        assert!(a.window.len() <= 50);
    }
}
