//! Symmetric (pipelined, non-blocking) hash join.
//!
//! Builds hash tables on **both** inputs and emits matches incrementally as
//! tuples arrive from either side, alternating pulls. The survey in the
//! seminar's reading list singles it out as the enabler of adaptivity: it has
//! "frequent moments at which the join order can be changed without losing
//! work". The eddy experiments route through these.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rqp_common::{rule, Result, Row, RqpError, Schema, Value};
use rqp_telemetry::SpanHandle;
use std::collections::HashMap;

/// Pipelined symmetric hash join.
pub struct SymmetricHashJoinOp {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    schema: Schema,
    ctx: ExecContext,
    left_table: HashMap<Vec<Value>, Vec<Row>>,
    right_table: HashMap<Vec<Value>, Vec<Row>>,
    left_done: bool,
    right_done: bool,
    /// Pull from left next (alternation flag).
    pull_left: bool,
    pending: Vec<Row>,
    span: SpanHandle,
}

impl SymmetricHashJoinOp {
    /// Join on equality of the named key columns.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: &[&str],
        right_keys: &[&str],
        ctx: ExecContext,
    ) -> Result<Self> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(RqpError::Invalid("join keys must pair up".into()));
        }
        let lk: Vec<usize> = left_keys
            .iter()
            .map(|k| left.schema().index_of(k))
            .collect::<Result<_>>()?;
        let rk: Vec<usize> = right_keys
            .iter()
            .map(|k| right.schema().index_of(k))
            .collect::<Result<_>>()?;
        let schema = left.schema().join(right.schema());
        let span = ctx.op_span("sym_hash_join", &[&left, &right]);
        Ok(SymmetricHashJoinOp {
            left,
            right,
            left_keys: lk,
            right_keys: rk,
            schema,
            ctx,
            left_table: HashMap::new(),
            right_table: HashMap::new(),
            left_done: false,
            right_done: false,
            pull_left: true,
            pending: Vec::new(),
            span,
        })
    }

    fn key(row: &Row, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&i| row[i].clone()).collect()
    }

    fn step(&mut self) -> bool {
        // Returns false when both inputs are exhausted.
        for _ in 0..2 {
            let from_left = if self.left_done {
                false
            } else if self.right_done {
                true
            } else {
                self.pull_left
            };
            self.pull_left = !self.pull_left;
            if from_left {
                match self.left.next() {
                    Some(l) => {
                        let k = Self::key(&l, &self.left_keys);
                        self.ctx.clock.charge(&rule::hash_build(1.0));
                        self.ctx.clock.charge(&rule::hash_probe(1.0));
                        if let Some(matches) = self.right_table.get(&k) {
                            for r in matches {
                                self.ctx.clock.charge(&rule::emit(1.0));
                                let mut row = l.clone();
                                row.extend(r.clone());
                                self.pending.push(row);
                            }
                        }
                        self.left_table.entry(k).or_default().push(l);
                        return true;
                    }
                    None => self.left_done = true,
                }
            } else {
                match self.right.next() {
                    Some(r) => {
                        let k = Self::key(&r, &self.right_keys);
                        self.ctx.clock.charge(&rule::hash_build(1.0));
                        self.ctx.clock.charge(&rule::hash_probe(1.0));
                        if let Some(matches) = self.left_table.get(&k) {
                            for l in matches {
                                self.ctx.clock.charge(&rule::emit(1.0));
                                let mut row = l.clone();
                                row.extend(r.clone());
                                self.pending.push(row);
                            }
                        }
                        self.right_table.entry(k).or_default().push(r);
                        return true;
                    }
                    None => self.right_done = true,
                }
            }
            if self.left_done && self.right_done {
                return false;
            }
        }
        true
    }
}

impl Operator for SymmetricHashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.pending.pop() {
                self.span.produced(&self.ctx.clock);
                return Some(row);
            }
            if self.left_done && self.right_done {
                self.span.close(&self.ctx.clock);
                return None;
            }
            self.step();
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
    use crate::join::HashJoinOp;
    use rqp_common::DataType;

    fn src(name: &str, keys: Vec<i64>) -> BoxOp {
        let schema = Schema::from_pairs(&[(
            Box::leak(format!("{name}.k").into_boxed_str()) as &str,
            DataType::Int,
        )]);
        RowsOp::boxed(schema, keys.into_iter().map(|k| vec![Value::Int(k)]).collect())
    }

    #[test]
    fn matches_blocking_hash_join() {
        let ctx = ExecContext::unbounded();
        let mut s = SymmetricHashJoinOp::new(
            src("l", vec![1, 2, 2, 3, 9]),
            src("r", vec![2, 2, 3, 4]),
            &["l.k"],
            &["r.k"],
            ctx.clone(),
        )
        .unwrap();
        let mut sout = collect(&mut s);
        let mut h = HashJoinOp::new(
            src("l", vec![1, 2, 2, 3, 9]),
            src("r", vec![2, 2, 3, 4]),
            &["l.k"],
            &["r.k"],
            ctx,
        )
        .unwrap();
        let mut hout = collect(&mut h);
        let key = |r: &Row| format!("{r:?}");
        sout.sort_by_key(key);
        hout.sort_by_key(key);
        assert_eq!(sout, hout);
        assert_eq!(sout.len(), 5); // 2×2 + 1
    }

    #[test]
    fn emits_incrementally() {
        // First match must appear before either input is exhausted: with
        // equal single keys on both sides, a match exists after two pulls.
        let ctx = ExecContext::unbounded();
        let mut s = SymmetricHashJoinOp::new(
            src("l", vec![7, 8, 9]),
            src("r", vec![7, 1, 2]),
            &["l.k"],
            &["r.k"],
            ctx,
        )
        .unwrap();
        let first = s.next();
        assert!(first.is_some(), "incremental emission");
        assert_eq!(first.unwrap(), vec![Value::Int(7), Value::Int(7)]);
    }

    #[test]
    fn asymmetric_lengths() {
        let ctx = ExecContext::unbounded();
        let mut s = SymmetricHashJoinOp::new(
            src("l", (0..100).map(|i| i % 5).collect()),
            src("r", vec![3]),
            &["l.k"],
            &["r.k"],
            ctx,
        )
        .unwrap();
        assert_eq!(collect(&mut s).len(), 20);
    }

    #[test]
    fn empty_side() {
        let ctx = ExecContext::unbounded();
        let mut s = SymmetricHashJoinOp::new(
            src("l", vec![]),
            src("r", vec![1, 2]),
            &["l.k"],
            &["r.k"],
            ctx,
        )
        .unwrap();
        assert!(collect(&mut s).is_empty());
    }
}
