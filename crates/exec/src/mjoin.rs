//! MJoin: the n-ary symmetric hash join.
//!
//! The adaptive-query-processing survey describes MJoins (n-ary symmetric
//! hash joins) as the most adaptivity-friendly join shape: one hash table
//! per input, tuples from *any* input arrive in any interleaving, and each
//! arrival probes the other tables along a **probing sequence** — there is
//! no frozen join tree to regret. The price the seminar's deferred-decisions
//! session flags — "increased memory requirements when many joins are
//! executed on large datasets" — is real here too: every input is fully
//! retained.
//!
//! This implementation covers the common star/natural case: all inputs join
//! on a single shared key column. Probing sequences adapt to observed miss
//! rates (most-missing table probed first), the MJoin counterpart of eddy
//! lottery routing.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rqp_common::{rule, Result, Row, RqpError, Schema, Value};
use rqp_telemetry::SpanHandle;
use std::collections::HashMap;

/// N-ary symmetric hash join on one shared key.
pub struct MJoinOp {
    inputs: Vec<BoxOp>,
    key_cols: Vec<usize>,
    /// Hash tables, one per input.
    tables: Vec<HashMap<Value, Vec<Row>>>,
    done: Vec<bool>,
    /// Per-input probe-miss counters (drive the adaptive probing sequence).
    misses: Vec<f64>,
    probes: Vec<f64>,
    schema: Schema,
    ctx: ExecContext,
    next_input: usize,
    pending: Vec<Row>,
    /// Total probe operations (work metric).
    pub total_probes: usize,
    span: SpanHandle,
}

impl MJoinOp {
    /// Join `inputs` on equality of their respective `key_columns`.
    pub fn new(inputs: Vec<BoxOp>, key_columns: &[&str], ctx: ExecContext) -> Result<Self> {
        if inputs.len() < 2 || inputs.len() != key_columns.len() {
            return Err(RqpError::Invalid(
                "MJoin needs ≥2 inputs with one key column each".into(),
            ));
        }
        let key_cols: Vec<usize> = inputs
            .iter()
            .zip(key_columns)
            .map(|(op, k)| op.schema().index_of(k))
            .collect::<Result<_>>()?;
        let mut schema = inputs[0].schema().clone();
        for op in &inputs[1..] {
            schema = schema.join(op.schema());
        }
        let n = inputs.len();
        let refs: Vec<&BoxOp> = inputs.iter().collect();
        let span = ctx.op_span("m_join", &refs);
        Ok(MJoinOp {
            inputs,
            key_cols,
            tables: (0..n).map(|_| HashMap::new()).collect(),
            done: vec![false; n],
            misses: vec![0.0; n],
            probes: vec![0.0; n],
            schema,
            ctx,
            next_input: 0,
            pending: Vec::new(),
            total_probes: 0,
            span,
        })
    }

    /// The probing sequence the join currently prefers (highest observed
    /// miss rate first — fail fast).
    pub fn probing_sequence(&self, exclude: usize) -> Vec<usize> {
        let mut idx: Vec<usize> =
            (0..self.inputs.len()).filter(|&i| i != exclude).collect();
        idx.sort_by(|&a, &b| {
            let ra = self.misses[a] / self.probes[a].max(1.0);
            let rb = self.misses[b] / self.probes[b].max(1.0);
            rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }

    /// Pull one tuple from the next live input; returns false when all
    /// inputs are exhausted.
    fn step(&mut self) -> bool {
        let n = self.inputs.len();
        for _ in 0..n {
            let i = self.next_input;
            self.next_input = (self.next_input + 1) % n;
            if self.done[i] {
                continue;
            }
            match self.inputs[i].next() {
                None => {
                    self.done[i] = true;
                    continue;
                }
                Some(row) => {
                    let key = row[self.key_cols[i]].clone();
                    self.ctx.clock.charge(&rule::hash_build(1.0));
                    // Probe the other tables along the adaptive sequence;
                    // any empty probe kills the combination early.
                    let seq = self.probing_sequence(i);
                    let mut matches: Vec<(usize, &Vec<Row>)> = Vec::with_capacity(n - 1);
                    let mut dead = false;
                    for &j in &seq {
                        self.total_probes += 1;
                        self.probes[j] += 1.0;
                        self.ctx.clock.charge(&rule::hash_probe(1.0));
                        match self.tables[j].get(&key) {
                            Some(rows) => matches.push((j, rows)),
                            None => {
                                self.misses[j] += 1.0;
                                dead = true;
                                break;
                            }
                        }
                    }
                    if !dead {
                        // Emit the cross product, with inputs in declared
                        // order: position i takes the new row.
                        matches.sort_by_key(|&(j, _)| j);
                        let mut combos: Vec<Vec<&Row>> = vec![Vec::with_capacity(n)];
                        let mut mi = 0usize;
                        for slot in 0..n {
                            if slot == i {
                                for c in &mut combos {
                                    c.push(&row);
                                }
                            } else {
                                let (_, rows) = matches[mi];
                                mi += 1;
                                let mut next = Vec::with_capacity(combos.len() * rows.len());
                                for c in combos {
                                    for r in rows {
                                        let mut c2 = c.clone();
                                        c2.push(r);
                                        next.push(c2);
                                    }
                                }
                                combos = next;
                            }
                        }
                        for combo in combos {
                            self.ctx.clock.charge(&rule::emit(1.0));
                            let mut out = Vec::with_capacity(self.schema.len());
                            for part in combo {
                                out.extend(part.iter().cloned());
                            }
                            self.pending.push(out);
                        }
                    }
                    self.tables[i].entry(key).or_default().push(row);
                    return true;
                }
            }
        }
        false
    }
}

impl Operator for MJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(r) = self.pending.pop() {
                self.span.produced(&self.ctx.clock);
                return Some(r);
            }
            if !self.step() {
                self.span.close(&self.ctx.clock);
                return None;
            }
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

    fn sorted(mut rows: Vec<Row>) -> Vec<String> {
        let mut v: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    }

    #[test]
    fn three_way_matches_binary_cascade() {
        let ctx = ExecContext::unbounded();
        let a = vec![1, 2, 2, 3, 7];
        let b = vec![2, 3, 3, 9];
        let c = vec![1, 2, 3, 3];
        let mut m = MJoinOp::new(
            vec![src("a", a.clone()), src("b", b.clone()), src("c", c.clone())],
            &["a.k", "b.k", "c.k"],
            ctx.clone(),
        )
        .unwrap();
        let mjoin_out = sorted(collect(&mut m));

        let ab = Box::new(
            HashJoinOp::new(src("a", a), src("b", b), &["a.k"], &["b.k"], ctx.clone()).unwrap(),
        );
        let mut abc =
            HashJoinOp::new(ab, src("c", c), &["a.k"], &["c.k"], ctx).unwrap();
        let cascade_out = sorted(collect(&mut abc));
        assert_eq!(mjoin_out, cascade_out);
        // key 2: 2×1×1=2, key 3: 1×2×2=4 → 6 rows
        assert_eq!(mjoin_out.len(), 6);
    }

    #[test]
    fn emits_incrementally() {
        let ctx = ExecContext::unbounded();
        let mut m = MJoinOp::new(
            vec![src("a", vec![5, 1]), src("b", vec![5, 2]), src("c", vec![5, 3])],
            &["a.k", "b.k", "c.k"],
            ctx,
        )
        .unwrap();
        // After at most one round-robin cycle + one tuple, the 5-match exists.
        let first = m.next();
        assert!(first.is_some());
        assert_eq!(first.unwrap(), vec![Value::Int(5); 3]);
    }

    #[test]
    fn adaptive_probing_prefers_empty_table() {
        let ctx = ExecContext::unbounded();
        // Input c matches almost nothing: probing it first kills tuples
        // cheaply.
        let a: Vec<i64> = (0..2000).map(|i| i % 50).collect();
        let b: Vec<i64> = (0..2000).map(|i| i % 50).collect();
        let c: Vec<i64> = vec![999; 100]; // never matches
        let mut m = MJoinOp::new(
            vec![src("a", a), src("b", b), src("c", c)],
            &["a.k", "b.k", "c.k"],
            ctx,
        )
        .unwrap();
        let out = collect(&mut m);
        assert!(out.is_empty());
        // After warm-up, the sequence excluding input 0 should put table 2
        // (the all-miss table) first.
        assert_eq!(m.probing_sequence(0)[0], 2);
    }

    #[test]
    fn rejects_bad_arity() {
        let ctx = ExecContext::unbounded();
        assert!(MJoinOp::new(vec![src("a", vec![1])], &["a.k"], ctx.clone()).is_err());
        assert!(MJoinOp::new(
            vec![src("a", vec![1]), src("b", vec![1])],
            &["a.k"],
            ctx
        )
        .is_err());
    }

    #[test]
    fn empty_input_kills_all_output() {
        let ctx = ExecContext::unbounded();
        let mut m = MJoinOp::new(
            vec![src("a", vec![1, 2]), src("b", vec![]), src("c", vec![1, 2])],
            &["a.k", "b.k", "c.k"],
            ctx,
        )
        .unwrap();
        assert!(collect(&mut m).is_empty());
    }
}
