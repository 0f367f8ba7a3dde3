//! Aggregate functions and the one accumulator every aggregation folds into.
//!
//! A one-shot query and a standing view hold the same state: a query is a
//! view's initial load with every row at weight +1 (DBSP, Budiu et al.,
//! VLDB 2023). So the row and batch hash aggregations and the view's
//! aggregate stage all fold rows into [`Accumulator`]s — through the group
//! table in `rqp_storage::keyed` — and finish them here, once.
//!
//! COUNT/SUM/AVG invert algebraically, so they keep a weighted count and
//! sum and nothing else; MIN/MAX cannot (removing the minimum needs the
//! runner-up), so only they keep an ordered multiset of the values seen and
//! read the extremes off its ends. Which state an accumulator carries is
//! fixed when it is created ([`Accumulator::for_func`]): a COUNT/SUM/AVG
//! over a million rows holds 16 bytes, not a million-entry tree.

use crate::value::{DataType, Value};
use std::collections::BTreeMap;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) (column ignored) or COUNT(col).
    Count,
    /// SUM(col).
    Sum,
    /// MIN(col).
    Min,
    /// MAX(col).
    Max,
    /// AVG(col).
    Avg,
}

impl AggFunc {
    /// The output type over an input column of type `input` (`None` for
    /// COUNT(*)): COUNT is an `Int`, SUM and AVG a `Float`, MIN and MAX the
    /// input's type.
    pub fn output_type(self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum | AggFunc::Avg => DataType::Float,
            AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Float),
        }
    }

    /// True for COUNT, SUM and AVG, which read only a weighted count and
    /// sum; false for MIN and MAX, which keep their values.
    pub fn is_algebraic(self) -> bool {
        !matches!(self, AggFunc::Min | AggFunc::Max)
    }
}

/// One aggregate's state: weighted count and sum, plus — for MIN/MAX only —
/// an ordered value multiset, so that a retraction can fall back to the
/// runner-up.
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// Weighted non-null count.
    count: f64,
    /// Weighted sum over `as_float` values.
    sum: f64,
    /// Ordered multiset of non-null values with net weights; `None` when
    /// the accumulator will never be asked for an extreme.
    values: Option<BTreeMap<Value, i64>>,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl Accumulator {
    /// A fresh accumulator that can finish as *any* function (it carries
    /// the multiset) — what a from-scratch reference evaluation uses.
    pub fn new() -> Self {
        Accumulator { count: 0.0, sum: 0.0, values: Some(BTreeMap::new()) }
    }

    /// A fresh accumulator holding only what `func` reads: `(count, sum)`
    /// for COUNT/SUM/AVG, plus the multiset for MIN/MAX. Finishing it as a
    /// function from the other family reports the empty state.
    pub fn for_func(func: AggFunc) -> Self {
        let values = (!func.is_algebraic()).then(BTreeMap::new);
        Accumulator { count: 0.0, sum: 0.0, values }
    }

    /// Fold one row's value in with `weight` (positive inserts, negative
    /// retracts). `None` counts the row and adds nothing else — the
    /// COUNT(*) case, where there is no input column; an SQL NULL
    /// contributes nothing. A value adds its `as_float` to the sum (a `Str`
    /// adds nothing) and, with a multiset, itself to the multiset, where
    /// the first of several equal values is the one kept.
    #[inline]
    pub fn apply(&mut self, v: Option<&Value>, weight: i64) {
        match v {
            None => self.count += weight as f64,
            Some(v) if !v.is_null() => {
                self.count += weight as f64;
                if let Some(x) = v.as_float() {
                    self.sum += x * weight as f64;
                }
                if let Some(values) = &mut self.values {
                    let w = values.entry(v.clone()).or_insert(0);
                    *w += weight;
                    if *w == 0 {
                        values.remove(v);
                    }
                }
            }
            Some(_) => {}
        }
    }

    /// [`apply`](Self::apply) of a non-null number — an `Int` as `f64`, or
    /// a `Float` — to an accumulator without a multiset (COUNT, SUM, AVG):
    /// the same arithmetic, without a `Value`.
    #[inline]
    pub fn add(&mut self, x: f64, weight: i64) {
        debug_assert!(self.values.is_none(), "MIN/MAX keep their values");
        self.count += weight as f64;
        self.sum += x * weight as f64;
    }

    /// Distinct values held in the MIN/MAX multiset (0 without one).
    #[inline]
    pub fn multiset_len(&self) -> usize {
        self.values.as_ref().map_or(0, BTreeMap::len)
    }

    /// Payload bytes of one multiset entry holding `v`: the value and its
    /// weight at their in-memory size, string contents included.
    pub fn multiset_entry_bytes(v: &Value) -> usize {
        let text = if let Value::Str(s) = v { s.len() } else { 0 };
        std::mem::size_of::<(Value, i64)>() + text
    }

    /// Payload bytes of the whole multiset (0 without one).
    pub fn multiset_bytes(&self) -> usize {
        self.values.as_ref().map_or(0, |m| m.keys().map(Self::multiset_entry_bytes).sum())
    }

    /// The aggregate's current value: COUNT an `Int`, SUM a `Float`, AVG a
    /// `Float` or NULL over nothing, MIN/MAX the extreme value or NULL.
    pub fn finish(&self, func: AggFunc) -> Value {
        let values = self.values.as_ref();
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min => values.and_then(|m| m.keys().next()).cloned().unwrap_or(Value::Null),
            AggFunc::Max => {
                values.and_then(|m| m.keys().next_back()).cloned().unwrap_or(Value::Null)
            }
            AggFunc::Avg => {
                if self.count > 0.0 {
                    Value::Float(self.sum / self.count)
                } else {
                    Value::Null
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_avg_invert_exactly() {
        let mut a = Accumulator::new();
        for v in [2.0, 4.0, 6.0] {
            a.apply(Some(&Value::Float(v)), 1);
        }
        assert_eq!(a.finish(AggFunc::Count), Value::Int(3));
        assert_eq!(a.finish(AggFunc::Sum), Value::Float(12.0));
        assert_eq!(a.finish(AggFunc::Avg), Value::Float(4.0));
        a.apply(Some(&Value::Float(4.0)), -1);
        assert_eq!(a.finish(AggFunc::Count), Value::Int(2));
        assert_eq!(a.finish(AggFunc::Sum), Value::Float(8.0));
        assert_eq!(a.finish(AggFunc::Avg), Value::Float(4.0));
        // Full retraction returns to the empty state.
        a.apply(Some(&Value::Float(2.0)), -1);
        a.apply(Some(&Value::Float(6.0)), -1);
        assert_eq!(a.finish(AggFunc::Count), Value::Int(0));
        assert_eq!(a.finish(AggFunc::Sum), Value::Float(0.0));
        assert!(a.finish(AggFunc::Avg).is_null());
    }

    #[test]
    fn min_max_fall_back_to_runner_up_on_retraction() {
        let mut a = Accumulator::new();
        for v in [5i64, 1, 9, 1] {
            a.apply(Some(&Value::Int(v)), 1);
        }
        assert_eq!(a.finish(AggFunc::Min), Value::Int(1));
        assert_eq!(a.finish(AggFunc::Max), Value::Int(9));
        // One of the two 1s goes: 1 is still the minimum.
        a.apply(Some(&Value::Int(1)), -1);
        assert_eq!(a.finish(AggFunc::Min), Value::Int(1));
        // The second 1 goes: the runner-up takes over.
        a.apply(Some(&Value::Int(1)), -1);
        assert_eq!(a.finish(AggFunc::Min), Value::Int(5));
        a.apply(Some(&Value::Int(9)), -1);
        assert_eq!(a.finish(AggFunc::Max), Value::Int(5));
        a.apply(Some(&Value::Int(5)), -1);
        assert!(a.finish(AggFunc::Min).is_null());
        assert!(a.finish(AggFunc::Max).is_null());
    }

    #[test]
    fn count_star_and_nulls_count_as_sql_does() {
        let mut a = Accumulator::new();
        a.apply(None, 1); // COUNT(*): counts
        a.apply(None, 1);
        a.apply(Some(&Value::Null), 1); // SQL NULL: contributes nothing
        assert_eq!(a.finish(AggFunc::Count), Value::Int(2));
        a.apply(None, -1);
        assert_eq!(a.finish(AggFunc::Count), Value::Int(1));
        // Sum/extremes never saw a value.
        assert_eq!(a.finish(AggFunc::Sum), Value::Float(0.0));
        assert!(a.finish(AggFunc::Min).is_null());
    }

    #[test]
    fn algebraic_accumulators_hold_no_multiset() {
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            let mut a = Accumulator::for_func(f);
            assert!(a.values.is_none(), "{f:?} allocates no multiset");
            for v in 0..1_000i64 {
                a.apply(Some(&Value::Int(v)), 1);
            }
            assert_eq!(a.multiset_len(), 0);
            // Same (count, sum) arithmetic as the all-function accumulator.
            let mut all = Accumulator::new();
            for v in 0..1_000i64 {
                all.apply(Some(&Value::Int(v)), 1);
            }
            assert_eq!(a.finish(f), all.finish(f));
            assert_eq!(all.multiset_len(), 1_000);
        }
    }

    #[test]
    fn min_max_accumulators_behave_as_before() {
        for f in [AggFunc::Min, AggFunc::Max] {
            let mut a = Accumulator::for_func(f);
            let mut all = Accumulator::new();
            let steps: [(i64, i64); 8] =
                [(5, 1), (1, 1), (9, 1), (1, 1), (1, -1), (9, -1), (1, -1), (5, -1)];
            for (v, w) in steps {
                a.apply(Some(&Value::Int(v)), w);
                all.apply(Some(&Value::Int(v)), w);
                assert_eq!(a.finish(f), all.finish(f), "after ({v}, {w})");
            }
            assert!(a.finish(f).is_null(), "fully retracted");
            assert_eq!(a.multiset_len(), 0, "no zero-weight entries linger");
        }
    }
}
