//! Sampling-based selectivity estimation with uncertainty.
//!
//! Babcock & Chaudhuri's *Towards a Robust Query Optimizer* (SIGMOD 2005)
//! replaces point selectivity estimates with a *probability distribution*
//! obtained from a sample, and lets the optimizer cost plans at a chosen
//! percentile of that distribution. [`SamplingEstimator`] evaluates a
//! predicate on a fixed random sample of the table and exposes the Beta
//! posterior over the true selectivity (uniform prior: `Beta(k+1, n−k+1)`
//! after observing `k` of `n` matches).

use rand::Rng;
use rqp_common::{Expr, Result, Row, Schema};
use rqp_storage::Table;

/// Posterior over a selectivity after observing a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityPosterior {
    /// Matching sample rows.
    pub matches: usize,
    /// Sample size.
    pub sample_size: usize,
}

impl SelectivityPosterior {
    /// Posterior mean `(k+1)/(n+2)` (Laplace rule of succession).
    pub fn mean(&self) -> f64 {
        (self.matches as f64 + 1.0) / (self.sample_size as f64 + 2.0)
    }

    /// Posterior standard deviation of Beta(k+1, n−k+1).
    pub fn std_dev(&self) -> f64 {
        let a = self.matches as f64 + 1.0;
        let b = (self.sample_size - self.matches) as f64 + 1.0;
        let n = a + b;
        (a * b / (n * n * (n + 1.0))).sqrt()
    }

    /// Approximate `p`-quantile of the posterior.
    ///
    /// Uses a normal approximation clamped to `[0, 1]` plus exact handling of
    /// the degenerate all/none cases; accuracy is ample for percentile-based
    /// plan costing (the consumers compare plan costs, not tail probabilities).
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(1e-6, 1.0 - 1e-6);
        let z = normal_quantile(p);
        (self.mean() + z * self.std_dev()).clamp(0.0, 1.0)
    }
}

/// Acklam-style rational approximation of the standard normal quantile.
fn normal_quantile(p: f64) -> f64 {
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// A fixed random sample of a table, re-usable across predicates.
#[derive(Debug, Clone)]
pub struct SamplingEstimator {
    schema: Schema,
    rows: Vec<Row>,
    table_rows: usize,
}

impl SamplingEstimator {
    /// Draw a sample of up to `sample_size` rows from `table` (without
    /// replacement), using the caller's RNG.
    pub fn build(table: &Table, sample_size: usize, rng: &mut impl Rng) -> Self {
        let n = table.nrows();
        let k = sample_size.min(n);
        let ids = rqp_common::rng::sample_distinct(rng, n, k);
        SamplingEstimator {
            schema: table.qualified_schema(),
            rows: ids.into_iter().map(|i| table.row(i)).collect(),
            table_rows: n,
        }
    }

    /// Size of the underlying table.
    pub fn table_rows(&self) -> usize {
        self.table_rows
    }

    /// Sample size actually held.
    pub fn sample_size(&self) -> usize {
        self.rows.len()
    }

    /// Evaluate `pred` over the sample, returning the posterior.
    pub fn posterior(&self, pred: &Expr) -> Result<SelectivityPosterior> {
        let bound = pred.bind(&self.schema)?;
        let matches = self.rows.iter().filter(|r| bound.eval_bool(r)).count();
        Ok(SelectivityPosterior { matches, sample_size: self.rows.len() })
    }

    /// Point estimate (posterior mean).
    pub fn selectivity(&self, pred: &Expr) -> Result<f64> {
        Ok(self.posterior(pred)?.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::rng::seeded;
    use rqp_common::{DataType, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..10_000 {
            t.append(vec![Value::Int(i % 100)]);
        }
        t
    }

    #[test]
    fn sample_estimate_close_to_truth() {
        let t = table();
        let mut rng = seeded(11);
        let s = SamplingEstimator::build(&t, 1000, &mut rng);
        // true selectivity of k < 25 is 0.25
        let sel = s.selectivity(&col("t.k").lt(lit(25i64))).unwrap();
        assert!((sel - 0.25).abs() < 0.05, "got {sel}");
        assert_eq!(s.table_rows(), 10_000);
        assert_eq!(s.sample_size(), 1000);
    }

    #[test]
    fn posterior_quantiles_bracket_truth() {
        let t = table();
        let mut rng = seeded(5);
        let s = SamplingEstimator::build(&t, 500, &mut rng);
        let post = s.posterior(&col("k").lt(lit(50i64))).unwrap();
        let lo = post.quantile(0.05);
        let hi = post.quantile(0.95);
        assert!(lo < 0.5 && 0.5 < hi, "90% CI [{lo:.3}, {hi:.3}] should cover 0.5");
        assert!(lo < post.mean() && post.mean() < hi);
    }

    #[test]
    fn quantiles_monotone_and_bounded() {
        let post = SelectivityPosterior { matches: 3, sample_size: 100 };
        let q10 = post.quantile(0.1);
        let q50 = post.quantile(0.5);
        let q90 = post.quantile(0.9);
        assert!(q10 <= q50 && q50 <= q90);
        assert!(q10 >= 0.0 && q90 <= 1.0);
    }

    #[test]
    fn zero_and_full_matches() {
        let none = SelectivityPosterior { matches: 0, sample_size: 200 };
        assert!(none.mean() < 0.01);
        assert!(none.quantile(0.99) < 0.05);
        let all = SelectivityPosterior { matches: 200, sample_size: 200 };
        assert!(all.mean() > 0.99);
        assert!(all.quantile(0.01) > 0.95);
    }

    #[test]
    fn normal_quantile_sane() {
        assert!((normal_quantile(0.5)).abs() < 1e-6);
        assert!((normal_quantile(0.975) - 1.96).abs() < 0.01);
        assert!((normal_quantile(0.025) + 1.96).abs() < 0.01);
    }

    #[test]
    fn sample_larger_than_table_clamps() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..10 {
            t.append(vec![Value::Int(i)]);
        }
        let mut rng = seeded(1);
        let s = SamplingEstimator::build(&t, 1000, &mut rng);
        assert_eq!(s.sample_size(), 10);
        let sel = s.selectivity(&col("k").ge(lit(0i64))).unwrap();
        assert!(sel > 0.8);
    }
}
