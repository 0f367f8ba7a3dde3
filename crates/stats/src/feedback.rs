//! LEO-style execution feedback (Stillger, Lohman, Markl, Kandil — VLDB 2001).
//!
//! LEO "closes the loop": after a query runs, the actual cardinalities
//! observed at each operator are compared with the optimizer's estimates and
//! stored as *adjustment factors*; future optimizations of matching
//! predicates multiply their estimates by the learned factor. The repository
//! here keys adjustments by a predicate signature and blends repeated
//! observations with exponential smoothing.
//!
//! Experiment E19 measures the q-error decay of a repeated workload as the
//! repository fills — the "post-mortem" half of the POP + LEO pairing the
//! seminar's optimization/execution-interaction session describes.

use crate::estimator::CardEstimator;
use rqp_common::Expr;
use std::collections::HashMap;

/// A learned adjustment for one predicate signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjustment {
    /// Multiplicative correction (actual / estimate), smoothed.
    pub factor: f64,
    /// Number of observations blended in.
    pub observations: usize,
}

/// Repository of learned estimate corrections.
#[derive(Debug, Clone)]
pub struct FeedbackRepo {
    adjustments: HashMap<String, Adjustment>,
    /// Weight of the newest observation (1.0 = always replace).
    smoothing: f64,
}

impl FeedbackRepo {
    /// New repository; `smoothing` ∈ (0, 1] is the exponential-smoothing
    /// weight of new observations.
    pub fn new(smoothing: f64) -> Self {
        assert!(smoothing > 0.0 && smoothing <= 1.0);
        FeedbackRepo { adjustments: HashMap::new(), smoothing }
    }

    /// Canonical signature for (table, predicate).
    pub fn signature(table: &str, pred: &Expr) -> String {
        format!("{table}|{pred}")
    }

    /// Record an observation: the optimizer estimated `estimate` rows, the
    /// executor saw `actual` rows.
    pub fn observe(&mut self, signature: &str, estimate: f64, actual: f64) {
        let factor = actual.max(1.0) / estimate.max(1.0);
        match self.adjustments.get_mut(signature) {
            Some(adj) => {
                // Blend in log space: factors are multiplicative.
                let blended =
                    (adj.factor.ln() * (1.0 - self.smoothing) + factor.ln() * self.smoothing)
                        .exp();
                adj.factor = blended;
                adj.observations += 1;
            }
            None => {
                self.adjustments
                    .insert(signature.to_owned(), Adjustment { factor, observations: 1 });
            }
        }
    }

    /// The learned correction for a signature, if any.
    pub fn adjustment(&self, signature: &str) -> Option<f64> {
        self.adjustments.get(signature).map(|a| a.factor)
    }

    /// Number of distinct signatures learned.
    pub fn len(&self) -> usize {
        self.adjustments.len()
    }

    /// True if nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.adjustments.is_empty()
    }

    /// Forget everything (e.g. after a schema or data change).
    pub fn clear(&mut self) {
        self.adjustments.clear();
    }
}

/// An estimator that applies LEO corrections on top of a base estimator,
/// reading them from a repository it borrows: a planner holds the
/// repository for one optimisation and releases it before anything
/// [`observe`](FeedbackRepo::observe)s into it.
pub struct FeedbackEstimator<'a> {
    inner: Box<dyn CardEstimator>,
    repo: &'a FeedbackRepo,
}

impl<'a> FeedbackEstimator<'a> {
    /// Wrap `inner`, consulting `repo`.
    pub fn new(inner: Box<dyn CardEstimator>, repo: &'a FeedbackRepo) -> Self {
        FeedbackEstimator { inner, repo }
    }
}

impl CardEstimator for FeedbackEstimator<'_> {
    fn table_rows(&self, table: &str) -> f64 {
        self.inner.table_rows(table)
    }

    fn selectivity(&self, table: &str, pred: &Expr) -> f64 {
        let base = self.inner.selectivity(table, pred);
        let sig = FeedbackRepo::signature(table, pred);
        match self.repo.adjustment(&sig) {
            Some(f) => (base * f).clamp(0.0, 1.0),
            None => base,
        }
    }

    fn join_selectivity(
        &self,
        left_table: &str,
        left_col: &str,
        right_table: &str,
        right_col: &str,
    ) -> f64 {
        let base = self
            .inner
            .join_selectivity(left_table, left_col, right_table, right_col);
        let sig = format!("join|{left_table}.{left_col}={right_table}.{right_col}");
        match self.repo.adjustment(&sig) {
            Some(f) => (base * f).clamp(0.0, 1.0),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};

    /// A fixed-output stub estimator.
    struct Fixed(f64);
    impl CardEstimator for Fixed {
        fn table_rows(&self, _: &str) -> f64 {
            1000.0
        }
        fn selectivity(&self, _: &str, _: &Expr) -> f64 {
            self.0
        }
        fn join_selectivity(&self, _: &str, _: &str, _: &str, _: &str) -> f64 {
            self.0
        }
    }

    #[test]
    fn observation_creates_adjustment() {
        let mut repo = FeedbackRepo::new(1.0);
        repo.observe("sig", 10.0, 100.0);
        assert!((repo.adjustment("sig").unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(repo.len(), 1);
        assert!(repo.adjustment("other").is_none());
    }

    #[test]
    fn smoothing_blends_observations() {
        let mut repo = FeedbackRepo::new(0.5);
        repo.observe("sig", 10.0, 100.0); // factor 10
        repo.observe("sig", 10.0, 10.0); // factor 1
        let f = repo.adjustment("sig").unwrap();
        // geometric blend: sqrt(10) ≈ 3.16
        assert!((f - 10f64.sqrt()).abs() < 1e-6, "got {f}");
    }

    #[test]
    fn estimator_applies_correction() {
        let mut repo = FeedbackRepo::new(1.0);
        let pred = col("a").eq(lit(5i64));
        // Uncorrected.
        let est = FeedbackEstimator::new(Box::new(Fixed(0.01)), &repo);
        assert!((est.selectivity("t", &pred) - 0.01).abs() < 1e-12);
        // After the executor observed the truth (estimate 10 rows of 1000,
        // actual 300) the factor 30 applies.
        let sig = FeedbackRepo::signature("t", &pred);
        repo.observe(&sig, 10.0, 300.0);
        let est = FeedbackEstimator::new(Box::new(Fixed(0.01)), &repo);
        let corrected = est.selectivity("t", &pred);
        assert!((corrected - 0.3).abs() < 1e-9, "got {corrected}");
    }

    #[test]
    fn correction_clamped_to_one() {
        let mut repo = FeedbackRepo::new(1.0);
        let pred = col("a").lt(lit(1i64));
        let sig = FeedbackRepo::signature("t", &pred);
        repo.observe(&sig, 1.0, 1_000_000.0);
        let est = FeedbackEstimator::new(Box::new(Fixed(0.5)), &repo);
        assert_eq!(est.selectivity("t", &pred), 1.0);
    }

    #[test]
    fn join_corrections_keyed_separately() {
        let mut repo = FeedbackRepo::new(1.0);
        repo.observe("join|t.a=u.b", 1.0, 50.0);
        let est = FeedbackEstimator::new(Box::new(Fixed(0.001)), &repo);
        let js = est.join_selectivity("t", "a", "u", "b");
        assert!((js - 0.05).abs() < 1e-9, "got {js}");
        // Different join key unaffected.
        let other = est.join_selectivity("t", "a", "u", "c");
        assert!((other - 0.001).abs() < 1e-12);
    }

    #[test]
    fn clear_forgets() {
        let mut repo = FeedbackRepo::new(1.0);
        repo.observe("x", 1.0, 2.0);
        assert!(!repo.is_empty());
        repo.clear();
        assert!(repo.is_empty());
    }

    #[test]
    fn signature_distinguishes_constants() {
        let a = FeedbackRepo::signature("t", &col("k").eq(lit(1i64)));
        let b = FeedbackRepo::signature("t", &col("k").eq(lit(2i64)));
        assert_ne!(a, b);
    }
}
