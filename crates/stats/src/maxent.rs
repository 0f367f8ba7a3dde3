//! Consistent selectivity estimation via maximum entropy
//! (Markl, Haas, Kutsch, Megiddo, Srivastava, Tran — VLDB Journal 2007).
//!
//! Given selectivities for *some* conjunctions of predicates (single-column
//! statistics, a few multivariate statistics, feedback observations), the
//! maximum-entropy principle picks the unique joint distribution over the
//! `2^n` predicate atoms that satisfies every known constraint and assumes
//! nothing else. In the absence of multivariate knowledge it reduces exactly
//! to the independence assumption; with partial knowledge it avoids the
//! inconsistent, biased ad-hoc combinations the paper criticizes.
//!
//! [`MaxEntSolver`] implements iterative proportional fitting over the atom
//! space (practical for `n ≤ 16` predicates, far above real optimizer needs).

use rqp_common::{Result, RqpError};

/// Builder for a maximum-entropy joint selectivity model over `n` predicates.
///
/// ```
/// use rqp_stats::MaxEntSolver;
///
/// let mut s = MaxEntSolver::new(2).unwrap();
/// s.add_constraint(0b01, 0.3).unwrap();
/// s.add_constraint(0b10, 0.4).unwrap();
/// let d = s.solve(200, 1e-9);
/// // Without joint knowledge, ME reduces to independence:
/// assert!((d.selectivity(0b11) - 0.12).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct MaxEntSolver {
    n: usize,
    /// `(mask, selectivity)`: P(∧ of predicates in mask) = selectivity.
    constraints: Vec<(u32, f64)>,
}

/// The fitted joint distribution over predicate atoms.
#[derive(Debug, Clone)]
pub struct MaxEntDistribution {
    n: usize,
    /// `atoms[b]` = probability that exactly the predicates in bitset `b`
    /// hold (and the rest fail).
    atoms: Vec<f64>,
}

impl MaxEntSolver {
    /// A solver over `n` predicates (`1 ≤ n ≤ 16`).
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 || n > 16 {
            return Err(RqpError::Invalid(format!(
                "maxent supports 1..=16 predicates, got {n}"
            )));
        }
        Ok(MaxEntSolver { n, constraints: Vec::new() })
    }

    /// Record that the conjunction of the predicates in `mask` has
    /// selectivity `sel`. `mask` must be a non-empty subset of `0..n` bits.
    pub fn add_constraint(&mut self, mask: u32, sel: f64) -> Result<&mut Self> {
        if mask == 0 || mask >= (1u32 << self.n) {
            return Err(RqpError::Invalid(format!(
                "constraint mask {mask:#b} out of range for n={}",
                self.n
            )));
        }
        if !(0.0..=1.0).contains(&sel) {
            return Err(RqpError::Invalid(format!("selectivity {sel} out of [0,1]")));
        }
        self.constraints.push((mask, sel.clamp(1e-12, 1.0 - 1e-12)));
        Ok(self)
    }

    /// Fit by iterative proportional fitting.
    ///
    /// Starts uniform (the zero-knowledge ME solution) and rescales atoms to
    /// satisfy each constraint in turn until the worst constraint violation
    /// falls below `tol` or `max_iters` sweeps elapse.
    pub fn solve(&self, max_iters: usize, tol: f64) -> MaxEntDistribution {
        let atoms_n = 1usize << self.n;
        let mut atoms = vec![1.0 / atoms_n as f64; atoms_n];
        for _ in 0..max_iters {
            let mut worst: f64 = 0.0;
            for &(mask, sel) in &self.constraints {
                let cur: f64 = atoms
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| (*b as u32) & mask == mask)
                    .map(|(_, &p)| p)
                    .sum();
                worst = worst.max((cur - sel).abs());
                if cur <= 0.0 || cur >= 1.0 {
                    continue;
                }
                let up = sel / cur;
                let down = (1.0 - sel) / (1.0 - cur);
                for (b, p) in atoms.iter_mut().enumerate() {
                    if (b as u32) & mask == mask {
                        *p *= up;
                    } else {
                        *p *= down;
                    }
                }
            }
            if worst < tol {
                break;
            }
        }
        // Renormalize against drift.
        let total: f64 = atoms.iter().sum();
        if total > 0.0 {
            for p in &mut atoms {
                *p /= total;
            }
        }
        MaxEntDistribution { n: self.n, atoms }
    }
}

impl MaxEntDistribution {
    /// Number of predicates modelled.
    pub fn n(&self) -> usize {
        self.n
    }

    /// P(∧ of predicates in `mask`): sum over atoms containing `mask`.
    /// `mask == 0` returns 1.
    pub fn selectivity(&self, mask: u32) -> f64 {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(b, _)| (*b as u32) & mask == mask)
            .map(|(_, &p)| p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_independence_without_multivariate_knowledge() {
        let mut s = MaxEntSolver::new(2).unwrap();
        s.add_constraint(0b01, 0.3).unwrap();
        s.add_constraint(0b10, 0.4).unwrap();
        let d = s.solve(200, 1e-9);
        assert!((d.selectivity(0b01) - 0.3).abs() < 1e-6);
        assert!((d.selectivity(0b10) - 0.4).abs() < 1e-6);
        assert!(
            (d.selectivity(0b11) - 0.12).abs() < 1e-4,
            "ME without correlation info = independence, got {}",
            d.selectivity(0b11)
        );
        assert!((d.selectivity(0) - 1.0).abs() < 1e-9, "the empty conjunction is certain");
    }

    #[test]
    fn respects_full_correlation() {
        // p1 implies p2: s1 = 0.3, s2 = 0.4, s12 = 0.3 (not 0.12).
        //
        // The ME solution sits on the simplex boundary (the p1∧¬p2 atom is
        // forced to zero), where IPF converges only at O(1/k) — so we allow
        // estimator-grade tolerance rather than solver-grade.
        let mut s = MaxEntSolver::new(2).unwrap();
        s.add_constraint(0b01, 0.3).unwrap();
        s.add_constraint(0b10, 0.4).unwrap();
        s.add_constraint(0b11, 0.3).unwrap();
        let d = s.solve(5000, 1e-12);
        assert!((d.selectivity(0b11) - 0.3).abs() < 0.01, "got {}", d.selectivity(0b11));
        assert!((d.selectivity(0b01) - 0.3).abs() < 0.01, "got {}", d.selectivity(0b01));
    }

    #[test]
    fn three_predicates_with_pairwise_knowledge() {
        let mut s = MaxEntSolver::new(3).unwrap();
        s.add_constraint(0b001, 0.5).unwrap();
        s.add_constraint(0b010, 0.5).unwrap();
        s.add_constraint(0b100, 0.2).unwrap();
        s.add_constraint(0b011, 0.4).unwrap(); // p1,p2 strongly correlated
        let d = s.solve(1000, 1e-10);
        // Triple estimate should use the pairwise correlation: ≈ 0.4 * 0.2,
        // not the naive 0.5 * 0.5 * 0.2.
        let triple = d.selectivity(0b111);
        assert!(
            (triple - 0.08).abs() < 0.01,
            "expected ≈0.08 (correlated pair × independent third), got {triple}"
        );
        assert!((d.selectivity(0b011) - 0.4).abs() < 1e-4);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(MaxEntSolver::new(0).is_err());
        assert!(MaxEntSolver::new(17).is_err());
        let mut s = MaxEntSolver::new(2).unwrap();
        assert!(s.add_constraint(0, 0.5).is_err());
        assert!(s.add_constraint(0b100, 0.5).is_err());
        assert!(s.add_constraint(0b01, 1.5).is_err());
    }

    #[test]
    fn atoms_form_distribution() {
        let mut s = MaxEntSolver::new(3).unwrap();
        s.add_constraint(0b001, 0.7).unwrap();
        s.add_constraint(0b110, 0.2).unwrap();
        let d = s.solve(500, 1e-10);
        let sum: f64 = d.atoms.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(d.atoms.iter().all(|&p| p >= 0.0));
        assert_eq!(d.n(), 3);
    }
}
