//! One-round iterative refinement with a contraction acceptance gate.
//!
//! A factorisation that is stale, perturbed or marginally conditioned
//! can return a solution whose true residual is far above rounding
//! level. One round of iterative refinement — solve the residual
//! through the same (cheap, already-computed) factorisation and correct
//! the iterate — repairs most such solves. The primitive here makes the
//! round *safe*: the corrected iterate is accepted only when it
//! strictly contracts the true residual norm, so refinement can never
//! make a solution worse. Callers that still see a non-contracting
//! residual should treat the factorisation as untrustworthy
//! ([`crate::NumericalHazard::RefinementStall`]) and refactor.

/// Result of one [`refine_once`] round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// ∞-norm of the true residual before the round (`f64::INFINITY`
    /// when the residual contained non-finite values).
    pub residual_before: f64,
    /// ∞-norm of the true residual of the *corrected* iterate, whether
    /// or not it was accepted.
    pub residual_after: f64,
    /// True when the corrected iterate was committed to `x` (its
    /// residual was finite and strictly smaller).
    pub accepted: bool,
}

/// ∞-norm that treats any NaN as infinitely bad (a plain max-fold
/// would silently skip NaNs because all NaN comparisons are false).
pub fn norm_inf(v: &[f64]) -> f64 {
    let mut m = 0.0_f64;
    for &x in v {
        let a = x.abs();
        if a.is_nan() {
            return f64::INFINITY;
        }
        if a > m {
            m = a;
        }
    }
    m
}

/// Performs one round of iterative refinement on `x`.
///
/// `residual_into(x, out)` must write the true residual `A·x − b` and
/// `solve_into(r, out)` must solve `M·δ = r` against the factorisation
/// under test (`M ≈ A`). The corrected iterate `x − δ` is committed to
/// `x` only if its true residual norm strictly contracts; otherwise `x`
/// is left untouched. `resid`, `delta` and `trial` are caller-provided
/// scratch of the same length as `x`.
///
/// # Panics
///
/// Panics if the scratch slices and `x` differ in length.
pub fn refine_once(
    x: &mut [f64],
    resid: &mut [f64],
    delta: &mut [f64],
    trial: &mut [f64],
    mut residual_into: impl FnMut(&[f64], &mut [f64]),
    mut solve_into: impl FnMut(&[f64], &mut [f64]),
) -> RefineOutcome {
    assert_eq!(x.len(), resid.len(), "scratch length");
    assert_eq!(x.len(), delta.len(), "scratch length");
    assert_eq!(x.len(), trial.len(), "scratch length");
    residual_into(x, resid);
    let before = norm_inf(resid);
    solve_into(resid, delta);
    for ((t, xv), d) in trial.iter_mut().zip(x.iter()).zip(delta.iter()) {
        *t = xv - d;
    }
    residual_into(trial, resid);
    let after = norm_inf(resid);
    let accepted = after.is_finite() && after < before;
    if accepted {
        x.copy_from_slice(trial);
    }
    RefineOutcome {
        residual_before: before,
        residual_after: after,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{Lu, Matrix};

    fn residual_of<'a>(a: &'a Matrix, b: &'a [f64]) -> impl FnMut(&[f64], &mut [f64]) + 'a {
        move |x, out| {
            let ax = a.mul_vec(x);
            for (o, (axv, bv)) in out.iter_mut().zip(ax.iter().zip(b)) {
                *o = axv - bv;
            }
        }
    }

    #[test]
    fn refinement_repairs_a_perturbed_solve() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 4.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        a.add(1, 1, 3.0);
        let b = [1.0, 2.0];
        let mut lu = Lu::factor(&a).unwrap();
        lu.perturb_first_pivot(1.5);
        let mut x = lu.solve(&b);
        let (mut r, mut d, mut t) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        let out = refine_once(
            &mut x,
            &mut r,
            &mut d,
            &mut t,
            residual_of(&a, &b),
            |rhs, sol| lu.solve_into(rhs, sol),
        );
        assert!(out.accepted, "{out:?}");
        assert!(out.residual_after < out.residual_before);
    }

    #[test]
    fn exact_solution_never_gets_worse() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 2.0);
        a.add(1, 1, 5.0);
        let b = [2.0, 10.0];
        let lu = Lu::factor(&a).unwrap();
        let mut x = lu.solve(&b);
        let want = x.clone();
        let (mut r, mut d, mut t) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        let out = refine_once(
            &mut x,
            &mut r,
            &mut d,
            &mut t,
            residual_of(&a, &b),
            |rhs, sol| lu.solve_into(rhs, sol),
        );
        // A zero residual cannot strictly contract, so the round is
        // rejected and the (already exact) solution is untouched.
        assert!(!out.accepted);
        assert_eq!(x, want);
    }

    #[test]
    fn non_finite_residuals_read_as_infinity() {
        assert_eq!(norm_inf(&[1.0, f64::NAN]), f64::INFINITY);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
