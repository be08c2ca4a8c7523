//! Shared 1-norm condition estimation (Hager's algorithm, the
//! LINPACK/LAPACK `xLACON` family) for the dense and sparse LU
//! factorisations.
//!
//! The estimator needs only solves with `A` and `Aᵀ` against the
//! existing factorisation — a handful of triangular substitutions, no
//! refactorisation — so it is cheap enough to run as an advisory check
//! after a fresh factorisation.
//!
//! # Determinism
//!
//! The estimate feeds solver hazard counters that land in canonical
//! (byte-compared) reports, so it must be bit-identical between the
//! dense reference LU and the sparse kernel the solver runs. Every
//! choice here is made with that in mind:
//!
//! * the sign vector uses `>= 0.0`, which treats `-0.0` and `+0.0`
//!   identically (IEEE `-0.0 == 0.0`), so zero-sign differences between
//!   the factorisations cannot flip a sign;
//! * the argmax scan keeps the *first* strictly-greater index, the same
//!   tie-break the pivot scans use;
//! * accumulations run in ascending index order on both sides.
//!
//! Combined with solve/transpose-solve kernels that are bit-identical
//! for nonzero values (zeros may differ only in sign, and only their
//! magnitudes are consumed here), the returned estimate is
//! bit-identical across the two factorisations.

/// Estimates `anorm · ||A⁻¹||₁` (an estimate of the 1-norm condition
/// number) given closures that solve `A·y = x` and `Aᵀ·y = x` against a
/// factorisation of `A`.
///
/// Returns `0.0` for empty systems and `f64::INFINITY` when a solve
/// produces non-finite values (a hazard in its own right).
pub(crate) fn condest_1(
    n: usize,
    mut solve: impl FnMut(&[f64], &mut [f64]),
    mut solve_transpose: impl FnMut(&[f64], &mut [f64]),
    anorm: f64,
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut xi = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut est = 0.0_f64;
    // Hager's iteration converges in 2–3 steps in practice; five is the
    // customary hard cap.
    for _ in 0..5 {
        solve(&x, &mut y);
        let mut next = 0.0_f64;
        for v in &y {
            let a = v.abs();
            if a.is_nan() {
                return f64::INFINITY;
            }
            next += a;
        }
        if !next.is_finite() {
            return f64::INFINITY;
        }
        if next <= est {
            break;
        }
        est = next;
        for (s, v) in xi.iter_mut().zip(&y) {
            *s = if *v >= 0.0 { 1.0 } else { -1.0 };
        }
        solve_transpose(&xi, &mut z);
        // First strictly-greater index, matching the pivot-scan
        // tie-break.
        let mut j = 0;
        let mut zmax = z[0].abs();
        for (k, v) in z.iter().enumerate().skip(1) {
            let a = v.abs();
            if a > zmax {
                zmax = a;
                j = k;
            }
        }
        if zmax.is_nan() {
            return f64::INFINITY;
        }
        let mut dot = 0.0;
        for (zv, xv) in z.iter().zip(&x) {
            dot += zv * xv;
        }
        if zmax <= dot.abs() {
            break;
        }
        x.fill(0.0);
        x[j] = 1.0;
    }
    anorm * est
}
