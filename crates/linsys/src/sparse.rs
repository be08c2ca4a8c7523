//! Compressed-sparse-column matrices and a sparse LU factorisation
//! whose arithmetic mirrors the dense [`crate::matrix::Lu`] bit for
//! bit.
//!
//! The MNA systems the circuit solver assembles are small but very
//! sparse (a handful of entries per row), and the Newton hot loop
//! factorises one per iteration. This module splits that work the way
//! sparse direct solvers do:
//!
//! * [`SparseStructure`] — the *symbolic* side: the sparsity pattern of
//!   the assembled system plus a dense position→slot lookup table, so
//!   stamping into a [`SparseMatrix`] costs the same indexed add a
//!   dense matrix would. The structure is computed once per (netlist,
//!   fault) structure and shared (`Arc`) across every Newton iteration
//!   and timestep.
//! * [`SparseMatrix`] — the numeric values over a shared structure:
//!   clear, indexed add, row-oriented matrix–vector product.
//! * [`SparseLu`] — a left-looking Gilbert–Peierls LU with partial
//!   pivoting. Pivot choice, update order and per-entry arithmetic
//!   replicate the dense `Lu::factor`/`Lu::solve` exactly (see below),
//!   and [`SparseLu::refactor`] reuses every allocation for the
//!   numeric-only refactorisations the Newton loop performs.
//!
//! # Bit-compatibility with the dense factorisation
//!
//! The dense [`crate::matrix::Lu`] is the reference this kernel is
//! property-tested against (`tests/properties.rs`): the two
//! factorisations produce bit-identical *nonzero* values (zeros may
//! differ in sign; the circuit solver normalises them at the solve
//! boundary):
//!
//! * **Pivoting** — the dense code scans physical rows `col..n` in
//!   current order, keeps the strictly-greater maximum of `|value|`,
//!   rejects pivots below [`crate::PIVOT_REL_TOL`] times the column's
//!   largest updated magnitude, and swaps whole rows. Here the physical
//!   order lives in a permutation vector scanned the same way with the
//!   same strict comparison; the column scale is the maximum over the
//!   accumulator pattern, which matches the dense maximum because every
//!   entry the dense code sees outside the pattern is an exact zero.
//! * **Update order** — the dense right-looking elimination applies,
//!   to each entry, the updates from pivot columns `k` in ascending
//!   order, skipping a pivot row whose multiplier is exactly `0.0`.
//!   The left-looking column solve here walks `k` ascending and keeps
//!   the same `multiplier != 0.0` skip, so every entry accumulates the
//!   same terms in the same order.
//! * **Substitution order** — forward substitution walks rows
//!   ascending with columns ascending inside each row; backward
//!   substitution walks rows descending with columns ascending, one
//!   division by the diagonal per row. [`SparseLu`] stores L and U in
//!   row-major form post-factorisation so its substitutions visit
//!   entries in exactly that order.
//!
//! Entries the dense code touches that the sparse pattern omits are
//! exact (signed) zeros on both sides; skipping them can flip the sign
//! of a zero but never changes a nonzero value.

use std::sync::Arc;

use crate::error::SingularMatrixError;
use crate::matrix::Matrix;

/// Marker for an absent entry in the dense position→slot table.
const NO_SLOT: u32 = u32::MAX;

/// The symbolic half of a sparse system: the sparsity pattern of an
/// `n × n` matrix, with column-major and row-major index forms plus a
/// dense lookup table mapping `(row, col)` to a value slot.
///
/// Build one with [`SparseStructure::from_positions`] and share it
/// (`Arc`) between every [`SparseMatrix`] that assembles the same
/// circuit structure.
#[derive(Debug)]
pub struct SparseStructure {
    n: usize,
    /// CSC column pointers (`n + 1` entries).
    col_ptr: Vec<usize>,
    /// Row index of each stored entry, ascending within a column.
    row_idx: Vec<u32>,
    /// CSC entry order is the canonical slot order: `slot[r * n + c]`
    /// is the value index of `(r, c)`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// Row-major traversal of the same slots: row pointers,
    /// per-entry column indices and value-slot indices.
    row_ptr: Vec<usize>,
    row_col: Vec<u32>,
    row_slot: Vec<u32>,
}

impl SparseStructure {
    /// Builds a structure from the set of occupied `(row, col)`
    /// positions (duplicates are fine).
    ///
    /// # Panics
    ///
    /// Panics if any position lies outside the `n × n` grid.
    pub fn from_positions(n: usize, positions: &[(usize, usize)]) -> Arc<Self> {
        let mut present = vec![false; n * n];
        for &(r, c) in positions {
            assert!(r < n && c < n, "position ({r}, {c}) outside {n}x{n} matrix");
            present[r * n + c] = true;
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::new();
        let mut slot = vec![NO_SLOT; n * n];
        for c in 0..n {
            for r in 0..n {
                if present[r * n + c] {
                    slot[r * n + c] = u32::try_from(row_idx.len()).expect("pattern fits u32");
                    row_idx.push(r as u32);
                }
            }
            col_ptr[c + 1] = row_idx.len();
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut row_col = Vec::with_capacity(row_idx.len());
        let mut row_slot = Vec::with_capacity(row_idx.len());
        for r in 0..n {
            for c in 0..n {
                let s = slot[r * n + c];
                if s != NO_SLOT {
                    row_col.push(c as u32);
                    row_slot.push(s);
                }
            }
            row_ptr[r + 1] = row_col.len();
        }
        Arc::new(SparseStructure {
            n,
            col_ptr,
            row_idx,
            slot,
            row_ptr,
            row_col,
            row_slot,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structurally nonzero entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Value-slot index of `(r, c)`, if the position is in the pattern.
    pub fn slot_of(&self, r: usize, c: usize) -> Option<usize> {
        match self.slot[r * self.n + c] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }
}

/// Numeric values over a shared [`SparseStructure`].
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    structure: Arc<SparseStructure>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// An all-zero matrix over `structure`.
    pub fn zeros(structure: Arc<SparseStructure>) -> Self {
        let nnz = structure.nnz();
        SparseMatrix {
            structure,
            values: vec![0.0; nnz],
        }
    }

    /// The shared structure.
    pub fn structure(&self) -> &Arc<SparseStructure> {
        &self.structure
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.structure.n
    }

    /// Resets every stored value to zero (the pattern is retained).
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// Stored values in canonical (CSC) slot order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the stored values from a snapshot taken with
    /// [`SparseMatrix::values`] (the linear-stamp baseline fast path).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn load_values(&mut self, values: &[f64]) {
        self.values.copy_from_slice(values);
    }

    /// Adds `value` at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is not in the pattern — the structure must
    /// have been built from a superset of the stamped positions.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, value: f64) {
        let s = self.structure.slot[r * self.structure.n + c];
        assert!(s != NO_SLOT, "stamp at ({r}, {c}) outside sparse pattern");
        self.values[s as usize] += value;
    }

    /// Entry at `(r, c)` (zero when outside the pattern).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.structure
            .slot_of(r, c)
            .map_or(0.0, |s| self.values[s])
    }

    /// Row-oriented matrix–vector product into `out`, visiting each
    /// row's entries in ascending column order (the dense
    /// [`Matrix::mul_vec`] accumulation order restricted to the
    /// pattern).
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        let s = &*self.structure;
        for (r, slot) in out.iter_mut().enumerate().take(s.n) {
            let mut acc = 0.0;
            for e in s.row_ptr[r]..s.row_ptr[r + 1] {
                acc += self.values[s.row_slot[e] as usize] * x[s.row_col[e] as usize];
            }
            *slot = acc;
        }
    }

    /// Residual `A·x − b` into `out` in one pass: each row accumulates
    /// its product with [`SparseMatrix::mul_vec_into`]'s ascending-column
    /// order, then subtracts `b[r]` — the identical operations of the
    /// two-pass form, fused so the Newton stale-trial path touches
    /// `out` once per iteration.
    pub fn residual_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) {
        let s = &*self.structure;
        for (r, slot) in out.iter_mut().enumerate().take(s.n) {
            let mut acc = 0.0;
            for e in s.row_ptr[r]..s.row_ptr[r + 1] {
                acc += self.values[s.row_slot[e] as usize] * x[s.row_col[e] as usize];
            }
            *slot = acc - b[r];
        }
    }

    /// Residual `A·x − b` into `out` plus the Oettli–Prager gate scale
    /// `max_r(Σ_c |a_rc·x_c| + |b_r|)`, in one pass — the sparse twin of
    /// [`Matrix::residual_gate_into`], bit-identical to it because both
    /// visit each row's entries in ascending column order and the
    /// entries this one skips are exact zeros whose `|0·x|` contribution
    /// cannot change a non-negative sum.
    pub fn residual_gate_into(&self, x: &[f64], b: &[f64], out: &mut [f64]) -> (f64, f64) {
        let s = &*self.structure;
        let mut rnorm = 0.0_f64;
        let mut scale = 0.0_f64;
        for (r, slot) in out.iter_mut().enumerate().take(s.n) {
            let mut acc = 0.0_f64;
            let mut mag = 0.0_f64;
            for e in s.row_ptr[r]..s.row_ptr[r + 1] {
                let p = self.values[s.row_slot[e] as usize] * x[s.row_col[e] as usize];
                acc += p;
                mag += p.abs();
            }
            *slot = acc - b[r];
            let ra = slot.abs();
            if ra.is_nan() {
                rnorm = f64::INFINITY;
            } else if ra > rnorm {
                rnorm = ra;
            }
            let g = mag + b[r].abs();
            if g.is_nan() {
                scale = f64::INFINITY;
            } else if g > scale {
                scale = g;
            }
        }
        (rnorm, scale)
    }

    /// 1-norm `max_c Σ_r |a_rc|`, bit-identical to the dense
    /// [`Matrix::norm_one`]: both accumulate each column in ascending
    /// row order and the entries skipped here are exact zeros.
    pub fn norm_one(&self) -> f64 {
        let s = &*self.structure;
        let mut colsum = vec![0.0_f64; s.n];
        for r in 0..s.n {
            for e in s.row_ptr[r]..s.row_ptr[r + 1] {
                colsum[s.row_col[e] as usize] += self.values[s.row_slot[e] as usize].abs();
            }
        }
        let mut m = 0.0_f64;
        for v in colsum {
            if v.is_nan() {
                return f64::INFINITY;
            }
            if v > m {
                m = v;
            }
        }
        m
    }

    /// Dense copy (diagnostics and tests).
    pub fn to_dense(&self) -> Matrix {
        let n = self.structure.n;
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                if let Some(s) = self.structure.slot_of(r, c) {
                    m.add(r, c, self.values[s]);
                }
            }
        }
        m
    }
}

/// Reusable scratch space for [`SparseLu::refactor`]: the dense
/// accumulator column, pattern flags and the by-column intermediate
/// factors. One workspace serves any number of refactorisations of the
/// same dimension without allocating.
#[derive(Debug, Clone, Default)]
pub struct SparseWorkspace {
    /// Dense accumulator for the active column, indexed by original
    /// row.
    x: Vec<f64>,
    /// Pattern membership of `x`, indexed by original row.
    in_pattern: Vec<bool>,
    /// Original rows currently in the pattern (reset list).
    pattern: Vec<u32>,
    /// L by pivot column: `(original row, multiplier)` per entry.
    lcol_ptr: Vec<usize>,
    lcol_row: Vec<u32>,
    lcol_val: Vec<f64>,
    /// U by column: `(pivot step k, value)` per entry, diagonal
    /// included.
    ucol_ptr: Vec<usize>,
    ucol_k: Vec<u32>,
    ucol_val: Vec<f64>,
    /// Original row → pivotal position (inverse of the permutation).
    pos: Vec<usize>,
    /// Pivot step → original pivot row.
    pivot_row: Vec<usize>,
    /// Per-row entry counters for the row-major transposes.
    row_count: Vec<usize>,
}

impl SparseWorkspace {
    /// A workspace for `n × n` factorisations.
    pub fn new(n: usize) -> Self {
        let mut ws = SparseWorkspace::default();
        ws.resize(n);
        ws
    }

    fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.in_pattern.resize(n, false);
        self.pos.resize(n, 0);
        self.pivot_row.resize(n, 0);
        self.row_count.resize(n, 0);
    }
}

/// A sparse LU factorisation `P·A = L·U` with the same pivot sequence
/// and arithmetic as the dense [`crate::matrix::Lu`].
///
/// L and U are stored row-major (by pivotal row) so the substitutions
/// visit entries in the dense order; L's unit diagonal is implicit.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    /// `perm[i]` = original row at pivotal position `i`.
    perm: Vec<usize>,
    lrow_ptr: Vec<usize>,
    lrow_col: Vec<u32>,
    lrow_val: Vec<f64>,
    /// Strictly-upper entries, columns ascending within a row.
    urow_ptr: Vec<usize>,
    urow_col: Vec<u32>,
    urow_val: Vec<f64>,
    diag: Vec<f64>,
    /// Column-major transposes of L and strict-upper U (row indices
    /// ascending within each column), consumed by
    /// [`SparseLu::solve_transpose_into`] in the dense accumulation
    /// order.
    lcolt_ptr: Vec<usize>,
    lcolt_row: Vec<u32>,
    lcolt_val: Vec<f64>,
    ucolt_ptr: Vec<usize>,
    ucolt_row: Vec<u32>,
    ucolt_val: Vec<f64>,
    /// Element growth factor of the last (re)factorisation.
    growth: f64,
}

impl SparseLu {
    /// Factorises `a`, allocating a fresh factor and workspace.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] when no usable pivot exists, mirroring
    /// the dense factorisation's threshold and breakdown row.
    pub fn factor(a: &SparseMatrix) -> Result<SparseLu, SingularMatrixError> {
        let mut ws = SparseWorkspace::new(a.n());
        let mut lu = SparseLu::default();
        lu.refactor(a, &mut ws)?;
        Ok(lu)
    }

    /// Numeric (re)factorisation of `a` into `self`, reusing both the
    /// factor's and the workspace's allocations. On error the factor
    /// contents are unspecified and must not be used for solves.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] when no usable pivot exists.
    pub fn refactor(
        &mut self,
        a: &SparseMatrix,
        ws: &mut SparseWorkspace,
    ) -> Result<(), SingularMatrixError> {
        let s = &**a.structure();
        let n = s.n;
        ws.resize(n);
        self.n = n;
        self.perm.clear();
        self.perm.extend(0..n);
        ws.lcol_ptr.clear();
        ws.lcol_ptr.push(0);
        ws.lcol_row.clear();
        ws.lcol_val.clear();
        ws.ucol_ptr.clear();
        ws.ucol_ptr.push(0);
        ws.ucol_k.clear();
        ws.ucol_val.clear();
        for (row, pos) in ws.pos.iter_mut().enumerate() {
            *pos = row;
        }
        let mut max_orig = 0.0_f64;
        for v in &a.values {
            let m = v.abs();
            if m > max_orig {
                max_orig = m;
            }
        }
        let mut max_grown = max_orig;

        for col in 0..n {
            // Scatter A's column into the dense accumulator.
            ws.pattern.clear();
            for e in s.col_ptr[col]..s.col_ptr[col + 1] {
                let r = s.row_idx[e] as usize;
                ws.x[r] = a.values[e];
                ws.in_pattern[r] = true;
                ws.pattern.push(r as u32);
            }

            // Left-looking update: pivot steps in ascending order are
            // exactly the ascending-`k` updates each entry of this
            // column receives in the dense right-looking elimination.
            for k in 0..col {
                let pr = ws.pivot_row[k];
                if !ws.in_pattern[pr] {
                    // Structurally zero U(k, col): the dense code
                    // subtracts `multiplier * ±0.0` here, which never
                    // changes a nonzero value.
                    continue;
                }
                let ukc = ws.x[pr];
                for e in ws.lcol_ptr[k]..ws.lcol_ptr[k + 1] {
                    let lik = ws.lcol_val[e];
                    // The dense elimination skips a row whose stored
                    // multiplier is exactly zero; keep that skip so
                    // fill-in and arithmetic match.
                    if lik != 0.0 {
                        let r = ws.lcol_row[e] as usize;
                        if !ws.in_pattern[r] {
                            ws.x[r] = 0.0;
                            ws.in_pattern[r] = true;
                            ws.pattern.push(r as u32);
                        }
                        ws.x[r] -= lik * ukc;
                    }
                }
            }

            // Partial pivoting over the not-yet-pivotal rows in current
            // physical order: same scan, same strict comparison, same
            // threshold as the dense code.
            let value_at = |row: usize| {
                if ws.in_pattern[row] {
                    ws.x[row]
                } else {
                    0.0
                }
            };
            let mut pivot_phys = col;
            let mut pivot_val = value_at(self.perm[col]).abs();
            for i in col + 1..n {
                let v = value_at(self.perm[i]).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_phys = i;
                }
            }
            // Column scale over the accumulator pattern: U entries
            // already gathered for this column plus the pivot
            // candidates. Entries outside the pattern are exact zeros
            // on the dense side too, so the maximum matches the dense
            // scan over all rows.
            let mut col_scale = pivot_val;
            for &r in &ws.pattern {
                let v = ws.x[r as usize].abs();
                if v > col_scale {
                    col_scale = v;
                }
            }
            if pivot_val == 0.0 || pivot_val < crate::PIVOT_REL_TOL * col_scale {
                return Err(SingularMatrixError { row: col });
            }
            if col_scale > max_grown {
                max_grown = col_scale;
            }
            self.perm.swap(col, pivot_phys);
            let pr = self.perm[col];
            ws.pos[pr] = col;
            ws.pos[self.perm[pivot_phys]] = pivot_phys;
            ws.pivot_row[col] = pr;
            let pivot = ws.x[pr];

            // Gather U(·, col) in ascending pivot-step order and the L
            // multipliers (one division by the pivot each, exactly as
            // the dense code computes its stored factors).
            for &r in &ws.pattern {
                let r = r as usize;
                let k = ws.pos[r];
                if k < col {
                    ws.ucol_k.push(k as u32);
                    ws.ucol_val.push(ws.x[r]);
                }
            }
            ws.ucol_k.push(col as u32);
            ws.ucol_val.push(pivot);
            ws.ucol_ptr.push(ws.ucol_k.len());
            for &r in &ws.pattern {
                let r = r as usize;
                if ws.pos[r] > col {
                    ws.lcol_row.push(r as u32);
                    ws.lcol_val.push(ws.x[r] / pivot);
                }
            }
            ws.lcol_ptr.push(ws.lcol_row.len());

            for &r in &ws.pattern {
                ws.in_pattern[r as usize] = false;
                ws.x[r as usize] = 0.0;
            }
        }

        self.growth = if max_orig > 0.0 {
            max_grown / max_orig
        } else {
            1.0
        };
        self.build_row_forms(ws);
        Ok(())
    }

    /// Transposes the by-column intermediates into the row-major forms
    /// the substitutions consume. Iterating source columns in ascending
    /// order lands each row's entries already sorted by column.
    fn build_row_forms(&mut self, ws: &mut SparseWorkspace) {
        let n = self.n;

        ws.row_count[..n].fill(0);
        for &r in &ws.lcol_row {
            ws.row_count[ws.pos[r as usize]] += 1;
        }
        self.lrow_ptr.clear();
        self.lrow_ptr.push(0);
        for r in 0..n {
            self.lrow_ptr.push(self.lrow_ptr[r] + ws.row_count[r]);
        }
        self.lrow_col.resize(ws.lcol_row.len(), 0);
        self.lrow_val.resize(ws.lcol_val.len(), 0.0);
        ws.row_count[..n].copy_from_slice(&self.lrow_ptr[..n]);
        for k in 0..n {
            for e in ws.lcol_ptr[k]..ws.lcol_ptr[k + 1] {
                let row = ws.pos[ws.lcol_row[e] as usize];
                let dst = ws.row_count[row];
                ws.row_count[row] += 1;
                self.lrow_col[dst] = k as u32;
                self.lrow_val[dst] = ws.lcol_val[e];
            }
        }

        self.diag.resize(n, 0.0);
        ws.row_count[..n].fill(0);
        for c in 0..n {
            for e in ws.ucol_ptr[c]..ws.ucol_ptr[c + 1] {
                let k = ws.ucol_k[e] as usize;
                if k < c {
                    ws.row_count[k] += 1;
                }
            }
        }
        self.urow_ptr.clear();
        self.urow_ptr.push(0);
        for r in 0..n {
            self.urow_ptr.push(self.urow_ptr[r] + ws.row_count[r]);
        }
        let strict_upper = self.urow_ptr[n];
        self.urow_col.resize(strict_upper, 0);
        self.urow_val.resize(strict_upper, 0.0);
        ws.row_count[..n].copy_from_slice(&self.urow_ptr[..n]);
        for c in 0..n {
            for e in ws.ucol_ptr[c]..ws.ucol_ptr[c + 1] {
                let k = ws.ucol_k[e] as usize;
                if k == c {
                    self.diag[c] = ws.ucol_val[e];
                } else {
                    let dst = ws.row_count[k];
                    ws.row_count[k] += 1;
                    self.urow_col[dst] = c as u32;
                    self.urow_val[dst] = ws.ucol_val[e];
                }
            }
        }

        // Transpose the row-major forms once more into column-major
        // forms for Aᵀ solves. Iterating source rows ascending lands
        // each column's row indices already sorted, which is exactly
        // the ascending-k accumulation order the dense transpose
        // substitutions use.
        ws.row_count[..n].fill(0);
        for &k in &self.lrow_col {
            ws.row_count[k as usize] += 1;
        }
        self.lcolt_ptr.clear();
        self.lcolt_ptr.push(0);
        for c in 0..n {
            self.lcolt_ptr.push(self.lcolt_ptr[c] + ws.row_count[c]);
        }
        self.lcolt_row.resize(self.lrow_col.len(), 0);
        self.lcolt_val.resize(self.lrow_val.len(), 0.0);
        ws.row_count[..n].copy_from_slice(&self.lcolt_ptr[..n]);
        for r in 0..n {
            for e in self.lrow_ptr[r]..self.lrow_ptr[r + 1] {
                let c = self.lrow_col[e] as usize;
                let dst = ws.row_count[c];
                ws.row_count[c] += 1;
                self.lcolt_row[dst] = r as u32;
                self.lcolt_val[dst] = self.lrow_val[e];
            }
        }

        ws.row_count[..n].fill(0);
        for &c in &self.urow_col {
            ws.row_count[c as usize] += 1;
        }
        self.ucolt_ptr.clear();
        self.ucolt_ptr.push(0);
        for c in 0..n {
            self.ucolt_ptr.push(self.ucolt_ptr[c] + ws.row_count[c]);
        }
        self.ucolt_row.resize(self.urow_col.len(), 0);
        self.ucolt_val.resize(self.urow_val.len(), 0.0);
        ws.row_count[..n].copy_from_slice(&self.ucolt_ptr[..n]);
        for r in 0..n {
            for e in self.urow_ptr[r]..self.urow_ptr[r + 1] {
                let c = self.urow_col[e] as usize;
                let dst = ws.row_count[c];
                ws.row_count[c] += 1;
                self.ucolt_row[dst] = r as u32;
                self.ucolt_val[dst] = self.urow_val[e];
            }
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` into `x`, mirroring the dense substitution
    /// order (forward rows ascending, backward rows descending, columns
    /// ascending within each row).
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length");
        assert_eq!(x.len(), n, "solution length");
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        for r in 1..n {
            let mut sum = x[r];
            for e in self.lrow_ptr[r]..self.lrow_ptr[r + 1] {
                sum -= self.lrow_val[e] * x[self.lrow_col[e] as usize];
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for e in self.urow_ptr[r]..self.urow_ptr[r + 1] {
                sum -= self.urow_val[e] * x[self.urow_col[e] as usize];
            }
            x[r] = sum / self.diag[r];
        }
    }

    /// Solves `A·x = b`, allocating the solution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `Aᵀ·x = b`, mirroring [`crate::matrix::Lu::solve_transpose_into`]:
    /// forward-substitute `Uᵀ·z = b` and back-substitute `Lᵀ·w = z`
    /// over the column-major transposes (row indices ascending inside
    /// each column, the dense accumulation order), then scatter through
    /// the permutation. Entries the dense code touches that the pattern
    /// omits are exact zeros, so nonzero results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` have the wrong length.
    pub fn solve_transpose_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length");
        assert_eq!(x.len(), n, "solution length");
        let mut w = vec![0.0; n];
        for r in 0..n {
            let mut sum = b[r];
            for e in self.ucolt_ptr[r]..self.ucolt_ptr[r + 1] {
                sum -= self.ucolt_val[e] * w[self.ucolt_row[e] as usize];
            }
            w[r] = sum / self.diag[r];
        }
        for r in (0..n).rev() {
            let mut sum = w[r];
            for e in self.lcolt_ptr[r]..self.lcolt_ptr[r + 1] {
                sum -= self.lcolt_val[e] * w[self.lcolt_row[e] as usize];
            }
            w[r] = sum;
        }
        for (i, &wv) in w.iter().enumerate() {
            x[self.perm[i]] = wv;
        }
    }

    /// Element growth factor of the last (re)factorisation; see
    /// [`crate::matrix::Lu::pivot_growth`].
    pub fn pivot_growth(&self) -> f64 {
        self.growth
    }

    /// 1-norm condition estimate; see [`crate::matrix::Lu::condest`].
    /// Bit-identical to the dense estimate for the same matrix.
    pub fn condest(&self, anorm: f64) -> f64 {
        crate::condest::condest_1(
            self.n,
            |b, x| self.solve_into(b, x),
            |b, x| self.solve_transpose_into(b, x),
            anorm,
        )
    }

    /// Multiplies the first stored pivot `U(0,0)` by `scale`; see
    /// [`crate::matrix::Lu::perturb_first_pivot`]. Fault-injection
    /// support only.
    pub fn perturb_first_pivot(&mut self, scale: f64) {
        if self.n > 0 {
            self.diag[0] *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Lu;

    fn dense_of(n: usize, entries: &[(usize, usize, f64)]) -> (Matrix, SparseMatrix) {
        let positions: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let structure = SparseStructure::from_positions(n, &positions);
        let mut sparse = SparseMatrix::zeros(structure);
        let mut dense = Matrix::zeros(n, n);
        for &(r, c, v) in entries {
            sparse.add(r, c, v);
            dense.add(r, c, v);
        }
        (dense, sparse)
    }

    /// A well-conditioned MNA-shaped system: diagonally dominant
    /// conductance grid with a couple of off-diagonal couplings.
    fn mna_like(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for r in 0..n {
            entries.push((r, r, 2.0 + next()));
            let c = (r + 1) % n;
            let g = 0.5 + next();
            entries.push((r, c, -g));
            entries.push((c, r, -g));
        }
        entries
    }

    #[test]
    fn structure_maps_positions_to_slots() {
        let s = SparseStructure::from_positions(3, &[(0, 0), (2, 1), (0, 0), (1, 2)]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.nnz(), 3);
        assert!(s.slot_of(0, 0).is_some());
        assert!(s.slot_of(2, 1).is_some());
        assert!(s.slot_of(1, 1).is_none());
    }

    #[test]
    fn add_accumulates_duplicates() {
        let (_, mut m) = dense_of(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside sparse pattern")]
    fn add_outside_pattern_panics() {
        let (_, mut m) = dense_of(2, &[(0, 0, 1.0)]);
        m.add(1, 0, 1.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let (dense, sparse) = dense_of(3, &mna_like(3, 7));
        let x = [1.5, -2.0, 0.25];
        let mut out = [0.0; 3];
        sparse.mul_vec_into(&x, &mut out);
        let want = dense.mul_vec(&x);
        assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn sparse_lu_is_bit_identical_to_dense_lu() {
        for n in [2usize, 5, 9, 16, 31] {
            for seed in [3u64, 17, 99] {
                let (dense, sparse) = dense_of(n, &mna_like(n, seed));
                let dlu = Lu::factor(&dense).expect("dense factors");
                let slu = SparseLu::factor(&sparse).expect("sparse factors");
                let b: Vec<f64> = (0..n).map(|i| (i as f64) - 0.3 * n as f64).collect();
                let xd = dlu.solve(&b);
                let xs = slu.solve(&b);
                for (i, (d, s)) in xd.iter().zip(&xs).enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        s.to_bits(),
                        "n={n} seed={seed} x[{i}]: dense {d:e} sparse {s:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn pivoting_kicks_in_on_zero_diagonal() {
        // (0,0) is structurally present but zero: the first pivot must
        // come from row 1, exactly as the dense code picks it.
        let entries = [(0, 0, 0.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 1.0)];
        let (dense, sparse) = dense_of(2, &entries);
        let dlu = Lu::factor(&dense).unwrap();
        let slu = SparseLu::factor(&sparse).unwrap();
        let b = [4.0, 5.0];
        assert_eq!(dlu.solve(&b), slu.solve(&b));
    }

    #[test]
    fn singular_matrix_reports_breakdown_row() {
        let entries = [(0, 0, 1.0), (1, 1, 0.0), (0, 1, 0.0), (1, 0, 0.0)];
        let (dense, sparse) = dense_of(2, &entries);
        let derr = Lu::factor(&dense).unwrap_err();
        let serr = SparseLu::factor(&sparse).unwrap_err();
        assert_eq!(derr, serr);
        assert_eq!(serr.row, 1);
    }

    #[test]
    fn refactor_reuses_allocations_and_stays_exact() {
        let entries = mna_like(12, 5);
        let (dense, mut sparse) = dense_of(12, &entries);
        let mut ws = SparseWorkspace::new(12);
        let mut lu = SparseLu::default();
        lu.refactor(&sparse, &mut ws).unwrap();

        // Perturb the values (same structure), refactor in place.
        sparse.clear();
        for &(r, c, v) in &entries {
            sparse.add(r, c, v * 1.5);
        }
        let dense2 = dense.scale(1.5);
        lu.refactor(&sparse, &mut ws).unwrap();
        let b: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let want = Lu::factor(&dense2).unwrap().solve(&b);
        let mut got = vec![0.0; 12];
        lu.solve_into(&b, &mut got);
        assert_eq!(want, got);
    }

    #[test]
    fn fill_in_beyond_the_input_pattern_is_handled() {
        // Arrow matrix: elimination of column 0 fills the whole last
        // row/column block.
        let n = 6;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i, 4.0 + i as f64));
        }
        for i in 1..n {
            entries.push((0, i, 1.0));
            entries.push((i, 0, 1.0));
        }
        let (dense, sparse) = dense_of(n, &entries);
        let dlu = Lu::factor(&dense).unwrap();
        let slu = SparseLu::factor(&sparse).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_eq!(dlu.solve(&b), slu.solve(&b));
    }
}
