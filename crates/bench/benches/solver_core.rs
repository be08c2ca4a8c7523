//! Solver-core bench: `linsys` LU factor+solve kernels on MNA-style
//! conductance matrices across the circuit sizes the test macros
//! actually produce (8) up to the scale where dense O(n³) becomes
//! untenable (512). The sparse kernel the Newton loop runs replays the
//! pivot order of the dense reference `Lu`, so the two produce
//! bit-identical solutions — this bench measures the *cost* gap, and a
//! cross-check per size keeps the comparison honest.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use linsys::matrix::{Lu, Matrix};
use linsys::sparse::{SparseLu, SparseMatrix, SparseStructure, SparseWorkspace};

/// Node counts swept: a small macro, a board-level block, and two
/// campaign-scale sizes.
const SIZES: [usize; 4] = [8, 32, 128, 512];

/// An MNA-style grounded conductance network: every node leaks to
/// ground (diagonal dominance ⇒ invertibility) and couples to a few
/// deterministic "neighbour" nodes, giving the ~4 entries/row sparsity
/// a real netlist stamps.
struct MnaFixture {
    n: usize,
    branches: Vec<(usize, usize, f64)>,
    rhs: Vec<f64>,
}

impl MnaFixture {
    fn new(n: usize) -> Self {
        // Deterministic pseudo-random conductances (xorshift), so the
        // bench is reproducible without a random-number dependency.
        let mut state = 0x9e3779b97f4a7c15u64 ^ n as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to a conductance in [0.1, 10) — a 100Ω–10kΩ resistor.
            0.1 + (state >> 11) as f64 / (1u64 << 53) as f64 * 9.9
        };
        let mut branches = Vec::new();
        for a in 0..n {
            // Chain + skip links: roughly the connectivity of a ladder
            // network with occasional bridges.
            branches.push((a, (a + 1) % n, next()));
            if a % 5 == 0 {
                branches.push((a, (a + 7) % n, next()));
            }
        }
        branches.retain(|&(a, b, _)| a != b);
        let rhs = (0..n).map(|_| next()).collect();
        MnaFixture { n, branches, rhs }
    }

    fn stamp(&self, mut add: impl FnMut(usize, usize, f64)) {
        for k in 0..self.n {
            add(k, k, 1e-3); // ground leak
        }
        for &(a, b, g) in &self.branches {
            add(a, a, g);
            add(b, b, g);
            add(a, b, -g);
            add(b, a, -g);
        }
    }

    fn dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        self.stamp(|r, c, v| m.add(r, c, v));
        m
    }

    fn structure(&self) -> Arc<SparseStructure> {
        let mut pos: Vec<(usize, usize)> = (0..self.n).map(|k| (k, k)).collect();
        for &(a, b, _) in &self.branches {
            pos.extend([(a, a), (b, b), (a, b), (b, a)]);
        }
        SparseStructure::from_positions(self.n, &pos)
    }

    fn sparse(&self) -> SparseMatrix {
        let mut m = SparseMatrix::zeros(self.structure());
        self.stamp(|r, c, v| m.add(r, c, v));
        m
    }
}

fn bench(c: &mut Criterion) {
    for n in SIZES {
        let fixture = MnaFixture::new(n);
        let dense = fixture.dense();
        let sparse = fixture.sparse();

        // Cross-check once per size: the kernels must agree bit for
        // bit, or the speed comparison is comparing different answers.
        let xd = Lu::factor(&dense).expect("dominant").solve(&fixture.rhs);
        let xs = SparseLu::factor(&sparse)
            .expect("dominant")
            .solve(&fixture.rhs);
        assert!(
            xd.iter().zip(&xs).all(|(d, s)| d.to_bits() == s.to_bits()),
            "kernels disagree at n={n}"
        );

        let name = format!("solver_core_n{n}");
        let mut group = c.benchmark_group(&name);
        // Dense factorisation is O(n³); keep the large sizes affordable.
        group.sample_size(if n >= 128 { 10 } else { 30 });

        group.bench_function("dense_factor_solve", |b| {
            let mut x = vec![0.0; n];
            b.iter(|| {
                let lu = Lu::factor(&dense).expect("dominant");
                lu.solve_into(&fixture.rhs, &mut x);
                x[0]
            })
        });

        group.bench_function("sparse_factor_solve", |b| {
            let mut x = vec![0.0; n];
            b.iter(|| {
                let lu = SparseLu::factor(&sparse).expect("dominant");
                lu.solve_into(&fixture.rhs, &mut x);
                x[0]
            })
        });

        // The campaign hot path: symbolic structure and allocations
        // amortised, numeric-only refactorisation each Newton iteration.
        group.bench_function("sparse_refactor_solve", |b| {
            let mut ws = SparseWorkspace::new(n);
            let mut lu = SparseLu::factor(&sparse).expect("dominant");
            let mut x = vec![0.0; n];
            b.iter(|| {
                lu.refactor(&sparse, &mut ws).expect("dominant");
                lu.solve_into(&fixture.rhs, &mut x);
                x[0]
            })
        });

        // Back-substitution alone — what a reused factorisation pays.
        group.bench_function("sparse_solve_only", |b| {
            let lu = SparseLu::factor(&sparse).expect("dominant");
            let mut x = vec![0.0; n];
            b.iter(|| {
                lu.solve_into(&fixture.rhs, &mut x);
                x[0]
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
