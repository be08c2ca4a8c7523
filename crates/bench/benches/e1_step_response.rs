//! E1 bench: regenerates the step-level → integrator-fall-time table
//! (the paper's "Analogue test results") and times the circuit-level
//! measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use msbist_bench::experiments::e1;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_step_response");
    group.sample_size(10);
    group.bench_function("six_level_fall_time_table", |b| {
        b.iter(|| {
            let report = e1::run(20e-6, None);
            assert!(report.monotone_decreasing());
            report
        })
    });
    group.finish();

    // Print the regenerated table once per bench run.
    println!("\n{}", e1::run(10e-6, None));
}

criterion_group!(benches, bench);
criterion_main!(benches);
