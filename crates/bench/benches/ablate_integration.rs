//! Ablation bench: backward Euler vs trapezoidal integration on the
//! switching-heavy SC integrator — accuracy printed, cost timed.

use anasim::robust::SolveSettings;
use criterion::{criterion_group, criterion_main, Criterion};
use msbist_bench::experiments::ablation;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_integration");
    group.sample_size(10);
    group.bench_function("sc_integrator_both_rules", |b| {
        b.iter(|| ablation::integration_rule(100e-9, &SolveSettings::default()))
    });
    group.finish();

    let a = ablation::integration_rule(50e-9, &SolveSettings::default());
    println!(
        "\nintegration ablation: BE err {:.2} mV / {} steps, trap err {:.2} mV / {} steps",
        a.backward_euler_err * 1e3,
        a.backward_euler_steps,
        a.trapezoidal_err * 1e3,
        a.trapezoidal_steps
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
