//! E6 bench: regenerates Figure 4 (detection instances per faulty
//! circuit). The timed portion covers circuit 1's 16-fault correlation
//! campaign; the full three-circuit figure is printed once.

use criterion::{criterion_group, criterion_main, Criterion};
use msbist_bench::experiments::e6;
use msbist_bench::hooks::CampaignHooks;

fn bench(c: &mut Criterion) {
    let hooks = CampaignHooks::new(e6::E6_WORKERS);
    let mut group = c.benchmark_group("e6_transient_test");
    group.sample_size(10);
    group.bench_function("circuit1_correlation_campaign", |b| {
        b.iter(|| {
            let report = e6::run_circuit1_only(&hooks).expect("golden circuit must simulate");
            assert_eq!(report.correlation.circuit(1).len(), 16);
            report
        })
    });
    group.finish();

    println!(
        "\n{}",
        e6::run(&hooks).expect("golden circuit must simulate")
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
