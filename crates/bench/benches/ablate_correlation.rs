//! Ablation bench: direct vs FFT convolution crossover, plus the
//! raw-vs-correlation signature quality comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msbist_bench::experiments::{ablation, e6};
use msbist_bench::hooks::CampaignHooks;
use sigproc::convolution::{convolve, convolve_fft};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_correlation");
    for n in [64usize, 256, 1024, 4096] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b_sig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |bch, _| {
            bch.iter(|| convolve(&a, &b_sig))
        });
        group.bench_with_input(BenchmarkId::new("fft", n), &n, |bch, _| {
            bch.iter(|| convolve_fft(&a, &b_sig))
        });
    }
    group.finish();

    let s = ablation::signature_kind(&CampaignHooks::new(e6::E6_WORKERS));
    let (raw_cov, cor_cov, spec_cov) = s.coverage(40.0);
    println!(
        "\nsignature ablation (circuit 1): raw {:.0} %, correlation {:.0} %, spectral {:.0} %",
        raw_cov * 100.0,
        cor_cov * 100.0,
        spec_cov * 100.0
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
