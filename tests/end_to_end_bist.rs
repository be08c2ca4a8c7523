//! Integration: the full BIST flow across crates — process sampling
//! (`macrolib`), die modelling (`msbist::device`), quick tests
//! (`msbist::bist`), characterisation and specification checking.

use mixsig::macrolib::process::{ProcessParams, VariationModel};
use mixsig::msbist::adc::circuit::CircuitAdc;
use mixsig::msbist::adc::spec::AdcSpecification;
use mixsig::msbist::adc::{AdcConverter, AdcErrorModel, DualSlopeAdc};
use mixsig::msbist::bist::quick_test::{run_quick_tests, QuickTestLimits};
use mixsig::msbist::bist::StepGenerator;
use mixsig::msbist::charac::characterise;
use mixsig::msbist::device::DieBatch;

#[test]
fn batch_screening_end_to_end() {
    let golden = run_quick_tests(&DualSlopeAdc::paper_measured(), &QuickTestLimits::paper());
    let limits = QuickTestLimits::paper().with_reference(golden.compressed.digital_signature);

    let batch = DieBatch::fabricate(10, &VariationModel::typical(), 1996);
    for die in &batch {
        let report = run_quick_tests(&die.adc, &limits);
        assert!(report.passed(), "die {} failed screening", die.index);
    }
}

#[test]
fn characterisation_consistent_across_dies() {
    // Every typical die characterises within loose bounds of nominal.
    let batch = DieBatch::fabricate(5, &VariationModel::typical(), 7);
    for die in &batch {
        let c = characterise(&die.adc, 60);
        assert!(c.offset_lsb.abs() < 0.6, "die {} offset {}", die.index, c.offset_lsb);
        assert!(c.max_dnl_lsb() < 2.0, "die {} dnl", die.index);
        assert!(c.missing_codes.is_empty(), "die {} missing codes", die.index);
    }
}

#[test]
fn quick_tests_are_coarser_than_full_characterisation() {
    // The paper's central observation: the macro passes the quick tests
    // yet fails the INL/DNL specification under full characterisation.
    let adc = DualSlopeAdc::paper_measured();
    let quick = run_quick_tests(&adc, &QuickTestLimits::paper());
    assert!(quick.passed(), "quick tests must pass");

    let c = characterise(&adc, 100);
    let spec = AdcSpecification::paper().check(&c);
    assert!(!spec.passed(), "full characterisation must catch INL/DNL");
    assert!(spec.failures().contains(&"INL") || spec.failures().contains(&"DNL"));

    // The E5 figures (`experiments e5` runs this very characterisation),
    // pinned to ±0.01 LSB.
    for (what, got, want) in [
        ("max INL", c.max_inl_lsb(), 1.3507),
        ("max DNL", c.max_dnl_lsb(), 1.2500),
        ("offset", c.offset_lsb, -0.1250),
        ("gain error", c.gain_error_lsb, 0.0313),
    ] {
        assert!(
            (got - want).abs() <= 0.01,
            "E5 {what}: {got:.4} LSB, pinned {want:.4} ± 0.01 LSB"
        );
    }
}

#[test]
fn sweep_of_fault_magnitudes_orders_detection() {
    // Larger reference errors always reduce the code at full scale
    // monotonically: a sanity link between fault magnitude and symptom.
    let mut last = u64::MAX;
    for gain in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let adc = DualSlopeAdc::with_errors(AdcErrorModel {
            gain_error: gain,
            ..AdcErrorModel::none()
        });
        let code = adc.convert(2.4);
        assert!(code <= last, "gain {gain} raised the code");
        last = code;
    }
}

#[test]
fn conversion_time_scales_with_input() {
    let adc = DualSlopeAdc::ideal();
    let t_low = adc.conversion_time(0.1);
    let t_high = adc.conversion_time(2.4);
    assert!(t_high > t_low);
    assert!(t_high <= 5.6e-3, "worst case inside the paper spec");
}

#[test]
fn simulated_e1_fall_times_are_pinned() {
    // The E1 table: the circuit-level integrator's fall time for each
    // step-generator level, at the default 4 µs simulation step. The
    // paper measured 2.6 ms at 0 V down to 0.1 ms at 2.5 V; these are
    // the simulator's own values, pinned so a solver change cannot
    // move them silently.
    const PINNED_MS: [f64; 6] = [2.607, 2.017, 1.647, 1.197, 0.807, 0.107];
    const TOL_MS: f64 = 0.02;
    let adc = CircuitAdc::new(ProcessParams::nominal());
    let levels = StepGenerator::paper().levels().to_vec();
    assert_eq!(levels.len(), PINNED_MS.len());
    for (level, want) in levels.into_iter().zip(PINNED_MS) {
        let got = adc.fall_time(level).expect("integrator falls") * 1e3;
        assert!(
            (got - want).abs() <= TOL_MS,
            "{level} V: fall time {got:.4} ms, pinned {want} ms ± {TOL_MS}"
        );
    }
}
