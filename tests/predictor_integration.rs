//! Integration: the time predictors against real kernel measurements on
//! this host — the paper's central "predict before you train" claim.

use distilled_ltr::dense::time_gemm;
use distilled_ltr::dense::Matrix;
use distilled_ltr::predictor::calibrate::time_spmm;
use distilled_ltr::prelude::*;
use distilled_ltr::sparse::CsrMatrix;

#[test]
fn dense_predictor_orders_architectures_like_reality() {
    // Calibrate quickly, then check predicted ordering of three
    // architectures matches measured ordering of full forward costs.
    let p = calibrate_dense(true);
    let archs: [&[usize]; 3] = [&[400, 200, 200, 100], &[200, 100, 100, 50], &[50, 25]];
    let batch = 256;
    let input = 136;
    let mut measured = Vec::new();
    let mut predicted = Vec::new();
    for arch in archs {
        let mut dims = vec![input];
        dims.extend_from_slice(arch);
        dims.push(1);
        let secs: f64 = dims
            .windows(2)
            .map(|w| time_gemm(w[1], w[0], batch, 1, 3))
            .sum();
        measured.push(secs);
        predicted.push(p.predict_forward_us_per_doc(input, arch, batch));
    }
    // Both orderings: big > mid > small.
    assert!(
        measured[0] > measured[1] && measured[1] > measured[2],
        "{measured:?}"
    );
    assert!(
        predicted[0] > predicted[1] && predicted[1] > predicted[2],
        "{predicted:?}"
    );
}

#[test]
fn dense_predictor_is_within_a_small_factor_of_measurement() {
    let p = calibrate_dense(true);
    let batch = 512;
    let (m, k) = (400usize, 136usize);
    let measured_us = time_gemm(m, k, batch, 1, 5) * 1e6 / batch as f64;
    let predicted_us = p.predict_matmul_secs(m, k, batch) * 1e6 / batch as f64;
    let ratio = predicted_us / measured_us;
    assert!(
        (0.2..5.0).contains(&ratio),
        "predicted {predicted_us:.3} vs measured {measured_us:.3} us/doc (ratio {ratio:.2})"
    );
}

#[test]
fn sparse_predictor_distinguishes_sparsities_like_reality() {
    let p = calibrate_sparse(true);
    let (m, k, n) = (300usize, 136usize, 32usize);
    let make = |keep_every: usize| {
        let mut d = Matrix::random(m, k, 1.0, 5);
        for (i, v) in d.as_mut_slice().iter_mut().enumerate() {
            if i % keep_every != 0 {
                *v = 0.0;
            }
        }
        CsrMatrix::from_dense(&d, 0.0)
    };
    // A wide density contrast (~50% vs ~1%) keeps the ordering visible
    // even in unoptimized debug builds on loaded machines.
    let denser = make(2);
    let sparser = make(100);
    let t_denser = time_spmm(&denser, n, 3);
    let t_sparser = time_spmm(&sparser, n, 3);
    let p_denser = p.predict_secs(CsrShapeStats::of(&denser), n);
    let p_sparser = p.predict_secs(CsrShapeStats::of(&sparser), n);
    assert!(
        t_denser > t_sparser,
        "measured {t_denser:.2e} vs {t_sparser:.2e}"
    );
    assert!(
        p_denser > p_sparser,
        "predicted {p_denser:.2e} vs {p_sparser:.2e}"
    );
}

#[test]
fn architecture_search_candidates_respect_measured_budgets_in_order() {
    // Design under a generous budget and verify the *ranking* of the top
    // candidates' predicted dense time matches the predictor's own layer
    // sums (internal consistency of the search path).
    let p = DensePredictor::paper_i9_9900k();
    let space = SearchSpace {
        widths: vec![50, 100, 200, 400],
        depths: vec![2, 3],
        batch: 1000,
    };
    let candidates = design_architectures(&p, 136, 3.0, &space);
    assert!(!candidates.is_empty());
    for c in &candidates {
        let again = p.predict_forward_us_per_doc(136, &c.hidden, 1000);
        assert!((again - c.dense_us).abs() < 1e-9);
        assert!(c.pruned_us <= 3.0);
    }
}

#[test]
fn admission_forecast_is_the_pruned_prediction_times_the_safety_factor() {
    // The two shapes the benchmark serves, at its 64-document requests:
    // the serve-time forecast is Eq. 3 minus the first layer, padded by
    // the safety factor, and nothing else.
    let p = DensePredictor::paper_i9_9900k();
    for hidden in [vec![400, 200, 200, 100], vec![200, 100, 100, 50]] {
        let want = 1.5 * 64.0 * p.predict_pruned_us_per_doc(136, &hidden, 64) * 1e-6;
        let got = BudgetForecast::pruned(p.clone(), 136, hidden)
            .with_safety_factor(1.5)
            .forecast_batch_secs(64);
        assert!((got - want).abs() <= want * 1e-12, "{got} vs {want}");
    }
}

#[test]
fn benchmark_forecasts_are_linear_so_the_dispatcher_never_waits() {
    // Eq. 3 is linear in the batch, so coalescing saves no service time
    // and the flush rule must not wait at any fill — not even the
    // nanosecond or two by which three `f64` forecasts can disagree.
    let cfg = distilled_ltr::serve::BatchConfig {
        max_batch_docs: 256,
        max_wait: std::time::Duration::from_micros(200),
    };
    let oldest = 1_000_000;
    for predictor in [calibrate_dense(true), DensePredictor::paper_i9_9900k()] {
        for hidden in [vec![400, 200, 200, 100], vec![200, 100, 100, 50]] {
            let forecast = BudgetForecast::pruned(predictor.clone(), 136, hidden.clone())
                .with_safety_factor(1.5)
                .into_forecaster();
            for docs in 1..=255 {
                assert_eq!(
                    cfg.flush_deadline_nanos(Some(&forecast), docs, oldest, None),
                    oldest,
                    "{hidden:?} waits with {docs} documents queued"
                );
            }
        }
    }
}
