//! Equivalence tests for the parallel and cached model-fitting paths.
//!
//! The parallel layer (`models::par`) and the incremental fit cache
//! (`models::GpFitCache`) are pure performance features: every result
//! they produce must be bit-for-bit identical to the sequential,
//! from-scratch computation. These tests pin that contract for the
//! forest across thread counts 1, 2 and 8, and for the GP grid fit
//! across warm and cold cache states.

use models::{FitKind, ForestParams, GpFitCache, GpRegressor, Kernel, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| 2.0 + v.iter().map(|&u| (u - 0.4) * (u - 0.4)).sum::<f64>())
        .collect();
    (x, y)
}

fn queries(k: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

const BASE: Kernel = Kernel::Matern52 {
    length_scale: 0.4,
    variance: 1.0,
};

#[test]
fn forest_fit_is_identical_across_thread_counts() {
    let (x, y) = dataset(60, 4, 21);
    let qs = queries(10, 4, 22);
    let seq = RandomForest::fit_threads(
        &x,
        &y,
        ForestParams::default(),
        &mut StdRng::seed_from_u64(3),
        1,
    );
    for threads in [2usize, 8] {
        let par = RandomForest::fit_threads(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(3),
            threads,
        );
        assert_eq!(seq.len(), par.len());
        for q in &qs {
            assert_eq!(
                seq.predict(q),
                par.predict(q),
                "forest prediction differs at {threads} threads"
            );
            assert_eq!(seq.predict_with_std(q), par.predict_with_std(q));
        }
    }
}

#[test]
fn predict_batch_matches_predict_loop() {
    let (x, y) = dataset(32, 6, 31);
    let gp = GpRegressor::fit_auto(&x, &y, BASE);
    let qs = queries(50, 6, 32);
    let batched = gp.predict_batch(&qs);
    assert_eq!(batched.len(), qs.len());
    for (q, b) in qs.iter().zip(&batched) {
        assert_eq!(gp.predict(q), *b);
    }
}

#[test]
fn incremental_cache_matches_full_refit_exactly() {
    // Grow a history one point at a time; after the first fit every
    // step should be an incremental cache hit whose fitted GP is
    // bit-for-bit identical to an uncached from-scratch fit_auto, for
    // every kernel family (the sensitivity analysis fits additive
    // kernels through the same grid path).
    let kernels = [
        BASE,
        Kernel::SquaredExp {
            length_scale: 0.4,
            variance: 1.0,
        },
        Kernel::Additive {
            length_scale: 0.3,
            variance: 1.0,
        },
    ];
    let (x, y) = dataset(30, 5, 41);
    let qs = queries(12, 5, 42);
    for base in kernels {
        let mut cache = GpFitCache::new();
        for n in 10..=x.len() {
            let (xs, ys) = (&x[..n], &y[..n]);
            let (cached, kind) = cache.fit_auto(xs, ys, base);
            if n > 10 {
                assert_eq!(kind, FitKind::Incremental, "{base:?}: n={n} should hit");
            }
            let fresh = GpRegressor::fit_auto(xs, ys, base);
            assert_eq!(
                cached.log_marginal_likelihood(),
                fresh.log_marginal_likelihood(),
                "{base:?}: lml diverges at n={n}"
            );
            for q in &qs {
                assert_eq!(
                    cached.predict(q),
                    fresh.predict(q),
                    "{base:?}: diverges at n={n}"
                );
            }
        }
        assert_eq!(cache.cached_points(), x.len());
    }
}

#[test]
fn cache_invalidates_on_kernel_change_and_shrunk_history() {
    let (x, y) = dataset(20, 4, 51);
    let mut cache = GpFitCache::new();
    let (_, k0) = cache.fit_auto(&x, &y, BASE);
    assert_eq!(k0, FitKind::Full);

    // Different base kernel: must refit from scratch.
    let other = Kernel::SquaredExp {
        length_scale: 0.4,
        variance: 1.0,
    };
    let (_, k1) = cache.fit_auto(&x, &y, other);
    assert_eq!(k1, FitKind::Full);

    // Shrunk history: must refit from scratch.
    let (_, k2) = cache.fit_auto(&x[..10], &y[..10], other);
    assert_eq!(k2, FitKind::Full);

    // Diverged prefix: must refit from scratch.
    let mut x2 = x[..10].to_vec();
    x2[0][0] += 0.5;
    let (_, k3) = cache.fit_auto(&x2, &y[..10], other);
    assert_eq!(k3, FitKind::Full);
}

#[test]
fn incremental_cache_appends_many_points_at_once() {
    // A hit does not require growth by exactly one point: the session
    // batches observations, so several rows may append per fit.
    let (x, y) = dataset(24, 5, 61);
    let mut cache = GpFitCache::new();
    cache.fit_auto(&x[..8], &y[..8], BASE);
    let (cached, kind) = cache.fit_auto(&x, &y, BASE);
    assert_eq!(kind, FitKind::Incremental);
    let fresh = GpRegressor::fit_auto(&x, &y, BASE);
    assert_eq!(
        cached.log_marginal_likelihood(),
        fresh.log_marginal_likelihood()
    );
    for q in &queries(8, 5, 62) {
        assert_eq!(cached.predict(q), fresh.predict(q));
    }
}
