//! Criterion micro-benchmarks for the surrogate models: GP fit/predict
//! scaling, forest induction, tree prediction, k-medoids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use models::{
    ForestParams, GpFitCache, GpRegressor, Kernel, RandomForest, RegressionTree, TreeParams,
};

const MATERN: Kernel = Kernel::Matern52 {
    length_scale: 0.4,
    variance: 1.0,
};

fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .map(|(i, x)| (x - 0.1 * i as f64).powi(2))
                .sum()
        })
        .collect();
    (x, y)
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    for n in [25usize, 50, 100] {
        let (x, y) = synthetic(n, 26, 7);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                GpRegressor::fit(
                    &x,
                    &y,
                    Kernel::Matern52 {
                        length_scale: 0.4,
                        variance: 1.0,
                    },
                    1e-3,
                )
                .expect("psd")
            });
        });
    }
    let (x, y) = synthetic(100, 26, 8);
    let gp = GpRegressor::fit(
        &x,
        &y,
        Kernel::Matern52 {
            length_scale: 0.4,
            variance: 1.0,
        },
        1e-3,
    )
    .expect("psd");
    group.bench_function("predict_n100", |b| {
        b.iter(|| gp.predict(&x[3]));
    });
    let qs: Vec<Vec<f64>> = x.iter().take(64).cloned().collect();
    group.bench_function("predict_batch_64_n100", |b| {
        b.iter(|| gp.predict_batch(&qs));
    });
    group.finish();
}

/// The `fit_auto` hyperparameter grid: a cold fit (every factor grown
/// from zero rows) and the warm-cache paths — the tuning-loop hot path
/// this crate's perf work targets.
fn bench_fit_auto(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_auto");
    for n in [32usize, 120] {
        let (x, y) = synthetic(n, 26, 13);
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| GpRegressor::fit_auto(&x, &y, MATERN));
        });
        group.bench_with_input(BenchmarkId::new("cached_incremental", n), &n, |b, _| {
            // Warm the cache with the n-1 prefix, then measure the
            // one-row incremental update a BO iteration performs.
            b.iter(|| {
                let mut cache = GpFitCache::new();
                cache.fit_auto(&x[..n - 1], &y[..n - 1], MATERN);
                cache.fit_auto(&x, &y, MATERN)
            });
        });
        group.bench_with_input(BenchmarkId::new("cached_hot", n), &n, |b, _| {
            // Steady state: all rows already cached, the fit is pure
            // re-selection (O(n²) solves, no factorization).
            let mut cache = GpFitCache::new();
            cache.fit_auto(&x, &y, MATERN);
            b.iter(|| cache.fit_auto(&x, &y, MATERN));
        });
    }
    group.finish();
}

fn bench_trees(c: &mut Criterion) {
    let (x, y) = synthetic(200, 26, 9);
    let mut group = c.benchmark_group("trees");
    group.bench_function("cart_fit_n200", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng));
    });
    group.bench_function("forest_fit_n200", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| RandomForest::fit(&x, &y, ForestParams::default(), &mut rng));
    });
    group.bench_function("forest_fit_n200_threads1", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| RandomForest::fit_threads(&x, &y, ForestParams::default(), &mut rng, 1));
    });
    let mut rng = StdRng::seed_from_u64(3);
    let forest = RandomForest::fit(&x, &y, ForestParams::default(), &mut rng);
    group.bench_function("forest_predict", |b| {
        b.iter(|| forest.predict(&x[0]));
    });
    group.finish();
}

/// `n` points in `d` dimensions scattered tightly around a few random
/// centres, like the workload signatures a provider's history clusters.
fn clumpy(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f64>> = (0..5)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    (0..n)
        .map(|i| {
            centres[i % centres.len()]
                .iter()
                .map(|c| c + 0.1 * (rng.gen::<f64>() - 0.5))
                .collect()
        })
        .collect()
}

fn bench_kmedoids(c: &mut Criterion) {
    let (x, _) = synthetic(60, 8, 11);
    c.bench_function("kmedoids_n60_k4", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| models::k_medoids(&x, 4, 10, &mut rng));
    });
    // The size of a warm provider's cluster build.
    let x = clumpy(1400, 8, 12);
    c.bench_function("kmedoids_n1400_k3", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| models::k_medoids(&x, 3, 20, &mut rng));
    });
}

criterion_group! {
    name = benches;
    // Short windows: the suite is run as part of the deliverable
    // pipeline, and microsecond-scale effects are visible well before
    // Criterion's defaults.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_gp, bench_fit_auto, bench_trees, bench_kmedoids
}
criterion_main!(benches);
