//! Property-based tests for the model crate's numerical invariants.

use models::{
    expected_improvement, GpRegressor, Kernel, LinalgError, Matrix, RandomForest, RegressionTree,
    TreeParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random PSD matrix A = B·Bᵀ + εI.
fn psd(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen::<f64>() - 0.5).collect());
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += 0.1;
    }
    a
}

/// The leading `n × n` principal minor of `a`.
fn minor(a: &Matrix, n: usize) -> Matrix {
    let data = (0..n).flat_map(|i| a.row(i)[..n].to_vec()).collect();
    Matrix::from_vec(n, n, data)
}

/// Rows `n..` of `a`: the rows that grow its minor's factor.
fn tail_rows(a: &Matrix, n: usize) -> Matrix {
    let data = (n..a.rows()).flat_map(|i| a.row(i).to_vec()).collect();
    Matrix::from_vec(a.rows() - n, a.cols(), data)
}

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|v| v.iter().sum::<f64>() * 3.0 + 1.0)
        .collect();
    (x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cholesky of a PSD matrix always succeeds, and L·Lᵀ reconstructs A.
    #[test]
    fn cholesky_reconstructs(seed in any::<u64>(), n in 2usize..8) {
        let a = psd(n, seed);
        let l = a.cholesky().expect("psd by construction");
        let back = l.matmul(&l.transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    /// Growing the factor of a leading principal minor by the remaining
    /// `k` rows, one or several at once, reproduces the from-scratch
    /// factorization bit for bit.
    #[test]
    fn cholesky_grow_matches_full(seed in any::<u64>(), n in 1usize..7, k in 1usize..4) {
        let big = psd(n + k, seed);
        let l_small = minor(&big, n).cholesky().expect("principal minor of psd");
        let grown = l_small.cholesky_grow(&tail_rows(&big, n)).expect("psd");
        prop_assert_eq!(grown, big.cholesky().expect("psd"));
    }

    /// A new row whose diagonal entry is zeroed cannot have a positive
    /// pivot: growth fails, naming that row's index in the grown matrix.
    #[test]
    fn cholesky_grow_names_the_failing_pivot(
        seed in any::<u64>(), n in 1usize..7, k in 1usize..4, bad in 0usize..3,
    ) {
        let bad = n + bad % k;
        let mut big = psd(n + k, seed);
        big[(bad, bad)] = 0.0;
        let l_small = minor(&big, n).cholesky().expect("principal minor of psd");
        prop_assert_eq!(
            l_small.cholesky_grow(&tail_rows(&big, n)),
            Err(LinalgError::NotPositiveDefinite { pivot: bad })
        );
    }

    /// Triangular solves invert the factorization: A·x == b.
    #[test]
    fn cholesky_solve_inverts(seed in any::<u64>(), n in 2usize..8) {
        let a = psd(n, seed);
        let l = a.cholesky().expect("psd");
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let z = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&z);
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    /// GP predictions at training points match targets closely with
    /// low noise, and the predictive std is non-negative everywhere.
    #[test]
    fn gp_interpolates(seed in any::<u64>(), n in 4usize..12) {
        let (x, y) = dataset(n, 2, seed);
        if let Ok(gp) = GpRegressor::fit(
            &x, &y,
            Kernel::Matern52 { length_scale: 0.5, variance: 1.0 },
            1e-6,
        ) {
            for (xi, yi) in x.iter().zip(&y) {
                let (m, s) = gp.predict(xi);
                prop_assert!(s >= 0.0);
                prop_assert!((m - yi).abs() < 0.3 + 0.05 * yi.abs(),
                    "pred {m} vs target {yi}");
            }
        }
    }

    /// Expected improvement is never negative.
    #[test]
    fn ei_is_nonnegative(mean in -100.0..100.0f64, std in 0.0..50.0f64, best in -100.0..100.0f64) {
        prop_assert!(expected_improvement(mean, std, best) >= 0.0);
    }

    /// Tree predictions never leave the training target range.
    #[test]
    fn tree_predictions_stay_in_range(seed in any::<u64>(), n in 8usize..40) {
        let (x, y) = dataset(n, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let tree = RegressionTree::fit(&x, &y, TreeParams::default(), &mut rng);
        let (lo, hi) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY),
            |(l, h), &v| (l.min(v), h.max(v)));
        let q: Vec<f64> = vec![0.5, -3.0, 7.0];
        let p = tree.predict(&q);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
    }

    /// Forest predictions are convex combinations of tree predictions,
    /// so they also stay within the target range.
    #[test]
    fn forest_predictions_stay_in_range(seed in any::<u64>()) {
        let (x, y) = dataset(30, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let f = RandomForest::fit(&x, &y, models::ForestParams::default(), &mut rng);
        let (lo, hi) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY),
            |(l, h), &v| (l.min(v), h.max(v)));
        let p = f.predict(&[0.2, 0.9, 0.4]);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// k-medoids always partitions all points among k clusters with
    /// medoids belonging to their own clusters.
    #[test]
    fn kmedoids_partitions(seed in any::<u64>(), k in 1usize..5) {
        let (x, _) = dataset(20, 2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let c = models::k_medoids(&x, k, 10, &mut rng);
        prop_assert_eq!(c.assignment.len(), 20);
        prop_assert!(c.assignment.iter().all(|&a| a < k));
        for (ci, &m) in c.medoids.iter().enumerate() {
            prop_assert_eq!(c.assignment[m], ci, "medoid in its own cluster");
        }
        prop_assert!(c.cost >= 0.0);
    }
}
