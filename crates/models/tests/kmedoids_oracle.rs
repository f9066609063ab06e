//! `models::k_medoids` against exhaustive PAM.
//!
//! The reference below re-runs the full nearest-medoid assignment for
//! every swap candidate, the textbook way. The fast implementation
//! scores candidates against cached other-medoid distances with an
//! early exit; both must agree on the medoids, the assignment, the
//! cost bits and how much randomness they consume.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use models::stats::dist;
use models::Clustering;

/// Exhaustive PAM: random initialization, then greedy swaps, each
/// scored by a full re-assignment.
fn reference_k_medoids<R: Rng + ?Sized>(
    points: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    rng: &mut R,
) -> Clustering {
    assert!(k >= 1 && k <= points.len(), "need 1 <= k <= n");
    let n = points.len();
    let mut medoids: Vec<usize> = (0..n).collect();
    medoids.shuffle(rng);
    medoids.truncate(k);

    let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
        let mut total = 0.0;
        let assignment = points
            .iter()
            .map(|p| {
                let (c, d) = medoids
                    .iter()
                    .enumerate()
                    .map(|(c, &m)| (c, dist(p, &points[m])))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("k >= 1");
                total += d;
                c
            })
            .collect();
        (assignment, total)
    };

    let (mut assignment, mut cost) = assign(&medoids);
    for _ in 0..max_iters {
        let mut improved = false;
        for c in 0..k {
            for cand in 0..n {
                if medoids.contains(&cand) {
                    continue;
                }
                let mut trial = medoids.clone();
                trial[c] = cand;
                let (a, cst) = assign(&trial);
                if cst + 1e-12 < cost {
                    medoids = trial;
                    assignment = a;
                    cost = cst;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Clustering {
        medoids,
        assignment,
        cost,
    }
}

/// How a case's coordinates are drawn.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Uniform on [0, 1).
    Uniform,
    /// A coarse grid {0, 0.5, 1, 1.5}: many equal distances and
    /// duplicate points.
    Grid,
    /// Tight clumps around a few centres.
    Clumps,
}

fn draw_points(rng: &mut StdRng, n: usize, dim: usize, layout: Layout) -> Vec<Vec<f64>> {
    let centres: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect())
        .collect();
    (0..n)
        .map(|_| match layout {
            Layout::Uniform => (0..dim).map(|_| rng.gen::<f64>()).collect(),
            Layout::Grid => (0..dim)
                .map(|_| f64::from(rng.gen_range(0u8..4)) * 0.5)
                .collect(),
            Layout::Clumps => {
                let c = &centres[rng.gen_range(0usize..centres.len())];
                c.iter().map(|x| x + rng.gen_range(-0.3..0.3)).collect()
            }
        })
        .collect()
}

/// Runs both implementations from the same RNG state and asserts they
/// agree bit for bit, including the RNG state they leave behind.
fn assert_matches_reference(points: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) {
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut ref_rng = StdRng::seed_from_u64(seed);
    let fast = models::k_medoids(points, k, max_iters, &mut fast_rng);
    let want = reference_k_medoids(points, k, max_iters, &mut ref_rng);
    let case = format!(
        "n={} dim={} k={k} max_iters={max_iters} seed={seed}",
        points.len(),
        points[0].len()
    );
    assert_eq!(fast.medoids, want.medoids, "medoids, {case}");
    assert_eq!(fast.assignment, want.assignment, "assignment, {case}");
    assert_eq!(
        fast.cost.to_bits(),
        want.cost.to_bits(),
        "cost bits, {case}"
    );
    assert_eq!(
        fast_rng.gen::<u64>(),
        ref_rng.gen::<u64>(),
        "next RNG draw, {case}"
    );
}

#[test]
fn fast_swaps_match_exhaustive_pam_on_random_point_sets() {
    let mut rng = StdRng::seed_from_u64(0x6b6d_6564);
    let layouts = [Layout::Uniform, Layout::Grid, Layout::Clumps];
    for case in 0..400u64 {
        // Mostly small sets, with a tail up to 120 points.
        let n = if case % 4 == 0 {
            rng.gen_range(40usize..=120)
        } else {
            rng.gen_range(1usize..=40)
        };
        let dim = rng.gen_range(1usize..=8);
        let k = rng.gen_range(1usize..=n.min(6));
        let max_iters = [0, 1, 2, 20][rng.gen_range(0usize..4)];
        let points = draw_points(&mut rng, n, dim, layouts[case as usize % 3]);
        assert_matches_reference(&points, k, max_iters, case);
    }
}

#[test]
fn fast_swaps_match_exhaustive_pam_at_the_edges() {
    let mut rng = StdRng::seed_from_u64(0x6564_6765);
    for case in 0..60u64 {
        let n = rng.gen_range(1usize..=24);
        let dim = rng.gen_range(0usize..=8);
        let points = draw_points(&mut rng, n, dim, Layout::Grid);
        // Zero-dimensional points (every distance 0); k = 1 (no other
        // medoid), k = n (no candidate) and k = n - 1 (one candidate per
        // slot), each with and without swap passes.
        for k in [1, n, n.saturating_sub(1).max(1)] {
            for max_iters in [0, 20] {
                assert_matches_reference(&points, k, max_iters, case);
            }
        }
    }
}

#[test]
fn fast_swaps_match_exhaustive_pam_on_duplicates() {
    // Every point repeated: each candidate ties with its twin.
    let mut rng = StdRng::seed_from_u64(0x6475_7073);
    for case in 0..40u64 {
        let n = rng.gen_range(1usize..=30);
        let dim = rng.gen_range(1usize..=4);
        let base = draw_points(&mut rng, n, dim, Layout::Grid);
        let points: Vec<Vec<f64>> = base.iter().chain(&base).cloned().collect();
        let k = rng.gen_range(1usize..=points.len().min(5));
        assert_matches_reference(&points, k, 20, case);
    }
}

#[test]
fn fast_swaps_match_exhaustive_pam_on_sets_large_enough_to_fan_out() {
    // Past about 260 points the candidates of a slot are scored on
    // several worker threads (`SEAMLESS_THREADS` permitting).
    let mut rng = StdRng::seed_from_u64(0x6661_6e73);
    for (case, layout) in [Layout::Clumps, Layout::Grid, Layout::Uniform]
        .into_iter()
        .enumerate()
    {
        let n = rng.gen_range(260usize..=400);
        let dim = rng.gen_range(1usize..=8);
        let k = rng.gen_range(2usize..=4);
        let points = draw_points(&mut rng, n, dim, layout);
        assert_matches_reference(&points, k, 20, case as u64);
    }
}
