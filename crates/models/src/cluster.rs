//! Workload clustering: k-medoids (PAM), AROMA's mechanism for grouping
//! jobs by resource signature before transferring tuning models (§II-B,
//! §V-B), plus k-nearest-neighbour retrieval for similarity search.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::par;
use crate::stats::{dist, sq_dist};

/// The result of a k-medoids clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Indices of the medoid points, one per cluster.
    pub medoids: Vec<usize>,
    /// Cluster assignment for each input point (index into `medoids`).
    pub assignment: Vec<usize>,
    /// Total within-cluster distance.
    pub cost: f64,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// The members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Fewest swap candidates a worker thread scores, so sets under about
/// 260 points stay on the calling thread: forking every slot made the
/// 60-point Criterion k-medoids bench about 3× slower on 2 vCPUs.
const SWAP_CHUNK: usize = 128;

/// Runs PAM-style k-medoids on `points`.
///
/// Random medoid initialization (one shuffle of the point indices),
/// then up to `max_iters` passes of greedy medoid swaps while the total
/// cost — the sum over points, in point order, of the distance to the
/// nearest medoid — improves by more than `1e-12`. A pass visits each
/// medoid slot `c` in turn and tries every non-medoid point as its
/// replacement, accepting a candidate as soon as it beats the running
/// cost. The assignment is computed once, from the final medoids.
///
/// A candidate is scored without re-running the assignment. Each slot
/// first caches every point's nearest *squared* distance to the other
/// `k - 1` medoids and its square root; a candidate's cost is then one
/// squared distance per point, whose root is taken only where the
/// candidate is nearer. Scoring stops once the partial sum, which only
/// grows, can no longer beat the running cost. A pass therefore makes
/// O(k·n²) distance calls, fewer with the early exit, against the
/// O(k²·n²) of re-assigning every point for every candidate; memory
/// stays O(n·d) (no n×n distance matrix). For points with finite
/// coordinates the terms are the values a full re-assignment would pick
/// (the square root is monotone and correctly rounded), summed in the
/// same order, so medoids, assignment and cost bits are those of
/// exhaustive PAM. Once a slot has enough candidates they are scored on
/// [`crate::par`] worker threads and the accept rule is replayed in
/// candidate order, so the result does not depend on the thread count.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
///
/// let points = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let clustering = models::k_medoids(&points, 2, 10, &mut rng);
/// assert_eq!(clustering.assignment[0], clustering.assignment[1]);
/// assert_ne!(clustering.assignment[0], clustering.assignment[2]);
/// ```
///
/// # Panics
///
/// Panics when `k == 0` or `k > points.len()`, or when the points do
/// not all have the same dimension.
pub fn k_medoids<R: Rng + ?Sized>(
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

    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "dimension mismatch");
    let flat = points.concat();
    let point = |i: usize| &flat[i * dim..(i + 1) * dim];
    let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
        let mut total = 0.0;
        let assignment = (0..n)
            .map(|p| {
                let (c, d) = medoids
                    .iter()
                    .enumerate()
                    .map(|(c, &m)| (c, dist(point(p), point(m))))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("k >= 1");
                total += d;
                c
            })
            .collect();
        (assignment, total)
    };

    let (_, mut cost) = assign(&medoids);
    // Per point: the nearest squared distance to the medoids other than
    // the slot being swapped, and its root.
    let mut other_sq = vec![0.0; n];
    let mut other = vec![0.0; n];
    for _ in 0..max_iters {
        let mut improved = false;
        for c in 0..k {
            for p in 0..n {
                other_sq[p] = medoids
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != c)
                    .map(|(_, &m)| sq_dist(point(p), point(m)))
                    .fold(f64::INFINITY, f64::min);
                other[p] = other_sq[p].sqrt();
            }
            // Candidates are scored in contiguous chunks, one per worker,
            // then the accept rule is replayed in candidate order. The
            // running cost never rises, and after any candidate it is at
            // most that candidate's cost + 1e-12 (else the candidate was
            // accepted). So a chunk may stop scoring against the
            // slot-start cost tightened by the costs it has seen: that
            // cuts short only candidates the replay rejects anyway. The
            // slot's own medoid is left out: it costs exactly the
            // slot-start cost, which never beats the running cost.
            let candidates: Vec<usize> = (0..n).filter(|i| !medoids.contains(i)).collect();
            let score = |cand: usize, bound: f64| {
                let cand_point = point(cand);
                let mut cst = 0.0;
                // Zero-dimensional points yield no chunks: every candidate
                // then costs 0, which never beats a cost of 0.
                let rows = flat.chunks_exact(dim.max(1));
                for ((q, &o_sq), &o) in rows.zip(&other_sq).zip(&other) {
                    let d = sq_dist(q, cand_point);
                    cst += if d < o_sq { d.sqrt() } else { o };
                    // Adding non-negative terms never lowers the sum.
                    if cst + 1e-12 >= bound {
                        break;
                    }
                }
                cst
            };
            let scores = par::par_chunks(&candidates, SWAP_CHUNK, |chunk| {
                let mut bound = cost;
                chunk
                    .iter()
                    .map(|&cand| {
                        let cst = score(cand, bound);
                        bound = bound.min(cst + 1e-12);
                        cst
                    })
                    .collect()
            });
            for (&cand, cst) in candidates.iter().zip(scores) {
                if cst + 1e-12 < cost {
                    medoids[c] = cand;
                    cost = cst;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let (assignment, _) = assign(&medoids);
    Clustering {
        medoids,
        assignment,
        cost,
    }
}

/// Indices of the `k` nearest neighbours of `query` in `points`
/// (ascending distance).
pub fn k_nearest(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| dist(&points[a], query).total_cmp(&dist(&points[b], query)));
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..10 {
            pts.push(vec![5.0 + 0.01 * i as f64, 5.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(3);
        let c = k_medoids(&pts, 2, 20, &mut rng);
        assert_eq!(c.k(), 2);
        // All points in the first blob share a cluster, disjoint from
        // the second blob's cluster.
        let first = c.assignment[0];
        assert!(c.assignment[..10].iter().all(|&a| a == first));
        assert!(c.assignment[10..].iter().all(|&a| a != first));
    }

    #[test]
    fn k_equals_n_gives_zero_cost() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let mut rng = StdRng::seed_from_u64(4);
        let c = k_medoids(&pts, 3, 10, &mut rng);
        assert!(c.cost < 1e-12);
    }

    #[test]
    fn members_partition_the_points() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(5);
        let c = k_medoids(&pts, 2, 20, &mut rng);
        let total: usize = (0..c.k()).map(|i| c.members(i).len()).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn knn_orders_by_distance() {
        let pts = vec![vec![0.0], vec![10.0], vec![1.0], vec![5.0]];
        let nn = k_nearest(&pts, &[0.9], 2);
        assert_eq!(nn, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "need 1 <= k <= n")]
    fn k_zero_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = k_medoids(&[vec![0.0]], 0, 5, &mut rng);
    }
}
