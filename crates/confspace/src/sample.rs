//! Sampling strategies and search operators over parameter spaces.
//!
//! Every sampler and operator works on [`Point`]s; the
//! [`Configuration`] entry points ([`Sampler::sample`],
//! [`Sampler::sample_n`], [`neighbor`], [`crossover`], [`mutate`]) are
//! adapters that convert at the boundary, so both forms draw the same
//! values from the same RNG stream.
//!
//! All samplers respect the space's constraints by rejection: a sample
//! violating a constraint is re-drawn (up to a bounded number of tries,
//! after which the space's default configuration is returned — spaces in
//! this workspace have mild constraints, so this is unreachable in
//! practice).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::Configuration;
use crate::param::{grid_steps, ParamDef, ParamKind};
use crate::point::{Coord, Point};
use crate::space::ParamSpace;

/// Maximum rejection-sampling attempts before falling back to defaults.
const MAX_REJECTS: usize = 256;

/// A strategy producing configurations from a space.
pub trait Sampler {
    /// Draws one point.
    fn sample_point<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Point;

    /// Draws `n` points. Implementations may coordinate the draws
    /// (e.g. Latin-hypercube stratification).
    fn sample_points<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Point> {
        (0..n).map(|_| self.sample_point(space, rng)).collect()
    }

    /// Draws one configuration: [`sample_point`](Self::sample_point),
    /// named.
    fn sample<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Configuration {
        space.configuration(&self.sample_point(space, rng))
    }

    /// Draws `n` configurations: [`sample_points`](Self::sample_points),
    /// named.
    fn sample_n<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Configuration> {
        self.sample_points(space, n, rng)
            .iter()
            .map(|p| space.configuration(p))
            .collect()
    }
}

/// Independent uniform sampling of every parameter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformSampler;

impl Sampler for UniformSampler {
    fn sample_point<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Point {
        for _ in 0..MAX_REJECTS {
            let point: Point = space
                .params()
                .iter()
                .map(|p| sample_coord(p, rng))
                .collect();
            if space.validate_point(&point).is_ok() {
                return point;
            }
        }
        space.default_point()
    }
}

/// Latin-hypercube sampling: for a batch of `n` draws, each dimension is
/// divided into `n` strata and each stratum is used exactly once, giving
/// much better space coverage than i.i.d. uniform draws for the same
/// budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatinHypercube;

impl Sampler for LatinHypercube {
    fn sample_point<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Point {
        UniformSampler.sample_point(space, rng)
    }

    fn sample_points<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Point> {
        if n == 0 {
            return Vec::new();
        }
        let d = space.len();
        // One stratum permutation per dimension.
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            perms.push(p);
        }
        let mut out = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // `i` indexes every perm column
        for i in 0..n {
            let v: Vec<f64> = (0..d)
                .map(|j| {
                    let stratum = perms[j][i] as f64;
                    (stratum + rng.gen::<f64>()) / n as f64
                })
                .collect();
            let point = space.decode_point(&v);
            if space.validate_point(&point).is_ok() {
                out.push(point);
            } else {
                out.push(UniformSampler.sample_point(space, rng));
            }
        }
        out
    }
}

/// BestConfig's *divide-and-diverge* sampling (Zhu et al., SoCC'17).
///
/// Each round divides every dimension into `k` subranges and draws `k`
/// samples such that each subrange of each dimension is covered exactly
/// once per round (a Latin-hypercube round); successive rounds re-draw
/// the permutations ("diverge") so that repeated rounds cover different
/// stratum combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivideAndDiverge {
    /// Number of subranges (and samples) per round.
    pub k: usize,
}

impl DivideAndDiverge {
    /// Creates the sampler with `k` subranges per round.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "divide-and-diverge needs k >= 1");
        DivideAndDiverge { k }
    }

    /// Draws `rounds * k` samples, each round a fresh stratified cover.
    pub fn sample_rounds<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        rounds: usize,
        rng: &mut R,
    ) -> Vec<Point> {
        let mut out = Vec::with_capacity(rounds * self.k);
        for _ in 0..rounds {
            out.extend(LatinHypercube.sample_points(space, self.k, rng));
        }
        out
    }
}

impl Sampler for DivideAndDiverge {
    fn sample_point<R: Rng + ?Sized>(&self, space: &ParamSpace, rng: &mut R) -> Point {
        UniformSampler.sample_point(space, rng)
    }

    fn sample_points<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Point> {
        let rounds = n.div_ceil(self.k);
        let mut v = self.sample_rounds(space, rounds, rng);
        v.truncate(n);
        v
    }
}

/// Draws a coordinate for one parameter uniformly from its domain.
fn sample_coord<R: Rng + ?Sized>(p: &ParamDef, rng: &mut R) -> Coord {
    match &p.kind {
        ParamKind::Int { lo, hi, step } => {
            Coord::Int(lo + rng.gen_range(0..=grid_steps(*lo, *hi, *step)) * step)
        }
        ParamKind::Float { lo, hi, log } => {
            if *log {
                Coord::Float((rng.gen_range(lo.ln()..=hi.ln())).exp())
            } else {
                Coord::Float(rng.gen_range(*lo..=*hi))
            }
        }
        ParamKind::Bool => Coord::Bool(rng.gen()),
        ParamKind::Categorical { choices } => Coord::Choice(rng.gen_range(0..choices.len())),
    }
}

/// Produces a neighbour of `point`: each parameter is perturbed with
/// probability `rate`; numeric parameters move by a Gaussian step of
/// relative size `scale` (fraction of the range), discrete parameters
/// re-sample among nearby values.
///
/// A candidate that fails [`ParamSpace::validate_point`] (a constraint
/// violation) falls back to `point` itself.
pub fn neighbor_point<R: Rng + ?Sized>(
    space: &ParamSpace,
    point: &Point,
    scale: f64,
    rate: f64,
    rng: &mut R,
) -> Point {
    let mut v = space.encode_point(point);
    for x in v.iter_mut() {
        if rng.gen::<f64>() < rate {
            // Box-Muller-free Gaussian-ish step: sum of 4 uniforms.
            let g: f64 = (0..4).map(|_| rng.gen::<f64>() - 0.5).sum::<f64>() / 2.0;
            *x = (*x + g * scale * 2.0).clamp(0.0, 1.0);
        }
    }
    let cand = space.decode_point(&v);
    if space.validate_point(&cand).is_ok() {
        cand
    } else {
        point.clone()
    }
}

/// [`neighbor_point`] of `cfg` clamped to the space (so the fallback is
/// `space.clamp(cfg)`), named.
pub fn neighbor<R: Rng + ?Sized>(
    space: &ParamSpace,
    cfg: &Configuration,
    scale: f64,
    rate: f64,
    rng: &mut R,
) -> Configuration {
    let point = neighbor_point(space, &space.clamp_point(cfg), scale, rate, rng);
    space.configuration(&point)
}

/// Uniform crossover of two parent points (genetic search); a child
/// that fails [`ParamSpace::validate_point`] falls back to `a`.
pub fn crossover_points<R: Rng + ?Sized>(
    space: &ParamSpace,
    a: &Point,
    b: &Point,
    rng: &mut R,
) -> Point {
    let cand: Point = a
        .coords()
        .iter()
        .zip(b.coords())
        .map(|(&x, &y)| if rng.gen::<bool>() { x } else { y })
        .collect();
    if space.validate_point(&cand).is_ok() {
        cand
    } else {
        a.clone()
    }
}

/// [`crossover_points`] of the two parents clamped to the space, named.
pub fn crossover<R: Rng + ?Sized>(
    space: &ParamSpace,
    a: &Configuration,
    b: &Configuration,
    rng: &mut R,
) -> Configuration {
    let child = crossover_points(space, &space.clamp_point(a), &space.clamp_point(b), rng);
    space.configuration(&child)
}

/// Mutates a point: each parameter is re-sampled uniformly with
/// probability `rate` (genetic search); a result that fails
/// [`ParamSpace::validate_point`] falls back to `point`.
pub fn mutate_point<R: Rng + ?Sized>(
    space: &ParamSpace,
    point: &Point,
    rate: f64,
    rng: &mut R,
) -> Point {
    let cand: Point = space
        .params()
        .iter()
        .zip(point.coords())
        .map(|(p, &c)| {
            if rng.gen::<f64>() < rate {
                sample_coord(p, rng)
            } else {
                c
            }
        })
        .collect();
    if space.validate_point(&cand).is_ok() {
        cand
    } else {
        point.clone()
    }
}

/// [`mutate_point`] of `cfg` clamped to the space, named.
pub fn mutate<R: Rng + ?Sized>(
    space: &ParamSpace,
    cfg: &Configuration,
    rate: f64,
    rng: &mut R,
) -> Configuration {
    space.configuration(&mutate_point(space, &space.clamp_point(cfg), rate, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("n", 1, 32, 4, ""))
            .with(ParamDef::float("f", 0.0, 1.0, 0.5, ""))
            .with(ParamDef::boolean("b", false, ""))
            .with(ParamDef::categorical("c", &["a", "b", "c"], "a", ""))
    }

    #[test]
    fn uniform_samples_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = UniformSampler.sample(&s, &mut rng);
            assert!(s.validate(&cfg).is_ok());
        }
    }

    #[test]
    fn uniform_is_deterministic_under_seed() {
        let s = space();
        let a = UniformSampler.sample_n(&s, 5, &mut StdRng::seed_from_u64(42));
        let b = UniformSampler.sample_n(&s, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn lhs_stratifies_each_dimension() {
        let s = ParamSpace::new().with(ParamDef::float("f", 0.0, 1.0, 0.5, ""));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10;
        let samples = LatinHypercube.sample_n(&s, n, &mut rng);
        let mut strata: Vec<usize> = samples
            .iter()
            .map(|c| ((c.float("f") * n as f64).floor() as usize).min(n - 1))
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..n).collect::<Vec<_>>(), "each stratum hit once");
    }

    #[test]
    fn dds_produces_requested_count() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(5);
        let dds = DivideAndDiverge::new(7);
        assert_eq!(dds.sample_n(&s, 20, &mut rng).len(), 20);
        assert_eq!(dds.sample_rounds(&s, 3, &mut rng).len(), 21);
    }

    #[test]
    fn neighbor_stays_valid_and_moves_little() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(9);
        let base = s.default_configuration();
        for _ in 0..50 {
            let n = neighbor(&s, &base, 0.05, 1.0, &mut rng);
            assert!(s.validate(&n).is_ok());
            // Small-scale moves keep the integer parameter near its default.
            assert!((n.int("n") - base.int("n")).abs() <= 8);
        }
    }

    #[test]
    fn crossover_mixes_parents() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        let a = s.default_configuration().with("n", 1i64);
        let b = s.default_configuration().with("n", 32i64);
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..50 {
            let c = crossover(&s, &a, &b, &mut rng);
            assert!(s.validate(&c).is_ok());
            seen_a |= c.int("n") == 1;
            seen_b |= c.int("n") == 32;
        }
        assert!(
            seen_a && seen_b,
            "crossover should draw genes from both parents"
        );
    }

    #[test]
    fn mutate_zero_rate_is_identity() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(13);
        let base = UniformSampler.sample(&s, &mut rng);
        let m = mutate(&s, &base, 0.0, &mut rng);
        assert_eq!(m, base);
    }

    #[test]
    fn mutate_full_rate_changes_something() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(17);
        let base = s.default_configuration();
        let mut changed = false;
        for _ in 0..20 {
            if mutate(&s, &base, 1.0, &mut rng) != base {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn constrained_space_samples_satisfy_constraint() {
        use crate::space::Constraint;
        let s = space().with_constraint(Constraint::new("n is not 13", &["n"], |v| {
            v[0] != Coord::Int(13)
        }));
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let cfg = UniformSampler.sample(&s, &mut rng);
            assert_ne!(cfg.int("n"), 13);
        }
    }
}
