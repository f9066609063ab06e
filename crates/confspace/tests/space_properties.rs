//! Property tests over *arbitrary* parameter spaces (not just the
//! built-in catalogs): sampling, clamping and encoding must uphold
//! their contracts for any space a downstream user could define.

use confspace::{
    crossover, crossover_points, mutate, mutate_point, neighbor, neighbor_point, ConfigError,
    Configuration, Constraint, Coord, DivideAndDiverge, LatinHypercube, ParamDef, ParamKind,
    ParamSpace, Point, Sampler, UniformSampler,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated parameter definition.
fn arb_param(idx: usize) -> impl Strategy<Value = ParamDef> {
    prop_oneof![
        // Int range with a sane width; `hi` may lie off the step grid.
        (0i64..100, 1i64..200, 1i64..8, 0i64..8).prop_map(move |(lo, width, step, off)| {
            ParamDef::int_step(
                &format!("p{idx}"),
                lo,
                lo + width * step + off % step,
                step,
                lo,
                "generated",
            )
        }),
        // Float range.
        (0.0f64..10.0, 0.1f64..50.0).prop_map(move |(lo, width)| {
            ParamDef::float(&format!("p{idx}"), lo, lo + width, lo, "generated")
        }),
        // Log-scaled float range.
        (0.01f64..10.0, 1.5f64..1000.0).prop_map(move |(lo, ratio)| {
            ParamDef::log_float(&format!("p{idx}"), lo, lo * ratio, lo, "generated")
        }),
        Just(()).prop_map(move |()| ParamDef::boolean(&format!("p{idx}"), false, "generated")),
        (2usize..5).prop_map(move |n| {
            let choices: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = choices.iter().map(String::as_str).collect();
            ParamDef::categorical(&format!("p{idx}"), &refs, refs[0], "generated")
        }),
    ]
}

fn arb_space() -> impl Strategy<Value = ParamSpace> {
    (1usize..6).prop_flat_map(|n| {
        let params: Vec<_> = (0..n).map(arb_param).collect();
        params.prop_map(|defs| {
            let mut space = ParamSpace::new();
            for d in defs {
                space.add(d);
            }
            space
        })
    })
}

/// A constraint on `p0` that rejects part of its domain, whatever its
/// kind.
fn p0_constraint() -> Constraint {
    Constraint::new("p0 avoids a band", &["p0"], |v| match v[0] {
        Coord::Int(x) => x % 3 != 1,
        Coord::Float(x) => x.fract() < 0.7,
        Coord::Bool(_) => true,
        Coord::Choice(i) => i != 1,
    })
}

/// An arbitrary space, constrained half of the time.
fn arb_constrained_space() -> impl Strategy<Value = ParamSpace> {
    (arb_space(), any::<bool>()).prop_map(|(space, constrained)| {
        if constrained {
            space.with_constraint(p0_constraint())
        } else {
            space
        }
    })
}

/// The encoding's exact bits.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `point` with coordinate `j` pushed just outside its parameter's
/// range (unchanged for booleans and categoricals, which a point cannot
/// hold out of range by name).
fn off_range(space: &ParamSpace, point: &Point, j: usize, below: bool) -> Point {
    point
        .coords()
        .iter()
        .enumerate()
        .map(|(i, &c)| match (i == j, &space.params()[i].kind) {
            (true, ParamKind::Int { lo, hi, .. }) => {
                Coord::Int(if below { lo - 1 } else { hi + 1 })
            }
            (true, ParamKind::Float { lo, hi, .. }) => {
                Coord::Float(if below { lo - 1.0 } else { hi + 1.0 })
            }
            _ => c,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform samples of any space validate against that space.
    #[test]
    fn uniform_samples_validate(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            let cfg = UniformSampler.sample(&space, &mut rng);
            prop_assert!(space.validate(&cfg).is_ok());
        }
    }

    /// LHS and divide-and-diverge batches validate too.
    #[test]
    fn batch_samplers_validate(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for cfg in LatinHypercube.sample_n(&space, 7, &mut rng) {
            prop_assert!(space.validate(&cfg).is_ok());
        }
        for cfg in DivideAndDiverge::new(4).sample_n(&space, 6, &mut rng) {
            prop_assert!(space.validate(&cfg).is_ok());
        }
    }

    /// Clamping an arbitrary (even garbage) configuration yields a
    /// valid one for constraint-free spaces.
    #[test]
    fn clamp_always_repairs(space in arb_space(), junk in any::<i64>()) {
        let cfg = Configuration::new()
            .with("nonexistent", junk)
            .with("p0", junk); // possibly wrong type: clamp falls back to default
        let fixed = space.clamp(&cfg);
        prop_assert!(space.validate(&fixed).is_ok());
    }

    /// Encoding is always `len()`-dimensional and within [0, 1].
    #[test]
    fn encoding_is_unit_box(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = UniformSampler.sample(&space, &mut rng);
        let v = space.encode(&cfg);
        prop_assert_eq!(v.len(), space.len());
        prop_assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    /// decode(encode(·)) is idempotent: decoding twice changes nothing.
    #[test]
    fn decode_is_idempotent(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = UniformSampler.sample(&space, &mut rng);
        let once = space.decode(&space.encode(&cfg));
        let twice = space.decode(&space.encode(&once));
        prop_assert_eq!(once, twice);
    }

    /// `decode` always yields a valid configuration on a constraint-free
    /// space, including for stepped ints whose `hi` is off the grid.
    #[test]
    fn decode_always_validates(space in arb_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let v: Vec<f64> = (0..space.len()).map(|_| rng.gen_range(-0.5..1.5)).collect();
            let cfg = space.decode(&v);
            prop_assert_eq!(space.validate(&cfg), Ok(()));
        }
        let ones = vec![1.0; space.len()];
        prop_assert_eq!(space.validate(&space.decode(&ones)), Ok(()));
    }

    /// The dense path and the name-keyed adapters agree: the same seed
    /// draws the same configurations, encodings match bit for bit, and
    /// `validate` returns the same result (error variant included).
    #[test]
    fn points_and_configurations_agree(space in arb_constrained_space(), seed in any::<u64>()) {
        let points = UniformSampler.sample_points(&space, 6, &mut StdRng::seed_from_u64(seed));
        let cfgs = UniformSampler.sample_n(&space, 6, &mut StdRng::seed_from_u64(seed));
        let lhs_points = LatinHypercube.sample_points(&space, 5, &mut StdRng::seed_from_u64(seed));
        let lhs_cfgs = LatinHypercube.sample_n(&space, 5, &mut StdRng::seed_from_u64(seed));
        for (p, c) in points.iter().zip(&cfgs).chain(lhs_points.iter().zip(&lhs_cfgs)) {
            prop_assert_eq!(&space.configuration(p), c);
            prop_assert_eq!(space.point(c), Ok(p.clone()));
            prop_assert_eq!(bits(&space.encode_point(p)), bits(&space.encode(c)));
            prop_assert_eq!(space.validate_point(p), Ok(()));
            prop_assert_eq!(space.validate(c), Ok(()));
            for j in 0..space.len() {
                for below in [false, true] {
                    let bad = off_range(&space, p, j, below);
                    prop_assert_eq!(
                        space.validate_point(&bad),
                        space.validate(&space.configuration(&bad))
                    );
                }
            }
        }
        // A constraint violation reads the same in both forms.
        let p0 = &space.params()[0];
        let probe = match p0.kind {
            ParamKind::Categorical { .. } => Some(Coord::Choice(1)),
            ParamKind::Int { lo, .. } if lo % 3 == 1 => Some(Coord::Int(lo)),
            ParamKind::Int { lo, hi, step } if lo + step <= hi && (lo + step) % 3 == 1 => {
                Some(Coord::Int(lo + step))
            }
            _ => None,
        };
        if let Some(c0) = probe {
            let p: Point = std::iter::once(c0).chain(points[0].coords()[1..].iter().copied()).collect();
            let named = space.validate(&space.configuration(&p));
            prop_assert_eq!(space.validate_point(&p), named.clone());
            if !space.constraints().is_empty() {
                prop_assert_eq!(named, Err(ConfigError::ConstraintViolated("p0 avoids a band".into())));
            }
        }
    }

    /// The search operators' adapters are the point operators, named.
    #[test]
    fn operator_adapters_match_points(space in arb_constrained_space(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = UniformSampler.sample_point(&space, &mut rng);
        let b = UniformSampler.sample_point(&space, &mut rng);
        let (ca, cb) = (space.configuration(&a), space.configuration(&b));
        let mut r1 = StdRng::seed_from_u64(seed ^ 1);
        let mut r2 = StdRng::seed_from_u64(seed ^ 1);
        for _ in 0..4 {
            prop_assert_eq!(
                space.configuration(&neighbor_point(&space, &a, 0.2, 0.5, &mut r1)),
                neighbor(&space, &ca, 0.2, 0.5, &mut r2)
            );
            prop_assert_eq!(
                space.configuration(&crossover_points(&space, &a, &b, &mut r1)),
                crossover(&space, &ca, &cb, &mut r2)
            );
            prop_assert_eq!(
                space.configuration(&mutate_point(&space, &a, 0.5, &mut r1)),
                mutate(&space, &ca, 0.5, &mut r2)
            );
        }
    }

    /// The default configuration of any generated space validates.
    #[test]
    fn defaults_validate(space in arb_space()) {
        prop_assert!(space.validate(&space.default_configuration()).is_ok());
    }
}
