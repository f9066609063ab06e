//! Parameter spaces: ordered parameter definitions plus constraints.

use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::config::Configuration;
use crate::error::ConfigError;
use crate::param::ParamDef;
use crate::point::{Coord, Point};

type ConstraintFn = dyn Fn(&ConstraintArgs<'_>) -> bool + Send + Sync;

/// A named cross-parameter constraint.
///
/// Constraints express relationships a single [`ParamDef`] cannot, e.g.
/// "speculation quantile only matters when speculation is on" or
/// "executors × cores must not exceed the cluster's virtual CPUs".
/// A constraint lists the parameters it reads once, by name; the space
/// resolves the names to indices when the constraint is added, and the
/// predicate reads their coordinates in the listed order.
#[derive(Clone)]
pub struct Constraint {
    name: String,
    params: Vec<String>,
    indices: Vec<usize>,
    check: Arc<ConstraintFn>,
}

/// The coordinates a [`Constraint`] reads: `args[i]` is the value of
/// the `i`-th parameter the constraint listed.
pub struct ConstraintArgs<'a> {
    coords: &'a [Coord],
    indices: &'a [usize],
}

impl Index<usize> for ConstraintArgs<'_> {
    type Output = Coord;

    fn index(&self, i: usize) -> &Coord {
        &self.coords[self.indices[i]]
    }
}

impl Constraint {
    /// Creates a constraint from a name, the parameters it reads and a
    /// predicate over their coordinates (in the order listed).
    pub fn new(
        name: &str,
        params: &[&str],
        check: impl Fn(&ConstraintArgs<'_>) -> bool + Send + Sync + 'static,
    ) -> Self {
        Constraint {
            name: name.to_owned(),
            params: params.iter().map(|p| (*p).to_owned()).collect(),
            indices: Vec::new(),
            check: Arc::new(check),
        }
    }

    /// The constraint's name (used in error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    fn holds(&self, point: &Point) -> bool {
        (self.check)(&ConstraintArgs {
            coords: point.coords(),
            indices: &self.indices,
        })
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

/// An ordered collection of parameter definitions with constraints.
///
/// The order of parameters is significant: it fixes the dimension order
/// of the feature-vector encoding (see [`crate::encode`]) and of every
/// [`Point`] of the space.
///
/// # Example
///
/// ```
/// use confspace::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new()
///     .with(ParamDef::int("workers", 1, 16, 2, "executor count"))
///     .with(ParamDef::boolean("compress", true, "shuffle compression"));
/// let defaults = space.default_configuration();
/// assert_eq!(defaults.int("workers"), 2);
/// assert!(space.validate(&defaults).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
    index: HashMap<String, usize>,
    defaults: Point,
    constraints: Vec<Constraint>,
}

impl ParamSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter definition.
    ///
    /// # Panics
    ///
    /// Panics if a parameter with the same name already exists, or if
    /// the default has the wrong kind (or names no choice).
    pub fn add(&mut self, def: ParamDef) -> &mut Self {
        assert!(
            !self.index.contains_key(&def.name),
            "duplicate parameter `{}`",
            def.name
        );
        let default = def
            .coord(&def.default)
            .unwrap_or_else(|e| panic!("bad default: {e}"));
        self.defaults.push(default);
        self.index.insert(def.name.clone(), self.params.len());
        self.params.push(def);
        self
    }

    /// Builder-style [`add`](Self::add).
    #[must_use]
    pub fn with(mut self, def: ParamDef) -> Self {
        self.add(def);
        self
    }

    /// Adds a cross-parameter constraint, resolving the parameters it
    /// reads to indices of this space.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownParam`] when the constraint reads a
    /// parameter the space does not have; the space is left unchanged.
    pub fn add_constraint(&mut self, mut c: Constraint) -> Result<&mut Self, ConfigError> {
        c.indices = c
            .params
            .iter()
            .map(|name| {
                self.index_of(name)
                    .ok_or_else(|| ConfigError::UnknownParam(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        self.constraints.push(c);
        Ok(self)
    }

    /// Builder-style [`add_constraint`](Self::add_constraint).
    ///
    /// # Panics
    ///
    /// Panics when the constraint reads a parameter the space does not
    /// have.
    #[must_use]
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        let name = c.name.clone();
        if let Err(e) = self.add_constraint(c) {
            panic!("constraint `{name}`: {e}");
        }
        self
    }

    /// Number of parameters (also the encoded dimension count).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameter definitions, in encoding order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The constraints on the space.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Looks up a parameter definition by name.
    pub fn param(&self, name: &str) -> Option<&ParamDef> {
        self.index.get(name).map(|&i| &self.params[i])
    }

    /// Index of a parameter in encoding order.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The point assigning every parameter its default value.
    pub(crate) fn default_point(&self) -> Point {
        self.defaults.clone()
    }

    /// The configuration assigning every parameter its default value.
    pub fn default_configuration(&self) -> Configuration {
        self.configuration(&self.defaults)
    }

    /// The name-keyed configuration of `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not have one coordinate per parameter.
    pub fn configuration(&self, point: &Point) -> Configuration {
        assert_eq!(point.len(), self.len(), "point has wrong dimension");
        self.params
            .iter()
            .zip(point.coords())
            .map(|(p, &c)| (p.name.clone(), p.value(c)))
            .collect()
    }

    /// Gathers `cfg`'s values into a point, checking each against its
    /// parameter in encoding order. Extraneous names and constraints are
    /// not checked (see [`validate`](Self::validate)).
    ///
    /// # Errors
    ///
    /// Returns the first parameter's [`ConfigError::MissingParam`] or
    /// range/type error.
    pub fn point(&self, cfg: &Configuration) -> Result<Point, ConfigError> {
        self.params
            .iter()
            .map(|p| {
                let v = cfg
                    .get(&p.name)
                    .ok_or_else(|| ConfigError::MissingParam(p.name.clone()))?;
                let c = p.coord(v)?;
                p.check_coord(c)?;
                Ok(c)
            })
            .collect()
    }

    /// Validates that `cfg` assigns an admissible value to every
    /// parameter and satisfies all constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: [`ConfigError::MissingParam`],
    /// a per-parameter range/type error, [`ConfigError::UnknownParam`]
    /// for extraneous assignments, or
    /// [`ConfigError::ConstraintViolated`].
    pub fn validate(&self, cfg: &Configuration) -> Result<(), ConfigError> {
        let point = self.point(cfg)?;
        // Every parameter is assigned, so a configuration of exactly
        // `len()` names has no extraneous ones.
        if cfg.len() != self.len() {
            if let Some((name, _)) = cfg.iter().find(|(name, _)| !self.index.contains_key(*name)) {
                return Err(ConfigError::UnknownParam(name.to_owned()));
            }
        }
        self.check_constraints(&point)
    }

    /// Validates that every coordinate of `point` is admissible and
    /// that the point satisfies all constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a per-parameter range/type
    /// error or [`ConfigError::ConstraintViolated`].
    ///
    /// # Panics
    ///
    /// Panics if `point` does not have one coordinate per parameter.
    pub fn validate_point(&self, point: &Point) -> Result<(), ConfigError> {
        assert_eq!(point.len(), self.len(), "point has wrong dimension");
        for (p, &c) in self.params.iter().zip(point.coords()) {
            p.check_coord(c)?;
        }
        self.check_constraints(point)
    }

    /// Checks only the constraints, not the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ConstraintViolated`] for the first
    /// constraint `point` violates.
    pub(crate) fn check_constraints(&self, point: &Point) -> Result<(), ConfigError> {
        match self.constraints.iter().find(|c| !c.holds(point)) {
            Some(c) => Err(ConfigError::ConstraintViolated(c.name.clone())),
            None => Ok(()),
        }
    }

    /// The point nearest to `cfg`: out-of-range values are clamped to
    /// the nearest admissible value, valid values are kept, and missing
    /// or unusable (wrong kind, non-finite, unknown choice) values take
    /// the default. Constraints are *not* repaired.
    pub fn clamp_point(&self, cfg: &Configuration) -> Point {
        self.params
            .iter()
            .zip(self.defaults.coords())
            .map(|(p, &default)| {
                cfg.get(&p.name)
                    .and_then(|v| p.clamp_coord(v))
                    .unwrap_or(default)
            })
            .collect()
    }

    /// Clamps every out-of-range value in `cfg` to the nearest admissible
    /// value, leaving valid values untouched. Unknown parameters are
    /// dropped; missing ones are filled with defaults. Constraints are
    /// *not* repaired (callers resample instead).
    #[must_use]
    pub fn clamp(&self, cfg: &Configuration) -> Configuration {
        self.configuration(&self.clamp_point(cfg))
    }

    /// Merges another space's parameters and constraints into this one.
    /// Used to form the *joint* cloud + DISC space (§I of the paper).
    /// The other space's constraints are re-resolved to this space's
    /// indices.
    ///
    /// # Panics
    ///
    /// Panics on duplicate parameter names.
    #[must_use]
    pub fn union(mut self, other: &ParamSpace) -> ParamSpace {
        for p in &other.params {
            self.add(p.clone());
        }
        for c in &other.constraints {
            self = self.with_constraint(c.clone());
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ParamSpace {
        ParamSpace::new()
            .with(ParamDef::int("n", 1, 8, 2, "count"))
            .with(ParamDef::float("f", 0.0, 1.0, 0.5, "fraction"))
            .with(ParamDef::boolean("b", false, "switch"))
            .with(ParamDef::categorical("c", &["x", "y"], "x", "choice"))
    }

    #[test]
    fn default_configuration_is_valid() {
        let s = small_space();
        let cfg = s.default_configuration();
        assert!(s.validate(&cfg).is_ok());
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn validate_detects_missing_and_unknown() {
        let s = small_space();
        let mut cfg = s.default_configuration();
        let partial = cfg.filtered(|k| k != "n");
        assert!(matches!(
            s.validate(&partial),
            Err(ConfigError::MissingParam(p)) if p == "n"
        ));
        cfg.set("zzz", 1i64);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::UnknownParam(p)) if p == "zzz"
        ));
    }

    #[test]
    fn constraint_is_enforced() {
        let s = small_space().with_constraint(Constraint::new("n<=4 when b", &["b", "n"], |v| {
            v[0] != Coord::Bool(true) || v[1].as_int().is_some_and(|n| n <= 4)
        }));
        let cfg = s.default_configuration().with("b", true).with("n", 8i64);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::ConstraintViolated(_))
        ));
        let ok = s.default_configuration().with("b", true).with("n", 3i64);
        assert!(s.validate(&ok).is_ok());
    }

    #[test]
    fn constraint_naming_an_unknown_parameter_is_rejected_when_added() {
        let mut s = small_space();
        let err = s
            .add_constraint(Constraint::new("bad", &["n", "nope"], |_| true))
            .unwrap_err();
        assert_eq!(err, ConfigError::UnknownParam("nope".into()));
        assert!(
            s.constraints().is_empty(),
            "a rejected constraint is not kept"
        );
    }

    #[test]
    #[should_panic(expected = "unknown parameter `nope`")]
    fn with_constraint_panics_on_an_unknown_parameter() {
        let _ = small_space().with_constraint(Constraint::new("bad", &["nope"], |_| true));
    }

    #[test]
    fn union_resolves_constraints_to_joint_indices() {
        let a = ParamSpace::new().with(ParamDef::int("a", 0, 9, 0, ""));
        let b = small_space()
            .with_constraint(Constraint::new("n != 3", &["n"], |v| v[0] != Coord::Int(3)));
        let u = a.union(&b);
        // `n` is index 0 in `b` but index 1 in the union.
        let ok = u.default_configuration().with("a", 3i64);
        assert!(u.validate(&ok).is_ok());
        let bad = u.default_configuration().with("n", 3i64);
        assert_eq!(
            u.validate(&bad),
            Err(ConfigError::ConstraintViolated("n != 3".into()))
        );
    }

    #[test]
    fn validate_keeps_error_precedence() {
        let s = small_space();
        // A bad parameter is reported before an unknown name, and the
        // first bad parameter in encoding order wins.
        let cfg = s
            .default_configuration()
            .with("zzz", 1i64)
            .with("c", "nope")
            .with("f", 7.0);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::OutOfRange { param, .. }) if param == "f"
        ));
        let cfg = s.default_configuration().with("b", 1i64);
        assert!(matches!(
            s.validate(&cfg),
            Err(ConfigError::TypeMismatch { param, expected: "bool" }) if param == "b"
        ));
    }

    #[test]
    fn points_round_trip_through_configurations() {
        let s = small_space();
        let cfg = s.default_configuration().with("c", "y").with("n", 5i64);
        let point = s.point(&cfg).unwrap();
        assert_eq!(point[3], Coord::Choice(1));
        assert_eq!(s.configuration(&point), cfg);
        assert_eq!(s.clamp_point(&cfg), point);
    }

    #[test]
    fn clamp_snaps_to_range() {
        let s = small_space();
        let cfg = Configuration::new()
            .with("n", 99i64)
            .with("f", -3.0)
            .with("b", true)
            .with("c", "nope")
            .with("junk", 1i64);
        let fixed = s.clamp(&cfg);
        assert!(s.validate(&fixed).is_ok());
        assert_eq!(fixed.int("n"), 8);
        assert_eq!(fixed.float("f"), 0.0);
        assert_eq!(fixed.str("c"), "x");
        assert!(!fixed.contains("junk"));
    }

    #[test]
    fn clamp_respects_step() {
        let s = ParamSpace::new().with(ParamDef::int_step("m", 0, 100, 25, 0, "stepped"));
        let fixed = s.clamp(&Configuration::new().with("m", 60i64));
        assert_eq!(fixed.int("m"), 50);
    }

    #[test]
    fn union_concatenates() {
        let a = ParamSpace::new().with(ParamDef::int("a", 0, 1, 0, ""));
        let b = ParamSpace::new().with(ParamDef::int("b", 0, 1, 0, ""));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u.index_of("a"), Some(0));
        assert_eq!(u.index_of("b"), Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_param_panics() {
        let _ = ParamSpace::new()
            .with(ParamDef::int("a", 0, 1, 0, ""))
            .with(ParamDef::int("a", 0, 1, 0, ""));
    }
}
