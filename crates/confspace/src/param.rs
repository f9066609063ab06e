//! Typed definitions of individual tunable parameters.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::point::Coord;

/// A concrete value assigned to a parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Integer-valued parameter (e.g. executor count).
    Int(i64),
    /// Continuous parameter (e.g. memory fraction).
    Float(f64),
    /// Boolean switch (e.g. shuffle compression).
    Bool(bool),
    /// Categorical choice (e.g. serializer name).
    Str(String),
}

impl ParamValue {
    /// Returns the integer payload, if this is an [`ParamValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload; integers are widened to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`ParamValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`ParamValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// A short label for the contained kind, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Bool(_) => "bool",
            ParamValue::Str(_) => "categorical",
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// The domain of a parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Inclusive integer range with an optional step (`step >= 1`).
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Step between admissible values; 1 admits every integer.
        step: i64,
    },
    /// Continuous range. When `log` is set, sampling and encoding are
    /// performed in log-space (suitable for scale-like parameters).
    Float {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
        /// Sample/encode in log-space.
        log: bool,
    },
    /// Boolean switch.
    Bool,
    /// A finite set of named choices.
    Categorical {
        /// Admissible choices, in canonical order.
        choices: Vec<String>,
    },
}

impl ParamKind {
    /// Number of admissible values for discrete kinds; `None` for floats.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            ParamKind::Int { lo, hi, step } => Some(((hi - lo) / step + 1) as u64),
            ParamKind::Float { .. } => None,
            ParamKind::Bool => Some(2),
            ParamKind::Categorical { choices } => Some(choices.len() as u64),
        }
    }
}

/// The last grid index of a stepped int range: how many whole steps from
/// `lo` stay within `hi`. The `step == 1` case skips the 64-bit
/// division, which costs more than the rest of a draw.
pub(crate) fn grid_steps(lo: i64, hi: i64, step: i64) -> i64 {
    if step == 1 {
        hi - lo
    } else {
        (hi - lo) / step
    }
}

/// The definition of a single tunable parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDef {
    /// Unique name within a [`crate::ParamSpace`] (dotted Spark-style names).
    pub name: String,
    /// The parameter's domain.
    pub kind: ParamKind,
    /// Default value (what an untuned deployment would use).
    pub default: ParamValue,
    /// One-line human description.
    pub description: String,
}

impl ParamDef {
    /// Creates an integer-range parameter.
    pub fn int(name: &str, lo: i64, hi: i64, default: i64, description: &str) -> Self {
        assert!(lo <= hi, "int param `{name}`: lo > hi");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Int { lo, hi, step: 1 },
            default: ParamValue::Int(default),
            description: description.to_owned(),
        }
    }

    /// Creates an integer-range parameter with a step.
    pub fn int_step(
        name: &str,
        lo: i64,
        hi: i64,
        step: i64,
        default: i64,
        description: &str,
    ) -> Self {
        assert!(lo <= hi && step >= 1, "bad int-step param `{name}`");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Int { lo, hi, step },
            default: ParamValue::Int(default),
            description: description.to_owned(),
        }
    }

    /// Creates a continuous parameter.
    pub fn float(name: &str, lo: f64, hi: f64, default: f64, description: &str) -> Self {
        assert!(lo <= hi, "float param `{name}`: lo > hi");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Float { lo, hi, log: false },
            default: ParamValue::Float(default),
            description: description.to_owned(),
        }
    }

    /// Creates a continuous parameter sampled in log-space.
    pub fn log_float(name: &str, lo: f64, hi: f64, default: f64, description: &str) -> Self {
        assert!(0.0 < lo && lo <= hi, "log-float param `{name}`: bad range");
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Float { lo, hi, log: true },
            default: ParamValue::Float(default),
            description: description.to_owned(),
        }
    }

    /// Creates a boolean parameter.
    pub fn boolean(name: &str, default: bool, description: &str) -> Self {
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Bool,
            default: ParamValue::Bool(default),
            description: description.to_owned(),
        }
    }

    /// Creates a categorical parameter. The default must be one of the
    /// choices.
    pub fn categorical(name: &str, choices: &[&str], default: &str, description: &str) -> Self {
        assert!(
            choices.contains(&default),
            "categorical param `{name}`: default not in choices"
        );
        ParamDef {
            name: name.to_owned(),
            kind: ParamKind::Categorical {
                choices: choices.iter().map(|c| (*c).to_owned()).collect(),
            },
            default: ParamValue::Str(default.to_owned()),
            description: description.to_owned(),
        }
    }

    /// Checks that `value` is admissible for this parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TypeMismatch`] when the value has the wrong
    /// kind and [`ConfigError::OutOfRange`] when it is outside the domain.
    pub fn check(&self, value: &ParamValue) -> Result<(), ConfigError> {
        self.check_coord(self.coord(value)?)
    }

    /// The coordinate of `value`, checked for kind (and, for a
    /// categorical, for membership in the choices) but not for range.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TypeMismatch`] when the value has the wrong
    /// kind and [`ConfigError::OutOfRange`] for an unknown choice.
    pub(crate) fn coord(&self, value: &ParamValue) -> Result<Coord, ConfigError> {
        match (&self.kind, value) {
            (ParamKind::Int { .. }, ParamValue::Int(v)) => Ok(Coord::Int(*v)),
            (ParamKind::Float { .. }, ParamValue::Float(v)) => Ok(Coord::Float(*v)),
            (ParamKind::Bool, ParamValue::Bool(v)) => Ok(Coord::Bool(*v)),
            (ParamKind::Categorical { choices }, ParamValue::Str(v)) => choices
                .iter()
                .position(|c| c == v)
                .map(Coord::Choice)
                .ok_or_else(|| ConfigError::OutOfRange {
                    param: self.name.clone(),
                    value: v.clone(),
                }),
            _ => Err(self.type_mismatch()),
        }
    }

    /// Checks that coordinate `c` is admissible for this parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TypeMismatch`] when the coordinate has the
    /// wrong kind and [`ConfigError::OutOfRange`] when it is outside the
    /// domain.
    #[inline]
    pub(crate) fn check_coord(&self, c: Coord) -> Result<(), ConfigError> {
        let admissible = match (&self.kind, c) {
            (ParamKind::Int { lo, hi, step }, Coord::Int(v)) => {
                // `step == 1` skips the division, as in `grid_steps`.
                v >= *lo && v <= *hi && (*step == 1 || (v - lo) % step == 0)
            }
            (ParamKind::Float { lo, hi, .. }, Coord::Float(v)) => {
                v.is_finite() && v >= *lo && v <= *hi
            }
            (ParamKind::Bool, Coord::Bool(_)) => true,
            (ParamKind::Categorical { choices }, Coord::Choice(i)) => i < choices.len(),
            _ => return Err(self.type_mismatch()),
        };
        if admissible {
            Ok(())
        } else {
            Err(ConfigError::OutOfRange {
                param: self.name.clone(),
                value: c.to_string(),
            })
        }
    }

    /// The nearest admissible coordinate to `value`, or `None` when the
    /// value has the wrong kind, is not finite, or names no choice.
    pub(crate) fn clamp_coord(&self, value: &ParamValue) -> Option<Coord> {
        match (&self.kind, value) {
            (ParamKind::Int { lo, hi, step }, ParamValue::Int(x)) => {
                let x = (*x).clamp(*lo, *hi);
                Some(Coord::Int(lo + ((x - lo) / step) * step))
            }
            (ParamKind::Float { lo, hi, .. }, ParamValue::Float(x)) if x.is_finite() => {
                Some(Coord::Float(x.clamp(*lo, *hi)))
            }
            (ParamKind::Bool, ParamValue::Bool(b)) => Some(Coord::Bool(*b)),
            (ParamKind::Categorical { choices }, ParamValue::Str(s)) => {
                choices.iter().position(|c| c == s).map(Coord::Choice)
            }
            _ => None,
        }
    }

    /// The name-keyed value of coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is a choice index and the parameter is not
    /// categorical or has no such choice.
    pub(crate) fn value(&self, c: Coord) -> ParamValue {
        match (c, &self.kind) {
            (Coord::Int(v), _) => ParamValue::Int(v),
            (Coord::Float(v), _) => ParamValue::Float(v),
            (Coord::Bool(v), _) => ParamValue::Bool(v),
            (Coord::Choice(i), ParamKind::Categorical { choices }) => {
                ParamValue::Str(choices[i].clone())
            }
            (Coord::Choice(_), _) => panic!("parameter `{}` is not categorical", self.name),
        }
    }

    fn type_mismatch(&self) -> ConfigError {
        ConfigError::TypeMismatch {
            param: self.name.clone(),
            expected: match self.kind {
                ParamKind::Int { .. } => "int",
                ParamKind::Float { .. } => "float",
                ParamKind::Bool => "bool",
                ParamKind::Categorical { .. } => "categorical",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_check_accepts_in_range() {
        let p = ParamDef::int("x", 1, 10, 5, "test");
        assert!(p.check(&ParamValue::Int(1)).is_ok());
        assert!(p.check(&ParamValue::Int(10)).is_ok());
        assert!(p.check(&ParamValue::Int(0)).is_err());
        assert!(p.check(&ParamValue::Int(11)).is_err());
    }

    #[test]
    fn int_step_respects_step() {
        let p = ParamDef::int_step("x", 0, 100, 10, 0, "test");
        assert!(p.check(&ParamValue::Int(30)).is_ok());
        assert!(p.check(&ParamValue::Int(35)).is_err());
    }

    #[test]
    fn float_check_rejects_nan() {
        let p = ParamDef::float("f", 0.0, 1.0, 0.5, "test");
        assert!(p.check(&ParamValue::Float(f64::NAN)).is_err());
        assert!(p.check(&ParamValue::Float(0.5)).is_ok());
    }

    #[test]
    fn categorical_check() {
        let p = ParamDef::categorical("c", &["a", "b"], "a", "test");
        assert!(p.check(&ParamValue::Str("b".into())).is_ok());
        assert!(p.check(&ParamValue::Str("z".into())).is_err());
    }

    #[test]
    fn type_mismatch_is_reported() {
        let p = ParamDef::boolean("b", true, "test");
        let err = p.check(&ParamValue::Int(1)).unwrap_err();
        assert!(matches!(err, ConfigError::TypeMismatch { .. }));
    }

    #[test]
    fn cardinality() {
        assert_eq!(
            ParamKind::Int {
                lo: 1,
                hi: 10,
                step: 1
            }
            .cardinality(),
            Some(10)
        );
        assert_eq!(
            ParamKind::Int {
                lo: 0,
                hi: 100,
                step: 10
            }
            .cardinality(),
            Some(11)
        );
        assert_eq!(ParamKind::Bool.cardinality(), Some(2));
        assert_eq!(
            ParamKind::Float {
                lo: 0.0,
                hi: 1.0,
                log: false
            }
            .cardinality(),
            None
        );
    }

    #[test]
    fn value_accessors() {
        assert_eq!(ParamValue::Int(3).as_int(), Some(3));
        assert_eq!(ParamValue::Int(3).as_float(), Some(3.0));
        assert_eq!(ParamValue::Float(0.5).as_float(), Some(0.5));
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ParamValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ParamValue::Bool(true).as_int(), None);
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            ParamValue::Int(1),
            ParamValue::Float(1.5),
            ParamValue::Bool(false),
            ParamValue::Str("kryo".into()),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
