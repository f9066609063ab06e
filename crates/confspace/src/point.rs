//! Dense, index-addressed configurations.
//!
//! A [`Point`] holds one typed [`Coord`] per parameter of a
//! [`ParamSpace`](crate::ParamSpace), in the space's encoding order. A
//! categorical is stored as the index of its choice, so building,
//! checking and encoding a point allocates no strings and looks up no
//! names. Samplers, search operators, `encode`/`decode`, `validate` and
//! `clamp` all work on points; the name-keyed [`Configuration`] is the
//! boundary form that tuners return and that serde writes.
//!
//! A point carries no reference to its space: it is only meaningful for
//! the space that produced it.
//!
//! [`Configuration`]: crate::Configuration

use std::fmt;
use std::ops::Index;

/// One parameter's value inside a [`Point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coord {
    /// Integer value.
    Int(i64),
    /// Continuous value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Index into a categorical parameter's choices.
    Choice(usize),
}

impl Coord {
    /// The integer payload, if this is a [`Coord::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Coord::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float payload, if this is a [`Coord::Float`].
    pub fn as_float(self) -> Option<f64> {
        match self {
            Coord::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Coord::Bool`].
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Coord::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The choice index, if this is a [`Coord::Choice`].
    pub fn as_choice(self) -> Option<usize> {
        match self {
            Coord::Choice(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coord::Int(v) => write!(f, "{v}"),
            Coord::Float(v) => write!(f, "{v}"),
            Coord::Bool(v) => write!(f, "{v}"),
            Coord::Choice(v) => write!(f, "{v}"),
        }
    }
}

/// A configuration as one [`Coord`] per parameter, in encoding order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Point {
    coords: Vec<Coord>,
}

impl Point {
    /// The coordinates, in the space's encoding order.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of coordinates.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    pub(crate) fn push(&mut self, c: Coord) {
        self.coords.push(c);
    }

    /// Whether the point has no coordinates.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

impl Index<usize> for Point {
    type Output = Coord;

    fn index(&self, i: usize) -> &Coord {
        &self.coords[i]
    }
}

impl FromIterator<Coord> for Point {
    fn from_iter<I: IntoIterator<Item = Coord>>(iter: I) -> Self {
        Point {
            coords: iter.into_iter().collect(),
        }
    }
}
