//! Operation attributes.
//!
//! Attributes are compile-time-constant metadata attached to operations,
//! mirroring MLIR attributes. The stencil dialect's `#stencil.index<0, -1>`
//! offset attribute from the paper's Listing 2 is modelled by
//! [`Attribute::IndexList`].

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::Type;

/// A constant attribute value attached to an operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Attribute {
    /// An integer constant together with its type (e.g. `4 : i64`).
    Int(i64, Type),
    /// A floating point constant together with its type.
    Float(f64, Type),
    /// A string attribute.
    String(String),
    /// A boolean attribute.
    Bool(bool),
    /// A unit attribute — presence is the information.
    Unit,
    /// A type attribute.
    Type(Type),
    /// A reference to a symbol (function name etc.): `@name`.
    Symbol(String),
    /// An array of nested attributes.
    Array(Vec<Attribute>),
    /// A list of integers, used for stencil offsets (`#stencil.index<0, -1>`),
    /// bounds, tile sizes and similar shapes.
    IndexList(Vec<i64>),
}

impl Attribute {
    /// Integer attribute with `i64` type.
    pub fn int(v: i64) -> Attribute {
        Attribute::Int(v, Type::i64())
    }

    /// Index-typed integer attribute.
    pub fn index(v: i64) -> Attribute {
        Attribute::Int(v, Type::Index)
    }

    /// `f64` float attribute.
    pub fn float(v: f64) -> Attribute {
        Attribute::Float(v, Type::f64())
    }

    /// String attribute.
    pub fn string(v: impl Into<String>) -> Attribute {
        Attribute::String(v.into())
    }

    /// Symbol reference attribute.
    pub fn symbol(v: impl Into<String>) -> Attribute {
        Attribute::Symbol(v.into())
    }

    /// Extract an integer value if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float value if this is an [`Attribute::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Extract the string if this is an [`Attribute::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::String(s) => Some(s),
            _ => None,
        }
    }

    /// Extract the symbol name if this is an [`Attribute::Symbol`].
    pub fn as_symbol(&self) -> Option<&str> {
        match self {
            Attribute::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// Extract the boolean if this is an [`Attribute::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract the index list if this is an [`Attribute::IndexList`].
    pub fn as_index_list(&self) -> Option<&[i64]> {
        match self {
            Attribute::IndexList(v) => Some(v),
            _ => None,
        }
    }

    /// Extract the type if this is an [`Attribute::Type`].
    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attribute::Type(t) => Some(t),
            _ => None,
        }
    }

    /// Extract nested attributes if this is an [`Attribute::Array`].
    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Whether both denote the same constant: `==`, except that floats
    /// compare by bit pattern, so `0.0` and `-0.0` differ and a NaN equals
    /// itself — what merging two ops into one needs.
    pub fn identical(&self, other: &Attribute) -> bool {
        match (self, other) {
            (Attribute::Float(a, ta), Attribute::Float(b, tb)) => {
                a.to_bits() == b.to_bits() && ta == tb
            }
            (Attribute::Array(a), Attribute::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.identical(y))
            }
            _ => self == other,
        }
    }

    /// Feed `state` a hash that agrees with [`Attribute::identical`].
    pub fn hash_identity<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Attribute::Int(v, t) => (v, t).hash(state),
            Attribute::Float(v, t) => (v.to_bits(), t).hash(state),
            Attribute::String(s) | Attribute::Symbol(s) => s.hash(state),
            Attribute::Bool(b) => b.hash(state),
            Attribute::Unit => {}
            Attribute::Type(t) => t.hash(state),
            Attribute::Array(items) => items.iter().for_each(|a| a.hash_identity(state)),
            Attribute::IndexList(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Int(v, t) => write!(f, "{v} : {t}"),
            Attribute::Float(v, t) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.6e} : {t}")
                } else {
                    write!(f, "{v} : {t}")
                }
            }
            Attribute::String(s) => write!(f, "{s:?}"),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Unit => write!(f, "unit"),
            Attribute::Type(t) => write!(f, "{t}"),
            Attribute::Symbol(s) => write!(f, "@{s}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Attribute::IndexList(items) => {
                write!(f, "#index<")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Attribute::int(42).as_int(), Some(42));
        assert_eq!(Attribute::float(0.25).as_float(), Some(0.25));
        assert_eq!(Attribute::string("hi").as_str(), Some("hi"));
        assert_eq!(Attribute::symbol("f").as_symbol(), Some("f"));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(
            Attribute::IndexList(vec![0, -1]).as_index_list(),
            Some(&[0, -1][..])
        );
        assert_eq!(Attribute::Type(Type::f64()).as_type(), Some(&Type::f64()));
    }

    #[test]
    fn wrong_accessor_returns_none() {
        assert_eq!(Attribute::int(1).as_float(), None);
        assert_eq!(Attribute::float(1.0).as_int(), None);
        assert_eq!(Attribute::Unit.as_str(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Attribute::int(7).to_string(), "7 : i64");
        assert_eq!(Attribute::index(3).to_string(), "3 : index");
        assert_eq!(Attribute::symbol("apply_0").to_string(), "@apply_0");
        assert_eq!(
            Attribute::IndexList(vec![0, -1]).to_string(),
            "#index<0, -1>"
        );
        assert_eq!(Attribute::string("x").to_string(), "\"x\"");
    }

    #[test]
    fn float_display_is_scientific_for_round_values() {
        // Mirrors MLIR's printing of 2.500000e-01 in the paper listing.
        let s = Attribute::Float(1.0, Type::f64()).to_string();
        assert!(s.contains('e'), "expected scientific form, got {s}");
    }

    #[test]
    fn array_display() {
        let a = Attribute::Array(vec![Attribute::int(1), Attribute::int(2)]);
        assert_eq!(a.to_string(), "[1 : i64, 2 : i64]");
    }
}
