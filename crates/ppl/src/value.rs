//! Runtime values of the probabilistic language.
//!
//! The paper's language works over rationals Q with booleans encoded as
//! `0`/`1` (Section 3). We use a tagged value type with integers, IEEE reals,
//! booleans, and arrays (arrays support the PSI-style evaluation programs
//! such as the Gaussian mixture model of Listing 5).

use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

use crate::error::PplError;

/// A runtime value.
///
/// Booleans coerce to numbers (`false = 0`, `true = 1`) and any non-zero
/// number is truthy, mirroring the paper's convention that "0 stands for
/// false, while all other values stand for true".
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean, `0`/`1` when viewed numerically.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// An IEEE-754 double-precision real.
    Real(f64),
    /// An array of values with value (copy) semantics. The backing
    /// storage is shared (`Arc`) and copied on write, so cloning an array
    /// value is O(1) — a property the incremental dependency-graph
    /// runtime relies on to skip array-heavy program slices cheaply.
    Array(Arc<Vec<Value>>),
}

impl Value {
    /// A short human-readable name for the value's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Array(_) => "array",
        }
    }

    /// Interprets the value as a boolean (`0` is false, any other number is
    /// true).
    ///
    /// # Errors
    ///
    /// Returns [`PplError::Type`] for arrays.
    pub fn truthy(&self) -> Result<bool, PplError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Real(r) => Ok(*r != 0.0),
            Value::Array(_) => Err(PplError::type_error("bool", self.type_name(), "condition")),
        }
    }

    /// Interprets the value as a real number.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::Type`] for arrays.
    pub fn as_real(&self) -> Result<f64, PplError> {
        match self {
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            Value::Int(i) => Ok(*i as f64),
            Value::Real(r) => Ok(*r),
            Value::Array(_) => Err(PplError::type_error("real", self.type_name(), "number")),
        }
    }

    /// Interprets the value as an integer.
    ///
    /// Reals convert only when they are exactly integral.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::Type`] for arrays and non-integral reals.
    pub fn as_int(&self) -> Result<i64, PplError> {
        match self {
            Value::Bool(b) => Ok(i64::from(*b)),
            Value::Int(i) => Ok(*i),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() => Ok(*r as i64),
            other => Err(PplError::type_error("int", other.type_name(), "integer")),
        }
    }

    /// Borrows the value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::Type`] for non-arrays.
    pub fn as_array(&self) -> Result<&[Value], PplError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(PplError::type_error("array", other.type_name(), "indexing")),
        }
    }

    /// Mutably borrows the value as an array, copying the shared backing
    /// storage first if it is aliased (copy-on-write).
    ///
    /// # Errors
    ///
    /// Returns [`PplError::Type`] for non-arrays.
    pub fn as_array_mut(&mut self) -> Result<&mut Vec<Value>, PplError> {
        match self {
            Value::Array(items) => Ok(Arc::make_mut(items)),
            other => Err(PplError::type_error("array", other.type_name(), "indexing")),
        }
    }

    /// Builds an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(items))
    }

    /// Numeric equality that treats `Bool`, `Int` and `Real` values on a
    /// common number line (`true == 1`, `2 == 2.0`), and compares arrays
    /// element-wise.
    pub fn num_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.num_eq(y))
            }
            (Value::Array(_), _) | (_, Value::Array(_)) => false,
            _ => match (self.as_real(), other.as_real()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Whether the two are the same value of the same type, with reals
    /// compared by their bits and arrays element by element. Such values
    /// print alike, so a writer may render one in place of the other:
    /// `0.0` and `-0.0` differ here, `1` and `1.0` too, and a NaN is the
    /// same only as a NaN with equal bits.
    pub fn same_bits(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            (Value::Array(a), Value::Array(b)) => {
                Arc::ptr_eq(a, b)
                    || (a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same_bits(y)))
            }
            _ => false,
        }
    }

    /// Feeds the value to `state` so that values that are
    /// [`Value::same_bits`] hash alike.
    pub fn hash_bits<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => state.write_u8(u8::from(*b)),
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Real(r) => {
                state.write_u8(3);
                state.write_u64(r.to_bits());
            }
            Value::Array(items) => {
                state.write_u8(4);
                state.write_usize(items.len());
                for item in items.iter() {
                    item.hash_bits(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps a decimal point on integral reals (`4.0`, not
            // `4`), so printed programs re-parse with the same types.
            Value::Real(r) => write!(f, "{r:?}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(Arc::new(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_follows_paper_convention() {
        assert!(!Value::Int(0).truthy().unwrap());
        assert!(Value::Int(3).truthy().unwrap());
        assert!(Value::Real(-0.5).truthy().unwrap());
        assert!(!Value::Real(0.0).truthy().unwrap());
        assert!(Value::Bool(true).truthy().unwrap());
        assert!(Value::array(vec![]).truthy().is_err());
    }

    #[test]
    fn bool_coerces_to_numbers() {
        assert_eq!(Value::Bool(true).as_real().unwrap(), 1.0);
        assert_eq!(Value::Bool(false).as_int().unwrap(), 0);
    }

    #[test]
    fn integral_real_converts_to_int() {
        assert_eq!(Value::Real(4.0).as_int().unwrap(), 4);
        assert!(Value::Real(4.5).as_int().is_err());
        assert!(Value::Real(f64::NAN).as_int().is_err());
    }

    #[test]
    fn num_eq_crosses_types() {
        assert!(Value::Int(1).num_eq(&Value::Bool(true)));
        assert!(Value::Real(2.0).num_eq(&Value::Int(2)));
        assert!(!Value::Real(2.5).num_eq(&Value::Int(2)));
        assert!(Value::array(vec![Value::Int(1)]).num_eq(&Value::array(vec![Value::Real(1.0)])));
        assert!(!Value::array(vec![Value::Int(1)]).num_eq(&Value::Int(1)));
        assert!(!Value::array(vec![]).num_eq(&Value::array(vec![Value::Int(1)])));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Value::array(vec![Value::Int(1), Value::Bool(true)]).to_string(),
            "[1, true]"
        );
        assert_eq!(Value::Real(0.5).to_string(), "0.5");
    }

    #[test]
    fn array_accessors() {
        let mut v = Value::array(vec![Value::Int(1)]);
        assert_eq!(v.as_array().unwrap().len(), 1);
        v.as_array_mut().unwrap().push(Value::Int(2));
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert!(Value::Int(0).as_array().is_err());
    }
}
