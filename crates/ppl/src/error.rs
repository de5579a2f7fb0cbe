//! Error types shared across the workspace.

use std::fmt;
use std::time::Instant;

use crate::address::Address;

/// Errors raised while evaluating, scoring, or translating probabilistic
/// programs.
#[derive(Debug, Clone, PartialEq)]
pub enum PplError {
    /// A value had the wrong type for an operation.
    Type {
        /// The type the operation required.
        expected: &'static str,
        /// The type that was found.
        found: &'static str,
        /// Where the mismatch happened.
        context: String,
    },
    /// A variable was read before being assigned.
    UnboundVariable(String),
    /// An array index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
        /// The array length.
        len: usize,
    },
    /// A distribution was constructed with invalid parameters.
    InvalidDistribution(String),
    /// Two random choices or observations were recorded at the same address.
    AddressCollision(Address),
    /// A replay or scoring handler needed a choice that the trace lacks.
    MissingChoice(Address),
    /// A constrained value lies outside the distribution's support.
    OutsideSupport {
        /// The address of the choice.
        address: Address,
        /// Rendered value.
        value: String,
    },
    /// Division by zero (or modulo by zero).
    DivisionByZero,
    /// A loop exceeded the interpreter's step budget.
    FuelExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// Exact enumeration met a choice with non-finite support.
    NonEnumerable(Address),
    /// The source nests deeper than the parser accepts
    /// ([`crate::parser::MAX_NESTING`]).
    NestingTooDeep {
        /// 1-based line of the token that went past the limit.
        line: usize,
        /// 1-based column of that token.
        col: usize,
        /// The nesting limit.
        limit: usize,
    },
    /// `array(n, init)` asked for more than
    /// [`crate::interp::MAX_ARRAY_LEN`] elements.
    ArrayTooLong {
        /// The requested length.
        len: i64,
        /// The length limit.
        limit: i64,
    },
    /// A translation passed the deadline its runtime set for the
    /// attempt; see [`PplError::check_deadline`].
    DeadlineExceeded,
    /// Any other error, carrying a message.
    Other(String),
}

impl PplError {
    /// Convenience constructor for [`PplError::Type`].
    pub fn type_error(expected: &'static str, found: &'static str, context: &str) -> PplError {
        PplError::Type {
            expected,
            found,
            context: context.to_string(),
        }
    }

    /// [`PplError::DeadlineExceeded`] once `deadline` has passed, `Ok`
    /// before it and without one. Executors call it where they make
    /// progress (a fuel charge, a handler call), so a translation stops
    /// at its deadline instead of running on.
    ///
    /// # Errors
    ///
    /// [`PplError::DeadlineExceeded`] when `deadline` is in the past.
    #[inline]
    pub fn check_deadline(deadline: Option<Instant>) -> Result<(), PplError> {
        match deadline {
            Some(deadline) if Instant::now() >= deadline => Err(PplError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for PplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PplError::Type {
                expected,
                found,
                context,
            } => write!(f, "expected {expected} but found {found} in {context}"),
            PplError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
            PplError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for array of length {len}")
            }
            PplError::InvalidDistribution(msg) => write!(f, "invalid distribution: {msg}"),
            PplError::AddressCollision(addr) => {
                write!(
                    f,
                    "address `{addr}` was used more than once in a single execution"
                )
            }
            PplError::MissingChoice(addr) => {
                write!(f, "trace has no choice at address `{addr}`")
            }
            PplError::OutsideSupport { address, value } => {
                write!(
                    f,
                    "value {value} at `{address}` lies outside the distribution support"
                )
            }
            PplError::DivisionByZero => write!(f, "division by zero"),
            PplError::FuelExhausted { budget } => {
                write!(f, "execution exceeded the step budget of {budget}")
            }
            PplError::NonEnumerable(addr) => {
                write!(
                    f,
                    "choice at `{addr}` has non-finite support; exact enumeration impossible"
                )
            }
            PplError::NestingTooDeep { line, col, limit } => write!(
                f,
                "parse error at line {line}, column {col}: nesting deeper than {limit} levels"
            ),
            PplError::ArrayTooLong { len, limit } => {
                write!(f, "array length {len} exceeds the limit of {limit}")
            }
            PplError::DeadlineExceeded => write!(f, "translation passed its deadline"),
            PplError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PplError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = PplError::type_error("real", "array", "number");
        assert_eq!(e.to_string(), "expected real but found array in number");
        let e = PplError::MissingChoice(addr!["x", 2]);
        assert!(e.to_string().contains("x/2"));
        let e = PplError::FuelExhausted { budget: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error + Send + Sync>(_e: E) {}
        takes_error(PplError::DivisionByZero);
    }
}
