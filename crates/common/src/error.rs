//! Workspace error type.

use std::fmt;

use crate::ids::{QueryId, TupleId};

/// Convenience alias used across the workspace.
pub type Result<T, E = TkmError> = std::result::Result<T, E>;

/// Errors produced by the top-k monitoring workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TkmError {
    /// A coordinate slice / function / grid dimensionality mismatch.
    DimensionMismatch {
        /// Dimensionality the component was configured with.
        expected: usize,
        /// Dimensionality that was supplied.
        got: usize,
    },
    /// A parameter failed validation (message explains which and why).
    InvalidParameter(String),
    /// The query id is not registered.
    UnknownQuery(QueryId),
    /// The query id is already registered.
    DuplicateQuery(QueryId),
    /// The tuple id is not present in the store.
    UnknownTuple(TupleId),
    /// The tuple id is already present in the store.
    DuplicateTuple(TupleId),
    /// The operation is not supported by this engine/stream-model
    /// combination (e.g. SMA over explicit-deletion update streams, §7).
    Unsupported(String),
    /// An internal invariant failed (e.g. a query id mapped to a freed
    /// slot), or the service could not set up its sockets. A monitor that
    /// reports it may hold inconsistent state; callers should rebuild it
    /// rather than continue ticking.
    Internal(String),
}

impl fmt::Display for TkmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TkmError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            TkmError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            TkmError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            TkmError::DuplicateQuery(q) => write!(f, "query {q} already registered"),
            TkmError::UnknownTuple(t) => write!(f, "unknown tuple {t}"),
            TkmError::DuplicateTuple(t) => write!(f, "tuple {t} already present"),
            TkmError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            TkmError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for TkmError {}

/// A dimensionality check: refuses `got` dimensions where `expected` are
/// configured, naming both.
#[inline]
pub fn same_dims(expected: usize, got: usize) -> Result<()> {
    if got == expected {
        Ok(())
    } else {
        Err(TkmError::DimensionMismatch { expected, got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TkmError::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 2");
        assert_eq!(
            TkmError::UnknownQuery(QueryId(3)).to_string(),
            "unknown query q3"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TkmError::InvalidParameter("x".into()));
    }
}
