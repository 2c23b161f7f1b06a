//! Error type of the core library.

use tw_rtree::PersistError;
use tw_storage::{EnvelopeError, ShardError, StoreError};

/// Errors surfaced by the tw-core public API.
#[derive(Debug)]
pub enum TwError {
    /// Sequences must hold at least one element (feature extraction and the
    /// time-warping recurrence are undefined on empty sequences).
    EmptySequence,
    /// Elements must be finite so distances form a total order.
    InvalidElement { index: usize, value: f64 },
    /// A query tolerance was negative or non-finite.
    InvalidTolerance(f64),
    /// The underlying sequence store failed.
    Storage(StoreError),
    /// An engine was asked about a sequence id it does not index.
    UnknownSequence(u64),
    /// Subsequence window bounds were inconsistent.
    InvalidWindow { min_len: usize, max_len: usize },
    /// The persisted R-tree index could not be read or decoded.
    Index(PersistError),
    /// The index decoded but failed validation against the store (structural
    /// invariants or a size that contradicts the database).
    CorruptIndex(String),
    /// The single-writer ingest handle is already claimed
    /// ([`crate::ingest::ConcurrentIngest`] admits one writer at a time).
    WriterBusy,
    /// A sharded corpus manifest could not be read, written or validated.
    Shard(ShardError),
    /// An envelope sidecar could not be read or written.
    Sidecar(EnvelopeError),
}

impl std::fmt::Display for TwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwError::EmptySequence => write!(f, "sequence must be non-empty"),
            TwError::InvalidElement { index, value } => {
                write!(f, "element {index} is not finite: {value}")
            }
            TwError::InvalidTolerance(e) => write!(f, "invalid tolerance {e}"),
            TwError::Storage(e) => write!(f, "storage error: {e}"),
            TwError::UnknownSequence(id) => write!(f, "unknown sequence id {id}"),
            TwError::InvalidWindow { min_len, max_len } => {
                write!(f, "invalid window bounds [{min_len}, {max_len}]")
            }
            TwError::Index(e) => write!(f, "index load failed: {e}"),
            TwError::CorruptIndex(why) => write!(f, "index failed validation: {why}"),
            TwError::WriterBusy => write!(f, "ingest writer already claimed"),
            TwError::Shard(e) => write!(f, "shard layer error: {e}"),
            TwError::Sidecar(e) => write!(f, "envelope sidecar error: {e}"),
        }
    }
}

impl std::error::Error for TwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TwError::Storage(e) => Some(e),
            TwError::Index(e) => Some(e),
            TwError::Shard(e) => Some(e),
            TwError::Sidecar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShardError> for TwError {
    fn from(e: ShardError) -> Self {
        TwError::Shard(e)
    }
}

impl From<EnvelopeError> for TwError {
    fn from(e: EnvelopeError) -> Self {
        TwError::Sidecar(e)
    }
}

impl From<StoreError> for TwError {
    fn from(e: StoreError) -> Self {
        match e {
            // Bad input the store refused, not a storage failure.
            StoreError::InvalidElement { index, value } => TwError::InvalidElement { index, value },
            e => TwError::Storage(e),
        }
    }
}

impl From<PersistError> for TwError {
    fn from(e: PersistError) -> Self {
        TwError::Index(e)
    }
}

/// Validates a query sequence: non-empty and every element finite. This is
/// the DTW kernels' input contract — their compare-select `min`/`max` do not
/// order NaN — so every read entry point checks it before any work.
pub fn validate_query(query: &[f64]) -> Result<(), TwError> {
    if query.is_empty() {
        return Err(TwError::EmptySequence);
    }
    match query.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        Some((index, &value)) => Err(TwError::InvalidElement { index, value }),
        None => Ok(()),
    }
}

/// Validates a query tolerance: finite and non-negative.
pub fn validate_tolerance(epsilon: f64) -> Result<(), TwError> {
    if epsilon.is_finite() && epsilon >= 0.0 {
        Ok(())
    } else {
        Err(TwError::InvalidTolerance(epsilon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_validation() {
        assert!(validate_tolerance(0.0).is_ok());
        assert!(validate_tolerance(1.5).is_ok());
        assert!(validate_tolerance(-0.1).is_err());
        assert!(validate_tolerance(f64::NAN).is_err());
        assert!(validate_tolerance(f64::INFINITY).is_err());
    }

    #[test]
    fn query_validation() {
        assert!(validate_query(&[0.0, -1.5]).is_ok());
        assert!(matches!(validate_query(&[]), Err(TwError::EmptySequence)));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                validate_query(&[1.0, bad, f64::NAN]),
                Err(TwError::InvalidElement { index: 1, .. })
            ));
        }
    }

    #[test]
    fn display_messages() {
        assert!(TwError::EmptySequence.to_string().contains("non-empty"));
        assert!(TwError::InvalidTolerance(-1.0).to_string().contains("-1"));
        assert!(TwError::UnknownSequence(9).to_string().contains('9'));
    }
}
