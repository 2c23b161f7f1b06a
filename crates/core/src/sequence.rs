//! The sequence type all engines operate on.
//!
//! A [`Sequence`] is a non-empty, NaN-free list of `f64` elements (§2 of the
//! paper: "an ordered list of elements ... of numeric elements"). The
//! invariants are enforced at construction so every downstream comparison is
//! a total order and feature extraction is well defined.

use crate::error::{validate_query, TwError};

/// A validated numeric sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    values: Vec<f64>,
}

impl Sequence {
    /// Creates a sequence, validating the invariants.
    ///
    /// # Errors
    /// [`TwError::EmptySequence`] for zero-length input and
    /// [`TwError::InvalidElement`] when any element is NaN or infinite.
    pub fn new(values: Vec<f64>) -> Result<Self, TwError> {
        validate_query(&values)?;
        Ok(Self { values })
    }

    /// The elements.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of elements, `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: sequences are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `First(S)`.
    #[inline]
    pub fn first(&self) -> f64 {
        self.values[0]
    }

    /// `Last(S)`.
    #[inline]
    pub fn last(&self) -> f64 {
        self.values[self.values.len() - 1]
    }

    /// `Greatest(S)`.
    pub fn greatest(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `Smallest(S)`.
    pub fn smallest(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.len() as f64;
        var.sqrt()
    }

    /// Consumes the sequence, returning its elements.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

impl TryFrom<Vec<f64>> for Sequence {
    type Error = TwError;
    fn try_from(values: Vec<f64>) -> Result<Self, Self::Error> {
        Self::new(values)
    }
}

impl TryFrom<&[f64]> for Sequence {
    type Error = TwError;
    fn try_from(values: &[f64]) -> Result<Self, Self::Error> {
        Self::new(values.to_vec())
    }
}

impl AsRef<[f64]> for Sequence {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;

    #[test]
    fn accessors_match_paper_notation() {
        let s = Sequence::new(vec![20.0, 21.0, 19.0, 23.0, 22.0]).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.first(), 20.0);
        assert_eq!(s.last(), 22.0);
        assert_eq!(s.greatest(), 23.0);
        assert_eq!(s.smallest(), 19.0);
    }

    #[test]
    fn singleton_sequence() {
        let s = Sequence::new(vec![7.5]).unwrap();
        assert_eq!(s.first(), 7.5);
        assert_eq!(s.last(), 7.5);
        assert_eq!(s.greatest(), 7.5);
        assert_eq!(s.smallest(), 7.5);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(Sequence::new(vec![]), Err(TwError::EmptySequence)));
    }

    #[test]
    fn nan_and_inf_rejected() {
        assert!(matches!(
            Sequence::new(vec![1.0, f64::NAN]),
            Err(TwError::InvalidElement { index: 1, .. })
        ));
        assert!(matches!(
            Sequence::new(vec![f64::INFINITY]),
            Err(TwError::InvalidElement { index: 0, .. })
        ));
    }

    #[test]
    fn stats() {
        let s = Sequence::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.mean(), 3.0);
        assert!((s.std_dev() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        let s: Sequence = vec![1.0, 2.0].try_into().unwrap();
        assert_eq!(s.as_ref(), &[1.0, 2.0]);
        let v = s.into_values();
        assert_eq!(v, vec![1.0, 2.0]);
    }
}
