//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size specification for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Inclusive minimum length.
    pub min: usize,
    /// Exclusive maximum length.
    pub max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            min: n,
            max_exclusive: n + 1,
        }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max_exclusive: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max_exclusive: *r.end() + 1,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len =
            rng.gen_range_int(self.size.min as i128, self.size.max_exclusive as i128 - 1) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A vector of values from `element`, with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
