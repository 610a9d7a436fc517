//! Numeric substrate for the AMF QoS-prediction reproduction.
//!
//! This crate provides the small, self-contained linear-algebra and statistics
//! toolkit that the rest of the workspace builds on:
//!
//! * [`DenseMatrix`] — row-major dense matrix used for full user–service QoS
//!   matrices (e.g. 142 × 4500 slices of the dataset).
//! * [`SparseMatrix`] — coordinate-format sparse matrix representing *observed*
//!   QoS entries (the grey cells of Fig. 4(b) in the paper).
//! * [`svd`] — singular values via a symmetric Jacobi eigensolver on the Gram
//!   matrix, used to reproduce Fig. 9 (sorted singular values).
//! * [`correlation`] — Pearson correlation coefficient over co-observed
//!   entries, the similarity measure behind the UPCC/IPCC/UIPCC baselines.
//! * [`stats`] — means, variances, medians and percentiles (MRE and NPRE are a
//!   median and a 90th percentile respectively).
//! * [`histogram`] — fixed-width density histograms for Figs. 7, 8 and 10.
//! * [`random`] — seeded Gaussian sampling (Box–Muller) on top of `rand`,
//!   avoiding any dependency beyond the approved set.
//! * [`slab`] — read-only kernels over contiguous factor slabs: unrolled
//!   dots, batch row scoring, and bounded-heap top-k selection for the
//!   candidate-ranking query.
//!
//! # Examples
//!
//! ```
//! use qos_linalg::{DenseMatrix, stats};
//!
//! let m = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
//! assert_eq!(m.get(1, 2), 5.0);
//! assert_eq!(stats::mean(m.values()).unwrap(), 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod histogram;
pub mod matrix;
pub mod random;
pub mod slab;
pub mod sparse;
pub mod stats;
pub mod svd;
pub mod vector;

pub use histogram::Histogram;
pub use matrix::DenseMatrix;
pub use sparse::{Entry, SparseMatrix};

/// Error type for shape/validation failures in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// An index was out of bounds for the matrix shape.
    IndexOutOfBounds {
        /// Offending index (row, col).
        index: (usize, usize),
        /// Matrix shape (rows, cols).
        shape: (usize, usize),
    },
    /// The input was empty where a non-empty input is required.
    EmptyInput,
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            LinalgError::EmptyInput => write!(f, "input was empty"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch: left is 2x3, right is 4x5"
        );
        let e = LinalgError::IndexOutOfBounds {
            index: (9, 9),
            shape: (3, 3),
        };
        assert!(e.to_string().contains("out of bounds"));
        let e = LinalgError::EmptyInput;
        assert_eq!(e.to_string(), "input was empty");
        let e = LinalgError::NoConvergence { iterations: 100 };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
