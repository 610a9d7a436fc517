//! Portable `f64x4` lane arithmetic for the training fast path.
//!
//! The fused SGD kernel's element-wise update loop is lane-parallel: each
//! factor component's step depends only on that component of the two
//! vectors. This module provides a four-wide value type whose operations are
//! written as straight per-lane scalar IEEE operations — no fused
//! multiply-add, no reassociation — so a lane kernel built on it is
//! **bit-for-bit identical** to the scalar loop it replaces, while LLVM's
//! vectorizer lowers the lane bodies to packed SSE2/AVX instructions.
//!
//! # Why not `std::arch` intrinsics?
//!
//! The workspace forbids `unsafe` (`#![forbid(unsafe_code)]` across crates),
//! and explicit `_mm256_*` intrinsics require it. The per-lane formulation
//! keeps the safety guarantee and the bitwise contract: Rust never contracts
//! separate `*` and `+` into an FMA (contraction changes rounding), and each
//! lane op is the *same* scalar operation the fallback performs, so the two
//! paths cannot diverge. The property tests in `amf-core::online` pin this.
//!
//! # Runtime dispatch
//!
//! [`f64x4_runtime`] reports whether the host has 256-bit vector units
//! (AVX). Callers use it to pick between a lane-structured kernel and the
//! plain scalar loop; because both are bitwise identical, the choice affects
//! only speed, never results — which is what lets the sequential model and
//! the engine's relaxed lane share one dispatch decision.

use std::sync::OnceLock;

/// Four `f64` lanes, operated on element-wise.
///
/// All operations are per-lane scalar IEEE arithmetic in a fixed order:
/// `F64x4` math is bitwise identical to running the scalar equivalent on
/// each lane independently.
///
/// # Examples
///
/// ```
/// use qos_linalg::simd::F64x4;
///
/// let a = F64x4::load(&[1.0, 2.0, 3.0, 4.0]);
/// let b = F64x4::splat(0.5);
/// let mut out = [0.0; 4];
/// a.mul(b).store(&mut out);
/// assert_eq!(out, [0.5, 1.0, 1.5, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4([f64; 4]);

// Inherent `add`/`sub`/`mul` rather than the std ops traits: operator
// syntax would read as ordinary arithmetic, while the method-call form
// (matching `std::simd`) keeps lane-wise semantics visible at call sites.
#[allow(clippy::should_implement_trait)]
impl F64x4 {
    /// Loads four lanes from the first four elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than four elements.
    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        Self([src[0], src[1], src[2], src[3]])
    }

    /// All four lanes set to `value`.
    #[inline(always)]
    pub fn splat(value: f64) -> Self {
        Self([value; 4])
    }

    /// Writes the four lanes into the first four elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` has fewer than four elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise addition.
    #[inline(always)]
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] + rhs.0[k]))
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    #[must_use]
    pub fn sub(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] - rhs.0[k]))
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] * rhs.0[k]))
    }

    /// Lane-wise `self * b + c` as **two** rounded operations (multiply,
    /// then add) — deliberately not an FMA, whose single rounding would
    /// break bitwise agreement with the scalar kernel.
    #[inline(always)]
    #[must_use]
    pub fn mul_add_unfused(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|k| self.0[k] * b.0[k] + c.0[k]))
    }

    /// Lane-wise [`f64::clamp`] — identical NaN propagation and edge
    /// behaviour to the scalar call.
    #[inline(always)]
    #[must_use]
    pub fn clamp(self, lo: f64, hi: f64) -> Self {
        Self(std::array::from_fn(|k| self.0[k].clamp(lo, hi)))
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }
}

/// Whether the host CPU has 256-bit vector units (AVX on x86-64), making
/// the four-wide lane kernel worth dispatching to. Detected once and cached.
///
/// On non-x86-64 targets this returns `false` and callers fall back to the
/// scalar loop; the lane kernel itself is portable safe Rust either way, so
/// the flag gates *profitability*, not correctness.
pub fn f64x4_runtime() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn load_store_roundtrip() {
        let src = [1.5, -2.25, 0.0, f64::MAX];
        let mut dst = [0.0; 4];
        F64x4::load(&src).store(&mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(f64x4_runtime(), f64x4_runtime());
    }

    #[test]
    fn clamp_propagates_nan_like_scalar() {
        let v = F64x4::load(&[f64::NAN, 2.0, -2.0, 0.5]).clamp(-1.0, 1.0);
        let got = v.to_array();
        assert!(got[0].is_nan());
        assert_eq!(&got[1..], &[1.0, -1.0, 0.5]);
    }

    proptest! {
        #[test]
        fn every_op_is_bitwise_identical_to_per_lane_scalar(
            at in (-1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64),
            bt in (-1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64),
            ct in (-1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64, -1e6..1e6f64),
        ) {
            let a = [at.0, at.1, at.2, at.3];
            let b = [bt.0, bt.1, bt.2, bt.3];
            let c = [ct.0, ct.1, ct.2, ct.3];
            let (va, vb, vc) = (F64x4(a), F64x4(b), F64x4(c));
            for k in 0..4 {
                prop_assert_eq!(va.add(vb).0[k].to_bits(), (a[k] + b[k]).to_bits());
                prop_assert_eq!(va.sub(vb).0[k].to_bits(), (a[k] - b[k]).to_bits());
                prop_assert_eq!(va.mul(vb).0[k].to_bits(), (a[k] * b[k]).to_bits());
                prop_assert_eq!(
                    va.mul_add_unfused(vb, vc).0[k].to_bits(),
                    (a[k] * b[k] + c[k]).to_bits()
                );
                prop_assert_eq!(
                    va.clamp(-0.25, 0.25).0[k].to_bits(),
                    a[k].clamp(-0.25, 0.25).to_bits()
                );
            }
        }
    }
}
