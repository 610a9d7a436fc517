//! The per-sample SGD update (paper Eq. 16–17; the `OnlineUpdate` function of
//! Algorithm 1).
//!
//! Given one observed sample with normalized value `r` and the current
//! feature vectors `U_i`, `S_j`, the update is:
//!
//! ```text
//! U_i ← U_i − η·w_u·((g − r)·g′·S_j / r² + λ_u·U_i)
//! S_j ← S_j − η·w_s·((g − r)·g′·U_i / r² + λ_s·S_j)
//! ```
//!
//! where `g = sigmoid(U_i^T S_j)`, `g′` its derivative, and `(w_u, w_s)` the
//! adaptive weights of Eq. 12. Both vectors are updated *simultaneously*
//! (the gradients are computed before either vector moves), as the paper
//! specifies in Algorithm 1 line 24.

use crate::config::{AmfConfig, LossKind};
use qos_transform::sigmoid;

/// Floor applied to normalized values `r` wherever they appear in a
/// denominator (`1/r²` in the gradient, `1/r` in the error): the relative
/// loss is undefined at `r = 0`, which corresponds to a raw value at `R_min`.
pub const NORMALIZED_FLOOR: f64 = 1e-2;

/// Clamp on the per-sample gradient coefficient `(g − r)·g′ / r²`.
///
/// With a well-tuned Box–Cox transform, normalized values are mid-range and
/// the coefficient stays well under 1. With a *poor* transform (e.g. the
/// `α = 1` ablation on skewed data) most `r` sit near the floor and the
/// `1/r²` factor can reach 10⁴. Clipping keeps the ablation configurations
/// trainable without affecting the paper's operating point.
pub const GRADIENT_CLIP: f64 = 5.0;

/// Clamp on each factor component's per-update step.
///
/// The two vectors multiply each other's gradients (`ΔU ∝ S`, `ΔS ∝ U`), so
/// once a mis-scaled loss makes them large, every update makes them larger —
/// a runaway that drives the inner product deep into sigmoid saturation,
/// where `g′` underflows and the pair freezes at a degenerate prediction.
/// Bounding the per-component step breaks the feedback loop; the paper's
/// operating point takes steps an order of magnitude below this bound.
pub const STEP_CLIP: f64 = 0.05;

/// Inputs/outputs of one online update, exposed for inspection and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Normalized actual `r` the step was fed (after the Box–Cox transform).
    pub r: f64,
    /// Model output `g(U_i^T S_j)` *before* the update.
    pub g: f64,
    /// Per-sample relative error `|r − g| / r` before the update (Eq. 15).
    pub sample_error: f64,
    /// Adaptive weight applied to the user side.
    pub w_user: f64,
    /// Adaptive weight applied to the service side.
    pub w_service: f64,
}

/// Applies one SGD step for the sample `(U_i, S_j, r)` in place.
///
/// `e_user` / `e_service` are the *current* EMA errors of the two entities
/// (the caller updates the trackers with the returned
/// [`UpdateOutcome::sample_error`] — the paper computes weights from the
/// trackers first, Algorithm 1 lines 21–23, then updates them).
pub fn sgd_step(
    config: &AmfConfig,
    user_factors: &mut [f64],
    service_factors: &mut [f64],
    r: f64,
    e_user: f64,
    e_service: f64,
) -> UpdateOutcome {
    debug_assert_eq!(user_factors.len(), service_factors.len());
    // Specialize for the paper's operating dimension: with `d` known at
    // compile time the dot chain and update loop fully unroll (no
    // loop-carried branches, no slice-length checks). Unrolling preserves
    // the per-element operation order exactly, so results stay bit-for-bit
    // identical to the dynamic-length path — the bitwise property tests
    // below cover both.
    if let (Ok(u), Ok(s)) = (
        <&mut [f64; 10]>::try_from(&mut *user_factors),
        <&mut [f64; 10]>::try_from(&mut *service_factors),
    ) {
        return sgd_step_fixed::<10>(config, u, s, r, e_user, e_service);
    }
    sgd_step_dyn(config, user_factors, service_factors, r, e_user, e_service)
}

fn sgd_step_fixed<const D: usize>(
    config: &AmfConfig,
    user_factors: &mut [f64; D],
    service_factors: &mut [f64; D],
    r: f64,
    e_user: f64,
    e_service: f64,
) -> UpdateOutcome {
    sgd_step_dyn(config, user_factors, service_factors, r, e_user, e_service)
}

#[inline(always)]
fn sgd_step_dyn(
    config: &AmfConfig,
    user_factors: &mut [f64],
    service_factors: &mut [f64],
    r: f64,
    e_user: f64,
    e_service: f64,
) -> UpdateOutcome {
    let r_safe = r.max(NORMALIZED_FLOOR);

    // Fused scalar path. Every floating-point operation below happens in the
    // same order as the original two-kernel formulation (`vector::dot` then
    // `sigmoid`/`sigmoid_derivative` then the update loop), which is what the
    // bitwise sequential-vs-batched parity suite pins down:
    // * the dot accumulates left-to-right from 0.0, exactly like
    //   `vector::dot`'s sequential fold;
    // * `g · (1 − g)` is the identity `sigmoid_derivative` computes
    //   internally, just without re-evaluating `exp` — same inputs, same
    //   operations, one transcendental instead of two.
    // The `#[cfg(test)] reference` module keeps the original formulation and
    // a property test asserts bit-for-bit agreement.
    let mut x = 0.0;
    for (uk, sk) in user_factors.iter().zip(service_factors.iter()) {
        x += uk * sk;
    }
    let g = sigmoid(x);
    let gp = g * (1.0 - g);
    let sample_error = (r - g).abs() / r_safe;

    let (w_user, w_service) = if config.adaptive_weights {
        crate::weights::adaptive_weights(e_user, e_service)
    } else {
        // Ablation: fixed, symmetric full-step weights.
        (1.0, 1.0)
    };

    // Gradient common coefficient: (g − r)·g′ / r² for the paper's relative
    // loss, or (g − r)·g′ for the squared-loss ablation. Clipped to avoid
    // the saturation trap (see [`GRADIENT_CLIP`]).
    let coef = match config.loss {
        LossKind::Relative => (g - r) * gp / (r_safe * r_safe),
        LossKind::Squared => (g - r) * gp,
    }
    .clamp(-GRADIENT_CLIP, GRADIENT_CLIP);

    let eta = config.learning_rate;
    let (eta_user, eta_service) = (eta * w_user, eta * w_service);
    let (lam_user, lam_service) = (config.lambda_user, config.lambda_service);
    for (u, s) in user_factors.iter_mut().zip(service_factors.iter_mut()) {
        let (uk, sk) = (*u, *s);
        let du = (eta_user * (coef * sk + lam_user * uk)).clamp(-STEP_CLIP, STEP_CLIP);
        let ds = (eta_service * (coef * uk + lam_service * sk)).clamp(-STEP_CLIP, STEP_CLIP);
        *u = uk - du;
        *s = sk - ds;
    }

    UpdateOutcome {
        r,
        g,
        sample_error,
        w_user,
        w_service,
    }
}

/// The pre-fusion scalar formulation, kept verbatim as the bitwise oracle
/// for the fused kernel (see the property tests below).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use qos_transform::{sigmoid, sigmoid_derivative};

    /// Original two-kernel `sgd_step`: library dot, separate
    /// `sigmoid_derivative` evaluation, un-hoisted update loop.
    pub(crate) fn sgd_step(
        config: &AmfConfig,
        user_factors: &mut [f64],
        service_factors: &mut [f64],
        r: f64,
        e_user: f64,
        e_service: f64,
    ) -> UpdateOutcome {
        let r_safe = r.max(NORMALIZED_FLOOR);

        let x = qos_linalg::vector::dot(user_factors, service_factors);
        let g = sigmoid(x);
        let gp = sigmoid_derivative(x);
        let sample_error = (r - g).abs() / r_safe;

        let (w_user, w_service) = if config.adaptive_weights {
            crate::weights::adaptive_weights(e_user, e_service)
        } else {
            (1.0, 1.0)
        };

        let coef = match config.loss {
            LossKind::Relative => (g - r) * gp / (r_safe * r_safe),
            LossKind::Squared => (g - r) * gp,
        }
        .clamp(-GRADIENT_CLIP, GRADIENT_CLIP);

        let eta = config.learning_rate;
        for k in 0..user_factors.len() {
            let (uk, sk) = (user_factors[k], service_factors[k]);
            let du =
                (eta * w_user * (coef * sk + config.lambda_user * uk)).clamp(-STEP_CLIP, STEP_CLIP);
            let ds = (eta * w_service * (coef * uk + config.lambda_service * sk))
                .clamp(-STEP_CLIP, STEP_CLIP);
            user_factors[k] = uk - du;
            service_factors[k] = sk - ds;
        }

        UpdateOutcome {
            r,
            g,
            sample_error,
            w_user,
            w_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmfConfig;
    use qos_transform::sigmoid_derivative;

    fn config() -> AmfConfig {
        AmfConfig::response_time()
    }

    #[test]
    fn update_reduces_error_on_repeat() {
        let cfg = config();
        // Asymmetric init: exactly anti-parallel vectors sit on a saddle of
        // the symmetric update (u_k = -s_k is invariant), which random
        // initialization never produces.
        let mut u: Vec<f64> = (0..10).map(|k| 0.05 + 0.01 * k as f64).collect();
        let mut s: Vec<f64> = (0..10).map(|k| -0.05 + 0.012 * k as f64).collect();
        let r = 0.7;
        let first = sgd_step(&cfg, &mut u, &mut s, r, 1.0, 1.0);
        for _ in 0..200 {
            sgd_step(&cfg, &mut u, &mut s, r, 1.0, 1.0);
        }
        let last = sgd_step(&cfg, &mut u, &mut s, r, 1.0, 1.0);
        assert!(
            last.sample_error < first.sample_error / 5.0,
            "error {} -> {}",
            first.sample_error,
            last.sample_error
        );
        assert!((sigmoid(qos_linalg::vector::dot(&u, &s)) - r).abs() < 0.05);
    }

    #[test]
    fn simultaneous_update_uses_pre_step_vectors() {
        // If S_j were updated before computing U_i's gradient the result
        // would differ; verify the user step depends only on the original
        // service vector by replaying it manually.
        let cfg = config();
        let u0 = vec![0.1, -0.2, 0.3];
        let s0 = vec![0.2, 0.1, -0.1];
        let mut cfg3 = cfg;
        cfg3.dimension = 3;
        let mut u = u0.clone();
        let mut s = s0.clone();
        let r = 0.4;
        sgd_step(&cfg3, &mut u, &mut s, r, 0.5, 0.5);

        // Manual replay.
        let x = qos_linalg::vector::dot(&u0, &s0);
        let g = sigmoid(x);
        let gp = sigmoid_derivative(x);
        let coef = (g - r) * gp / (r * r);
        let (wu, ws) = crate::weights::adaptive_weights(0.5, 0.5);
        for k in 0..3 {
            let expect_u =
                u0[k] - cfg3.learning_rate * wu * (coef * s0[k] + cfg3.lambda_user * u0[k]);
            let expect_s =
                s0[k] - cfg3.learning_rate * ws * (coef * u0[k] + cfg3.lambda_service * s0[k]);
            assert!((u[k] - expect_u).abs() < 1e-12);
            assert!((s[k] - expect_s).abs() < 1e-12);
        }
    }

    #[test]
    fn adaptive_weights_shift_burden_to_inaccurate_side() {
        let cfg = config();
        let u0 = vec![0.1; 10];
        let s0 = vec![0.1; 10];
        // New user (error 1.0), converged service (error 0.01).
        let mut u = u0.clone();
        let mut s = s0.clone();
        let out = sgd_step(&cfg, &mut u, &mut s, 0.9, 1.0, 0.01);
        assert!(out.w_user > 0.98);
        let user_move = qos_linalg::vector::distance_sq(&u, &u0);
        let service_move = qos_linalg::vector::distance_sq(&s, &s0);
        assert!(
            user_move > 50.0 * service_move,
            "user moved {user_move}, service moved {service_move}"
        );
    }

    #[test]
    fn disabled_adaptive_weights_gives_full_steps() {
        let mut cfg = config();
        cfg.adaptive_weights = false;
        let mut u = vec![0.1; 10];
        let mut s = vec![0.1; 10];
        let out = sgd_step(&cfg, &mut u, &mut s, 0.9, 1.0, 0.01);
        assert_eq!(out.w_user, 1.0);
        assert_eq!(out.w_service, 1.0);
    }

    #[test]
    fn squared_loss_takes_smaller_steps_on_small_r() {
        // For r near the floor, the relative loss amplifies the gradient by
        // 1/r^2; the squared loss does not.
        let u0 = vec![0.1; 10];
        let s0 = vec![0.1; 10];
        let r = 0.05;

        let mut cfg_rel = config();
        cfg_rel.loss = LossKind::Relative;
        let mut u_rel = u0.clone();
        let mut s_rel = s0.clone();
        sgd_step(&cfg_rel, &mut u_rel, &mut s_rel, r, 0.5, 0.5);

        let mut cfg_sq = config();
        cfg_sq.loss = LossKind::Squared;
        let mut u_sq = u0.clone();
        let mut s_sq = s0.clone();
        sgd_step(&cfg_sq, &mut u_sq, &mut s_sq, r, 0.5, 0.5);

        let move_rel = qos_linalg::vector::distance_sq(&u_rel, &u0);
        let move_sq = qos_linalg::vector::distance_sq(&u_sq, &u0);
        assert!(move_rel > move_sq * 10.0);
    }

    #[test]
    fn perfect_prediction_only_regularizes() {
        let cfg = config();
        // Force g == r by picking r = sigmoid(x) for the given vectors.
        let mut u = vec![0.2; 10];
        let mut s = vec![0.3; 10];
        let r = sigmoid(qos_linalg::vector::dot(&u, &s));
        let before_u = u.clone();
        let out = sgd_step(&cfg, &mut u, &mut s, r, 0.5, 0.5);
        assert_eq!(out.sample_error, 0.0);
        // Only the tiny regularization pull remains.
        for (after, before) in u.iter().zip(&before_u) {
            let shrink = before - after;
            assert!(shrink.abs() <= cfg.learning_rate * cfg.lambda_user * before.abs() + 1e-12);
        }
    }

    #[test]
    fn zero_r_does_not_produce_nan() {
        let cfg = config();
        let mut u = vec![0.1; 10];
        let mut s = vec![0.1; 10];
        let out = sgd_step(&cfg, &mut u, &mut s, 0.0, 1.0, 1.0);
        assert!(out.sample_error.is_finite());
        assert!(u.iter().all(|v| v.is_finite()));
        assert!(s.iter().all(|v| v.is_finite()));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn random_factors(rng: &mut StdRng, dim: usize, magnitude: f64) -> Vec<f64> {
            (0..dim)
                .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * magnitude)
                .collect()
        }

        proptest! {
            #[test]
            fn step_is_always_finite_and_bounded(
                r in 0.0..1.0f64,
                log_mag in -6.0..2.0f64,
                e_user in 0.0..1.0f64,
                e_service in 0.0..1.0f64,
                seed in 0u64..1u64 << 32,
            ) {
                // Factor magnitudes up to 10² drive the inner product deep
                // into sigmoid saturation (g' underflows); magnitudes near
                // 10⁻⁶ exercise the regularization-only regime. In every
                // case the clamps must keep the update finite and each
                // component's move inside STEP_CLIP.
                for loss in [LossKind::Relative, LossKind::Squared] {
                    let mut cfg = config();
                    cfg.loss = loss;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let magnitude = 10f64.powf(log_mag);
                    let mut u = random_factors(&mut rng, cfg.dimension, magnitude);
                    let mut s = random_factors(&mut rng, cfg.dimension, magnitude);
                    let (before_u, before_s) = (u.clone(), s.clone());
                    let out = sgd_step(&cfg, &mut u, &mut s, r, e_user, e_service);
                    prop_assert!(out.g.is_finite());
                    prop_assert!(out.sample_error.is_finite());
                    prop_assert!(out.sample_error >= 0.0);
                    // Adaptive weights are a convex split of the step.
                    prop_assert!(out.w_user >= 0.0 && out.w_service >= 0.0);
                    prop_assert!((out.w_user + out.w_service - 1.0).abs() < 1e-12);
                    for k in 0..cfg.dimension {
                        prop_assert!(u[k].is_finite() && s[k].is_finite());
                        prop_assert!((u[k] - before_u[k]).abs() <= STEP_CLIP + 1e-15);
                        prop_assert!((s[k] - before_s[k]).abs() <= STEP_CLIP + 1e-15);
                    }
                }
            }

            #[test]
            fn fused_step_is_bitwise_identical_to_reference(
                samples in proptest::collection::vec(
                    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
                    1..40
                ),
                log_mag in -4.0..1.0f64,
                seed in 0u64..1u64 << 32,
            ) {
                // Chains of updates on the same pair, so any drift between
                // the fused kernel and the pre-fusion oracle compounds and
                // cannot hide. Exercises both losses and both weight modes.
                for (loss, adaptive) in [
                    (LossKind::Relative, true),
                    (LossKind::Relative, false),
                    (LossKind::Squared, true),
                ] {
                    let mut cfg = config();
                    cfg.loss = loss;
                    cfg.adaptive_weights = adaptive;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let magnitude = 10f64.powf(log_mag);
                    let mut u = random_factors(&mut rng, cfg.dimension, magnitude);
                    let mut s = random_factors(&mut rng, cfg.dimension, magnitude);
                    let mut u_ref = u.clone();
                    let mut s_ref = s.clone();
                    for &(r, e_user, e_service) in &samples {
                        let fused = sgd_step(&cfg, &mut u, &mut s, r, e_user, e_service);
                        let oracle = reference::sgd_step(
                            &cfg, &mut u_ref, &mut s_ref, r, e_user, e_service,
                        );
                        prop_assert_eq!(fused, oracle);
                        for k in 0..cfg.dimension {
                            prop_assert_eq!(u[k].to_bits(), u_ref[k].to_bits());
                            prop_assert_eq!(s[k].to_bits(), s_ref[k].to_bits());
                        }
                    }
                }
            }

            #[test]
            fn step_is_bitwise_identical_to_reference_across_dims(
                dim in 1usize..=24,
                samples in proptest::collection::vec(
                    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
                    1..32
                ),
                log_mag in -4.0..1.0f64,
                seed in 0u64..1u64 << 32,
            ) {
                // `sgd_step` at every dimension, the unrolled d = 10 form
                // and the any-d loop alike: chained updates must match the
                // pre-fusion reference bit for bit.
                for (loss, adaptive) in [
                    (LossKind::Relative, true),
                    (LossKind::Relative, false),
                    (LossKind::Squared, true),
                ] {
                    let mut cfg = config();
                    cfg.dimension = dim;
                    cfg.loss = loss;
                    cfg.adaptive_weights = adaptive;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let magnitude = 10f64.powf(log_mag);
                    let mut u = random_factors(&mut rng, dim, magnitude);
                    let mut s = random_factors(&mut rng, dim, magnitude);
                    let mut u_ref = u.clone();
                    let mut s_ref = s.clone();
                    for &(r, e_user, e_service) in &samples {
                        let step = sgd_step(&cfg, &mut u, &mut s, r, e_user, e_service);
                        let oracle = reference::sgd_step(
                            &cfg, &mut u_ref, &mut s_ref, r, e_user, e_service,
                        );
                        prop_assert_eq!(step, oracle);
                        for k in 0..dim {
                            prop_assert_eq!(u[k].to_bits(), u_ref[k].to_bits());
                            prop_assert_eq!(s[k].to_bits(), s_ref[k].to_bits());
                        }
                    }
                }
            }

            #[test]
            fn floor_region_never_blows_up(
                r in 0.0..NORMALIZED_FLOOR,
                seed in 0u64..1u64 << 32,
            ) {
                // Everything at or below NORMALIZED_FLOOR shares the floored
                // denominator: the error is |r − g|/FLOOR exactly, never inf.
                let cfg = config();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut u = random_factors(&mut rng, cfg.dimension, 0.3);
                let mut s = random_factors(&mut rng, cfg.dimension, 0.3);
                let out = sgd_step(&cfg, &mut u, &mut s, r, 1.0, 1.0);
                prop_assert!(out.sample_error.is_finite());
                prop_assert!(
                    (out.sample_error - (r - out.g).abs() / NORMALIZED_FLOOR).abs() < 1e-12
                );
                prop_assert!(u.iter().chain(s.iter()).all(|v| v.is_finite()));
            }

            #[test]
            fn saturated_sigmoid_still_updates_finitely(
                sign in proptest::bool::ANY,
                seed in 0u64..1u64 << 32,
            ) {
                // A pair frozen deep in saturation (|x| ≈ 400, g' == 0):
                // the update degenerates to pure regularization and stays
                // finite — no NaN from 0·inf, no runaway from 1/r².
                let cfg = config();
                let mut rng = StdRng::seed_from_u64(seed);
                let direction = if sign { 1.0 } else { -1.0 };
                let mut u = vec![direction * 20.0; cfg.dimension];
                let mut s: Vec<f64> =
                    (0..cfg.dimension).map(|_| 2.0 + rng.random::<f64>()).collect();
                let out = sgd_step(&cfg, &mut u, &mut s, 0.5, 1.0, 1.0);
                // Fully saturated: within an ulp of 1, or a denormal-scale
                // positive on the negative tail.
                prop_assert!(out.g < 1e-100 || out.g > 1.0 - 1e-12);
                prop_assert!(out.sample_error.is_finite());
                prop_assert!(u.iter().chain(s.iter()).all(|v| v.is_finite()));
            }
        }
    }
}
