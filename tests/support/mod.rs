//! Shared test support for the ingestion integration suites: a fixed-seed
//! QoS stream generator, so `engine_parity` and `engine_churn` drive the
//! exact same workload shape, batch-feeding helpers, and model-comparison
//! helpers.

use amf_core::{AmfModel, AmfTrainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// User-id universe (`0..users`).
    pub users: usize,
    /// Service-id universe (`0..services`).
    pub services: usize,
    /// Number of samples.
    pub samples: usize,
    /// RNG seed; equal specs yield identical streams.
    pub seed: u64,
}

impl StreamSpec {
    /// The spec both engine suites default to.
    #[allow(dead_code)] // each integration target compiles its own copy
    pub fn default_parity() -> Self {
        Self {
            users: 25,
            services: 70,
            samples: 8_000,
            seed: 0xA3F0_51DE,
        }
    }
}

/// Deterministic `(user, service, raw QoS)` stream: uniformly random pairs
/// with response-time-like values in `(0.05, 18.0)` seconds.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn qos_stream(spec: StreamSpec) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.samples)
        .map(|_| {
            let user = rng.random_range(0..spec.users);
            let service = rng.random_range(0..spec.services);
            let value = 0.05 + rng.random::<f64>() * 17.95;
            (user, service, value)
        })
        .collect()
}

/// Feeds the stream to a fresh sequential model — the reference batched
/// ingestion must match.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn sequential_reference(
    config: amf_core::AmfConfig,
    stream: &[(usize, usize, f64)],
) -> AmfModel {
    let mut model = AmfModel::new(config).expect("valid config");
    for &(u, s, v) in stream {
        model.observe(u, s, v);
    }
    model
}

/// Feeds `stream` to `trainer` through `AmfTrainer::feed_batch` in calls
/// of `batch` samples, stamping sample `k` with timestamp `k`. Returns the
/// number of samples fed.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn feed_in_batches(
    trainer: &mut AmfTrainer,
    stream: &[(usize, usize, f64)],
    batch: usize,
) -> usize {
    stream
        .chunks(batch)
        .enumerate()
        .map(|(c, chunk)| {
            trainer.feed_batch(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &(u, s, v))| (u, s, (c * batch + i) as u64, v)),
            )
        })
        .sum()
}

/// A fresh trainer fed `stream` by [`feed_in_batches`].
#[allow(dead_code)] // each integration target compiles its own copy
pub fn batched_trainer(
    config: amf_core::AmfConfig,
    stream: &[(usize, usize, f64)],
    batch: usize,
) -> AmfTrainer {
    let mut trainer = AmfTrainer::new(config).expect("valid config");
    assert_eq!(feed_in_batches(&mut trainer, stream, batch), stream.len());
    trainer
}

/// Deterministic *learnable* stream: the value of a pair is a fixed function
/// of `(user, service)`, so a trained model's accuracy against
/// [`planted_truth`] is measurable with [`model_mae`].
#[allow(dead_code)] // each integration target compiles its own copy
pub fn planted_stream(spec: StreamSpec) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.samples)
        .map(|_| {
            let user = rng.random_range(0..spec.users);
            let service = rng.random_range(0..spec.services);
            (user, service, planted_truth(user, service))
        })
        .collect()
}

/// Ground-truth QoS of a pair in [`planted_stream`]: response-time-like
/// values in roughly (0.4, 4.0) seconds.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn planted_truth(user: usize, service: usize) -> f64 {
    0.4 + ((user * 13 + service * 7) % 11) as f64 * 0.33
}

/// Mean absolute error of a model's predictions against [`planted_truth`]
/// over the full `users x services` grid.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn model_mae(model: &AmfModel, users: usize, services: usize) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for u in 0..users {
        for s in 0..services {
            if let Some(p) = model.predict(u, s) {
                total += (p - planted_truth(u, s)).abs();
                n += 1;
            }
        }
    }
    assert!(n > 0, "no predictable pairs");
    total / n as f64
}

/// Splices garbage samples (NaN, negative, absurdly large) into a stream at
/// a deterministic `rate`, returning the dirty stream and the number of
/// garbage samples inserted. Clean samples keep their relative order.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn inject_garbage(
    stream: &[(usize, usize, f64)],
    rate: f64,
    seed: u64,
) -> (Vec<(usize, usize, f64)>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dirty = Vec::with_capacity(stream.len());
    let mut injected = 0usize;
    for &(u, s, v) in stream {
        if rng.random::<f64>() < rate {
            let garbage = match injected % 3 {
                0 => f64::NAN,
                1 => -1.5,
                _ => 1.0e7,
            };
            dirty.push((u, s, garbage));
            injected += 1;
        }
        dirty.push((u, s, v));
    }
    (dirty, injected)
}

/// Bitwise equality of two models' entire entity state, through the public
/// API. Returns a description of the first mismatch, if any.
#[allow(dead_code)] // each integration target compiles its own copy
pub fn factor_mismatch(a: &AmfModel, b: &AmfModel) -> Option<String> {
    if a.num_users() != b.num_users() || a.num_services() != b.num_services() {
        return Some(format!(
            "shape: {}x{} vs {}x{}",
            a.num_users(),
            a.num_services(),
            b.num_users(),
            b.num_services()
        ));
    }
    for u in 0..a.num_users() {
        if a.user_factors(u) != b.user_factors(u) {
            return Some(format!("user {u} factors differ"));
        }
        if a.user_error(u) != b.user_error(u) {
            return Some(format!("user {u} tracker differs"));
        }
    }
    for s in 0..a.num_services() {
        if a.service_factors(s) != b.service_factors(s) {
            return Some(format!("service {s} factors differ"));
        }
        if a.service_error(s) != b.service_error(s) {
            return Some(format!("service {s} tracker differs"));
        }
    }
    None
}
