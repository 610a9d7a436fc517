//! Golden-trace conformance: a fixed seeded stream through the full hot
//! pipeline — guard → batched ingestion → predictions — must reproduce a
//! committed fixture to 1e-12.
//!
//! The parity suite already pins *internal* consistency (batched ==
//! sequential). This suite pins *external* behavior
//! across time: if any change to the transform, the SGD step, the adaptive
//! weights, the guard's admission rules, or the batch path's ordering shifts a
//! prediction or a final EMA by more than 1e-12, the fixture diff says so —
//! and says exactly which value moved. Observability instrumentation in
//! particular must never perturb the numerics; this test is the proof.
//!
//! Regenerating after an *intentional* numeric change:
//!
//! ```text
//! GOLDEN_TRACE_REGEN=1 cargo test -p qos-eval --test golden_trace
//! ```
//!
//! then commit the updated `tests/fixtures/golden_trace.txt` and explain the
//! shift in the PR description.

mod support;

use amf_core::{AmfConfig, AmfModel, GuardConfig, GuardStats, SampleGuard};
use std::fmt::Write as _;
use std::path::PathBuf;

const USERS: usize = 12;
const SERVICES: usize = 20;
const SAMPLES: usize = 2_000;
const SEED: u64 = 0x5EED_600D;
const TOLERANCE: f64 = 1e-12;

/// Probe grid: every pair in the upper-left corner of the matrix.
const PROBE_USERS: usize = 6;
const PROBE_SERVICES: usize = 8;

fn fixture_path() -> PathBuf {
    // The test is registered from crates/eval, so the manifest dir is two
    // levels below the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_trace.txt")
}

/// Deterministic raw stream. ~5% of the samples are deliberately invalid
/// (NaN, negative, absurdly large) so the guard's admission decisions are
/// part of the pinned behavior, not just the model arithmetic.
fn raw_stream() -> Vec<(usize, usize, f64)> {
    let mut state = SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    (0..SAMPLES)
        .map(|_| {
            let user = next() as usize % USERS;
            let service = next() as usize % SERVICES;
            let roll = next() % 100;
            let value = if roll < 2 {
                f64::NAN
            } else if roll < 4 {
                -0.5
            } else if roll < 5 {
                1.0e9
            } else {
                0.05 + (next() % 17_950) as f64 / 1_000.0
            };
            (user, service, value)
        })
        .collect()
}

/// Screens the raw stream through the guard: the admitted samples, plus the
/// guard's verdict tallies.
fn admitted_stream(config: &AmfConfig) -> (Vec<(usize, usize, f64)>, GuardStats) {
    let mut guard = SampleGuard::new(GuardConfig {
        outlier_gate: false,
        ..GuardConfig::for_amf(config)
    });
    let admitted = raw_stream()
        .into_iter()
        .filter(|&(user, service, value)| guard.admit(user, service, value).is_ok())
        .collect();
    (admitted, guard.stats())
}

/// The pipeline's model: the admitted stream through
/// `AmfTrainer::feed_batch` in 256-sample batches, the serving plane's
/// batch size.
fn batched_model(config: AmfConfig, admitted: &[(usize, usize, f64)]) -> AmfModel {
    support::batched_trainer(config, admitted, 256)
        .model()
        .clone()
}

/// Runs the pipeline and renders the canonical trace document: admission
/// tallies, probe-grid predictions, and the final per-entity EMA errors.
/// Floats are printed with 17 significant digits — enough to round-trip an
/// f64 exactly, so the committed fixture *is* the bit pattern.
fn render_trace() -> String {
    let config = AmfConfig::response_time();
    let (admitted, stats) = admitted_stream(&config);
    let model = batched_model(config, &admitted);

    let mut out = String::new();
    let _ = writeln!(out, "golden-trace/v1");
    let _ = writeln!(
        out,
        "stream users={USERS} services={SERVICES} samples={SAMPLES} seed={SEED:#x}"
    );
    let _ = writeln!(
        out,
        "guard accepted={} rejected={}",
        stats.accepted,
        stats.rejected()
    );
    let _ = writeln!(out, "updates {}", model.update_count());
    for user in 0..PROBE_USERS {
        for service in 0..PROBE_SERVICES {
            let p = model.predict(user, service).expect("probe pair is known");
            let _ = writeln!(out, "predict {user} {service} {p:.17e}");
        }
    }
    for user in 0..USERS {
        let e = model.user_error(user).expect("user is known");
        let _ = writeln!(out, "e_u {user} {e:.17e}");
    }
    for service in 0..SERVICES {
        let e = model.service_error(service).expect("service is known");
        let _ = writeln!(out, "e_s {service} {e:.17e}");
    }
    // Streaming-accuracy telemetry is part of the pinned surface: the
    // windowed MRE/NMAE over the last ACCURACY_WINDOW admitted samples, and
    // the drift sentinel's alarm counts — which must stay at zero on this
    // stationary stream (a nonzero count here is a false alarm by
    // construction). `engine_telemetry_matches_sequential_oracle` ties
    // these lines to the sequential model, not just to the fixture.
    let accuracy = model.windowed_accuracy();
    let _ = writeln!(
        out,
        "mre {:.17e}",
        accuracy.mre.expect("window is non-empty")
    );
    let _ = writeln!(
        out,
        "nmae {:.17e}",
        accuracy.nmae.expect("window is non-empty")
    );
    let (alarms_user, alarms_service) = model.drift_sentinel().alarms();
    let _ = writeln!(
        out,
        "drift alarms user={alarms_user} service={alarms_service}"
    );
    out
}

/// Parses `name idx... value` float lines into `(label, value)` pairs and
/// passes exact lines (headers, counts) through as `(line, NaN)` markers.
fn parse(doc: &str) -> Vec<(String, Option<f64>)> {
    doc.lines()
        .map(|line| {
            let mut parts = line.rsplitn(2, ' ');
            let last = parts.next().unwrap_or("");
            if matches!(
                line.split(' ').next(),
                Some("predict" | "e_u" | "e_s" | "mre" | "nmae")
            ) {
                let label = parts.next().unwrap_or("").to_string();
                (label, last.parse::<f64>().ok())
            } else {
                (line.to_string(), None)
            }
        })
        .collect()
}

#[test]
fn pipeline_matches_committed_fixture() {
    let rendered = render_trace();
    let path = fixture_path();

    if std::env::var_os("GOLDEN_TRACE_REGEN").is_some() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("golden_trace: fixture regenerated at {}", path.display());
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             GOLDEN_TRACE_REGEN=1 cargo test -p qos-eval --test golden_trace",
            path.display()
        )
    });

    let want = parse(&committed);
    let got = parse(&rendered);
    assert_eq!(
        want.len(),
        got.len(),
        "fixture has {} lines, run produced {}",
        want.len(),
        got.len()
    );
    for ((want_label, want_value), (got_label, got_value)) in want.iter().zip(&got) {
        assert_eq!(want_label, got_label, "trace line order changed");
        match (want_value, got_value) {
            (None, None) => {}
            (Some(w), Some(g)) => {
                assert!(
                    (w - g).abs() <= TOLERANCE,
                    "{want_label}: fixture {w:.17e} vs run {g:.17e} \
                     (|diff| = {:.3e} > {TOLERANCE:.0e})",
                    (w - g).abs()
                );
            }
            _ => panic!("{want_label}: line shape changed between fixture and run"),
        }
    }
}

#[test]
fn trace_is_reproducible_within_process() {
    // Two runs in the same process must agree bit-for-bit — this separates
    // "the fixture drifted" (cross-version change) from "the pipeline is
    // nondeterministic" (a real ordering bug) when the conformance test
    // fails.
    assert_eq!(render_trace(), render_trace());
}

#[test]
fn engine_telemetry_matches_sequential_oracle() {
    // The fixture's `mre`, `nmae` and `drift alarms` lines must be the
    // sequential model's own values for the same admitted stream — checked
    // here in-process, so a fixture regeneration cannot paper over a
    // batch path whose telemetry drifts from the oracle.
    let config = AmfConfig::response_time();
    let (admitted, _) = admitted_stream(&config);
    let batched = batched_model(config, &admitted);
    let mut oracle = AmfModel::new(config).expect("valid config");
    for &(user, service, value) in &admitted {
        oracle.observe(user, service, value);
    }
    let (got, want) = (batched.windowed_accuracy(), oracle.windowed_accuracy());
    assert_eq!(got.mre, want.mre, "windowed MRE");
    assert_eq!(got.nmae, want.nmae, "windowed NMAE");
    assert_eq!(
        batched.drift_sentinel().alarms(),
        oracle.drift_sentinel().alarms(),
        "drift alarm counts"
    );
}
