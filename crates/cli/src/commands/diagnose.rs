//! `amf-qos diagnose` — health snapshot of a saved model.

use super::CliError;
use crate::args::Args;
use amf_core::{persistence, ModelDiagnostics};

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos diagnose --model MODEL [--threshold T] [--norm-limit N]";

/// Runs the subcommand: prints [`ModelDiagnostics`] plus a health verdict.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable/corrupt model files or bad flags.
pub fn run(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?.to_string();
    let threshold: f64 = args.parse_or(
        "threshold",
        amf_core::diagnostics::DEFAULT_CONVERGED_THRESHOLD,
    )?;
    let norm_limit: f64 = args.parse_or("norm-limit", 25.0)?;
    if threshold.is_nan() || threshold <= 0.0 || norm_limit.is_nan() || norm_limit <= 0.0 {
        return Err(CliError(
            "--threshold and --norm-limit must be positive".into(),
        ));
    }

    let model = persistence::load_file(&model_path)?;
    let diagnostics = ModelDiagnostics::with_threshold(&model, threshold);
    let verdict = if diagnostics.looks_healthy(norm_limit) {
        "HEALTHY"
    } else {
        "ATTENTION NEEDED"
    };
    Ok(format!(
        "model: {model_path}\nconfig: d={} alpha={} eta={} lambda={}\n{}\nverdict: {verdict} (norm limit {norm_limit})",
        model.config().dimension,
        model.config().alpha,
        model.config().learning_rate,
        model.config().lambda_user,
        diagnostics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::{AmfConfig, AmfModel};
    use std::path::Path;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn saved_model(dir: &Path, name: &str, updates: usize) -> String {
        let path = dir.join(name).to_string_lossy().into_owned();
        let mut model = AmfModel::new(AmfConfig::response_time()).unwrap();
        for k in 0..updates {
            model.observe(k % 3, k % 5, 1.0 + (k % 2) as f64);
        }
        persistence::save_file(&model, &path).unwrap();
        path
    }

    #[test]
    fn healthy_trained_model() {
        let dir = crate::test_dir("healthy_trained_model");
        let path = saved_model(&dir, "good.amf", 500);
        let out = run(&args(&["--model", &path])).unwrap();
        assert!(out.contains("HEALTHY"));
        assert!(out.contains("users: 3 registered"));
        assert!(out.contains("services: 5 registered"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_model_needs_attention() {
        let dir = crate::test_dir("empty_model_needs_attention");
        let path = saved_model(&dir, "empty.amf", 0);
        let out = run(&args(&["--model", &path])).unwrap();
        assert!(out.contains("ATTENTION NEEDED"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rejects_bad_flags_and_files() {
        let dir = crate::test_dir("rejects_bad_flags_and_files");
        assert!(run(&args(&["--model", "/nonexistent.amf"])).is_err());
        let path = saved_model(&dir, "x.amf", 10);
        assert!(run(&args(&["--model", &path, "--threshold", "-1"])).is_err());
        assert!(run(&args(&["--model", &path, "--norm-limit", "0"])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
