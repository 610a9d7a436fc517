//! `amf-qos experiment` — regenerate any paper artifact by id.

use super::{parse_scale, CliError};
use crate::args::Args;
use qos_eval::experiments;

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos experiment <id> [--scale small|medium|full]\n\
ids: fig2 fig6 fig7-8 fig9 table1 fig10 fig11 fig12 fig13 fig14 \
ablation-weights ablation-loss ablation-alpha ablation-sampling over-time adaptation";

/// All experiment ids, for help output and tests.
#[allow(dead_code)] // exercised by tests; single source of truth for the id list
pub const IDS: [&str; 16] = [
    "fig2",
    "fig6",
    "fig7-8",
    "fig9",
    "table1",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation-weights",
    "ablation-loss",
    "ablation-alpha",
    "over-time",
    "ablation-sampling",
    "adaptation",
];

/// Runs the subcommand: the artifact text for the given experiment id.
///
/// # Errors
///
/// Returns [`CliError`] for an unknown id or missing positional argument.
pub fn run(args: &Args) -> Result<String, CliError> {
    let id = args
        .positional(1)
        .ok_or_else(|| CliError(format!("missing experiment id\nusage: {USAGE}")))?;
    let scale = parse_scale(args)?;
    let artifact = match id {
        "fig2" => experiments::fig2::run(&scale).render(),
        "fig6" => experiments::fig6::run(&scale).to_table(),
        "fig7-8" => experiments::fig7_8::run(&scale).render(),
        "fig9" => experiments::fig9::run(&scale).render(),
        "table1" => experiments::table1::run(&scale).render(),
        "fig10" => experiments::fig10::run(&scale).render(),
        "fig11" => experiments::fig11::run(&scale).render(),
        "fig12" => experiments::fig12::run(&scale).render(),
        "fig13" => experiments::fig13::run(&scale).render(),
        "fig14" => experiments::fig14::run(&scale).render(),
        "ablation-weights" => experiments::ablation::run_weights(&scale).render(),
        "ablation-loss" => experiments::ablation::run_loss(&scale).render(),
        "ablation-alpha" => experiments::ablation::run_alpha(&scale).render(),
        "over-time" => experiments::over_time::run(&scale).render(),
        "ablation-sampling" => experiments::ablation::run_sampling(&scale).render(),
        "adaptation" => experiments::adaptation::run(&scale).render(),
        other => {
            return Err(CliError(format!(
                "unknown experiment '{other}'\nusage: {USAGE}"
            )))
        }
    };
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn quick_experiments_run_at_small_scale() {
        // Only the cheap data-shape experiments in unit tests; the heavy
        // accuracy ones are exercised by their own modules and the benches.
        for id in ["fig2", "fig6", "fig7-8", "fig9"] {
            let out = run(&args(&["experiment", id])).unwrap();
            assert!(!out.is_empty(), "{id} produced empty artifact");
        }
    }

    #[test]
    fn small_simulation_runs() {
        let out = run(&args(&["experiment", "adaptation"])).unwrap();
        assert!(out.contains("static"));
        assert!(out.contains("threshold"));
        assert!(out.contains("best-predicted"));
        assert!(out.contains("improves steady-state RT"));
    }

    #[test]
    fn unknown_id_lists_usage() {
        let err = run(&args(&["experiment", "fig99"])).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
        assert!(err.to_string().contains("table1"));
    }

    #[test]
    fn missing_id_is_an_error() {
        assert!(run(&args(&["experiment"])).is_err());
    }

    #[test]
    fn id_list_matches_dispatch() {
        // Every advertised id must dispatch (don't run the heavy ones; just
        // check they aren't "unknown").
        for id in IDS {
            let err_text = run(&args(&["experiment", id, "--scale", "bogus"]))
                .unwrap_err()
                .to_string();
            assert!(
                err_text.contains("unknown scale"),
                "id {id} failed before scale parsing: {err_text}"
            );
        }
    }
}
