//! `amf-qos scenario` — closed-loop adaptation scenarios (adaptive vs
//! static) over seeded phase-regime worlds.

use super::CliError;
use crate::args::Args;
use qos_service::{catalog, find_scenario, report_json, ScenarioConfig, ScenarioEngine};

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos scenario <run|list> [--name NAME|all] [--seed S] \
[--quick] [--slo SECONDS] [--out FILE] [--flight-dir DIR]";

/// Runs the subcommand.
///
/// `scenario list` prints the catalog. `scenario run` drives the named
/// scenario (or every scenario with `--name all`, the default) through the
/// MAPE-K adaptation loop *and* a static-selection baseline over the same
/// seeded world, then emits the `amf-scenario/v1` report — to stdout, or to
/// `--out FILE`. `--quick` shrinks every phase for smoke runs. The report is
/// a pure function of the seed: rerunning with the same flags reproduces it
/// byte for byte.
///
/// # Errors
///
/// Returns [`CliError`] for unknown scenario names, invalid flags, or an
/// unwritable `--out` path.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.positional(1) {
        Some("list") => Ok(list()),
        Some("run") => run_scenarios(args),
        Some(other) => Err(CliError(format!("unknown scenario action '{other}'"))),
        None => Err(CliError("missing action (run or list)".into())),
    }
}

fn list() -> String {
    let mut out = String::from("available scenarios (quick ticks / full ticks):\n");
    let quick = catalog(true);
    for (spec, full) in quick.iter().zip(catalog(false)) {
        let ticks = |s: &qos_service::ScenarioSpec| s.spans.iter().map(|&(_, t)| t).sum::<u32>();
        out.push_str(&format!(
            "  {:16} {:>4} / {:<4} {}\n",
            spec.name,
            ticks(spec),
            ticks(&full),
            spec.summary
        ));
    }
    out.push_str("run one with: amf-qos scenario run --name NAME (or --name all)");
    out
}

fn run_scenarios(args: &Args) -> Result<String, CliError> {
    let quick = args.switch("quick");
    let seed: u64 = args.parse_or("seed", 42u64)?;
    let slo: f64 = args.parse_or("slo", 2.5f64)?;
    let config = ScenarioConfig {
        seed,
        slo,
        ..Default::default()
    };
    let mut engine = ScenarioEngine::new(config).map_err(|e| CliError(e.to_string()))?;
    if let Some(dir) = args.get("flight-dir") {
        // One amf-flight/v1 dump per scenario (<dir>/<name>.flight.jsonl),
        // readable with `amf-qos trace`.
        std::fs::create_dir_all(dir)?;
        engine = engine.with_flight_dir(dir.into());
    }

    let name = args.get_or("name", "all");
    let specs = if name == "all" {
        catalog(quick)
    } else {
        vec![find_scenario(name, quick).map_err(|e| CliError(e.to_string()))?]
    };
    let outcomes = engine
        .run_all(&specs)
        .map_err(|e| CliError(e.to_string()))?;
    let report = report_json(engine.config(), quick, &outcomes);
    let text = report.to_string_pretty();

    match args.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{text}\n"))?;
            let wins = outcomes
                .iter()
                .filter(|o| o.adaptation_gain() > 0.0)
                .count();
            Ok(format!(
                "ran {} scenario(s) (seed {seed}{}): adaptive strictly better in {wins}, \
                 report written to {path}",
                outcomes.len(),
                if quick { ", quick" } else { "" },
            ))
        }
        None => Ok(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_obs::Json;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn list_names_every_scenario() {
        let out = run(&args(&["scenario", "list"])).unwrap();
        for spec in catalog(true) {
            assert!(out.contains(spec.name), "missing {}", spec.name);
        }
    }

    #[test]
    fn rejects_bad_action_and_name() {
        assert!(run(&args(&["scenario"])).is_err());
        assert!(run(&args(&["scenario", "destroy"])).is_err());
        let err = run(&args(&["scenario", "run", "--name", "nope", "--quick"])).unwrap_err();
        assert!(err.0.contains("unknown scenario"), "{}", err.0);
    }

    #[test]
    fn quick_run_emits_schema_valid_report() {
        let out = run(&args(&[
            "scenario", "run", "--name", "good", "--quick", "--seed", "7",
        ]))
        .unwrap();
        let parsed = Json::parse(&out).unwrap();
        match parsed {
            Json::Obj(map) => {
                assert_eq!(
                    map.get("schema"),
                    Some(&Json::Str("amf-scenario/v1".to_string()))
                );
                assert_eq!(map.get("seed"), Some(&Json::UInt(7)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn out_flag_writes_file_and_summarizes() {
        let dir = crate::test_dir("out_flag_writes_file_and_summarizes");
        let path = dir.join("report.json").to_string_lossy().into_owned();
        let summary = run(&args(&[
            "scenario", "run", "--name", "good", "--quick", "--out", &path,
        ]))
        .unwrap();
        assert!(summary.contains("report written"), "{summary}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
