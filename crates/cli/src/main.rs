//! `amf-qos` — command-line interface to the AMF QoS-prediction
//! reproduction.
//!
//! ```text
//! amf-qos generate    synthesize a WS-DREAM-like dataset and export it
//! amf-qos train       train an AMF model from a triplet file
//! amf-qos predict     predict QoS values from a saved model
//! amf-qos evaluate    run the Table I accuracy protocol
//! amf-qos experiment  regenerate any paper artifact by id
//! amf-qos stats       dataset statistics (Fig. 6), synthetic or from file;
//!                     `--obs` emits an `amf-obs/v1` observability snapshot
//! amf-qos serve       run the hardened serving plane (observe/predict/rank
//!                     endpoint + /metrics, /healthz, /snapshot.json)
//! amf-qos loadtest    drive a live serve endpoint with a fault-injecting
//!                     load harness and emit an amf-bench-serve/v4 report
//! amf-qos scenario    closed-loop adaptation scenarios (adaptive vs static)
//!                     over seeded phase-regime worlds
//! amf-qos trace       summarize an amf-flight/v1 flight-recorder dump
//! amf-qos report      summarize a recorded telemetry log
//! ```
//!
//! Run `amf-qos <subcommand> --help` conceptually via the usage lines each
//! subcommand prints on bad input.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "amf-qos <subcommand> [flags]\n\
\n\
subcommands:\n  \
generate    synthesize a WS-DREAM-like dataset and export it\n  \
train       train an AMF model from a triplet file\n  \
predict     predict QoS values from a saved model\n  \
evaluate    run the Table I accuracy protocol on synthetic data\n  \
experiment  regenerate a paper artifact (fig2..fig14, table1, ablations)\n  \
stats       dataset statistics (Fig. 6); --obs for a runtime metrics snapshot\n  \
diagnose    health snapshot of a saved model\n  \
serve       run the hardened serving plane (predict/observe/rank + metrics)\n  \
loadtest    fault-injecting load harness against a live serve endpoint\n  \
scenario    closed-loop adaptation scenarios, amf-scenario/v1 reports\n  \
trace       summarize an amf-flight/v1 flight-recorder dump\n  \
report      summarize an amf-obs-ts/v1 telemetry JSONL log\n\
\n\
run a subcommand without flags to see its usage";

/// Dispatches one parsed command line; exposed for the integration tests.
/// A flag the subcommand's usage line does not name is an error.
fn dispatch(args: &Args) -> Result<String, commands::CliError> {
    type Run = fn(&Args) -> Result<String, commands::CliError>;
    use commands::*;
    let (run, usage): (Run, &str) = match args.positional(0) {
        Some("generate") => (generate::run, generate::USAGE),
        Some("train") => (train::run, train::USAGE),
        Some("predict") => (predict::run, predict::USAGE),
        Some("evaluate") => (evaluate::run, evaluate::USAGE),
        Some("experiment") => (experiment::run, experiment::USAGE),
        Some("stats") => (stats::run, stats::USAGE),
        Some("diagnose") => (diagnose::run, diagnose::USAGE),
        Some("serve") => (serve::run, serve::USAGE),
        Some("loadtest") => (loadtest::run, loadtest::USAGE),
        Some("scenario") => (scenario::run, scenario::USAGE),
        Some("trace") => (trace::run, trace::USAGE),
        Some("report") => (report::run, report::USAGE),
        Some(other) => return Err(CliError(format!("unknown subcommand '{other}'\n\n{USAGE}"))),
        None => return Err(CliError(USAGE.to_string())),
    };
    args.reject_unknown(usage)
        .map_err(CliError::from)
        .and_then(|()| run(args))
        .map_err(|e| usage_hint(e, usage))
}

fn usage_hint(e: commands::CliError, usage: &str) -> commands::CliError {
    if e.0.contains("usage:") {
        e
    } else {
        commands::CliError(format!("{e}\nusage: {usage}"))
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match dispatch(&parsed) {
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// An empty directory of one test's own, `<temp>/amf_cli_<test>_<pid>`, so
/// neither other tests of this run nor a second test run on the same host
/// touch its files.
#[cfg(test)]
fn test_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amf_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's temp dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn no_subcommand_prints_usage() {
        let err = dispatch(&parse(&[])).unwrap_err();
        assert!(err.to_string().contains("subcommands"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let err = dispatch(&parse(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn subcommand_errors_carry_usage() {
        let err = dispatch(&parse(&["train"])).unwrap_err();
        assert!(err.to_string().contains("--data"));
        assert!(err.to_string().contains("usage:"));
    }

    #[test]
    fn unknown_flags_fail_naming_the_flag() {
        // `--consistency` and `--shards` selected the removed relaxed lane;
        // accepting them now would quietly train sequentially instead.
        // `--guard` switched screening on; `train` now always screens.
        for extra in [
            &["--consistency", "relaxed"][..],
            &["--shards", "4"],
            &["--max-replay", "9"],
            &["--guard"],
        ] {
            let flag = extra[0];
            let mut tokens = vec!["train", "--data", "d.txt", "--out", "m.amf"];
            tokens.extend_from_slice(extra);
            let err = dispatch(&parse(&tokens)).unwrap_err();
            assert!(
                err.0.starts_with(&format!("unknown flag {flag}\n")),
                "{}",
                err.0
            );
            assert!(err.0.contains("usage: amf-qos train"), "{}", err.0);
        }
        // `serve --metrics-addr` was an alias of `--listen`; `loadtest
        // --conns` set the keep-alive worker count, which `--concurrency`
        // now sets for every pass.
        for (command, flag, value) in [
            ("serve", "--metrics-addr", "127.0.0.1:0"),
            ("loadtest", "--conns", "4"),
        ] {
            let err = dispatch(&parse(&[command, flag, value])).unwrap_err();
            assert!(
                err.0.starts_with(&format!("unknown flag {flag}\n")),
                "{}",
                err.0
            );
            assert!(
                err.0.contains(&format!("usage: amf-qos {command}")),
                "{}",
                err.0
            );
        }
        let err = dispatch(&parse(&["stats", "--verbose"])).unwrap_err();
        assert!(err.0.contains("unknown flag --verbose"), "{}", err.0);
    }

    #[test]
    fn stats_roundtrip_through_dispatch() {
        let out = dispatch(&parse(&["stats"])).unwrap();
        assert!(out.contains("#Users"));
    }

    #[test]
    fn generate_then_train_then_predict() {
        let dir = test_dir("generate_then_train_then_predict");
        let data = dir.join("d.txt").to_string_lossy().into_owned();
        let model = dir.join("m.amf").to_string_lossy().into_owned();

        let out = dispatch(&parse(&[
            "generate",
            "--out",
            &data,
            "--users",
            "8",
            "--services",
            "12",
            "--slices",
            "2",
            "--format",
            "triplets",
            "--density",
            "0.5",
        ]))
        .unwrap();
        assert!(out.contains("48"));

        let out = dispatch(&parse(&[
            "train",
            "--data",
            &data,
            "--out",
            &model,
            "--max-replays",
            "3000",
        ]))
        .unwrap();
        assert!(out.contains("model saved"));

        let out = dispatch(&parse(&[
            "predict",
            "--model",
            &model,
            "--user",
            "0",
            "--service",
            "0",
        ]))
        .unwrap();
        let value: f64 = out.trim().parse().unwrap();
        assert!((0.0..=20.0).contains(&value));

        std::fs::remove_dir_all(dir).unwrap();
    }
}
