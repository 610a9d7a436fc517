//! `amf-qos train` — screen a triplet file, train an AMF model on the
//! admitted samples, and save it.

use super::{amf_config_from, parse_attribute, CliError};
use crate::args::Args;
use amf_core::{persistence, AmfTrainer, FaultContext, FaultPlan, QuarantineDiagnostics};
use qos_dataset::io;

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos train --data TRIPLETS --out MODEL [--attr rt|tp] \
[--alpha A] [--lambda L] [--beta B] [--eta E] [--dim D] [--seed S] [--max-replays N] \
[--fault-plan SPEC]";

/// Runs the subcommand.
///
/// The stream is screened by the one rule every ingestion path applies
/// ([`amf_core::SampleGuard`]: NaN/∞, non-positive and out-of-range values
/// against the model's range are quarantined), fed in order on the calling
/// thread ([`AmfTrainer::feed_batch`]), then replayed to convergence; the
/// summary ends with the screening report ([`QuarantineDiagnostics`]).
/// `--fault-plan` parses a deterministic fault script
/// (`seed=N;drop=P;dup=P;reorder=N` — entries split on `;` or `,`) and
/// applies its stream mutations to the input. The network verbs
/// (`conn-reset`, `slow-read`, `blackhole`) are *rejected* here: they only
/// fire in `amf-qos loadtest`'s client-side fault injection against a live
/// `amf-qos serve` endpoint, and silently accepting them would make a
/// training run look fault-hardened when nothing was injected. The removed
/// worker verbs `kill` and `stall` are rejected by name.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable data, invalid flags, or save failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let data_path = args.require("data")?.to_string();
    let out = args.require("out")?.to_string();
    let attr = parse_attribute(args)?;
    let config = amf_config_from(args, attr)?;
    let max_replays: usize = args.parse_or("max-replays", 0usize)?;
    let fault_plan = match args.get("fault-plan") {
        Some(spec) => Some(
            FaultPlan::parse_in(spec, FaultContext::Training)
                .map_err(|e| CliError(format!("--fault-plan: {e}")))?,
        ),
        None => None,
    };

    let samples = io::read_triplets(std::fs::File::open(&data_path)?)?;
    if samples.is_empty() {
        return Err(CliError(format!("{data_path}: no samples")));
    }

    let mut stream: Vec<(usize, usize, u64, f64)> = samples
        .iter()
        .map(|s| (s.user, s.service, s.timestamp, s.value))
        .collect();
    let mut notes = String::new();
    if let Some(plan) = &fault_plan {
        let before = stream.len();
        stream = plan.mutate_stream(&stream);
        notes.push_str(&format!(
            "\nfault plan: stream mutated {before} -> {} samples",
            stream.len()
        ));
    }
    let quarantine = QuarantineDiagnostics::screen(&config, &mut stream);
    if stream.is_empty() {
        return Err(CliError(format!(
            "{data_path}: no samples survived screening/faults"
        )));
    }

    let mut trainer = AmfTrainer::new(config)?;
    trainer.feed_batch(stream.iter().copied());
    let mut options = qos_eval::methods::replay_options_for(stream.len());
    if max_replays > 0 {
        options.max_iterations = max_replays;
        options.min_iterations = options.min_iterations.min(max_replays);
    }
    let report = trainer.replay_until_converged(options);

    persistence::save_file(trainer.model(), &out)?;
    Ok(format!(
        "trained on {} samples ({} users, {} services): {} replays in {:.2?} \
         (converged: {}), model saved to {out}{notes}\n{}",
        stream.len(),
        trainer.model().num_users(),
        trainer.model().num_services(),
        report.iterations,
        report.elapsed,
        report.converged,
        quarantine.to_string().trim_end()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_dataset::stream::QosSample;
    use std::path::Path;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_path(dir: &Path, name: &str) -> String {
        dir.join(name).to_string_lossy().into_owned()
    }

    fn write_samples(path: &str, n: usize) {
        let samples: Vec<QosSample> = (0..n)
            .map(|k| QosSample::new(k as u64 % 900, k % 5, k % 8, 0.5 + (k % 4) as f64))
            .collect();
        io::write_triplets(&samples, std::fs::File::create(path).unwrap()).unwrap();
    }

    #[test]
    fn trains_and_saves_model() {
        let dir = crate::test_dir("trains_and_saves_model");
        let data = temp_path(&dir, "data.txt");
        let model = temp_path(&dir, "model.amf");
        write_samples(&data, 60);
        let summary = run(&args(&[
            "--data",
            &data,
            "--out",
            &model,
            "--max-replays",
            "5000",
        ]))
        .unwrap();
        assert!(summary.contains("trained on 60 samples"));
        assert!(summary.contains("5 users"));
        let restored = persistence::load_file(&model).unwrap();
        assert_eq!(restored.num_users(), 5);
        assert_eq!(restored.num_services(), 8);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rejects_missing_data_file() {
        let err = run(&args(&[
            "--data",
            "/nonexistent/x.txt",
            "--out",
            "/tmp/y.amf",
        ]));
        assert!(err.is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let dir = crate::test_dir("rejects_empty_data");
        let data = temp_path(&dir, "empty.txt");
        std::fs::write(&data, "").unwrap();
        let model = temp_path(&dir, "never.amf");
        assert!(run(&args(&["--data", &data, "--out", &model])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn guard_quarantines_garbage_and_reports() {
        // No flag: `train` screens every stream.
        let dir = crate::test_dir("guard_quarantines_garbage_and_reports");
        let data = temp_path(&dir, "garbage.txt");
        let model = temp_path(&dir, "garbage.amf");
        // Mix clean samples with out-of-range garbage (writable as triplets,
        // unlike NaN).
        let samples: Vec<QosSample> = (0..40)
            .map(|k| {
                let v = if k % 10 == 3 {
                    -4.0
                } else {
                    1.0 + (k % 3) as f64
                };
                QosSample::new(k as u64, k % 4, k % 6, v)
            })
            .collect();
        io::write_triplets(&samples, std::fs::File::create(&data).unwrap()).unwrap();
        let summary = run(&args(&[
            "--data",
            &data,
            "--out",
            &model,
            "--max-replays",
            "500",
        ]))
        .unwrap();
        assert!(summary.contains("trained on 36 samples"), "{summary}");
        assert!(summary.contains("4 rejected"), "{summary}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fault_plan_kill_is_rejected_naming_the_verb() {
        let dir = crate::test_dir("fault_plan_kill_is_rejected_naming_the_verb");
        // No worker thread exists to kill or stall: the verbs are gone, and
        // a spec that still uses them fails instead of training unfaulted.
        let data = temp_path(&dir, "data11.txt");
        write_samples(&data, 20);
        for (spec, verb) in [("seed=7;kill=0@0", "kill"), ("stall=0@1:5", "stall")] {
            let err = run(&args(&[
                "--data",
                &data,
                "--out",
                &temp_path(&dir, "never6.amf"),
                "--fault-plan",
                spec,
            ]))
            .unwrap_err();
            assert!(err.0.contains("--fault-plan"), "{}", err.0);
            assert!(err.0.contains(&format!("'{verb}'")), "{}", err.0);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fault_plan_drop_shrinks_stream() {
        let dir = crate::test_dir("fault_plan_drop_shrinks_stream");
        let data = temp_path(&dir, "data6.txt");
        let model = temp_path(&dir, "model6.amf");
        write_samples(&data, 100);
        let summary = run(&args(&[
            "--data",
            &data,
            "--out",
            &model,
            "--max-replays",
            "500",
            "--fault-plan",
            "seed=1;drop=0.5",
        ]))
        .unwrap();
        assert!(summary.contains("stream mutated 100 ->"), "{summary}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rejects_network_fault_verbs() {
        let dir = crate::test_dir("rejects_network_fault_verbs");
        let data = temp_path(&dir, "data10.txt");
        write_samples(&data, 10);
        let err = run(&args(&[
            "--data",
            &data,
            "--out",
            &temp_path(&dir, "never5.amf"),
            "--fault-plan",
            "seed=1;drop=0.1;conn-reset=0.05",
        ]))
        .unwrap_err();
        assert!(err.0.contains("conn-reset"), "{}", err.0);
        assert!(err.0.contains("inert in the train context"), "{}", err.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rejects_malformed_fault_plan() {
        let dir = crate::test_dir("rejects_malformed_fault_plan");
        let data = temp_path(&dir, "data7.txt");
        write_samples(&data, 10);
        let err = run(&args(&[
            "--data",
            &data,
            "--out",
            &temp_path(&dir, "never3.amf"),
            "--fault-plan",
            "bogus=1",
        ]));
        assert!(err.is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn hyperparameter_overrides_reach_model() {
        let dir = crate::test_dir("hyperparameter_overrides_reach_model");
        let data = temp_path(&dir, "data2.txt");
        let model = temp_path(&dir, "model2.amf");
        write_samples(&data, 30);
        run(&args(&[
            "--data",
            &data,
            "--out",
            &model,
            "--alpha",
            "0.5",
            "--dim",
            "4",
            "--max-replays",
            "1000",
        ]))
        .unwrap();
        let restored = persistence::load_file(&model).unwrap();
        assert_eq!(restored.config().alpha, 0.5);
        assert_eq!(restored.config().dimension, 4);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
