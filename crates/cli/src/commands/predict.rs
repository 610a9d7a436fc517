//! `amf-qos predict` — load a saved model and predict QoS values.

use super::CliError;
use crate::args::Args;
use amf_core::persistence;

/// Usage text for the subcommand.
pub const USAGE: &str =
    "amf-qos predict --model MODEL (--user U --service S | --pairs FILE | --user U --rank K)";

/// Runs the subcommand. With `--user`/`--service` prints one prediction;
/// with `--pairs FILE` (lines of `user service`) prints one per line; with
/// `--user`/`--rank K` prints the user's top-K services by predicted QoS
/// (ascending), one `service value` per line, using the batch ranking
/// kernel instead of one predict call per service.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable/corrupt models, unknown ids, or
/// malformed pair files.
pub fn run(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?.to_string();
    let model = persistence::load_file(&model_path)?;

    if let Some(k) = args.get("rank") {
        let k: usize = k
            .parse()
            .map_err(|_| CliError("--rank expects a positive integer".into()))?;
        let user: usize = args.parse_or("user", usize::MAX)?;
        if user == usize::MAX {
            return Err(CliError(format!("--rank needs --user\nusage: {USAGE}")));
        }
        let ranked = model.rank_candidates(user, k);
        if ranked.is_empty() {
            return Err(CliError(format!(
                "nothing to rank: user {user} unknown, k is 0, or the model \
                 has no services ({} users, {} services registered)",
                model.num_users(),
                model.num_services()
            )));
        }
        let mut out = String::new();
        for (service, value) in ranked {
            out.push_str(&format!("{service} {value:.6}\n"));
        }
        return Ok(out);
    }

    if let Some(pairs_path) = args.get("pairs") {
        let text = std::fs::read_to_string(pairs_path)?;
        let mut out = String::new();
        for (line_no, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let (user, service) = match (parts.next(), parts.next()) {
                (Some(u), Some(s)) => (
                    u.parse::<usize>()
                        .map_err(|_| CliError(format!("line {}: bad user id", line_no + 1)))?,
                    s.parse::<usize>()
                        .map_err(|_| CliError(format!("line {}: bad service id", line_no + 1)))?,
                ),
                _ => {
                    return Err(CliError(format!(
                        "line {}: expected 'user service'",
                        line_no + 1
                    )))
                }
            };
            match model.predict(user, service) {
                Some(v) => out.push_str(&format!("{user} {service} {v:.6}\n")),
                None => out.push_str(&format!("{user} {service} unknown\n")),
            }
        }
        return Ok(out);
    }

    let user: usize = args.parse_or("user", usize::MAX)?;
    let service: usize = args.parse_or("service", usize::MAX)?;
    if user == usize::MAX || service == usize::MAX {
        return Err(CliError(format!(
            "need --user and --service (or --pairs FILE)\nusage: {USAGE}"
        )));
    }
    match model.predict(user, service) {
        Some(v) => Ok(format!("{v:.6}")),
        None => Err(CliError(format!(
            "pair ({user}, {service}) unknown to this model \
             ({} users, {} services registered)",
            model.num_users(),
            model.num_services()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::{AmfConfig, AmfModel};
    use std::path::Path;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_path(dir: &Path, name: &str) -> String {
        dir.join(name).to_string_lossy().into_owned()
    }

    fn saved_model(dir: &Path, name: &str) -> String {
        let path = temp_path(dir, name);
        let mut model = AmfModel::new(AmfConfig::response_time()).unwrap();
        for k in 0..100 {
            model.observe(k % 3, k % 4, 1.0 + (k % 2) as f64);
        }
        persistence::save_file(&model, &path).unwrap();
        path
    }

    #[test]
    fn single_pair_prediction() {
        let dir = crate::test_dir("single_pair_prediction");
        let model = saved_model(&dir, "m1.amf");
        let out = run(&args(&["--model", &model, "--user", "0", "--service", "1"])).unwrap();
        let value: f64 = out.parse().unwrap();
        assert!((0.0..=20.0).contains(&value));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unknown_pair_is_an_error() {
        let dir = crate::test_dir("unknown_pair_is_an_error");
        let model = saved_model(&dir, "m2.amf");
        let err = run(&args(&[
            "--model",
            &model,
            "--user",
            "99",
            "--service",
            "0",
        ]));
        assert!(err.unwrap_err().to_string().contains("unknown"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pairs_file_batch() {
        let dir = crate::test_dir("pairs_file_batch");
        let model = saved_model(&dir, "m3.amf");
        let pairs = temp_path(&dir, "pairs.txt");
        std::fs::write(&pairs, "0 0\n1 2\n\n99 0\n").unwrap();
        let out = run(&args(&["--model", &model, "--pairs", &pairs])).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("0 0 "));
        assert!(lines[2].ends_with("unknown"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn malformed_pairs_rejected() {
        let dir = crate::test_dir("malformed_pairs_rejected");
        let model = saved_model(&dir, "m4.amf");
        let pairs = temp_path(&dir, "bad_pairs.txt");
        std::fs::write(&pairs, "0\n").unwrap();
        assert!(run(&args(&["--model", &model, "--pairs", &pairs])).is_err());
        std::fs::write(&pairs, "a b\n").unwrap();
        assert!(run(&args(&["--model", &model, "--pairs", &pairs])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rank_mode_lists_top_k_ascending() {
        let dir = crate::test_dir("rank_mode_lists_top_k_ascending");
        let model = saved_model(&dir, "m6.amf");
        let out = run(&args(&["--model", &model, "--user", "0", "--rank", "3"])).unwrap();
        let rows: Vec<(usize, f64)> = out
            .lines()
            .map(|l| {
                let mut p = l.split_whitespace();
                (
                    p.next().unwrap().parse().unwrap(),
                    p.next().unwrap().parse().unwrap(),
                )
            })
            .collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
        // Values agree with the single-pair path.
        let single = run(&args(&[
            "--model",
            &model,
            "--user",
            "0",
            "--service",
            &rows[0].0.to_string(),
        ]))
        .unwrap();
        assert_eq!(single, format!("{:.6}", rows[0].1));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rank_mode_rejects_bad_input() {
        let dir = crate::test_dir("rank_mode_rejects_bad_input");
        let model = saved_model(&dir, "m7.amf");
        assert!(run(&args(&["--model", &model, "--rank", "3"])).is_err());
        assert!(run(&args(&["--model", &model, "--user", "0", "--rank", "x"])).is_err());
        let err = run(&args(&["--model", &model, "--user", "99", "--rank", "3"])).unwrap_err();
        assert!(err.to_string().contains("unknown"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_selectors_explains_usage() {
        let dir = crate::test_dir("missing_selectors_explains_usage");
        let model = saved_model(&dir, "m5.amf");
        let err = run(&args(&["--model", &model])).unwrap_err();
        assert!(err.to_string().contains("--user"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
