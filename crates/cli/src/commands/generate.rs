//! `amf-qos generate` — synthesize a WS-DREAM-like dataset and export it.

use super::{parse_attribute, CliError};
use crate::args::Args;
use qos_dataset::sampling::split_matrix;
use qos_dataset::stream::{QosSample, SliceStream};
use qos_dataset::{io, DatasetConfig, QosDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos generate --out FILE [--users N] [--services M] [--slices T] \
[--slice K] [--attr rt|tp] [--seed S] [--format dense|triplets] [--density D]";

/// Runs the subcommand, returning a human-readable summary.
///
/// # Errors
///
/// Returns [`CliError`] for invalid flags or I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?.to_string();
    let attr = parse_attribute(args)?;
    let config = DatasetConfig {
        users: args.parse_or("users", 142usize)?,
        services: args.parse_or("services", 500usize)?,
        time_slices: args.parse_or("slices", 8usize)?,
        seed: args.parse_or("seed", 2014u64)?,
        ..DatasetConfig::paper_scale()
    };
    let config = DatasetConfig {
        user_regions: config.user_regions.min(config.users),
        service_regions: config.service_regions.min(config.services),
        ..config
    };
    let slice = args.parse_or("slice", 0usize)?;
    let format = args.get_or("format", "dense").to_string();
    let density: f64 = args.parse_or("density", 1.0)?;
    if !(0.0 < density && density <= 1.0) {
        return Err(CliError(format!(
            "--density must be in (0, 1], got {density}"
        )));
    }

    let dataset =
        QosDataset::try_generate(&config).map_err(|e| CliError(format!("generate: {e}")))?;
    if slice >= dataset.time_slices() {
        return Err(CliError(format!(
            "--slice {slice} out of range (dataset has {})",
            dataset.time_slices()
        )));
    }
    let matrix = dataset.slice_matrix(attr, slice);

    let written = match format.as_str() {
        "dense" => {
            if density < 1.0 {
                let mut rng = StdRng::seed_from_u64(config.seed);
                let split = split_matrix(&matrix, density, &mut rng);
                io::write_dense_file(&split.train.to_dense(io::MISSING), &out)?;
                split.train.nnz()
            } else {
                io::write_dense_file(&matrix, &out)?;
                matrix.rows() * matrix.cols()
            }
        }
        "triplets" => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let split = split_matrix(&matrix, density, &mut rng);
            let stream = SliceStream::from_split(&dataset, &split, slice, &mut rng);
            let samples: Vec<QosSample> = stream.into_iter().collect();
            io::write_triplets(&samples, std::fs::File::create(&out)?)?;
            samples.len()
        }
        other => {
            return Err(CliError(format!(
                "unknown format '{other}' (expected dense or triplets)"
            )))
        }
    };

    Ok(format!(
        "wrote {written} {attr} values (slice {slice}, {}x{} matrix, density {:.0}%) to {out}",
        config.users,
        config.services,
        density * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_path(dir: &Path, name: &str) -> String {
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn dense_export_roundtrips() {
        let dir = crate::test_dir("dense_export_roundtrips");
        let out = temp_path(&dir, "dense.txt");
        let summary = run(&args(&[
            "--out",
            &out,
            "--users",
            "6",
            "--services",
            "10",
            "--slices",
            "2",
        ]))
        .unwrap();
        assert!(summary.contains("60 RT values"));
        let m = io::read_dense_file(&out).unwrap();
        assert_eq!(m.shape(), (6, 10));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn triplet_export_at_density() {
        let dir = crate::test_dir("triplet_export_at_density");
        let out = temp_path(&dir, "trip.txt");
        let summary = run(&args(&[
            "--out",
            &out,
            "--users",
            "6",
            "--services",
            "10",
            "--slices",
            "2",
            "--format",
            "triplets",
            "--density",
            "0.5",
            "--attr",
            "tp",
        ]))
        .unwrap();
        assert!(summary.contains("30 TP values"));
        let samples = io::read_triplets(std::fs::File::open(&out).unwrap()).unwrap();
        assert_eq!(samples.len(), 30);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rejects_bad_flags() {
        let dir = crate::test_dir("rejects_bad_flags");
        assert!(run(&args(&[])).is_err()); // missing --out
        let out = temp_path(&dir, "x.txt");
        assert!(run(&args(&["--out", &out, "--format", "parquet"])).is_err());
        assert!(run(&args(&["--out", &out, "--density", "0"])).is_err());
        assert!(run(&args(&["--out", &out, "--slices", "2", "--slice", "5"])).is_err());
        assert!(run(&args(&["--out", &out, "--users", "0"])).is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
