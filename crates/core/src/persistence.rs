//! Saving and loading AMF models as a plain-text format.
//!
//! The QoS prediction *service* of the paper's framework is long-running;
//! being able to checkpoint and restore the model across restarts is part of
//! making it operable. The format is a simple line-oriented text layout (no
//! extra dependencies):
//!
//! ```text
//! AMF1
//! config <dimension> <lambda_u> <lambda_s> <beta> <eta> <alpha> <r_min> <r_max> <expiry_secs> <init_sigma> <adaptive 0|1> <loss R|S> <seed>
//! counts <users> <services> <updates>
//! user <err> <f_0> ... <f_d-1>      (one per user, in id order)
//! service <err> <f_0> ... <f_d-1>   (one per service, in id order)
//! ```

use crate::config::{AmfConfig, LossKind};
use crate::model::{AmfModel, EntityState};
use crate::weights::ErrorTracker;
use crate::AmfError;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAGIC: &str = "AMF1";

/// Serializes a model to a writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save<W: Write>(model: &AmfModel, writer: W) -> Result<(), AmfError> {
    let mut w = BufWriter::new(writer);
    let c = model.config();
    writeln!(w, "{MAGIC}")?;
    writeln!(
        w,
        "config {} {} {} {} {} {} {} {} {} {} {} {} {}",
        c.dimension,
        c.lambda_user,
        c.lambda_service,
        c.beta,
        c.learning_rate,
        c.alpha,
        c.r_min,
        c.r_max,
        c.expiry.as_secs(),
        c.init_sigma,
        u8::from(c.adaptive_weights),
        match c.loss {
            LossKind::Relative => "R",
            LossKind::Squared => "S",
        },
        c.seed,
    )?;
    writeln!(
        w,
        "counts {} {} {}",
        model.num_users(),
        model.num_services(),
        model.update_count()
    )?;
    type EntityRow = fn(&AmfModel, usize) -> Option<(f64, &[f64])>;
    let rows: [(&str, usize, EntityRow); 2] = [
        ("user", model.num_users(), |m, i| {
            Some((m.user_error(i)?, m.user_factors(i)?))
        }),
        ("service", model.num_services(), |m, i| {
            Some((m.service_error(i)?, m.service_factors(i)?))
        }),
    ];
    for (kind, count, row) in rows {
        for i in 0..count {
            // Registered ids below the count always resolve.
            let Some((error, factors)) = row(model, i) else {
                continue;
            };
            write!(w, "{kind} {error}")?;
            for f in factors {
                write!(w, " {f}")?;
            }
            writeln!(w)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Deserializes a model from a reader.
///
/// # Errors
///
/// Returns [`AmfError::Corrupt`] for malformed content and propagates I/O
/// and configuration errors.
pub fn load<R: Read>(reader: R) -> Result<AmfModel, AmfError> {
    let mut lines = BufReader::new(reader).lines().enumerate();
    let corrupt = |line: usize, message: &str| AmfError::Corrupt {
        line: line + 1,
        message: message.to_string(),
    };

    let (n, magic) = lines
        .next()
        .ok_or_else(|| corrupt(0, "empty file"))
        .and_then(|(n, r)| r.map(|l| (n, l)).map_err(AmfError::from))?;
    if magic.trim() != MAGIC {
        return Err(corrupt(n, "bad magic header"));
    }

    let (n, config_line) = lines
        .next()
        .ok_or_else(|| corrupt(1, "missing config line"))
        .and_then(|(n, r)| r.map(|l| (n, l)).map_err(AmfError::from))?;
    let parts: Vec<&str> = config_line.split_whitespace().collect();
    if parts.len() != 14 || parts[0] != "config" {
        return Err(corrupt(n, "malformed config line"));
    }
    let parse_f = |idx: usize| -> Result<f64, AmfError> {
        parts[idx]
            .parse()
            .map_err(|_| corrupt(n, "bad config number"))
    };
    let config = AmfConfig {
        dimension: parts[1].parse().map_err(|_| corrupt(n, "bad dimension"))?,
        lambda_user: parse_f(2)?,
        lambda_service: parse_f(3)?,
        beta: parse_f(4)?,
        learning_rate: parse_f(5)?,
        alpha: parse_f(6)?,
        r_min: parse_f(7)?,
        r_max: parse_f(8)?,
        expiry: Duration::from_secs(parts[9].parse().map_err(|_| corrupt(n, "bad expiry"))?),
        init_sigma: parse_f(10)?,
        adaptive_weights: parts[11] == "1",
        loss: match parts[12] {
            "R" => LossKind::Relative,
            "S" => LossKind::Squared,
            _ => return Err(corrupt(n, "bad loss kind")),
        },
        seed: parts[13].parse().map_err(|_| corrupt(n, "bad seed"))?,
    };

    let (n, counts_line) = lines
        .next()
        .ok_or_else(|| corrupt(2, "missing counts line"))
        .and_then(|(n, r)| r.map(|l| (n, l)).map_err(AmfError::from))?;
    let parts: Vec<&str> = counts_line.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "counts" {
        return Err(corrupt(n, "malformed counts line"));
    }
    let num_users: usize = parts[1].parse().map_err(|_| corrupt(n, "bad user count"))?;
    let num_services: usize = parts[2]
        .parse()
        .map_err(|_| corrupt(n, "bad service count"))?;
    let updates: u64 = parts[3]
        .parse()
        .map_err(|_| corrupt(n, "bad update count"))?;

    // The 0-based line the next entity is read from.
    let mut next = n + 1;
    let mut read_entities = |kind: &str, count: usize| -> Result<Vec<EntityState>, AmfError> {
        // Grown as lines arrive: the counts line cannot size an allocation.
        let mut out = Vec::new();
        for _ in 0..count {
            let (n, line) = lines
                .next()
                .ok_or_else(|| corrupt(next, "unexpected end of file"))
                .and_then(|(n, r)| r.map(|l| (n, l)).map_err(AmfError::from))?;
            next = n + 1;
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != config.dimension + 2 || parts[0] != kind {
                return Err(corrupt(n, "malformed entity line"));
            }
            let error: f64 = parts[1].parse().map_err(|_| corrupt(n, "bad error"))?;
            let factors: Result<Vec<f64>, _> = parts[2..].iter().map(|p| p.parse()).collect();
            out.push(EntityState {
                factors: factors.map_err(|_| corrupt(n, "bad factor"))?,
                tracker: ErrorTracker::from_error(error),
            });
        }
        Ok(out)
    };

    let users = read_entities("user", num_users)?;
    let services = read_entities("service", num_services)?;
    AmfModel::restore(config, users, services, updates)
}

/// Saves a model to a file path atomically: the model is written to
/// `<path>.tmp` in the same directory and synced, then renamed over `path`,
/// and the directory is synced. A save that fails at any step leaves the
/// previous file as it was.
///
/// # Errors
///
/// Propagates file-system and [`save`] errors, after removing the
/// temporary file.
pub fn save_file<P: AsRef<Path>>(model: &AmfModel, path: P) -> Result<(), AmfError> {
    write_atomically(path.as_ref(), |file| save(model, file))
}

/// Writes `path` through `write` as [`save_file`] describes.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<(), AmfError>,
) -> Result<(), AmfError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| -> Result<(), AmfError> {
        let mut file = File::create(&tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename is durable once the directory entry is.
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Loads a model from a file path.
///
/// # Errors
///
/// Propagates file-open and [`load`] errors.
pub fn load_file<P: AsRef<Path>>(path: P) -> Result<AmfModel, AmfError> {
    load(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_model() -> AmfModel {
        let mut m = AmfModel::new(AmfConfig::response_time()).unwrap();
        for k in 0..200 {
            m.observe(k % 3, k % 4, 0.5 + (k % 5) as f64);
        }
        m
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let model = trained_model();
        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let restored = load(&buf[..]).unwrap();
        assert_eq!(restored.num_users(), model.num_users());
        assert_eq!(restored.num_services(), model.num_services());
        assert_eq!(restored.update_count(), model.update_count());
        for u in 0..3 {
            for s in 0..4 {
                let a = model.predict(u, s).unwrap();
                let b = restored.predict(u, s).unwrap();
                assert!((a - b).abs() < 1e-9, "({u},{s}): {a} vs {b}");
            }
        }
        assert_eq!(restored.user_error(0), model.user_error(0));
        assert_eq!(restored.config(), model.config());
    }

    #[test]
    fn roundtrip_continues_training() {
        // A restored model must keep learning (fresh RNG state, intact
        // trackers).
        let model = trained_model();
        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let mut restored = load(&buf[..]).unwrap();
        let before = restored.predict(0, 0).unwrap();
        for _ in 0..300 {
            restored.observe(0, 0, 3.0);
        }
        let after = restored.predict(0, 0).unwrap();
        assert!((after - 3.0).abs() < (before - 3.0).abs() + 1e-9);
        // New entities after restore must not clone old initializations.
        restored.ensure_user(10);
        assert_ne!(restored.user_factors(10), restored.user_factors(0));
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            load("NOPE\n".as_bytes()),
            Err(AmfError::Corrupt { line: 1, .. })
        ));
        assert!(load("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let model = trained_model();
        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(load(truncated.as_bytes()).is_err());
    }

    #[test]
    fn a_truncated_file_names_the_line_after_the_last() {
        let mut buf = Vec::new();
        save(&trained_model(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for kept in [4, 6] {
            let truncated: String = text.lines().take(kept).map(|l| format!("{l}\n")).collect();
            match load(truncated.as_bytes()) {
                Err(AmfError::Corrupt { line, message }) => {
                    assert_eq!(
                        (line, message.as_str()),
                        (kept + 1, "unexpected end of file")
                    );
                }
                other => panic!("{kept} lines: expected a corrupt-file error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_count_past_the_end_of_the_file_is_corrupt() {
        // Sized from the counts line, the user vector would take 32 TB.
        let mut buf = Vec::new();
        save(&trained_model(), &mut buf).unwrap();
        let text: String = String::from_utf8(buf)
            .unwrap()
            .replace("counts 3 4", "counts 999999999999 20")
            .lines()
            .take(6)
            .map(|l| format!("{l}\n"))
            .collect();
        match load(text.as_bytes()) {
            Err(AmfError::Corrupt { line, message }) => {
                assert_eq!((line, message.as_str()), (7, "unexpected end of file"));
            }
            other => panic!("expected a corrupt-file error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupt_numbers() {
        let model = trained_model();
        let mut buf = Vec::new();
        save(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("counts 3", "counts x");
        assert!(matches!(text, ref t if load(t.as_bytes()).is_err()));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("amf_persistence_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.amf");
        let model = trained_model();
        save_file(&model, &path).unwrap();
        let restored = load_file(&path).unwrap();
        assert_eq!(restored.num_users(), model.num_users());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_save_keeps_the_previous_file() {
        let dir = std::env::temp_dir().join(format!("amf_atomic_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.amf");
        save_file(&trained_model(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let failed = write_atomically(&path, |file| {
            file.write_all(&before[..before.len() / 2])?;
            Err(std::io::Error::other("disk full").into())
        });
        assert!(matches!(failed, Err(AmfError::Io(_))));
        assert!(
            std::fs::read(&path).unwrap() == before,
            "the previous file changed"
        );
        assert!(!dir.join("model.amf.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loss_kinds_roundtrip() {
        for loss in [LossKind::Relative, LossKind::Squared] {
            let mut config = AmfConfig::response_time();
            config.loss = loss;
            config.adaptive_weights = loss == LossKind::Relative;
            let model = AmfModel::new(config).unwrap();
            let mut buf = Vec::new();
            save(&model, &mut buf).unwrap();
            let restored = load(&buf[..]).unwrap();
            assert_eq!(restored.config().loss, loss);
            assert_eq!(restored.config().adaptive_weights, config.adaptive_weights);
        }
    }
}
