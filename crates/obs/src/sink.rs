//! The size-rotated JSONL log that both the telemetry recorder
//! ([`crate::SnapshotRecorder`]) and the flight recorder
//! ([`crate::FlightRecorder`]) write through.
//!
//! One policy for every log:
//!
//! - An append is one `write_all` of whole lines under the log's mutex, so
//!   concurrent appends never interleave lines or race a rotation.
//! - Before an append that would push a non-empty live file past
//!   `max_bytes`, the log rotates: `<path>.1` moves to `<path>.2`, replacing
//!   the oldest generation, and the live file moves to `<path>.1`. The
//!   generation names append `.N` to the path's own bytes, so a path that
//!   is not valid UTF-8 rotates like any other.
//! - A failed rotation counts one write error, and the append still goes to
//!   the live file. A failed append counts one write error and loses its
//!   lines.
//!
//! Nothing here panics over I/O: a full disk degrades the log, not the
//! process that writes it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::registry::lock;

/// Rotated generations kept beside the live file (`<path>.1`, `<path>.2`).
const ROTATED_GENERATIONS: usize = 2;

/// Default size cap of a live log file: `amf-qos serve --max-log-bytes`
/// and the scenario engine's flight dumps.
pub const DEFAULT_MAX_LOG_BYTES: u64 = 4 * 1024 * 1024;

/// Where a [`RotatingLog`] writes and how large its live file may grow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// The live JSONL file.
    pub path: PathBuf,
    /// Rotate before an append would push a non-empty live file past this
    /// many bytes.
    pub max_bytes: u64,
}

/// A size-rotated JSONL log; see the module docs for its policy.
#[derive(Debug)]
pub struct RotatingLog {
    config: LogConfig,
    lines_written: AtomicU64,
    rotations: AtomicU64,
    write_errors: AtomicU64,
    /// Held across one append's size check, rotation and write.
    append_lock: Mutex<()>,
}

impl RotatingLog {
    /// A log that creates its live file on the first append.
    pub(crate) fn new(config: LogConfig) -> Self {
        Self {
            config,
            lines_written: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            append_lock: Mutex::new(()),
        }
    }

    /// A log whose live file is created (or opened) now.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the path cannot be opened for append, so a
    /// bad path surfaces at startup instead of as a count of write errors.
    pub(crate) fn open(config: LogConfig) -> io::Result<Self> {
        let log = Self::new(config);
        log.open_live()?;
        Ok(log)
    }

    /// Appends `lines` as compact JSON, one per line, in one write,
    /// rotating first if the live file would outgrow its cap.
    pub(crate) fn append(&self, lines: &[Json]) {
        let mut text = String::new();
        for line in lines {
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        let _guard = lock(&self.append_lock);
        let live = fs::metadata(&self.config.path).map_or(0, |m| m.len());
        if live > 0 && live.saturating_add(text.len() as u64) > self.config.max_bytes {
            let counter = match self.rotate() {
                Ok(()) => &self.rotations,
                Err(_) => &self.write_errors,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        match self
            .open_live()
            .and_then(|mut file| file.write_all(text.as_bytes()))
        {
            Ok(()) => self
                .lines_written
                .fetch_add(lines.len() as u64, Ordering::Relaxed),
            Err(_) => self.write_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Lines appended to the live file so far.
    pub fn lines_written(&self) -> u64 {
        self.lines_written.load(Ordering::Relaxed)
    }

    /// Size rotations performed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Failed rotations and failed appends so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn open_live(&self) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.config.path)
    }

    /// `<path>.n`, appended to the path's bytes rather than its display
    /// form, which is lossy for a path that is not valid UTF-8.
    fn generation(&self, n: usize) -> PathBuf {
        let mut name = self.config.path.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    }

    /// Shifts every rotated generation up by one, replacing the oldest, and
    /// moves the live file to `<path>.1`. A generation that does not exist
    /// yet is not an error.
    fn rotate(&self) -> io::Result<()> {
        for n in (1..ROTATED_GENERATIONS).rev() {
            match fs::rename(self.generation(n), self.generation(n + 1)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        fs::rename(&self.config.path, self.generation(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> Json {
        let mut line = Json::obj();
        line.set("schema", Json::Str("amf-test/v1".into()))
            .set("seq", Json::UInt(i));
        line
    }

    #[cfg(unix)]
    #[test]
    fn rotation_appends_to_the_paths_bytes() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt as _;

        let dir = std::env::temp_dir().join(format!("amf-sink-bytes-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // 0xFF never appears in UTF-8: a lossy conversion would turn it into
        // U+FFFD and name the generations after a different file.
        let path = dir.join(OsStr::from_bytes(b"telemetry-\xff.jsonl"));
        let generation = |n: &str| {
            let mut name = path.as_os_str().to_os_string();
            name.push(n);
            PathBuf::from(name)
        };
        let log = RotatingLog::open(LogConfig {
            path: path.clone(),
            max_bytes: 80,
        })
        .unwrap();
        // Each line is 34 bytes: two fit under the cap, a third rotates.
        for i in 0..6 {
            log.append(&[line(i)]);
        }
        assert_eq!(log.rotations(), 2);
        assert_eq!(log.write_errors(), 0);
        assert_eq!(log.lines_written(), 6);

        for file in [path.clone(), generation(".1"), generation(".2")] {
            let text = fs::read_to_string(&file).expect("generation exists");
            assert!(!text.is_empty(), "{}", file.display());
            for raw in text.lines() {
                let parsed = Json::parse(raw).expect("every line parses");
                assert_eq!(
                    parsed.get("schema").and_then(Json::as_str),
                    Some("amf-test/v1")
                );
            }
        }
        assert!(!generation(".3").exists(), "only two generations are kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rotation_counts_an_error_and_still_appends() {
        let dir = std::env::temp_dir().join(format!("amf-sink-stuck-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let _ = fs::remove_file(&path);
        // A non-empty directory where `<path>.2` should go: shifting
        // `<path>.1` onto it fails.
        fs::create_dir_all(dir.join("flight.jsonl.2").join("occupied")).unwrap();
        let log = RotatingLog::new(LogConfig {
            path: path.clone(),
            max_bytes: 1,
        });
        log.append(&[line(0)]); // empty live file: no rotation
        log.append(&[line(1)]); // rotates to .1
        log.append(&[line(2)]); // .1 -> .2 fails
        assert_eq!(log.rotations(), 1);
        assert_eq!(log.write_errors(), 1);
        assert_eq!(log.lines_written(), 3);
        let live = fs::read_to_string(&path).unwrap();
        assert_eq!(
            live.lines().count(),
            2,
            "the append after a failed rotation lands"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
