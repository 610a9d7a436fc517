//! Interval snapshot recorder: a background scraper thread that appends
//! `amf-obs-ts/v1` JSONL telemetry lines to a size-rotated
//! [`RotatingLog`].
//!
//! Each line is one self-contained JSON object:
//!
//! ```json
//! {"schema":"amf-obs-ts/v1","seq":12,"at_ms":12000,"unix_ms":…,"snapshot":{…}}
//! ```
//!
//! where `snapshot` is whatever the snapshot source returned (normally an
//! `amf-obs/v1` document). The recorder never panics the process over I/O:
//! write failures are counted and recording continues, so a full disk
//! degrades telemetry, not serving.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::sink::{LogConfig, RotatingLog};

/// Telemetry-line schema identifier (`schema` field of every JSONL line).
pub const TS_SCHEMA: &str = "amf-obs-ts/v1";

type SnapshotFn = dyn Fn() -> Json + Send + Sync + 'static;

struct Inner {
    interval: Duration,
    log: RotatingLog,
    source: Box<SnapshotFn>,
    stop: AtomicBool,
    seq: AtomicU64,
    epoch: Instant,
}

impl Inner {
    /// Takes one snapshot now, wraps it in a telemetry line and appends it
    /// to the log.
    fn record_once(&self) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let mut line = Json::obj();
        line.set("schema", Json::Str(TS_SCHEMA.to_string()));
        line.set("seq", Json::UInt(seq));
        line.set(
            "at_ms",
            Json::UInt(u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)),
        );
        line.set("unix_ms", Json::UInt(unix_ms));
        line.set("snapshot", (self.source)());
        self.log.append(&[line]);
    }
}

/// Background interval scraper; see the module docs. Construct with
/// [`SnapshotRecorder::start`], stop with [`SnapshotRecorder::stop`] (or
/// drop — the drop joins the thread too).
pub struct SnapshotRecorder {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SnapshotRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRecorder")
            .field("interval", &self.inner.interval)
            .field("log", &self.inner.log)
            .finish_non_exhaustive()
    }
}

impl SnapshotRecorder {
    /// Starts the scraper thread, which snapshots `source` every `interval`
    /// into `log`. `source` is called once more on
    /// [`SnapshotRecorder::stop`], so the log always ends with a
    /// final-state line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the log path cannot be opened for append
    /// (surfacing a bad path at startup, not silently later).
    pub fn start(
        interval: Duration,
        log: LogConfig,
        source: impl Fn() -> Json + Send + Sync + 'static,
    ) -> io::Result<Self> {
        let inner = Arc::new(Inner {
            interval,
            log: RotatingLog::open(log)?,
            source: Box::new(source),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        });
        let worker = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("amf-obs-recorder".to_string())
            .spawn(move || {
                while !worker.stop.load(Ordering::Acquire) {
                    // Sleep in short slices so stop() returns promptly even
                    // with a long scrape interval.
                    let deadline = Instant::now() + worker.interval;
                    while Instant::now() < deadline {
                        if worker.stop.load(Ordering::Acquire) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20).min(worker.interval));
                    }
                    worker.record_once();
                }
            })
            .map_err(io::Error::other)?;
        Ok(Self {
            inner,
            thread: Some(thread),
        })
    }

    /// Takes one snapshot immediately (besides the interval cadence).
    /// Deterministic tests drive the recorder with this instead of sleeping.
    pub fn record_once(&self) {
        self.inner.record_once();
    }

    /// The log the lines go to, with its write counters.
    pub fn log(&self) -> &RotatingLog {
        &self.inner.log
    }

    /// Stops the scraper thread, records one final line, and returns the
    /// total number of snapshots taken.
    pub fn stop(mut self) -> u64 {
        self.shutdown();
        self.inner.record_once();
        self.inner.seq.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for SnapshotRecorder {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::DEFAULT_MAX_LOG_BYTES;
    use std::path::PathBuf;

    fn snapshot_source(counter: Arc<AtomicU64>) -> impl Fn() -> Json + Send + Sync + 'static {
        move || {
            let mut snap = Json::obj();
            snap.set("schema", Json::Str("amf-obs/v1".to_string()));
            snap.set("tick", Json::UInt(counter.fetch_add(1, Ordering::Relaxed)));
            snap
        }
    }

    fn temp_log(name: &str, max_bytes: u64) -> LogConfig {
        let mut path = std::env::temp_dir();
        path.push(format!("amf-recorder-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        LogConfig { path, max_bytes }
    }

    fn remove_generations(path: &std::path::Path) {
        for suffix in ["", ".1", ".2"] {
            let mut name = path.as_os_str().to_os_string();
            name.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(name));
        }
    }

    #[test]
    fn lines_are_schema_tagged_jsonl() {
        let log = temp_log("basic", DEFAULT_MAX_LOG_BYTES);
        let path = log.path.clone();
        let recorder = SnapshotRecorder::start(
            Duration::from_secs(3600), // cadence irrelevant here
            log,
            snapshot_source(Arc::new(AtomicU64::new(0))),
        )
        .expect("start");
        recorder.record_once();
        recorder.record_once();
        assert_eq!(recorder.stop(), 3); // two manual + one final

        let text = std::fs::read_to_string(&path).expect("log exists");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).expect("line parses");
            assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(TS_SCHEMA));
            assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(
                parsed
                    .get("snapshot")
                    .and_then(|s| s.get("tick"))
                    .and_then(Json::as_u64),
                Some(i as u64)
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn log_rotates_under_a_small_size_cap() {
        let log = temp_log("rotate", 256);
        let path = log.path.clone();
        let recorder = SnapshotRecorder::start(
            Duration::from_secs(3600),
            log,
            snapshot_source(Arc::new(AtomicU64::new(0))),
        )
        .expect("start");
        for _ in 0..12 {
            recorder.record_once();
        }
        let rotations = recorder.log().rotations();
        assert!(rotations >= 2, "rotations: {rotations}");
        assert_eq!(recorder.log().write_errors(), 0);
        drop(recorder);

        let mut rotated = path.as_os_str().to_os_string();
        rotated.push(".1");
        for p in [path.clone(), PathBuf::from(rotated)] {
            let text = std::fs::read_to_string(&p).expect("generation exists");
            assert!(
                std::fs::metadata(&p).expect("meta").len() <= 256,
                "cap respected for {}",
                p.display()
            );
            for line in text.lines() {
                assert_eq!(
                    Json::parse(line)
                        .expect("rotated line parses")
                        .get("schema")
                        .and_then(Json::as_str),
                    Some(TS_SCHEMA)
                );
            }
        }
        remove_generations(&path);
    }

    #[test]
    fn interval_thread_scrapes_on_its_own() {
        let log = temp_log("interval", DEFAULT_MAX_LOG_BYTES);
        let path = log.path.clone();
        let recorder = SnapshotRecorder::start(
            Duration::from_millis(10),
            log,
            snapshot_source(Arc::new(AtomicU64::new(0))),
        )
        .expect("start");
        let deadline = Instant::now() + Duration::from_secs(5);
        while recorder.log().lines_written() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            recorder.log().lines_written() > 0,
            "no interval scrape within 5s"
        );
        drop(recorder);
        let _ = std::fs::remove_file(&path);
    }
}
