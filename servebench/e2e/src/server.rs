//! Starting and stopping the shipped `amf-qos serve` binary.

use crate::conn::Conn;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on a server's life should the benchmark itself die: serve
/// exits on its own after this long.
const RUN_MS: &str = "170000";

/// A running `amf-qos serve`.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `bin serve` with only a listen address and the warm-up
    /// triplets (`--samples` is the triplet count, so each is fed once),
    /// and returns it with its set-up time: from spawn to its first `200`
    /// on `/healthz`, warm-up included.
    ///
    /// # Errors
    ///
    /// The binary does not start, exits, or never answers.
    pub fn spawn(
        bin: &Path,
        warm: &Path,
        triplets: usize,
        dir: &Path,
    ) -> Result<(Self, f64), String> {
        let addr_file: PathBuf = dir.join("serve_addr.txt");
        let _ = std::fs::remove_file(&addr_file);
        let log =
            std::fs::File::create(dir.join("serve.log")).map_err(|e| format!("serve.log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .arg("--data")
            .arg(warm)
            .args(["--samples", &triplets.to_string(), "--run-ms", RUN_MS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if started.elapsed() > START_TIMEOUT {
                return Err("serve did not publish its address in time".into());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during start-up: {status}"));
            }
            let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if let Some(line) = text.strip_suffix('\n') {
                server.addr = line
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad address {line:?}: {e}"))?;
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let mut conn = Conn::new(server.addr);
        loop {
            if let Ok(resp) = conn.exchange(&servebench::wire::get("/healthz")) {
                if resp.status == 200 {
                    break;
                }
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("serve never answered /healthz with 200".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// The listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU time the server has used so far (user + system, all threads,
    /// exited ones included), in seconds. The kernel leaves time stolen by
    /// the hypervisor out of it.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading serve's /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, in clock ticks of 1/100 s.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / 100.0),
            _ => Err("malformed /proc stat".into()),
        }
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading serve's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in serve's /proc status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
