//! The `elpc-serve serve` daemon under test, as a child process of its own
//! so its memory and CPU belong to it alone.

use elpc_serving::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the daemon runs with.
pub const WORKERS: usize = 2;

/// How long a spawned daemon may take to answer its first ping, and a
/// draining one to exit.
const PATIENCE: Duration = Duration::from_secs(20);

pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `elpc-serve serve --workers 2` on `socket` and waits until it
    /// answers a ping.
    pub fn spawn(bin: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start daemon {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let start = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(socket) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > PATIENCE {
                return Err("daemon did not answer a ping within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connect to daemon failed: {e}"))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn shutdown(mut self) -> Result<ExitStatus, String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    asked?;
                    return Ok(status);
                }
                Ok(None) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit within 20 s of shutdown".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon still running here was abandoned on an error path: kill it
    /// and reap it, so the benchmark never leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
