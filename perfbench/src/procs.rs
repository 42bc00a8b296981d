//! The process under test: spawning `osn serve`, waiting for readiness,
//! reading its `/proc` figures, and stopping it.

use crate::client::SimpleConn;
use perfbench::counters::status_field;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a server may take to come up.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Environment variables that would change the program's defaults.
const CLEARED_ENV: [&str; 5] = [
    "OSN_CHAOS",
    "OSN_WORKERS",
    "OSN_TELEMETRY",
    "OSN_WRITE_TOKENS",
    "RUST_BACKTRACE",
];

pub fn command(program: &Path) -> Command {
    let mut c = Command::new(program);
    for k in CLEARED_ENV {
        c.env_remove(k);
    }
    c
}

/// A running `osn serve`.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// The trace it serves (its first argument).
    pub trace: PathBuf,
    /// Process start to the readiness probe answering 200.
    pub ready_after: Duration,
    stderr: mpsc::Receiver<String>,
}

impl Server {
    /// Spawn `osn serve <args>`, read its listening address from stdout,
    /// then probe `ready_path` until it answers 200.
    pub fn start(osn: &Path, args: &[String], ready_path: &str) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = command(osn)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", osn.display()))?;
        let (addr_tx, addr_rx) = mpsc::channel();
        let stdout = child.stdout.take().expect("piped stdout");
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(a) = line.trim().strip_prefix("listening on http://") {
                    let _ = addr_tx.send(a.to_string());
                }
            }
        });
        let (err_tx, err_rx) = mpsc::channel();
        let mut stderr = child.stderr.take().expect("piped stderr");
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            let _ = err_tx.send(text);
        });
        let mut server = Server {
            child,
            addr: "0.0.0.0:0".parse().expect("placeholder addr"),
            trace: PathBuf::from(args.first().map(String::as_str).unwrap_or("")),
            ready_after: Duration::ZERO,
            stderr: err_rx,
        };
        let addr = match addr_rx.recv_timeout(START_TIMEOUT) {
            Ok(a) => a,
            Err(_) => return Err(server.fail("never printed its listening address")),
        };
        server.addr = match crate::client::resolve(&addr) {
            Ok(a) => a,
            Err(e) => return Err(server.fail(&format!("bad address {addr}: {e}"))),
        };
        let mut probe = SimpleConn::new(server.addr);
        loop {
            if let Ok((200, _)) = probe.get(ready_path) {
                break;
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(server.fail(&format!("{ready_path} never answered 200")));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(server.fail(&format!("exited early with {status}")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.ready_after = t0.elapsed();
        Ok(server)
    }

    fn fail(mut self, why: &str) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let err = self
            .stderr
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_default();
        format!("osn serve {why}; stderr:\n{err}")
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn status(&self) -> String {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default()
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        status_field(&self.status(), "VmHWM").unwrap_or(0) as f64 / 1024.0
    }

    pub fn threads(&self) -> u64 {
        status_field(&self.status(), "Threads").unwrap_or(0)
    }

    /// SIGTERM, then wait for the drain. Returns the exit code and the
    /// process's stderr.
    pub fn stop(mut self) -> Result<(i32, String), String> {
        // SAFETY: signalling our own child, which has not been reaped.
        unsafe {
            kill(self.pid() as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break s,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("osn serve did not drain within 30 s".into());
                }
            }
        };
        let err = self
            .stderr
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_default();
        Ok((status.code().unwrap_or(-1), err))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
