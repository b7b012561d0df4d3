//! Starting, stopping and killing the `afp --listen` process under test.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How to start the server.
#[derive(Debug, Clone)]
pub struct Launch {
    pub afp: PathBuf,
    pub program: PathBuf,
    /// `--journal DIR` with `--checkpoint-every N`, default `--fsync`.
    pub journal: Option<(PathBuf, u64)>,
    /// `--trace FILE`.
    pub trace: Option<PathBuf>,
}

pub struct Server {
    child: Child,
    /// Kept open: the server exits when its stdin closes.
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn to listening announce, seconds.
    pub setup_s: f64,
    /// Version announced by a journal recovery.
    pub recovered: Option<u64>,
}

impl Launch {
    /// Spawn the server and wait for its listening announce.
    pub fn start(&self) -> Result<Server, String> {
        let mut cmd = Command::new(&self.afp);
        cmd.args(["--listen", "127.0.0.1:0"]);
        if let Some((dir, every)) = &self.journal {
            cmd.arg("--journal").arg(dir);
            cmd.args(["--checkpoint-every", &every.to_string()]);
        }
        if let Some(trace) = &self.trace {
            cmd.arg("--trace").arg(trace);
        }
        cmd.arg(&self.program)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.afp.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut recovered = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                return Err(format!("server exited before listening ({status})"));
            }
            if let Some(addr) = line.trim().strip_prefix("% listening tcp ") {
                break addr.to_string();
            }
            if let Some(v) = line.trim().strip_prefix("% journal recovered version ") {
                recovered = v.parse().ok();
            }
        };
        Ok(Server {
            child,
            stdin,
            _stdout: stdout,
            addr,
            setup_s: started.elapsed().as_secs_f64(),
            recovered,
        })
    }
}

impl Server {
    /// Peak resident set (VmHWM) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Close stdin and wait for a clean exit (killing it after 30 s).
    pub fn quit(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after stdin closed".into());
                }
            }
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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

/// A fresh, empty directory (removed first if it exists).
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}
