//! The child `plasma-serve` process and what `/proc` says about it.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `plasma-serve`. Dropping it kills and reaps the child, on
/// the success path and on a panic alike.
pub struct Server {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// When the process was spawned (restart-readiness is timed from it).
    pub spawned: Instant,
}

impl Server {
    /// Spawns `bin --addr 127.0.0.1:0 [--data-dir DIR]` and waits for its
    /// `listening on` line. `PLASMA_PARALLELISM` and
    /// `PLASMA_SEGMENT_RECORDS` are removed from its environment: the
    /// benchmark measures the defaults.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .env_remove("PLASMA_PARALLELISM")
            .env_remove("PLASMA_SEGMENT_RECORDS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The thread keeps reading after the address is found, so the
        // child never blocks on a full pipe; it ends at the child's EOF.
        let stdout_drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            stdout_drain: Some(stdout_drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "plasma-serve never printed its listening address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address '{addr}': {e}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A directory under the benchmark's `out/` that is removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// Counters of one process, read from `/proc/<pid>/{stat,status,task}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    /// Peak resident set, MB (`VmHWM`).
    pub peak_rss_mb: f64,
    /// Voluntary + involuntary switches summed over live threads (a
    /// thread that has exited takes its count with it).
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn of(pid: u32) -> Result<ProcSample, String> {
        let read = |path: String| {
            fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let stat = read(format!("/proc/{pid}/stat"))?;
        // The command name may hold spaces; the numbered fields start
        // after its closing parenthesis, at field 3.
        let after = stat
            .rsplit_once(')')
            .ok_or("unexpected /proc stat layout")?
            .1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let field = |n: usize| -> Result<u64, String> {
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("/proc/{pid}/stat has no numeric field {n}"))
        };
        let status = read(format!("/proc/{pid}/status"))?;
        let peak_kb = status_value(&status, "VmHWM:").ok_or("no VmHWM in /proc status")?;
        let mut ctx_switches = 0;
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                    ctx_switches += status_value(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                        + status_value(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        Ok(ProcSample {
            user_s: field(14)? as f64 / TICKS_PER_SECOND,
            sys_s: field(15)? as f64 / TICKS_PER_SECOND,
            minor_faults: field(10)?,
            peak_rss_mb: peak_kb as f64 / 1024.0,
            ctx_switches,
        })
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_value(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The 1-minute load average, for the record of how quiet the machine was.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Names of the `snapshot-*.bin` files anywhere under `dir`.
pub fn snapshot_names(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return names;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if e.path().is_dir() {
            names.extend(snapshot_names(&e.path()));
        } else if name.starts_with("snapshot-") && name.ends_with(".bin") {
            names.push(name);
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_sample_reads_this_process() {
        let s = ProcSample::of(std::process::id()).unwrap();
        assert!(s.peak_rss_mb > 0.5, "{s:?}");
        assert!(s.cpu_s() >= 0.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-scratch-{}", std::process::id()));
        {
            let dir = ScratchDir::create(base.clone()).unwrap();
            fs::write(dir.path().join("snapshot-00000000000000000001.bin"), b"x").unwrap();
            assert_eq!(snapshot_names(dir.path()).len(), 1);
            assert_eq!(dir_bytes(dir.path()), 1);
        }
        assert!(!base.exists());
        let again = base.clone();
        let _ = std::panic::catch_unwind(move || {
            let _dir = ScratchDir::create(again).unwrap();
            panic!("unwinding drops the guard");
        });
        assert!(!base.exists());
    }
}
