//! Running the program under test as a child process: wall time from
//! launch to exit and peak RSS (`VmHWM` from `/proc/<pid>/status`).

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is sampled. `VmHWM` is the
/// kernel's own high-water mark, so sampling only has to catch the
/// process before it exits; the last sample bounds the peak from below.
const RSS_POLL: Duration = Duration::from_millis(5);

/// `VmHWM` of a live process in KiB (`None` once it is gone).
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A finished child process.
pub struct Finished {
    pub status: ExitStatus,
    /// Launch to exit.
    pub wall_s: f64,
    pub peak_rss_kib: u64,
    pub stdout: String,
    pub stderr: String,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.status.success()
    }
}

/// A launched child: its exit is awaited on a thread of its own so the
/// exit instant is exact, while the caller samples its RSS.
pub struct Running {
    pid: u32,
    started: Instant,
    done: Arc<AtomicBool>,
    waiter: JoinHandle<std::io::Result<(ExitStatus, Instant)>>,
    stdout: JoinHandle<String>,
    stderr: JoinHandle<String>,
    peak_kib: u64,
}

fn drain<R: Read + Send + 'static>(mut r: R) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut s = String::new();
        let _ = r.read_to_string(&mut s);
        s
    })
}

impl Running {
    /// Launches `cmd` with piped output. When `ready` is given, blocks
    /// until a stdout line starting with it appears and returns that
    /// line too (the rest of stdout is still collected).
    pub fn spawn(cmd: &mut Command, ready: Option<&str>) -> std::io::Result<(Running, String)> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child: Child = cmd.spawn()?;
        let pid = child.id();
        let out = child.stdout.take().expect("piped stdout");
        let err = child.stderr.take().expect("piped stderr");
        let stderr = drain(err);
        let mut ready_line = String::new();
        let stdout = match ready {
            Some(prefix) => {
                let mut reader = BufReader::new(out);
                let mut seen = String::new();
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line)? == 0 {
                        break;
                    }
                    seen.push_str(&line);
                    if line.starts_with(prefix) {
                        ready_line = line.trim_end().to_string();
                        break;
                    }
                }
                std::thread::spawn(move || {
                    let mut rest = String::new();
                    let _ = reader.read_to_string(&mut rest);
                    seen + &rest
                })
            }
            None => drain(out),
        };
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let waiter = std::thread::spawn(move || {
            let status = child.wait();
            let at = Instant::now();
            flag.store(true, Ordering::SeqCst);
            status.map(|s| (s, at))
        });
        Ok((
            Running {
                pid,
                started,
                done,
                waiter,
                stdout,
                stderr,
                peak_kib: 0,
            },
            ready_line,
        ))
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Samples the child's RSS high-water mark once.
    pub fn sample_rss(&mut self) {
        if let Some(k) = vm_hwm_kib(self.pid) {
            self.peak_kib = self.peak_kib.max(k);
        }
    }

    /// Kills the child and waits for it (used on error paths, so no
    /// process outlives the run).
    pub fn kill(self) {
        let _ = Command::new("kill")
            .arg("-9")
            .arg(self.pid.to_string())
            .status();
        let _ = self.wait(Duration::from_secs(10));
    }

    /// Waits for the child to exit (sampling RSS meanwhile), killing it
    /// after `timeout`.
    pub fn wait(mut self, timeout: Duration) -> std::io::Result<Finished> {
        while !self.done.load(Ordering::SeqCst) {
            self.sample_rss();
            if self.started.elapsed() > timeout {
                let _ = Command::new("kill")
                    .arg("-9")
                    .arg(self.pid.to_string())
                    .status();
            }
            std::thread::sleep(RSS_POLL);
        }
        let (status, exited) = self.waiter.join().expect("waiter thread")?;
        Ok(Finished {
            status,
            wall_s: exited.duration_since(self.started).as_secs_f64(),
            peak_rss_kib: self.peak_kib,
            stdout: self.stdout.join().expect("stdout reader"),
            stderr: self.stderr.join().expect("stderr reader"),
        })
    }
}

/// Runs `cmd` to completion.
pub fn run(cmd: &mut Command, timeout: Duration) -> std::io::Result<Finished> {
    let (child, _) = Running::spawn(cmd, None)?;
    child.wait(timeout)
}
