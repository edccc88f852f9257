//! The `wms daemon` load generator.
//!
//! One process, one connection, two threads: a writer that sends
//! pre-encoded 256-event WMSP batches on a schedule and a reader that
//! collects ACKs. A run has up to two phases:
//!
//! * **fixed rate** — an open loop: batch `k` is due at `k / rate`
//!   seconds and is sent then (or as soon as the writer can), whatever
//!   the daemon is doing. Each batch's ACK latency is timed from when it
//!   was *due*, so a stall also charges the batches queued behind it;
//!   the writer's own lateness is reported beside it.
//! * **saturation** — a closed loop with at most [`PIPELINE`] batches in
//!   flight; its ACK rate is the daemon's throughput.
//!
//! A stop-and-wait mode sends one batch at a time instead; the traced
//! run uses it to split ACK latency into in-process work and socket.

use crate::proc::{Finished, Running};
use crate::workloads::Workload;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wms_daemon::proto::batch_frame;
use wms_daemon::{BatchReply, Client, Endpoint};

/// Batches in flight during the saturation phase.
pub const PIPELINE: u64 = 32;
/// Offered rate of the fixed-rate phase, batches per second: about a
/// fifth of what the daemon sustains on two cores, so the phase measures
/// latency rather than backlog.
pub const FIXED_RATE: f64 = 1500.0;

/// How one daemon run feeds its batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Connect, then drain at once (set-up time only).
    SetupOnly,
    /// Fixed-rate phase, then saturation phase.
    Phased,
    /// Every batch waits for the previous ACK.
    StopAndWait,
}

/// What one daemon run measured.
pub struct DaemonRun {
    /// Spawn → `HELLO_OK`.
    pub setup_s: f64,
    /// The daemon process, spawn → exit (includes its verification).
    proc: Option<Finished>,
    /// Fixed-rate (or stop-and-wait) ACK latencies, ms.
    pub ack_ms: Vec<f64>,
    /// Writer lateness against the schedule in the fixed-rate phase, ms.
    pub lateness_ms: Vec<f64>,
    /// Saturation phase: events ACKed per second.
    pub items_per_s: Option<f64>,
    /// Batches sent and batches the daemon did not ACK.
    pub sent: u64,
    pub unacked: u64,
    /// Largest `wms_daemon_queue_depth` seen by STATS polling.
    pub queue_depth_max: Option<u64>,
    /// `wms_daemon_nacks_total` summed over codes, at the end.
    pub nacks: Option<u64>,
}

impl DaemonRun {
    /// The finished daemon process.
    pub fn proc(&self) -> &Finished {
        self.proc.as_ref().expect("set once the daemon exits")
    }
}

/// Shared ACK bookkeeping between writer and reader.
struct Acks {
    acked: Mutex<u64>,
    cv: Condvar,
}

fn daemon_cmd(wms: &Path, wl: &Workload, work: &Path, workers: Option<usize>) -> Command {
    let mut cmd = Command::new(wms);
    cmd.arg("daemon")
        .arg("--listen")
        .arg("tcp:127.0.0.1:0")
        .arg("--output")
        .arg(work.join("wmsd-out.csv"))
        .arg("--checkpoint")
        .arg(work.join("wmsd.ck"))
        .arg("--key")
        .arg(wl.key.to_string())
        .args(wl.scheme.args());
    if let Some(w) = workers {
        cmd.arg("--workers").arg(w.to_string());
    }
    cmd
}

/// Sum of every sample of metric `name` in a Prometheus text exposition.
pub fn metric_sum(text: &str, name: &str) -> Option<u64> {
    let mut found = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        if !(rest.starts_with(' ') || rest.starts_with('{')) {
            continue;
        }
        if let Some(v) = rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            *found.get_or_insert(0) += v as u64;
        }
    }
    found
}

/// Runs one daemon lifetime against the workload's batch schedule.
/// `poll_stats` polls `STATS` on a second connection during the
/// saturation phase and reads the NACK counters before the drain.
pub fn run(
    wms: &Path,
    wl: &Workload,
    frames: &[Vec<u8>],
    work: &Path,
    workers: Option<usize>,
    mode: Mode,
    poll_stats: bool,
) -> Result<DaemonRun, String> {
    let _ = std::fs::remove_file(work.join("wmsd.ck"));
    let mut cmd = daemon_cmd(wms, wl, work, workers);
    let (mut child, ready) =
        Running::spawn(&mut cmd, Some("wmsd listening on ")).map_err(|e| e.to_string())?;
    match drive(&mut child, &ready, wl, frames, mode, poll_stats) {
        Ok(mut run) => {
            run.proc = Some(
                child
                    .wait(Duration::from_secs(120))
                    .map_err(|e| e.to_string())?,
            );
            Ok(run)
        }
        Err(e) => {
            child.kill();
            Err(e)
        }
    }
}

/// Everything between the daemon's start and its exit: handshake, the
/// batch phases, STATS and the drain.
fn drive(
    child: &mut Running,
    ready: &str,
    wl: &Workload,
    frames: &[Vec<u8>],
    mode: Mode,
    poll_stats: bool,
) -> Result<DaemonRun, String> {
    let addr = ready
        .strip_prefix("wmsd listening on tcp:")
        .and_then(|r| r.split_whitespace().next())
        .ok_or_else(|| format!("daemon did not report its address: {ready:?}"))?
        .to_string();
    let ep = Endpoint::Tcp(addr);
    let (mut client, greeting) = Client::connect(&ep, "perfbench").map_err(|e| e.to_string())?;
    let setup_s = child.started().elapsed().as_secs_f64();
    if greeting.acked_seq != 0 {
        return Err(format!(
            "fresh daemon reports acked seq {}",
            greeting.acked_seq
        ));
    }
    child.sample_rss();

    let n = match mode {
        Mode::SetupOnly => 0,
        _ => frames.len(),
    };
    let fixed = match mode {
        Mode::Phased => wl.fixed_batches.min(n),
        Mode::StopAndWait => n,
        Mode::SetupOnly => 0,
    };
    let mut writer = client.conn_mut().try_clone().map_err(|e| e.to_string())?;
    let acks = Arc::new(Acks {
        acked: Mutex::new(0),
        cv: Condvar::new(),
    });
    let t0 = Instant::now() + Duration::from_millis(5);
    let period = Duration::from_secs_f64(1.0 / FIXED_RATE);
    let due = |k: usize| t0 + period * k as u32;

    let reader_acks = Arc::clone(&acks);
    let reader = std::thread::spawn(move || {
        let mut recv: Vec<Option<Instant>> = vec![None; n];
        let mut unacked = 0u64;
        for _ in 0..n {
            match client.read_reply() {
                Ok((seq, reply)) => {
                    let at = Instant::now();
                    if !matches!(reply, BatchReply::Acked { .. }) {
                        unacked += 1;
                    }
                    if let Some(slot) = (seq as usize).checked_sub(1).and_then(|i| recv.get_mut(i))
                    {
                        *slot = Some(at);
                    }
                }
                Err(_) => {
                    unacked += 1;
                    break;
                }
            }
            let mut a = reader_acks.acked.lock().expect("ack lock");
            *a += 1;
            reader_acks.cv.notify_all();
        }
        // A dead connection ends the loop early: release the writer,
        // whose sends then fail and are counted as unacknowledged.
        *reader_acks.acked.lock().expect("ack lock") = n as u64;
        reader_acks.cv.notify_all();
        (client, recv, unacked)
    });

    let stop_polling = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = poll_stats.then(|| {
        let stop = Arc::clone(&stop_polling);
        let ep = ep.clone();
        std::thread::spawn(move || -> Option<u64> {
            let (mut c, _) = Client::connect(&ep, "perfbench-stats").ok()?;
            let mut max = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let text = c.stats().ok()?;
                max = max.max(metric_sum(&text, "wms_daemon_queue_depth").unwrap_or(0));
                std::thread::sleep(Duration::from_millis(2));
            }
            Some(max)
        })
    });
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    let mut lateness_ms = Vec::new();
    let mut write_failed = false;
    let mut sat_start = None;
    for (k, frame) in frames.iter().take(n).enumerate() {
        if k < fixed && mode == Mode::Phased {
            let d = due(k);
            let now = Instant::now();
            if d > now {
                std::thread::sleep(d - now);
            }
            lateness_ms.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
        } else {
            let limit = match mode {
                Mode::StopAndWait => 1,
                _ => PIPELINE,
            };
            if k == fixed {
                // The saturation phase starts once the fixed-rate phase
                // is fully acknowledged.
                let mut a = acks.acked.lock().expect("ack lock");
                while *a < k as u64 {
                    a = acks.cv.wait(a).expect("ack lock");
                }
                sat_start = Some(Instant::now());
            }
            let mut a = acks.acked.lock().expect("ack lock");
            while (k as u64).saturating_sub(*a) >= limit {
                a = acks.cv.wait(a).expect("ack lock");
            }
        }
        sent_at.push(Instant::now());
        if writer.write_all(frame).is_err() {
            write_failed = true;
            break;
        }
    }
    let (mut client, recv, mut unacked) = reader.join().map_err(|_| "ack reader panicked")?;
    stop_polling.store(true, std::sync::atomic::Ordering::SeqCst);
    let queue_depth_max = poller.and_then(|p| p.join().ok().flatten());
    if write_failed {
        unacked += (n - sent_at.len()) as u64;
    }

    let mut ack_ms = Vec::new();
    for k in 0..fixed.min(sent_at.len()) {
        if let Some(at) = recv[k] {
            let from = if mode == Mode::Phased {
                due(k)
            } else {
                sent_at[k]
            };
            ack_ms.push(at.saturating_duration_since(from).as_secs_f64() * 1e3);
        }
    }
    let items_per_s = match (sat_start, recv.last().copied().flatten()) {
        (Some(s), Some(end)) if n > fixed => {
            let events: usize = wl.events.len().min(n * wl.batch) - fixed * wl.batch;
            Some(events as f64 / end.duration_since(s).as_secs_f64())
        }
        _ => None,
    };
    let nacks = if poll_stats {
        client
            .stats()
            .ok()
            .and_then(|t| metric_sum(&t, "wms_daemon_nacks_total"))
    } else {
        None
    };
    child.sample_rss();
    client.drain().map_err(|e| format!("drain: {e}"))?;
    Ok(DaemonRun {
        setup_s,
        proc: None,
        ack_ms,
        lateness_ms,
        items_per_s,
        sent: sent_at.len() as u64,
        unacked,
        queue_depth_max,
        nacks,
    })
}

/// Pre-encodes the workload's batch schedule (sequence numbers from 1).
pub fn frames(wl: &Workload) -> Vec<Vec<u8>> {
    wl.events
        .chunks(wl.batch)
        .enumerate()
        .map(|(i, c)| batch_frame(i as u64 + 1, c))
        .collect()
}
