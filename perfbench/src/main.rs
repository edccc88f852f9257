//! The repository benchmark: runs the two shipped end-to-end paths as
//! real processes on seeded workloads, checks every run's output bytes,
//! and (with `--trace 1`) breaks the end-to-end time into per-layer self
//! times from a step-wise replay.
//!
//! ```text
//! perfbench --wms target/release/wms --workload csv-embed-64 \
//!     --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run metadata. See README.md for the metric definitions.

mod layers;
mod path;
mod proc;
mod replay;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod wmsd;
mod workloads;

use stats::{median, quantile, Closure, LayerTime};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{PathKind, StreamResult, Workload};

/// One CLI run may take at most this long before it is killed and
/// counted as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up measurements per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Minimum timed job repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Interleaved closure rounds in a traced run.
const CLOSURE_ROUNDS: usize = 3;

struct Opts {
    wms: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut wms, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--wms" => wms = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        wms: wms.ok_or("--wms is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operation accounting for `attempted` / `failed`.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ops {
    /// `1 − error_share`: the share of attempted operations that
    /// succeeded (kept positive so a fully correct run never reads 0).
    fn ok_share(&self) -> f64 {
        1.0 - per(self.failed as f64, self.attempted as f64)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            eprintln!("perfbench: FAILED {note}");
            self.notes.push(note);
        }
    }
}

/// The per-seed reference: output bytes plus what the program should
/// report about them.
struct Reference {
    output: Vec<u8>,
    bits: u64,
    present: u64,
}

/// What the program printed about its own run.
#[derive(Debug, Default, PartialEq)]
struct Reported {
    bits: Option<u64>,
    present: u64,
    workers: Option<usize>,
}

fn parse_reported(stdout: &str) -> Reported {
    let mut r = Reported::default();
    for line in stdout.lines() {
        if line.starts_with("engine: ") || line.starts_with("wmsd: ") {
            r.bits = line
                .split("embedded ")
                .nth(1)
                .and_then(|t| t.split_whitespace().next())
                .and_then(|n| n.parse().ok());
            r.workers = line
                .split(" workers)")
                .next()
                .and_then(|t| t.rsplit('(').next())
                .and_then(|n| n.parse().ok());
        }
        if line.starts_with("stream ") && line.ends_with("WATERMARK PRESENT") {
            r.present += 1;
        }
    }
    r
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `wms engine` arguments for a csv workload.
/// Every run starts from the same state: spill and checkpoint files a
/// previous run left behind (a `--stop-after` run leaves live spill
/// records) are removed first.
fn engine_cmd(wms: &Path, wl: &Workload, work: &Path, output: &Path) -> Command {
    let _ = std::fs::remove_file(work.join("engine.spill"));
    let _ = std::fs::remove_file(work.join("engine.ck"));
    let mut cmd = Command::new(wms);
    cmd.arg("engine")
        .arg("--input")
        .arg(work.join("input.csv"))
        .arg("--output")
        .arg(output)
        .arg("--key")
        .arg(wl.key.to_string())
        .arg("--normalize")
        .arg(if wl.normalize { "fit" } else { "none" })
        .args(wl.scheme.args());
    if let Some(b) = wl.budget {
        cmd.arg("--max-resident")
            .arg(b.max_resident.to_string())
            .arg("--spill")
            .arg(work.join("engine.spill"))
            .arg("--checkpoint-every")
            .arg(b.checkpoint_every.to_string())
            .arg("--checkpoint")
            .arg(work.join("engine.ck"));
    }
    cmd
}

/// Builds the reference for this seed.
fn reference(wl: &Workload, work: &Path) -> Result<(Reference, Vec<StreamResult>), String> {
    let cfg = path::embed_config(wl);
    let mut off = Tracer::new(false);
    let run = path::run(
        wl,
        cfg.as_ref(),
        &work.join("input.csv"),
        &work.join("reference.csv"),
        &mut off,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    let output = match wl.kind {
        PathKind::Csv => run.output,
        PathKind::Wmsd => {
            let batches: Vec<&[wms_engine::Event]> = wl.events.chunks(wl.batch).collect();
            let official = wms_bench::testkit::engine_reference_output(&cfg, &batches);
            if official != run.output {
                return Err(
                    "sequential replay disagrees with testkit::engine_reference_output".into(),
                );
            }
            official
        }
    };
    Ok((
        Reference {
            output,
            bits: run.results.iter().map(|r| r.stats.embedded).sum(),
            present: run.results.iter().filter(|r| r.present()).count() as u64,
        },
        run.results,
    ))
}

/// Checks one finished CLI run against the reference.
fn check_run(
    ops: &mut Ops,
    what: &str,
    fin: &proc::Finished,
    output: &Path,
    reference: &Reference,
) -> Reported {
    let reported = parse_reported(&fin.stdout);
    let bytes = std::fs::read(output).unwrap_or_default();
    let ok = fin.ok()
        && bytes == reference.output
        && reported.bits == Some(reference.bits)
        && reported.present == reference.present;
    ops.check(ok, || {
        format!(
            "{what}: exit {:?}, output {} ({} bytes vs {}), bits {:?} vs {}, present {} of {}; \
             stderr: {}",
            fin.status.code(),
            if bytes == reference.output {
                "identical"
            } else {
                "DIFFERS"
            },
            bytes.len(),
            reference.output.len(),
            reported.bits,
            reference.bits,
            reported.present,
            reference.present,
            fin.stderr.trim()
        )
    });
    reported
}

struct E2e {
    metrics: Vec<Metric>,
    workers: usize,
    lateness_ms: Vec<f64>,
    reps: usize,
    ack_samples: usize,
    /// wmsd-*: median over daemon runs of each run's p99 ACK latency.
    ack_p99_ms: Option<f64>,
}

/// The untraced end-to-end runs of a csv workload.
fn csv_e2e(o: &Opts, wl: &Workload, work: &Path, r: &Reference, ops: &mut Ops) -> E2e {
    let out = work.join("output.csv");
    // Warm-up: one full run outside the timed loop (checked all the same).
    let fin =
        proc::run(&mut engine_cmd(&o.wms, wl, work, &out), RUN_TIMEOUT).expect("spawn wms engine");
    let workers = check_run(ops, "warm-up run", &fin, &out, r)
        .workers
        .unwrap_or(0);
    // Set-up time runs to the program's own "stopped after 1 batches"
    // line, so the executor's teardown after the crash simulation is not
    // counted.
    let mut setup = Vec::new();
    let setup_out = work.join("setup.csv");
    let ready = "stopped after 1 batches";
    for _ in 0..SETUP_REPS {
        let (child, line) = proc::Running::spawn(
            engine_cmd(&o.wms, wl, work, &setup_out).args(["--stop-after", "1"]),
            Some(ready),
        )
        .expect("spawn wms engine");
        setup.push(child.started().elapsed().as_secs_f64());
        let fin = child.wait(RUN_TIMEOUT).expect("wait for wms engine");
        ops.check(fin.ok() && line.starts_with(ready), || {
            format!(
                "set-up run: exit {:?}: {}",
                fin.status.code(),
                fin.stderr.trim()
            )
        });
    }
    let (mut job, mut rss, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Reported::default();
    let started = Instant::now();
    while job.len() < MIN_REPS || started.elapsed().as_secs() < o.seconds {
        let fin = proc::run(&mut engine_cmd(&o.wms, wl, work, &out), RUN_TIMEOUT)
            .expect("spawn wms engine");
        last = check_run(ops, "timed run", &fin, &out, r);
        job.push(fin.wall_s);
        rss.push(fin.peak_rss_kib as f64 / 1024.0);
        rate.push(wl.events.len() as f64 / fin.wall_s);
    }
    let job_ms: Vec<f64> = job.iter().map(|s| s * 1e3).collect();
    let metrics = vec![
        metric("setup_s", median(&setup).unwrap_or(0.0), "s"),
        metric("job_s", median(&job).unwrap_or(0.0), "s"),
        metric("items_per_s", median(&rate).unwrap_or(0.0), "items/s"),
        metric("ack_p50_ms", median(&job_ms).unwrap_or(0.0), "ms"),
        metric("peak_rss_mb", median(&rss).unwrap_or(0.0), "MiB"),
        metric("bits_embedded", last.bits.unwrap_or(0) as f64, "count"),
        metric("streams_present", last.present as f64, "count"),
        metric("ok_share", ops.ok_share(), "ratio"),
    ];
    E2e {
        metrics,
        workers,
        lateness_ms: Vec::new(),
        reps: job.len(),
        ack_samples: job.len(),
        ack_p99_ms: None,
    }
}

/// Checks one daemon run against the reference.
fn check_daemon(
    ops: &mut Ops,
    what: &str,
    run: &Result<wmsd::DaemonRun, String>,
    work: &Path,
    r: &Reference,
) -> Option<Reported> {
    match run {
        Ok(d) => {
            ops.attempted += d.sent;
            ops.failed += d.unacked;
            if d.unacked > 0 {
                ops.notes
                    .push(format!("{what}: {} batches not ACKed", d.unacked));
            }
            Some(check_run(
                ops,
                what,
                d.proc(),
                &work.join("wmsd-out.csv"),
                r,
            ))
        }
        Err(e) => {
            ops.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// The untraced end-to-end runs of a wmsd workload.
fn wmsd_e2e(o: &Opts, wl: &Workload, work: &Path, r: &Reference, ops: &mut Ops) -> E2e {
    let frames = wmsd::frames(wl);
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        match wmsd::run(
            &o.wms,
            wl,
            &frames,
            work,
            None,
            wmsd::Mode::SetupOnly,
            false,
        ) {
            Ok(d) => {
                ops.check(d.proc().ok(), || {
                    format!("set-up run: {}", d.proc().stderr.trim())
                });
                setup.push(d.setup_s);
            }
            Err(e) => ops.check(false, || format!("set-up run: {e}")),
        }
    }
    let (mut job, mut rss, mut rate, mut acks, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // p99 per daemon run (each has ≥ 10 samples beyond it), then the
    // median over runs: one disturbed run cannot set the tail alone.
    let mut p99s = Vec::new();
    let mut last = Reported::default();
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed().as_secs() < o.seconds {
        reps += 1;
        let run = wmsd::run(&o.wms, wl, &frames, work, None, wmsd::Mode::Phased, false);
        if let Some(rep) = check_daemon(ops, "timed daemon run", &run, work, r) {
            last = rep;
        }
        if let Ok(d) = run {
            job.push(d.proc().wall_s);
            rss.push(d.proc().peak_rss_kib as f64 / 1024.0);
            rate.extend(d.items_per_s);
            p99s.extend(quantile(&d.ack_ms, 0.99));
            acks.extend(d.ack_ms);
            late.extend(d.lateness_ms);
        }
    }
    let metrics = vec![
        metric("setup_s", median(&setup).unwrap_or(0.0), "s"),
        metric("job_s", median(&job).unwrap_or(0.0), "s"),
        metric("items_per_s", median(&rate).unwrap_or(0.0), "items/s"),
        metric("ack_p50_ms", median(&acks).unwrap_or(0.0), "ms"),
        metric("peak_rss_mb", median(&rss).unwrap_or(0.0), "MiB"),
        metric("bits_embedded", last.bits.unwrap_or(0) as f64, "count"),
        metric("streams_present", last.present as f64, "count"),
        metric("ok_share", ops.ok_share(), "ratio"),
    ];
    E2e {
        metrics,
        workers: host_cpus(),
        lateness_ms: late,
        reps,
        ack_samples: acks.len(),
        ack_p99_ms: median(&p99s),
    }
}

/// The events the engine sees (normalized for csv workloads).
fn engine_events(wl: &Workload) -> Vec<wms_engine::Event> {
    if !wl.normalize {
        return wl.events.clone();
    }
    let ns = path::fit_normalizers(&wl.events);
    path::normalized(&wl.events, Some(&ns))
}

/// The socket's share of one batch's ACK latency: the median
/// stop-and-wait ACK latency minus the median in-process cost of the same
/// batches (decode, embed, output rows).
struct SocketSplit {
    us_per_batch: f64,
    batches: usize,
}

impl SocketSplit {
    fn new(ack_ms: &[f64], batch_ns: &[u64], batches: usize) -> Option<SocketSplit> {
        let in_process: Vec<f64> = batch_ns.iter().map(|&n| n as f64 / 1e3).collect();
        Some(SocketSplit {
            us_per_batch: median(ack_ms)? * 1e3 - median(&in_process)?,
            batches,
        })
    }
}

/// One stop-and-wait daemon job on one worker: its wall time and the
/// ACK latency of every batch.
fn stop_and_wait(
    o: &Opts,
    wl: &Workload,
    work: &Path,
    r: &Reference,
    ops: &mut Ops,
) -> Option<(f64, Vec<f64>)> {
    let frames = wmsd::frames(wl);
    let run = wmsd::run(
        &o.wms,
        wl,
        &frames,
        work,
        Some(1),
        wmsd::Mode::StopAndWait,
        false,
    );
    check_daemon(ops, "stop-and-wait daemon run", &run, work, r)?;
    let d = run.ok()?;
    Some((d.proc().wall_s, d.ack_ms))
}

/// Untraced step-wise replay of a workload's path, checked against the
/// reference: `(seconds, per-batch ns)`.
fn replay_untraced(
    wl: &Workload,
    driver: &replay::StepDriver,
    work: &Path,
    r: &Reference,
    ops: &mut Ops,
) -> (f64, Vec<u64>) {
    let started = Instant::now();
    let run = path::run(
        wl,
        driver,
        &work.join("input.csv"),
        &work.join("replay.csv"),
        &mut Tracer::new(false),
    )
    .expect("untraced replay");
    let s = started.elapsed().as_secs_f64();
    ops.check(run.output == r.output, || {
        "untraced replay output differs from the reference".into()
    });
    (s, run.batch_ns)
}

/// The wmsd-style probe of a csv workload: its first batches, as the
/// daemon would receive them.
fn daemon_probe(wl: &Workload, events: Vec<wms_engine::Event>) -> Workload {
    let n = events.len().min(1600 * 256);
    Workload {
        name: wl.name,
        kind: PathKind::Wmsd,
        seed: wl.seed,
        key: wl.key,
        scheme: wl.scheme.clone(),
        normalize: false,
        batch: 256,
        budget: None,
        events: events[..n].to_vec(),
        fixed_batches: 1000,
    }
}

fn self_s(times: &std::collections::BTreeMap<&'static str, trace::SelfTime>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |t| t.ns as f64 / 1e9)
}

fn count(times: &std::collections::BTreeMap<&'static str, trace::SelfTime>, name: &str) -> u64 {
    times.get(name).map_or(0, |t| t.count)
}

/// Per-layer ratio with a zero (not NaN) for an empty denominator.
fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Traced {
    metrics: Vec<Metric>,
    closure: Closure,
    untraced_s: f64,
    traced_s: f64,
    workers: usize,
}

/// The traced run: closure baseline, untraced and traced replays, and the
/// direct per-layer measurements.
fn traced(
    o: &Opts,
    wl: &Workload,
    work: &Path,
    r: &Reference,
    gate: &workloads::GateReport,
    ops: &mut Ops,
) -> Traced {
    let input = work.join("input.csv");
    let engine_events = engine_events(wl);
    let cfg = path::embed_config(wl);

    // Closure rounds, interleaved so a shift in host load hits every
    // side alike: the one-worker end-to-end job, then an untraced and a
    // traced step-wise replay of the same path.
    let driver = replay::StepDriver::new(path::scheme(wl));
    let mut tracer = Tracer::new(true);
    let (mut walls, mut untraced_t, mut traced_t) = (Vec::new(), Vec::new(), Vec::new());
    let (mut acks, mut batch_ns) = (Vec::new(), Vec::new());
    let mut replayed = None;
    for round in 0..CLOSURE_ROUNDS {
        match wl.kind {
            PathKind::Csv => {
                let out = work.join("output.csv");
                let fin = proc::run(
                    engine_cmd(&o.wms, wl, work, &out).args(["--workers", "1"]),
                    RUN_TIMEOUT,
                )
                .expect("spawn wms engine");
                check_run(ops, "one-worker run", &fin, &out, r);
                walls.push(fin.wall_s);
            }
            PathKind::Wmsd => {
                if let Some((wall, a)) = stop_and_wait(o, wl, work, r, ops) {
                    walls.push(wall);
                    acks.extend(a);
                }
            }
        }
        // Alternate which replay goes first, so neither side always runs
        // on the other's warmed-up heap.
        for traced_side in [round % 2 == 1, round % 2 == 0] {
            if traced_side {
                let started = Instant::now();
                let run = path::run(wl, &driver, &input, &work.join("replay.csv"), &mut tracer)
                    .expect("traced replay");
                traced_t.push(started.elapsed().as_secs_f64());
                ops.check(run.output == r.output, || {
                    "traced replay output differs from the reference: trace rejected".into()
                });
                replayed = Some(run);
            } else {
                let (s, ns) = replay_untraced(wl, &driver, work, r, ops);
                untraced_t.push(s);
                batch_ns.extend(ns);
            }
        }
    }
    let replayed = replayed.expect("at least one closure round");
    // The verification pass re-reads the marked output (normalized with
    // the embed-time maps); only budgeted runs need it below.
    let marked = match wl.budget {
        Some(_) => {
            let reread = wms_stream::csv::read_events(&work.join("replay.csv")).expect("replay");
            let ns = wl.normalize.then(|| path::fit_normalizers(&wl.events));
            path::normalized(&reread, ns.as_ref())
        }
        None => Vec::new(),
    };
    let e2e_s = median(&walls).unwrap_or(0.0);
    let untraced_s = median(&untraced_t).unwrap_or(0.0);
    let traced_s = median(&traced_t).unwrap_or(0.0);
    let (workers, split) = match wl.kind {
        PathKind::Csv => {
            let out = work.join("output.csv");
            let fin = proc::run(&mut engine_cmd(&o.wms, wl, work, &out), RUN_TIMEOUT)
                .expect("spawn wms engine");
            let workers = check_run(ops, "default-worker run", &fin, &out, r)
                .workers
                .unwrap_or(0);
            let probe = daemon_probe(wl, engine_events.clone());
            let split = reference(&probe, work).ok().and_then(|(pr, _)| {
                let (_, a) = stop_and_wait(o, &probe, work, &pr, ops)?;
                let (_, ns) = replay_untraced(&probe, &driver, work, &pr, ops);
                SocketSplit::new(&a, &ns, ns.len())
            });
            (workers, split)
        }
        PathKind::Wmsd => (
            host_cpus(),
            SocketSplit::new(&acks, &batch_ns, wl.events.len().div_ceil(wl.batch)),
        ),
    };
    let iterations: Vec<f64> = driver.take_iterations().iter().map(|&i| i as f64).collect();
    let hash_samples = driver.take_hash_samples();
    // Self times per round.
    let mut times = tracer.self_times();
    for t in times.values_mut() {
        t.ns /= CLOSURE_ROUNDS as u64;
        t.count /= CLOSURE_ROUNDS as u64;
    }
    let out_dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&out_dir);
    let stem = format!("{}-seed{}", wl.name, wl.seed);
    if let Err(e) = tracer.write_tsv(&out_dir.join(format!("spans-{stem}.tsv"))) {
        eprintln!("perfbench: could not write spans: {e}");
    }

    // Direct layer measurements.
    let route_s = layers::route_s(&engine_events, wl.batch);
    let engine = layers::engine_layer(
        wl,
        &cfg,
        &Arc::new(path::detect_config(wl)),
        &engine_events,
        &marked,
        work,
    );
    let frames = layers::sample_frames(&engine_events, 200);
    let crc = layers::crc32_ns_per_kib(&frames);
    let hash = layers::hash_ns_per_code(driver.scheme(), &hash_samples);
    let (encode_direct, decode_direct) = layers::proto_ns_per_batch(&engine_events, 200);
    let skew = layers::shard_skew(&engine_events, workers.max(1));
    let stats_probe = {
        let probe = match wl.kind {
            PathKind::Csv => daemon_probe(wl, engine_events.clone()),
            PathKind::Wmsd => daemon_probe(wl, wl.events.clone()),
        };
        let frames = wmsd::frames(&probe);
        wmsd::run(
            &o.wms,
            &probe,
            &frames,
            work,
            None,
            wmsd::Mode::Phased,
            true,
        )
    };
    let (queue_depth_max, nacks, ack_p99_ms) = match &stats_probe {
        Ok(d) => {
            ops.check(d.proc().ok() && d.unacked == 0, || {
                format!("STATS probe run: {}", d.proc().stderr.trim())
            });
            (
                d.queue_depth_max.unwrap_or(0),
                d.nacks.unwrap_or(0),
                quantile(&d.ack_ms, 0.99).unwrap_or(0.0),
            )
        }
        Err(e) => {
            ops.check(false, || format!("STATS probe run: {e}"));
            (0, 0, 0.0)
        }
    };

    // Closure: layer self times against the one-worker end-to-end time.
    let batches = wl.events.len().div_ceil(wl.batch);
    let mut closure_layers: Vec<LayerTime> = times
        .iter()
        .filter(|(name, _)| !(wl.kind == PathKind::Wmsd && **name == "daemon.proto.encode"))
        .map(|(name, t)| LayerTime {
            name: name.to_string(),
            self_s: t.ns as f64 / 1e9,
        })
        .collect();
    // The embedding pass and the verification pass each route the
    // whole schedule once.
    closure_layers.push(LayerTime {
        name: "engine.route".into(),
        self_s: 2.0 * route_s,
    });
    // The CLI checkpoints at the budgeted workloads' cadence; the
    // daemon writes one final checkpoint when it drains.
    let checkpoints_s = match (wl.kind, wl.budget) {
        (PathKind::Csv, Some(_)) => engine.checkpoint_total_s,
        (PathKind::Wmsd, _) => engine.checkpoint_ns / 1e9,
        _ => 0.0,
    };
    closure_layers.push(LayerTime {
        name: "engine.checkpoint".into(),
        self_s: checkpoints_s,
    });
    closure_layers.push(LayerTime {
        name: "engine.readopt".into(),
        self_s: engine.readopt_count as f64 * engine.readopt_ns_each / 1e9,
    });
    if wl.kind == PathKind::Wmsd {
        if let Some(s) = &split {
            closure_layers.push(LayerTime {
                name: "daemon.socket".into(),
                self_s: s.us_per_batch.max(0.0) * s.batches as f64 / 1e6,
            });
        }
    }
    let closure = Closure::new(e2e_s, closure_layers);

    let events = wl.events.len() as f64;
    // csv-* read (and normalize) every row twice: input and verification.
    let read_rows = match wl.kind {
        PathKind::Csv => 2.0 * events,
        PathKind::Wmsd => events,
    };
    let stats_sum = |f: fn(&wms_core::EmbedStats) -> u64| -> f64 {
        replayed.results.iter().map(|r| f(&r.stats) as f64).sum()
    };
    let majors = stats_sum(|s| s.majors_seen);
    let selected = stats_sum(|s| s.selected);
    let embedded = stats_sum(|s| s.embedded);
    let total_iters = stats_sum(|s| s.total_iterations);
    let scans = count(&times, "core.extremes") as f64;
    let (encode_ns, decode_ns) = match wl.kind {
        PathKind::Wmsd => (
            per(self_s(&times, "daemon.proto.encode") * 1e9, batches as f64),
            per(self_s(&times, "daemon.proto.decode") * 1e9, batches as f64),
        ),
        PathKind::Csv => (encode_direct, decode_direct),
    };
    let metrics = vec![
        metric(
            "stream.csv.read_ns_per_row",
            per(self_s(&times, "stream.csv.read") * 1e9, read_rows),
            "ns",
        ),
        metric(
            "stream.csv.write_ns_per_row",
            per(self_s(&times, "stream.csv.write") * 1e9, events),
            "ns",
        ),
        metric(
            "stream.normalize.ns_per_item",
            per(self_s(&times, "stream.normalize") * 1e9, read_rows),
            "ns",
        ),
        metric(
            "stream.window.ns_per_item",
            per(self_s(&times, "stream.window") * 1e9, events),
            "ns",
        ),
        metric(
            "core.extremes.scan_ns_per_window",
            per(self_s(&times, "core.extremes") * 1e9, scans),
            "ns",
        ),
        metric(
            "core.extremes.majors_per_window",
            per(majors, scans),
            "ratio",
        ),
        metric(
            "core.labeling.ns_per_major",
            per(self_s(&times, "core.labeling") * 1e9, majors),
            "ns",
        ),
        metric(
            "core.select.ns_per_major",
            per(self_s(&times, "core.select") * 1e9, majors),
            "ns",
        ),
        metric(
            "core.select.selected_per_major",
            per(selected, majors),
            "ratio",
        ),
        metric(
            "core.search.ns_per_selected",
            per(self_s(&times, "core.search") * 1e9, selected),
            "ns",
        ),
        metric("core.search.iterations", total_iters, "count"),
        metric(
            "core.search.iterations_per_embedded",
            per(total_iters, embedded),
            "ratio",
        ),
        metric(
            "core.search.embedded_per_selected",
            per(embedded, selected),
            "ratio",
        ),
        metric(
            "core.search.iterations_p99",
            quantile(&iterations, 0.99).unwrap_or(0.0),
            "count",
        ),
        metric(
            "core.search.max_stream_share",
            gate.max_stream_share,
            "ratio",
        ),
        metric(
            "core.quality.ns_per_embedded",
            per(self_s(&times, "core.quality") * 1e9, embedded),
            "ns",
        ),
        metric(
            "core.detect.ns_per_item",
            per(self_s(&times, "core.detect") * 1e9, events),
            "ns",
        ),
        metric("crypto.hash.ns_per_code", hash, "ns"),
        metric("crypto.crc32.ns_per_kib", crc, "ns"),
        metric("engine.route.ns_per_item", per(route_s * 1e9, events), "ns"),
        metric("engine.shard_skew", skew, "ratio"),
        metric("engine.readopt.count", engine.readopt_count as f64, "count"),
        metric("engine.readopt.ns_each", engine.readopt_ns_each, "ns"),
        metric("engine.spill.bytes", engine.spill_bytes as f64, "bytes"),
        metric("engine.checkpoint.ns", engine.checkpoint_ns, "ns"),
        metric(
            "engine.checkpoint.bytes",
            engine.checkpoint_bytes as f64,
            "bytes",
        ),
        metric("daemon.proto.encode_ns_per_batch", encode_ns, "ns"),
        metric("daemon.proto.decode_ns_per_batch", decode_ns, "ns"),
        metric(
            "daemon.server.queue_depth_max",
            queue_depth_max as f64,
            "count",
        ),
        metric("daemon.server.nacks", nacks as f64, "count"),
        metric("daemon.ack_p99_ms", ack_p99_ms, "ms"),
        metric(
            "daemon.socket.us_per_batch",
            split.as_ref().map_or(0.0, |s| s.us_per_batch),
            "us",
        ),
        metric("cli.closure_e2e_s", closure.end_to_end_s, "s"),
        metric("cli.layer_sum_s", closure.layer_sum_s(), "s"),
        metric("cli.unattributed_s", closure.unattributed_s, "s"),
        metric(
            "cli.unattributed_share",
            closure.unattributed_share(),
            "ratio",
        ),
        metric("trace.overhead_s", traced_s - untraced_s, "s"),
    ];
    Traced {
        metrics,
        closure,
        untraced_s,
        traced_s,
        workers,
    }
}

/// The closure report: layer self times next to the end-to-end time.
fn closure_report(wl: &Workload, t: &Traced) -> String {
    let c = &t.closure;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "closure {} seed {}: one-worker end-to-end {:.4} s",
        wl.name, wl.seed, c.end_to_end_s
    );
    let mut layers = c.layers.clone();
    layers.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    for l in &layers {
        let _ = writeln!(
            s,
            "  {:<24} {:>10.4} s  {:>6.1}%",
            l.name,
            l.self_s,
            100.0 * per(l.self_s, c.end_to_end_s)
        );
    }
    let _ = writeln!(s, "  {:<24} {:>10.4} s", "layer sum", c.layer_sum_s());
    let _ = writeln!(
        s,
        "  {:<24} {:>10.4} s  {:>6.1}%  (target within ±10%)",
        "cli.unattributed_s",
        c.unattributed_s,
        100.0 * c.unattributed_share()
    );
    let _ = writeln!(
        s,
        "  tracing overhead {:.4} s (replay {:.4} s traced vs {:.4} s untraced; layer self times include it)",
        t.traced_s - t.untraced_s,
        t.traced_s,
        t.untraced_s
    );
    s
}

/// A digest of the sources the benchmark built (the checkout need not
/// be a git repository).
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut crc = wms_crypto::Crc32::new();
    for f in files {
        crc.update(f.to_string_lossy().as_bytes());
        crc.update(&std::fs::read(&f).unwrap_or_default());
    }
    format!("crc32:{:08x}", crc.finish())
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::build(&o.workload, o.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            o.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    if !o.wms.is_file() {
        eprintln!(
            "perfbench: program under test not found at {}",
            o.wms.display()
        );
        return ExitCode::from(2);
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-{}",
        wl.name,
        wl.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::from(3);
    }
    let code = run(&o, &wl, &work);
    let _ = std::fs::remove_dir_all(&work);
    code
}

fn run(o: &Opts, wl: &Workload, work: &Path) -> ExitCode {
    let setup_started = Instant::now();
    if let Err(e) = std::fs::write(work.join("input.csv"), wl.csv_text()) {
        eprintln!("perfbench: writing input: {e}");
        return ExitCode::from(3);
    }
    let (r, results) = match reference(wl, work) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", wl.name, wl.seed);
            return ExitCode::from(3);
        }
    };
    // The honest-workload gate: nothing is timed on a workload whose
    // streams do not all carry a detectable mark.
    let gate = match workloads::gate(&results) {
        Ok(g) => g,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {} refused by the honest-workload gate: {e}",
                wl.name, wl.seed
            );
            return ExitCode::from(4);
        }
    };
    let prep_s = setup_started.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: {} seed {}: {} events, {} streams, {} bits, max stream search share {:.3} \
         (gate passed; reference built in {:.2} s)",
        wl.name,
        wl.seed,
        wl.events.len(),
        gate.streams,
        gate.bits_embedded,
        gate.max_stream_share,
        prep_s
    );
    let mut ops = Ops::default();
    let measure_started = Instant::now();
    let e = if o.trace {
        let t = traced(o, wl, work, &r, &gate, &mut ops);
        let report = closure_report(wl, &t);
        eprint!("{report}");
        let _ = std::fs::write(
            Path::new(".bench_out").join(format!("closure-{}-seed{}.txt", wl.name, wl.seed)),
            &report,
        );
        E2e {
            metrics: t.metrics,
            workers: t.workers,
            lateness_ms: Vec::new(),
            reps: CLOSURE_ROUNDS,
            ack_samples: 0,
            ack_p99_ms: None,
        }
    } else {
        match wl.kind {
            PathKind::Csv => csv_e2e(o, wl, work, &r, &mut ops),
            PathKind::Wmsd => wmsd_e2e(o, wl, work, &r, &mut ops),
        }
    };
    let measured_s = measure_started.elapsed().as_secs_f64();

    let meta = format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host_cpus\": {}, \
         \"resolved_workers\": {}, \"git_revision\": {}, \"source_digest\": {}, \
         \"build_profile\": \"release\", \"run_seconds\": {}, \"measured_s\": {}, \
         \"reference_s\": {}, \"repetitions\": {}, \"ack_samples\": {}, \"ack_p99_ms\": {}, \
         \"generator_lateness_p50_ms\": {}, \"generator_lateness_max_ms\": {}, \
         \"streams\": {}, \"events\": {}, \"error_share\": {}, \"failures\": [{}]}}}}",
        json_str(wl.name),
        wl.seed,
        o.trace as u8,
        host_cpus(),
        e.workers,
        json_str(&git_revision()),
        json_str(&source_digest()),
        o.seconds,
        json_num(measured_s),
        json_num(prep_s),
        e.reps,
        e.ack_samples,
        e.ack_p99_ms.map_or("null".into(), json_num),
        json_num(median(&e.lateness_ms).unwrap_or(0.0)),
        json_num(e.lateness_ms.iter().copied().fold(0.0, f64::max)),
        gate.streams,
        wl.events.len(),
        json_num(per(ops.failed as f64, ops.attempted as f64)),
        ops.notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{meta}");
    let metrics_json = e
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        metrics_json
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_counts_parse_from_engine_output() {
        let out = "engine: 100 events over 2 streams (2 workers); embedded 17 bits; wrote x\n\
                   stream 3: 50 items, 9 embedded, bias 9, confidence 0.99 — WATERMARK PRESENT\n\
                   stream 4: 50 items, 8 embedded, bias 1, confidence 0.5 — no watermark evidence\n";
        assert_eq!(
            parse_reported(out),
            Reported {
                bits: Some(17),
                present: 1,
                workers: Some(2),
            }
        );
    }
}
