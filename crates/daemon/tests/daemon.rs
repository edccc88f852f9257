//! In-process daemon lifecycle tests: the server and a WMSP client run
//! in the same test process (unix socket in a temp dir), proving the
//! tentpole invariants without spawning binaries:
//!
//! - socket-fed output is byte-identical to driving the [`Engine`]
//!   directly with the same batch schedule;
//! - a hard stop (in-process `kill -9` stand-in) followed by a resume +
//!   client replay converges to the exact same bytes;
//! - shedding under overload refuses batches with typed NACKs and the
//!   retried schedule still changes nothing;
//! - garbage and corrupted frames get typed `BAD_FRAME` NACKs and never
//!   disturb the engine.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{EmbedConfig, Scheme, Watermark, WmParams};
use wms_crypto::{Key, KeyedHash};
use wms_daemon::proto::batch_frame;
use wms_daemon::{
    BatchReply, Client, ClientError, DaemonConfig, DaemonError, Endpoint, Outcome, OverloadPolicy,
    SchemeIdentity, Server,
};
use wms_engine::{Engine, EngineConfig, Event, StreamId, StreamSpec};
use wms_stream::{samples_from_values, Sample};

const KEY: u64 = 4242;

fn params() -> WmParams {
    WmParams {
        window: 64,
        degree: 2,
        radius: 0.01,
        max_subset: 4,
        label_len: 3,
        label_stride: 1,
        min_active: Some(4),
        ..WmParams::default()
    }
}

fn scheme() -> Scheme {
    Scheme::new(params(), KeyedHash::md5(Key::from_u64(KEY))).unwrap()
}

fn embed_cfg() -> Arc<EmbedConfig> {
    Arc::new(
        EmbedConfig::new(
            scheme(),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .unwrap(),
    )
}

fn identity() -> SchemeIdentity {
    SchemeIdentity {
        encoder: "multihash".into(),
        wm_bits: Watermark::single(true).bits().to_vec(),
        params: format!("{:?}", params()),
        fingerprint: scheme().memo_fingerprint(),
    }
}

fn wave(n: usize, id: u64) -> Vec<Sample> {
    let period = 19.0 + (id % 7) as f64 * 4.0;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 + id as f64;
            0.3 * (t * core::f64::consts::TAU / period).sin()
                + 0.05 * (t * core::f64::consts::TAU / 7.0).sin()
        })
        .collect();
    samples_from_values(&values)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Round-robin-ish interleaving of three waveform streams.
fn fixture_events(per_stream: usize, seed: u64) -> Vec<Event> {
    let streams: Vec<(StreamId, Vec<Sample>)> = [3u64, 8, 21]
        .iter()
        .map(|&id| (StreamId(id), wave(per_stream, id)))
        .collect();
    let mut rng = seed;
    let mut cursors = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|(_, s)| s.len()).sum();
    let mut events = Vec::with_capacity(total);
    while events.len() < total {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| cursors[i] < streams[i].1.len())
            .collect();
        let pick = live[(splitmix(&mut rng) % live.len() as u64) as usize];
        let (id, samples) = &streams[pick];
        events.push(Event::new(*id, samples[cursors[pick]]));
        cursors[pick] += 1;
    }
    events
}

/// What the daemon's output file must contain for this batch schedule:
/// the same engine, driven directly.
fn expected_output(batches: &[&[Event]]) -> Vec<u8> {
    use std::fmt::Write as _;
    let cfg = embed_cfg();
    let mut engine = Engine::new(EngineConfig::with_workers(1)).unwrap();
    let mut registered = std::collections::HashSet::new();
    let mut out = String::from("# stream,value\n");
    for batch in batches {
        for e in *batch {
            if registered.insert(e.stream.0) {
                engine
                    .register(e.stream, StreamSpec::Embed(Arc::clone(&cfg)))
                    .unwrap();
            }
        }
        for o in engine.ingest(batch).unwrap() {
            for s in o.samples {
                writeln!(out, "{},{}", o.stream, s.value).unwrap();
            }
        }
    }
    for oc in engine.finish().unwrap() {
        for s in oc.tail {
            writeln!(out, "{},{}", oc.stream, s.value).unwrap();
        }
    }
    out.into_bytes()
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("wmsd-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    fn path(&self, f: &str) -> PathBuf {
        self.0.join(f)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_config(scratch: &Scratch) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(
        Endpoint::Unix(scratch.path("wmsd.sock")),
        scratch.path("out.csv"),
        EngineConfig::with_workers(1),
        embed_cfg(),
        identity(),
    );
    cfg.idle_timeout = Duration::from_secs(10);
    cfg
}

fn start(
    cfg: DaemonConfig,
) -> (
    Endpoint,
    std::thread::JoinHandle<Result<wms_daemon::RunReport, DaemonError>>,
) {
    let ep = cfg.endpoint.clone();
    let server = Server::bind(cfg).expect("bind");
    let handle = std::thread::spawn(move || server.run());
    (ep, handle)
}

fn connect(ep: &Endpoint) -> (Client, wms_daemon::Greeting) {
    Client::connect_retry(ep, "lifecycle-test", Duration::from_secs(5)).expect("connect")
}

#[test]
fn socket_roundtrip_matches_direct_engine() {
    let scratch = Scratch::new("roundtrip");
    let events = fixture_events(220, 11);
    let batches: Vec<&[Event]> = events.chunks(64).collect();
    let expected = expected_output(&batches);

    let (ep, handle) = start(base_config(&scratch));
    let (mut client, greeting) = connect(&ep);
    assert_eq!(greeting.acked_seq, 0);
    assert_eq!(greeting.fingerprint, identity().fingerprint);
    for (i, batch) in batches.iter().enumerate() {
        match client.send_batch((i + 1) as u64, batch).expect("send") {
            BatchReply::Acked { .. } => {}
            other => panic!("batch {} refused: {other:?}", i + 1),
        }
    }
    let (streams, tail_rows) = client.drain().expect("drain");
    assert_eq!(streams, 3);
    let report = handle.join().unwrap().expect("server run");
    assert_eq!(report.outcome, Outcome::Drained);
    assert_eq!(report.batches, batches.len() as u64);
    assert_eq!(report.events, events.len() as u64);
    assert!(tail_rows > 0, "windowed embedding always holds back a tail");

    let got = std::fs::read(scratch.path("out.csv")).unwrap();
    assert_eq!(
        got, expected,
        "daemon output differs from direct engine run"
    );
}

#[test]
fn hard_stop_and_resume_reconverge_byte_identically() {
    let scratch = Scratch::new("resume");
    let events = fixture_events(220, 23);
    let batches: Vec<&[Event]> = events.chunks(48).collect();
    assert!(batches.len() >= 6, "fixture must outlive the hard stop");
    let expected = expected_output(&batches);

    // Phase 1: checkpoint every 2 batches, hard-stop after 5 (so the
    // last durable state is batch 4; batch 5's rows die with the run).
    let mut cfg = base_config(&scratch);
    cfg.checkpoint = Some(scratch.path("daemon.ck"));
    cfg.checkpoint_every = 2;
    cfg.hard_stop_after = 5;
    let (ep, handle) = start(cfg);
    let (mut client, greeting) = connect(&ep);
    assert_eq!(greeting.acked_seq, 0);
    for (i, batch) in batches.iter().enumerate() {
        match client.send_batch((i + 1) as u64, batch) {
            Ok(BatchReply::Acked { .. }) => continue,
            // The stop can surface as a DRAINING NACK or a torn socket.
            Ok(BatchReply::Draining) | Err(_) => break,
            Ok(other) => panic!("unexpected reply: {other:?}"),
        }
    }
    let report = handle.join().unwrap().expect("server run");
    assert_eq!(report.outcome, Outcome::HardStopped);
    assert_eq!(report.batches, 5);

    // Phase 2: resume. The daemon re-advertises acked_seq = 4; the
    // client replays its whole journal — stale batches are refused
    // (idempotent replay), the rest are applied — then drains.
    let mut cfg = base_config(&scratch);
    cfg.checkpoint = Some(scratch.path("daemon.ck"));
    cfg.checkpoint_every = 2;
    cfg.resume = true;
    let (ep, handle) = start(cfg);
    let (mut client, greeting) = connect(&ep);
    assert_eq!(greeting.acked_seq, 4, "last durable checkpoint was batch 4");
    let mut stale = 0;
    for (i, batch) in batches.iter().enumerate() {
        match client.send_batch((i + 1) as u64, batch).expect("send") {
            BatchReply::Acked { .. } => {}
            BatchReply::Stale => stale += 1,
            other => panic!("batch {} refused: {other:?}", i + 1),
        }
    }
    assert_eq!(stale, 4, "replayed batches up to the checkpoint are stale");
    client.drain().expect("drain");
    let report = handle.join().unwrap().expect("server run");
    assert_eq!(report.outcome, Outcome::Drained);
    assert_eq!(report.stale, 4);

    let got = std::fs::read(scratch.path("out.csv")).unwrap();
    assert_eq!(
        got, expected,
        "kill + resume + replay must be byte-identical to one uninterrupted run"
    );
}

#[test]
fn resume_refuses_mismatched_identity() {
    let scratch = Scratch::new("identity");
    let events = fixture_events(120, 3);
    let batches: Vec<&[Event]> = events.chunks(40).collect();

    let mut cfg = base_config(&scratch);
    cfg.checkpoint = Some(scratch.path("daemon.ck"));
    cfg.checkpoint_every = 1;
    cfg.hard_stop_after = 2;
    let (ep, handle) = start(cfg);
    let (mut client, _) = connect(&ep);
    for (i, batch) in batches.iter().enumerate() {
        if client.send_batch((i + 1) as u64, batch).is_err() {
            break;
        }
    }
    handle.join().unwrap().expect("server run");

    // Same checkpoint, different watermark text: refused as corrupt
    // persisted state (exit-code class 5), not silently re-marked.
    let mut cfg = base_config(&scratch);
    cfg.checkpoint = Some(scratch.path("daemon.ck"));
    cfg.resume = true;
    cfg.identity.wm_bits = Watermark::from_text("other owner").bits().to_vec();
    match Server::bind(cfg) {
        Err(e @ DaemonError::Corrupt(_)) => assert_eq!(e.exit_code(), 5),
        Err(e) => panic!("expected Corrupt refusal, got {e:?}"),
        Ok(_) => panic!("expected Corrupt refusal, bind succeeded"),
    }
}

#[test]
fn shed_policy_nacks_overload_and_retry_changes_nothing() {
    let scratch = Scratch::new("shed");
    let events = fixture_events(80, 7);
    // Six one-batch slices of 40 events each.
    let batches: Vec<&[Event]> = events.chunks(40).collect();
    let expected = expected_output(&batches);

    let mut cfg = base_config(&scratch);
    cfg.overload = OverloadPolicy::Shed;
    cfg.queue_depth = 1;
    cfg.ingest_delay = Duration::from_millis(60);
    let (ep, handle) = start(cfg);
    let (mut client, _) = connect(&ep);

    // Flood: fire every batch without waiting. The engine is busy
    // (ingest_delay), the queue holds one batch, so later frames must
    // come back as typed OVERLOADED NACKs — never silent drops.
    for (i, batch) in batches.iter().enumerate() {
        client
            .write_raw(&batch_frame((i + 1) as u64, batch))
            .expect("write");
    }
    let mut acked = std::collections::HashSet::new();
    let mut shed = Vec::new();
    for _ in 0..batches.len() {
        let (seq, reply) = client.read_reply().expect("reply");
        match reply {
            BatchReply::Acked { .. } => {
                acked.insert(seq);
            }
            BatchReply::Shed => shed.push(seq),
            other => panic!("unexpected reply for {seq}: {other:?}"),
        }
    }
    assert!(!shed.is_empty(), "flood past a depth-1 queue must shed");

    // Retry every shed batch in order until the whole schedule landed.
    shed.sort_unstable();
    for seq in shed {
        loop {
            match client
                .send_batch(seq, batches[(seq - 1) as usize])
                .expect("retry")
            {
                BatchReply::Acked { .. } | BatchReply::Stale => break,
                BatchReply::Shed => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("retry of {seq} refused: {other:?}"),
            }
        }
    }
    client.drain().expect("drain");
    let report = handle.join().unwrap().expect("server run");
    assert!(report.shed >= 1);
    assert_eq!(report.batches, batches.len() as u64);

    let got = std::fs::read(scratch.path("out.csv")).unwrap();
    assert_eq!(
        got, expected,
        "overload shedding + retries must not change a single output byte"
    );
}

/// Teardown must not cut off replies still queued for a slow reader:
/// the client pipes 400 `STATS` requests without reading, so the
/// server's writer blocks on a full socket, then asks for a drain and
/// keeps not reading while the engine finishes and the server tears
/// down. Every `STATS_OK` and then the `SHUTDOWN_OK` must still arrive.
#[test]
fn teardown_flushes_every_queued_reply_to_a_slow_reader() {
    use wms_daemon::proto::{Frame, FrameDecoder};

    let scratch = Scratch::new("teardown");
    let (ep, handle) = start(base_config(&scratch));
    let (mut client, _) = connect(&ep);
    const REQUESTS: usize = 400;
    for _ in 0..REQUESTS {
        client
            .write_raw(&Frame::Stats.encode())
            .expect("write stats");
    }
    client
        .write_raw(&Frame::Shutdown.encode())
        .expect("write shutdown");
    std::thread::sleep(Duration::from_millis(600));

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let mut stats_ok = 0usize;
    let conn = client.conn_mut();
    let shutdown_ok = loop {
        match dec.try_frame().expect("decode") {
            Some(Frame::StatsOk { .. }) => stats_ok += 1,
            Some(f @ Frame::ShutdownOk { .. }) => break f,
            Some(other) => panic!("unexpected frame after {stats_ok} STATS_OK: {other:?}"),
            None => {
                let n = std::io::Read::read(conn, &mut buf).expect("read");
                assert!(
                    n > 0,
                    "server closed after {stats_ok} of {REQUESTS} STATS_OK, before SHUTDOWN_OK"
                );
                dec.push(&buf[..n]);
            }
        }
    };
    assert_eq!(
        stats_ok, REQUESTS,
        "every STATS_OK precedes {shutdown_ok:?}"
    );
    let report = handle.join().unwrap().expect("server run");
    assert_eq!(report.outcome, Outcome::Drained);
}

#[test]
fn malformed_frames_get_typed_nacks_and_do_not_disturb_the_engine() {
    let scratch = Scratch::new("badframe");
    let events = fixture_events(100, 5);
    let batches: Vec<&[Event]> = events.chunks(50).collect();
    let expected = expected_output(&batches);

    let (ep, handle) = start(base_config(&scratch));

    // Connection 1: raw garbage. Expect a BAD_FRAME NACK, then close.
    let (mut vandal, _) = connect(&ep);
    vandal.write_raw(b"GARBAGE!").expect("write");
    match vandal.read_reply() {
        Err(ClientError::Nack { code: 1, detail }) => {
            assert!(detail.contains("magic"), "detail: {detail}")
        }
        other => panic!("expected BAD_FRAME nack, got {other:?}"),
    }

    // Connection 2: a bit-flipped batch frame. Typed NACK again — the
    // CRC catches it before the engine ever sees the batch.
    let (mut vandal, _) = connect(&ep);
    let mut frame = batch_frame(1, batches[0]);
    let mid = frame.len() / 2;
    frame[mid] ^= 0x20;
    vandal.write_raw(&frame).expect("write");
    match vandal.read_reply() {
        Err(ClientError::Nack { code: 1, .. }) => {}
        other => panic!("expected BAD_FRAME nack, got {other:?}"),
    }

    // Connection 3: an honest client proceeds as if nothing happened.
    let (mut client, greeting) = connect(&ep);
    assert_eq!(greeting.acked_seq, 0, "no vandal batch was applied");
    for (i, batch) in batches.iter().enumerate() {
        match client.send_batch((i + 1) as u64, batch).expect("send") {
            BatchReply::Acked { .. } => {}
            other => panic!("batch refused: {other:?}"),
        }
    }
    client.drain().expect("drain");
    handle.join().unwrap().expect("server run");

    let got = std::fs::read(scratch.path("out.csv")).unwrap();
    assert_eq!(
        got, expected,
        "injected faults must not change output bytes"
    );
}
