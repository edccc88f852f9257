//! The benchmark's workloads: seeded input generators, the `wms` flags
//! each path runs with, and the honest-workload gate.
//!
//! Every input is a pure function of the workload name and the seed; the
//! program under test only ever sees the generated CSV file (csv-*) or
//! the generated WMSP batch schedule (wmsd-*).

use wms_core::{EmbedStats, WmParams};
use wms_engine::{Event, StreamId};
use wms_math::DetRng;
use wms_stream::Sample;

/// Which shipped end-to-end path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// CSV file → `wms engine` → CSV file.
    Csv,
    /// Load generator → `wms daemon` over loopback TCP → output file.
    Wmsd,
}

/// The scheme flags a workload passes to `wms`, kept in one place so the
/// in-process reference parses to exactly the parameters the CLI does.
#[derive(Debug, Clone)]
pub struct SchemeFlags {
    pub window: Option<usize>,
    pub degree: usize,
    pub radius: f64,
    pub max_subset: usize,
    pub label_len: usize,
    pub min_active: Option<usize>,
}

impl SchemeFlags {
    /// The `WmParams` the CLI's parameter parser builds from these flags
    /// (its own defaults first: δ = 0.01, ν = 10, λ = 5, β′ = 2).
    pub fn params(&self) -> WmParams {
        let mut p = WmParams {
            radius: self.radius,
            degree: self.degree,
            label_len: self.label_len,
            label_msb_bits: 2,
            max_subset: self.max_subset,
            min_active: self.min_active,
            ..WmParams::default()
        };
        if let Some(w) = self.window {
            p.window = w;
        }
        p.validate().expect("workload scheme flags are valid");
        p
    }

    /// The same parameters as `wms` command-line flags.
    pub fn args(&self) -> Vec<String> {
        let mut a = vec![
            "--degree".to_string(),
            self.degree.to_string(),
            "--radius".to_string(),
            self.radius.to_string(),
            "--max-subset".to_string(),
            self.max_subset.to_string(),
            "--label-len".to_string(),
            self.label_len.to_string(),
        ];
        if let Some(w) = self.window {
            a.extend(["--window".to_string(), w.to_string()]);
        }
        if let Some(m) = self.min_active {
            a.extend(["--min-active".to_string(), m.to_string()]);
        }
        a
    }
}

/// Session-residency settings of a budgeted csv workload.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `--max-resident`.
    pub max_resident: usize,
    /// `--checkpoint-every` (in batches).
    pub checkpoint_every: usize,
}

/// One generated workload instance.
pub struct Workload {
    pub name: &'static str,
    pub kind: PathKind,
    pub seed: u64,
    /// `--key` (numeric).
    pub key: u64,
    pub scheme: SchemeFlags,
    /// Per-stream min-max normalization (`--normalize fit`).
    pub normalize: bool,
    /// csv-*: `--batch` (the CLI default); wmsd-*: events per WMSP batch.
    pub batch: usize,
    pub budget: Option<Budget>,
    /// Every input event in wire order.
    pub events: Vec<Event>,
    /// wmsd-*: batches in the fixed-rate phase (the rest are the
    /// saturation phase).
    pub fixed_batches: usize,
}

pub const NAMES: [&str; 3] = ["csv-embed-64", "csv-fleet-2k", "wmsd-stream-16"];

/// SplitMix64 finalizer: spreads a small seed over 64 bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The watermarking key (`--key`). Fixed across seeds: which value
/// classes the keyed selection criterion picks depends on the key alone,
/// so a per-seed key would swing the embedded-bit count by a factor of
/// three between seeds; the seed varies the signals instead.
const KEY: u64 = 3_203_239;

/// Seeded per-stream phase offsets in `[0, 1)` periods.
fn phases(seed: u64, salt: u64) -> DetRng {
    DetRng::seed_from_u64(mix(seed ^ salt))
}

/// A two-tone wave: `A·sin(2π(i+φ)/P) + 0.15·A·sin(2πi/17)`.
fn two_tone(i: usize, period: f64, amp: f64, phase: f64) -> f64 {
    let t = i as f64;
    amp * (std::f64::consts::TAU * (t + phase) / period).sin()
        + 0.15 * amp * (std::f64::consts::TAU * t / 17.0).sin()
}

/// Row-major interleaving of `streams` × `rows` events.
fn interleave(ids: &[u64], rows: usize, value: impl Fn(u64, usize) -> f64) -> Vec<Event> {
    let mut events = Vec::with_capacity(ids.len() * rows);
    for i in 0..rows {
        for &id in ids {
            events.push(Event::new(
                StreamId(id),
                Sample::new(i as u64, value(id, i)),
            ));
        }
    }
    events
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "csv-embed-64" => Some(csv_embed_64(seed)),
        "csv-fleet-2k" => Some(csv_fleet_2k(seed)),
        "wmsd-stream-16" => Some(wmsd_stream_16(seed)),
        _ => None,
    }
}

/// `csv-embed-64` — 64 interleaved streams × 4000 rows through `wms
/// engine --normalize fit` with default (auto) workers and multi-hash.
///
/// Why: the watermark compute — subset search and keyed hashing — is
/// the dominant cost (about 90% of the job: the same run under the
/// constant-time initial encoding takes a tenth of the time), shared by
/// the shard workers. Each stream is a phase/amplitude/period variant of
/// a two-tone wave, so every stream carries marks and no single stream
/// dominates the search. The socket and the spill log do no work here.
fn csv_embed_64(seed: u64) -> Workload {
    let ids: Vec<u64> = (1..=64).collect();
    let mut rng = phases(seed, 0xe64);
    let offset: Vec<f64> = ids.iter().map(|_| rng.next_f64()).collect();
    let events = interleave(&ids, 4000, |s, i| {
        let period = 40 + (7 * s) % 61;
        let amp = 2 + s % 5;
        // A non-integer period share keeps extreme values drifting, so
        // no stream repeats the same few (unselected) extremes forever.
        let period = period as f64 + (s as f64 * 0.618_034).fract();
        let phase = (13 * s) as f64 + offset[s as usize - 1] * period;
        10.0 * s as f64 + two_tone(i, period, amp as f64, phase)
    });
    Workload {
        name: "csv-embed-64",
        kind: PathKind::Csv,
        seed,
        key: KEY,
        scheme: SchemeFlags {
            window: None,
            degree: 3,
            radius: 0.01,
            max_subset: 4,
            label_len: 4,
            min_active: None,
        },
        normalize: true,
        batch: 1024,
        budget: None,
        events,
        fixed_batches: 0,
    }
}

/// Hot streams in `csv-fleet-2k` and their share of the rows.
const FLEET_STREAMS: usize = 2048;
const FLEET_HOT: usize = 128;
const FLEET_HOT_ROWS: usize = 640;
const FLEET_COLD_ROWS: usize = 256;
/// Readings per upload burst (a sensor ships a few readings at a time).
const FLEET_BURST: usize = 16;

/// `csv-fleet-2k` — 2048 streams with skewed traffic (a hot set of 128
/// streams plus a long cold tail; 16-reading upload bursts interleaved
/// in seeded random order), small-window parameters, under
/// `--max-resident 512` with a `--spill` file and `--checkpoint-every`.
/// The wider radius (δ = 0.03) and two-major labels let a cold stream's
/// 256 readings carry a mark the verification pass reads as PRESENT.
///
/// Why: it uses the engine layer differently from `csv-embed-64`. Each
/// item costs routing, session eviction writes beside re-adoption
/// reads, checkpoint writes and CSV work, while the search is small. A
/// routing or registry change that helps `csv-embed-64` but slows
/// hibernation shows up here.
fn csv_fleet_2k(seed: u64) -> Workload {
    let mut rng = phases(seed, 0xf1ee7);
    let ids: Vec<u64> = (1..=FLEET_STREAMS as u64).collect();
    let offset: Vec<f64> = ids.iter().map(|_| rng.next_f64()).collect();
    let mut hot = vec![false; FLEET_STREAMS];
    let mut order: Vec<usize> = (0..FLEET_STREAMS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below_usize(i + 1));
    }
    for &k in &order[..FLEET_HOT] {
        hot[k] = true;
    }
    // Each slot is one upload burst of FLEET_BURST readings.
    let mut slots: Vec<u64> = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        let rows = if hot[k] {
            FLEET_HOT_ROWS
        } else {
            FLEET_COLD_ROWS
        };
        slots.extend(std::iter::repeat_n(id, rows / FLEET_BURST));
    }
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below_usize(i + 1));
    }
    let mut next = vec![0usize; FLEET_STREAMS + 1];
    let events = slots
        .into_iter()
        .flat_map(|s| std::iter::repeat_n(s, FLEET_BURST))
        .map(|s| {
            let i = next[s as usize];
            next[s as usize] += 1;
            let period = 15.0 + ((5 * s) % 7) as f64 + (s as f64 * 0.618_034).fract();
            let amp = (2 + s % 5) as f64;
            let phase = offset[s as usize - 1] * period;
            let v = 10.0 * (s % 1000) as f64 + two_tone(i, period, amp, phase);
            Event::new(StreamId(s), Sample::new(i as u64, v))
        })
        .collect();
    Workload {
        name: "csv-fleet-2k",
        kind: PathKind::Csv,
        seed,
        key: KEY,
        scheme: SchemeFlags {
            window: Some(64),
            degree: 2,
            radius: 0.03,
            max_subset: 4,
            label_len: 2,
            min_active: Some(4),
        },
        normalize: true,
        batch: 1024,
        budget: Some(Budget {
            max_resident: 512,
            checkpoint_every: 64,
        }),
        events,
        fixed_batches: 0,
    }
}

/// `wmsd-stream-16` — `wms daemon` (default workers, a checkpoint file,
/// loopback TCP) fed raw small-amplitude waves for 16 streams in
/// 256-event WMSP batches: first an open loop at a fixed offered rate
/// (ACK latency), then a closed-loop pipelined saturation run
/// (throughput).
///
/// Why: per-item compute is small, so WMSP encode/CRC/decode, the
/// socket, the daemon queue and the ACK path dominate; search and spill
/// barely run. The periods are non-integer so extreme values keep
/// changing and every stream meets the selection criterion; the seed
/// sets each stream's phase.
fn wmsd_stream_16(seed: u64) -> Workload {
    let ids: Vec<u64> = (0..16u64).map(|k| 1 + 3 * k).collect();
    let mut rng = phases(seed, 0xd);
    let offset: Vec<f64> = ids.iter().map(|_| rng.next_f64()).collect();
    let batch = 256;
    let fixed_batches = 1000;
    let sat_batches = 6000;
    let rows = (fixed_batches + sat_batches) * batch / ids.len();
    let events = interleave(&ids, rows, |id, i| {
        let period = 19.0 + (id % 7) as f64 * 4.0 + (id as f64 * 0.618_034).fract();
        let t = i as f64 + offset[(id as usize - 1) / 3] * period;
        0.3 * (t * std::f64::consts::TAU / period).sin()
            + 0.05 * (t * std::f64::consts::TAU / 7.0).sin()
    });
    Workload {
        name: "wmsd-stream-16",
        kind: PathKind::Wmsd,
        seed,
        key: KEY,
        // testkit::test_params as far as the CLI can express it (the CLI
        // fixes β′ = 2 and ϱ = 2).
        scheme: SchemeFlags {
            window: Some(64),
            degree: 2,
            radius: 0.01,
            max_subset: 4,
            label_len: 3,
            min_active: Some(4),
        },
        normalize: false,
        batch,
        budget: None,
        events,
        fixed_batches,
    }
}

impl Workload {
    /// The input as the `stream,value` CSV the CLI reads.
    pub fn csv_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 24);
        out.push_str("# stream,value\n");
        for e in &self.events {
            writeln!(out, "{},{}", e.stream, e.sample.value).expect("string write");
        }
        out
    }
}

/// Per-stream result of the reference run: what the gate inspects.
#[derive(Debug, Clone)]
pub struct StreamResult {
    pub stream: StreamId,
    pub stats: EmbedStats,
    pub bias: i64,
}

impl StreamResult {
    /// The CLI's verdict rule (`bias > 3` ⇒ `WATERMARK PRESENT`).
    pub fn present(&self) -> bool {
        self.bias > 3
    }
}

/// What the gate measured on an accepted workload.
#[derive(Debug, Clone, Copy)]
pub struct GateReport {
    pub streams: usize,
    pub bits_embedded: u64,
    /// Largest single stream's share of all search iterations.
    pub max_stream_share: f64,
}

/// The honest-workload gate: every stream the workload counts embeds at
/// least one bit and gets a PRESENT verdict. Returns the reason on
/// refusal.
pub fn gate(results: &[StreamResult]) -> Result<GateReport, String> {
    if results.is_empty() {
        return Err("workload has no streams".into());
    }
    let bad: Vec<String> = results
        .iter()
        .filter(|r| r.stats.embedded == 0 || !r.present())
        .map(|r| format!("{} ({} bits, bias {})", r.stream, r.stats.embedded, r.bias))
        .collect();
    if !bad.is_empty() {
        return Err(format!(
            "{} of {} streams embed no bits or miss a PRESENT verdict: {}",
            bad.len(),
            results.len(),
            bad.iter().take(8).cloned().collect::<Vec<_>>().join(", ")
        ));
    }
    let iterations: u64 = results.iter().map(|r| r.stats.total_iterations).sum();
    let max = results
        .iter()
        .map(|r| r.stats.total_iterations)
        .max()
        .unwrap_or(0);
    Ok(GateReport {
        streams: results.len(),
        bits_embedded: results.iter().map(|r| r.stats.embedded).sum(),
        max_stream_share: if iterations == 0 {
            0.0
        } else {
            max as f64 / iterations as f64
        },
    })
}
