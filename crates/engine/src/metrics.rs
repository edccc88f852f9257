//! Engine telemetry: the counters, gauges and histograms the executor
//! maintains unconditionally.
//!
//! Recording is always on — every handle is a relaxed atomic
//! ([`wms_telemetry`]'s facade contract), so the hot path pays a couple
//! of `fetch_add`s per *batch* (never per sample) whether or not
//! anything scrapes. Exposition is opt-in: a front-end that wants the
//! numbers (the `wmsd` daemon, a bench harness) calls
//! [`EngineMetrics::register_into`] with its [`Registry`] and renders
//! from there.
//!
//! Metric names are part of the public interface: the full reference
//! table lives in `DESIGN.md` §3.18, and the tests below fail the build
//! when a name here is missing from that table or the table lists an
//! engine name this module does not register.

use wms_telemetry::{Counter, Gauge, Histogram, Registry};

/// Canonical engine metric names (the DESIGN.md §3.18 contract).
pub mod names {
    /// Batches accepted by `ingest`/`submit`.
    pub const BATCHES: &str = "wms_engine_batches_total";
    /// Events routed into shards.
    pub const ITEMS: &str = "wms_engine_items_total";
    /// Epochs whose outputs were collected.
    pub const EPOCHS_COLLECTED: &str = "wms_engine_epochs_collected_total";
    /// Published-but-unapplied sub-batches per shard ring.
    pub const RING_DEPTH: &str = "wms_engine_ring_depth";
    /// Highest ring occupancy seen per shard.
    pub const RING_HIGH_WATER: &str = "wms_engine_ring_high_water";
    /// Sessions hibernated to the spill store.
    pub const EVICTIONS: &str = "wms_engine_evictions_total";
    /// Hibernated sessions re-adopted on touch.
    pub const READOPTIONS: &str = "wms_engine_readoptions_total";
    /// Sessions currently materialized in shards.
    pub const RESIDENT_SESSIONS: &str = "wms_engine_resident_sessions";
    /// Sessions currently parked in the spill store.
    pub const SPILLED_SESSIONS: &str = "wms_engine_spilled_sessions";
    /// Spill log length in bytes (live + garbage).
    pub const SPILL_LOG_BYTES: &str = "wms_engine_spill_log_bytes";
    /// Bytes owned by live spill records.
    pub const SPILL_LIVE_BYTES: &str = "wms_engine_spill_live_bytes";
    /// Spill-log compactions performed.
    pub const SPILL_COMPACTIONS: &str = "wms_engine_spill_compactions_total";
    /// Wall-clock seconds per engine checkpoint.
    pub const CHECKPOINT_SECONDS: &str = "wms_engine_checkpoint_seconds";
}

/// The engine's metric handles. One instance per [`Engine`]
/// (`Engine::metrics` clones the `Arc` out); all fields are cheap
/// always-on atomics.
///
/// [`Engine`]: crate::Engine
#[derive(Debug)]
pub struct EngineMetrics {
    /// Batches accepted by `ingest`/`submit`.
    pub batches: Counter,
    /// Events routed into shards.
    pub items: Counter,
    /// Epochs whose outputs were collected.
    pub epochs_collected: Counter,
    /// Per-shard ring depth (published-but-unapplied sub-batches).
    pub ring_depth: Vec<Gauge>,
    /// Per-shard ring occupancy high-water mark.
    pub ring_high_water: Vec<Gauge>,
    /// Sessions hibernated to the spill store.
    pub evictions: Counter,
    /// Hibernated sessions re-adopted on touch.
    pub readoptions: Counter,
    /// Sessions currently materialized in shards.
    pub resident_sessions: Gauge,
    /// Sessions currently parked in the spill store.
    pub spilled_sessions: Gauge,
    /// Spill log length in bytes (live + garbage).
    pub spill_log_bytes: Gauge,
    /// Bytes owned by live spill records.
    pub spill_live_bytes: Gauge,
    /// Spill-log compactions performed.
    pub spill_compactions: Counter,
    /// Wall-clock seconds per engine checkpoint.
    pub checkpoint_seconds: Histogram,
}

impl EngineMetrics {
    /// Fresh handles for an engine with `shards` shards. Nothing is
    /// registered anywhere yet.
    pub fn new(shards: usize) -> EngineMetrics {
        EngineMetrics {
            batches: Counter::new(),
            items: Counter::new(),
            epochs_collected: Counter::new(),
            ring_depth: (0..shards).map(|_| Gauge::new()).collect(),
            ring_high_water: (0..shards).map(|_| Gauge::new()).collect(),
            evictions: Counter::new(),
            readoptions: Counter::new(),
            resident_sessions: Gauge::new(),
            spilled_sessions: Gauge::new(),
            spill_log_bytes: Gauge::new(),
            spill_live_bytes: Gauge::new(),
            spill_compactions: Counter::new(),
            checkpoint_seconds: Histogram::with_bounds(Histogram::duration_bounds()),
        }
    }

    /// Registers every handle under its canonical name (per-shard ring
    /// gauges carry a `shard` label). Call once per registry.
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            names::BATCHES,
            "Batches accepted by ingest/submit.",
            &[],
            &self.batches,
        );
        reg.register_counter(names::ITEMS, "Events routed into shards.", &[], &self.items);
        reg.register_counter(
            names::EPOCHS_COLLECTED,
            "Epochs whose outputs were collected.",
            &[],
            &self.epochs_collected,
        );
        for (i, g) in self.ring_depth.iter().enumerate() {
            reg.register_gauge(
                names::RING_DEPTH,
                "Published-but-unapplied sub-batches in the shard's ring.",
                &[("shard", &i.to_string())],
                g,
            );
        }
        for (i, g) in self.ring_high_water.iter().enumerate() {
            reg.register_gauge(
                names::RING_HIGH_WATER,
                "Highest ring occupancy seen on the shard.",
                &[("shard", &i.to_string())],
                g,
            );
        }
        reg.register_counter(
            names::EVICTIONS,
            "Sessions hibernated to the spill store.",
            &[],
            &self.evictions,
        );
        reg.register_counter(
            names::READOPTIONS,
            "Hibernated sessions re-adopted on touch.",
            &[],
            &self.readoptions,
        );
        reg.register_gauge(
            names::RESIDENT_SESSIONS,
            "Sessions currently materialized in shards.",
            &[],
            &self.resident_sessions,
        );
        reg.register_gauge(
            names::SPILLED_SESSIONS,
            "Sessions currently parked in the spill store.",
            &[],
            &self.spilled_sessions,
        );
        reg.register_gauge(
            names::SPILL_LOG_BYTES,
            "Spill log length in bytes, live and garbage.",
            &[],
            &self.spill_log_bytes,
        );
        reg.register_gauge(
            names::SPILL_LIVE_BYTES,
            "Bytes owned by live spill records.",
            &[],
            &self.spill_live_bytes,
        );
        reg.register_counter(
            names::SPILL_COMPACTIONS,
            "Spill-log compactions performed.",
            &[],
            &self.spill_compactions,
        );
        reg.register_histogram(
            names::CHECKPOINT_SECONDS,
            "Wall-clock seconds per engine checkpoint.",
            &[],
            &self.checkpoint_seconds,
        );
    }

    /// Every canonical engine metric name — the doc-check contract.
    pub fn metric_names() -> &'static [&'static str] {
        &[
            names::BATCHES,
            names::ITEMS,
            names::EPOCHS_COLLECTED,
            names::RING_DEPTH,
            names::RING_HIGH_WATER,
            names::EVICTIONS,
            names::READOPTIONS,
            names::RESIDENT_SESSIONS,
            names::SPILLED_SESSIONS,
            names::SPILL_LOG_BYTES,
            names::SPILL_LIVE_BYTES,
            names::SPILL_COMPACTIONS,
            names::CHECKPOINT_SECONDS,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names are interface: every one must appear in the
    /// DESIGN.md §3.18 reference table. Renaming a metric without
    /// updating the table fails here.
    #[test]
    fn names_are_documented_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        for name in EngineMetrics::metric_names() {
            assert!(
                design.contains(name),
                "metric {name} is not documented in DESIGN.md §3.18"
            );
        }
    }

    /// The reverse direction: every engine name in a §3.18 table row is
    /// one this module registers, so a deleted metric cannot linger in
    /// the contract.
    #[test]
    fn design_md_engine_rows_are_registered() {
        let design = include_str!("../../../DESIGN.md");
        let rows: Vec<&str> = design
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split('`').next())
            .filter(|name| name.starts_with("wms_engine_"))
            .collect();
        assert_eq!(rows.len(), EngineMetrics::metric_names().len());
        for name in rows {
            assert!(
                EngineMetrics::metric_names().contains(&name),
                "DESIGN.md §3.18 lists {name}, which the engine does not register"
            );
        }
    }

    #[test]
    fn register_into_exposes_every_name() {
        let m = EngineMetrics::new(2);
        let reg = Registry::new();
        m.register_into(&reg);
        let names = reg.names();
        for want in EngineMetrics::metric_names() {
            assert!(names.iter().any(|n| n == want), "missing {want}");
        }
        m.batches.inc();
        m.ring_depth[1].set(3);
        m.checkpoint_seconds.observe(0.002);
        let text = reg.render();
        assert!(text.contains("wms_engine_batches_total 1"));
        assert!(text.contains("wms_engine_ring_depth{shard=\"1\"} 3"));
        assert!(text.contains("wms_engine_checkpoint_seconds_count 1"));
    }
}
