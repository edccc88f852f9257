//! Daemon telemetry: the counters, gauges and histograms `wmsd`
//! maintains about its own protocol traffic.
//!
//! Same contract as the engine's metrics ([`wms_engine::metrics`]):
//! recording is always on (relaxed atomics, no allocation), exposition
//! is opt-in via a [`Registry`], and the canonical names are documented
//! in `DESIGN.md` §3.18 — the tests below fail the build when the table
//! and the code disagree, in either direction.

use crate::proto::{frame_type, nack};
use wms_telemetry::{Counter, Gauge, Histogram, Registry};

/// Canonical daemon metric names (the DESIGN.md §3.18 contract).
pub mod names {
    /// Client connections accepted.
    pub const CONNECTIONS: &str = "wms_daemon_connections_total";
    /// Frames received, labeled by frame type.
    pub const FRAMES: &str = "wms_daemon_frames_total";
    /// NACK frames sent, labeled by code name.
    pub const NACKS: &str = "wms_daemon_nacks_total";
    /// Batches refused under the shed overload policy.
    pub const SHEDS: &str = "wms_daemon_sheds_total";
    /// Batches that waited for queue space under the block policy.
    pub const BLOCKS: &str = "wms_daemon_blocks_total";
    /// Batch jobs in the reader→engine queue right now.
    pub const QUEUE_DEPTH: &str = "wms_daemon_queue_depth";
    /// Applied batches whose ACKs are still buffered.
    pub const INFLIGHT_ACKS: &str = "wms_daemon_inflight_acks";
    /// Wall-clock seconds per graceful drain.
    pub const DRAIN_SECONDS: &str = "wms_daemon_drain_seconds";
    /// Wall-clock seconds per periodic checkpoint write.
    pub const CHECKPOINT_WRITE_SECONDS: &str = "wms_daemon_checkpoint_write_seconds";
}

/// The daemon's metric handles: one instance per [`Server`] run, shared
/// (behind an `Arc`) by the reader threads and the engine thread.
///
/// [`Server`]: crate::Server
#[derive(Debug)]
pub struct DaemonMetrics {
    /// Client connections accepted.
    pub connections: Counter,
    /// `HELLO` frames received.
    pub frames_hello: Counter,
    /// `BATCH` frames received.
    pub frames_batch: Counter,
    /// `SHUTDOWN` frames received.
    pub frames_shutdown: Counter,
    /// `STATS` frames received.
    pub frames_stats: Counter,
    /// Frames of any other (unexpected) type received.
    pub frames_other: Counter,
    /// `BAD_FRAME` NACKs sent.
    pub nack_bad_frame: Counter,
    /// `UNSUPPORTED` NACKs sent.
    pub nack_unsupported: Counter,
    /// `OVERLOADED` NACKs sent.
    pub nack_overloaded: Counter,
    /// `DRAINING` NACKs sent.
    pub nack_draining: Counter,
    /// `STALE` NACKs sent.
    pub nack_stale: Counter,
    /// `GAP` NACKs sent.
    pub nack_gap: Counter,
    /// `ENGINE` NACKs sent.
    pub nack_engine: Counter,
    /// Batches refused under `--overload shed`.
    pub sheds: Counter,
    /// Batches that waited for queue space under `--overload block`.
    pub blocks: Counter,
    /// Batch jobs in the reader→engine queue right now.
    pub queue_depth: Gauge,
    /// Applied batches whose ACKs are still buffered in the inflight
    /// window.
    pub inflight_acks: Gauge,
    /// Wall-clock seconds per graceful drain.
    pub drain_seconds: Histogram,
    /// Wall-clock seconds per periodic checkpoint write.
    pub checkpoint_write_seconds: Histogram,
}

impl Default for DaemonMetrics {
    fn default() -> Self {
        DaemonMetrics::new()
    }
}

impl DaemonMetrics {
    /// Fresh handles; nothing is registered anywhere yet.
    pub fn new() -> DaemonMetrics {
        DaemonMetrics {
            connections: Counter::new(),
            frames_hello: Counter::new(),
            frames_batch: Counter::new(),
            frames_shutdown: Counter::new(),
            frames_stats: Counter::new(),
            frames_other: Counter::new(),
            nack_bad_frame: Counter::new(),
            nack_unsupported: Counter::new(),
            nack_overloaded: Counter::new(),
            nack_draining: Counter::new(),
            nack_stale: Counter::new(),
            nack_gap: Counter::new(),
            nack_engine: Counter::new(),
            sheds: Counter::new(),
            blocks: Counter::new(),
            queue_depth: Gauge::new(),
            inflight_acks: Gauge::new(),
            drain_seconds: Histogram::with_bounds(Histogram::duration_bounds()),
            checkpoint_write_seconds: Histogram::with_bounds(Histogram::duration_bounds()),
        }
    }

    /// Bumps the received-frame counter matching a wire type tag.
    pub fn frame(&self, ty: u8) {
        match ty {
            frame_type::HELLO => self.frames_hello.inc(),
            frame_type::BATCH => self.frames_batch.inc(),
            frame_type::SHUTDOWN => self.frames_shutdown.inc(),
            frame_type::STATS => self.frames_stats.inc(),
            _ => self.frames_other.inc(),
        }
    }

    /// Bumps the sent-NACK counter matching a [`nack`] code. Call at
    /// every point a `Frame::Nack` is encoded; unknown codes count as
    /// `bad_frame` (there is no way to send one today).
    pub fn nack(&self, code: u16) {
        match code {
            nack::UNSUPPORTED => self.nack_unsupported.inc(),
            nack::OVERLOADED => self.nack_overloaded.inc(),
            nack::DRAINING => self.nack_draining.inc(),
            nack::STALE => self.nack_stale.inc(),
            nack::GAP => self.nack_gap.inc(),
            nack::ENGINE => self.nack_engine.inc(),
            _ => self.nack_bad_frame.inc(),
        }
    }

    /// Registers every handle under its canonical name. Call once per
    /// registry.
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            names::CONNECTIONS,
            "Client connections accepted.",
            &[],
            &self.connections,
        );
        let frames = [
            ("hello", &self.frames_hello),
            ("batch", &self.frames_batch),
            ("shutdown", &self.frames_shutdown),
            ("stats", &self.frames_stats),
            ("other", &self.frames_other),
        ];
        for (ty, c) in frames {
            reg.register_counter(
                names::FRAMES,
                "Frames received, by frame type.",
                &[("type", ty)],
                c,
            );
        }
        let nacks = [
            ("bad_frame", &self.nack_bad_frame),
            ("unsupported", &self.nack_unsupported),
            ("overloaded", &self.nack_overloaded),
            ("draining", &self.nack_draining),
            ("stale", &self.nack_stale),
            ("gap", &self.nack_gap),
            ("engine", &self.nack_engine),
        ];
        for (code, c) in nacks {
            reg.register_counter(
                names::NACKS,
                "NACK frames sent, by code name.",
                &[("code", code)],
                c,
            );
        }
        reg.register_counter(
            names::SHEDS,
            "Batches refused under the shed overload policy.",
            &[],
            &self.sheds,
        );
        reg.register_counter(
            names::BLOCKS,
            "Batches that waited for queue space under the block policy.",
            &[],
            &self.blocks,
        );
        reg.register_gauge(
            names::QUEUE_DEPTH,
            "Batch jobs in the reader-to-engine queue right now.",
            &[],
            &self.queue_depth,
        );
        reg.register_gauge(
            names::INFLIGHT_ACKS,
            "Applied batches whose ACKs are still buffered.",
            &[],
            &self.inflight_acks,
        );
        reg.register_histogram(
            names::DRAIN_SECONDS,
            "Wall-clock seconds per graceful drain.",
            &[],
            &self.drain_seconds,
        );
        reg.register_histogram(
            names::CHECKPOINT_WRITE_SECONDS,
            "Wall-clock seconds per periodic checkpoint write.",
            &[],
            &self.checkpoint_write_seconds,
        );
    }

    /// Every canonical daemon metric name — the doc-check contract.
    pub fn metric_names() -> &'static [&'static str] {
        &[
            names::CONNECTIONS,
            names::FRAMES,
            names::NACKS,
            names::SHEDS,
            names::BLOCKS,
            names::QUEUE_DEPTH,
            names::INFLIGHT_ACKS,
            names::DRAIN_SECONDS,
            names::CHECKPOINT_WRITE_SECONDS,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renaming a daemon metric without updating the DESIGN.md §3.18
    /// reference table fails here.
    #[test]
    fn names_are_documented_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        for name in DaemonMetrics::metric_names() {
            assert!(
                design.contains(name),
                "metric {name} is not documented in DESIGN.md §3.18"
            );
        }
    }

    /// The reverse direction: every daemon name in a §3.18 table row is
    /// one this module registers.
    #[test]
    fn design_md_daemon_rows_are_registered() {
        let design = include_str!("../../../DESIGN.md");
        let rows: Vec<&str> = design
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split('`').next())
            .filter(|name| name.starts_with("wms_daemon_"))
            .collect();
        assert_eq!(rows.len(), DaemonMetrics::metric_names().len());
        for name in rows {
            assert!(
                DaemonMetrics::metric_names().contains(&name),
                "DESIGN.md §3.18 lists {name}, which the daemon does not register"
            );
        }
    }

    #[test]
    fn every_nack_code_routes_to_a_distinct_counter() {
        let m = DaemonMetrics::new();
        for code in [
            nack::BAD_FRAME,
            nack::UNSUPPORTED,
            nack::OVERLOADED,
            nack::DRAINING,
            nack::STALE,
            nack::GAP,
            nack::ENGINE,
        ] {
            m.nack(code);
        }
        for c in [
            &m.nack_bad_frame,
            &m.nack_unsupported,
            &m.nack_overloaded,
            &m.nack_draining,
            &m.nack_stale,
            &m.nack_gap,
            &m.nack_engine,
        ] {
            assert_eq!(c.get(), 1);
        }
    }

    #[test]
    fn register_into_exposes_every_series() {
        let m = DaemonMetrics::new();
        let reg = Registry::new();
        m.register_into(&reg);
        for want in DaemonMetrics::metric_names() {
            assert!(reg.names().iter().any(|n| n == want), "missing {want}");
        }
        m.frame(frame_type::BATCH);
        m.nack(nack::OVERLOADED);
        let text = reg.render();
        assert!(text.contains("wms_daemon_frames_total{type=\"batch\"} 1"));
        assert!(text.contains("wms_daemon_nacks_total{code=\"overloaded\"} 1"));
    }
}
