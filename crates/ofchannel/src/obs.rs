//! Bridge from [`ChannelCounters`](crate::counters::ChannelCounters) to the
//! workspace observability hub.
//!
//! The sessions already keep lock-free counters per endpoint;
//! [`ChannelObs`] registers matching metrics against an [`obs::Registry`]
//! and advances them to a [`CountersSnapshot`] on demand (pull model — call
//! [`ChannelObs::publish`] from whatever cadence the harness uses, e.g. each
//! poll loop). Monotonic totals become [`obs::Counter`]s, so Prometheus
//! `rate()` works on them; the queue high-water mark is a gauge. Unlike the
//! simulated layers these values advance on the real clock, so they are
//! excluded from determinism-gated timelines and serve live-mode dashboards
//! instead.

use crate::counters::CountersSnapshot;

/// Reads one monotonic total out of a snapshot.
type Total = fn(&CountersSnapshot) -> u64;

/// The monotonic totals of a [`CountersSnapshot`], by metric name.
const TOTALS: [(&str, Total); 12] = [
    ("frames_in", |s| s.frames_in),
    ("frames_out", |s| s.frames_out),
    ("bytes_in", |s| s.bytes_in),
    ("bytes_out", |s| s.bytes_out),
    ("decode_errors", |s| s.decode_errors),
    ("reconnects", |s| s.reconnects),
    ("connect_failures", |s| s.connect_failures),
    ("sends_blocked", |s| s.sends_blocked),
    ("keepalive_timeouts", |s| s.keepalive_timeouts),
    ("resyncs", |s| s.resyncs),
    ("frames_replayed", |s| s.frames_replayed),
    ("budget_exhausted", |s| s.budget_exhausted),
];

/// Obs metrics for one endpoint's transport counters.
#[derive(Debug, Clone)]
pub struct ChannelObs {
    totals: Vec<obs::Counter>,
    send_queue_hwm: obs::Gauge,
}

impl ChannelObs {
    /// Registers metrics named `<prefix>.frames_in`, `<prefix>.reconnects`
    /// etc. against `registry`. Use a distinct prefix per endpoint (e.g.
    /// `"ofchannel.switch"` / `"ofchannel.ctrl"`).
    pub fn new(registry: &obs::Registry, prefix: &str) -> ChannelObs {
        ChannelObs {
            totals: TOTALS
                .iter()
                .map(|(name, _)| registry.counter(&format!("{prefix}.{name}")))
                .collect(),
            send_queue_hwm: registry.gauge(&format!("{prefix}.send_queue_hwm")),
        }
    }

    /// Advances the registered metrics to `snap`.
    pub fn publish(&self, snap: &CountersSnapshot) {
        for (counter, (_, total)) in self.totals.iter().zip(TOTALS) {
            counter.add(total(snap).saturating_sub(counter.get()));
        }
        self.send_queue_hwm.set(snap.send_queue_hwm as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_snapshot_into_registry() {
        let hub = obs::Obs::new();
        let bridge = ChannelObs::new(&hub.registry, "ofchannel.switch");
        let snap = CountersSnapshot {
            frames_in: 7,
            frames_out: 3,
            bytes_in: 700,
            bytes_out: 120,
            sends_blocked: 2,
            send_queue_hwm: 9,
            reconnects: 1,
            ..CountersSnapshot::default()
        };
        bridge.publish(&snap);
        assert_eq!(hub.registry.counter("ofchannel.switch.frames_in").get(), 7);
        assert_eq!(
            hub.registry.gauge("ofchannel.switch.send_queue_hwm").get(),
            9.0
        );
        assert_eq!(hub.registry.counter("ofchannel.switch.reconnects").get(), 1);
        // One metric per snapshot field was registered.
        assert_eq!(hub.registry.len(), 13);

        // Publishing again advances to the new totals instead of adding
        // them, and a repeated snapshot changes nothing.
        let later = CountersSnapshot {
            frames_in: 10,
            ..snap
        };
        bridge.publish(&later);
        bridge.publish(&later);
        assert_eq!(hub.registry.counter("ofchannel.switch.frames_in").get(), 10);
        assert_eq!(hub.registry.counter("ofchannel.switch.frames_out").get(), 3);
    }
}
