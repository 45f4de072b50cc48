//! Timing shims for the traced runs.
//!
//! Each shim wraps one implementation of a seam the program already exposes
//! — [`ControlPlane`] (taken by `Simulation::set_control_plane` and
//! `ControllerEndpoint::spawn`) and [`DataPlaneDevice`] (taken by
//! `Simulation::attach_device` and `SwitchEndpoint::spawn`) — forwards every
//! call unchanged, and records how long the wrapped call took. Nothing is
//! instrumented inside the crates.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use netsim::iface::{
    ControlOutput, ControlPlane, DataPlaneDevice, DeviceId, DeviceOutput, Telemetry,
};
use netsim::packet::Packet;
use ofproto::messages::{FeaturesReply, OfMessage};
use ofproto::types::DatapathId;

use crate::stats::Report;

/// Messages kept per direction for the codec timing.
const MESSAGE_SAMPLE: usize = 2000;

/// Durations of the calls one control-plane shim forwarded, in ns.
#[derive(Debug, Default)]
pub struct ControlLog {
    /// `on_message` (packet_in and other switch messages).
    pub on_message: Vec<u64>,
    /// `on_device_message` (the cache re-raising packet_ins).
    pub on_device_message: Vec<u64>,
    /// `on_telemetry` (detector and FSM step).
    pub on_telemetry: Vec<u64>,
    /// Total ns of every other call (connects, ticks, disconnects).
    pub other_ns: u64,
    /// Number of those other calls.
    pub other_calls: u64,
    /// First messages the control plane received.
    pub received: Vec<OfMessage>,
    /// First messages the control plane sent.
    pub sent: Vec<OfMessage>,
}

impl ControlLog {
    /// Calls forwarded to the wrapped control plane.
    pub fn calls(&self) -> u64 {
        (self.on_message.len() + self.on_device_message.len() + self.on_telemetry.len()) as u64
            + self.other_calls
    }

    /// Total ns spent inside the wrapped control plane.
    pub fn total_ns(&self) -> u64 {
        [
            &self.on_message,
            &self.on_device_message,
            &self.on_telemetry,
        ]
        .iter()
        .map(|v| v.iter().sum::<u64>())
        .sum::<u64>()
            + self.other_ns
    }
}

/// Durations of the calls one device shim forwarded.
#[derive(Debug, Default)]
pub struct DeviceLog {
    /// ns per packet handed to the device (batched deliveries are split
    /// evenly over their packets).
    pub per_packet: Vec<u64>,
    /// `on_tick` calls, ns.
    pub on_tick: Vec<u64>,
    /// Total ns inside the device.
    pub total_ns: u64,
    /// Calls other than packets and ticks (messages, crash, restart).
    pub other_calls: u64,
}

impl DeviceLog {
    /// Calls forwarded to the wrapped device, counting each packet of a
    /// batch as one.
    pub fn calls(&self) -> u64 {
        (self.per_packet.len() + self.on_tick.len()) as u64 + self.other_calls
    }
}

/// Shared handle to a shim's log.
pub type Shared<T> = Arc<Mutex<T>>;

/// Locks a log; a poisoned lock means a shim panicked, which the run
/// reports by panicking too.
pub fn lock<T>(log: &Shared<T>) -> MutexGuard<'_, T> {
    log.lock().expect("trace log poisoned by a panicking shim")
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`ControlPlane`] that times every call into `inner`.
pub struct TimedControl<C> {
    inner: C,
    log: Shared<ControlLog>,
}

impl<C: ControlPlane> TimedControl<C> {
    /// Wraps `inner`; the returned handle reads the log.
    pub fn new(inner: C) -> (TimedControl<C>, Shared<ControlLog>) {
        let log = Shared::default();
        (
            TimedControl {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn other(&self, t0: Instant) {
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.other_ns += ns;
        log.other_calls += 1;
    }

    fn keep_sent(log: &mut ControlLog, out: &ControlOutput, from: usize) {
        for (_, msg) in out.messages.iter().skip(from) {
            if log.sent.len() >= MESSAGE_SAMPLE {
                break;
            }
            log.sent.push(msg.clone());
        }
    }
}

impl<C: ControlPlane> ControlPlane for TimedControl<C> {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let t0 = Instant::now();
        self.inner.on_switch_connect(dpid, features, now, out);
        self.other(t0);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        let keep = {
            let log = lock(&self.log);
            (log.received.len() < MESSAGE_SAMPLE).then(|| msg.clone())
        };
        let from = out.messages.len();
        let t0 = Instant::now();
        self.inner.on_message(dpid, msg, now, out);
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.on_message.push(ns);
        log.received.extend(keep);
        Self::keep_sent(&mut log, out, from);
    }

    fn on_device_message(
        &mut self,
        device: DeviceId,
        msg: OfMessage,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let from = out.messages.len();
        let t0 = Instant::now();
        self.inner.on_device_message(device, msg, now, out);
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.on_device_message.push(ns);
        Self::keep_sent(&mut log, out, from);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, now: f64, out: &mut ControlOutput) {
        let t0 = Instant::now();
        self.inner.on_switch_disconnect(dpid, now, out);
        self.other(t0);
    }

    fn on_telemetry(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        let t0 = Instant::now();
        self.inner.on_telemetry(telemetry, now, out);
        lock(&self.log).on_telemetry.push(elapsed_ns(t0));
    }

    fn on_tick(&mut self, now: f64, out: &mut ControlOutput) {
        let t0 = Instant::now();
        self.inner.on_tick(now, out);
        self.other(t0);
    }

    fn tick_interval(&self) -> Option<f64> {
        self.inner.tick_interval()
    }
}

/// A [`DataPlaneDevice`] that times every call into `inner`.
pub struct TimedDevice<D> {
    inner: D,
    log: Shared<DeviceLog>,
}

impl<D: DataPlaneDevice> TimedDevice<D> {
    /// Wraps `inner`; the returned handle reads the log.
    pub fn new(inner: D) -> (TimedDevice<D>, Shared<DeviceLog>) {
        let log = Shared::default();
        (
            TimedDevice {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn other(&self, t0: Instant) {
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.total_ns += ns;
        log.other_calls += 1;
    }
}

impl<D: DataPlaneDevice> DataPlaneDevice for TimedDevice<D> {
    fn on_packet(&mut self, pkt: Packet, now: f64, out: &mut DeviceOutput) {
        let t0 = Instant::now();
        self.inner.on_packet(pkt, now, out);
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.per_packet.push(ns);
        log.total_ns += ns;
    }

    fn on_packets(&mut self, pkts: &mut Vec<Packet>, now: f64, out: &mut DeviceOutput) {
        let n = pkts.len().max(1) as u64;
        let t0 = Instant::now();
        self.inner.on_packets(pkts, now, out);
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.per_packet
            .extend(std::iter::repeat_n(ns / n, n as usize));
        log.total_ns += ns;
    }

    fn on_message(&mut self, msg: OfMessage, now: f64, out: &mut DeviceOutput) {
        let t0 = Instant::now();
        self.inner.on_message(msg, now, out);
        self.other(t0);
    }

    fn on_tick(&mut self, now: f64, out: &mut DeviceOutput) {
        let t0 = Instant::now();
        self.inner.on_tick(now, out);
        let ns = elapsed_ns(t0);
        let mut log = lock(&self.log);
        log.on_tick.push(ns);
        log.total_ns += ns;
    }

    fn next_tick(&self, now: f64) -> Option<f64> {
        self.inner.next_tick(now)
    }

    fn on_crash(&mut self) {
        let t0 = Instant::now();
        self.inner.on_crash();
        self.other(t0);
    }

    fn on_restart(&mut self, now: f64) {
        let t0 = Instant::now();
        self.inner.on_restart(now);
        self.other(t0);
    }
}

/// `samples` (ns) as f64 in the given unit divisor (1e3 → µs, 1e6 → ms).
pub fn scaled(samples: &[u64], divisor: f64) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / divisor).collect()
}

/// Median ns per frame to encode and to decode `messages` with
/// `ofproto::wire`, timed over at least `min_frames` frames. Returns
/// `(encode_ns, decode_ns)`, or `None` when there is nothing to time or a
/// frame fails to decode.
pub fn codec_ns(messages: &[OfMessage], min_frames: usize) -> Option<(f64, f64)> {
    if messages.is_empty() {
        return None;
    }
    let frames: Vec<_> = messages.iter().map(ofproto::wire::encode).collect();
    let rounds = min_frames.div_ceil(messages.len()).max(1);
    let mut enc = Vec::with_capacity(rounds);
    let mut dec = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for msg in messages {
            std::hint::black_box(ofproto::wire::encode(std::hint::black_box(msg)));
        }
        enc.push(t0.elapsed().as_nanos() as f64 / messages.len() as f64);
        let t0 = Instant::now();
        for frame in &frames {
            if ofproto::wire::decode(std::hint::black_box(frame)).is_err() {
                return None;
            }
        }
        dec.push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    Some((crate::stats::median(&enc)?, crate::stats::median(&dec)?))
}

/// The layers every traced run reports on, in report order. `cache` is
/// FloodGuard's data plane cache, a device of its own behind the
/// `DataPlaneDevice` seam.
pub const LAYERS: [&str; 9] = [
    "netsim",
    "controller",
    "floodguard",
    "cache",
    "analyzer",
    "symexec",
    "ofchannel",
    "ofproto",
    "ops",
];

/// Calls into each layer and the time spent inside them over a traced
/// run's measured operations. A layer the workload does not use keeps 0
/// calls and 0 time.
#[derive(Debug)]
pub struct LayerUse {
    ops: f64,
    wall_s: f64,
    calls: [f64; LAYERS.len()],
    busy_s: [f64; LAYERS.len()],
}

impl LayerUse {
    /// Accounting for `ops` operations that took `wall_s` seconds of wall
    /// time in all.
    pub fn new(ops: f64, wall_s: f64) -> LayerUse {
        LayerUse {
            ops,
            wall_s,
            calls: [0.0; LAYERS.len()],
            busy_s: [0.0; LAYERS.len()],
        }
    }

    /// Adds `calls` into `layer` that spent `busy_s` seconds inside it (its
    /// self time: time inside another listed layer is not counted twice).
    pub fn add(&mut self, layer: &str, calls: f64, busy_s: f64) {
        let i = LAYERS
            .iter()
            .position(|l| *l == layer)
            .unwrap_or_else(|| panic!("unknown layer {layer}"));
        self.calls[i] += calls;
        self.busy_s[i] += busy_s;
    }

    /// Reports `<layer>.calls` (calls per operation) and
    /// `<layer>.busy_share` (time inside the layer over the operations'
    /// wall time) for every layer.
    pub fn report(&self, report: &mut Report) {
        if !(self.ops > 0.0 && self.wall_s > 0.0) {
            report.fail(format!(
                "no traced operations to attribute ({} ops, {} s)",
                self.ops, self.wall_s
            ));
            return;
        }
        for (i, layer) in LAYERS.iter().enumerate() {
            report.metric(&format!("{layer}.calls"), self.calls[i] / self.ops, "count");
            report.metric(
                &format!("{layer}.busy_share"),
                self.busy_s[i] / self.wall_s,
                "ratio",
            );
        }
    }
}

/// Nanoseconds each of this process's threads has run on a CPU, by thread
/// id, for the threads whose name starts with one of `prefixes` (Linux
/// `/proc/self/task/*/{comm,schedstat}`; empty where those are missing).
pub fn thread_cpu_ns(prefixes: &[&str]) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let path = task.path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if !prefixes.iter().any(|p| comm.starts_with(p)) {
            continue;
        }
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        if let Some(ns) = ns {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU seconds the threads of `after` ran since `before` was taken (a
/// thread missing from `before` started in between and counts in full).
pub fn cpu_since(before: &HashMap<u64, u64>, after: &HashMap<u64, u64>) -> f64 {
    after
        .iter()
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum::<u64>() as f64
        / 1e9
}
