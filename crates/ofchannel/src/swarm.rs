//! A many-switch load harness for the async controller endpoint.
//!
//! Simulates a fleet of OpenFlow switches as lightweight async tasks on
//! one shared runtime: each task dials the controller, completes the
//! HELLO/FEATURES handshake as datapath `base + i`, then generates
//! table-miss `packet_in` traffic at a configured per-switch rate over the
//! same session code the endpoints use, whose reader drains (and
//! echo-answers) the controller's frames.
//!
//! The driver reports what the paper's scale question needs measured:
//! connect-to-handshake latency per switch, handshake failures, and the
//! `packet_in` throughput sustained over a window that starts only after
//! the whole fleet is connected — connect-phase warmup never inflates it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::packet::Packet;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};
use parking_lot::Mutex;
use tokio::sync::mpsc;

use crate::config::ChannelConfig;
use crate::counters::ChannelCounters;
use crate::handshake;
use crate::session::{self, Link, SendBudget, SendError, Session};

/// Swarm shape and pacing.
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Number of simulated switches.
    pub switches: usize,
    /// `packet_in` generation rate per switch, packets/second (min 1).
    pub pps_per_switch: f64,
    /// Length of the measured throughput window, started once the whole
    /// fleet is connected.
    pub window: Duration,
    /// Delay between consecutive connection starts (spreads the dial
    /// thundering herd).
    pub connect_stagger: Duration,
    /// How long to wait for the whole fleet to finish connecting.
    pub connect_deadline: Duration,
    /// First simulated datapath id; switch `i` is `base + i`.
    pub dpid_base: u64,
    /// Per-connection transport settings (handshake timeout etc.).
    pub channel: ChannelConfig,
    /// Runtime worker threads for the swarm side.
    pub worker_threads: usize,
}

impl Default for SwarmConfig {
    fn default() -> SwarmConfig {
        SwarmConfig {
            switches: 64,
            pps_per_switch: 10.0,
            window: Duration::from_secs(2),
            connect_stagger: Duration::from_millis(2),
            connect_deadline: Duration::from_secs(60),
            dpid_base: 1000,
            channel: ChannelConfig::default(),
            worker_threads: 2,
        }
    }
}

/// What one swarm run measured.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Switches that completed the handshake.
    pub connected: usize,
    /// Switches whose dial or handshake failed.
    pub handshake_failures: usize,
    /// Connect-to-handshake-complete latency per connected switch, sorted
    /// ascending.
    pub connect_latencies: Vec<Duration>,
    /// `packet_in` frames sent during the measured window.
    pub packet_ins_sent: u64,
    /// Frames received from the controller during the whole run.
    pub frames_in: u64,
    /// Actual measured window length.
    pub window: Duration,
}

impl SwarmReport {
    /// Connect-latency quantile (`q` in [0, 1]) by nearest-rank over the
    /// sorted latencies; zero when nothing connected.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.connect_latencies.is_empty() {
            return Duration::ZERO;
        }
        let n = self.connect_latencies.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.connect_latencies[rank - 1]
    }

    /// Sustained `packet_in` throughput over the measured window.
    pub fn throughput_pps(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packet_ins_sent as f64 / secs
    }
}

/// Shared run state between the driver and the switch tasks.
struct SwarmShared {
    cfg: SwarmConfig,
    connected: AtomicUsize,
    failed: AtomicUsize,
    sent: AtomicU64,
    stop: AtomicBool,
    latencies: Mutex<Vec<Duration>>,
    /// Shared by every switch's session; its counters tally the
    /// controller's frames.
    link: Link,
    /// Where sessions hand the controller's frames other than echo; they
    /// are dropped (flow-mods on a simulated switch have no table to land
    /// in).
    discard: mpsc::Sender<()>,
}

/// Runs one swarm against a listening controller at `addr`, blocking until
/// the measured window completes.
///
/// # Errors
///
/// Fails when the runtime cannot start or when not a single switch managed
/// to connect before the deadline.
pub fn run_swarm(addr: SocketAddr, config: &SwarmConfig) -> std::io::Result<SwarmReport> {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.worker_threads.max(1))
        .enable_all()
        .build()?;
    let (discard, mut discarded) = mpsc::channel(1024);
    rt.spawn(async move { while discarded.recv().await.is_some() {} });
    let shared = Arc::new(SwarmShared {
        cfg: *config,
        connected: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        sent: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        latencies: Mutex::new(Vec::with_capacity(config.switches)),
        link: Link {
            cfg: config.channel,
            counters: Arc::new(ChannelCounters::new()),
            budget: SendBudget::new(usize::MAX),
        },
        discard,
    });

    for i in 0..config.switches {
        let shared = Arc::clone(&shared);
        rt.spawn(async move {
            switch_task(addr, i, shared).await;
        });
    }

    let report = rt.block_on(drive(Arc::clone(&shared)));
    shared.stop.store(true, Ordering::SeqCst);
    // Give tasks a beat to observe the stop flag before the runtime drops.
    rt.block_on(tokio::time::sleep(Duration::from_millis(50)));
    drop(rt);
    report
}

/// Waits for the fleet to settle, then measures one throughput window.
async fn drive(shared: Arc<SwarmShared>) -> std::io::Result<SwarmReport> {
    let cfg = shared.cfg;
    let connect_started = Instant::now();
    loop {
        let done = shared.connected.load(Ordering::SeqCst) + shared.failed.load(Ordering::SeqCst);
        if done >= cfg.switches {
            break;
        }
        if connect_started.elapsed() > cfg.connect_deadline {
            break;
        }
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    let connected = shared.connected.load(Ordering::SeqCst);
    if connected == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "no switch completed the handshake before the deadline",
        ));
    }

    let count0 = shared.sent.load(Ordering::SeqCst);
    let window_started = Instant::now();
    tokio::time::sleep(cfg.window).await;
    let window = window_started.elapsed();
    let count1 = shared.sent.load(Ordering::SeqCst);

    let mut latencies = shared.latencies.lock().clone();
    latencies.sort_unstable();
    Ok(SwarmReport {
        connected,
        handshake_failures: shared.failed.load(Ordering::SeqCst),
        connect_latencies: latencies,
        packet_ins_sent: count1 - count0,
        frames_in: shared.link.counters.snapshot().frames_in,
        window,
    })
}

/// One simulated switch: dial, handshake, then a session whose reader
/// drains the controller's frames while a paced generator sends
/// `packet_in`s.
async fn switch_task(addr: SocketAddr, index: usize, shared: Arc<SwarmShared>) {
    let cfg = shared.cfg;
    tokio::time::sleep(cfg.connect_stagger * index as u32).await;

    let started = Instant::now();
    let features = swarm_features(cfg.dpid_base + index as u64);
    let connect = async {
        let stream = tokio::net::TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        Ok::<_, std::io::Error>(stream)
    };
    let Ok(mut stream) = connect.await else {
        shared.failed.fetch_add(1, Ordering::SeqCst);
        return;
    };
    let Ok(residue) = handshake::accept(&mut stream, &features, &cfg.channel).await else {
        shared.failed.fetch_add(1, Ordering::SeqCst);
        return;
    };
    shared.latencies.lock().push(started.elapsed());
    shared.connected.fetch_add(1, Ordering::SeqCst);

    let Ok((session, reader)) = session::open(stream, residue, &shared.link) else {
        return;
    };
    let discard = shared.discard.clone();
    tokio::spawn(async move { reader.run(&discard, |_| ()).await });
    sender_loop(&session, index, &shared).await;
    session.close();
}

/// Paces `packet_in` generation at the configured rate; each packet is a
/// fresh table-miss (unique source per sequence number).
async fn sender_loop(session: &Session, index: usize, shared: &SwarmShared) {
    let interval = Duration::from_secs_f64(1.0 / shared.cfg.pps_per_switch.max(1.0));
    let mut next = Instant::now();
    let mut seq: u64 = 0;
    while !shared.stop.load(Ordering::SeqCst) {
        seq += 1;
        match session.send(&packet_in(index, seq)) {
            Ok(()) => {
                shared.sent.fetch_add(1, Ordering::SeqCst);
            }
            Err(SendError::Backpressure) => {}
            Err(SendError::Closed) => return,
        }
        next += interval;
        let now = Instant::now();
        if next > now {
            tokio::time::sleep(next - now).await;
        } else {
            // Fell behind (oversubscribed core): don't try to catch up with
            // a burst, just resume pacing from now.
            next = now;
        }
    }
}

/// The features a simulated swarm switch announces: two physical ports,
/// no buffering.
fn swarm_features(dpid: u64) -> FeaturesReply {
    FeaturesReply {
        datapath_id: DatapathId(dpid),
        n_buffers: 0,
        n_tables: 1,
        ports: vec![PortNo::Physical(1), PortNo::Physical(2)],
    }
}

/// A unique-source UDP table-miss, as a `packet_in`.
fn packet_in(index: usize, seq: u64) -> OfMessage {
    let src = 0x0a00_0000u32 | ((index as u32) << 12) | (seq as u32 & 0xfff);
    let pkt = Packet::udp(
        MacAddr::from_u64(0x5_0000_0000 + ((index as u64) << 16) + (seq & 0xffff)),
        MacAddr::from_u64(0x6_0000_0001),
        std::net::Ipv4Addr::from(src),
        std::net::Ipv4Addr::new(10, 200, 0, 1),
        4000 + (seq % 1000) as u16,
        53,
        128,
    );
    let data = pkt.to_bytes();
    let pi = PacketIn {
        buffer_id: None,
        total_len: data.len() as u16,
        in_port: PortNo::Physical(1),
        reason: PacketInReason::NoMatch,
        data,
    };
    OfMessage::new(Xid(seq as u32), OfBody::PacketIn(pi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let report = SwarmReport {
            connected: 4,
            handshake_failures: 0,
            connect_latencies: vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(3),
                Duration::from_millis(100),
            ],
            packet_ins_sent: 500,
            frames_in: 0,
            window: Duration::from_secs(2),
        };
        assert_eq!(report.latency_quantile(0.0), Duration::from_millis(1));
        assert_eq!(report.latency_quantile(0.5), Duration::from_millis(2));
        assert_eq!(report.latency_quantile(0.99), Duration::from_millis(100));
        assert_eq!(report.latency_quantile(1.0), Duration::from_millis(100));
        assert!((report.throughput_pps() - 250.0).abs() < 1e-9);

        let empty = SwarmReport {
            connected: 0,
            handshake_failures: 1,
            connect_latencies: Vec::new(),
            packet_ins_sent: 0,
            frames_in: 0,
            window: Duration::ZERO,
        };
        assert_eq!(empty.latency_quantile(0.5), Duration::ZERO);
        assert_eq!(empty.throughput_pps(), 0.0);
    }
}
