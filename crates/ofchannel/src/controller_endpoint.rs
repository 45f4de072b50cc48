//! A control plane driven over live TCP connections, multiplexed on a
//! small async runtime.
//!
//! Owns a [`netsim::iface::ControlPlane`] (the bare POX-style platform or
//! FloodGuard wrapping it) and serves it over many concurrent switch and
//! device connections. The features reply's datapath id decides the role —
//! ids carrying [`crate::DEVICE_DPID_FLAG`] are cache connections whose
//! messages are delivered through [`ControlPlane::on_device_message`],
//! completing FloodGuard's migration loop over real sockets.
//!
//! # Architecture
//!
//! One std thread owns the control plane and a tokio runtime. Every
//! connection is a session — a reader task decoding frames off its socket
//! (answering echo keepalive on its own) and a writer task draining a
//! **bounded** frame queue — plus an entry in the control loop's
//! connection table. Readers forward everything else to the control loop
//! over one shared event channel, so the control plane (which is `!Sync`
//! by design) stays single-threaded while thousands of sockets make
//! progress in parallel.
//!
//! All send queues together draw from a global budget of
//! [`ControllerConfig::global_send_budget`] in-flight frames: a slow switch
//! fills its own queue (counted as `sends_blocked`), a slow *everything*
//! exhausts the budget (counted as `budget_exhausted`).
//!
//! Endpoints either dial a fixed target list ([`ControllerEndpoint::spawn`],
//! with capped exponential backoff redial) or accept inbound switches on a
//! listener ([`ControllerEndpoint::listen`], the many-switch shape). Both
//! keep echo keepalive with a liveness timeout, and post-reconnect
//! flow-mod replay from a bounded per-identity ring. Because live mode has
//! no simulation engine to synthesize telemetry, the endpoint periodically
//! assembles a [`Telemetry`] snapshot from what the controller can
//! legitimately observe and feeds it to the control plane — this is what
//! arms FloodGuard's detector in live deployments.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use netsim::iface::{ControlOutput, ControlPlane, DeviceId, SwitchTelemetry, Telemetry};
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::{FlowMod, FlowModCommand};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::{DatapathId, Xid};
use parking_lot::Mutex;
use tokio::sync::mpsc;

use crate::config::{next_backoff, ChannelConfig};
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::session::{self, Link, SendBudget, SendError, Session};
use crate::{handshake, parse_device_dpid};

/// Configuration for [`ControllerEndpoint`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Per-connection transport settings.
    pub channel: ChannelConfig,
    /// How often synthesized telemetry is fed to the control plane.
    pub telemetry_interval: Duration,
    /// Async runtime worker threads (minimum 1).
    pub worker_threads: usize,
    /// Endpoint-wide cap on frames queued across all connections.
    pub global_send_budget: usize,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            channel: ChannelConfig::default(),
            telemetry_interval: Duration::from_millis(100),
            worker_threads: 2,
            global_send_budget: 4096,
        }
    }
}

/// Liveness snapshot of the endpoint's connection table.
#[derive(Debug, Clone, Default)]
pub struct ControllerStatus {
    /// Datapaths with a completed handshake right now.
    pub connected_switches: Vec<DatapathId>,
    /// Devices with a completed handshake right now.
    pub connected_devices: Vec<DeviceId>,
}

/// One rule in the controller's mirror of a switch's flow table.
///
/// The mirror is maintained from the flow-mods the endpoint itself sends
/// (an observability aid for the ops surface, not ground truth from the
/// switch): non-strict deletes are approximated by exact match equality.
#[derive(Debug, Clone)]
pub struct FlowRuleView {
    /// The rule's match.
    pub of_match: OfMatch,
    /// Matching precedence; higher wins.
    pub priority: u16,
    /// Controller-assigned cookie.
    pub cookie: u64,
    /// How many actions the rule applies (0 = drop).
    pub n_actions: usize,
}

/// A cloneable read-only view of a live endpoint: counters, connection
/// table, and the mirrored flow tables. Survives for as long as any clone
/// does, even past the endpoint's shutdown (values then freeze).
#[derive(Clone)]
pub struct ControllerView {
    counters: Arc<ChannelCounters>,
    status: Arc<Mutex<ControllerStatus>>,
    tables: Arc<Mutex<HashMap<u64, Vec<FlowRuleView>>>>,
}

impl ControllerView {
    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        self.status.lock().clone()
    }

    /// The mirrored flow tables, keyed by raw datapath id.
    pub fn flow_tables(&self) -> HashMap<u64, Vec<FlowRuleView>> {
        self.tables.lock().clone()
    }
}

/// Handle to a control plane served over TCP.
pub struct ControllerEndpoint {
    view: ControllerView,
    shutdown: Arc<AtomicBool>,
    local_addr: Option<SocketAddr>,
    handle: Option<JoinHandle<Box<dyn ControlPlane>>>,
}

impl std::fmt::Debug for ControllerEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerEndpoint")
            .field("status", &*self.view.status.lock())
            .finish()
    }
}

impl ControllerEndpoint {
    /// Starts dialing `targets` and serving `control` over the resulting
    /// connections. Targets may be switch or device listeners in any
    /// order; roles are learned from the handshake. Unreachable or dead
    /// targets are redialed with capped exponential backoff.
    pub fn spawn(
        control: Box<dyn ControlPlane>,
        targets: Vec<SocketAddr>,
        config: ControllerConfig,
    ) -> ControllerEndpoint {
        ControllerEndpoint::start(control, Peers::Dial(targets), config)
            .expect("spawn controller endpoint thread")
    }

    /// Binds `addr` and serves `control` over every inbound connection —
    /// the many-switch deployment shape. The bound address is available
    /// immediately via [`ControllerEndpoint::local_addr`].
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind.
    pub fn listen(
        control: Box<dyn ControlPlane>,
        addr: SocketAddr,
        config: ControllerConfig,
    ) -> io::Result<ControllerEndpoint> {
        let listener = std::net::TcpListener::bind(addr)?;
        ControllerEndpoint::start(control, Peers::Listen(listener), config)
    }

    fn start(
        control: Box<dyn ControlPlane>,
        peers: Peers,
        config: ControllerConfig,
    ) -> io::Result<ControllerEndpoint> {
        let view = ControllerView {
            counters: Arc::new(ChannelCounters::new()),
            status: Arc::default(),
            tables: Arc::default(),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let local_addr = match &peers {
            Peers::Dial(_) => None,
            Peers::Listen(listener) => Some(listener.local_addr()?),
        };
        let handle = {
            let (view, shutdown) = (view.clone(), Arc::clone(&shutdown));
            std::thread::Builder::new()
                .name("ofchannel-controller".to_owned())
                .spawn(move || run(control, peers, config, view, shutdown))?
        };
        Ok(ControllerEndpoint {
            view,
            shutdown,
            local_addr,
            handle: Some(handle),
        })
    }

    /// The listener's bound address ([`ControllerEndpoint::listen`] mode
    /// only).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.view.counters()
    }

    /// The shared counters themselves, for observers that outlive calls.
    pub fn counters_handle(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.view.counters)
    }

    /// Current connection table.
    pub fn status(&self) -> ControllerStatus {
        self.view.status()
    }

    /// A cloneable read-only view for dashboards and the ops surface.
    pub fn view(&self) -> ControllerView {
        self.view.clone()
    }

    /// Stops the endpoint and returns the control plane for inspection.
    pub fn shutdown(mut self) -> Box<dyn ControlPlane> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("endpoint already shut down")
            .join()
            .expect("controller endpoint thread panicked")
    }
}

impl Drop for ControllerEndpoint {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

enum Peers {
    Dial(Vec<SocketAddr>),
    Listen(std::net::TcpListener),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Identity {
    Switch(DatapathId),
    Device(DeviceId),
}

/// What connection tasks report to the control loop. Events for one `key`
/// are ordered: `Connected`, then `Inbound`s, then exactly one `Closed`.
enum Event {
    Connected {
        key: u64,
        identity: Identity,
        features: FeaturesReply,
        session: Session,
    },
    Inbound {
        key: u64,
        msg: OfMessage,
    },
    Closed {
        key: u64,
    },
}

struct ConnState {
    identity: Identity,
    session: Session,
    last_echo: Instant,
    timed_out: bool,
}

const EVENT_BUDGET: usize = 512;
const EVENT_CHANNEL_CAP: usize = 4096;

/// Everything the connection tasks share.
#[derive(Clone)]
struct Shared {
    link: Link,
    events: mpsc::Sender<Event>,
    keys: Arc<AtomicU64>,
}

fn run(
    control: Box<dyn ControlPlane>,
    peers: Peers,
    config: ControllerConfig,
    view: ControllerView,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.worker_threads.max(1))
        .enable_all()
        .build()
        .expect("build controller runtime");
    let (events_tx, events_rx) = mpsc::channel::<Event>(EVENT_CHANNEL_CAP);
    let shared = Shared {
        link: Link {
            cfg: config.channel,
            counters: Arc::clone(&view.counters),
            budget: SendBudget::new(config.global_send_budget),
        },
        events: events_tx,
        keys: Arc::new(AtomicU64::new(0)),
    };
    match peers {
        Peers::Dial(targets) => {
            for addr in targets {
                let shared = shared.clone();
                rt.spawn(dial_loop(addr, shared));
            }
        }
        Peers::Listen(listener) => {
            let shared = shared.clone();
            rt.spawn(async move {
                if let Ok(listener) = tokio::net::TcpListener::from_std(listener) {
                    accept_loop(listener, shared).await;
                }
            });
        }
    }
    // The control loop holds the only receiver; connection tasks run on
    // the workers while it blocks here.
    drop(shared);
    let control = rt.block_on(control_loop(control, events_rx, config, view, shutdown));
    drop(rt);
    control
}

async fn dial_loop(addr: SocketAddr, shared: Shared) {
    let cfg = shared.link.cfg;
    let mut backoff = cfg.reconnect_base;
    loop {
        match dial_once(addr, &cfg).await {
            Ok((stream, features, residue)) => {
                backoff = cfg.reconnect_base;
                if !serve_connection(stream, features, residue, &shared).await {
                    return; // endpoint is gone
                }
                // The connection died; pause one base interval before
                // redialing so a crash-looping peer is not hammered.
                tokio::time::sleep(cfg.reconnect_base).await;
            }
            Err(()) => {
                shared.link.counters.record_connect_failure();
                tokio::time::sleep(backoff).await;
                backoff = next_backoff(&cfg, backoff);
            }
        }
    }
}

async fn dial_once(
    addr: SocketAddr,
    cfg: &ChannelConfig,
) -> Result<(tokio::net::TcpStream, FeaturesReply, BytesMut), ()> {
    let connect = tokio::net::TcpStream::connect(addr);
    let mut stream = match tokio::time::timeout(cfg.connect_timeout, connect).await {
        Ok(Ok(stream)) => stream,
        Ok(Err(_)) | Err(_) => return Err(()),
    };
    let _ = stream.set_nodelay(true);
    let (features, residue) = handshake::initiate(&mut stream, cfg)
        .await
        .map_err(|_| ())?;
    Ok((stream, features, residue))
}

async fn accept_loop(listener: tokio::net::TcpListener, shared: Shared) {
    loop {
        let Ok((mut stream, _peer)) = listener.accept().await else {
            // Transient accept errors (e.g. fd pressure): back off briefly.
            tokio::time::sleep(Duration::from_millis(10)).await;
            continue;
        };
        let shared = shared.clone();
        tokio::spawn(async move {
            let _ = stream.set_nodelay(true);
            match handshake::initiate(&mut stream, &shared.link.cfg).await {
                Ok((features, residue)) => {
                    serve_connection(stream, features, residue, &shared).await;
                }
                Err(_) => shared.link.counters.record_connect_failure(),
            }
        });
    }
}

/// Runs one handshaken connection to completion. Returns `false` when the
/// control loop is gone (callers should stop redialing).
async fn serve_connection(
    stream: tokio::net::TcpStream,
    features: FeaturesReply,
    residue: BytesMut,
    shared: &Shared,
) -> bool {
    let identity = match parse_device_dpid(features.datapath_id) {
        Some(device) => Identity::Device(device),
        None => Identity::Switch(features.datapath_id),
    };
    let Ok((session, reader)) = session::open(stream, residue, &shared.link) else {
        return true;
    };
    let key = shared.keys.fetch_add(1, Ordering::Relaxed);
    let connected = Event::Connected {
        key,
        identity,
        features,
        session,
    };
    shared.events.send(connected).await.is_ok()
        && reader
            .run(&shared.events, |msg| Event::Inbound { key, msg })
            .await
        && shared.events.send(Event::Closed { key }).await.is_ok()
}

#[allow(clippy::too_many_lines)]
async fn control_loop(
    mut control: Box<dyn ControlPlane>,
    mut events: mpsc::Receiver<Event>,
    config: ControllerConfig,
    view: ControllerView,
    shutdown: Arc<AtomicBool>,
) -> Box<dyn ControlPlane> {
    let ControllerView {
        counters,
        status,
        tables,
    } = view;
    let cfg = config.channel;
    let epoch = Instant::now();
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    // Identities that completed a handshake at least once; a later
    // handshake by the same identity is a reconnect needing resync.
    let mut ever: HashSet<Identity> = HashSet::new();
    let mut replay: HashMap<Identity, VecDeque<OfMessage>> = HashMap::new();
    let mut xid: u32 = 1;
    let mut last_telemetry = Instant::now();
    let mut last_tick = 0.0f64;
    let keepalive_scan = (cfg.echo_interval.min(cfg.liveness_timeout) / 4)
        .clamp(Duration::from_millis(5), Duration::from_millis(250));
    let mut last_keepalive = Instant::now();

    while !shutdown.load(Ordering::SeqCst) {
        // Wait for the first event (bounded so timers and shutdown are
        // honored), then drain a batch without further waiting.
        let wait = next_wait(
            config
                .telemetry_interval
                .saturating_sub(last_telemetry.elapsed()),
            keepalive_scan.saturating_sub(last_keepalive.elapsed()),
        );
        let now = epoch.elapsed().as_secs_f64();
        let mut out = ControlOutput::new();
        let mut batch = 0usize;
        let mut next = tokio::time::timeout(wait, events.recv())
            .await
            .unwrap_or_default();
        while let Some(event) = next.take() {
            handle_event(
                event,
                &mut control,
                &mut conns,
                &mut ever,
                &mut replay,
                &counters,
                now,
                &mut out,
            );
            batch += 1;
            if batch >= EVENT_BUDGET {
                break;
            }
            next = events.try_recv().ok();
        }
        flush(
            &mut conns,
            &mut replay,
            &ever,
            &tables,
            out,
            cfg.resync_replay_cap,
        );

        // Synthesized telemetry: what a live controller can observe.
        if last_telemetry.elapsed() >= config.telemetry_interval {
            last_telemetry = Instant::now();
            let telemetry = Telemetry {
                switches: conns
                    .values()
                    .filter_map(|c| match c.identity {
                        Identity::Switch(dpid) => Some(SwitchTelemetry {
                            dpid,
                            buffer_utilization: 0.0,
                            datapath_utilization: 0.0,
                            ingress_len: 0,
                            misses: 0,
                            flow_count: 0,
                        }),
                        Identity::Device(_) => None,
                    })
                    .collect(),
                controller_queue: 0,
                controller_utilization: 0.0,
            };
            let mut out = ControlOutput::new();
            control.on_telemetry(&telemetry, now, &mut out);
            flush(
                &mut conns,
                &mut replay,
                &ever,
                &tables,
                out,
                cfg.resync_replay_cap,
            );
        }

        // Control-plane tick.
        if let Some(interval) = control.tick_interval() {
            if now - last_tick >= interval {
                last_tick = now;
                let mut out = ControlOutput::new();
                control.on_tick(now, &mut out);
                flush(
                    &mut conns,
                    &mut replay,
                    &ever,
                    &tables,
                    out,
                    cfg.resync_replay_cap,
                );
            }
        }

        // Keepalive probes and liveness.
        if last_keepalive.elapsed() >= keepalive_scan {
            last_keepalive = Instant::now();
            for st in conns.values_mut() {
                if st.last_echo.elapsed() >= cfg.echo_interval {
                    st.last_echo = Instant::now();
                    xid = xid.wrapping_add(1);
                    let _ = st
                        .session
                        .send(&OfMessage::new(Xid(xid), OfBody::EchoRequest(Bytes::new())));
                }
                if !st.timed_out && st.session.idle_for() >= cfg.liveness_timeout {
                    st.timed_out = true;
                    counters.record_keepalive_timeout();
                    // The reader observes the shutdown and emits `Closed`,
                    // which performs the bookkeeping exactly once.
                    st.session.close();
                }
            }
        }

        // Publish liveness for observers.
        {
            let mut switches: Vec<DatapathId> = conns
                .values()
                .filter_map(|c| match c.identity {
                    Identity::Switch(dpid) => Some(dpid),
                    Identity::Device(_) => None,
                })
                .collect();
            switches.sort_unstable();
            switches.dedup();
            let mut devices: Vec<DeviceId> = conns
                .values()
                .filter_map(|c| match c.identity {
                    Identity::Device(device) => Some(device),
                    Identity::Switch(_) => None,
                })
                .collect();
            devices.sort_unstable_by_key(|d| d.0);
            devices.dedup();
            let mut st = status.lock();
            st.connected_switches = switches;
            st.connected_devices = devices;
        }
    }
    control
}

fn next_wait(until_telemetry: Duration, until_keepalive: Duration) -> Duration {
    until_telemetry
        .min(until_keepalive)
        .clamp(Duration::from_millis(1), Duration::from_millis(50))
}

#[allow(clippy::too_many_arguments)]
fn handle_event(
    event: Event,
    control: &mut Box<dyn ControlPlane>,
    conns: &mut HashMap<u64, ConnState>,
    ever: &mut HashSet<Identity>,
    replay: &mut HashMap<Identity, VecDeque<OfMessage>>,
    counters: &ChannelCounters,
    now: f64,
    out: &mut ControlOutput,
) {
    match event {
        Event::Connected {
            key,
            identity,
            features,
            session,
        } => {
            let rejoining = ever.contains(&identity);
            if rejoining {
                counters.record_reconnect();
            }
            ever.insert(identity);
            if let Identity::Switch(dpid) = identity {
                control.on_switch_connect(dpid, features, now, out);
            }
            // State resync: the peer may have restarted with an empty flow
            // table, so replay the recorded flow-mods (idempotent —
            // identical match+priority replaces in place) before any fresh
            // traffic.
            if rejoining {
                if let Some(ring) = replay.get(&identity) {
                    if !ring.is_empty() {
                        counters.record_resync(ring.len());
                        for frame in ring {
                            match session.send(frame) {
                                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
                            }
                        }
                    }
                }
            }
            conns.insert(
                key,
                ConnState {
                    identity,
                    session,
                    last_echo: Instant::now(),
                    timed_out: false,
                },
            );
        }
        Event::Inbound { key, msg } => {
            let Some(st) = conns.get(&key) else {
                return; // raced with teardown
            };
            match st.identity {
                Identity::Switch(dpid) => control.on_message(dpid, msg, now, out),
                Identity::Device(device) => control.on_device_message(device, msg, now, out),
            }
        }
        Event::Closed { key } => {
            if let Some(st) = conns.remove(&key) {
                if let Identity::Switch(dpid) = st.identity {
                    control.on_switch_disconnect(dpid, now, out);
                }
            }
        }
    }
}

/// Routes queued control-plane messages to the connection owning each
/// datapath. Messages to datapaths that are not connected, plus frames
/// rejected by backpressure, are dropped — the control plane will observe
/// the gap the same way it would observe loss on a congested channel.
/// Flow-mod frames are additionally recorded into the owning identity's
/// bounded replay ring (for post-reconnect resync) and mirrored into the
/// ops-facing flow tables.
fn flush(
    conns: &mut HashMap<u64, ConnState>,
    replay: &mut HashMap<Identity, VecDeque<OfMessage>>,
    ever: &HashSet<Identity>,
    tables: &Mutex<HashMap<u64, Vec<FlowRuleView>>>,
    out: ControlOutput,
    replay_cap: usize,
) {
    for (dpid, msg) in out.messages {
        let identity = Identity::Switch(dpid);
        let target = conns.values().find(|c| c.identity == identity);
        if target.is_none() && !ever.contains(&identity) {
            continue; // never handshaken: nothing to record or send
        }
        if let OfBody::FlowMod(fm) = &msg.body {
            if replay_cap > 0 {
                let ring = replay.entry(identity).or_default();
                if ring.len() >= replay_cap {
                    ring.pop_front();
                }
                ring.push_back(msg.clone());
            }
            mirror_flow_mod(tables, dpid, fm);
        }
        if let Some(st) = target {
            match st.session.send(&msg) {
                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
            }
        }
    }
}

/// Applies one flow-mod to the ops-facing table mirror.
fn mirror_flow_mod(
    tables: &Mutex<HashMap<u64, Vec<FlowRuleView>>>,
    dpid: DatapathId,
    fm: &FlowMod,
) {
    let mut tables = tables.lock();
    let table = tables.entry(dpid.0).or_default();
    match fm.command {
        FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
            let rule = FlowRuleView {
                of_match: fm.of_match,
                priority: fm.priority,
                cookie: fm.cookie,
                n_actions: fm.actions.len(),
            };
            match table
                .iter_mut()
                .find(|r| r.of_match == fm.of_match && r.priority == fm.priority)
            {
                Some(slot) => *slot = rule,
                None => table.push(rule),
            }
        }
        FlowModCommand::Delete => {
            if fm.of_match == OfMatch::any() {
                table.clear();
            } else {
                table.retain(|r| r.of_match != fm.of_match);
            }
        }
        FlowModCommand::DeleteStrict => {
            table.retain(|r| !(r.of_match == fm.of_match && r.priority == fm.priority));
        }
    }
}
