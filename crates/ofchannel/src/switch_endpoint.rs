//! A netsim switch served live over TCP.
//!
//! The endpoint owns a [`netsim::switch::Switch`] plus its attached
//! data-plane devices (FloodGuard's cache) and exposes them the way Open
//! vSwitch exposes a bridge in `ptcp` mode: it listens, a controller
//! connects, and the OpenFlow session runs over the socket. Each device
//! gets its own listener — mirroring the paper's deployment where the data
//! plane cache keeps a separate controller connection — and identifies
//! itself during the handshake with a [`crate::DEVICE_DPID_FLAG`]-tagged
//! datapath id.
//!
//! Packets enter the data plane via [`SwitchEndpoint::inject`]; misses
//! become real `packet_in` frames on the wire, and `flow_mod`/`packet_out`
//! frames from the controller drive the same switch logic the simulator
//! uses. Forwards that land on a device port are handed to the device
//! in-process (the cable between a switch port and its cache is not
//! modelled as a socket).
//!
//! The endpoint runs on its own one-worker runtime with the same session
//! code as the controller endpoint. One serving task owns the switch and
//! its devices and waits on a single channel for injected packets, faults
//! and session events, or until its next timed duty; with one worker,
//! handing a frame between it and a session costs no cross-thread wake.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::iface::{DataPlaneDevice, DeviceOutput, SwitchTelemetry};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::Fault;
use ofproto::flow_match::OfMatch;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage};
use ofproto::types::Xid;
use parking_lot::Mutex;
use tokio::sync::{mpsc, Notify};

use crate::config::ChannelConfig;
use crate::counters::{ChannelCounters, CountersSnapshot};
use crate::session::{self, Link, SendBudget, SendError, Session};
use crate::{device_features, handshake};

/// Which listener a session came in on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    Controller,
    /// The attached device at this index.
    Device(usize),
}

/// Everything the serving task reacts to. Session events carry the
/// listener and the session's key (unique per listener), so late events of
/// a session the serving task already dropped are recognised and ignored.
enum Cmd {
    /// A packet entering the data plane at a port.
    Inject(u16, Packet),
    Fault(Fault),
    Shutdown,
    Connected(Peer, u64, Session),
    Inbound(Peer, u64, OfMessage),
    Closed(Peer, u64),
}

/// Capacity of the serving task's channel. The task drains it every
/// iteration, so it fills only when the task falls behind; sessions then
/// wait for room, and so do callers of [`SwitchEndpoint::inject`].
const CMD_CHANNEL_CAP: usize = 4096;

/// Handle to a switch being served over TCP.
pub struct SwitchEndpoint {
    switch_addr: SocketAddr,
    device_addrs: Vec<SocketAddr>,
    cmds: mpsc::Sender<Cmd>,
    counters: Arc<ChannelCounters>,
    telemetry: Arc<Mutex<SwitchTelemetry>>,
    flow_rules: Arc<Mutex<Vec<(OfMatch, u16, u64)>>>,
    serving: Option<tokio::task::JoinHandle<Switch>>,
    rt: tokio::runtime::Runtime,
}

impl std::fmt::Debug for SwitchEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchEndpoint")
            .field("switch_addr", &self.switch_addr)
            .field("device_addrs", &self.device_addrs)
            .finish()
    }
}

impl SwitchEndpoint {
    /// Starts serving `switch` on an ephemeral loopback port.
    ///
    /// `devices` attach data-plane devices by `(switch port, logic)`;
    /// each gets its own listener whose address appears in
    /// [`SwitchEndpoint::device_addrs`] at the same index.
    ///
    /// # Errors
    ///
    /// Fails when a listener cannot be bound or the runtime cannot start.
    pub fn spawn(
        switch: Switch,
        devices: Vec<(u16, Box<dyn DataPlaneDevice>)>,
        config: ChannelConfig,
    ) -> std::io::Result<SwitchEndpoint> {
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(1)
            .enable_all()
            .build()?;
        let counters = Arc::new(ChannelCounters::new());
        let link = Link {
            cfg: config,
            counters: Arc::clone(&counters),
            // The per-connection queues bind first; the budget never does.
            budget: SendBudget::new(usize::MAX),
        };
        let (cmds, cmd_rx) = mpsc::channel(CMD_CHANNEL_CAP);
        let listen = |peer: Peer, features: FeaturesReply| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let chan = Channel::new();
            rt.spawn(accept_loop(
                listener,
                peer,
                features,
                Arc::clone(&chan.gate),
                link.clone(),
                cmds.clone(),
            ));
            Ok::<_, std::io::Error>((addr, chan))
        };

        let (switch_addr, control) = listen(Peer::Controller, switch.features())?;
        let mut device_slots = Vec::new();
        let mut device_addrs = Vec::new();
        for (index, (port, logic)) in devices.into_iter().enumerate() {
            let (addr, chan) = listen(Peer::Device(index), device_features(index))?;
            device_addrs.push(addr);
            device_slots.push(DeviceSlot {
                port,
                logic,
                chan,
                last_tick: Instant::now(),
                down: false,
                restart_at: None,
            });
        }

        let telemetry = Arc::new(Mutex::new(switch.telemetry(0.0)));
        let flow_rules = Arc::new(Mutex::new(Vec::new()));
        let serving = rt.spawn(run(
            Served {
                switch,
                control,
                devices: device_slots,
                faults: FaultState::new(),
                config,
                counters: Arc::clone(&counters),
                xid: 1,
            },
            cmd_rx,
            Arc::clone(&telemetry),
            Arc::clone(&flow_rules),
        ));

        Ok(SwitchEndpoint {
            switch_addr,
            device_addrs,
            cmds,
            counters,
            telemetry,
            flow_rules,
            serving: Some(serving),
            rt,
        })
    }

    /// Where the controller should connect for the switch session.
    pub fn switch_addr(&self) -> SocketAddr {
        self.switch_addr
    }

    /// Where the controller should connect for each device session.
    pub fn device_addrs(&self) -> &[SocketAddr] {
        &self.device_addrs
    }

    /// Feeds one packet into the data plane at `in_port`.
    pub fn inject(&self, in_port: u16, packet: Packet) {
        self.submit(Cmd::Inject(in_port, packet));
    }

    /// Injects an infrastructure fault — the same [`Fault`] values a
    /// [`netsim::FaultScript`] schedules against the simulator, applied to
    /// this live endpoint:
    ///
    /// * [`Fault::SwitchCrash`] wipes the switch state and kills the
    ///   controller socket; the listener accepts again after `restart_after`
    ///   seconds (the switch-id field is ignored — this endpoint *is* the
    ///   switch).
    /// * [`Fault::ControlPartition`] / [`Fault::ControlHeal`] sever and
    ///   restore the controller socket without touching switch state.
    /// * [`Fault::DeviceCrash`] wipes the indexed attached device and stops
    ///   feeding it until restart.
    /// * [`Fault::LinkDown`] / [`Fault::LinkUp`] / [`Fault::LinkLoss`] drop
    ///   (or probabilistically lose) data-plane packets on the given port,
    ///   in both directions.
    /// * [`Fault::ControllerStall`] is controller-side and ignored here.
    pub fn inject_fault(&self, fault: Fault) {
        self.submit(Cmd::Fault(fault));
    }

    /// Current transport counters.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// Latest switch resource snapshot.
    pub fn telemetry(&self) -> SwitchTelemetry {
        *self.telemetry.lock()
    }

    /// Snapshot of the installed flow rules as `(match, priority, cookie)`
    /// triples, refreshed on the telemetry cadence — what a test harness
    /// needs to verify a post-reconnect resync reinstalled the defense.
    pub fn flow_rules(&self) -> Vec<(OfMatch, u16, u64)> {
        self.flow_rules.lock().clone()
    }

    /// Stops serving and returns the switch for inspection.
    pub fn shutdown(mut self) -> Switch {
        self.stop()
            .expect("endpoint already shut down")
            .expect("switch endpoint task panicked")
    }

    /// Queues `cmd`, waiting for room when the serving task is behind.
    fn submit(&self, cmd: Cmd) {
        if let Err(mpsc::error::TrySendError::Full(cmd)) = self.cmds.try_send(cmd) {
            let _ = self.rt.block_on(self.cmds.send(cmd));
        }
    }

    /// Stops the serving task and waits for it; `None` once stopped.
    fn stop(&mut self) -> Option<Result<Switch, tokio::task::JoinError>> {
        let serving = self.serving.take()?;
        self.submit(Cmd::Shutdown);
        Some(self.rt.block_on(serving))
    }
}

impl Drop for SwitchEndpoint {
    fn drop(&mut self) {
        // Dropping the runtime afterwards closes every socket and joins
        // its threads.
        let _ = self.stop();
    }
}

/// Whether a listener hands dials on to the handshake. Closed while the
/// switch (or the device) is crashed or the control channel is
/// partitioned: a dial that lands then waits, as it would in the OS
/// backlog, and its handshake completes once the gate reopens.
#[derive(Default)]
struct Gate {
    closed: AtomicBool,
    reopened: Notify,
}

impl Gate {
    fn set_open(&self, open: bool) {
        if self.closed.swap(!open, Ordering::SeqCst) && open {
            self.reopened.notify_one();
        }
    }

    async fn opened(&self) {
        while self.closed.load(Ordering::SeqCst) {
            self.reopened.notified().await;
        }
    }
}

/// Accepts dials on one listener for as long as the endpoint runs, giving
/// each its own session task.
async fn accept_loop(
    listener: std::net::TcpListener,
    peer: Peer,
    features: FeaturesReply,
    gate: Arc<Gate>,
    link: Link,
    cmds: mpsc::Sender<Cmd>,
) {
    let Ok(listener) = tokio::net::TcpListener::from_std(listener) else {
        return;
    };
    for key in 0.. {
        let Ok((stream, _)) = listener.accept().await else {
            // Transient accept errors (e.g. fd pressure): back off briefly.
            tokio::time::sleep(Duration::from_millis(10)).await;
            continue;
        };
        gate.opened().await;
        let (features, link, cmds) = (features.clone(), link.clone(), cmds.clone());
        tokio::spawn(async move {
            serve_session(stream, peer, key, features, link, cmds).await;
        });
    }
}

/// Runs the switch side of the handshake, then the session, reporting its
/// connect, inbound messages and close to the serving task.
async fn serve_session(
    mut stream: tokio::net::TcpStream,
    peer: Peer,
    key: u64,
    features: FeaturesReply,
    link: Link,
    cmds: mpsc::Sender<Cmd>,
) {
    let _ = stream.set_nodelay(true);
    let opened = match handshake::accept(&mut stream, &features, &link.cfg).await {
        Ok(residue) => session::open(stream, residue, &link).ok(),
        Err(_) => None,
    };
    let Some((session, reader)) = opened else {
        link.counters.record_connect_failure();
        return;
    };
    if cmds.send(Cmd::Connected(peer, key, session)).await.is_ok()
        && reader.run(&cmds, |msg| Cmd::Inbound(peer, key, msg)).await
    {
        let _ = cmds.send(Cmd::Closed(peer, key)).await;
    }
}

/// One listener's session state: the controller's, or a device's.
struct Channel {
    gate: Arc<Gate>,
    /// The serving session and its key.
    live: Option<(u64, Session)>,
    last_echo: Instant,
    connected_before: bool,
}

impl Channel {
    fn new() -> Channel {
        Channel {
            gate: Arc::default(),
            live: None,
            last_echo: Instant::now(),
            connected_before: false,
        }
    }

    /// Installs a fresh session, closing any previous one.
    fn connect(&mut self, key: u64, session: Session, counters: &ChannelCounters) {
        if self.connected_before {
            counters.record_reconnect();
        }
        self.connected_before = true;
        self.last_echo = Instant::now();
        if let Some((_, old)) = self.live.replace((key, session)) {
            old.close();
        }
    }

    fn is_current(&self, key: u64) -> bool {
        self.live.as_ref().is_some_and(|(k, _)| *k == key)
    }

    fn close(&mut self) {
        if let Some((_, session)) = self.live.take() {
            session.close();
        }
    }

    /// Sends if a session is up; backpressure and closure both drop the
    /// frame (the counters record each backpressure rejection).
    fn send(&self, msg: &OfMessage) {
        if let Some((_, session)) = &self.live {
            match session.send(msg) {
                Ok(()) | Err(SendError::Backpressure) | Err(SendError::Closed) => {}
            }
        }
    }

    /// Probes the session with `echo_request` every echo interval and
    /// drops it once the receive side has been silent past the liveness
    /// timeout.
    fn keepalive(&mut self, config: &ChannelConfig, counters: &ChannelCounters, xid: &mut u32) {
        let Some((_, session)) = &self.live else {
            return;
        };
        if self.last_echo.elapsed() >= config.echo_interval {
            self.last_echo = Instant::now();
            *xid = xid.wrapping_add(1);
            self.send(&OfMessage::new(
                Xid(*xid),
                OfBody::EchoRequest(bytes::Bytes::new()),
            ));
        }
        if session.idle_for() >= config.liveness_timeout {
            counters.record_keepalive_timeout();
            self.close();
        }
    }

    /// Time until the next echo probe, when a session is up.
    fn until_echo(&self, config: &ChannelConfig) -> Duration {
        match self.live {
            Some(_) => config
                .echo_interval
                .saturating_sub(self.last_echo.elapsed()),
            None => Duration::MAX,
        }
    }
}

struct DeviceSlot {
    port: u16,
    logic: Box<dyn DataPlaneDevice>,
    chan: Channel,
    last_tick: Instant,
    /// Crashed and not yet restarted: packets to it are dropped, ticks
    /// skipped.
    down: bool,
    /// When the crashed device restarts; `None` while down means never.
    restart_at: Option<Instant>,
}

/// Live-endpoint fault state: which links are impaired and whether the
/// switch itself is down or partitioned from the controller.
#[derive(Default)]
struct FaultState {
    links_down: HashSet<u16>,
    link_loss: HashMap<u16, f64>,
    partitioned: bool,
    switch_down: bool,
    switch_restart_at: Option<Instant>,
    /// xorshift64 state for loss sampling — seeded constant, so a given
    /// packet sequence sees a reproducible loss pattern.
    rng: u64,
}

impl FaultState {
    fn new() -> FaultState {
        FaultState {
            rng: 0x9E37_79B9_7F4A_7C15,
            ..FaultState::default()
        }
    }

    /// Whether a packet crossing `port` is lost to link faults right now.
    fn link_drops(&mut self, port: u16) -> bool {
        if self.links_down.contains(&port) {
            return true;
        }
        let Some(&p) = self.link_loss.get(&port) else {
            return false;
        };
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Everything the serving task owns.
struct Served {
    switch: Switch,
    /// The controller's session.
    control: Channel,
    devices: Vec<DeviceSlot>,
    faults: FaultState,
    config: ChannelConfig,
    counters: Arc<ChannelCounters>,
    xid: u32,
}

/// How many data-plane packets one loop iteration may process before
/// servicing the sockets again; keeps packet_in latency bounded under load.
const DATAPATH_BUDGET: usize = 512;

/// How many channel events one loop iteration handles before pumping the
/// datapath.
const EVENT_BUDGET: usize = 512;

const EXPIRE_INTERVAL: Duration = Duration::from_millis(10);
const UTIL_INTERVAL: Duration = Duration::from_millis(50);

async fn run(
    mut sw: Served,
    mut cmds: mpsc::Receiver<Cmd>,
    telemetry: Arc<Mutex<SwitchTelemetry>>,
    flow_rules: Arc<Mutex<Vec<(OfMatch, u16, u64)>>>,
) -> Switch {
    let start = Instant::now();
    let mut last_expire = Instant::now();
    let mut busy_accum = 0.0_f64;
    let mut last_util_at = Instant::now();
    let mut datapath_util = 0.0_f64;
    // Work left from the last iteration: queued packets past the datapath
    // budget, or events past the event budget.
    let mut backlog = false;

    loop {
        // Wait for the first event or the next timed duty; with a backlog,
        // only let the session tasks run first.
        let mut next = if backlog {
            tokio::task::yield_now().await;
            cmds.try_recv().ok()
        } else {
            let wait = sw.next_wait(last_expire, last_util_at);
            match tokio::time::timeout(wait, cmds.recv()).await {
                Ok(Some(cmd)) => Some(cmd),
                Ok(None) => break, // every sender is gone
                Err(_) => None,
            }
        };
        let now = start.elapsed().as_secs_f64();
        sw.restart_due(now);

        let mut handled = 0;
        while let Some(cmd) = next.take() {
            if !sw.handle(cmd, now) {
                return sw.switch;
            }
            handled += 1;
            if handled < EVENT_BUDGET {
                next = cmds.try_recv().ok();
            }
        }
        backlog = handled >= EVENT_BUDGET;
        let faults = &sw.faults;
        sw.control
            .gate
            .set_open(!faults.switch_down && !faults.partitioned);
        for dev in &sw.devices {
            dev.chan.gate.set_open(!dev.down);
        }

        // Pump the datapath (a crashed switch forwards nothing). When the
        // budget runs out with packets still queued, the next iteration
        // skips its wait.
        if !sw.faults.switch_down {
            for _ in 0..DATAPATH_BUDGET {
                let Some((in_port, packet)) = sw.switch.start_next() else {
                    break;
                };
                let res = sw.switch.process(in_port, packet, now);
                busy_accum += res.service;
                route_forwards(res.forwards, &mut sw.devices, &mut sw.faults, now);
                if let Some(pi) = res.packet_in {
                    sw.xid = sw.xid.wrapping_add(1);
                    sw.control
                        .send(&OfMessage::new(Xid(sw.xid), OfBody::PacketIn(pi)));
                }
            }
            backlog |= sw.switch.ingress_len() > 0;
        }

        // Devices are ticked on a fixed cadence, like the engine's
        // `DeviceTick` events; a device-requested `next_tick` sooner than
        // that is honoured too.
        for dev in &mut sw.devices {
            if dev.down {
                continue;
            }
            let due_fixed = dev.last_tick.elapsed() >= sw.config.device_tick_interval;
            let due_requested = dev.logic.next_tick(now).is_some_and(|t| t <= now);
            if due_fixed || due_requested {
                dev.last_tick = Instant::now();
                let mut out = DeviceOutput::new();
                dev.logic.on_tick(now, &mut out);
                for up in out.to_controller {
                    dev.chan.send(&up);
                }
            }
        }

        // Flow/buffer expiry.
        if last_expire.elapsed() >= EXPIRE_INTERVAL {
            last_expire = Instant::now();
            for msg in sw.switch.expire(now) {
                sw.control.send(&msg);
            }
        }

        // Keepalive probes and liveness.
        sw.control.keepalive(&sw.config, &sw.counters, &mut sw.xid);
        for dev in &mut sw.devices {
            dev.chan.keepalive(&sw.config, &sw.counters, &mut sw.xid);
        }

        // Telemetry snapshot (drives dashboards and the example binary).
        let dt = last_util_at.elapsed().as_secs_f64();
        if dt >= UTIL_INTERVAL.as_secs_f64() {
            datapath_util = (busy_accum / dt).min(1.0);
            busy_accum = 0.0;
            last_util_at = Instant::now();
            *flow_rules.lock() = sw
                .switch
                .table
                .iter()
                .map(|e| (e.of_match, e.priority, e.cookie))
                .collect();
        }
        *telemetry.lock() = sw.switch.telemetry(datapath_util);
    }
    sw.switch
}

impl Served {
    /// Restarts a crashed switch or device whose restart time has come.
    fn restart_due(&mut self, now: f64) {
        let due = |at: Option<Instant>| at.is_some_and(|t| Instant::now() >= t);
        if self.faults.switch_down && due(self.faults.switch_restart_at) {
            self.faults.switch_down = false;
            self.faults.switch_restart_at = None;
        }
        for dev in &mut self.devices {
            if dev.down && due(dev.restart_at) {
                dev.down = false;
                dev.restart_at = None;
                dev.logic.on_restart(now);
            }
        }
    }

    /// Applies one caller command or session event; `false` on shutdown.
    fn handle(&mut self, cmd: Cmd, now: f64) -> bool {
        match cmd {
            Cmd::Inject(in_port, packet) => {
                if !self.faults.switch_down && !self.faults.link_drops(in_port) {
                    self.switch.enqueue(in_port, packet);
                }
            }
            Cmd::Fault(fault) => apply_live_fault(fault, self),
            Cmd::Shutdown => return false,
            Cmd::Connected(peer, key, session) => {
                let faults = &self.faults;
                let chan = match peer {
                    Peer::Controller => {
                        (!faults.switch_down && !faults.partitioned).then_some(&mut self.control)
                    }
                    Peer::Device(index) => self
                        .devices
                        .get_mut(index)
                        .filter(|d| !d.down)
                        .map(|d| &mut d.chan),
                };
                match chan {
                    Some(chan) => chan.connect(key, session, &self.counters),
                    // Its handshake finished while the switch or device was
                    // down: refused like the dial itself.
                    None => session.close(),
                }
            }
            Cmd::Inbound(Peer::Controller, key, msg) => {
                if self.control.is_current(key) {
                    let (forwards, replies) = self.switch.handle_message(msg, now);
                    route_forwards(forwards, &mut self.devices, &mut self.faults, now);
                    for reply in replies {
                        self.control.send(&reply);
                    }
                }
            }
            Cmd::Inbound(Peer::Device(index), key, msg) => {
                if let Some(dev) = self.devices.get_mut(index) {
                    if !dev.down && dev.chan.is_current(key) {
                        let mut out = DeviceOutput::new();
                        dev.logic.on_message(msg, now, &mut out);
                        for up in out.to_controller {
                            dev.chan.send(&up);
                        }
                    }
                }
            }
            Cmd::Closed(peer, key) => {
                let chan = match peer {
                    Peer::Controller => Some(&mut self.control),
                    Peer::Device(index) => self.devices.get_mut(index).map(|d| &mut d.chan),
                };
                if let Some(chan) = chan.filter(|c| c.is_current(key)) {
                    chan.live = None;
                }
            }
        }
        true
    }

    /// How long the loop may sleep before its next timed duty.
    fn next_wait(&self, last_expire: Instant, last_util_at: Instant) -> Duration {
        let until = |at: Option<Instant>| {
            at.map_or(Duration::MAX, |t| {
                t.saturating_duration_since(Instant::now())
            })
        };
        let mut wait = EXPIRE_INTERVAL
            .saturating_sub(last_expire.elapsed())
            .min(UTIL_INTERVAL.saturating_sub(last_util_at.elapsed()))
            .min(self.control.until_echo(&self.config))
            .min(until(self.faults.switch_restart_at));
        for dev in &self.devices {
            if !dev.down {
                let tick = self.config.device_tick_interval;
                wait = wait.min(tick.saturating_sub(dev.last_tick.elapsed()));
            }
            wait = wait
                .min(dev.chan.until_echo(&self.config))
                .min(until(dev.restart_at));
        }
        wait
    }
}

/// Hands forwarded packets that land on a device port to the device;
/// other ports lead to hosts, which live mode does not model. Packets
/// crossing a faulted link, or destined to a crashed device, are dropped.
fn route_forwards(
    forwards: Vec<(u16, Packet)>,
    devices: &mut [DeviceSlot],
    faults: &mut FaultState,
    now: f64,
) {
    for (out_port, packet) in forwards {
        if faults.link_drops(out_port) {
            continue;
        }
        if let Some(dev) = devices.iter_mut().find(|d| d.port == out_port) {
            if dev.down {
                continue;
            }
            let mut out = DeviceOutput::new();
            dev.logic.on_packet(packet, now, &mut out);
            for up in out.to_controller {
                dev.chan.send(&up);
            }
        }
    }
}

/// Applies one injected [`Fault`] to the live endpoint's state.
fn apply_live_fault(fault: Fault, sw: &mut Served) {
    let faults = &mut sw.faults;
    match fault {
        Fault::LinkDown { port, .. } => {
            faults.links_down.insert(port);
        }
        Fault::LinkUp { port, .. } => {
            faults.links_down.remove(&port);
        }
        Fault::LinkLoss {
            port, probability, ..
        } => {
            if probability <= 0.0 {
                faults.link_loss.remove(&port);
            } else {
                faults.link_loss.insert(port, probability.min(1.0));
            }
        }
        Fault::ControlPartition { .. } => {
            faults.partitioned = true;
            sw.control.close();
        }
        Fault::ControlHeal { .. } => {
            faults.partitioned = false;
        }
        Fault::SwitchCrash { restart_after, .. } => {
            sw.switch.crash();
            faults.switch_down = true;
            faults.switch_restart_at = restart_after
                .is_finite()
                .then(|| Instant::now() + Duration::from_secs_f64(restart_after.max(0.0)));
            sw.control.close();
        }
        Fault::DeviceCrash { dev, restart_after } => {
            if let Some(slot) = sw.devices.get_mut(dev.0) {
                slot.logic.on_crash();
                slot.down = true;
                slot.restart_at = restart_after
                    .is_finite()
                    .then(|| Instant::now() + Duration::from_secs_f64(restart_after.max(0.0)));
            }
        }
        // The stall is a controller-side fault; the switch endpoint has
        // nothing to stall.
        Fault::ControllerStall { .. } => {}
    }
}
