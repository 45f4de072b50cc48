//! Integration tests for the live OpenFlow transport (`ofchannel`).
//!
//! Everything here runs over real loopback TCP with ephemeral ports: the
//! handshake, packet_in → flow_mod roundtrips through the l2-learning
//! controller, survival of a mid-stream disconnect via backoff reconnect,
//! bounded-send-queue backpressure under flood, and the full FloodGuard
//! defense loop (migration → cache → re-raised packet_in).
//!
//! The tests are deterministic: they poll observable counters with generous
//! deadlines instead of sleeping fixed amounts, so they pass on slow CI
//! machines without being tuned to them.

use std::collections::HashSet;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig};
use netsim::iface::NullControlPlane;
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::{Fault, SwitchId, SwitchProfile};
use ofchannel::{handshake, ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::messages::FeaturesReply;
use ofproto::types::{DatapathId, MacAddr, PortNo};

/// A one-worker runtime for the hand-rolled peers below.
fn small_runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(1)
        .build()
        .unwrap()
}

/// A fake controller: dials `addr` and completes the controller side of
/// the handshake. The stream stays registered with the returned runtime.
fn dial_as_controller(
    addr: SocketAddr,
) -> (
    tokio::runtime::Runtime,
    tokio::net::TcpStream,
    FeaturesReply,
) {
    let rt = small_runtime();
    let (stream, features) = rt.block_on(async {
        let mut stream = tokio::net::TcpStream::connect(addr).await.unwrap();
        let (features, _residue) = handshake::initiate(&mut stream, &ChannelConfig::default())
            .await
            .unwrap();
        (stream, features)
    });
    (rt, stream, features)
}

/// Polls `probe` until it returns true or `deadline` elapses.
fn wait_for(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn udp_flow(seq: u64, wire_len: usize) -> Packet {
    Packet::udp(
        MacAddr::from_u64(0x10_0000 + seq),
        MacAddr::from_u64(0x20_0000 + (seq % 7)),
        Ipv4Addr::from(0x0a00_0000 + seq as u32),
        Ipv4Addr::new(10, 99, 0, 1),
        1024 + (seq % 1000) as u16,
        53,
        wire_len,
    )
}

/// Real-TCP handshake plus packet_in → flow_mod roundtrips: the l2-learning
/// app learns two hosts and installs a flow on the live switch.
#[test]
fn l2_learning_installs_flows_over_tcp() {
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(switch, Vec::new(), ChannelConfig::default()).unwrap();

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let controller = ControllerEndpoint::spawn(
        Box::new(platform),
        vec![endpoint.switch_addr()],
        ControllerConfig::default(),
    );

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(1)]
        }),
        "controller never completed the switch handshake"
    );

    let host_a = MacAddr::from_u64(0xaa);
    let host_b = MacAddr::from_u64(0xbb);
    let a_to_b = Packet::udp(
        host_a,
        host_b,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        5000,
        5001,
        200,
    );
    let b_to_a = Packet::udp(
        host_b,
        host_a,
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        5001,
        5000,
        200,
    );

    // First packet teaches the controller where A lives (and floods);
    // the reply toward the now-known A triggers a flow_mod install. Keep
    // re-offering the pair until the rule lands — each roundtrip crosses
    // the wire twice.
    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.inject(1, a_to_b);
            endpoint.inject(2, b_to_a);
            endpoint.telemetry().flow_count >= 1
        }),
        "l2_learning never installed a flow over the live channel"
    );

    let switch_side = endpoint.counters();
    let controller_side = controller.counters();
    assert!(switch_side.frames_out >= 2, "packet_ins were sent");
    assert!(switch_side.frames_in >= 1, "controller replies arrived");
    assert!(controller_side.frames_in >= 2);
    assert!(controller_side.frames_out >= 1);

    let switch = endpoint.shutdown();
    assert!(switch.stats.misses >= 2);
    drop(controller);
}

/// A controller facing a switch that dies mid-stream redials with backoff
/// and completes a second handshake; the reconnect counter records it.
#[test]
fn controller_survives_mid_stream_disconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let features = FeaturesReply {
        datapath_id: DatapathId(7),
        n_buffers: 64,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };

    // A hand-rolled switch: completes one handshake, drops the session,
    // then accepts and holds a second one.
    let server = std::thread::spawn(move || {
        small_runtime().block_on(async move {
            let listener = tokio::net::TcpListener::from_std(listener).unwrap();
            let cfg = ChannelConfig::default();
            let (mut first, _) = listener.accept().await.unwrap();
            handshake::accept(&mut first, &features, &cfg)
                .await
                .unwrap();
            drop(first); // mid-stream disconnect

            let (mut second, _) = listener.accept().await.unwrap();
            handshake::accept(&mut second, &features, &cfg)
                .await
                .unwrap();
            // Hold the session open until the controller shuts down.
            let mut sink = [0u8; 512];
            while matches!(second.read(&mut sink).await, Ok(n) if n > 0) {}
        });
    });

    let controller = ControllerEndpoint::spawn(
        Box::new(NullControlPlane),
        vec![addr],
        ControllerConfig::default(),
    );

    assert!(
        wait_for(Duration::from_secs(10), || {
            let snap = controller.counters();
            snap.reconnects >= 1 && controller.status().connected_switches == vec![DatapathId(7)]
        }),
        "controller did not re-establish after the disconnect"
    );

    drop(controller);
    server.join().unwrap();
}

/// A flood against a controller that stops reading fills the bounded send
/// queue: the high-water mark reaches the cap and sends are rejected with
/// backpressure instead of buffering without limit.
#[test]
fn flood_fills_bounded_send_queue() {
    const QUEUE_CAP: usize = 8;
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let cfg = ChannelConfig::default().with_send_queue_cap(QUEUE_CAP);
    let endpoint = SwitchEndpoint::spawn(switch, Vec::new(), cfg).unwrap();

    // A fake controller that handshakes and then never reads again: the
    // kernel buffers fill, the writer blocks, the queue overflows.
    let (_rt, stream, features) = dial_as_controller(endpoint.switch_addr());
    assert_eq!(features.datapath_id, DatapathId(1));

    // Large distinct-flow packets: every one is a miss, and once the 512
    // buffer slots are gone each packet_in carries the whole packet
    // (the amplification the paper describes), saturating the socket fast.
    let mut seq = 0u64;
    assert!(
        wait_for(Duration::from_secs(20), || {
            for _ in 0..500 {
                endpoint.inject(1, udp_flow(seq, 1400));
                seq += 1;
            }
            let snap = endpoint.counters();
            snap.sends_blocked >= 1 && snap.send_queue_hwm >= QUEUE_CAP as u64
        }),
        "bounded send queue never reported backpressure under flood"
    );

    drop(stream);
    drop(endpoint);
}

/// Garbage bytes after a clean handshake are counted as a decode error and
/// kill only that session; the endpoint accepts a fresh connection after.
#[test]
fn garbage_after_handshake_counts_decode_error() {
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1]);
    let endpoint = SwitchEndpoint::spawn(switch, Vec::new(), ChannelConfig::default()).unwrap();

    let (rt, mut stream, _) = dial_as_controller(endpoint.switch_addr());
    rt.block_on(stream.write_all(&[0xde; 64])).unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.counters().decode_errors >= 1
        }),
        "garbage bytes were not counted as a decode error"
    );

    // The listener is still serving: a well-behaved controller gets in.
    let (_rt, _second, features) = dial_as_controller(endpoint.switch_addr());
    assert_eq!(features.datapath_id, DatapathId(1));
}

/// The tentpole proof: FloodGuard's whole defense loop over real sockets.
/// A flood of table-miss packets raises the controller-observed packet_in
/// rate, the detector fires, migration rules reroute the flood into the
/// data plane cache, and the cache re-raises rate-limited packet_ins over
/// its own TCP connection.
#[test]
fn floodguard_defense_loop_over_live_tcp() {
    const CACHE_PORT: u16 = 99;

    // Live mode synthesizes telemetry with zero buffer/datapath readings
    // (a real controller cannot see inside the switch), so detection must
    // trigger on the packet_in rate alone.
    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let fg_config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut floodguard = FloodGuard::new(platform, fg_config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache = floodguard.build_cache();

    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        ChannelConfig::default(),
    )
    .unwrap();

    let controller_config = ControllerConfig {
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let mut targets = vec![endpoint.switch_addr()];
    targets.extend_from_slice(endpoint.device_addrs());
    let controller = ControllerEndpoint::spawn(Box::new(floodguard), targets, controller_config);

    assert!(
        wait_for(Duration::from_secs(10), || {
            let status = controller.status();
            status.connected_switches.len() == 1 && status.connected_devices.len() == 1
        }),
        "switch and cache sessions never both came up"
    );

    // Flood with distinct flows; every packet is a table miss until the
    // migration rules land, after which the flood detours into the cache
    // and comes back as rate-limited re-raised packet_ins.
    let mut seq = 0u64;
    let defended = wait_for(Duration::from_secs(30), || {
        for _ in 0..100 {
            endpoint.inject(1, udp_flow(seq, 200));
            seq += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
        let snap = monitor.lock();
        snap.stats.attacks_detected >= 1 && snap.stats.reraised >= 1
    });
    let snap = monitor.lock().clone();
    assert!(
        defended,
        "defense loop incomplete: state {:?}, stats {:?}",
        snap.state, snap.stats
    );
    assert!(
        !snap.transitions.is_empty(),
        "state machine recorded no transitions"
    );

    // The migration wildcard rules are real flow table entries on the live
    // switch, and the cache connection carried real frames.
    assert!(
        endpoint.telemetry().flow_count >= 1,
        "no rules installed on the live switch"
    );
    let transport = controller.counters();
    assert!(transport.frames_in > 0 && transport.frames_out > 0);

    drop(controller);
    drop(endpoint);
}

/// Fault injection over real sockets: mid-defense, the live switch crashes
/// (flow table wiped, TCP session cut) and restarts. The controller's
/// post-reconnect replay plus FloodGuard's rule repair must reinstall the
/// same defense rule set, and the transport must count the resync.
#[test]
fn switch_crash_mid_defense_resyncs_rules() {
    const CACHE_PORT: u16 = 99;

    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let fg_config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };
    let cookie = fg_config.cookie;

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut floodguard = FloodGuard::new(platform, fg_config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache = floodguard.build_cache();

    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        ChannelConfig::default(),
    )
    .unwrap();

    let controller_config = ControllerConfig {
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let mut targets = vec![endpoint.switch_addr()];
    targets.extend_from_slice(endpoint.device_addrs());
    let controller = ControllerEndpoint::spawn(Box::new(floodguard), targets, controller_config);

    assert!(
        wait_for(Duration::from_secs(10), || {
            let status = controller.status();
            status.connected_switches.len() == 1 && status.connected_devices.len() == 1
        }),
        "switch and cache sessions never both came up"
    );

    // Flood until the defense is up and its rules are visible in the live
    // flow-rule snapshot.
    let mut seq = 0u64;
    let flood = |seq: &mut u64| {
        for _ in 0..100 {
            endpoint.inject(1, udp_flow(*seq, 200));
            *seq += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        wait_for(Duration::from_secs(30), || {
            flood(&mut seq);
            monitor.lock().stats.attacks_detected >= 1
                && endpoint.flow_rules().iter().any(|&(_, _, c)| c == cookie)
        }),
        "defense never established over the live channel"
    );
    let before: HashSet<(ofproto::flow_match::OfMatch, u16)> = endpoint
        .flow_rules()
        .into_iter()
        .filter(|&(_, _, c)| c == cookie)
        .map(|(m, p, _)| (m, p))
        .collect();
    assert!(!before.is_empty());

    let reconnects_before = controller.counters().reconnects;
    endpoint.inject_fault(Fault::SwitchCrash {
        sw: SwitchId(0),
        restart_after: 0.2,
    });

    // Keep the flood alive across the outage: the reconnect plus the
    // repair path must land every pre-crash defense rule again.
    assert!(
        wait_for(Duration::from_secs(30), || {
            flood(&mut seq);
            let after: HashSet<(ofproto::flow_match::OfMatch, u16)> = endpoint
                .flow_rules()
                .into_iter()
                .filter(|&(_, _, c)| c == cookie)
                .map(|(m, p, _)| (m, p))
                .collect();
            controller.counters().reconnects > reconnects_before && before.is_subset(&after)
        }),
        "defense rules were not reinstalled after the crash: before {:?}, after {:?}",
        before,
        endpoint.flow_rules()
    );
    assert!(
        controller.counters().resyncs >= 1,
        "reconnect did not replay the flow-mod ring: {:?}",
        controller.counters()
    );

    drop(controller);
    drop(endpoint);
}
