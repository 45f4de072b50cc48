//! `live_defense`: the paper's mechanism over real loopback sockets.
//!
//! A `SwitchEndpoint` serves a software-profile switch with FloodGuard's
//! cache on port 99 and a benchmark-owned sink device on port 2 that
//! timestamps probe arrivals. A FloodGuard-wrapped `l2_learning` controller
//! dials the switch and the cache (two connections). Detection is
//! rate-only, as in the `live_channel` example.
//!
//! After a paced warm-up teaches the controller where the hosts behind
//! port 2 live, one generator thread runs an open-loop schedule: a **calm**
//! phase of benign new-flow probes, then an **attack** phase with the same
//! probes plus a spoofed UDP flood on port 3 well above the detector
//! trigger. Nine probes in ten go to a learned host (each host at most once
//! per run, so every calm probe is a real table miss within `l2_learning`'s
//! 10 s idle timeout); one in ten goes to a destination no host owns, which
//! can only arrive through a controller flood — through the cache once
//! migration is on. Each probe is timed from when it was due, not from when
//! the generator got round to sending it. The same thread scrapes the ops
//! surface's `/metrics` twice a second (faster in short runs).

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::cache::CacheHandle;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig, MonitorHandle, State};
use netsim::iface::{ControlPlane, DataPlaneDevice, DeviceOutput};
use netsim::packet::{Packet, Payload, Transport};
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::types::{DatapathId, MacAddr};
use ops::{OpsServer, OpsState};

use crate::stats::{median, percentile, Report};
use crate::trace::{self, ControlLog, DeviceLog, Shared, TimedControl, TimedDevice};
use crate::{Args, Rng};

const CLIENT_PORT: u16 = 1;
const SINK_PORT: u16 = 2;
const ATTACK_PORT: u16 = 3;
const CACHE_PORT: u16 = 99;
/// Destination port (TCP or UDP) marking a probe.
const PROBE_PORT: u16 = 7000;
const CLIENT_MAC: u64 = 0x02aa_0000_0001;

/// Independent deploy-calm-attack episodes per run.
const EPISODES: usize = 3;
/// Calm probes per episode (the pooled p99 needs 1000 samples).
const CALM_PROBES: usize = 370;
/// Attack probes per episode (90% to learned hosts: the pooled p99 of
/// those needs 1000 samples).
const ATTACK_PROBES: usize = 470;
/// One probe in this many targets a destination no host owns.
const UNKNOWN_ONE_IN: usize = 10;
/// Share of an episode spent in the calm phase.
const CALM_SHARE: f64 = 0.35;
/// Spoofed flood rate, packets/s (the detector triggers at 1000 pps).
const FLOOD_PPS: f64 = 3000.0;
/// Warm-up learning rate, packets/s: below the detector trigger.
const WARM_PPS: f64 = 600.0;
/// A probe later than this (or never delivered) missed the limit: the
/// classic initial TCP SYN retransmission timeout.
const LIMIT: Duration = Duration::from_millis(3000);
const SCRAPE_EVERY: Duration = Duration::from_millis(500);
/// Fewest scrapes a run makes (a p50 needs 20); short runs scrape faster.
const MIN_SCRAPES: f64 = 30.0;
/// Room a scrape needs before the next probe is due.
const SCRAPE_GAP: Duration = Duration::from_millis(3);

/// Thread-name prefixes of the channel's threads (the controller endpoint
/// runs a tokio runtime; the switch endpoint's thread also runs the
/// datapath and its devices) and of the ops server's.
const CHANNEL_THREADS: [&str; 2] = ["ofchannel", "tokio"];
const OPS_THREADS: [&str; 1] = ["ops-http"];

/// Rate-only detection (live telemetry carries no utilization): the score
/// crosses the threshold at a 1000 pps packet_in rate.
fn detection() -> DetectionConfig {
    DetectionConfig {
        rate_capacity_pps: 2000.0,
        score_threshold: 0.5,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    }
}

fn host_mac(j: usize) -> MacAddr {
    MacAddr::from_u64(0x0200_0100_0000 + j as u64)
}

/// Records the first arrival of every probe.
struct Sink {
    arrivals: Arc<Mutex<Vec<Option<Instant>>>>,
}

impl DataPlaneDevice for Sink {
    fn on_packet(&mut self, pkt: Packet, _now: f64, _out: &mut DeviceOutput) {
        let Payload::Ipv4 { src, transport, .. } = pkt.payload else {
            return;
        };
        let (Transport::Tcp { dst_port, .. } | Transport::Udp { dst_port, .. }) = transport else {
            return;
        };
        let src = u32::from(src);
        if dst_port != PROBE_PORT || src >> 16 != 0x0a01 {
            return;
        }
        let mut arrivals = self.arrivals.lock().expect("sink lock poisoned");
        if let Some(slot) = arrivals.get_mut((src & 0xffff) as usize) {
            slot.get_or_insert_with(Instant::now);
        }
    }
}

/// A probe: to a learned host, a TCP SYN opening a new benign flow (the
/// paper's Table IV probe); to an unowned destination, a UDP datagram like
/// the flood's, so under attack it shares the flood's cache lane.
fn probe_packet(id: usize, p: &Probe) -> Packet {
    let (src_mac, src_ip) = (
        MacAddr::from_u64(CLIENT_MAC),
        Ipv4Addr::from(0x0a01_0000 | id as u32),
    );
    let dst_ip = Ipv4Addr::new(10, 2, 0, 1);
    if p.learned {
        Packet::tcp(
            src_mac,
            p.dst,
            src_ip,
            dst_ip,
            20_000,
            PROBE_PORT,
            Transport::TCP_SYN,
            128,
        )
    } else {
        Packet::udp(src_mac, p.dst, src_ip, dst_ip, 20_000, PROBE_PORT, 128)
    }
}

/// One scheduled probe.
struct Probe {
    /// Due time from the schedule's start.
    due: Duration,
    dst: MacAddr,
    learned: bool,
    attack: bool,
}

/// The open-loop schedule: evenly spaced probes per phase, destinations
/// drawn from the seed. Returns the probes and how many hosts the warm-up
/// must teach.
fn schedule(rng: &mut Rng, calm: Duration, attack: Duration) -> (Vec<Probe>, usize) {
    let mut probes = Vec::with_capacity(CALM_PROBES + ATTACK_PROBES);
    let mut learned = 0;
    for (phase_start, span, n, is_attack) in [
        (Duration::ZERO, calm, CALM_PROBES, false),
        (calm, attack, ATTACK_PROBES, true),
    ] {
        for i in 0..n {
            let id = probes.len();
            let unknown = rng.below(UNKNOWN_ONE_IN) == 0;
            let dst = if unknown {
                MacAddr::from_u64(0x00DE_AD00_0000 + id as u64)
            } else {
                learned += 1;
                MacAddr::from_u64(0) // assigned below
            };
            probes.push(Probe {
                due: phase_start + span.mul_f64(i as f64 / n as f64),
                dst,
                learned: !unknown,
                attack: is_attack,
            });
        }
    }
    // Each learned host is probed once, in a seeded order.
    let order = rng.permutation(learned);
    let mut next = order.into_iter();
    for p in probes.iter_mut().filter(|p| p.learned) {
        p.dst = host_mac(next.next().expect("one host per learned probe"));
    }
    (probes, learned)
}

/// A running deployment.
struct Deployment {
    endpoint: SwitchEndpoint,
    controller: ControllerEndpoint,
    ops: OpsServer,
    monitor: MonitorHandle,
    cache: CacheHandle,
    arrivals: Arc<Mutex<Vec<Option<Instant>>>>,
    control_log: Option<Shared<ControlLog>>,
    device_log: Option<Shared<DeviceLog>>,
}

impl Deployment {
    fn ops_addr(&self) -> SocketAddr {
        self.ops.local_addr()
    }

    /// FSM still Idle with no transitions.
    fn calm(&self) -> bool {
        let m = self.monitor.lock();
        m.transitions.is_empty() && matches!(m.state, None | Some(State::Idle))
    }
}

/// Spawns the endpoints, waits for both handshakes and teaches the
/// controller `hosts` hosts behind the sink port at [`WARM_PPS`].
fn deploy(hosts: usize, probes: usize, shims: bool) -> Result<Deployment, String> {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let config = FloodGuardConfig {
        detection: detection(),
        ..FloodGuardConfig::default()
    };
    let mut fg = FloodGuard::new(platform, config, CACHE_PORT);
    let hub = obs::Obs::new();
    fg.attach_obs(&hub);
    let monitor = fg.monitor_handle();
    let cache_handle = fg.cache_handle();
    let cache = fg.build_cache();
    let arrivals = Arc::new(Mutex::new(vec![None; probes]));
    let sink = Box::new(Sink {
        arrivals: Arc::clone(&arrivals),
    });
    let (cache, device_log): (Box<dyn DataPlaneDevice>, _) = if shims {
        let (dev, log) = TimedDevice::new(cache);
        (Box::new(dev), Some(log))
    } else {
        (Box::new(cache), None)
    };
    let (control, control_log): (Box<dyn ControlPlane>, _) = if shims {
        let (cp, log) = TimedControl::new(fg);
        (Box::new(cp), Some(log))
    } else {
        (Box::new(fg), None)
    };
    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![CLIENT_PORT, SINK_PORT, ATTACK_PORT, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, cache), (SINK_PORT, sink)],
        ChannelConfig::default(),
    )
    .map_err(|e| format!("switch endpoint: {e}"))?;
    // The sink's own listener is never dialed: two connections, switch and
    // cache.
    let targets = vec![endpoint.switch_addr(), endpoint.device_addrs()[0]];
    let controller = ControllerEndpoint::spawn(
        control,
        targets,
        ControllerConfig {
            telemetry_interval: Duration::from_millis(20),
            ..ControllerConfig::default()
        },
    );
    let ops = OpsServer::spawn(
        OpsState::new()
            .with_hub(hub)
            .with_view(controller.view())
            .with_monitor(monitor.clone()),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("ops server: {e}"))?;
    let d = Deployment {
        endpoint,
        controller,
        ops,
        monitor,
        cache: cache_handle,
        arrivals,
        control_log,
        device_log,
    };
    let waited = wait_for(Duration::from_secs(10), || {
        let s = d.controller.status();
        s.connected_switches.len() == 1 && s.connected_devices.len() == 1
    });
    if !waited {
        return Err("handshakes did not complete within 10 s".into());
    }

    // Paced warm-up: each host sends one broadcast from the sink port, so
    // l2_learning learns it without installing any rule.
    let before = d.controller.counters().frames_in;
    let start = Instant::now();
    for j in 0..hosts {
        let due = start + Duration::from_secs_f64(j as f64 / WARM_PPS);
        sleep_until(due);
        d.endpoint.inject(
            SINK_PORT,
            Packet::udp(
                host_mac(j),
                MacAddr::BROADCAST,
                Ipv4Addr::from(0x0a03_0000 | j as u32),
                Ipv4Addr::new(10, 3, 255, 255),
                30_000,
                30_000,
                96,
            ),
        );
    }
    let absorbed = wait_for(Duration::from_secs(10), || {
        d.controller.counters().frames_in >= before + hosts as u64
    });
    if !absorbed {
        return Err("the controller did not receive every warm-up packet_in".into());
    }
    std::thread::sleep(Duration::from_millis(50));
    if !d.calm() {
        return Err(format!(
            "warm-up tripped the detector: {:?}",
            d.monitor.lock().transitions
        ));
    }
    Ok(d)
}

fn wait_for(limit: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// What one drive of the schedule measured.
struct Drive {
    /// Per probe: ms from due time to arrival (`INFINITY` = missed limit).
    latency_ms: Vec<f64>,
    /// Per probe: ms the generator sent it after it was due.
    late_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    scrape_failures: u64,
    /// FSM stayed Idle with no transitions through the calm phase.
    calm_ok: bool,
    /// From the first flood packet to the generator seeing Defense, ms.
    detect_ms: Option<f64>,
}

/// Runs the open-loop schedule: probes, the flood from `attack_at` to the
/// end, and the scrapes.
fn drive(
    d: &Deployment,
    probes: &[Probe],
    attack_at: Duration,
    end: Duration,
    scrape_every: Duration,
    rng: &mut Rng,
) -> Drive {
    let t0 = Instant::now() + Duration::from_millis(20);
    let attack_start = t0 + attack_at;
    let mut late_ms = Vec::with_capacity(probes.len());
    let mut scrape_ms = Vec::new();
    let mut scrape_failures = 0;
    let mut next_probe = 0;
    let mut next_scrape = t0;
    let mut flood_sent = 0u64;
    let mut calm_ok = true;
    let mut calm_checked = false;
    let mut flood_started = None;
    let mut detected = None;
    loop {
        let now = Instant::now();
        while next_probe < probes.len() && t0 + probes[next_probe].due <= now {
            let p = &probes[next_probe];
            if p.attack && !calm_checked {
                // The calm phase ends here: check before the first attack
                // probe (the flood below starts at the same instant).
                calm_ok = d.calm();
                calm_checked = true;
            }
            d.endpoint.inject(CLIENT_PORT, probe_packet(next_probe, p));
            late_ms.push((Instant::now() - (t0 + p.due)).as_secs_f64() * 1e3);
            next_probe += 1;
        }
        if now >= attack_start {
            if !calm_checked {
                calm_ok = d.calm();
                calm_checked = true;
            }
            flood_started.get_or_insert(now);
            let until = now.min(t0 + end);
            let target = ((until - attack_start).as_secs_f64() * FLOOD_PPS) as u64;
            while flood_sent < target {
                d.endpoint.inject(ATTACK_PORT, flood_packet(rng));
                flood_sent += 1;
            }
            if detected.is_none() && d.monitor.lock().state == Some(State::Defense) {
                detected = Some(now);
            }
        }
        // Scrape in a gap, when the next probe is not due within a
        // scrape's typical duration, so scrapes do not make probes late —
        // unless probes come too fast to leave one for half a period.
        let gap = probes
            .get(next_probe)
            .is_none_or(|p| t0 + p.due >= now + SCRAPE_GAP)
            || now >= next_scrape + scrape_every / 2;
        if now >= next_scrape && now < t0 + end && gap {
            let s0 = Instant::now();
            match ops::client::get(d.ops_addr(), "/metrics") {
                Ok(r) if r.status == 200 && !r.body.is_empty() => {
                    scrape_ms.push(s0.elapsed().as_secs_f64() * 1e3);
                }
                _ => scrape_failures += 1,
            }
            next_scrape += scrape_every;
        }
        if next_probe == probes.len() && now >= t0 + end {
            break;
        }
        // An overdue scrape waits for the gap after the next probe.
        let mut wake = if next_scrape > now {
            next_scrape
        } else {
            next_scrape + scrape_every / 2
        }
        .min(t0 + end);
        if let Some(p) = probes.get(next_probe) {
            wake = wake.min(t0 + p.due);
        }
        // Flood pacing: a millisecond's worth of packets per wake-up.
        wake = wake.min(attack_start.max(now + Duration::from_millis(1)));
        sleep_until(wake);
    }

    // Give the last probes the full limit to arrive.
    sleep_until(t0 + probes.last().map_or(Duration::ZERO, |p| p.due) + LIMIT);
    let arrivals = d.arrivals.lock().expect("sink lock poisoned").clone();
    let latency_ms = probes
        .iter()
        .zip(arrivals)
        .map(
            |(p, arrival)| match arrival.map(|at| at.saturating_duration_since(t0 + p.due)) {
                Some(latency) if latency <= LIMIT => latency.as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            },
        )
        .collect();
    Drive {
        latency_ms,
        late_ms,
        scrape_ms,
        scrape_failures,
        calm_ok,
        detect_ms: flood_started
            .zip(detected)
            .map(|(f, d)| d.saturating_duration_since(f).as_secs_f64() * 1e3),
    }
}

fn flood_packet(rng: &mut Rng) -> Packet {
    let r = rng.next_u64();
    Packet::udp(
        MacAddr::from_u64(0x0600_0000_0000 | (r & 0xffff_ffff)),
        MacAddr::from_u64(0x0a00_0000_0000 | (r >> 32)),
        Ipv4Addr::from((r >> 16) as u32),
        Ipv4Addr::new(10, 9, 9, 9),
        (r >> 48) as u16,
        53,
        64,
    )
}

/// Stops a deployment; returns the switch's final flow-table size.
fn shut_down(d: Deployment) -> usize {
    drop(d.ops);
    drop(d.controller.shutdown());
    d.endpoint.shutdown().table.len()
}

/// One episode's probes and what the drive measured.
struct Episode {
    probes: Vec<Probe>,
    out: Drive,
}

impl Episode {
    fn latencies(&self, keep: impl Fn(&Probe) -> bool) -> Vec<f64> {
        select(&self.probes, &self.out.latency_ms, keep)
    }
}

fn calm_probe(p: &Probe) -> bool {
    !p.attack
}

fn attack_learned(p: &Probe) -> bool {
    p.attack && p.learned
}

fn attack_unknown(p: &Probe) -> bool {
    p.attack && !p.learned
}

/// Runs the workload: [`EPISODES`] independent episodes (deploy, calm,
/// attack, tear down), each measuring `--seconds / EPISODES`. Medians are
/// taken across episodes; the p99s pool every episode's probes.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed);
    let span = args.seconds / EPISODES as f64;
    let calm = Duration::from_secs_f64(span * CALM_SHARE);
    let attack = Duration::from_secs_f64(span * (1.0 - CALM_SHARE));
    let scrape_every = SCRAPE_EVERY.min(Duration::from_secs_f64(args.seconds / MIN_SCRAPES));

    let mut setups = Vec::new();
    let mut episodes = Vec::new();
    let mut traced_layers = None;
    for e in 0..EPISODES {
        // A traced run shims only its last episode; the others are its
        // untraced reference.
        let shims = args.trace && e + 1 == EPISODES;
        let (probes, hosts) = schedule(&mut rng, calm, attack);
        let t0 = Instant::now();
        let d = match deploy(hosts, probes.len(), shims) {
            Ok(d) => d,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("set-up: {e}"));
                return report;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        let mark = shims.then(|| Mark::take(&d));
        let out = drive(&d, &probes, calm, calm + attack, scrape_every, &mut rng);
        let span = mark.map(|m| m.since(&d));
        report.attempted +=
            probes.len() as u64 + out.scrape_ms.len() as u64 + out.scrape_failures + 2;
        report.fail_many(
            out.scrape_failures,
            format!("{} /metrics scrapes failed", out.scrape_failures),
        );
        report.check(out.calm_ok, || {
            format!(
                "FloodGuard left Idle during the calm phase: {:?}",
                d.monitor.lock().transitions
            )
        });
        let defended = d
            .monitor
            .lock()
            .transitions
            .iter()
            .any(|t| t.to == State::Defense);
        report.check(defended, || {
            "the flood never moved FloodGuard to Defense".into()
        });
        let episode = Episode { probes, out };
        if shims {
            traced_layers = Some((layers(d), span.expect("marked with the shims")));
        } else {
            shut_down(d);
        }
        episodes.push(episode);
    }

    let pooled = |keep: fn(&Probe) -> bool| -> Vec<f64> {
        episodes.iter().flat_map(|e| e.latencies(keep)).collect()
    };
    let per_episode_p50 = |keep: fn(&Probe) -> bool, which: &[usize]| -> Option<f64> {
        let p50s: Option<Vec<f64>> = which
            .iter()
            .map(|&i| percentile(&episodes[i].latencies(keep), 50.0))
            .collect();
        median(&p50s?)
    };
    let lost = |v: &[f64]| v.iter().filter(|x| x.is_infinite()).count();
    let (calm_lat, attack_lat, unknown) = (
        pooled(calm_probe),
        pooled(attack_learned),
        pooled(attack_unknown),
    );
    println!(
        "# probes missing the {LIMIT:?} limit: calm {}/{}, attack learned {}/{}, attack unknown {}/{}",
        lost(&calm_lat),
        calm_lat.len(),
        lost(&attack_lat),
        attack_lat.len(),
        lost(&unknown),
        unknown.len()
    );
    // Benign probes with no attack running must all arrive.
    let calm_lost = lost(&calm_lat);
    report.fail_many(
        calm_lost as u64,
        format!("{calm_lost} calm probes missed the {LIMIT:?} limit"),
    );

    if !args.trace {
        let all: Vec<usize> = (0..EPISODES).collect();
        report.metric_opt("setup_s", median(&setups), "s");
        report.metric_opt("op_ms", per_episode_p50(calm_probe, &all), "ms");
        report.metric_opt(
            "attack_setup_ms_p50",
            per_episode_p50(attack_learned, &all),
            "ms",
        );
        report.metric(
            "attack_unknown_loss",
            lost(&unknown) as f64 / unknown.len().max(1) as f64,
            "ratio",
        );
        return report;
    }

    // The tails swing too much between runs on a small shared host to bound
    // them, so they are per-layer figures, pooled over the traced run's
    // episodes (the last one shimmed).
    report.metric_opt("calm_setup_ms_p99", percentile(&calm_lat, 99.0), "ms");
    report.metric_opt("attack_setup_ms_p99", percentile(&attack_lat, 99.0), "ms");
    let untraced: Vec<usize> = (0..EPISODES - 1).collect();
    let traced_p50 = per_episode_p50(calm_probe, &[EPISODES - 1]);
    report.metric_opt(
        "trace.overhead",
        traced_p50
            .zip(per_episode_p50(calm_probe, &untraced))
            .map(|(t, u)| t / u),
        "ratio",
    );
    let late: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.out.late_ms.iter().copied())
        .collect();
    let scrapes: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.out.scrape_ms.iter().copied())
        .collect();
    report.metric_opt("gen.late_ms_p99", percentile(&late, 99.0), "ms");
    report.metric_opt(
        "gen.late_ms_max",
        late.iter().copied().reduce(f64::max),
        "ms",
    );
    report.metric_opt("ops.scrape_ms_p50", percentile(&scrapes, 50.0), "ms");
    let (l, span) = traced_layers.expect("the last episode of a traced run is shimmed");
    let mut messages = l.control.received.clone();
    messages.extend(l.control.sent.iter().cloned());
    let codec = trace::codec_ns(&messages, 200_000);
    // Attribution over the traced episode's schedule. Each frame the
    // channel carried was encoded and decoded once; the channel's self time
    // is its threads' CPU time minus the FloodGuard, cache and codec time
    // spent on them.
    let mut layer_use =
        trace::LayerUse::new(episodes[EPISODES - 1].probes.len() as f64, span.wall_s);
    let fg_s = l.control.total_ns() as f64 / 1e9;
    let cache_s = l.device.total_ns as f64 / 1e9;
    let codec_s = codec.map_or(0.0, |(enc, dec)| (enc + dec) * span.frames as f64 / 1e9);
    layer_use.add("floodguard", l.control.calls() as f64, fg_s);
    layer_use.add("cache", l.device.calls() as f64, cache_s);
    layer_use.add("ofproto", span.frames as f64, codec_s);
    layer_use.add(
        "ofchannel",
        span.frames as f64,
        (span.channel_cpu_s - fg_s - cache_s - codec_s).max(0.0),
    );
    layer_use.add(
        "ops",
        episodes[EPISODES - 1].out.scrape_ms.len() as f64,
        span.ops_cpu_s,
    );
    layer_use.report(&mut report);
    report.metric_opt(
        "floodguard.detect_ms",
        episodes[EPISODES - 1].out.detect_ms,
        "ms",
    );
    let us = |v: &[u64]| trace::scaled(v, 1e3);
    let msg = us(&l.control.on_message);
    let fg_msg_p50 = percentile(&msg, 50.0);
    report.metric_opt("floodguard.on_message_us_p50", fg_msg_p50, "us");
    report.metric_opt("floodguard.on_message_us_p99", percentile(&msg, 99.0), "us");
    report.metric_opt(
        "floodguard.on_device_message_us_p50",
        percentile(&us(&l.control.on_device_message), 50.0),
        "us",
    );
    let tel = us(&l.control.on_telemetry);
    report.metric_opt(
        "floodguard.on_telemetry_us_p50",
        percentile(&tel, 50.0),
        "us",
    );
    report.metric_opt(
        "floodguard.on_telemetry_ms_max",
        tel.iter().copied().reduce(f64::max).map(|v| v / 1e3),
        "ms",
    );
    report.metric_opt(
        "floodguard.cache_on_packet_ns",
        percentile(&trace::scaled(&l.device.per_packet, 1.0), 50.0),
        "ns",
    );
    report.metric_opt(
        "floodguard.cache_on_tick_us",
        percentile(&us(&l.device.on_tick), 50.0),
        "us",
    );
    crate::sweep::cache_counts(
        &mut report,
        l.cache.received,
        l.cache.emitted,
        l.cache.dropped,
        l.fg.reraised,
        l.fg.proactive_installed,
    );
    report.metric_opt(
        "ofchannel.transit_ms_p50",
        traced_p50.zip(fg_msg_p50).map(|(c, f)| c - f / 1e3),
        "ms",
    );
    for (side, c) in [("switch", l.switch_side), ("controller", l.controller_side)] {
        for (name, v) in [
            ("frames_in", c.frames_in),
            ("frames_out", c.frames_out),
            ("sends_blocked", c.sends_blocked),
            ("send_queue_hwm", c.send_queue_hwm),
            ("budget_exhausted", c.budget_exhausted),
            ("decode_errors", c.decode_errors),
        ] {
            report.metric(&format!("ofchannel.{side}.{name}"), v as f64, "count");
        }
    }
    match codec {
        Some((enc, dec)) => {
            report.metric("ofproto.encode_ns", enc, "ns");
            report.metric("ofproto.decode_ns", dec, "ns");
        }
        None => report.fail("no codec sample: the shim saw no decodable frames".into()),
    }
    report.metric(
        "ofproto.flow_table_rules",
        l.flow_table_rules as f64,
        "count",
    );
    report
}

/// Where the traced episode's schedule starts: the shim logs are cleared
/// so they hold the schedule only, and the CPU time and frame counts the
/// schedule adds are read against this mark.
struct Mark {
    started: Instant,
    channel_ns: HashMap<u64, u64>,
    ops_ns: HashMap<u64, u64>,
    frames: u64,
}

/// What the traced episode's schedule cost outside the shims.
struct Span {
    wall_s: f64,
    channel_cpu_s: f64,
    ops_cpu_s: f64,
    /// Frames both endpoints sent.
    frames: u64,
}

fn frames_sent(d: &Deployment) -> u64 {
    d.endpoint.counters().frames_out + d.controller.counters().frames_out
}

impl Mark {
    fn take(d: &Deployment) -> Mark {
        if let Some(log) = &d.control_log {
            *trace::lock(log) = ControlLog::default();
        }
        if let Some(log) = &d.device_log {
            *trace::lock(log) = DeviceLog::default();
        }
        Mark {
            started: Instant::now(),
            channel_ns: trace::thread_cpu_ns(&CHANNEL_THREADS),
            ops_ns: trace::thread_cpu_ns(&OPS_THREADS),
            frames: frames_sent(d),
        }
    }

    fn since(&self, d: &Deployment) -> Span {
        Span {
            wall_s: self.started.elapsed().as_secs_f64(),
            channel_cpu_s: trace::cpu_since(
                &self.channel_ns,
                &trace::thread_cpu_ns(&CHANNEL_THREADS),
            ),
            ops_cpu_s: trace::cpu_since(&self.ops_ns, &trace::thread_cpu_ns(&OPS_THREADS)),
            frames: frames_sent(d) - self.frames,
        }
    }
}

/// What the traced episode's shims and counters recorded.
struct Layers {
    control: ControlLog,
    device: DeviceLog,
    cache: floodguard::cache::CacheStats,
    fg: floodguard::FloodGuardStats,
    switch_side: ofchannel::CountersSnapshot,
    controller_side: ofchannel::CountersSnapshot,
    flow_table_rules: usize,
}

/// Reads the traced episode's layer figures and tears the deployment down.
fn layers(d: Deployment) -> Layers {
    let switch_side = d.endpoint.counters();
    let controller_side = d.controller.counters();
    let cache = d.cache.lock().stats;
    let fg = d.monitor.lock().stats;
    let control = std::mem::take(&mut *trace::lock(
        d.control_log.as_ref().expect("traced deployment"),
    ));
    let device = std::mem::take(&mut *trace::lock(
        d.device_log.as_ref().expect("traced deployment"),
    ));
    let flow_table_rules = shut_down(d);
    Layers {
        control,
        device,
        cache,
        fg,
        switch_side,
        controller_side,
        flow_table_rules,
    }
}

fn select(probes: &[Probe], values: &[f64], keep: impl Fn(&Probe) -> bool) -> Vec<f64> {
    probes
        .iter()
        .zip(values)
        .filter(|(p, _)| keep(p))
        .map(|(_, &v)| v)
        .collect()
}
