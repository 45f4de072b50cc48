//! `paper_sweep`: regenerate the paper's Fig. 10, Fig. 11 and Table IV
//! numbers, serially, through `bench::scenario::run`, and check every row
//! against the checked-in `results/BENCH_{fig10,fig11,table4}.json`.
//!
//! The traced pass rebuilds the same scenarios by hand with timing shims
//! around the control plane and the cache device; it must reproduce the
//! same rows, which also checks that the shims change nothing.

use std::path::Path;
use std::time::Instant;

use bench::report::extract_number;
use bench::{Defense, Scenario, CACHE_PORT, H1_IP, H1_MAC, H2_IP, H2_MAC, H3_IP, H3_MAC};
use controller::platform::ControllerPlatform;
use floodguard::cache::CacheHandle;
use floodguard::{FloodGuard, FloodGuardConfig, MonitorHandle};
use netsim::engine::Simulation;
use netsim::host::{BulkSender, HostId, NewFlowProbe, UdpFlood};
use netsim::iface::ControlPlane;
use netsim::packet::{FlowTag, Payload, Transport};

use crate::stats::{mean_of, median, percentile, Report};
use crate::trace::{self, ControlLog, DeviceLog, Shared, TimedControl, TimedDevice};
use crate::{Args, Rng};

const FIG10_RATES: [f64; 10] = [
    0.0, 50.0, 100.0, 130.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0,
];
const FIG11_RATES: [f64; 10] = [
    0.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0,
];
/// Single-probe runs per Table IV configuration (seeds 100..108).
const TABLE4_RUNS: u64 = 8;
/// Times one set-up assembles every scenario (one assembly takes well under
/// a millisecond, too little to time steadily).
const BUILDS_PER_SETUP: usize = 20;

/// What one scenario run is for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Fig. 10 (`fig = 0`) or Fig. 11 (`fig = 1`) cell.
    Fig { fig: usize, rate: usize, fg: bool },
    /// Table IV configuration `config` (base, flooded, guarded).
    Table4 { config: usize },
}

struct Job {
    kind: Kind,
    scenario: Scenario,
}

/// One scenario's result row.
#[derive(Debug, Clone, PartialEq)]
enum Row {
    Bps(f64),
    Probe {
        delay: Option<f64>,
        cache_waits_ms: Vec<f64>,
    },
}

/// The figure and table scenarios, in the order the paper's harnesses run
/// them.
fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (fig, rates) in [FIG10_RATES, FIG11_RATES].iter().enumerate() {
        for (rate, &pps) in rates.iter().enumerate() {
            for fg in [false, true] {
                let base = if fig == 0 {
                    Scenario::software()
                } else {
                    Scenario::hardware()
                };
                let mut scenario = base.with_attack(pps);
                if fg {
                    scenario =
                        scenario.with_defense(Defense::FloodGuard(FloodGuardConfig::default()));
                }
                jobs.push(Job {
                    kind: Kind::Fig { fig, rate, fg },
                    scenario,
                });
            }
        }
    }
    let mut base = Scenario::hardware();
    base.bulk = false;
    base.attack_pps = 0.0;
    base.duration = 4.0;
    let mut flooded = base.clone();
    flooded.attack_pps = 400.0;
    flooded.attack_start = 0.5;
    flooded.attack_stop = 4.0;
    let mut guarded = flooded.clone();
    guarded.defense = Defense::FloodGuard(FloodGuardConfig::default());
    for (config, template) in [base, flooded, guarded].into_iter().enumerate() {
        for seed in 0..TABLE4_RUNS {
            let mut scenario = template.clone();
            scenario.seed = 100 + seed;
            scenario.probes = vec![2.0];
            jobs.push(Job {
                kind: Kind::Table4 { config },
                scenario,
            });
        }
    }
    jobs
}

/// The checked-in rows every pass must reproduce.
struct Expected {
    /// Per figure: `(no_defense_bps, floodguard_bps)` per rate.
    fig: [Vec<(f64, f64)>; 2],
    /// Table IV: base, flooded, flooded_lost, floodguard, floodguard_lost,
    /// cache (`None` where the file holds `null`).
    table4: [Option<f64>; 6],
}

/// Every number following `"key":` in `body`, in file order.
fn all_numbers(body: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at..];
        if let Some(v) = extract_number(rest, key) {
            out.push(v);
        }
        rest = &rest[needle.len()..];
    }
    out
}

fn load_expected(root: &Path) -> Result<Expected, String> {
    let read = |name: &str| {
        let path = root.join("results").join(format!("BENCH_{name}.json"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut fig: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    for (i, (name, rates)) in [("fig10", FIG10_RATES), ("fig11", FIG11_RATES)]
        .iter()
        .enumerate()
    {
        let body = read(name)?;
        let pps = all_numbers(&body, "attack_pps");
        let none = all_numbers(&body, "no_defense_bps");
        let fg = all_numbers(&body, "floodguard_bps");
        if pps != rates.to_vec() || none.len() != rates.len() || fg.len() != rates.len() {
            return Err(format!("BENCH_{name}.json: unexpected row layout"));
        }
        fig[i] = none.into_iter().zip(fg).collect();
    }
    let body = read("table4")?;
    let keys = [
        "base_ms",
        "flooded_ms",
        "flooded_lost",
        "floodguard_ms",
        "floodguard_lost",
        "cache_ms",
    ];
    let table4 = keys.map(|k| extract_number(&body, k));
    Ok(Expected { fig, table4 })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Checks one pass's rows against the checked-in results, counting every
/// scenario run whose row is wrong as failed.
fn check(jobs: &[Job], rows: &[Row], expected: &Expected, label: &str, report: &mut Report) {
    let mut per_config: [(Vec<f64>, u64, Vec<f64>); 3] = Default::default();
    for (job, row) in jobs.iter().zip(rows) {
        match (job.kind, row) {
            (Kind::Fig { fig, rate, fg }, Row::Bps(bps)) => {
                let (none, guarded) = expected.fig[fig][rate];
                let want = if fg { guarded } else { none };
                report.check(*bps == want, || {
                    format!(
                        "{label}: fig{} rate #{rate} fg={fg}: {bps} bps, checked-in {want}",
                        10 + fig
                    )
                });
            }
            (
                Kind::Table4 { config },
                Row::Probe {
                    delay,
                    cache_waits_ms,
                },
            ) => {
                let (delays, lost, waits) = &mut per_config[config];
                match delay {
                    Some(d) => delays.push(d * 1e3),
                    None => *lost += 1,
                }
                waits.extend_from_slice(cache_waits_ms);
            }
            _ => report.fail(format!("{label}: row kind does not match its scenario")),
        }
    }
    let flooded = &per_config[1].0;
    let got = [
        Some(mean(&per_config[0].0)),
        (!flooded.is_empty()).then(|| mean(flooded)),
        Some(per_config[1].1 as f64),
        Some(mean(&per_config[2].0)),
        Some(per_config[2].1 as f64),
        Some(mean(&per_config[2].2)),
    ];
    if got != expected.table4 {
        // Every Table IV run feeds these aggregates; count them all.
        report.fail_many(
            3 * TABLE4_RUNS,
            format!("{label}: table4 {got:?}, checked-in {:?}", expected.table4),
        );
    }
}

fn row_of(scenario: &Scenario, outcome: &bench::Outcome) -> Row {
    if scenario.probes.is_empty() {
        return Row::Bps(outcome.bandwidth_bps);
    }
    Row::Probe {
        delay: outcome.probe_delays[0].1,
        cache_waits_ms: cache_waits(outcome.cache.as_ref()),
    }
}

fn cache_waits(cache: Option<&CacheHandle>) -> Vec<f64> {
    cache
        .map(|handle| {
            handle
                .lock()
                .probes
                .iter()
                .filter_map(|p| p.emitted.map(|e| (e - p.arrived) * 1e3))
                .collect()
        })
        .unwrap_or_default()
}

/// A Fig. 9 simulation assembled by hand the way `bench::scenario::run`
/// assembles it, optionally with timing shims on the two seams. It covers
/// the scenario fields the sweep's jobs set (UDP floods, bulk flow, probes;
/// no faults, adversaries or standby cache); the row check proves it
/// matches.
struct Built {
    sim: Simulation,
    sw: netsim::SwitchId,
    h2: HostId,
    cache: Option<CacheHandle>,
    monitor: Option<MonitorHandle>,
    control_log: Option<Shared<ControlLog>>,
    device_log: Option<Shared<DeviceLog>>,
}

fn build(s: &Scenario, shims: bool) -> Built {
    let mut sim = Simulation::new(s.seed);
    let sw = sim.add_switch(s.profile, vec![1, 2, 3, CACHE_PORT]);
    let h1 = sim.add_host(sw, 1, H1_MAC, H1_IP);
    let h2 = sim.add_host(sw, 2, H2_MAC, H2_IP);
    let h3 = sim.add_host(sw, 3, H3_MAC, H3_IP);
    sim.host_mut(h1).complete_handshakes = s.probe_handshake;
    let mut platform = ControllerPlatform::new();
    for program in &s.apps {
        platform.register(program.clone());
    }
    let mut built_cache = None;
    let mut monitor = None;
    let mut device_log = None;
    let (control, control_log): (Box<dyn ControlPlane>, _) = match &s.defense {
        Defense::None => wrap(platform, shims),
        Defense::FloodGuard(config) => {
            let mut fg = FloodGuard::new(platform, *config, CACHE_PORT);
            let cache = fg.build_cache();
            built_cache = Some(fg.cache_handle());
            monitor = Some(fg.monitor_handle());
            let device: Box<dyn netsim::DataPlaneDevice> = if shims {
                let (dev, log) = TimedDevice::new(cache);
                device_log = Some(log);
                Box::new(dev)
            } else {
                Box::new(cache)
            };
            sim.attach_device(
                sw,
                CACHE_PORT,
                device,
                s.profile.channel_bandwidth,
                s.profile.channel_latency,
                1e-3,
            );
            wrap(fg, shims)
        }
        other => panic!("paper_sweep has no {} scenarios", other.name()),
    };
    sim.set_control_plane(control);
    if s.bulk {
        sim.host_mut(h1).add_source(Box::new(BulkSender::new(
            H1_MAC,
            H1_IP,
            H2_MAC,
            H2_IP,
            1,
            8,
            s.bulk_batch,
            1500,
            0.05,
        )));
    }
    if s.attack_pps > 0.0 {
        sim.host_mut(h3).add_source(Box::new(UdpFlood::new(
            H3_MAC,
            s.attack_pps,
            s.attack_start,
            s.attack_stop,
            64,
        )));
    }
    for (i, &at) in s.probes.iter().enumerate() {
        sim.host_mut(h1).add_source(Box::new(NewFlowProbe::new(
            H1_MAC,
            H1_IP,
            H2_MAC,
            H2_IP,
            i as u32 + 1,
            at,
        )));
    }
    Built {
        sim,
        sw,
        h2,
        cache: built_cache,
        monitor,
        control_log,
        device_log,
    }
}

fn wrap<C: ControlPlane + 'static>(
    control: C,
    shims: bool,
) -> (Box<dyn ControlPlane>, Option<Shared<ControlLog>>) {
    if shims {
        let (timed, log) = TimedControl::new(control);
        (Box::new(timed), Some(log))
    } else {
        (Box::new(control), None)
    }
}

/// Per-layer figures gathered from traced passes.
#[derive(Default)]
struct Layers {
    events: u64,
    run_s: f64,
    shim_s: f64,
    misses: u64,
    packet_ins: u64,
    forwarded: u64,
    ingress_drops: u64,
    ctrl_dropped: u64,
    controller_msg_ns: Vec<u64>,
    controller_calls: u64,
    controller_ns: u64,
    fg_calls: u64,
    fg_ns: u64,
    cache_calls: u64,
    cache_ns: u64,
    fg_msg_ns: Vec<u64>,
    fg_device_ns: Vec<u64>,
    fg_telemetry_ns: Vec<u64>,
    cache_packet_ns: Vec<u64>,
    cache_tick_ns: Vec<u64>,
    cache_received: u64,
    cache_emitted: u64,
    cache_dropped: u64,
    reraised: u64,
    proactive_installed: u64,
}

/// Runs `s` through the shimmed hand-built simulation, adding its layer
/// figures to `layers`.
fn run_traced(s: &Scenario, layers: &mut Layers) -> Row {
    let mut b = build(s, true);
    let t0 = Instant::now();
    b.sim.run_until(s.duration);
    let run_s = t0.elapsed().as_secs_f64();

    let control = b.control_log.as_ref().map(trace::lock);
    let device = b.device_log.as_ref().map(trace::lock);
    let shim_ns =
        control.as_ref().map_or(0, |c| c.total_ns()) + device.as_ref().map_or(0, |d| d.total_ns);
    layers.events += b.sim.events_processed();
    layers.run_s += run_s;
    layers.shim_s += shim_ns as f64 / 1e9;
    let stats = b.sim.switch(b.sw).stats;
    layers.misses += stats.misses;
    layers.packet_ins += stats.packet_ins;
    layers.forwarded += stats.forwarded_packets;
    layers.ingress_drops += stats.ingress_drops;
    layers.ctrl_dropped += b.sim.ctrl_stats.dropped;
    if let Some(c) = &control {
        if b.monitor.is_some() {
            layers.fg_calls += c.calls();
            layers.fg_ns += c.total_ns();
            layers.fg_msg_ns.extend_from_slice(&c.on_message);
            layers.fg_device_ns.extend_from_slice(&c.on_device_message);
            layers.fg_telemetry_ns.extend_from_slice(&c.on_telemetry);
        } else {
            layers.controller_calls += c.calls();
            layers.controller_ns += c.total_ns();
            layers.controller_msg_ns.extend_from_slice(&c.on_message);
        }
    }
    if let Some(d) = &device {
        layers.cache_calls += d.calls();
        layers.cache_ns += d.total_ns;
        layers.cache_packet_ns.extend_from_slice(&d.per_packet);
        layers.cache_tick_ns.extend_from_slice(&d.on_tick);
    }
    drop((control, device));
    if let Some(cache) = &b.cache {
        let st = cache.lock().stats;
        layers.cache_received += st.received;
        layers.cache_emitted += st.emitted;
        layers.cache_dropped += st.dropped;
    }
    if let Some(m) = &b.monitor {
        let st = m.lock().stats;
        layers.reraised += st.reraised;
        layers.proactive_installed += st.proactive_installed;
    }

    if s.probes.is_empty() {
        let a0 = s.attack_start.min(s.duration);
        let a1 = s.attack_stop.min(s.duration);
        return Row::Bps(b.sim.host(b.h2).meter.bps_in(a0 + 0.2 * (a1 - a0), a1));
    }
    let (id, at) = (1u32, s.probes[0]);
    let source_port = NewFlowProbe::source_port(id);
    let delay = b
        .sim
        .host(b.h2)
        .deliveries
        .iter()
        .find(|(p, _)| {
            p.tag == FlowTag::NewFlow { id }
                || matches!(
                    p.payload,
                    Payload::Ipv4 {
                        transport: Transport::Tcp { src_port, dst_port, flags, .. },
                        ..
                    } if src_port == source_port
                        && dst_port == 80
                        && flags & (Transport::TCP_SYN | Transport::TCP_ACK) != 0
                )
        })
        .map(|(_, t)| *t - at);
    Row::Probe {
        delay,
        cache_waits_ms: cache_waits(b.cache.as_ref()),
    }
}

/// How a pass runs its scenarios.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Registry,
    Traced,
}

/// Runs every scenario once, in `order`; returns the rows and each
/// scenario's wall time (both in job order), and the pass's wall time.
fn pass(
    jobs: &[Job],
    order: &[usize],
    mode: Mode,
    layers: &mut Layers,
) -> (Vec<Row>, Vec<f64>, f64) {
    let mut rows = vec![Row::Bps(f64::NAN); jobs.len()];
    let mut run_s = vec![0.0; jobs.len()];
    let t0 = Instant::now();
    for &i in order {
        let s = &jobs[i].scenario;
        let t = Instant::now();
        rows[i] = match mode {
            Mode::Plain => row_of(s, &bench::run(s)),
            Mode::Registry => row_of(s, &bench::run(&s.clone().with_obs_registry())),
            Mode::Traced => run_traced(s, layers),
        };
        run_s[i] = t.elapsed().as_secs_f64();
    }
    (rows, run_s, t0.elapsed().as_secs_f64())
}

/// One set-up: read the checked-in rows and assemble every scenario's
/// topology and control plane without running it. Records its time.
fn set_up(root: &Path, jobs: &[Job], setups: &mut Vec<f64>) -> Result<Expected, String> {
    let t0 = Instant::now();
    let expected = load_expected(root);
    for _ in 0..BUILDS_PER_SETUP {
        for job in jobs {
            std::hint::black_box(build(&job.scenario, false));
        }
    }
    setups.push(t0.elapsed().as_secs_f64());
    expected
}

/// Runs the workload.
pub fn run(args: &Args, root: &Path) -> Report {
    let mut report = Report::default();
    let jobs = jobs();
    let mut rng = Rng::new(args.seed);

    let mut setups = Vec::new();
    let expected = match set_up(root, &jobs, &mut setups) {
        Ok(e) => e,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };

    let modes: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Registry, Mode::Traced]
    } else {
        &[Mode::Plain]
    };
    let mut times: [Vec<f64>; 3] = Default::default();
    // Each scenario's fastest plain run.
    let mut best = vec![f64::INFINITY; jobs.len()];
    let mut traced: Vec<Layers> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || times[0].len() < 3 {
        for &mode in modes {
            // Set-ups are spread over the run, so their median sees the
            // same host conditions as the passes.
            let _ = set_up(root, &jobs, &mut setups);
            let order = rng.permutation(jobs.len());
            let mut pass_layers = Layers::default();
            let (rows, run_s, wall) = pass(&jobs, &order, mode, &mut pass_layers);
            report.attempted += jobs.len() as u64;
            check(&jobs, &rows, &expected, mode_name(mode), &mut report);
            times[mode as usize].push(wall);
            if mode == Mode::Plain {
                for (b, t) in best.iter_mut().zip(&run_s) {
                    *b = b.min(*t);
                }
            }
            if mode == Mode::Traced {
                traced.push(pass_layers);
            }
        }
    }

    if !args.trace {
        report.metric_opt("setup_s", median(&setups), "s");
        // A pass as fast as each scenario ran in this run: on a shared host
        // whose speed swings by up to 1.7x for seconds at a time, the
        // fastest run of a ~30 ms scenario repeats from run to run, where
        // the mean or median pass time follows the host.
        report.metric("op_ms", best.iter().sum::<f64>() * 1e3, "ms");
        return report;
    }
    let plain = mean_of(&times[0]).unwrap_or(f64::NAN);
    let ratio = |m: Option<f64>| m.map(|v| v / plain);
    report.metric_opt("trace.overhead", ratio(mean_of(&times[2])), "ratio");
    report.metric_opt("obs.registry_overhead", ratio(mean_of(&times[1])), "ratio");
    // Attribution over every traced pass: the engine's self time is
    // `run_until` minus the time inside the shims.
    let mut layer_use = trace::LayerUse::new(traced.len() as f64, times[2].iter().sum());
    for l in &traced {
        layer_use.add("netsim", l.events as f64, l.run_s - l.shim_s);
        layer_use.add(
            "controller",
            l.controller_calls as f64,
            l.controller_ns as f64 / 1e9,
        );
        layer_use.add("floodguard", l.fg_calls as f64, l.fg_ns as f64 / 1e9);
        layer_use.add("cache", l.cache_calls as f64, l.cache_ns as f64 / 1e9);
    }
    layer_use.report(&mut report);
    // Counts repeat exactly from pass to pass; timings pool every pass.
    let l = traced.last().expect("a traced run makes traced passes");
    let pooled = |series: fn(&Layers) -> &Vec<u64>, divisor: f64| {
        let all: Vec<u64> = traced.iter().flat_map(series).copied().collect();
        trace::scaled(&all, divisor)
    };
    let engine_s = l.run_s - l.shim_s;
    report.metric("netsim.events", l.events as f64, "count");
    report.metric("netsim.engine_s", engine_s, "s");
    report.metric("netsim.events_per_s", l.events as f64 / engine_s, "1/s");
    report.metric("netsim.switch_misses", l.misses as f64, "count");
    report.metric("netsim.packet_ins", l.packet_ins as f64, "count");
    report.metric("netsim.forwarded", l.forwarded as f64, "count");
    report.metric("netsim.ingress_drops", l.ingress_drops as f64, "count");
    report.metric("netsim.ctrl_dropped", l.ctrl_dropped as f64, "count");
    let ctl = pooled(|l| &l.controller_msg_ns, 1e3);
    report.metric_opt("controller.on_message_us_p50", percentile(&ctl, 50.0), "us");
    report.metric_opt("controller.on_message_us_p99", percentile(&ctl, 99.0), "us");
    let fg = pooled(|l| &l.fg_msg_ns, 1e3);
    report.metric_opt("floodguard.on_message_us_p50", percentile(&fg, 50.0), "us");
    report.metric_opt("floodguard.on_message_us_p99", percentile(&fg, 99.0), "us");
    report.metric_opt(
        "floodguard.on_device_message_us_p50",
        percentile(&pooled(|l| &l.fg_device_ns, 1e3), 50.0),
        "us",
    );
    let tel = pooled(|l| &l.fg_telemetry_ns, 1e3);
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
        percentile(&pooled(|l| &l.cache_packet_ns, 1.0), 50.0),
        "ns",
    );
    report.metric_opt(
        "floodguard.cache_on_tick_us",
        percentile(&pooled(|l| &l.cache_tick_ns, 1e3), 50.0),
        "us",
    );
    cache_counts(
        &mut report,
        l.cache_received,
        l.cache_emitted,
        l.cache_dropped,
        l.reraised,
        l.proactive_installed,
    );
    report
}

/// Reports the cache and FloodGuard counters shared by the sweep and the
/// live workload.
pub fn cache_counts(
    report: &mut Report,
    received: u64,
    emitted: u64,
    dropped: u64,
    reraised: u64,
    proactive: u64,
) {
    report.metric(
        "floodguard.cache_emit_ratio",
        emitted as f64 / received.max(1) as f64,
        "ratio",
    );
    report.metric("floodguard.cache_received", received as f64, "count");
    report.metric("floodguard.cache_emitted", emitted as f64, "count");
    report.metric("floodguard.cache_dropped", dropped as f64, "count");
    report.metric("floodguard.reraised", reraised as f64, "count");
    report.metric("floodguard.proactive_installed", proactive as f64, "count");
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Plain => "plain pass",
        Mode::Registry => "obs-registry pass",
        Mode::Traced => "traced pass",
    }
}
