//! `fabric_pdes`: a k=8 fat tree (128 hosts, 64 cross-fabric CBR flows)
//! run at two simulation threads — the only workload where the parallel
//! engine's partitions, windows and merges do real work (the paper's Fig. 9
//! topology is a single partition).

use std::time::Instant;

use netsim::engine::Simulation;
use netsim::host::CbrSource;
use netsim::iface::NullControlPlane;
use netsim::topo;
use netsim::{SwitchId, SwitchProfile};

use crate::stats::{median, Report};
use crate::trace::{self, TimedControl};
use crate::{Args, Rng};

/// Fat-tree arity: `k^3/4 = 128` hosts, 80 switches.
const K: usize = 8;
/// Cross-fabric CBR flows.
const FLOWS: usize = 64;
/// Simulated seconds per run.
const DURATION: f64 = 0.5;
/// Worker threads of the measured runs.
const THREADS: usize = 2;

/// Builds the fabric with its flows. `offset` (0..16, from the seed) picks
/// which host of the opposite half each flow targets; every choice stays
/// cross-pod.
fn build(seed: u64, offset: usize) -> (Simulation, Vec<SwitchId>) {
    let mut sim = Simulation::new(seed);
    sim.set_link_latency(1e-3);
    // Control-channel latency raised to the link latency so the
    // conservative lookahead window is a full millisecond.
    let profile = SwitchProfile {
        channel_latency: 1e-3,
        ..SwitchProfile::software()
    };
    let ft = topo::fat_tree(&mut sim, K, profile);
    let switches: Vec<SwitchId> = ft
        .cores
        .iter()
        .chain(ft.aggs.iter().flatten())
        .chain(ft.edges.iter().flatten())
        .copied()
        .collect();
    let n = ft.hosts.len();
    for &h in &ft.hosts {
        sim.host_mut(h).set_deliveries_cap(0);
    }
    for i in 0..FLOWS.min(n) {
        let (from, to) = (ft.hosts[i], ft.hosts[(i + n / 2 + offset) % n]);
        let (src_mac, src_ip) = (sim.host(from).mac, sim.host(from).ip);
        let (dst_mac, dst_ip) = (sim.host(to).mac, sim.host(to).ip);
        sim.host_mut(from).add_source(Box::new(CbrSource::new(
            src_mac, src_ip, dst_mac, dst_ip, 400.0, 0.0, DURATION, 200,
        )));
    }
    (sim, switches)
}

struct RunOut {
    events: u64,
    wall_s: f64,
    shim_s: f64,
    shim_calls: u64,
    partitions: usize,
    stats: [u64; 5],
}

/// Builds and runs the fabric once; returns the set-up time and the run.
fn once(seed: u64, offset: usize, threads: usize, shim: bool) -> (f64, RunOut) {
    let t0 = Instant::now();
    let (mut sim, switches) = build(seed, offset);
    let setup_s = t0.elapsed().as_secs_f64();
    sim.set_threads(threads);
    let log = shim.then(|| {
        let (control, log) = TimedControl::new(NullControlPlane);
        sim.set_control_plane(Box::new(control));
        log
    });
    let t0 = Instant::now();
    sim.run_until(DURATION);
    let wall_s = t0.elapsed().as_secs_f64();
    let (shim_calls, shim_s) = log.map_or((0, 0.0), |l| {
        let l = trace::lock(&l);
        (l.calls(), l.total_ns() as f64 / 1e9)
    });
    let mut stats = [0u64; 5];
    for &sw in &switches {
        let st = sim.switch(sw).stats;
        for (acc, v) in stats.iter_mut().zip([
            st.misses,
            st.packet_ins,
            st.forwarded_packets,
            st.ingress_drops,
        ]) {
            *acc += v;
        }
    }
    stats[4] = sim.ctrl_stats.dropped;
    (
        setup_s,
        RunOut {
            events: sim.events_processed(),
            wall_s,
            shim_s,
            shim_calls,
            partitions: sim.partition_count(),
            stats,
        },
    )
}

/// The fastest of many short runs. A 2-thread run waits at every window
/// barrier for the slower thread, so a moment's loss of one vCPU to another
/// tenant can stretch a 70 ms run several times over; interference only
/// ever adds time, and among ~200 runs some are untouched by it.
fn fastest(runs: &[f64]) -> Option<f64> {
    runs.iter().copied().reduce(f64::min)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let seed = Rng::new(args.seed).next_u64();
    let offset = (seed % 16) as usize;

    // The single-thread reference every parallel run must match exactly.
    let (first_setup, reference) = once(seed, offset, 1, false);
    report.attempted += 1;
    let mut setups = vec![first_setup];
    let mut plain = Vec::new();
    let mut single = vec![reference.wall_s];
    let mut traced: Vec<RunOut> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || plain.len() < 5 {
        let mut kinds = vec![(THREADS, false)];
        if args.trace {
            kinds.push((1, false));
            kinds.push((THREADS, true));
        }
        for (threads, shim) in kinds {
            let (setup_s, out) = once(seed, offset, threads, shim);
            setups.push(setup_s);
            report.attempted += 1;
            report.check(out.events == reference.events, || {
                format!(
                    "{} events at {threads} threads, {} at 1 thread",
                    out.events, reference.events
                )
            });
            match (threads, shim) {
                (1, _) => single.push(out.wall_s),
                (_, false) => plain.push(out.wall_s),
                (_, true) => traced.push(out),
            }
        }
    }

    if !args.trace {
        report.metric_opt("setup_s", median(&setups), "s");
        report.metric_opt("op_ms", fastest(&plain).map(|s| s * 1e3), "ms");
        return report;
    }
    let plain_s = fastest(&plain).unwrap_or(f64::NAN);
    let traced_s = fastest(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    report.metric_opt("trace.overhead", traced_s.map(|t| t / plain_s), "ratio");
    report.metric_opt(
        "netsim.par_speedup",
        fastest(&single).map(|t1| t1 / plain_s),
        "ratio",
    );
    let mut layer_use =
        trace::LayerUse::new(traced.len() as f64, traced.iter().map(|r| r.wall_s).sum());
    for r in &traced {
        layer_use.add("netsim", r.events as f64, r.wall_s - r.shim_s);
        layer_use.add("controller", r.shim_calls as f64, r.shim_s);
    }
    layer_use.report(&mut report);
    let last = traced.last().expect("traced runs happen every round");
    let engine_s = median(
        &traced
            .iter()
            .map(|r| r.wall_s - r.shim_s)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(f64::NAN);
    report.metric("netsim.partitions", last.partitions as f64, "count");
    report.metric("netsim.events", last.events as f64, "count");
    report.metric("netsim.engine_s", engine_s, "s");
    report.metric("netsim.events_per_s", last.events as f64 / engine_s, "1/s");
    let [misses, packet_ins, forwarded, ingress_drops, ctrl_dropped] = last.stats;
    report.metric("netsim.switch_misses", misses as f64, "count");
    report.metric("netsim.packet_ins", packet_ins as f64, "count");
    report.metric("netsim.forwarded", forwarded as f64, "count");
    report.metric("netsim.ingress_drops", ingress_drops as f64, "count");
    report.metric("netsim.ctrl_dropped", ctrl_dropped as f64, "count");
    report
}
