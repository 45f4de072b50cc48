//! `analyzer_churn`: 1000 synthetic apps with compression on at the
//! hardware profile's 4096-entry TCAM budget. Each step changes some apps'
//! state and times the path from the change to installable flow-mods:
//! `detect_changes` → `convert` → `dispatch`.
//!
//! The churn is stationary: a step overwrites existing keys with another
//! port and the next step restores them, so the rule set neither grows nor
//! drifts over a run.

use std::time::Instant;

use controller::apps;
use controller::platform::App;
use floodguard::analyzer::{Analyzer, RuleUpdate};
use ofproto::types::MacAddr;
use policy::ProactiveRule;
use symexec::CompressionConfig;

use crate::stats::{mean_of, median, percentile, Report};
use crate::{trace, Args, Rng};

/// Apps in the population (route : l2 = 9 : 1).
pub const APPS: usize = 1000;
/// The hardware switch profile's flow-table capacity.
pub const TCAM_BUDGET: usize = 4096;
/// Apps changed by a burst step.
const BURST: usize = 100;
/// One step in this many is a burst; the rest change one app.
const BURST_ONE_IN: usize = 10;
/// Fewest set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Refreshes between two timed set-ups.
const SETUP_EVERY: usize = 8;
/// Fewest refreshes an untraced run times, so that even a short run has
/// several chances at the fastest refresh.
const MIN_REFRESHES: usize = 20;
/// Fewest traced refreshes (a p50 needs ten samples beyond it).
const MIN_TRACED: usize = 20;
const COOKIE: u64 = 0x000F_100D_64AD;

/// The compression every refresh runs.
pub fn compression() -> CompressionConfig {
    CompressionConfig::default().with_budget(TCAM_BUDGET)
}

/// A population under churn and the analyzer tracking it.
pub struct Churn {
    /// The apps (their state moves every step).
    pub apps: Vec<App>,
    /// The incremental analyzer under test.
    pub analyzer: Analyzer,
    /// `(app, key)` pairs currently overwritten, restored next step.
    mutated: Vec<(usize, u64)>,
    rng: Rng,
    now: f64,
}

/// One step's timings and output.
pub struct Step {
    /// Apps whose state this step overwrote.
    pub apps_changed: usize,
    /// Whether the tracker saw the change.
    pub changed: bool,
    /// `detect_changes` time, s.
    pub detect_s: f64,
    /// `convert` time (compression included), s.
    pub convert_s: f64,
    /// `dispatch` time, s.
    pub dispatch_s: f64,
    /// The compressed rule set `convert` returned.
    pub rules: Vec<ProactiveRule>,
    /// The flow-mods `dispatch` produced.
    pub update: RuleUpdate,
}

impl Step {
    /// From the state change to the `RuleUpdate`, s.
    pub fn refresh_s(&self) -> f64 {
        self.detect_s + self.convert_s + self.dispatch_s
    }
}

/// Overwrites (or, with `restore`, puts back) key `key` of app `i`: the
/// route apps' `key`-th /24 and the l2 apps' `key`-th MAC move to the next
/// port.
fn set_key(app: &mut App, i: usize, key: u64, restore: bool) {
    let home = (key % 8 + 1) as u16;
    if i % 10 == 9 {
        let port = if restore { home } else { home % 8 + 1 };
        let mac = MacAddr::from_u64(0x02_0000_0000 | ((i as u64) << 8) | key);
        apps::l2_learning::learn_host(&mut app.env, mac, port);
    } else {
        let home = (i % 8 + 1) as u16;
        let port = if restore { home } else { home % 8 + 1 };
        let base = 0x0a00_0000u32 | ((i as u32) << 11);
        let net = std::net::Ipv4Addr::from(base | ((key as u32) << 8));
        apps::route::add_route(&mut app.env, net, port);
    }
}

impl Churn {
    /// Builds `n` apps, runs the offline phase and the first cold convert
    /// and dispatch. The Algorithm 1 memo is cleared first, so every set-up
    /// pays for symbolic execution.
    pub fn new(n: usize, seed: u64, config: Option<CompressionConfig>) -> Churn {
        symexec::clear_path_memo();
        let apps = bench::synthetic::population(n);
        let mut analyzer = Analyzer::offline(&apps);
        analyzer.set_compression(config);
        analyzer.detect_changes(&apps);
        let rules = analyzer.convert(&apps);
        analyzer.dispatch(rules, COOKIE, 0.0);
        Churn {
            apps,
            analyzer,
            mutated: Vec::new(),
            rng: Rng::new(seed),
            now: 0.0,
        }
    }

    /// Restores the previous step's keys and overwrites a new set: one app,
    /// or a burst of [`BURST`] apps one step in [`BURST_ONE_IN`].
    fn mutate(&mut self) -> usize {
        for (i, key) in std::mem::take(&mut self.mutated) {
            set_key(&mut self.apps[i], i, key, true);
        }
        let count = if self.rng.below(BURST_ONE_IN) == 0 {
            BURST.min(self.apps.len())
        } else {
            1
        };
        let picks = self.rng.permutation(self.apps.len());
        for &i in &picks[..count] {
            let key = self.rng.below(8) as u64;
            set_key(&mut self.apps[i], i, key, false);
            self.mutated.push((i, key));
        }
        count
    }

    /// Changes state and refreshes the rules, timing each stage.
    pub fn step(&mut self) -> Step {
        let apps_changed = self.mutate();
        self.now += 1.0;
        let t0 = Instant::now();
        let changed = self.analyzer.detect_changes(&self.apps);
        let t1 = Instant::now();
        let rules = self.analyzer.convert(&self.apps);
        let t2 = Instant::now();
        let update = self.analyzer.dispatch(rules.clone(), COOKIE, self.now);
        let t3 = Instant::now();
        Step {
            apps_changed,
            changed,
            detect_s: (t1 - t0).as_secs_f64(),
            convert_s: (t2 - t1).as_secs_f64(),
            dispatch_s: (t3 - t2).as_secs_f64(),
            rules,
            update,
        }
    }
}

/// Builds a fresh population and analyzer, recording the set-up time and
/// the offline phase's own time.
fn set_up(seed: u64, setups: &mut Vec<f64>, offline_ms: &mut Vec<f64>) -> Churn {
    let t0 = Instant::now();
    let churn = Churn::new(APPS, seed, Some(compression()));
    setups.push(t0.elapsed().as_secs_f64());
    symexec::clear_path_memo();
    let t0 = Instant::now();
    std::hint::black_box(Analyzer::offline(&churn.apps));
    offline_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    churn
}

/// Checks one step: the change was seen, the set fits the TCAM with no
/// evictions, and flow-mods came out.
fn check_step(churn: &Churn, step: &Step, report: &mut Report) {
    report.attempted += 1;
    let c = churn.analyzer.last_compression;
    let fits = c.is_some_and(|c| c.fits_budget && c.rules_evicted == 0);
    report.check(step.changed && fits && !step.update.is_empty(), || {
        format!(
            "refresh of {} apps: changed={} compression={c:?} flow_mods={}",
            step.apps_changed,
            step.changed,
            step.update.len()
        )
    });
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut offline_ms = Vec::new();
    let mut churn = set_up(args.seed, &mut setups, &mut offline_ms);

    // The traced run keeps an uncompressed analyzer on the same state, so
    // conversion and compression can be timed apart.
    let mut raw = args.trace.then(|| {
        let mut a = Analyzer::offline(&churn.apps);
        a.convert(&churn.apps);
        a
    });
    let mut refresh = Vec::new();
    let mut traced = Vec::new();
    let mut layers: [Vec<f64>; 6] = Default::default();
    let cache_before = churn.analyzer.cache_stats();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || (!args.trace && refresh.len() < MIN_REFRESHES)
        || traced.len() < if args.trace { MIN_TRACED } else { 0 }
        || setups.len() < SETUPS
    {
        // Further set-ups are spread over the run, so their median sees
        // the same host conditions as the refreshes.
        if refresh.len() % SETUP_EVERY == SETUP_EVERY - 1 {
            drop(set_up(args.seed, &mut setups, &mut offline_ms));
        }
        let step = churn.step();
        check_step(&churn, &step, &mut report);
        refresh.push(step.refresh_s() * 1e3);
        let Some(raw) = raw.as_mut() else {
            continue;
        };
        let step = churn.step();
        check_step(&churn, &step, &mut report);
        traced.push(step.refresh_s() * 1e3);
        let t0 = Instant::now();
        let raw_rules = raw.convert(&churn.apps);
        let t1 = Instant::now();
        let (compressed, cstats) = symexec::compress(&raw_rules, &compression());
        let t2 = Instant::now();
        report.check(compressed == step.rules, || {
            format!(
                "symexec::compress on the raw rules gave {} rules, the analyzer {}",
                compressed.len(),
                step.rules.len()
            )
        });
        for (series, v) in layers.iter_mut().zip([
            step.detect_s * 1e6,
            (t1 - t0).as_secs_f64() * 1e3,
            (t2 - t1).as_secs_f64() * 1e3,
            step.dispatch_s * 1e3,
            step.update.len() as f64,
            cstats.ratio(),
        ]) {
            series.push(v);
        }
    }

    // The incremental result must equal a fresh analyzer's cold convert of
    // the final state.
    let mut fresh = Analyzer::offline(&churn.apps);
    fresh.set_compression(Some(compression()));
    let cold = fresh.convert(&churn.apps);
    report.attempted += 1;
    report.check(cold == churn.analyzer.installed(), || {
        format!(
            "incremental rules ({}) differ from a cold convert ({})",
            churn.analyzer.installed().len(),
            cold.len()
        )
    });

    if !args.trace {
        report.metric_opt("setup_s", median(&setups), "s");
        // The fastest refresh: a refresh is ~0.6 s of compression, and on a
        // shared host whose speed swings by up to 1.7x for seconds at a time
        // the fastest of a run's refreshes repeats from run to run (mean
        // spread 0.19, fastest 0.09 over five runs on a 2-vCPU VM), where
        // the mean follows the host.
        report.metric_opt("op_ms", refresh.iter().copied().reduce(f64::min), "ms");
        return report;
    }
    report.metric_opt(
        "trace.overhead",
        mean_of(&traced).zip(mean_of(&refresh)).map(|(t, p)| t / p),
        "ratio",
    );
    // A refresh is three analyzer calls; compression runs inside `convert`,
    // so symexec's time (timed on the same raw rules) is taken out of the
    // analyzer's self time.
    let mut layer_use = trace::LayerUse::new(traced.len() as f64, traced.iter().sum::<f64>() / 1e3);
    for (refresh_ms, compress_ms) in traced.iter().zip(&layers[2]) {
        let compress_s = compress_ms.min(*refresh_ms) / 1e3;
        layer_use.add("analyzer", 3.0, refresh_ms / 1e3 - compress_s);
        layer_use.add("symexec", 1.0, compress_s);
    }
    layer_use.report(&mut report);
    report.metric_opt("refresh_ms_p50", percentile(&refresh, 50.0), "ms");
    report.metric_opt("analyzer.offline_ms", median(&offline_ms), "ms");
    let [detect, convert, compress, dispatch, mods, ratio] = &layers;
    report.metric_opt(
        "analyzer.detect_changes_us_p50",
        percentile(detect, 50.0),
        "us",
    );
    report.metric_opt("analyzer.convert_ms_p50", percentile(convert, 50.0), "ms");
    report.metric_opt("symexec.compress_ms_p50", percentile(compress, 50.0), "ms");
    report.metric_opt("analyzer.dispatch_ms_p50", percentile(dispatch, 50.0), "ms");
    report.metric_opt("analyzer.flow_mods_per_refresh", median(mods), "count");
    report.metric_opt("symexec.compress_ratio", median(ratio), "ratio");
    // Over the refreshes only, not the set-up's cold convert.
    let cache = churn.analyzer.cache_stats();
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("analyzer.cache_hit_rate", hits / (hits + misses), "ratio");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The churn is stationary: once a first cycle has shown both a
    /// single-app step and a burst, later steps keep the compressed rule
    /// count inside the range that cycle saw.
    #[test]
    fn compressed_rule_count_stays_in_first_cycle_range() {
        let mut churn = Churn::new(60, 5, Some(compression()));
        let (mut lo, mut hi) = (usize::MAX, 0);
        let (mut single, mut burst, mut steps) = (false, false, 0);
        while !(single && burst && steps >= 10) {
            let step = churn.step();
            single |= step.apps_changed == 1;
            burst |= step.apps_changed > 1;
            lo = lo.min(step.rules.len());
            hi = hi.max(step.rules.len());
            steps += 1;
            assert!(steps < 500, "no burst step in 500 steps");
        }
        for n in 0..150 {
            let len = churn.step().rules.len();
            assert!(
                (lo..=hi).contains(&len),
                "step {n}: {len} rules outside the first cycle's {lo}..={hi}"
            );
        }
    }

    #[test]
    fn every_step_changes_state_and_emits_flow_mods() {
        let mut churn = Churn::new(30, 9, Some(compression()));
        for _ in 0..10 {
            let step = churn.step();
            assert!(step.changed);
            assert!(!step.update.is_empty());
        }
    }
}
