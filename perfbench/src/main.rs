//! The repository's benchmark: four workloads that call the crates' public
//! APIs from outside, check their own outputs, and report end-to-end
//! metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every workload reports the same
//! metrics, [`END_TO_END`] untraced and [`per_layer`] traced. Figures
//! particular to a workload precede it as `# name = value unit` lines. See
//! `perfbench/README.md`.

mod churn;
mod fabric;
mod live;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// The workloads this binary runs. `BENCHMARK.json` gates
/// `analyzer_churn` and `live_defense` only: on a small shared host the
/// simulator-bound `paper_sweep` and `fabric_pdes` follow the neighbours'
/// load, and their times spread more between runs than any bound may
/// allow (see `perfbench/README.md`).
const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "fabric_pdes",
    "analyzer_churn",
    "live_defense",
];

/// End-to-end metrics every untraced run reports, with their units:
/// the median set-up time and the time of one operation of the workload
/// (a sweep pass, a fabric run, an analyzer refresh, a calm probe's flow
/// set-up).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("op_ms", "ms")];

/// Per-layer metrics every traced run reports, with their units: the
/// tracing overhead, then calls per operation and busy share per layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = vec![("trace.overhead".to_owned(), "ratio")];
    for layer in trace::LAYERS {
        names.push((format!("{layer}.calls"), "count"));
        names.push((format!("{layer}.busy_share"), "ratio"));
    }
    names
}

/// The metrics a run reports: [`END_TO_END`] untraced, [`per_layer`] traced.
pub fn schema(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    }
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The checkout this benchmark was built from (holds `results/`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// `git rev` of the checkout when it is a git work tree, else `none`.
fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|r| r.trim().to_owned())
            .unwrap_or_else(|_| reference.to_owned()),
        None => head,
    }
}

/// One line describing the host and build, printed before the result.
fn fingerprint(root: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "# host: nproc={cores} rustc=\"{}\" profile={} git_rev={}",
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev(root)
    )
}

/// A small seeded generator (splitmix64): every workload input derives
/// from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f100_d6a2_d000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    println!("{}", fingerprint(&root));
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = match args.workload.as_str() {
        "paper_sweep" => sweep::run(&args, &root),
        "fabric_pdes" => fabric::run(&args),
        "analyzer_churn" => churn::run(&args),
        "live_defense" => live::run(&args),
        _ => unreachable!("validated by parse"),
    };
    let schema = schema(args.trace);
    report.conform(&schema);
    for why in &report.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    for line in report.details(&schema) {
        println!("{line}");
    }
    println!("{}", report.render(&schema));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "fabric_pdes",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "fabric_pdes");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "paper_sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper_sweep", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "paper_sweep", "--bogus"]).is_err());
    }

    /// Every name in `BENCHMARK.json` is legal and used once, its workloads
    /// are ones this binary runs, and its metrics are exactly the ones it
    /// reports, in order.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let body = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = body
            .split("{\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        for name in &names {
            assert!(stats::valid_name(name), "illegal name {name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        let metrics: Vec<String> = schema(false)
            .into_iter()
            .chain(schema(true))
            .map(|(n, _)| n)
            .collect();
        let (workloads, listed) = names.split_at(names.len() - metrics.len());
        assert!(workloads.len() >= 2);
        for w in workloads {
            assert!(
                WORKLOADS.contains(w),
                "{w} is not a workload of this binary"
            );
        }
        assert_eq!(listed, metrics);
        for (name, unit) in schema(false).into_iter().chain(schema(true)) {
            assert!(
                body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} not listed with unit {unit}"
            );
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(3);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(3);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut p = Rng::new(9).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
