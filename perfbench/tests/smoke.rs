//! One-workload smoke run of the benchmark binary with an explicit seed.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn manifest_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = body
        .find(&format!("\"{section}\""))
        .expect("section in BENCHMARK.json");
    let block = &body[start..start + body[start..].find(']').expect("closing bracket")];
    block
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

/// A fabric run with an explicit seed, untraced and traced, prints a
/// correct result line holding every metric the manifest lists for it.
#[test]
fn fabric_smoke_run_prints_every_manifest_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = run(&[
            "--workload",
            "fabric_pdes",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(ok, "benchmark exited non-zero:\n{stdout}");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ") && last.ends_with("}}"),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0"), "{last}");
        let names = manifest_names(section);
        assert!(!names.is_empty());
        for metric in names {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} missing: {last}"
            );
        }
        assert!(stdout.starts_with("# host: nproc="), "fingerprint first");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, stdout) = run(&["--workload", "no_such_workload", "--seed", "1"]);
    assert!(!ok);
    assert!(!stdout.contains("\"correct\""), "{stdout}");
}
