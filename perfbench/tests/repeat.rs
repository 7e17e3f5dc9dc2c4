//! The exact counts a later change may rest a claim on repeat bit for
//! bit across two runs with the same seed, and `BENCHMARK.json` names
//! exactly the workloads and metrics the benchmark reports.
//!
//! Runs the real workloads (about a minute with `--release`).

use emx_obs::Json;
use emx_perfbench::{per_layer_names, run_workload, Ctx, END_TO_END, WORKLOADS};

/// Exact counts of one traced run of `workload`.
fn counts(workload: &str, seed: u64) -> Vec<(String, u64)> {
    // The shortest run: a warm-up, one untraced and one traced sample.
    let ctx = Ctx::new(seed, 1e-3, true);
    let out = run_workload(workload, &ctx).expect("known workload");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
    ["scf.iterations", "fock.quartets", "distsim.events"]
        .iter()
        .map(|&name| {
            let v = out.values.get(name).copied().unwrap_or(0.0);
            assert_eq!(v.fract(), 0.0, "{workload}: {name} = {v} is a count");
            (name.to_string(), v as u64)
        })
        .collect()
}

#[test]
fn exact_counts_repeat_across_runs_with_one_seed() {
    for &w in WORKLOADS {
        let first = counts(w, 7);
        assert_eq!(first, counts(w, 7), "{w}: exact counts differ between runs");
        let measured: u64 = first.iter().map(|(_, v)| v).sum();
        assert!(measured > 0, "{w}: reports no exact count");
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}
